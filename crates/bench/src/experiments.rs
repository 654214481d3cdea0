//! Workloads regenerating the paper's analytic results (§7.2–§7.3,
//! Table 1, Figures 1/3/4/11, Appendix).
//!
//! Counting convention (see `EXPERIMENTS.md`): only update/reconfiguration
//! protocol messages count (`gmp_core::PROTOCOL_TAGS`); a broadcast counts
//! one message per receiver; heartbeats, suspicion reports, join requests
//! and state transfer are excluded. The paper's constants assume the same
//! convention up to O(1) differences in whether known-faulty members are
//! still addressed.

use gmp_baselines::{SymMsg, SymmetricMember};
use gmp_core::{
    cluster_with, is_protocol_tag, ClusterBuilder, Config, Flat, JoinConfig, Member, Msg, Sparse,
    Topology,
};
use gmp_log::{
    logs_agree, prefix_identical, AppMsg, LogClusterBuilder, LogCmd, LogConfig, LogProc,
};
use gmp_props::{analyze, check_all, check_safety, knowledge_ladder, render_ladder};
use gmp_sim::{
    pool, run_seeds_parallel, summarize_runs, BatchConfig, Builder, Sim, Stats, Summary, TraceKind,
};
use gmp_types::{Note, ProcessId, View};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Arc;

/// Total protocol messages sent in a run (§7.2 counting convention).
pub fn protocol_messages(stats: &Stats) -> u64 {
    stats.sends_matching(is_protocol_tag)
}

// ---------------------------------------------------------------------
// E1 — single exclusion: ≤ 3n − 5 messages (§7.2 "best case", plain
// two-phase update)
// ---------------------------------------------------------------------

/// One row of the E1 table.
#[derive(Clone, Debug)]
pub struct ExclusionRow {
    /// Group size.
    pub n: usize,
    /// Protocol messages measured for one exclusion.
    pub measured: u64,
    /// The paper's bound `3n − 5`.
    pub formula: u64,
}

/// Measures the message cost of excluding one crashed member at each group
/// size.
pub fn e1_exclusion(ns: &[usize], seed: u64) -> Vec<ExclusionRow> {
    ns.iter()
        .map(|&n| {
            let mut sim = cluster_with(n, seed + n as u64, Config::default());
            sim.crash_at(ProcessId(n as u32 - 1), 300);
            sim.run_until(8_000);
            ExclusionRow {
                n,
                measured: protocol_messages(sim.stats()),
                formula: (3 * n - 5) as u64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E2 — condensed rounds: successive failures amortize the invitation
// (§3.1, §7.2: standard two-phase pays ~n/2−1 extra messages/exclusion)
// ---------------------------------------------------------------------

/// One row of the E2 table.
#[derive(Clone, Debug)]
pub struct CondensedRow {
    /// Group size.
    pub n: usize,
    /// Number of members crashed (in one burst).
    pub victims: usize,
    /// Total protocol messages with condensed rounds.
    pub compressed: u64,
    /// Total protocol messages with the standard two-phase algorithm.
    pub standard: u64,
    /// Measured savings per exclusion.
    pub saved_per_exclusion: f64,
}

/// Crashes a burst of members so the coordinator's queue stays non-empty
/// and successive rounds compress; compares against the uncompressed
/// algorithm on the identical schedule.
///
/// The paper's scenario assumes `Mgr` cannot fail here (§3.1 basic
/// algorithm), so the majority requirement is disabled for both runs.
pub fn e2_condensed(ns: &[usize], seed: u64) -> Vec<CondensedRow> {
    ns.iter()
        .map(|&n| {
            let victims = n / 2;
            let run = |compression: bool| -> u64 {
                let cfg = Config::builder()
                    .mgr_majority(false)
                    .compression(compression)
                    .build();
                let mut sim = cluster_with(n, seed + n as u64, cfg);
                // Crash the junior half in one burst: all their exclusions
                // are pending at once, which is when compression matters.
                for k in 0..victims {
                    sim.crash_at(ProcessId((n - 1 - k) as u32), 300 + k as u64);
                }
                sim.run_until(20_000);
                protocol_messages(sim.stats())
            };
            let compressed = run(true);
            let standard = run(false);
            CondensedRow {
                n,
                victims,
                compressed,
                standard,
                saved_per_exclusion: (standard as f64 - compressed as f64) / victims as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E3 — one successful reconfiguration: ≤ 5n − 9 messages (§7.2)
// ---------------------------------------------------------------------

/// One row of the E3 table.
#[derive(Clone, Debug)]
pub struct ReconfRow {
    /// Group size.
    pub n: usize,
    /// Protocol messages measured for the coordinator's replacement.
    pub measured: u64,
    /// The paper's bound `5n − 9`.
    pub formula: u64,
}

/// Measures the cost of replacing a crashed coordinator at each group size.
pub fn e3_reconfiguration(ns: &[usize], seed: u64) -> Vec<ReconfRow> {
    ns.iter()
        .map(|&n| {
            let mut sim = cluster_with(n, seed + n as u64, Config::default());
            sim.crash_at(ProcessId(0), 300);
            sim.run_until(10_000);
            ReconfRow {
                n,
                measured: protocol_messages(sim.stats()),
                formula: (5 * n - 9) as u64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E4 — worst case: successive failed reconfigurations cost O(n²) (§7.2)
// ---------------------------------------------------------------------

/// One row of the E4 table.
#[derive(Clone, Debug)]
pub struct WorstCaseRow {
    /// Group size.
    pub n: usize,
    /// Initiators that died mid-reconfiguration before one succeeded.
    pub failed_initiators: usize,
    /// Total protocol messages until the view stabilized.
    pub measured: u64,
    /// `measured / n²` — flat across `n` iff the cost is quadratic.
    pub per_n_squared: f64,
}

/// Crashes the coordinator and then each successive reconfigurer one
/// commit-send into its commit broadcast, until the last legal initiator
/// (bounded by the minority-failure requirement) completes.
pub fn e4_worst_case(ns: &[usize], seed: u64) -> Vec<WorstCaseRow> {
    ns.iter()
        .map(|&n| {
            assert!(n >= 7, "worst-case cascade needs n >= 7");
            let f = (n - 1) / 2 - 1; // initiators that may die while a majority remains
            let mut sim = cluster_with(n, seed + n as u64, Config::default());
            sim.crash_at(ProcessId(0), 300);
            for k in 1..=f {
                // Each initiator dies right after its first commit send —
                // a (potentially invisible) partial commit every round.
                sim.crash_after_sends_at(ProcessId(k as u32), 0, Some("reconf-commit"), 1);
            }
            sim.run_until(60_000);
            WorstCaseRow {
                n,
                failed_initiators: f,
                measured: protocol_messages(sim.stats()),
                per_n_squared: protocol_messages(sim.stats()) as f64 / (n * n) as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E5 — symmetric baseline: an order of magnitude more messages (§1, §8)
// ---------------------------------------------------------------------

/// One row of the E5 table.
#[derive(Clone, Debug)]
pub struct SymmetricRow {
    /// Group size.
    pub n: usize,
    /// Messages the symmetric protocol spends on one exclusion.
    pub symmetric: u64,
    /// Messages the paper's asymmetric protocol spends.
    pub asymmetric: u64,
    /// Cost ratio.
    pub ratio: f64,
}

/// Compares one exclusion under the symmetric all-to-all protocol against
/// the asymmetric algorithm.
pub fn e5_symmetric(ns: &[usize], seed: u64) -> Vec<SymmetricRow> {
    ns.iter()
        .map(|&n| {
            let view: View = (0..n as u32).map(ProcessId).collect();
            let mut sym: Sim<SymMsg, SymmetricMember> =
                Builder::new().seed(seed + n as u64).build();
            for _ in 0..n {
                sym.add_node(SymmetricMember::new(view.clone(), 40, 200));
            }
            sym.crash_at(ProcessId(n as u32 - 1), 300);
            sym.run_until(10_000);
            let symmetric = sym.stats().sends("suspect") + sym.stats().sends("ready");

            let asymmetric = e1_exclusion(&[n], seed)[0].measured;
            SymmetricRow {
                n,
                symmetric,
                asymmetric,
                ratio: symmetric as f64 / asymmetric as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E6 — fully online operation: a continuous stream of joins and failures
// (§1, §7, §8)
// ---------------------------------------------------------------------

/// Result of the churn experiment.
#[derive(Clone, Debug)]
pub struct ChurnOutcome {
    /// Initial group size.
    pub n: usize,
    /// Joins processed.
    pub joins: usize,
    /// Failures processed.
    pub crashes: usize,
    /// Membership changes committed (= final version).
    pub changes_committed: u64,
    /// Protocol messages spent in total.
    pub protocol_messages: u64,
    /// Whether the full GMP specification held on the run.
    pub gmp_ok: bool,
}

/// Runs a stream of interleaved joins and crashes and checks that every
/// change commits and the specification holds end to end.
pub fn e6_churn(seed: u64) -> ChurnOutcome {
    let n = 6;
    let joins = 3;
    let mut builder = ClusterBuilder::new(n, Config::default());
    for j in 0..joins {
        builder = builder.joiner(JoinConfig::new(800 + 900 * j as u64, vec![ProcessId(1)]));
    }
    let mut sim = builder.sim(Builder::new().seed(seed)).build();
    // Two failures interleaved with the joins.
    sim.crash_at(ProcessId(4), 1_300);
    sim.crash_at(ProcessId(5), 2_700);
    sim.run_until(15_000);
    let report = check_all(sim.trace());
    let a = analyze(sim.trace());
    ChurnOutcome {
        n,
        joins,
        crashes: 2,
        changes_committed: a.final_system_view().map(|v| v.ver).unwrap_or(0),
        protocol_messages: protocol_messages(sim.stats()),
        gmp_ok: report.is_ok(),
    }
}

// ---------------------------------------------------------------------
// E7 — fault tolerance bounds (§3.1 Remarks, §4.3)
// ---------------------------------------------------------------------

/// One row of the fault-tolerance table.
#[derive(Clone, Debug)]
pub struct ToleranceRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Group size.
    pub n: usize,
    /// Members crashed.
    pub crashed: usize,
    /// Views committed after the failures.
    pub views_committed: u64,
    /// Whether the surviving members converged on a view excluding the
    /// crashed ones.
    pub recovered: bool,
}

/// Exercises the tolerance bounds: `|Memb|−1` failures under the basic
/// algorithm (`Mgr` immortal), a minority under the final algorithm, and a
/// majority (which must block).
pub fn e7_tolerance(seed: u64) -> Vec<ToleranceRow> {
    let mut rows = Vec::new();

    // Basic algorithm (no Mgr majority): n−1 failures tolerated.
    {
        let n = 5;
        let mut sim = cluster_with(n, seed, Config::builder().mgr_majority(false).build());
        for k in 1..n {
            sim.crash_at(ProcessId(k as u32), 300 + 400 * k as u64);
        }
        sim.run_until(30_000);
        let m = sim.node(ProcessId(0));
        rows.push(ToleranceRow {
            scenario: "basic, n-1 failures",
            n,
            crashed: n - 1,
            views_committed: m.ver(),
            recovered: m.view().len() == 1,
        });
    }

    // Final algorithm: minority of failures between views — progress.
    {
        let n = 7;
        let mut sim = cluster_with(n, seed + 1, Config::default());
        sim.crash_at(ProcessId(5), 300);
        sim.crash_at(ProcessId(6), 320);
        sim.run_until(15_000);
        let a = analyze(sim.trace());
        let fv = a.final_system_view().expect("views exist");
        rows.push(ToleranceRow {
            scenario: "final, minority (2/7)",
            n,
            crashed: 2,
            views_committed: fv.ver,
            recovered: fv.ver == 2 && fv.members.len() == 5,
        });
    }

    // Final algorithm: majority of simultaneous failures — no progress.
    {
        let n = 7;
        let mut sim = cluster_with(n, seed + 2, Config::default());
        for k in 3..7 {
            sim.crash_at(ProcessId(k as u32), 300);
        }
        sim.run_until(15_000);
        let a = analyze(sim.trace());
        let committed = a.final_system_view().map(|v| v.ver).unwrap_or(0);
        rows.push(ToleranceRow {
            scenario: "final, majority (4/7)",
            n,
            crashed: 4,
            views_committed: committed,
            recovered: committed == 0, // "recovered" here = correctly blocked
        });
    }
    rows
}

// ---------------------------------------------------------------------
// T1 — Table 1: multiple reconfiguration initiations
// ---------------------------------------------------------------------

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// `p`'s actual state (the paper's first column).
    pub p_actual: &'static str,
    /// What `q` believes about `p`.
    pub q_thinks_p: &'static str,
    /// The paper's expected outcome for `q`.
    pub expect_q: &'static str,
    /// The paper's expected outcome for `p`.
    pub expect_p: &'static str,
    /// Whether `q` initiated in the measured run.
    pub q_initiated: bool,
    /// Whether `p` initiated in the measured run.
    pub p_initiated: bool,
}

/// Reproduces Table 1: `Mgr` is dead; `p` (ranked below `Mgr`) and `q`
/// (ranked below `p`) react according to `p`'s actual state and `q`'s
/// belief about it.
pub fn t1_initiations(seed: u64) -> Vec<Table1Row> {
    let p = ProcessId(1);
    let q = ProcessId(2);
    let scenarios: [(
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        bool,
        bool,
    ); 4] = [
        // (p actual, q thinks p, expected q, expected p, crash_p, inject_q)
        ("Up", "Up", "No", "Yes", false, false),
        ("Failed", "Up", "Eventually", "No", true, false),
        ("Up", "Failed", "Yes", "Yes", false, true),
        ("Failed", "Failed", "Yes", "No", true, true),
    ];
    scenarios
        .iter()
        .map(
            |&(p_actual, q_thinks, expect_q, expect_p, crash_p, inject_q)| {
                let mut sim = cluster_with(5, seed, Config::default());
                sim.crash_at(ProcessId(0), 300);
                if crash_p {
                    sim.crash_at(p, 310);
                }
                if inject_q {
                    // The table's premise is that Mgr is already perceived
                    // faulty when q's belief about p matters: inject the
                    // (spurious) suspicion right around everyone's detection
                    // of Mgr's crash. Injected earlier, the still-live Mgr
                    // would simply exclude p through the normal update path.
                    sim.run_until(510);
                    sim.node_mut(q).inject_suspicion(p);
                }
                sim.run_until(10_000);
                let initiated = |pid: ProcessId| {
                    sim.trace().notes().any(|(ev, note)| {
                        ev.pid == pid && matches!(note, Note::ReconfStarted { .. })
                    })
                };
                Table1Row {
                    p_actual,
                    q_thinks_p: q_thinks,
                    expect_q,
                    expect_p,
                    q_initiated: initiated(q),
                    p_initiated: initiated(p),
                }
            },
        )
        .collect()
}

// ---------------------------------------------------------------------
// F1 / F3 / F4 — protocol-structure figures as message timelines
// ---------------------------------------------------------------------

/// Figure 1: the two-phase update structure, rendered as the message
/// timeline of a single exclusion.
pub fn f1_two_phase_timeline(seed: u64) -> String {
    let mut sim = cluster_with(5, seed, Config::default());
    sim.crash_at(ProcessId(4), 300);
    sim.run_until(5_000);
    sim.trace().render(|e| match &e.kind {
        TraceKind::Send { tag, .. } => is_protocol_tag(tag),
        TraceKind::Crash => true,
        TraceKind::Note(Note::ViewInstalled { .. }) => true,
        _ => false,
    })
}

/// Figure 3 demonstration: `Mgr` dies one send into its commit broadcast;
/// the system view transiently fails to exist, then reconfiguration
/// restores it. Returns (timeline, gmp_report_ok).
pub fn f3_mid_commit_crash(seed: u64) -> (String, bool) {
    let mut sim = cluster_with(5, seed, Config::default());
    sim.crash_at(ProcessId(4), 300);
    sim.crash_after_sends_at(ProcessId(0), 0, Some("commit"), 1);
    sim.run_until(20_000);
    let timeline = sim.trace().render(|e| match &e.kind {
        TraceKind::Send { tag, .. } => *tag == "commit" || *tag == "reconf-commit",
        TraceKind::Crash | TraceKind::Quit => true,
        TraceKind::Note(Note::ViewInstalled { .. }) => true,
        TraceKind::Note(Note::ReconfStarted { .. }) => true,
        _ => false,
    });
    (timeline, check_safety(sim.trace()).is_ok())
}

/// Figure 4 demonstration: two concurrent initiators; the majority
/// requirement keeps the resulting system view *unique* (GMP-2) even when
/// more than one initiator manages to commit — their proposals are forced
/// to coincide. Returns (initiations, distinct memberships of version 1,
/// gmp_safety_ok).
pub fn f4_unique_view(seed: u64) -> (usize, usize, bool) {
    let mut sim = cluster_with(5, seed, Config::default());
    sim.crash_at(ProcessId(0), 300);
    // q spuriously believes p faulty once Mgr's death is suspected: both
    // initiate (Table 1, row 3).
    sim.run_until(510);
    sim.node_mut(ProcessId(2)).inject_suspicion(ProcessId(1));
    sim.run_until(15_000);
    let initiations = sim
        .trace()
        .notes()
        .filter(|(_, n)| matches!(n, Note::ReconfStarted { .. }))
        .count();
    let a = analyze(sim.trace());
    let mut memberships: Vec<Vec<ProcessId>> = a
        .memberships_of_ver(1)
        .into_iter()
        .map(|v| v.members.clone())
        .collect();
    memberships.sort();
    memberships.dedup();
    let safety = check_safety(sim.trace()).is_ok();
    (initiations, memberships.len(), safety)
}

// ---------------------------------------------------------------------
// A1 — epistemic ladder (Appendix)
// ---------------------------------------------------------------------

/// Renders the knowledge-ladder table over a quiescent multi-change run.
pub fn a1_epistemic_ladder(seed: u64) -> String {
    let mut sim = cluster_with(6, seed, Config::default());
    sim.crash_at(ProcessId(5), 300);
    sim.crash_at(ProcessId(4), 1_500);
    sim.crash_at(ProcessId(3), 3_000);
    sim.run_until(15_000);
    let rows = knowledge_ladder(sim.trace());
    render_ladder(&rows)
}

// ---------------------------------------------------------------------
// AB1 — ablation: heartbeat gossip (F2) on/off
// ---------------------------------------------------------------------

/// One row of the gossip ablation.
#[derive(Clone, Debug)]
pub struct GossipRow {
    /// Whether heartbeat gossip was enabled.
    pub gossip: bool,
    /// `FaultyReport` messages sent (duplicated observations).
    pub reports: u64,
    /// Simulated time at which the last view was installed.
    pub settled_at: u64,
    /// Whether the full specification held.
    pub gmp_ok: bool,
}

/// Measures what F2 gossip buys: with suspicions piggybacked on
/// heartbeats, beliefs spread without extra reports and multi-failure
/// bursts settle sooner.
pub fn ab1_gossip(seed: u64) -> Vec<GossipRow> {
    [true, false]
        .into_iter()
        .map(|gossip| {
            let cfg = Config::builder().gossip(gossip).build();
            let mut sim = cluster_with(8, seed, cfg);
            sim.crash_at(ProcessId(6), 400);
            sim.crash_at(ProcessId(7), 410);
            sim.run_until(20_000);
            let settled_at = sim
                .trace()
                .notes()
                .filter(|(_, n)| matches!(n, Note::ViewInstalled { .. }))
                .map(|(e, _)| e.time)
                .max()
                .unwrap_or(0);
            GossipRow {
                gossip,
                reports: sim.stats().sends("faulty-report"),
                settled_at,
                gmp_ok: check_all(sim.trace()).is_ok(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// AB2 — ablation: detection-timeout sweep (§2.2 spurious detections)
// ---------------------------------------------------------------------

/// One row of the timeout sweep.
#[derive(Clone, Debug)]
pub struct TimeoutRow {
    /// The failure detector's silence threshold.
    pub suspect_after: u64,
    /// Time from the real crash to the last survivor installing the
    /// exclusion (`None` if it never committed).
    pub exclusion_latency: Option<u64>,
    /// `faulty` events naming processes that never actually crashed.
    pub spurious_suspicions: usize,
    /// Whether GMP *safety* held (it must, at any timeout).
    pub safe: bool,
}

/// Sweeps the suspicion timeout: long timeouts trade detection latency for
/// accuracy; timeouts below the heartbeat interval manufacture the
/// spurious detections of §2.2 — which the protocol resolves through
/// GMP-5 exclusions rather than by diverging.
pub fn ab2_timeout_sweep(seed: u64) -> Vec<TimeoutRow> {
    let crash_time = 500;
    [30u64, 100, 200, 400, 800]
        .into_iter()
        .map(|suspect_after| {
            let cfg = Config::builder().timing(40, suspect_after).build();
            let mut sim = cluster_with(6, seed, cfg);
            sim.crash_at(ProcessId(5), crash_time);
            sim.run_until(30_000);
            let a = analyze(sim.trace());
            let exclusion_latency = a
                .views
                .values()
                .flat_map(|vs| vs.iter())
                .filter(|v| !v.members.contains(&ProcessId(5)))
                .map(|v| sim.trace().events[v.event].time)
                .max()
                .and_then(|t| t.checked_sub(crash_time));
            let spurious = a
                .faulty
                .iter()
                .filter(|f| f.suspect != ProcessId(5))
                .map(|f| (f.observer, f.suspect))
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            TimeoutRow {
                suspect_after,
                exclusion_latency,
                spurious_suspicions: spurious,
                safe: check_safety(sim.trace()).is_ok(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E8 — multi-seed schedule sweep: exclusion cost across the schedule
// space, up to n = 128
// ---------------------------------------------------------------------

/// One row of the E8 seed sweep: aggregate statistics of a single-exclusion
/// run across every seed in a range.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Group size.
    pub n: usize,
    /// Seeds swept.
    pub seeds: usize,
    /// The paper's per-exclusion bound `3n − 5` for reference.
    pub formula: u64,
    /// Protocol messages per run (§7.2 counting convention).
    pub protocol: Summary,
    /// Trace length per run (every stamped event, heartbeats included).
    pub events: Summary,
}

/// Sweeps the single-exclusion scenario of E1 across a seed range at each
/// group size, reporting percentile statistics of the message cost.
///
/// Message delays are resampled per seed, so this samples the schedule
/// space the paper's bounds quantify over: the protocol-message percentiles
/// landing on the `3n − 5` line for *every* seed is the schedule-
/// independence claim of §7.2, measured rather than assumed. Detector
/// timing is coarsened (`timing(100, 400)`) so heartbeat traffic stays
/// tractable at `n = 128`; protocol-message counts are unaffected.
///
/// Runs execute on the [`run_seeds_parallel`] worker pool — `jobs = None`
/// auto-detects the core count (`tables … --jobs N` overrides it). The
/// rows are identical for every `jobs` value; only wall-clock time moves.
///
/// ```
/// use gmp_bench::e8_seed_sweep;
///
/// let rows = e8_seed_sweep(&[8], 0..4, None);
/// assert_eq!(rows[0].seeds, 4);
/// assert_eq!(rows[0].protocol.max, rows[0].formula);
/// ```
pub fn e8_seed_sweep(ns: &[usize], seeds: Range<u64>, jobs: Option<NonZeroUsize>) -> Vec<SweepRow> {
    ns.iter()
        .map(|&n| {
            let runs = run_seeds_parallel(seeds.clone(), BatchConfig::new(2_000), jobs, |seed| {
                exclusion_sweep_run(n, seed)
            });
            SweepRow {
                n,
                seeds: runs.len(),
                formula: (3 * n - 5) as u64,
                protocol: summarize_runs(&runs, |r| r.stats.sends_matching(is_protocol_tag)),
                events: summarize_runs(&runs, |r| r.events as u64),
            }
        })
        .collect()
}

/// The per-seed scenario E8 sweeps: one exclusion under coarsened
/// detector timing, delays resampled by the seed.
fn exclusion_sweep_run(n: usize, seed: u64) -> Sim<Msg, Member> {
    let mut sim = cluster_with(n, seed, Config::builder().timing(100, 400).build());
    sim.crash_at(ProcessId(n as u32 - 1), 300);
    sim
}

// ---------------------------------------------------------------------
// E9 — heartbeat fan-out cost: messages vs. payload constructions per
// interval (the shared-digest aggregation of the F2 gossip source)
// ---------------------------------------------------------------------

/// One row of the E9 heartbeat fan-out table.
#[derive(Clone, Debug)]
pub struct FanoutRow {
    /// Group size.
    pub n: usize,
    /// Heartbeat intervals the run spans.
    pub intervals: u64,
    /// Heartbeat messages sent in total (protocol-visible; unchanged by the
    /// digest encoding).
    pub heartbeats: u64,
    /// Heartbeat messages per interval — Θ(n²) by design: every Active
    /// member beats every unsuspected peer.
    pub msgs_per_interval: f64,
    /// Faulty-set payloads materialized across the run (one per member per
    /// *change* of its faulty set).
    pub payload_builds: u64,
    /// What the per-peer-clone encoding would have materialized: one `Vec`
    /// per heartbeat message plus one per member per tick.
    pub legacy_builds: u64,
}

/// Measures the heartbeat hot path at each group size: one exclusion makes
/// every member's faulty set change (so the digest path must re-publish),
/// and the run then settles back into empty-beat steady state.
///
/// The digest refactor leaves the *message* count untouched — the paper
/// costs protocols in messages (§7.2), and heartbeats stay all-to-all at
/// Θ(n²) per interval — but payload constructions collapse from one per
/// message (`legacy_builds`, Θ(n²) per interval) to one per faulty-set
/// change (`payload_builds`, ≤ a small multiple of n for the whole run).
///
/// E9 is one run per group size, so it parallelizes over the `ns` axis
/// instead of a seed range: each row executes as an independent
/// [`pool::run_indexed`] task (`jobs = None` auto-detects; rows come back
/// in `ns` order regardless).
///
/// ```
/// use gmp_bench::e9_heartbeat_fanout;
///
/// let rows = e9_heartbeat_fanout(&[8], 0, None);
/// let r = &rows[0];
/// assert!(r.payload_builds <= 2 * 8, "at most a couple builds per member");
/// assert!(r.legacy_builds as f64 > 0.5 * r.msgs_per_interval * r.intervals as f64);
/// ```
pub fn e9_heartbeat_fanout(ns: &[usize], seed: u64, jobs: Option<NonZeroUsize>) -> Vec<FanoutRow> {
    let jobs = jobs.unwrap_or_else(pool::available_jobs);
    pool::run_indexed(jobs, ns.len(), |i| {
        let n = ns[i];
        let horizon = 4_000;
        let cfg = Config::builder().timing(100, 400).build();
        let intervals = horizon / cfg.heartbeat_every;
        let mut sim = cluster_with(n, seed + n as u64, cfg);
        sim.crash_at(ProcessId(n as u32 - 1), 300);
        sim.run_until(horizon);
        let heartbeats = sim.stats().sends("heartbeat");
        let payload_builds: u64 = (0..n as u32)
            .map(|p| sim.node(ProcessId(p)).heartbeat_payload_builds())
            .sum();
        // The retired encoding cloned the faulty `Vec` into every
        // heartbeat and materialized it once per member per tick.
        let legacy_builds = heartbeats + intervals * n as u64;
        FanoutRow {
            n,
            intervals,
            heartbeats,
            msgs_per_interval: heartbeats as f64 / intervals as f64,
            payload_builds,
            legacy_builds,
        }
    })
}

// ---------------------------------------------------------------------
// E13 — monitoring topologies: message load and exclusion latency vs n
// for the flat clique and the sparse ring
// ---------------------------------------------------------------------

/// One (topology, n) cell of E13's monitoring-graph sweep.
#[derive(Clone, Debug)]
pub struct TopologyRow {
    /// Group size.
    pub n: usize,
    /// Topology label: `"flat"` (the paper's clique) or `"sparse"`
    /// ([`Sparse`] with k = 4).
    pub topology: &'static str,
    /// Seeds sampled for this cell; every per-seed value is deterministic
    /// in `(n, seed, topology)`.
    pub seeds: u64,
    /// Directed monitoring edges of the initial view — the per-interval
    /// heartbeat load this topology buys: `n(n−1)` for the clique, `k·n`
    /// for the ring.
    pub degree_sum: u64,
    /// Events the seed-0 run recorded (representative: other seeds differ
    /// only in delivery jitter).
    pub events: usize,
    /// Mean messages per run, heartbeats included — the column the
    /// degree sum predicts.
    pub messages: f64,
    /// Mean §7.2 protocol messages per run — flat across topologies,
    /// because agreement still runs point-to-point on the full view.
    pub protocol: f64,
    /// Mean exclusion latency: the last survivor's v1 install time minus
    /// the crash time.
    pub latency: f64,
    /// The hard gate: every sampled seed excluded the victim AND reached
    /// the same final membership (survivor set and each survivor's view)
    /// as the first topology at this `n`.
    pub identical: bool,
}

/// The monitoring graphs E13 compares.
fn e13_topologies() -> [(&'static str, Arc<dyn Topology>); 2] {
    [
        ("flat", Arc::new(Flat)),
        ("sparse", Arc::new(Sparse::new(4))),
    ]
}

/// E13's per-cell scenario: the tightest exclusion arc the detector allows,
/// under the given monitoring graph, run for four heartbeat intervals. The
/// victim crashes at t = 10, *before its first heartbeat*, so the initial
/// t = 0 lease is never renewed, the 150-tick timeout expires it at the
/// survivors' t = 200 tick, and the commit lands by ~250. Survivors renew
/// each other at ~101–103 (100 between beats plus the 1–3-tick delivery
/// jitter), inside the timeout, so no spurious suspicion is possible. The
/// victim `p(n−1)` is the most junior member, a ring edge-member, so the
/// sparse cells genuinely exercise relay.
fn e13_run(n: usize, seed: u64, topology: &Arc<dyn Topology>) -> Sim<Msg, Member> {
    let cfg = Config::builder()
        .timing(100, 150)
        .topology_shared(Arc::clone(topology))
        .build();
    let mut sim = cluster_with(n, seed, cfg);
    sim.crash_at(ProcessId(n as u32 - 1), 10);
    sim.run_until(400);
    sim
}

/// The final membership picture E13's gate compares across topologies:
/// each survivor paired with its installed view.
type MembershipOutcome = Vec<(ProcessId, Vec<ProcessId>)>;

/// Everything E13's cross-topology gate compares: whether the exclusion
/// committed everywhere, plus the surviving set and each survivor's final
/// view.
fn e13_outcome(sim: &Sim<Msg, Member>, victim: ProcessId) -> (bool, MembershipOutcome) {
    let mut excluded = true;
    let mut views = Vec::new();
    for p in sim.living() {
        let m = sim.node(p);
        excluded &= m.ver() >= 1 && !m.view().contains(victim);
        views.push((p, m.view().to_vec()));
    }
    views.sort();
    (excluded, views)
}

/// Exclusion latency of one run: the time of the last `ViewInstalled`
/// carrying version 1, minus the crash time.
fn e13_latency(sim: &Sim<Msg, Member>) -> f64 {
    let mut last = 0u64;
    for e in &sim.trace().events {
        if let TraceKind::Note(Note::ViewInstalled { ver: 1, .. }) = &e.kind {
            last = last.max(e.time);
        }
    }
    last.saturating_sub(10) as f64
}

/// Directed monitoring edges above which E13 leaves a `(topology, n)` cell
/// out. A cell records ~7 events per edge per seed, so the cap bounds a
/// cell at ~14 M events; the one cell of the `tables e13` ladder it
/// removes is the clique at n = 4096 (16.8 M edges, 117 M events per
/// seed) — that the sparse graphs still run there is the experiment's
/// headline.
const E13_MAX_EDGES: u64 = 2_000_000;

/// Sweeps one exclusion per `(topology, n, seed)` across the monitoring
/// graphs of `e13_topologies`, measuring message load and
/// exclusion latency and pinning — per seed — that every topology
/// reaches the *same final membership* as the first topology of that `n`
/// ([`TopologyRow::identical`]; `tables e13` turns it into a hard
/// assert). Cells above `E13_MAX_EDGES` monitoring edges produce no row.
///
/// ```
/// use gmp_bench::e13_topology_sweep;
///
/// let rows = e13_topology_sweep(&[8], 2);
/// assert_eq!(rows.len(), 2);
/// assert!(rows.iter().all(|r| r.identical), "topologies must agree");
/// ```
pub fn e13_topology_sweep(ns: &[usize], seeds: u64) -> Vec<TopologyRow> {
    let seeds = seeds.max(1);
    let mut rows = Vec::new();
    for &n in ns {
        let victim = ProcessId(n as u32 - 1);
        let view = View::new((0..n as u32).map(ProcessId).collect());
        let mut reference: Vec<Option<MembershipOutcome>> = vec![None; seeds as usize];
        for (name, topo) in e13_topologies() {
            let degree_sum: u64 = view
                .iter()
                .map(|p| topo.monitors(p, &view).len() as u64)
                .sum();
            if degree_sum > E13_MAX_EDGES {
                continue;
            }
            let (mut messages, mut protocol, mut latency) = (0f64, 0f64, 0f64);
            let mut identical = true;
            let mut events = 0usize;
            for s in 0..seeds {
                let sim = e13_run(n, s, &topo);
                if s == 0 {
                    events = sim.trace().events.len();
                }
                messages += sim.stats().sends_total() as f64;
                protocol += protocol_messages(sim.stats()) as f64;
                latency += e13_latency(&sim);
                let (excluded, outcome) = e13_outcome(&sim, victim);
                identical &= excluded;
                match &reference[s as usize] {
                    Some(r) => identical &= *r == outcome,
                    None => reference[s as usize] = Some(outcome),
                }
            }
            rows.push(TopologyRow {
                n,
                topology: name,
                seeds,
                degree_sum,
                events,
                messages: messages / seeds as f64,
                protocol: protocol / seeds as f64,
                latency: latency / seeds as f64,
                identical,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// E14 — the replicated-log workload: committed throughput, failover
// latency and log safety under crash and churn schedules
// ---------------------------------------------------------------------

/// One scenario row of E14's replicated-log workload, aggregated over
/// seeds.
#[derive(Clone, Debug)]
pub struct LogRow {
    /// Schedule label: `"steady"` (no failures), `"crash"` (the leader
    /// dies mid-run) or `"churn"` (the leader dies while a joiner is
    /// being admitted and state-transferred).
    pub scenario: &'static str,
    /// Seeds sampled; every per-seed value is deterministic.
    pub seeds: u64,
    /// Mean committed client operations per run (`NOOP` fillers excluded).
    pub committed: f64,
    /// Committed client operations per 1 000 simulated ticks.
    pub throughput: f64,
    /// Commit latency (issue → reply), pooled across clients and seeds.
    pub latency: Summary,
    /// Failover latency per seed: the first commit under the successor's
    /// ballot minus the crash time. Empty for the steady schedule.
    pub failover: Summary,
    /// Hard gate: on every seed the survivors' committed logs were
    /// prefix-identical (they may lag, never diverge).
    pub prefix_ok: bool,
}

/// One E14 schedule: who runs, who crashes, who joins.
struct LogScenario {
    name: &'static str,
    replicas: usize,
    clients: usize,
    /// Crash the initial leader (`p0`) at this time.
    crash_at: Option<u64>,
    /// Admit a joiner first asking at this time.
    join_at: Option<u64>,
    horizon: u64,
}

/// The three schedules E14 samples. The crash victim is always `p0`:
/// the senior member, hence the initial `Mgr` and log leader — the
/// worst case for the workload, because exclusion, three-phase
/// reconfiguration *and* log recovery all sit on the critical path of
/// every in-flight command.
fn e14_scenarios() -> Vec<LogScenario> {
    vec![
        LogScenario {
            name: "steady",
            replicas: 5,
            clients: 4,
            crash_at: None,
            join_at: None,
            horizon: 15_000,
        },
        LogScenario {
            name: "crash",
            replicas: 5,
            clients: 4,
            crash_at: Some(3_000),
            join_at: None,
            horizon: 20_000,
        },
        LogScenario {
            name: "churn",
            replicas: 5,
            clients: 4,
            crash_at: Some(3_000),
            join_at: Some(2_500),
            horizon: 20_000,
        },
    ]
}

fn e14_build(sc: &LogScenario, seed: u64, lc: &LogConfig) -> Sim<AppMsg, LogProc> {
    let mut b = LogClusterBuilder::new(sc.replicas, sc.clients)
        .seed(seed)
        .log_config(lc.clone());
    if let Some(at) = sc.join_at {
        // Contact a non-Mgr member: the forwarding path and the crash of
        // the Mgr mid-admission are both part of the schedule.
        b = b.joiner(JoinConfig::new(at, vec![ProcessId(1)]));
    }
    let mut sim = b.build();
    if let Some(at) = sc.crash_at {
        sim.crash_at(ProcessId(0), at);
    }
    sim
}

/// Each surviving replica's committed log, and each client's
/// acknowledged latencies (count and values — acks pin the replies,
/// latencies pin their timing).
type LogOutcome = (Vec<(ProcessId, Vec<LogCmd>)>, Vec<Vec<u64>>);

fn e14_outcome(sim: &Sim<AppMsg, LogProc>, sc: &LogScenario) -> LogOutcome {
    let mut logs: Vec<(ProcessId, Vec<LogCmd>)> = sim
        .living()
        .into_iter()
        .filter(|&p| sim.node(p).is_replica())
        .map(|p| (p, sim.node(p).log().committed().to_vec()))
        .collect();
    logs.sort();
    let first_client = (sc.replicas + sc.join_at.is_some() as usize) as u32;
    let lats = (0..sc.clients as u32)
        .map(|k| {
            sim.node(ProcessId(first_client + k))
                .client()
                .latencies()
                .to_vec()
        })
        .collect();
    (logs, lats)
}

/// Failover latency of one crashed run: the first commit applied under a
/// ballot at least the version that *excluded* the victim, minus the
/// crash time. (Anchoring on the exclusion version rather than "any
/// version > 0" matters in the churn schedule, where a join can install
/// an intermediate view before the crash.) `None` if the log never
/// advanced past the failover — which the liveness gate would catch
/// anyway.
fn e14_failover(sim: &Sim<AppMsg, LogProc>, crash_at: u64) -> Option<u64> {
    let excl_ver = sim
        .trace()
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::Note(Note::ViewInstalled { ver, members, .. })
                if !members.contains(&ProcessId(0)) =>
            {
                Some(*ver)
            }
            _ => None,
        })
        .min()?;
    let log = sim.node(ProcessId(1)).log();
    log.ballots()
        .iter()
        .zip(log.applied_at())
        .find(|&(&b, _)| b >= excl_ver)
        .map(|(_, &t)| t.saturating_sub(crash_at))
}

/// Drives the replicated-log workload of `crates/log` through the three
/// schedules of `e14_scenarios`, measuring committed throughput, commit
/// latency and failover latency, and pinning one hard gate per seed:
/// survivors' logs prefix-identical ([`LogRow::prefix_ok`]). `tables e14`
/// turns it into a hard assert.
///
/// ```
/// use gmp_bench::e14_replicated_log;
///
/// let rows = e14_replicated_log(1);
/// assert_eq!(rows.len(), 3);
/// assert!(rows.iter().all(|r| r.prefix_ok));
/// assert!(rows.iter().all(|r| r.committed > 0.0));
/// ```
pub fn e14_replicated_log(seeds: u64) -> Vec<LogRow> {
    e14_replicated_log_with(seeds, None, None, None)
}

/// [`e14_replicated_log`] with the CLI's axis overrides: `clients`
/// replaces each scenario's client count, and `batch`/`window` switch the
/// log from the default unbatched baseline trim to the batched one
/// (`tables e14 --clients N --batch B --window W`).
pub fn e14_replicated_log_with(
    seeds: u64,
    clients: Option<usize>,
    batch: Option<usize>,
    window: Option<usize>,
) -> Vec<LogRow> {
    let seeds = seeds.max(1);
    // The default E14 arm is the PR-9 baseline: batches of one (PR 9's
    // per-slot traffic), strict closed loop, no compaction. The batching
    // ladder is E15's.
    let lc = LogConfig::default()
        .unbatched()
        .batch(batch.unwrap_or(1))
        .window(window.unwrap_or(1));
    let mut rows = Vec::new();
    for mut sc in e14_scenarios() {
        if let Some(c) = clients {
            sc.clients = c;
        }
        let mut committed = 0f64;
        let mut latencies: Vec<u64> = Vec::new();
        let mut failovers: Vec<u64> = Vec::new();
        let mut prefix_ok = true;
        for s in 0..seeds {
            let mut seq = e14_build(&sc, s, &lc);
            seq.run_until(sc.horizon);
            let (logs, lats) = e14_outcome(&seq, &sc);
            prefix_ok &= prefix_identical(logs.iter().map(|(_, l)| l.as_slice()));
            committed += seq.node(ProcessId(1)).log().committed_ops() as f64;
            for l in &lats {
                latencies.extend_from_slice(l);
            }
            if let Some(at) = sc.crash_at {
                if let Some(f) = e14_failover(&seq, at) {
                    failovers.push(f);
                }
            }
        }
        let committed = committed / seeds as f64;
        rows.push(LogRow {
            scenario: sc.name,
            seeds,
            committed,
            throughput: committed * 1_000.0 / sc.horizon as f64,
            latency: Summary::of(&latencies),
            failover: Summary::of(&failovers),
            prefix_ok,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E15 — the batching/pipelining ladder: committed throughput and wire
// messages per operation across (batch, window) cells, against the
// unbatched PR-9 baseline, plus the snapshot-compacted joiner-sync gate
// ---------------------------------------------------------------------

/// One `(batch, window)` cell of E15's ladder, aggregated over seeds.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// Leader batch size (1 = batches of one, proposed on arrival).
    pub batch: usize,
    /// Client pipeline window (1 = strict closed loop).
    pub window: usize,
    /// Seeds sampled; every per-seed value is deterministic.
    pub seeds: u64,
    /// Mean committed client operations per run (`NOOP` fillers excluded).
    pub committed: f64,
    /// Committed client operations per 1 000 simulated ticks.
    pub throughput: f64,
    /// Log-layer wire messages (tags `log-*`) per committed operation —
    /// the amortized-message-cost axis the batching trades on.
    pub msgs_per_op: f64,
    /// Commit latency (issue → reply), pooled across clients and seeds.
    pub latency: Summary,
    /// Throughput relative to the `(1, 1)` baseline cell.
    pub speedup: f64,
    /// Hard gate: replicas' committed logs prefix-identical on every seed.
    pub prefix_ok: bool,
}

/// Outcome of E15's joiner-sync arm: one run with compaction forced low,
/// a joiner admitted late, and the state transfer it received measured.
#[derive(Clone, Debug)]
pub struct SyncRow {
    /// Compaction keep budget forced on every replica.
    pub compact_keep: usize,
    /// When the joiner first asked to join.
    pub join_at: u64,
    /// Applied length of the donor's log when measured (end of run).
    pub log_len: u64,
    /// Tail entries the joiner's `SyncOk` actually shipped.
    pub tail: u64,
    /// Whether that `SyncOk` carried a snapshot (it must, once the donor
    /// has compacted past slot 0).
    pub snapshot: bool,
    /// The joiner booted above slot 0 — its applied vectors start at the
    /// snapshot floor instead of replaying the whole prefix.
    pub joiner_base: u64,
    /// Hard gate: all replicas (joiner included, base-aware) agree on
    /// every slot range they share.
    pub agree: bool,
}

/// The ladder's steady schedule: no failures, so every committed-ops
/// delta between cells is the batching/pipelining, not failover noise.
fn e15_scenario(clients: usize) -> LogScenario {
    LogScenario {
        name: "steady",
        replicas: 5,
        clients,
        crash_at: None,
        join_at: None,
        horizon: 15_000,
    }
}

/// Drives the steady replicated-log schedule across a ladder of
/// `(batch, window)` cells — the unbatched PR-9 baseline first, then
/// batching and client pipelining switched on separately and together —
/// measuring committed throughput and log-layer wire messages per
/// operation. Every cell runs under the same hard gate as E14
/// (prefix-identical logs).
/// `batch`/`window` overrides shrink the ladder to baseline + that one
/// cell; `clients` rescales the offered load.
///
/// ```
/// use gmp_bench::e15_log_batching;
///
/// let rows = e15_log_batching(1, None, Some(8), Some(4));
/// assert_eq!(rows.len(), 2);
/// assert!(rows.iter().all(|r| r.prefix_ok));
/// assert!(rows[1].throughput > rows[0].throughput);
/// ```
pub fn e15_log_batching(
    seeds: u64,
    clients: Option<usize>,
    batch: Option<usize>,
    window: Option<usize>,
) -> Vec<BatchRow> {
    let seeds = seeds.max(1);
    let sc = e15_scenario(clients.unwrap_or(4));
    let cells: Vec<(usize, usize)> = match (batch, window) {
        (None, None) => vec![(1, 1), (8, 1), (1, 4), (8, 4), (16, 8)],
        (b, w) => vec![(1, 1), (b.unwrap_or(8), w.unwrap_or(4))],
    };
    let mut rows = Vec::new();
    for (b, w) in cells {
        let lc = if (b, w) == (1, 1) {
            LogConfig::default().unbatched()
        } else {
            // Batched cells keep the default compaction budget; the
            // leader's admission window scales with the batch so the
            // batch can actually fill.
            LogConfig::default()
                .batch(b)
                .window(w)
                .max_inflight(b.max(8))
        };
        let mut committed = 0f64;
        let mut msgs = 0f64;
        let mut latencies: Vec<u64> = Vec::new();
        let mut prefix_ok = true;
        for s in 0..seeds {
            let mut seq = e14_build(&sc, s, &lc);
            seq.run_until(sc.horizon);
            let (logs, lats) = e14_outcome(&seq, &sc);
            prefix_ok &= prefix_identical(logs.iter().map(|(_, l)| l.as_slice()));
            committed += seq.node(ProcessId(1)).log().committed_ops() as f64;
            msgs += seq.stats().sends_matching(|t| t.starts_with("log-")) as f64;
            for l in &lats {
                latencies.extend_from_slice(l);
            }
        }
        let committed = committed / seeds as f64;
        rows.push(BatchRow {
            batch: b,
            window: w,
            seeds,
            committed,
            throughput: committed * 1_000.0 / sc.horizon as f64,
            msgs_per_op: if committed > 0.0 {
                msgs / seeds as f64 / committed
            } else {
                f64::NAN
            },
            latency: Summary::of(&latencies),
            speedup: 0.0, // filled below, once the baseline cell exists
            prefix_ok,
        });
    }
    let base = rows[0].throughput;
    for r in &mut rows {
        r.speedup = if base > 0.0 {
            r.throughput / base
        } else {
            f64::NAN
        };
    }
    rows
}

/// E15's joiner-sync arm: forces a small compaction budget, runs the
/// batched steady workload long enough for every replica to compact well
/// past slot 0, then admits a joiner and measures the state transfer it
/// received. The point of snapshot-compacted `Sync`: the `SyncOk` payload
/// is O(tail) — bounded by the compaction budget — not O(log).
///
/// ```
/// use gmp_bench::e15_joiner_sync;
///
/// let row = e15_joiner_sync(1);
/// assert!(row.snapshot && row.agree);
/// assert!(row.tail <= 2 * row.compact_keep as u64 + 64);
/// assert!(row.log_len >= 4 * row.tail);
/// ```
pub fn e15_joiner_sync(seed: u64) -> SyncRow {
    let keep = 128usize;
    let (join_at, horizon) = (10_000, 15_000);
    let lc = LogConfig::default().batch(8).window(4).compact_keep(keep);
    let mut sim = LogClusterBuilder::new(5, 4)
        .seed(seed)
        .log_config(lc)
        .joiner(JoinConfig::new(join_at, vec![ProcessId(1)]))
        .build();
    sim.run_until(horizon);
    let joiner = sim.node(ProcessId(5)).log();
    let (snapshot, tail) = joiner.last_sync().unwrap_or((false, 0));
    let agree = logs_agree(
        (0..6u32)
            .map(ProcessId)
            .filter(|&p| sim.living().contains(&p))
            .map(|p| {
                let l = sim.node(p).log();
                (l.base(), l.committed())
            }),
    );
    SyncRow {
        compact_keep: keep,
        join_at,
        log_len: sim.node(ProcessId(1)).log().logical_len(),
        tail,
        snapshot,
        joiner_base: joiner.base(),
        agree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_matches_formula_exactly() {
        for row in e1_exclusion(&[4, 5, 8, 12], 100) {
            assert_eq!(
                row.measured, row.formula,
                "n={}: expected 3n-5={}, measured {}",
                row.n, row.formula, row.measured
            );
        }
    }

    #[test]
    fn e3_matches_formula_shape() {
        for row in e3_reconfiguration(&[5, 8, 12], 200) {
            let delta = row.measured as i64 - row.formula as i64;
            assert!(
                delta.abs() <= row.n as i64,
                "n={}: measured {} too far from 5n-9={}",
                row.n,
                row.measured,
                row.formula
            );
        }
    }

    #[test]
    fn e2_compression_saves_messages() {
        for row in e2_condensed(&[8, 12], 300) {
            assert!(
                row.compressed < row.standard,
                "n={}: compressed {} !< standard {}",
                row.n,
                row.compressed,
                row.standard
            );
        }
    }

    #[test]
    fn e5_symmetric_is_order_of_magnitude_costlier() {
        for row in e5_symmetric(&[16, 24], 400) {
            assert!(
                row.ratio > 4.0,
                "n={}: symmetric/asymmetric ratio only {:.1}",
                row.n,
                row.ratio
            );
        }
    }

    #[test]
    fn e6_churn_is_online_and_correct() {
        let out = e6_churn(500);
        assert!(out.gmp_ok, "GMP violated under churn");
        assert_eq!(out.changes_committed, 5, "3 joins + 2 removals must commit");
    }

    #[test]
    fn t1_matches_paper_table() {
        let rows = t1_initiations(600);
        assert!(
            !rows[0].q_initiated && rows[0].p_initiated,
            "row 1: only p initiates"
        );
        assert!(
            rows[1].q_initiated && !rows[1].p_initiated,
            "row 2: q eventually initiates"
        );
        assert!(
            rows[2].q_initiated && rows[2].p_initiated,
            "row 3: both initiate"
        );
        assert!(
            rows[3].q_initiated && !rows[3].p_initiated,
            "row 4: only q initiates"
        );
    }

    #[test]
    fn ab1_gossip_reduces_reports_and_latency() {
        let rows = ab1_gossip(800);
        assert!(rows[0].gossip && !rows[1].gossip);
        assert!(rows[0].gmp_ok && rows[1].gmp_ok, "correct either way");
        assert!(
            rows[0].reports <= rows[1].reports,
            "gossip must not increase explicit reports: {} vs {}",
            rows[0].reports,
            rows[1].reports
        );
    }

    #[test]
    fn ab2_timeout_sweep_trades_latency_for_accuracy() {
        let rows = ab2_timeout_sweep(900);
        for r in &rows {
            assert!(r.safe, "safety must hold at timeout {}", r.suspect_after);
        }
        // Tiny timeout: spurious suspicions appear.
        assert!(rows[0].spurious_suspicions > 0, "timeout 30 must misfire");
        // Sane timeouts: no spurious suspicions, latency grows with the
        // threshold.
        let sane: Vec<_> = rows.iter().filter(|r| r.suspect_after >= 200).collect();
        for r in &sane {
            assert_eq!(r.spurious_suspicions, 0, "timeout {}", r.suspect_after);
        }
        let l200 = sane[0].exclusion_latency.expect("exclusion commits");
        let l800 = sane
            .last()
            .unwrap()
            .exclusion_latency
            .expect("exclusion commits");
        assert!(l800 > l200, "longer timeout, later exclusion");
    }

    #[test]
    fn e8_sweep_is_schedule_independent_on_protocol_messages() {
        let rows = e8_seed_sweep(&[8, 16], 0..8, None);
        for row in rows {
            assert_eq!(row.seeds, 8);
            assert_eq!(row.protocol.count, 8);
            // §7.2: the exclusion cost is schedule-independent — every seed
            // lands exactly on 3n − 5.
            assert_eq!(
                (row.protocol.min, row.protocol.max),
                (row.formula, row.formula),
                "n={}: exclusion cost must not vary across schedules",
                row.n
            );
            // Event counts (heartbeats included) do vary with the schedule.
            assert!(row.events.min > 0 && row.events.min <= row.events.p50);
        }
    }

    #[test]
    fn e9_payload_constructions_collapse_from_quadratic_to_linear() {
        for row in e9_heartbeat_fanout(&[8, 16, 32], 900, None) {
            let n = row.n as u64;
            // Messages stay all-to-all: the digest encoding must not change
            // the protocol-visible fan-out (≥ (n-1)(n-2) once the victim is
            // excluded, more before).
            assert!(
                row.msgs_per_interval >= ((n - 1) * (n - 2)) as f64,
                "n={n}: heartbeat messages per interval collapsed unexpectedly: {}",
                row.msgs_per_interval
            );
            // The retired per-peer-clone encoding built Θ(n²) payloads per
            // interval for the whole run…
            assert!(
                row.legacy_builds >= row.intervals * (n - 1) * (n - 2),
                "n={n}: legacy formula lost its quadratic shape"
            );
            // …the digest encoding builds at most a couple per *member*
            // total (empty → {victim} → empty is one change that needs a
            // snapshot), i.e. Θ(n) for the run, regardless of interval
            // count.
            assert!(
                row.payload_builds <= 2 * n,
                "n={n}: {} payload builds exceed the Θ(n) bound",
                row.payload_builds
            );
            assert!(row.payload_builds > 0, "the exclusion must publish once");
        }
    }

    /// The protocol-level half of the `Send` audit: a full cluster
    /// simulator (protocol messages carrying `Shared` digest payloads,
    /// members owning a heartbeat detector) crosses thread boundaries,
    /// which is what lets E8 sweep real exclusions on the pool.
    #[test]
    fn cluster_sim_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Sim<Msg, Member>>();
    }

    #[test]
    fn e8_rows_are_identical_for_any_job_count() {
        let sequential = e8_seed_sweep(&[8], 0..6, NonZeroUsize::new(1));
        let parallel = e8_seed_sweep(&[8], 0..6, NonZeroUsize::new(4));
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!((s.n, s.seeds, s.formula), (p.n, p.seeds, p.formula));
            assert_eq!(
                s.protocol, p.protocol,
                "n={}: protocol summary drifted",
                s.n
            );
            assert_eq!(s.events, p.events, "n={}: events summary drifted", s.n);
        }
    }

    #[test]
    fn e13_every_topology_reaches_the_same_membership() {
        let rows = e13_topology_sweep(&[8, 16], 2);
        assert_eq!(rows.len(), 4, "two sizes x two topologies");
        assert!(
            rows.iter().all(|r| r.identical),
            "per-seed final membership must not depend on the topology"
        );
        // Sizes as given, declaration order within a size.
        let labels: Vec<(usize, &str)> = rows.iter().map(|r| (r.n, r.topology)).collect();
        assert_eq!(
            labels,
            [(8, "flat"), (8, "sparse"), (16, "flat"), (16, "sparse")]
        );
    }

    #[test]
    fn e13_degree_sums_match_the_graphs() {
        let rows = e13_topology_sweep(&[16], 1);
        let deg = |label: &str| {
            rows.iter()
                .find(|r| r.topology == label)
                .unwrap()
                .degree_sum
        };
        assert_eq!(deg("flat"), 16 * 15, "clique: n(n-1) directed edges");
        assert_eq!(deg("sparse"), 16 * 4, "4-regular ring: 4n directed edges");
    }

    #[test]
    fn e13_sparse_graphs_cut_the_message_load() {
        let rows = e13_topology_sweep(&[32], 1);
        let msgs = |label: &str| rows.iter().find(|r| r.topology == label).unwrap().messages;
        assert!(
            msgs("sparse") < msgs("flat"),
            "sparse monitoring must send fewer messages than the clique at \
             n = 32 (sparse {} / flat {})",
            msgs("sparse"),
            msgs("flat")
        );
    }

    #[test]
    fn f4_view_is_unique_despite_concurrent_initiators() {
        let (initiations, distinct_v1, safety) = f4_unique_view(700);
        assert!(
            initiations >= 2,
            "scenario must produce concurrent initiations"
        );
        assert_eq!(
            distinct_v1, 1,
            "GMP-2: version 1 must have a unique membership"
        );
        assert!(safety, "GMP safety must hold");
    }
}
