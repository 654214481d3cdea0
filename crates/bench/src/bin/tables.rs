//! Regenerates every analytic table and figure of the paper.
//!
//! ```text
//! cargo run --release -p gmp-bench --bin tables              # everything
//! cargo run --release -p gmp-bench --bin tables -- e1 t1     # a subset
//! cargo run --release -p gmp-bench --bin tables -- e8 --jobs 4
//! ```
//!
//! Experiment ids follow `EXPERIMENTS.md`: t1, f1, f3, f4, f11, c71,
//! e1..e9, e13..e15, a1, ab1, ab2. Anything else on the command line — an unknown
//! id, an unknown flag, a flag without a valid value — is rejected with
//! the valid ids on stderr and exit code 2. Every table is simulated, so
//! stdout is a pure function of the code and the flags: CI diffs
//! `tables --jobs 2 --seeds 16` against `tests/golden/tables.txt`. Flags:
//!
//! * `--jobs N` — worker threads for the sweep experiments (E8/E9).
//!   Default: every core the platform reports. Output is identical at
//!   every value.
//! * `--seeds N` — seeds per sweep (default 48 for E8). Output *values*
//!   are per-seed deterministic; fewer seeds just samples fewer
//!   schedules.
//!
//! For E13 `--seeds` is the seeds sampled per (topology, n) cell
//! (default 4). For E14 it is the schedules sampled per workload scenario
//! (default 4).
//!
//! E14 and E15 additionally take the workload axes:
//!
//! * `--clients N` — closed-loop clients per scenario (default 4).
//! * `--batch N` — leader batch size. For E14 it switches the workload
//!   off the unbatched baseline; for E15 it shrinks the swept ladder to
//!   `{baseline, (batch, window)}`.
//! * `--window N` — client pipeline window, same semantics as `--batch`.

use gmp_bench::*;
use gmp_props::{analyze, check_safety};
use std::num::NonZeroUsize;

/// Every section id, in print order.
const IDS: [&str; 21] = [
    "t1", "f1", "f3", "f4", "f11", "c71", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
    "e13", "e14", "e15", "a1", "ab1", "ab2",
];

/// Rejects a malformed command line: a mistyped CI step must fail, not
/// pass vacuously by printing nothing.
fn usage_error(problem: &str) -> ! {
    eprintln!("tables: {problem}");
    eprintln!("valid ids: {}", IDS.join(" "));
    eprintln!("valid flags: --jobs N, --seeds N, --clients N, --batch N, --window N");
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut jobs: Option<NonZeroUsize> = None;
    let mut seeds_flag: Option<u64> = None;
    let mut clients_flag: Option<usize> = None;
    let mut batch_flag: Option<usize> = None;
    let mut window_flag: Option<usize> = None;
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "--seeds" | "--clients" | "--batch" | "--window" => {
                let raw = it
                    .next()
                    .unwrap_or_else(|| usage_error(&format!("{a} needs a value")));
                let v: u64 = raw.parse().ok().filter(|&v| v >= 1).unwrap_or_else(|| {
                    usage_error(&format!("{a} needs a numeric value >= 1, got {raw:?}"))
                });
                match a.as_str() {
                    "--jobs" => jobs = NonZeroUsize::new(v as usize),
                    "--clients" => clients_flag = Some(v as usize),
                    "--batch" => batch_flag = Some(v as usize),
                    "--window" => window_flag = Some(v as usize),
                    _ => seeds_flag = Some(v),
                }
            }
            id if IDS.contains(&id) => args.push(a),
            _ => usage_error(&format!("unknown section id or flag {a:?}")),
        }
    }
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a == id);
    let seed = 42;

    if want("t1") {
        println!("== T1: Table 1 — multiple reconfiguration initiations ==");
        println!("(Mgr crashed; p ranked below Mgr, q below p)\n");
        println!(
            "{:<10} {:<12} {:<24} {:<24}",
            "p actual", "q thinks p", "q initiates (exp/meas)", "p initiates (exp/meas)"
        );
        for r in t1_initiations(seed) {
            let q_meas = if r.q_initiated { "Yes" } else { "No" };
            let p_meas = if r.p_initiated { "Yes" } else { "No" };
            println!(
                "{:<10} {:<12} {:<24} {:<24}",
                r.p_actual,
                r.q_thinks_p,
                format!("{} / {}", r.expect_q, q_meas),
                format!("{} / {}", r.expect_p, p_meas),
            );
        }
        println!();
    }

    if want("f1") {
        println!("== F1: Figure 1 — two-phase update structure ==");
        println!("(5 members; p4 crashes; message timeline of the exclusion)\n");
        print!("{}", f1_two_phase_timeline(seed));
        println!();
    }

    if want("f3") {
        println!("== F3: Figure 3 — Mgr fails mid-commit; reconfiguration repairs ==");
        let (timeline, ok) = f3_mid_commit_crash(seed);
        print!("{timeline}");
        println!(
            "GMP safety after repair: {}",
            if ok { "HOLDS" } else { "VIOLATED" }
        );
        println!();
    }

    if want("f4") {
        println!("== F4: Figure 4 — concurrent initiators, unique system view ==");
        let (initiations, distinct, safety) = f4_unique_view(seed);
        println!("reconfiguration initiations : {initiations}");
        println!("distinct memberships for v1 : {distinct} (must be 1)");
        println!(
            "GMP safety                  : {}",
            if safety { "HOLDS" } else { "VIOLATED" }
        );
        println!();
    }

    if want("f11") {
        println!("== F11: Figure 11 / Claim 7.2 — two-phase reconfiguration fails ==");
        for (label, three_phase) in [("three-phase", true), ("two-phase ", false)] {
            let sim = gmp_baselines::figure_11_run(three_phase, seed);
            let report = check_safety(sim.trace());
            let a = analyze(sim.trace());
            let v1: Vec<String> = {
                let mut ms: Vec<Vec<u32>> = a
                    .memberships_of_ver(1)
                    .into_iter()
                    .map(|v| v.members.iter().map(|m| m.0).collect())
                    .collect();
                ms.sort();
                ms.dedup();
                ms.into_iter().map(|m| format!("{m:?}")).collect()
            };
            println!(
                "{label}: GMP safety {}, version-1 membership(s): {}",
                if report.is_ok() {
                    "HOLDS   "
                } else {
                    "VIOLATED"
                },
                v1.join("  vs  ")
            );
        }
        println!("(same failure schedule; only the proposal phase differs)\n");
    }

    if want("c71") {
        println!("== C71: Claim 7.1 — one-phase update fails under partition ==");
        let sim = gmp_baselines::claim_7_1_run(seed);
        let report = check_safety(sim.trace());
        let a = analyze(sim.trace());
        let mut ms: Vec<Vec<u32>> = a
            .memberships_of_ver(1)
            .into_iter()
            .map(|v| v.members.iter().map(|m| m.0).collect())
            .collect();
        ms.sort();
        ms.dedup();
        println!(
            "GMP safety: {}; version-1 memberships: {}",
            if report.is_ok() {
                "HOLDS (unexpected!)"
            } else {
                "VIOLATED (as proven)"
            },
            ms.iter()
                .map(|m| format!("{m:?}"))
                .collect::<Vec<_>>()
                .join("  vs  ")
        );
        println!();
    }

    if want("e1") {
        println!("== E1: §7.2 — plain two-phase exclusion costs 3n-5 messages ==");
        println!("{:<6} {:<10} {:<10} match", "n", "measured", "3n-5");
        for r in e1_exclusion(&[4, 5, 8, 16, 32, 64], seed) {
            println!(
                "{:<6} {:<10} {:<10} {}",
                r.n,
                r.measured,
                r.formula,
                if r.measured == r.formula {
                    "exact"
                } else {
                    "DIFFERS"
                }
            );
        }
        println!();
    }

    if want("e2") {
        println!("== E2: §7.2 — condensed rounds amortize the invitation ==");
        println!(
            "{:<6} {:<9} {:<12} {:<10} {:<18} paper: ~n/2-1 extra for standard",
            "n", "victims", "compressed", "standard", "saved/exclusion"
        );
        for r in e2_condensed(&[8, 16, 32, 64], seed) {
            println!(
                "{:<6} {:<9} {:<12} {:<10} {:<18.1} {:.1}",
                r.n,
                r.victims,
                r.compressed,
                r.standard,
                r.saved_per_exclusion,
                (r.n as f64) / 2.0 - 1.0
            );
        }
        println!();
    }

    if want("e3") {
        println!("== E3: §7.2 — one successful reconfiguration costs ~5n-9 ==");
        println!("{:<6} {:<10} {:<10} delta", "n", "measured", "5n-9");
        for r in e3_reconfiguration(&[5, 8, 16, 32, 64], seed) {
            println!(
                "{:<6} {:<10} {:<10} {:+}",
                r.n,
                r.measured,
                r.formula,
                r.measured as i64 - r.formula as i64
            );
        }
        println!("(constant offset comes from whether dead members are still addressed)\n");
    }

    if want("e4") {
        println!("== E4: §7.2 — worst case: cascading failed reconfigurations, O(n²) ==");
        println!(
            "{:<6} {:<18} {:<10} messages/n²",
            "n", "failed initiators", "messages"
        );
        for r in e4_worst_case(&[7, 9, 13, 17, 25], seed) {
            println!(
                "{:<6} {:<18} {:<10} {:.2}",
                r.n, r.failed_initiators, r.measured, r.per_n_squared
            );
        }
        println!("(a flat messages/n² column confirms the quadratic shape)\n");
    }

    if want("e5") {
        println!("== E5: §8 — symmetric protocol costs an order of magnitude more ==");
        println!("{:<6} {:<12} {:<12} ratio", "n", "symmetric", "asymmetric");
        for r in e5_symmetric(&[8, 16, 32, 64], seed) {
            println!(
                "{:<6} {:<12} {:<12} {:.1}x",
                r.n, r.symmetric, r.asymmetric, r.ratio
            );
        }
        println!();
    }

    if want("e6") {
        println!("== E6: §1/§7 — fully online: continuous joins and failures ==");
        let o = e6_churn(seed);
        println!("initial members      : {}", o.n);
        println!("joins / crashes      : {} / {}", o.joins, o.crashes);
        println!(
            "changes committed    : {} (expected {})",
            o.changes_committed,
            o.joins + o.crashes
        );
        println!("protocol messages    : {}", o.protocol_messages);
        println!(
            "full GMP spec        : {}",
            if o.gmp_ok { "HOLDS" } else { "VIOLATED" }
        );
        println!();
    }

    if want("e7") {
        println!("== E7: fault-tolerance bounds (§3.1, §4.3) ==");
        println!(
            "{:<26} {:<4} {:<9} {:<16} outcome ok",
            "scenario", "n", "crashed", "views committed"
        );
        for r in e7_tolerance(seed) {
            println!(
                "{:<26} {:<4} {:<9} {:<16} {}",
                r.scenario, r.n, r.crashed, r.views_committed, r.recovered
            );
        }
        println!();
    }

    if want("e8") {
        let seeds = seeds_flag.unwrap_or(48);
        println!("== E8: multi-seed schedule sweep — exclusion cost percentiles ==");
        println!(
            "(one exclusion, {seeds} seeds per n; delays resampled per seed; parallel runner)\n"
        );
        println!(
            "{:<6} {:<7} {:<8} {:<22} {:<24} events p50",
            "n", "seeds", "3n-5", "protocol p50/p90/p99", "protocol min..max"
        );
        for r in e8_seed_sweep(&[8, 16, 32, 64, 128], 0..seeds, jobs) {
            println!(
                "{:<6} {:<7} {:<8} {:<22} {:<24} {}",
                r.n,
                r.seeds,
                r.formula,
                format!(
                    "{} / {} / {}",
                    r.protocol.p50, r.protocol.p90, r.protocol.p99
                ),
                format!(
                    "{}..{} (mean {:.1})",
                    r.protocol.min, r.protocol.max, r.protocol.mean
                ),
                r.events.p50,
            );
        }
        println!("(percentiles flat on 3n-5: the §7.2 cost is schedule-independent)\n");
    }

    if want("e9") {
        println!("== E9: heartbeat fan-out — shared digests vs per-peer clones ==");
        println!(
            "(one exclusion; messages stay Θ(n²)/interval, payload builds drop to Θ(n)/run)\n"
        );
        println!(
            "{:<6} {:<10} {:<12} {:<16} {:<16} legacy clones (Θ(n²)/interval)",
            "n", "intervals", "heartbeats", "msgs/interval", "payload builds"
        );
        for r in e9_heartbeat_fanout(&[8, 16, 32, 64, 128], seed, jobs) {
            println!(
                "{:<6} {:<10} {:<12} {:<16.1} {:<16} {}",
                r.n,
                r.intervals,
                r.heartbeats,
                r.msgs_per_interval,
                r.payload_builds,
                r.legacy_builds
            );
        }
        println!(
            "(payload builds ≈ one per member per faulty-set change, independent of intervals)\n"
        );
    }

    if want("e13") {
        // Full scale (n up to 4096) only when e13 is asked for by name;
        // the bare "everything" invocation gets the minutes-sized sizes.
        let explicit = args.iter().any(|a| a == "e13");
        // --seeds is the seeds sampled per (topology, n) cell.
        let seeds = seeds_flag.unwrap_or(4);
        let ns: &[usize] = if explicit {
            &[64, 256, 1024, 4096]
        } else {
            &[64, 256]
        };
        println!("== E13: monitoring topologies — message load and exclusion latency vs n ==");
        println!(
            "(one exclusion per cell, {seeds} seeds; flat = the paper's clique, \
             sparse = 4-regular ring;\n \
             identical = every seed reaches the same final membership as the first \
             topology of that n; the clique stops at n = 1024 — its n = 4096 cell is \
             117 M events per seed)\n"
        );
        println!(
            "{:<6} {:<8} {:<10} {:<11} {:<10} {:<12} {:<10} identical",
            "n", "topo", "mon.edges", "messages", "protocol", "latency", "events"
        );
        let rows = e13_topology_sweep(ns, seeds);
        for r in &rows {
            println!(
                "{:<6} {:<8} {:<10} {:<11.0} {:<10.0} {:<12.1} {:<10} {}",
                r.n,
                r.topology,
                r.degree_sum,
                r.messages,
                r.protocol,
                r.latency,
                r.events,
                r.identical
            );
        }
        println!("(protocol cost stays flat: agreement still runs on the full view; only the monitoring load scales with the graph)");
        // Hard gate, not just a printed column: CI leans on this step
        // failing if any topology changes the agreed membership.
        assert!(
            rows.iter().all(|r| r.identical),
            "a topology changed the final membership outcome"
        );
        println!();
    }

    if want("e14") {
        // --seeds is the schedules sampled per scenario row (default 4).
        let seeds = seeds_flag.unwrap_or(4);
        println!("== E14: replicated log over membership — throughput, failover, safety ==");
        println!(
            "(multipaxos riding on views: Mgr = leader, view version = ballot, view \
             install = reconfiguration;\n {seeds} seeds per scenario; crash = leader dies \
             mid-run, churn = + a joiner mid-admission;\n prefix = survivors' logs \
             prefix-identical)\n"
        );
        println!(
            "{:<8} {:<6} {:<9} {:<12} {:<20} {:<22} prefix",
            "sched", "seeds", "ops/run", "ops/ktick", "latency p50/p99", "failover p50/max"
        );
        let rows = e14_replicated_log_with(seeds, clients_flag, batch_flag, window_flag);
        for r in &rows {
            let failover = if r.failover.count == 0 {
                "-".to_string()
            } else {
                format!("{} / {}", r.failover.p50, r.failover.max)
            };
            println!(
                "{:<8} {:<6} {:<9.0} {:<12.1} {:<20} {:<22} {}",
                r.scenario,
                r.seeds,
                r.committed,
                r.throughput,
                format!("{} / {}", r.latency.p50, r.latency.p99),
                failover,
                r.prefix_ok
            );
        }
        println!(
            "(failover p50 ≈ detection timeout + three-phase reconfiguration + log recovery; \
             steady-state latency is one client→leader→quorum round trip)"
        );
        // Hard gates, not just printed columns: the CI smoke run leans on
        // this step failing if any survivor log diverges.
        assert!(
            rows.iter().all(|r| r.prefix_ok),
            "a survivor's committed log diverged"
        );
        assert!(
            rows.iter().all(|r| r.committed > 0.0),
            "a scenario committed nothing"
        );
        println!();
    }

    if want("e15") {
        // --seeds is the schedules sampled per ladder cell (default 4);
        // --batch/--window shrink the ladder to baseline + that one cell.
        let seeds = seeds_flag.unwrap_or(4);
        println!("== E15: batching & pipelining ladder — amortized messages per command ==");
        println!(
            "(steady schedule, 5 replicas; batch = max commands the leader coalesces per \
             AcceptBatch,\n window = requests each client keeps in flight; cell (1,1) is the \
             unbatched baseline (batches of one);\n msgs/op counts log-layer wire messages per committed \
             operation; {seeds} seeds per cell)\n"
        );
        println!(
            "{:<7} {:<8} {:<6} {:<9} {:<12} {:<9} {:<18} {:<9} prefix",
            "batch",
            "window",
            "seeds",
            "ops/run",
            "ops/ktick",
            "msgs/op",
            "latency p50/p99",
            "speedup"
        );
        let rows = e15_log_batching(seeds, clients_flag, batch_flag, window_flag);
        for r in &rows {
            println!(
                "{:<7} {:<8} {:<6} {:<9.0} {:<12.1} {:<9.2} {:<18} {:<9.2} {}",
                r.batch,
                r.window,
                r.seeds,
                r.committed,
                r.throughput,
                r.msgs_per_op,
                format!("{} / {}", r.latency.p50, r.latency.p99),
                r.speedup,
                r.prefix_ok
            );
        }
        println!(
            "(per command a batch of one costs 3(n-1)+2 messages; a full batch of B \
             amortizes the\n quorum round to 3(n-1)/B + 2 — pipelining lifts throughput, \
             batching cuts msgs/op)"
        );
        // The same hard gates as E14, on every cell…
        assert!(
            rows.iter().all(|r| r.prefix_ok),
            "a replica's committed log diverged"
        );
        assert!(
            rows.iter().all(|r| r.committed > 0.0),
            "a ladder cell committed nothing"
        );
        // …plus the tentpole's perf gates. Pipelined cells must beat the
        // closed-loop baseline ≥ 2× on committed throughput, and a cell
        // that both batches and pipelines must show the amortization in
        // msgs/op. (Explicit --batch/--window can deselect such cells;
        // the gates then have nothing to bind and CI's default ladder
        // still enforces them.)
        let pipelined: Vec<_> = rows.iter().filter(|r| r.window > 1).collect();
        if let Some(best) = pipelined
            .iter()
            .map(|r| r.speedup)
            .max_by(|a, b| a.total_cmp(b))
        {
            assert!(
                best >= 2.0,
                "pipelining gate: best cell reached only {best:.2}x the unbatched baseline"
            );
        }
        if let Some(least) = rows
            .iter()
            .filter(|r| r.batch > 1 && r.window > 1)
            .map(|r| r.msgs_per_op)
            .min_by(|a, b| a.total_cmp(b))
        {
            assert!(
                least < 0.8 * rows[0].msgs_per_op,
                "batching gate: {least:.2} msgs/op does not amortize the baseline's {:.2}",
                rows[0].msgs_per_op
            );
        }

        // The joiner-sync arm: with compaction forced low, a late joiner
        // must catch up from snapshot + tail, not by replaying the log.
        let sync = e15_joiner_sync(seed);
        println!(
            "\njoiner sync (compact_keep {}, join at {}): log {} slots, SyncOk = snapshot + {} \
             tail entries,\n joiner base {} (booted mid-log), replicas agree: {}",
            sync.compact_keep, sync.join_at, sync.log_len, sync.tail, sync.joiner_base, sync.agree
        );
        assert!(sync.agree, "a replica disagreed on a shared slot range");
        assert!(
            sync.snapshot && sync.joiner_base > 0,
            "the joiner replayed the whole prefix instead of booting from a snapshot"
        );
        assert!(
            sync.tail <= 2 * sync.compact_keep as u64 + 64,
            "SyncOk tail {} exceeds the compaction budget {}",
            sync.tail,
            sync.compact_keep
        );
        assert!(
            sync.log_len >= 4 * sync.tail.max(1),
            "SyncOk payload is not O(tail): {} entries for a {}-slot log",
            sync.tail,
            sync.log_len
        );
        println!();
    }

    if want("a1") {
        println!("== A1: Appendix — knowledge ladder IsSysView(x) => (E<>)^y IsSysView(x-y) ==");
        print!("{}", a1_epistemic_ladder(seed));
        println!("(max-known-depth = x means full causal knowledge of all past views)\n");
    }

    if want("ab1") {
        println!("== AB1: ablation — heartbeat gossip (F2) on/off ==");
        println!(
            "{:<8} {:<16} {:<12} GMP ok",
            "gossip", "faulty-reports", "settled at"
        );
        for r in ab1_gossip(seed) {
            println!(
                "{:<8} {:<16} {:<12} {}",
                r.gossip, r.reports, r.settled_at, r.gmp_ok
            );
        }
        println!();
    }

    if want("ab2") {
        println!("== AB2: ablation — detection-timeout sweep ==");
        println!(
            "{:<14} {:<20} {:<22} safety",
            "suspect_after", "exclusion latency", "spurious suspicions"
        );
        for r in ab2_timeout_sweep(seed) {
            println!(
                "{:<14} {:<20} {:<22} {}",
                r.suspect_after,
                r.exclusion_latency
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "-".into()),
                r.spurious_suspicions,
                if r.safe { "HOLDS" } else { "VIOLATED" }
            );
        }
        println!();
    }
}
