//! Replay-determinism regression tests.
//!
//! Everything in `gmp-props` — and every `cc <seed>` regression entry —
//! rests on one guarantee: a run is a pure function of `(n, seed, fault
//! schedule)`. These tests pin that guarantee down at the strongest
//! granularity the trace records: the exact event sequence with event
//! kinds, simulated times, and Lamport/vector stamps.

mod common;

use common::{fingerprint, fnv1a};
use gmp::protocol::cluster;
use gmp::sim::Sim;
use gmp::types::ProcessId;

fn run(n: usize, seed: u64) -> Vec<String> {
    let mut sim = cluster(n, seed);
    sim.crash_at(ProcessId(n as u32 - 1), 400);
    sim.crash_at(ProcessId(1), 900);
    sim.run_until(20_000);
    fingerprint(sim.trace())
}

#[test]
fn same_seed_yields_byte_identical_traces() {
    for seed in [0, 1, 42, 0xDEAD_BEEF] {
        let a = run(6, seed);
        let b = run(6, seed);
        assert!(!a.is_empty(), "run produced no events");
        assert_eq!(a, b, "seed {seed}: replay diverged");
    }
}

#[test]
fn same_seed_identical_across_cluster_sizes() {
    for n in [3, 5, 9] {
        let a = run(n, 7);
        let b = run(n, 7);
        assert_eq!(a, b, "n = {n}: replay diverged");
    }
}

#[test]
fn different_seeds_diverge() {
    // Delays are sampled per message, so distinct seeds must produce
    // observably different schedules (times and orderings).
    let a = run(6, 1);
    let b = run(6, 2);
    assert_ne!(a, b, "distinct seeds produced identical traces");
}

/// Pins the stamped traces against golden fingerprints so that pure
/// *representation* refactors provably change no recorded value.
///
/// The hashes below were recorded on the engine *after* the heartbeat-tick
/// ordering bugfix (suspicions applied before heartbeat targets are chosen
/// — a deliberate behavioral change that retired the pre-PR-2 eager-clone
/// goldens) but *before* the heartbeat fan-out switched from per-recipient
/// `Vec` clones to `Arc`-shared delta digests and the detector's timeout
/// scan moved to a deadline min-heap. Byte-identical fingerprints (times,
/// event kinds, Lamport and vector stamps) prove those two optimizations
/// change how payloads are represented and leases are scanned, never a
/// protocol-visible event. (They have since also outlived the heap: the
/// detector is a lease scan behind a cached lower bound again, and
/// `Stats` and the trace buffer changed representation under them. They
/// outlived the delta encoding too: every beat now re-carries the shared
/// snapshot, which a receiver that already holds the set ignores.)
#[test]
fn traces_are_byte_identical_to_the_per_peer_clone_path() {
    // (n, seed, events, FNV-1a of the fingerprint) — from the post-bugfix,
    // pre-digest engine (PR 3).
    let golden: [(usize, u64, usize, u64); 3] = [
        (6, 42, 14696, 0x5240_f36d_ee7d_f5d8),
        (5, 7, 8044, 0xde3b_806b_eee6_1872),
        (9, 0xDEAD_BEEF, 46640, 0x1d76_8c0b_f965_d980),
    ];
    for (n, seed, events, hash) in golden {
        let fp = run(n, seed);
        assert_eq!(fp.len(), events, "n={n} seed={seed}: event count drifted");
        assert_eq!(fnv1a(&fp), hash, "n={n} seed={seed}: stamped trace drifted");
    }
}

/// A dropped `Sim`'s trace buffer is taken over by the next `Sim` built on
/// the thread (capacity only — `gmp-sim`'s `trace.rs`). The golden run
/// must not be able to tell: replayed into the buffer a *larger* run left
/// behind, and again into its own, it records the bytes a cold process
/// records.
#[test]
fn a_recycled_trace_buffer_replays_the_cold_goldens() {
    let (events, hash) = (8044, 0xde3b_806b_eee6_1872);
    let cold = run(5, 7);
    assert_eq!((cold.len(), fnv1a(&cold)), (events, hash), "cold");
    assert_eq!(run(9, 0xDEAD_BEEF).len(), 46640, "the larger run");
    for warm in ["after a larger run", "after itself"] {
        let mut sim = cluster(5, 7);
        assert_eq!(sim.trace().events.len(), 0, "{warm}: starts empty");
        sim.crash_at(ProcessId(4), 400);
        sim.crash_at(ProcessId(1), 900);
        sim.run_until(20_000);
        let fp = fingerprint(sim.trace());
        assert_eq!((fp.len(), fnv1a(&fp)), (events, hash), "{warm}");
    }
}

#[test]
fn determinism_survives_mid_run_inspection() {
    // Interleaving run_until calls (as tests and tools do) must not change
    // the schedule relative to one uninterrupted run.
    let uninterrupted = run(5, 11);

    let mut sim: Sim<_, _> = cluster(5, 11);
    sim.crash_at(ProcessId(4), 400);
    sim.crash_at(ProcessId(1), 900);
    for t in [300, 450, 1_000, 5_000, 20_000] {
        sim.run_until(t);
        // Observing state mid-run is allowed and must be effect-free.
        let _ = sim.living();
        let _ = sim.stats().sends_total();
    }
    assert_eq!(fingerprint(sim.trace()), uninterrupted);
}

/// Sparse-topology replay: a run on the k-regular monitoring ring (PR 7's
/// topology layer, `gmp::protocol::Sparse`) is as much a pure function of
/// `(n, seed, fault schedule)` as the clique's, with the *relay* path —
/// suspicion crossing the graph by digest re-carry, hop by hop — in
/// play. The CI determinism job double-runs this scenario alongside the
/// flat ones.
#[test]
fn sparse_topology_replays_byte_identical() {
    use gmp::protocol::{cluster_with, Config, Sparse};
    let build = || {
        let mut sim = cluster_with(12, 77, Config::builder().topology(Sparse::new(4)).build());
        sim.crash_at(ProcessId(11), 400);
        sim.crash_at(ProcessId(1), 900);
        sim
    };
    let mut first = build();
    first.run_until(12_000);
    let reference = fingerprint(first.trace());
    assert!(!reference.is_empty(), "run produced no events");

    let mut again = build();
    again.run_until(12_000);
    assert_eq!(
        fingerprint(again.trace()),
        reference,
        "sparse-topology replay diverged"
    );
}

/// Log-bearing replay: the `gmp-log` workload stacks a second protocol
/// (multipaxos phase 2) and a client population on top of membership in
/// the same simulator — member and log emitting into one context, wrapped
/// messages, two timer namespaces. A run must stay a pure function
/// of `(topology, seed, fault schedule)` with all of that in play. The CI
/// determinism job double-runs this scenario alongside the
/// membership-only ones.
///
/// Recorded, like the two log goldens below, on the client that follows
/// whichever replica replies to it.
#[test]
fn log_workload_replays_byte_identical() {
    use gmp::log::{LogClusterBuilder, LogConfig};
    let build = || {
        // Pinned to the unbatched trim; the batched path has its own
        // scenario below.
        let mut sim = LogClusterBuilder::new(5, 3)
            .seed(2024)
            .log_config(LogConfig::default().unbatched())
            .build();
        sim.crash_at(ProcessId(0), 2_000);
        sim
    };
    assert_golden(
        "unbatched log",
        build,
        15_000,
        32_460,
        0xdb5c_1bde_f8c9_91fe,
    );
}

/// Batched companion to the scenario above: the same crash schedule with
/// leader batching (`AcceptBatch` + the 1-tick flush timer), client
/// pipelining active — the two mechanisms the unbatched trim never
/// exercises. Replay must reproduce it event for event; the CI
/// determinism job double-runs this scenario too.
#[test]
fn batched_log_workload_replays_byte_identical() {
    use gmp::log::{LogClusterBuilder, LogConfig};
    let build = || {
        let mut sim = LogClusterBuilder::new(5, 3)
            .seed(2024)
            .log_config(LogConfig::default().batch(8).window(4))
            .build();
        sim.crash_at(ProcessId(0), 2_000);
        sim
    };
    assert_golden("batched log", build, 15_000, 67_455, 0x5230_22ce_5c40_eb79);
}

/// The log's hard schedule, pinned across commits: a joiner admitted via
/// p2 at 2 500, the leader p0 crashed at 3 000 (mid-admission), its
/// successor p1 at 6 000, under a saturated pipeline (`window(8)` every 5
/// ticks) with partial batches and a catch-up budget small enough that
/// the joiner's `Sync` is answered with a snapshot plus the last 64
/// entries.
#[test]
fn log_joiner_double_failover_matches_the_btree_golden() {
    use gmp::log::{LogClusterBuilder, LogConfig};
    use gmp::protocol::JoinConfig;
    let build = || {
        let mut sim = LogClusterBuilder::new(5, 6)
            .seed(2024)
            .log_config(
                LogConfig::default()
                    .batch(4)
                    .window(8)
                    .request_every(5)
                    .compact_keep(64),
            )
            .joiner(JoinConfig::new(2_500, vec![ProcessId(2)]))
            .build();
        sim.crash_at(ProcessId(0), 3_000);
        sim.crash_at(ProcessId(1), 6_000);
        sim
    };
    let mut probe = build();
    probe.run_until(12_000);
    let joiner = probe.node(ProcessId(5));
    assert!(
        joiner.member().view().contains(ProcessId(5)),
        "the joiner was never admitted"
    );
    assert!(
        joiner.log().base() > 0,
        "the joiner never booted from a snapshot"
    );
    assert_golden(
        "log joiner + double failover",
        build,
        12_000,
        104_947,
        0xdd6e_bbf4_9c7c_86a5,
    );
}

/// A join-bearing companion to the goldens above. The crash-only goldens
/// cannot exercise the `Joining` receiver path, so this scenario — one
/// §7 join racing one exclusion — pins what a joiner learns from digests
/// around its welcome and the joining-side buffering of coordinator
/// rounds. Recorded on the engine that closed the joining-receiver digest
/// gap by re-carrying the snapshot to peers not yet known to be `Active`;
/// the three crash-only goldens above were re-verified byte-identical on
/// the same engine, proving the fix touches only runs with joiners in
/// flight. Both stayed byte-identical when every beat began to re-carry
/// the snapshot to every peer.
#[test]
fn join_bearing_traces_match_the_digest_gap_fix_goldens() {
    use gmp::protocol::{ClusterBuilder, Config, JoinConfig};
    let golden: [(u64, usize, u64); 2] = [
        (3, 14049, 0x57ce_8337_edd4_bb4f),
        (21, 14051, 0xe388_d53c_14f8_fb08),
    ];
    for (seed, events, hash) in golden {
        let mut sim = ClusterBuilder::new(5, Config::default())
            .joiner(JoinConfig::new(500, vec![ProcessId(1)]))
            .sim(gmp::sim::Builder::new().seed(seed))
            .build();
        sim.crash_at(ProcessId(4), 1_400);
        sim.run_until(12_000);
        let fp = fingerprint(sim.trace());
        assert_eq!(fp.len(), events, "seed={seed}: event count drifted");
        assert_eq!(fnv1a(&fp), hash, "seed={seed}: stamped trace drifted");
    }
}

/// Runs `build()` to `until` and pins the run to the recorded
/// `(events, FNV-1a)` pair.
fn assert_golden<M, N>(
    name: &str,
    build: impl Fn() -> Sim<M, N>,
    until: u64,
    events: usize,
    hash: u64,
) where
    M: gmp::sim::Message,
    N: gmp::sim::Node<M>,
{
    let mut sim = build();
    sim.run_until(until);
    let fp = fingerprint(sim.trace());
    assert_eq!(
        (fp.len(), fnv1a(&fp)),
        (events, hash),
        "{name}: stamped trace drifted from the golden"
    );
}

/// Every heartbeat (400 ticks) and every suspicion deadline (600 ticks)
/// lies beyond the event queue's near window, so each timer of this run
/// waits in the queue's far heap and is migrated into its tick bucket
/// when the window opens over it. Recorded on the binary-heap engine (the
/// parent of the tick-ring PR): the ring must reproduce it byte for byte.
#[test]
fn far_timer_traces_match_the_binary_heap_goldens() {
    use gmp::protocol::{cluster_with, Config};
    let build = || {
        let mut sim = cluster_with(8, 17, Config::builder().timing(400, 600).build());
        sim.crash_at(ProcessId(7), 1_500);
        sim
    };
    assert_golden("far timers", build, 20_000, 4_690, 0x253c_ce5e_5cb8_d41e);
}

/// A partition held for 3 000 ticks, then healed: `release_unblocked`
/// re-enqueues hundreds of held messages at one instant, all with fresh
/// delays inside the near window. Recorded on the binary-heap engine like
/// the scenario above.
#[test]
fn partition_heal_burst_matches_the_binary_heap_golden() {
    let build = || {
        let mut sim = cluster(9, 9);
        let minority: Vec<ProcessId> = (5..9).map(ProcessId).collect();
        let majority: Vec<ProcessId> = (0..5).map(ProcessId).collect();
        sim.partition_at(&[&majority, &minority], 500);
        sim.heal_at(3_500);
        sim
    };
    let mut probe = build();
    probe.run_until(3_499);
    assert!(
        probe.stats().held >= 200,
        "the heal must release a burst, only {} held",
        probe.stats().held
    );
    assert_golden(
        "partition heal burst",
        build,
        12_000,
        15_827,
        0xc7ec_11d9_a1be_144a,
    );
}

/// The one-phase baseline's Claim 7.1 run (a partition at 50, each side's
/// coordinator committing the other's removal), pinned event for event:
/// `tables c71` prints only its summary.
#[test]
fn claim_7_1_run_matches_its_golden() {
    assert_golden(
        "claim 7.1",
        || gmp::baselines::claim_7_1_run(1),
        10_000,
        7_731,
        0x08df_e365_41d5_e545,
    );
}

/// The symmetric baseline as `tables e5`'s n = 8 row runs it (seed
/// 42 + 8, the last member crashed at 300), pinned event for event.
#[test]
fn symmetric_e5_run_matches_its_golden() {
    use gmp::baselines::SymmetricMember;
    use gmp::types::View;
    let build = || {
        let view: View = (0..8).map(ProcessId).collect();
        let mut sim = gmp::sim::Builder::new().seed(50).build();
        for _ in 0..8 {
            sim.add_node(SymmetricMember::new(view.clone(), 40, 200));
        }
        sim.crash_at(ProcessId(7), 300);
        sim
    };
    assert_golden("symmetric e5", build, 10_000, 23_159, 0x0fc1_98f2_5923_b28c);
}
