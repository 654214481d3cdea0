//! Shard-equivalence harness for the intra-run sharded engine.
//!
//! `Sim::run_until_sharded` promises output **byte-identical** to the
//! single-threaded `run_until` for every shard count. This suite pins that
//! promise three ways on the real protocol:
//!
//! 1. golden FNV-1a fingerprints at shards ∈ {1, 2, 4, 8} on the
//!    crash-only and join-bearing scenarios — the *same* hashes the
//!    single-thread engine recorded in `tests/determinism.rs`, never new
//!    ones;
//! 2. event-for-event trace comparison (with stamps), plus statistics and
//!    liveness, against a fresh sequential run of the same scenario;
//! 3. a property test over arbitrary `(seed, n, horizon, shards)`
//!    combinations, including a mid-run engine switch.

mod common;

use common::{fingerprint, fnv1a};
use gmp::protocol::{cluster, ClusterBuilder, Config, JoinConfig};
use gmp::sim::{Builder, Message, Node, Sim};
use gmp::types::ProcessId;
use proptest::prelude::*;

/// Everything a run makes observable: stamped trace, statistics, and
/// per-process liveness.
fn observables<M: Message, N: Node<M>>(
    sim: &Sim<M, N>,
) -> (Vec<String>, gmp::sim::Stats, Vec<bool>) {
    let statuses = (0..sim.n())
        .map(|i| sim.status(ProcessId(i as u32)).is_up())
        .collect();
    (fingerprint(sim.trace()), sim.stats().clone(), statuses)
}

/// The crash-only golden scenario of `tests/determinism.rs`, byte-for-byte.
fn crash_scenario(n: usize, seed: u64) -> Sim<gmp::protocol::Msg, gmp::protocol::Member> {
    let mut sim = cluster(n, seed);
    sim.crash_at(ProcessId(n as u32 - 1), 400);
    sim.crash_at(ProcessId(1), 900);
    sim
}

/// The join-bearing golden scenario of `tests/determinism.rs`.
fn join_scenario(seed: u64) -> Sim<gmp::protocol::Msg, gmp::protocol::Member> {
    let mut sim = ClusterBuilder::new(5, Config::default())
        .joiner(JoinConfig::new(500, vec![ProcessId(1)]))
        .sim(Builder::new().seed(seed))
        .build();
    sim.crash_at(ProcessId(4), 1_400);
    sim
}

/// Golden fingerprints at shards ∈ {1, 2, 4, 8} for the crash-only
/// scenarios: the hashes are the single-thread goldens recorded in
/// `tests/determinism.rs` — the whole point is that shard count changes
/// no recorded byte.
#[test]
fn crash_only_goldens_hold_at_every_shard_count() {
    let golden: [(usize, u64, usize, u64); 3] = [
        (6, 42, 14696, 0x5240_f36d_ee7d_f5d8),
        (5, 7, 8044, 0xde3b_806b_eee6_1872),
        (9, 0xDEAD_BEEF, 46640, 0x1d76_8c0b_f965_d980),
    ];
    for (n, seed, events, hash) in golden {
        for shards in [1usize, 2, 4, 8] {
            let mut sim = crash_scenario(n, seed);
            sim.run_until_sharded(20_000, shards);
            let fp = fingerprint(sim.trace());
            assert_eq!(
                fp.len(),
                events,
                "n={n} seed={seed} shards={shards}: event count drifted"
            );
            assert_eq!(
                fnv1a(&fp),
                hash,
                "n={n} seed={seed} shards={shards}: sharded trace drifted"
            );
        }
    }
}

/// Golden fingerprints at shards ∈ {1, 2, 4, 8} for the join-bearing
/// scenarios (the `Joining` buffering and digest re-carry paths cross
/// shard boundaries too).
#[test]
fn join_bearing_goldens_hold_at_every_shard_count() {
    let golden: [(u64, usize, u64); 2] = [
        (3, 14049, 0x57ce_8337_edd4_bb4f),
        (21, 14051, 0xe388_d53c_14f8_fb08),
    ];
    for (seed, events, hash) in golden {
        for shards in [1usize, 2, 4, 8] {
            let mut sim = join_scenario(seed);
            sim.run_until_sharded(12_000, shards);
            let fp = fingerprint(sim.trace());
            assert_eq!(
                fp.len(),
                events,
                "seed={seed} shards={shards}: event count drifted"
            );
            assert_eq!(
                fnv1a(&fp),
                hash,
                "seed={seed} shards={shards}: sharded trace drifted"
            );
        }
    }
}

/// Event-for-event comparison — sharper failure reporting than the hashes:
/// the first diverging event is named, with full stamps.
#[test]
fn sharded_runs_equal_sequential_event_for_event() {
    let mut reference = crash_scenario(6, 42);
    reference.run_until(20_000);
    let (want_fp, want_stats, want_up) = observables(&reference);
    for shards in [1usize, 2, 4, 8] {
        let mut sim = crash_scenario(6, 42);
        sim.run_until_sharded(20_000, shards);
        let (fp, stats, up) = observables(&sim);
        for (i, (got, want)) in fp.iter().zip(want_fp.iter()).enumerate() {
            assert_eq!(got, want, "shards={shards}: first divergence at event {i}");
        }
        assert_eq!(fp.len(), want_fp.len(), "shards={shards}: event count");
        assert_eq!(stats, want_stats, "shards={shards}: statistics diverged");
        assert_eq!(up, want_up, "shards={shards}: liveness diverged");
    }
}

/// Statistics equality includes the dead-receiver and held/dropped
/// counters, which exercise the shard-side status check and the bounced
/// held-message path.
#[test]
fn sharded_statistics_match_under_partitions() {
    let build = || {
        let mut sim = crash_scenario(6, 7);
        sim.partition_at(
            &[
                &[ProcessId(0), ProcessId(1), ProcessId(2)],
                &[ProcessId(3), ProcessId(4), ProcessId(5)],
            ],
            1_000,
        );
        sim.heal_at(2_500);
        sim
    };
    let mut reference = build();
    reference.run_until(8_000);
    let want = observables(&reference);
    assert!(
        want.1.dropped_dead_receiver > 0,
        "scenario must exercise dead receivers"
    );
    for shards in [1usize, 2, 4, 8] {
        let mut sim = build();
        sim.run_until_sharded(8_000, shards);
        assert_eq!(observables(&sim), want, "shards={shards}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// For arbitrary (seed, n, horizon, shards): the sharded trace equals
    /// the single-shard trace event-for-event, with statistics and
    /// liveness.
    #[test]
    fn sharded_trace_equals_single_shard_trace(
        seed in 0u64..1_000_000,
        n in 3usize..8,
        horizon in 500u64..4_000,
        shards in 1usize..9,
    ) {
        let crash_pid = ProcessId((seed % n as u64) as u32);
        let build = || {
            let mut sim = cluster(n, seed);
            sim.crash_at(crash_pid, horizon / 2);
            sim
        };
        let mut reference = build();
        reference.run_until(horizon);
        let want = observables(&reference);
        let mut sim = build();
        sim.run_until_sharded(horizon, shards);
        let got = observables(&sim);
        prop_assert_eq!(got, want, "n={} seed={} horizon={} shards={}", n, seed, horizon, shards);
    }

    /// Switching engines mid-run — sequential segment, then sharded, then
    /// sequential again — is equally invisible: resumability is part of
    /// the API contract.
    #[test]
    fn engine_switches_mid_run_are_invisible(
        seed in 0u64..1_000_000,
        n in 3usize..7,
        split in 300u64..1_500,
        shards in 2usize..7,
    ) {
        let horizon = 3_000;
        let build = || {
            let mut sim = cluster(n, seed);
            sim.crash_at(ProcessId(n as u32 - 1), 700);
            sim
        };
        let mut reference = build();
        reference.run_until(horizon);
        let want = observables(&reference);
        let mut sim = build();
        sim.run_until(split);
        sim.run_until_sharded(split + 800, shards);
        sim.run_until(horizon);
        let got = observables(&sim);
        prop_assert_eq!(got, want, "n={} seed={} split={} shards={}", n, seed, split, shards);
    }
}
