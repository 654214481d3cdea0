//! Property-based pinning of the detector's slot table.
//!
//! The detector keeps its leases in a recycled slot table where
//! `BTreeMap`-keyed state used to be. The golden trace fingerprints prove
//! specific runs unchanged; these properties prove the *detector*
//! unchanged under arbitrary schedules by driving the
//! frozen oracle ([`MapDetector`]: id-keyed map, deadline heap, lazy
//! deletion) and the slot-table [`HeartbeatDetector`] (lease scan behind a
//! cached lower bound) — two different algorithms — through identical op
//! sequences. An id-keyed set models which peers hold a slot, so a
//! recycled slot still reachable through its previous occupant's id would
//! show.
//! The full member stack is proved replay-deterministic under random
//! fault schedules.

use gmp_detect::{HeartbeatDetector, MapDetector};
use gmp_types::ProcessId;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of a detector schedule, decoded from `(op, pid, dt)`.
#[derive(Clone, Copy, Debug)]
enum Op {
    Track(ProcessId),
    HeardFrom(ProcessId),
    Release(ProcessId),
    Forget(ProcessId),
    Tick,
}

/// `op` 0–3 are the four mutators, anything above is a `Tick`: drawn from
/// `0..5` every op is equally likely, from `0..14` ticks are 10× as
/// frequent as life signs.
fn decode(op: u8, pid: u8) -> Op {
    let p = ProcessId(u32::from(pid));
    match op {
        0 => Op::Track(p),
        1 => Op::HeardFrom(p),
        2 => Op::Release(p),
        3 => Op::Forget(p),
        _ => Op::Tick,
    }
}

/// Drives one schedule through both detectors, comparing every `tick`'s
/// expiries, and both enrolled sets against the model after every step.
fn check_against_the_oracle(steps: Vec<(u8, u8, u64)>, suspect_after: u64) {
    let mut oracle = MapDetector::new(suspect_after);
    let mut arena = HeartbeatDetector::new(suspect_after);
    // The peers holding a slot: enrolled by tracking, dropped by
    // `release`, `forget` and expiry.
    let mut enrolled = BTreeSet::new();
    let mut now = 0u64;
    // `forget` retires a peer for good at the protocol layer (a member
    // never re-tracks an excluded process under the same id), so the
    // schedule generator never re-Tracks a forgotten id either — the
    // slot table rejects that in debug builds. A released or expired id
    // may be tracked again, with a fresh lease.
    let mut forgotten = BTreeSet::new();
    for (op, pid, dt) in steps {
        now += dt;
        match decode(op, pid) {
            Op::Track(p) => {
                if !forgotten.contains(&p) {
                    enrolled.insert(p);
                    oracle.track(p, now);
                    arena.track(p, now);
                }
            }
            Op::HeardFrom(p) => {
                oracle.heard_from(p, now);
                arena.heard_from(p, now);
            }
            Op::Release(p) => {
                enrolled.remove(&p);
                oracle.release(p);
                arena.release(p);
            }
            Op::Forget(p) => {
                forgotten.insert(p);
                enrolled.remove(&p);
                oracle.release(p);
                arena.forget(p);
            }
            Op::Tick => {
                let expired = arena.tick(now);
                assert_eq!(oracle.tick(now), expired, "tick at {}", now);
                for p in &expired {
                    assert!(enrolled.remove(p), "{p} expired unenrolled");
                }
            }
        }
        assert!(
            arena.enrolled().eq(enrolled.iter().copied()),
            "enrolled at {now}"
        );
        assert!(
            oracle.enrolled().eq(enrolled.iter().copied()),
            "oracle enrolled at {now}"
        );
    }
    // Final drain: every outstanding lease expires together.
    now += suspect_after + 1;
    let expired = arena.tick(now);
    assert_eq!(oracle.tick(now), expired);
    assert!(expired.iter().eq(enrolled.iter()), "the drain expires all");
    assert!(arena.enrolled().next().is_none() && oracle.enrolled().next().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Identical schedules of track / heard_from / release / forget / tick
    /// produce identical expiries (same peers, same tick) in the
    /// map-backed oracle and the slot-table detector, and both enrolled
    /// sets match the model.
    #[test]
    fn arena_detector_matches_the_map_oracle(
        steps in proptest::collection::vec((0u8..5, 0u8..8, 0u64..60), 1..120),
        suspect_after in 1u64..300,
    ) {
        check_against_the_oracle(steps, suspect_after);
    }

    /// The same comparison on the schedule shape the scan's early return
    /// serves: ten ticks per life sign, most of them below the cached
    /// bound, with tracks, releases and exclusions moving leases under it.
    #[test]
    fn arena_detector_matches_the_map_oracle_when_ticks_dominate(
        steps in proptest::collection::vec((0u8..14, 0u8..8, 0u64..60), 1..240),
        suspect_after in 1u64..300,
    ) {
        check_against_the_oracle(steps, suspect_after);
    }

    /// The full protocol stack stays a pure function
    /// of `(n, seed, fault schedule)`: two runs of a randomly drawn
    /// crash-and-join scenario produce byte-identical stamped traces.
    #[test]
    fn member_runs_replay_identically(
        n in 3usize..7,
        seed in 0u64..1_000_000,
        crash_at in 200u64..2_000,
        join_at in 300u64..1_500,
    ) {
        use gmp_core::{ClusterBuilder, Config, JoinConfig};
        let run = || {
            let mut sim = ClusterBuilder::new(n, Config::default())
                .joiner(JoinConfig::new(join_at, vec![ProcessId(1)]))
                .sim(gmp_sim::Builder::new().seed(seed))
                .build();
            sim.crash_at(ProcessId(n as u32 - 1), crash_at);
            sim.run_until(6_000);
            sim.trace()
                .events
                .iter()
                .map(|e| format!("t={} pid={} kind={:?}", e.time, e.pid, e.kind))
                .collect::<Vec<_>>()
        };
        let a = run();
        prop_assert!(!a.is_empty());
        prop_assert_eq!(a, run());
    }
}
