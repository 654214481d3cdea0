//! The [`MemberEvent`] queue contract (`crates/core/src/event.rs`):
//! every event kind is exercised against a golden scenario family —
//! crash-only, join-bearing, sparse-topology, partition — and the event
//! stream of every process is pinned identical between two replays of
//! the same proptest-sampled schedule.

use gmp::prelude::*;
use gmp::protocol::{Msg, Sparse};
use gmp::sim::Sim;
use gmp::types::{FaultySource, QuitReason};
use proptest::prelude::*;

/// Drains every process's queue after a finished run, keyed by pid.
fn drain_all(sim: &mut Sim<Msg, Member>) -> Vec<(ProcessId, Vec<MemberEvent>)> {
    let pids: Vec<ProcessId> = (0..sim.trace().n as u32).map(ProcessId).collect();
    pids.into_iter()
        .map(|p| (p, sim.node_mut(p).take_events()))
        .collect()
}

#[test]
fn crash_scenario_emits_the_full_exclusion_arc() {
    let mut sim = cluster(5, 42);
    sim.crash_at(ProcessId(4), 400);
    sim.run_until(10_000);

    for p in sim.living() {
        let events = sim.node_mut(p).take_events();

        // The initial view is announced first, before anything else.
        assert!(
            matches!(
                &events[0],
                MemberEvent::ViewInstalled { ver: 0, members, mgr }
                    if members.len() == 5 && *mgr == ProcessId(0)
            ),
            "{p}: first event is not the initial install: {:?}",
            events[0]
        );

        // Suspicion precedes the exclusion (GMP-1), and the exclusion is
        // immediately followed by its matching install without the victim.
        let suspected = events.iter().position(
            |e| matches!(e, MemberEvent::PeerSuspected { peer, .. } if *peer == ProcessId(4)),
        );
        let excluded = events.iter().position(
            |e| matches!(e, MemberEvent::PeerExcluded { peer, ver: 1 } if *peer == ProcessId(4)),
        );
        let (suspected, excluded) = (
            suspected.unwrap_or_else(|| panic!("{p}: no PeerSuspected for p4")),
            excluded.unwrap_or_else(|| panic!("{p}: no PeerExcluded for p4")),
        );
        assert!(suspected < excluded, "{p}: exclusion before suspicion");
        assert!(
            matches!(
                &events[excluded + 1],
                MemberEvent::ViewInstalled { ver: 1, members, .. }
                    if !members.contains(&ProcessId(4))
            ),
            "{p}: exclusion not followed by its install: {:?}",
            events.get(excluded + 1)
        );

        // The queue drains: a second take is empty.
        assert!(sim.node_mut(p).take_events().is_empty());
    }
}

#[test]
fn join_scenario_welcomes_the_joiner_and_installs_everywhere_else() {
    let mut sim = ClusterBuilder::new(5, Config::default())
        .joiner(JoinConfig::new(500, vec![ProcessId(1)]))
        .sim(Builder::new().seed(3))
        .build();
    sim.run_until(10_000);

    // The joiner's first event is `Welcomed`, taking the place of the
    // initial install, and it carries the joiner itself.
    let joiner = ProcessId(5);
    let events = sim.node_mut(joiner).take_events();
    assert!(
        matches!(
            &events[0],
            MemberEvent::Welcomed { ver, members, .. }
                if *ver >= 1 && members.contains(&joiner)
        ),
        "joiner's first event is not Welcomed: {:?}",
        events.first()
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, MemberEvent::ViewInstalled { ver: 0, .. })),
        "a joiner never sees the founding view"
    );

    // Every original member announces the join as a plain install (an
    // addition excludes no one).
    for p in (0..5).map(ProcessId) {
        let events = sim.node_mut(p).take_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                MemberEvent::ViewInstalled { members, .. } if members.contains(&joiner)
            )),
            "{p}: no install carrying the joiner"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, MemberEvent::PeerExcluded { .. })),
            "{p}: a pure join excluded someone"
        );
    }
}

#[test]
fn sparse_topology_delivers_suspicion_by_relay() {
    // A 4-regular ring of 12: the victim's non-neighbours cannot observe
    // the timeout themselves (F1) — their suspicion events must carry the
    // gossip source (F2), relayed hop by hop across the graph.
    let mut sim = cluster_with(12, 77, Config::builder().topology(Sparse::new(4)).build());
    let victim = ProcessId(11);
    sim.crash_at(victim, 400);
    sim.run_until(15_000);

    let mut observed = 0usize;
    let mut gossiped = 0usize;
    for p in sim.living() {
        let events = sim.node_mut(p).take_events();
        let source = events.iter().find_map(|e| match e {
            MemberEvent::PeerSuspected { peer, source } if *peer == victim => Some(*source),
            _ => None,
        });
        match source.unwrap_or_else(|| panic!("{p}: never suspected the victim")) {
            FaultySource::Observation => observed += 1,
            FaultySource::Gossip => gossiped += 1,
            other => panic!("{p}: unexpected suspicion source {other:?}"),
        }
        assert!(
            events.iter().any(|e| matches!(
                e,
                MemberEvent::PeerExcluded { peer, .. } if *peer == victim
            )),
            "{p}: relay never turned into an exclusion"
        );
    }
    // Ring neighbours observe; everyone else can only have heard gossip.
    assert!(observed >= 1, "no direct observer among the survivors");
    assert!(gossiped >= 1, "no survivor learned by relay");
}

#[test]
fn partitioned_initiators_quit_without_a_majority() {
    // {p0, p1} split from the majority: p0 (the Mgr) keeps initiating and
    // quits when it cannot assemble a majority (§4.3); p1 then suspects
    // the silent p0, initiates itself, and runs out of majority too. Quit
    // is terminal — it is each queue's last event.
    let mut sim = cluster(7, 5);
    let minority = [ProcessId(0), ProcessId(1)];
    let majority: Vec<ProcessId> = (2..7).map(ProcessId).collect();
    sim.partition_at(&[&minority, &majority], 500);
    sim.run_until(25_000);

    for &p in &minority {
        let events = sim.node_mut(p).take_events();
        match events.last() {
            Some(MemberEvent::Quit {
                reason: QuitReason::NoMajority { got, needed },
            }) => {
                assert!(got < needed, "{p}: quit with a majority in hand");
            }
            other => panic!("{p}: last event is not a NoMajority Quit: {other:?}"),
        }
    }

    // The majority excluded both and heard about it as events.
    for &p in &majority {
        let events = sim.node_mut(p).take_events();
        for victim in minority {
            assert!(
                events.iter().any(|e| matches!(
                    e,
                    MemberEvent::PeerExcluded { peer, .. } if *peer == victim
                )),
                "{p}: no exclusion event for {victim}"
            );
        }
    }
}

#[test]
fn slandered_member_quits_excluded_and_the_injection_is_sourced() {
    // A spurious suspicion planted through the `testing` hook: the
    // injector's event carries `FaultySource::Injected`, the group
    // excludes the (perfectly alive) suspect under GMP-5, and the suspect
    // — learning of its own exclusion — emits a terminal `Excluded` quit.
    let mut sim = cluster(5, 13);
    sim.run_until(500);
    sim.node_mut(ProcessId(1)).inject_suspicion(ProcessId(4));
    sim.run_until(12_000);

    let injector = sim.node_mut(ProcessId(1)).take_events();
    assert!(
        injector.iter().any(|e| matches!(
            e,
            MemberEvent::PeerSuspected { peer, source: FaultySource::Injected }
                if *peer == ProcessId(4)
        )),
        "injector's suspicion does not carry the Injected source"
    );

    let suspect = sim.node_mut(ProcessId(4)).take_events();
    assert!(
        matches!(
            suspect.last(),
            Some(MemberEvent::Quit {
                reason: QuitReason::Excluded
            })
        ),
        "slandered member's last event is not an Excluded quit: {:?}",
        suspect.last()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The event stream of every process is a pure function of the run:
    /// a second build of the same schedule replays it element-for-element.
    #[test]
    fn event_streams_replay_identically(
        n in 4usize..8,
        seed in 0u64..1_000,
        victim in 1u32..4,
        crash_at in 300u64..1_500,
    ) {
        let build = || {
            let mut sim = cluster(n, seed);
            sim.crash_at(ProcessId(victim), crash_at);
            sim
        };
        let mut first = build();
        first.run_until(12_000);
        let reference = drain_all(&mut first);
        prop_assert!(
            reference.iter().any(|(_, evs)| !evs.is_empty()),
            "run produced no events at all"
        );
        let mut again = build();
        again.run_until(12_000);
        prop_assert_eq!(drain_all(&mut again), reference, "event stream diverged on replay");
    }
}
