//! The membership events a consumer reads (`crates/core/src/event.rs`),
//! stated over the notes in each process's trace history: every event
//! kind is exercised against a golden scenario family — crash-only,
//! join-bearing, sparse-topology, partition — and the event stream that
//! [`MemberEvent::of`] reads off every process's notes is pinned identical
//! between two replays of the same proptest-sampled schedule.

use gmp::prelude::*;
use gmp::protocol::{Msg, Sparse};
use gmp::sim::{Sim, TraceKind};
use gmp::types::{FaultySource, Note, OpKind, QuitReason};
use proptest::prelude::*;

/// The notes in `p`'s history, in order.
fn notes(sim: &Sim<Msg, Member>, p: ProcessId) -> Vec<&Note> {
    let history = sim.trace().history(p);
    history
        .filter_map(|e| match &e.kind {
            TraceKind::Note(note) => Some(&**note),
            _ => None,
        })
        .collect()
}

/// Every process's events, read off its notes, keyed by pid.
fn events_of_all(sim: &Sim<Msg, Member>) -> Vec<(ProcessId, Vec<MemberEvent>)> {
    let pids = (0..sim.trace().n as u32).map(ProcessId);
    pids.map(|p| {
        let events = notes(sim, p).into_iter().filter_map(MemberEvent::of);
        (p, events.collect())
    })
    .collect()
}

/// True for the note that applies the removal of `victim`.
fn removes(note: &Note, victim: ProcessId) -> bool {
    matches!(note, Note::OpApplied { op, .. } if op.kind == OpKind::Remove && op.target == victim)
}

#[test]
fn crash_scenario_emits_the_full_exclusion_arc() {
    let mut sim = cluster(5, 42);
    sim.crash_at(ProcessId(4), 400);
    sim.run_until(10_000);

    for p in sim.living() {
        let notes = notes(&sim, p);

        // The initial view is announced first, before anything else.
        assert!(
            matches!(
                notes[0],
                Note::ViewInstalled { ver: 0, members, mgr }
                    if members.len() == 5 && *mgr == ProcessId(0)
            ),
            "{p}: first note is not the initial install: {}",
            notes[0]
        );

        // Suspicion precedes the exclusion (GMP-1), and the exclusion is
        // immediately followed by its matching install without the victim.
        let suspected = notes
            .iter()
            .position(|n| matches!(n, Note::Faulty { suspect, .. } if *suspect == ProcessId(4)));
        let excluded = notes
            .iter()
            .position(|n| removes(n, ProcessId(4)) && matches!(n, Note::OpApplied { ver: 1, .. }));
        let (suspected, excluded) = (
            suspected.unwrap_or_else(|| panic!("{p}: no Faulty note for p4")),
            excluded.unwrap_or_else(|| panic!("{p}: no removal of p4 at v1")),
        );
        assert!(suspected < excluded, "{p}: exclusion before suspicion");
        assert!(
            matches!(
                notes[excluded + 1],
                Note::ViewInstalled { ver: 1, members, .. }
                    if !members.contains(&ProcessId(4))
            ),
            "{p}: exclusion not followed by its install: {:?}",
            notes.get(excluded + 1)
        );
    }
}

#[test]
fn join_scenario_welcomes_the_joiner_and_installs_everywhere_else() {
    let mut sim = ClusterBuilder::new(5, Config::default())
        .joiner(JoinConfig::new(500, vec![ProcessId(1)]))
        .sim(Builder::new().seed(3))
        .build();
    sim.run_until(10_000);

    // The joiner's first note is the install of its welcome, which takes
    // the place of the initial install and carries the joiner itself.
    let joiner = ProcessId(5);
    let notes = notes(&sim, joiner);
    assert!(
        matches!(
            notes[0],
            Note::ViewInstalled { ver, members, .. }
                if *ver >= 1 && members.contains(&joiner)
        ),
        "joiner's first note is not its welcome: {:?}",
        notes.first()
    );
    assert!(
        !notes
            .iter()
            .any(|n| matches!(n, Note::ViewInstalled { ver: 0, .. })),
        "a joiner never sees the founding view"
    );

    // Every original member announces the join as a plain install (an
    // addition excludes no one).
    for p in (0..5).map(ProcessId) {
        let notes = self::notes(&sim, p);
        assert!(
            notes.iter().any(|n| matches!(
                n,
                Note::ViewInstalled { members, .. } if members.contains(&joiner)
            )),
            "{p}: no install carrying the joiner"
        );
        assert!(
            !notes
                .iter()
                .any(|n| matches!(n, Note::OpApplied { op, .. } if op.kind == OpKind::Remove)),
            "{p}: a pure join excluded someone"
        );
    }
}

#[test]
fn sparse_topology_delivers_suspicion_by_relay() {
    // A 4-regular ring of 12: the victim's non-neighbours cannot observe
    // the timeout themselves (F1) — their suspicion notes must carry the
    // gossip source (F2), relayed hop by hop across the graph.
    let mut sim = cluster_with(12, 77, Config::builder().topology(Sparse::new(4)).build());
    let victim = ProcessId(11);
    sim.crash_at(victim, 400);
    sim.run_until(15_000);

    let mut observed = 0usize;
    let mut gossiped = 0usize;
    for p in sim.living() {
        let notes = notes(&sim, p);
        let source = notes.iter().find_map(|n| match n {
            Note::Faulty { suspect, source } if *suspect == victim => Some(*source),
            _ => None,
        });
        match source.unwrap_or_else(|| panic!("{p}: never suspected the victim")) {
            FaultySource::Observation => observed += 1,
            FaultySource::Gossip => gossiped += 1,
            other => panic!("{p}: unexpected suspicion source {other:?}"),
        }
        assert!(
            notes.iter().any(|n| removes(n, victim)),
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
    // is terminal — it is each history's last note.
    let mut sim = cluster(7, 5);
    let minority = [ProcessId(0), ProcessId(1)];
    let majority: Vec<ProcessId> = (2..7).map(ProcessId).collect();
    sim.partition_at(&[&minority, &majority], 500);
    sim.run_until(25_000);

    for &p in &minority {
        match notes(&sim, p).last() {
            Some(Note::Quit {
                reason: QuitReason::NoMajority { got, needed },
            }) => {
                assert!(got < needed, "{p}: quit with a majority in hand");
            }
            other => panic!("{p}: last note is not a NoMajority Quit: {other:?}"),
        }
    }

    // The majority excluded both and recorded it.
    for &p in &majority {
        let notes = notes(&sim, p);
        for victim in minority {
            assert!(
                notes.iter().any(|n| removes(n, victim)),
                "{p}: no exclusion of {victim}"
            );
        }
    }
}

#[test]
fn slandered_member_quits_excluded_and_the_injection_is_sourced() {
    // A spurious suspicion planted through the `testing` hook: the
    // injector's note carries `FaultySource::Injected`, the group
    // excludes the (perfectly alive) suspect under GMP-5, and the suspect
    // — learning of its own exclusion — records a terminal `Excluded` quit.
    let mut sim = cluster(5, 13);
    sim.run_until(500);
    sim.node_mut(ProcessId(1)).inject_suspicion(ProcessId(4));
    sim.run_until(12_000);

    let injector = notes(&sim, ProcessId(1));
    assert!(
        injector.iter().any(|n| matches!(
            n,
            Note::Faulty { suspect, source: FaultySource::Injected }
                if *suspect == ProcessId(4)
        )),
        "injector's suspicion does not carry the Injected source"
    );

    let suspect = notes(&sim, ProcessId(4));
    assert!(
        matches!(
            suspect.last(),
            Some(Note::Quit {
                reason: QuitReason::Excluded
            })
        ),
        "slandered member's last note is not an Excluded quit: {:?}",
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
        let reference = events_of_all(&first);
        prop_assert!(
            reference.iter().any(|(_, evs)| !evs.is_empty()),
            "run produced no events at all"
        );
        let mut again = build();
        again.run_until(12_000);
        prop_assert_eq!(events_of_all(&again), reference, "event stream diverged on replay");
    }
}
