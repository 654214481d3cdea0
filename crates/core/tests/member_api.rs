//! Public inspection API of `Member`: the surface a downstream user builds
//! failure-detection services on.

use gmp_core::{cluster, Config, Lifecycle, Member, MemberEvent};
use gmp_types::{FaultySource, Note, Op, ProcessId, QuitReason, View};

#[test]
fn initial_member_state() {
    let view: View = (0..3u32).map(ProcessId).collect();
    let m = Member::new(Config::default(), view.clone());
    assert_eq!(m.ver(), 0);
    assert_eq!(m.view(), &view);
    assert_eq!(m.mgr(), ProcessId(0));
    assert!(m.seq().is_empty());
    assert!(m.next_list().is_empty());
    assert_eq!(m.faulty_set().count(), 0);
    assert!(matches!(m.lifecycle(), Lifecycle::Active));
    assert!(!m.is_observer());
    assert!(m.observed_view().is_none());
}

#[test]
#[should_panic(expected = "non-empty")]
fn empty_initial_view_rejected() {
    let _ = Member::new(Config::default(), View::empty());
}

#[test]
#[should_panic(expected = "join config")]
fn joiner_requires_join_config() {
    let _ = Member::joiner(Config::default());
}

#[test]
#[should_panic(expected = "observe config")]
fn observer_requires_observe_config() {
    let _ = Member::observer(Config::default());
}

#[test]
fn seq_records_committed_operations_in_order() {
    let mut sim = cluster(5, 17);
    sim.crash_at(ProcessId(4), 400);
    sim.crash_at(ProcessId(3), 1_500);
    sim.run_until(12_000);
    let m = sim.node(ProcessId(1));
    assert_eq!(
        m.seq(),
        &[Op::remove(ProcessId(4)), Op::remove(ProcessId(3))]
    );
    assert_eq!(m.ver() as usize, m.seq().len());
}

#[test]
fn mgr_flag_tracks_the_coordinator_role() {
    let mut sim = cluster(4, 18);
    sim.run_until(2_000);
    assert!(sim.node(ProcessId(0)).is_mgr());
    assert!(!sim.node(ProcessId(1)).is_mgr());
    sim.crash_at(ProcessId(0), 2_500);
    sim.run_until(15_000);
    assert!(
        sim.node(ProcessId(1)).is_mgr(),
        "successor assumes the role"
    );
    assert_eq!(sim.node(ProcessId(2)).mgr(), ProcessId(1));
}

#[test]
fn faulty_set_drains_as_exclusions_commit() {
    let mut sim = cluster(5, 19);
    sim.crash_at(ProcessId(4), 400);
    sim.run_until(12_000);
    // After the exclusion commits nobody still *holds* a pending suspicion.
    for p in sim.living() {
        assert_eq!(
            sim.node(p).faulty_set().count(),
            0,
            "{p} still holds a pending suspicion"
        );
    }
}

/// `MemberEvent::of` reads each of the two consumer notes with its
/// fields, and no other note: a raw suspicion is not an event.
#[test]
fn each_consumer_note_maps_with_its_fields_and_no_other_does() {
    let (p0, p1, p3) = (ProcessId(0), ProcessId(1), ProcessId(3));
    let mapped = [
        (
            Note::ViewInstalled {
                ver: 2,
                members: vec![p0, p3].into(),
                mgr: p0,
            },
            MemberEvent::ViewInstalled {
                ver: 2,
                members: vec![p0, p3],
                mgr: p0,
            },
        ),
        (
            Note::Quit {
                reason: QuitReason::NoMajority { got: 1, needed: 2 },
            },
            MemberEvent::Quit {
                reason: QuitReason::NoMajority { got: 1, needed: 2 },
            },
        ),
    ];
    for (note, event) in mapped {
        assert_eq!(MemberEvent::of(&note), Some(event), "{note}");
    }
    let unmapped = [
        Note::Operating { id: p1 },
        Note::Faulty {
            suspect: p1,
            source: FaultySource::HiFaultyInference,
        },
        Note::OpApplied {
            op: Op::remove(p1),
            ver: 1,
        },
        Note::BecameMgr { ver: 1 },
        Note::ReconfStarted { from_ver: 1 },
        Note::Isolated { from: p1 },
        Note::JoinRequested { joiner: p3 },
        Note::ObservedView {
            ver: 1,
            members: vec![p0].into(),
            mgr: p0,
        },
        Note::Custom("x".into()),
    ];
    for note in unmapped {
        assert_eq!(MemberEvent::of(&note), None, "{note}");
    }
}
