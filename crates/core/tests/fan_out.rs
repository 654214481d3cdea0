//! A broadcast builds its body once: every recipient's copy of a `Commit`
//! or a `ReconfCommit` points at the one allocation, and so does every
//! heartbeat's faulty set until the set changes. Members are stepped by
//! hand through `receive` and `fire` into a `Vec` sink, with no simulator.

use gmp_core::{Config, HeartbeatDigest, InterrogateOkBody, Member, Msg};
use gmp_sim::Effect;
use gmp_types::note::FaultySource;
use gmp_types::{Note, ProcessId, View};
use std::sync::Arc;

const N: u32 = 5;

/// Member `me` of the initial view p0..p4, started at time 0.
fn started(me: u32) -> Member {
    let view = View::new((0..N).map(ProcessId).collect());
    let mut m = Member::new(Config::default(), view);
    m.start(&mut Vec::new(), ProcessId(me), 0);
    m
}

/// The `(recipient, message)` of every send in `out` since it was last
/// read, which empties it.
fn sends(out: &mut Vec<Effect<Msg>>) -> Vec<(ProcessId, Msg)> {
    out.drain(..)
        .filter_map(|e| match e {
            Effect::Send { to, msg } => Some((to, msg)),
            _ => None,
        })
        .collect()
}

/// Asserts that `bodies` (one per recipient, at least two) all share the
/// first one's allocation.
fn assert_one_body<T>(bodies: &[&Arc<T>]) {
    assert!(bodies.len() >= 2, "a broadcast has several recipients");
    for b in bodies {
        assert!(Arc::ptr_eq(bodies[0], b), "a recipient got its own copy");
    }
}

#[test]
fn a_commit_broadcast_shares_one_body() {
    let mut mgr = started(0);
    let mut sink = Vec::new();
    let report = Msg::FaultyReport {
        suspect: ProcessId(4),
    };
    mgr.receive(&mut sink, ProcessId(1), report, 10);
    let invites = sends(&mut sink);
    assert!(invites.iter().all(|(_, m)| matches!(m, Msg::Invite { .. })));
    for p in 1..=3 {
        mgr.receive(&mut sink, ProcessId(p), Msg::UpdateOk { ver: 1 }, 20);
    }
    let out = sends(&mut sink);
    let commits: Vec<_> = out
        .iter()
        .filter_map(|(_, m)| match m {
            Msg::Commit(body) => Some(body),
            _ => None,
        })
        .collect();
    assert_eq!(commits.len(), 3, "p1..p3: p4 is excluded");
    assert_one_body(&commits);
}

#[test]
fn a_reconfiguration_shares_one_body_per_phase() {
    // p1 learns by gossip that p0, its only senior and the `Mgr`, is
    // faulty, and runs the three phases against p2..p4.
    let mut r = started(1);
    let mut sink = Vec::new();
    let gossip = HeartbeatDigest::snapshot(vec![ProcessId(0)].into());
    r.receive(
        &mut sink,
        ProcessId(2),
        Msg::Heartbeat { digest: gossip },
        10,
    );
    assert!(sends(&mut sink)
        .iter()
        .any(|(_, m)| matches!(m, Msg::Interrogate)));
    for p in 2..N {
        let resp = InterrogateOkBody {
            seq: Vec::new(),
            next: Vec::new(),
        };
        r.receive(&mut sink, ProcessId(p), Msg::InterrogateOk(resp.into()), 20);
    }
    let out = sends(&mut sink);
    let proposals: Vec<_> = out
        .iter()
        .filter_map(|(_, m)| match m {
            Msg::Propose(body) => Some(body),
            _ => None,
        })
        .collect();
    assert_one_body(&proposals);
    for p in 2..N {
        r.receive(&mut sink, ProcessId(p), Msg::ProposeOk { ver: 1 }, 30);
    }
    let out = sends(&mut sink);
    let commits: Vec<_> = out
        .iter()
        .filter_map(|(_, m)| match m {
            Msg::ReconfCommit(body) => Some(body),
            _ => None,
        })
        .collect();
    assert_eq!(commits.len(), 3, "p2..p4: p0 is excluded");
    assert_one_body(&commits);
    assert_eq!((r.ver(), r.mgr()), (1, ProcessId(1)));
}

/// Every beat to every monitored, unsuspected peer carries the current
/// faulty set, one allocation per change of the set; a receiver that
/// already processed the set takes a repeat as a pure life sign.
#[test]
fn every_beat_re_carries_one_snapshot_and_a_repeat_is_a_no_op() {
    const TICK: u64 = 1; // Member's heartbeat timer tag.
    let mut m = started(1);
    let mut sink = Vec::new();
    let mut beats = |m: &mut Member, now: u64| {
        m.fire(&mut sink, TICK, now);
        let out = sends(&mut sink).into_iter();
        let beats = out.filter_map(|(to, msg)| match msg {
            Msg::Heartbeat { digest } => Some((to, digest)),
            _ => None,
        });
        beats.collect::<Vec<_>>()
    };
    m.inject_suspicion(ProcessId(4));
    let first = beats(&mut m, 40);
    let second = beats(&mut m, 80);
    let set = first[0].1.faulty();
    assert_eq!(set, [ProcessId(4)]);
    for (to, digest) in first.iter().chain(&second) {
        assert!([0, 2, 3].contains(&to.0), "p4 is suspected, {to} is not");
        assert!(std::ptr::eq(set, digest.faulty()), "{to} got another copy");
    }
    assert_eq!((first.len(), second.len()), (3, 3));
    assert_eq!(m.heartbeat_payload_builds(), 1, "one build per change");
    m.inject_suspicion(ProcessId(3));
    let third = beats(&mut m, 120);
    assert_eq!(third[0].1.faulty(), [ProcessId(3), ProcessId(4)]);
    assert_eq!(m.heartbeat_payload_builds(), 2, "one build per change");

    // The first carrying beat makes p2 suspect p4; the same beat again
    // finds p4 isolated and does nothing at all.
    let mut r = started(2);
    sink.clear();
    let beat = first.into_iter().find(|(to, _)| to.0 == 2).unwrap().1;
    let beat = || Msg::Heartbeat {
        digest: beat.clone(),
    };
    r.receive(&mut sink, ProcessId(1), beat(), 45);
    let notes: Vec<_> = sink
        .drain(..)
        .filter_map(|e| match e {
            Effect::Note(note) => Some(note),
            _ => None,
        })
        .collect();
    let suspected = Note::Faulty {
        suspect: ProcessId(4),
        source: FaultySource::Gossip,
    };
    assert_eq!(notes, [suspected]);
    r.receive(&mut sink, ProcessId(1), beat(), 85);
    assert!(
        sink.is_empty(),
        "a repeat emits nothing, no note either: {sink:?}"
    );
}
