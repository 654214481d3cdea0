//! A broadcast builds its body once: every recipient's copy of a `Commit`
//! or a `ReconfCommit` points at the one allocation. Members are stepped
//! by hand through `receive` and `take_outbox`, with no simulator.

use gmp_core::{Config, Effect, HeartbeatDigest, InterrogateOkBody, Member, Msg};
use gmp_sim::Shared;
use gmp_types::{ProcessId, View};

const N: u32 = 5;

/// Member `me` of the initial view p0..p4, started at time 0.
fn started(me: u32) -> Member {
    let view = View::new((0..N).map(ProcessId).collect());
    let mut m = Member::new(Config::default(), view);
    m.start(ProcessId(me), 0);
    m.take_outbox();
    m
}

/// The `(recipient, message)` of every send `m` queued since the last
/// drain.
fn sends(m: &mut Member) -> Vec<(ProcessId, Msg)> {
    let out = m.take_outbox().into_iter();
    out.filter_map(|e| match e {
        Effect::Send { to, msg } => Some((to, msg)),
        _ => None,
    })
    .collect()
}

/// Asserts that `bodies` (one per recipient, at least two) all share the
/// first one's allocation.
fn assert_one_body<T>(bodies: &[&Shared<T>]) {
    assert!(bodies.len() >= 2, "a broadcast has several recipients");
    for b in bodies {
        assert!(Shared::ptr_eq(bodies[0], b), "a recipient got its own copy");
    }
}

#[test]
fn a_commit_broadcast_shares_one_body() {
    let mut mgr = started(0);
    let report = Msg::FaultyReport {
        suspect: ProcessId(4),
    };
    mgr.receive(ProcessId(1), report, 10);
    let invites = sends(&mut mgr);
    assert!(invites.iter().all(|(_, m)| matches!(m, Msg::Invite { .. })));
    for p in 1..=3 {
        mgr.receive(ProcessId(p), Msg::UpdateOk { ver: 1 }, 20);
    }
    let out = sends(&mut mgr);
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
    let gossip = HeartbeatDigest::snapshot(vec![ProcessId(0)].into());
    r.receive(ProcessId(2), Msg::Heartbeat { digest: gossip }, 10);
    assert!(sends(&mut r)
        .iter()
        .any(|(_, m)| matches!(m, Msg::Interrogate)));
    for p in 2..N {
        let resp = InterrogateOkBody {
            ver: 0,
            seq: Vec::new(),
            next: Vec::new(),
        };
        r.receive(ProcessId(p), Msg::InterrogateOk(resp.into()), 20);
    }
    let out = sends(&mut r);
    let proposals: Vec<_> = out
        .iter()
        .filter_map(|(_, m)| match m {
            Msg::Propose(body) => Some(body),
            _ => None,
        })
        .collect();
    assert_one_body(&proposals);
    for p in 2..N {
        r.receive(ProcessId(p), Msg::ProposeOk { ver: 1 }, 30);
    }
    let out = sends(&mut r);
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
