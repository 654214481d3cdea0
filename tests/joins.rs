//! Integration: the join procedure (§7) and its interleavings with
//! failures and coordinator changes.

use gmp::props::{analyze, check_all, check_safety};
use gmp::protocol::{ClusterBuilder, Config, JoinConfig, Lifecycle};
use gmp::sim::{Builder, TraceKind};
use gmp::types::ProcessId;

fn joining_cluster(
    n: usize,
    seed: u64,
    joins: &[(u64, u32)], // (ask time, contact)
) -> gmp::sim::Sim<gmp::protocol::Msg, gmp::protocol::Member> {
    let mut b = ClusterBuilder::new(n, Config::default());
    for &(at, contact) in joins {
        b = b.joiner(JoinConfig::new(at, vec![ProcessId(contact)]));
    }
    b.sim(Builder::new().seed(seed)).build()
}

#[test]
fn single_join_across_seeds() {
    for seed in 0..15 {
        let mut sim = joining_cluster(4, seed, &[(500, 1)]);
        sim.run_until(10_000);
        check_all(sim.trace()).assert_ok();
        let joiner = ProcessId(4);
        assert!(
            matches!(sim.node(joiner).lifecycle(), Lifecycle::Active),
            "seed {seed}"
        );
        for p in sim.living() {
            assert!(sim.node(p).view().contains(joiner), "seed {seed} at {p}");
        }
    }
}

#[test]
fn joiner_is_most_junior() {
    let mut sim = joining_cluster(4, 3, &[(500, 2)]);
    sim.run_until(10_000);
    let m = sim.node(ProcessId(0));
    assert_eq!(
        m.view().rank(ProcessId(4)),
        Some(1),
        "joiners enter at rank 1"
    );
    assert_eq!(m.view().rank(ProcessId(0)), Some(5));
}

#[test]
fn concurrent_joins_serialize() {
    let mut sim = joining_cluster(4, 7, &[(500, 1), (510, 2), (520, 3)]);
    sim.run_until(15_000);
    check_all(sim.trace()).assert_ok();
    for p in sim.living() {
        assert_eq!(sim.node(p).ver(), 3, "three adds, three versions");
        assert_eq!(sim.node(p).view().len(), 7);
    }
}

#[test]
fn join_during_exclusion() {
    let mut sim = joining_cluster(5, 9, &[(450, 1)]);
    sim.crash_at(ProcessId(4), 400);
    sim.run_until(12_000);
    check_all(sim.trace()).assert_ok();
    for p in sim.living() {
        let m = sim.node(p);
        assert_eq!(m.ver(), 2);
        assert!(m.view().contains(ProcessId(5)));
        assert!(!m.view().contains(ProcessId(4)));
    }
}

#[test]
fn joiner_whose_welcome_is_lost_retries() {
    // Mgr commits the add but dies before/while welcoming the joiner; any
    // member that already sees the joiner in its view re-welcomes it on the
    // next retry.
    for seed in 0..10 {
        let mut sim = joining_cluster(5, seed, &[(500, 1)]);
        sim.crash_after_sends_at(ProcessId(0), 0, Some("welcome"), 1);
        // (welcome is its own send; crashing after 1 send means the welcome
        // itself went out — instead cut the commit broadcast that follows)
        sim.run_until(20_000);
        check_safety(sim.trace()).assert_ok();
    }
}

#[test]
fn mgr_dies_right_after_committing_the_add() {
    for seed in 0..10 {
        let mut sim = joining_cluster(5, seed, &[(500, 1)]);
        // Die one send into the add's commit broadcast: some members know
        // the joiner, others do not; reconfiguration must reconcile.
        sim.crash_after_sends_at(ProcessId(0), 0, Some("commit"), 1);
        sim.run_until(25_000);
        check_safety(sim.trace()).assert_ok();
        let living = sim.living();
        let reference = sim.node(living[0]).view().clone();
        for &p in &living {
            assert_eq!(
                sim.node(p).view(),
                &reference,
                "seed {seed} diverged at {p}"
            );
        }
    }
}

#[test]
fn joiner_crash_after_joining_is_excluded_again() {
    let mut sim = joining_cluster(4, 12, &[(500, 1)]);
    sim.crash_at(ProcessId(4), 3_000);
    sim.run_until(12_000);
    check_all(sim.trace()).assert_ok();
    for p in sim.living() {
        let m = sim.node(p);
        assert_eq!(m.ver(), 2, "add then remove");
        assert!(!m.view().contains(ProcessId(4)));
    }
}

/// `retry_every(u64::MAX)` means "never retry": the joiner's retry timer
/// lies past the end of time, so it sends one round of requests and is
/// welcomed off that round alone.
#[test]
fn a_joiner_that_never_retries_sends_one_round() {
    let join = JoinConfig::new(10, vec![ProcessId(0), ProcessId(1)]).retry_every(u64::MAX);
    let mut sim = ClusterBuilder::new(3, Config::default())
        .joiner(join)
        .sim(Builder::new().seed(2))
        .build();
    sim.run_until(5_000);
    let joiner = ProcessId(3);
    let requests = sim
        .trace()
        .events
        .iter()
        .filter(|e| e.pid == joiner)
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::Send {
                    tag: "join-request",
                    ..
                }
            )
        })
        .count();
    assert_eq!(requests, 2, "one request per contact, never retried");
    assert_eq!(sim.node(joiner).lifecycle(), Lifecycle::Active);
    check_all(sim.trace()).assert_ok();
}

#[test]
fn join_request_forwarded_through_non_mgr_contact() {
    // The contact (p3) is not the coordinator: the request must be
    // forwarded to Mgr rather than dropped.
    let mut sim = joining_cluster(4, 14, &[(500, 3)]);
    sim.run_until(10_000);
    check_all(sim.trace()).assert_ok();
    assert!(sim.node(ProcessId(0)).view().contains(ProcessId(4)));
}

#[test]
fn churn_storm_joins_and_failures() {
    let mut b = ClusterBuilder::new(6, Config::default());
    for j in 0..5u64 {
        b = b.joiner(JoinConfig::new(600 + 500 * j, vec![ProcessId(1)]));
    }
    let mut sim = b.sim(Builder::new().seed(77)).build();
    sim.crash_at(ProcessId(5), 900);
    sim.crash_at(ProcessId(4), 1_700);
    sim.crash_at(ProcessId(7), 2_900); // an already-joined newcomer dies
    sim.run_until(25_000);
    check_all(sim.trace()).assert_ok();
    let a = analyze(sim.trace());
    assert_eq!(
        a.final_system_view().expect("views exist").ver,
        8,
        "5 joins + 3 exclusions all commit"
    );
}

#[test]
fn view_version_grows_monotonically_per_process() {
    let mut sim = joining_cluster(5, 21, &[(500, 1), (900, 2)]);
    sim.crash_at(ProcessId(4), 1_400);
    sim.run_until(15_000);
    let a = analyze(sim.trace());
    for (pid, views) in &a.views {
        for w in views.windows(2) {
            assert!(w[1].ver == w[0].ver + 1, "{pid} skipped a version");
        }
    }
}

/// Regression for the joining-receiver digest gap.
///
/// Heartbeat digests were once delta-encoded: a carrier marked the
/// faulty-set snapshot as delivered to a peer the moment the carrying beat
/// was *sent*. A peer that is still `Joining` silently discards
/// heartbeats, so a beat sent during its pre-welcome window was marked
/// delivered yet never arrived, and nothing re-carried the snapshot. The
/// joiner stayed ignorant of the faulty set until some *later* change (or
/// coordinator traffic) happened to mention it, which in a quiescent group
/// is never. Every beat now carries the snapshot, so the gap cannot occur.
///
/// The scenario pins the gap without any crash so no exclusion traffic can
/// leak the verdict to the joiner through another channel:
///
/// * the joiner asks at 500 and is added (~525), but the mgr's `Welcome`
///   is dropped, so the joiner stays `Joining` until its retry at 660 is
///   re-welcomed by the contact (~670);
/// * the three carriers p1..p3 get an injected suspicion of p4 at 545;
///   their faulty-reports to the mgr are held by blocked links, so the
///   suspicion never resolves into an exclusion — digests are the *only*
///   channel that can tell the joiner;
/// * the carrying beats at ticks 560..640 all land on the `Joining`
///   joiner and are discarded. With the delta encoding, those sends
///   marked the set delivered and the joiner never learned of p4 at all.
///   Now carriers re-carry the snapshot on every beat, so the first
///   post-welcome beat delivers it.
#[test]
fn joiner_welcomed_mid_suspicion_learns_the_faulty_set_by_digest() {
    use gmp::sim::{BlockMode, TraceEvent, TraceKind};
    use gmp::types::{FaultySource, Note};

    let cfg = Config::default();
    for seed in 0..20u64 {
        let mut b = ClusterBuilder::new(5, cfg.clone());
        b = b.joiner(JoinConfig::new(500, vec![ProcessId(1)]).retry_every(160));
        let mut sim = b.sim(Builder::new().seed(seed)).build();
        let joiner = ProcessId(5);
        // Lose the mgr's Welcome (and the commit that follows it): the
        // joiner is in everyone's view but stays Joining until its retry.
        sim.block_link_at(ProcessId(0), joiner, BlockMode::Drop, 0);
        // Hold the carriers' reports so the mgr never starts an exclusion
        // that would hand the joiner the faulty set by Invite/Commit.
        for carrier in [1u32, 2, 3] {
            sim.block_link_at(ProcessId(carrier), ProcessId(0), BlockMode::Hold, 540);
        }
        sim.run_until(545);
        for carrier in [1u32, 2, 3] {
            sim.node_mut(ProcessId(carrier))
                .inject_suspicion(ProcessId(4));
        }
        // Stop before any secondary suspicion (mgr vs the held links at
        // ~760, p4 vs the carriers isolating it at ~860) can muddy the
        // trace: within this horizon digests are the only faulty channel.
        sim.run_until(740);

        assert!(
            matches!(sim.node(joiner).lifecycle(), Lifecycle::Active),
            "seed {seed}: joiner must reach Active via the retried welcome"
        );
        let evs: Vec<_> = sim
            .trace()
            .events
            .iter()
            .filter(|e| e.pid == joiner)
            .collect();
        fn note<'a>(e: &TraceEvent<'a>) -> Option<&'a Note> {
            match e.kind {
                TraceKind::Note(note) => Some(note),
                _ => None,
            }
        }
        let welcome = evs
            .iter()
            .find(|e| matches!(note(e), Some(Note::ViewInstalled { .. })))
            .expect("joiner installs a view")
            .time;
        let first = evs
            .iter()
            .position(|e| matches!(note(e), Some(Note::Faulty { .. })))
            .unwrap_or_else(|| {
                panic!("seed {seed}: joiner never learned the faulty set — digest gap")
            });
        let Some(Note::Faulty { suspect, source }) = note(&evs[first]) else {
            unreachable!()
        };
        assert_eq!(*suspect, ProcessId(4), "seed {seed}");
        assert_eq!(*source, FaultySource::Gossip, "seed {seed}");
        let carrier_tag = evs[..first].iter().rev().find_map(|e| match e.kind {
            TraceKind::Recv { msg_id, .. } => Some(sim.trace().message_tag(msg_id)),
            _ => None,
        });
        assert_eq!(
            carrier_tag,
            Some("heartbeat"),
            "seed {seed}: the verdict must arrive by digest, not coordinator traffic"
        );
        assert!(
            evs[first].time <= welcome + 2 * cfg.heartbeat_every,
            "seed {seed}: learned at {} but welcomed at {welcome} — re-carry \
             must deliver within the first beats",
            evs[first].time
        );
        check_safety(sim.trace()).assert_ok();
    }
}

/// A process isolated before its add reaches this member is faulty the
/// moment the add puts it in the view. Schedule (every delay 5):
///
/// * p0 invites the joiner p4 at 105, and the link p0 → p1 holds from 112,
///   so p1 sees the invitation but not the commit (p2 and p3 install v1
///   at 120);
/// * p4 crashes at 121; at 320 p0, p2 and p3 suspect it, and p1, silent
///   from p0 since the hold, suspects p0 and starts a reconfiguration;
/// * p1 takes p4's suspicion from p2's digest at 325, before it knows p4
///   is a member; p0 crashes at 322 and the hold lifts at 330;
/// * p1 installs v1, which adds p4, as the new `Mgr` at 340.
///
/// p4 is then isolated and in p1's view. A round that awaited it would
/// wait forever (S1 drops its every answer), and nothing else would ever
/// remove it: p1 must commit `remove(p4)` and then `remove(p0)`, and every
/// survivor end at v3 = {p1, p2, p3}.
#[test]
fn a_process_isolated_before_its_add_is_removed_after_it() {
    use gmp::sim::BlockMode;

    let (p0, p1, p4) = (ProcessId(0), ProcessId(1), ProcessId(4));
    let b = ClusterBuilder::new(4, Config::default()).joiner(JoinConfig::new(100, vec![p0]));
    let mut sim = b.sim(Builder::new().seed(0).delay(5, 5)).build();
    sim.block_link_at(p0, p1, BlockMode::Hold, 112);
    sim.crash_at(p4, 121);
    sim.crash_at(p0, 322);
    sim.unblock_link_at(p0, p1, 330);
    sim.run_until(20_000);
    check_all(sim.trace()).assert_ok();
    assert_eq!(sim.living(), [1, 2, 3].map(ProcessId));
    for p in sim.living() {
        let m = sim.node(p);
        assert_eq!(m.ver(), 3, "add p4, remove p4, remove p0 at {p}");
        assert_eq!(m.view().as_slice(), [1, 2, 3].map(ProcessId), "at {p}");
        assert_eq!(m.mgr(), p1, "at {p}");
    }
}
