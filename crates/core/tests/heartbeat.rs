//! Heartbeat-tick regression tests: suspicion ordering within a tick, the
//! boundedness of the per-suspect bookkeeping maps, the repair of a lost
//! gossip beat, and the equivalence of the member's detector with a bare
//! one replayed from its trace.

use gmp_core::{cluster, cluster_with, Config};
use gmp_detect::HeartbeatDetector;
use gmp_sim::net::BlockMode;
use gmp_sim::TraceKind;
use gmp_types::note::FaultySource;
use gmp_types::{Note, OpKind, ProcessId};

/// Regression for the tick-ordering bug: `on_tick` used to broadcast
/// heartbeats *before* draining injected suspicions and running the
/// detector, so a peer the sender declared faulty at that very tick still
/// received one more heartbeat from it — violating the spirit of S1, which
/// severs communication *at* the suspicion. Suspicions now apply first, so
/// no heartbeat is ever sent to a process suspected at the same instant.
#[test]
fn no_heartbeat_to_a_peer_suspected_at_the_same_instant() {
    let observer = ProcessId(2);
    let victim = ProcessId(3);
    let mut sim = cluster(5, 23);
    sim.run_until(210);
    sim.node_mut(observer).inject_suspicion(victim);
    sim.run_until(2_000);

    // The injected suspicion lands at observer's next tick.
    let suspected_at = sim
        .trace()
        .notes()
        .find(|(e, n)| {
            e.pid == observer
                && matches!(
                    n,
                    Note::Faulty {
                        suspect,
                        source: FaultySource::Injected,
                    } if *suspect == victim
                )
        })
        .map(|(e, _)| e.time)
        .expect("the injected suspicion must fire");

    // From that instant on — *including* the suspicion's own tick — the
    // observer sends the victim nothing, heartbeats included.
    let late_sends: Vec<u64> = sim
        .trace()
        .events
        .iter()
        .filter(|e| e.pid == observer && e.time >= suspected_at)
        .filter_map(|e| match &e.kind {
            TraceKind::Send { to, .. } if *to == victim => Some(e.time),
            _ => None,
        })
        .collect();
    assert!(
        late_sends.is_empty(),
        "observer kept messaging the peer it suspected at t={suspected_at}: {late_sends:?}"
    );

    // Sanity: before the suspicion the observer *did* heartbeat the victim.
    assert!(
        sim.trace().events.iter().any(|e| {
            e.pid == observer
                && e.time < suspected_at
                && matches!(e.kind, TraceKind::Send { to, tag: "heartbeat", .. } if to == victim)
        }),
        "scenario must exercise the heartbeat path before the suspicion"
    );
}

/// Regression for the unbounded GMP-5 re-report throttle: `last_report`
/// entries used to survive the suspect's exclusion (only the direct-commit
/// path pruned them), so reconfiguration-heavy runs grew the map without
/// bound. An entry now goes when its suspect's exclusion is applied:
/// across a run that installs several views, the map only ever holds
/// in-view suspects.
#[test]
fn report_throttle_only_holds_in_view_suspects() {
    let mut sim = cluster(6, 31);
    sim.crash_at(ProcessId(5), 400);
    sim.crash_at(ProcessId(4), 1_600);
    sim.crash_at(ProcessId(3), 2_800);
    // Inspect around each exclusion, not just at quiescence, so the claim
    // covers the transient states too.
    for t in [1_000, 2_200, 3_400, 15_000] {
        sim.run_until(t);
        for p in sim.living() {
            let m = sim.node(p);
            for q in m.reported_suspects() {
                assert!(
                    m.view().contains(q),
                    "at t={t}, {p} still throttle-tracks {q}, which left its view"
                );
            }
        }
    }
    // All three victims were installed out of the view, so at quiescence
    // the throttle map must have drained completely.
    for p in sim.living() {
        assert_eq!(
            sim.node(p).reported_suspects().count(),
            0,
            "{p} kept throttle entries after every suspect was excluded"
        );
    }
    assert_eq!(sim.node(ProcessId(0)).ver(), 3, "three exclusions commit");
}

/// The member drives its detector only through `monitor` (a batch of
/// `track`s), `admit` (S1, then `heard_from`), `heard_from`, `isolate`
/// (S1, then `release`), `release`, `forget` and `tick`. This test pins
/// the claim that nothing else about the member moves detection: the
/// oracle models S1 by the `release` alone, and it replays one
/// member's exact trace schedule — start, receptions, tick timers,
/// suspicions, exclusions — through a bare [`HeartbeatDetector`] oracle
/// and demands the oracle produce the identical observation-sourced
/// suspicions at the identical instants.
#[test]
fn handle_addressed_leases_equal_the_id_addressed_detector() {
    // Gossip off: every survivor must *observe* each crash via its own
    // lease timeout, so the comparison below is never vacuous.
    let cfg = Config::builder().gossip(false).build();
    let n = 6;
    let observer = ProcessId(0);
    let mut sim = cluster_with(n, 97, cfg.clone());
    sim.crash_at(ProcessId(5), 400);
    sim.crash_at(ProcessId(3), 1_600);
    sim.run_until(12_000);

    // The bare oracle, driven by the observer's schedule. The member's own
    // detector runs the same algorithm; `heard_from`'s enrolment guard
    // subsumes the member-side isolation check (a suspect's slot is
    // freed), so a raw replay of every `Recv` is faithful.
    const TICK: u64 = 1; // Member's heartbeat timer tag.
    let mut oracle = HeartbeatDetector::new(cfg.suspect_after);
    let mut oracle_suspicions: Vec<(u64, ProcessId)> = Vec::new();
    for e in sim.trace().events.iter().filter(|e| e.pid == observer) {
        match &e.kind {
            TraceKind::Start => {
                for q in (0..n as u32).map(ProcessId).filter(|&q| q != observer) {
                    oracle.track(q, e.time);
                }
            }
            TraceKind::Recv { from, .. } => oracle.heard_from(*from, e.time),
            TraceKind::Timer { tag: TICK } => {
                let expired = oracle.tick(e.time);
                oracle_suspicions.extend(expired.into_iter().map(|q| (e.time, q)));
            }
            TraceKind::Note(note) => match **note {
                Note::Faulty { suspect, .. } => {
                    // A no-op for observation-sourced suspicions (tick
                    // already freed the slot); required for any other source.
                    oracle.release(suspect);
                }
                Note::OpApplied { op, .. } => match op.kind {
                    OpKind::Remove => oracle.forget(op.target),
                    OpKind::Add => oracle.track(op.target, e.time),
                },
                _ => {}
            },
            _ => {}
        }
    }

    let member_suspicions: Vec<(u64, ProcessId)> = sim
        .trace()
        .notes()
        .filter(|(e, n)| {
            e.pid == observer
                && matches!(
                    n,
                    Note::Faulty {
                        source: FaultySource::Observation,
                        ..
                    }
                )
        })
        .map(|(e, n)| match n {
            Note::Faulty { suspect, .. } => (e.time, *suspect),
            _ => unreachable!(),
        })
        .collect();

    assert_eq!(
        member_suspicions.len(),
        2,
        "the observer must detect both crashes by its own timeout"
    );
    assert_eq!(
        oracle_suspicions, member_suspicions,
        "the member's detector diverged from the bare oracle"
    );
    // And both exclusions committed, so the replay covered `forget` too.
    assert_eq!(sim.node(observer).ver(), 2, "both exclusions commit");
}

/// Every beat carries the sender's faulty set, so a carrying beat lost on
/// a `Drop` link is repaired by the next one. In a group of four, the
/// carrier p1 suspects p3 at its tick at 240; its links to the `Mgr` are
/// held, so no exclusion can tell anyone, and its beats to p2 are dropped
/// from 200 to 300, so the first carrying beats never arrive. p2 must
/// still learn of p3 by gossip within two beats after the link comes
/// back. (While the faulty set was delta-encoded, the carrier marked the
/// set delivered when it sent the lost beat, and p2 never learned.) The
/// run stops before anyone's lease for p1 can run out.
#[test]
fn a_gossip_beat_lost_on_a_drop_link_is_repaired_by_the_next_beat() {
    let (mgr, carrier, p, victim) = (ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3));
    let cfg = Config::default();
    let (lost_from, lost_until) = (200, 300);
    for seed in 0..20u64 {
        let mut sim = cluster(4, seed);
        sim.block_link_at(carrier, mgr, BlockMode::Hold, lost_from);
        sim.block_link_at(carrier, p, BlockMode::Drop, lost_from);
        sim.unblock_link_at(carrier, p, lost_until);
        sim.run_until(lost_from + 5);
        sim.node_mut(carrier).inject_suspicion(victim);
        sim.run_until(lost_until + 2 * cfg.heartbeat_every + 10);

        let faulty_at = |who: ProcessId, source: FaultySource| {
            sim.trace().notes().find_map(|(e, n)| match n {
                Note::Faulty { suspect, source: s }
                    if e.pid == who && *suspect == victim && *s == source =>
                {
                    Some(e.time)
                }
                _ => None,
            })
        };
        let injected = faulty_at(carrier, FaultySource::Injected);
        assert!(
            injected.is_some_and(|t| t < lost_until - cfg.heartbeat_every),
            "seed {seed}: the carrier must suspect p3 while its beats are dropped"
        );
        let learned = faulty_at(p, FaultySource::Gossip)
            .unwrap_or_else(|| panic!("seed {seed}: the lost gossip beat was never repaired"));
        assert!(
            learned > lost_until,
            "seed {seed}: p2 learned at {learned}, through the dropped link"
        );
        let first_elsewhere = sim.trace().notes().find_map(|(e, n)| match n {
            Note::Faulty { .. } if e.pid != carrier => Some((e.pid, e.time)),
            _ => None,
        });
        assert_eq!(
            first_elsewhere,
            Some((p, learned)),
            "seed {seed}: only the carrier's digest may spread the suspicion"
        );
    }
}
