//! Integration: the replicated log (`gmp-log`) riding on membership —
//! leader failover, joiner catch-up, exactly-once commits, and the
//! prefix-identity safety gate, across seeds.

use gmp::log::{AppMsg, LogProc};
use gmp::prelude::*;
use gmp::sim::Sim;
use std::collections::BTreeSet;

/// Committed logs of every living replica, in pid order.
fn survivor_logs(sim: &Sim<AppMsg, LogProc>) -> Vec<Vec<gmp::log::LogCmd>> {
    let mut replicas: Vec<ProcessId> = sim
        .living()
        .into_iter()
        .filter(|&p| sim.node(p).is_replica())
        .collect();
    replicas.sort();
    replicas
        .into_iter()
        .map(|p| sim.node(p).log().committed().to_vec())
        .collect()
}

#[test]
fn leader_crash_fails_over_and_preserves_the_log() {
    for seed in 0..8 {
        let mut sim = log_cluster(5, 3, seed);
        sim.crash_at(ProcessId(0), 2_000);
        sim.run_until(20_000);

        // Safety: survivors' logs never diverge.
        let logs = survivor_logs(&sim);
        assert_eq!(logs.len(), 4, "seed {seed}: a survivor went missing");
        assert!(
            logs_agree(logs.iter().map(|l| (0, l.as_slice()))),
            "seed {seed}: survivor logs diverged"
        );

        // Liveness: the successor took over and kept committing — some
        // command carries the post-exclusion ballot.
        let s = sim.node(ProcessId(1));
        assert!(
            !s.member().view().contains(ProcessId(0)),
            "seed {seed}: dead leader still in the view"
        );
        assert!(
            s.log().ballots().iter().any(|&b| b >= s.member().ver()),
            "seed {seed}: nothing committed under the new leader"
        );

        // Every client got unstuck: progress resumed after the failover.
        for k in 0..3u32 {
            let c = sim.node(ProcessId(5 + k)).client();
            assert!(c.acked() > 0, "seed {seed}: client {k} never acked");
        }
    }
}

/// The clients follow the new leader's post-recovery re-reply: none of
/// them waits for its retry timer, so no operation straddling the crash
/// takes as long as `retry_after`.
#[test]
fn clients_follow_the_new_leader_without_retrying() {
    let retry_after = LogConfig::default().retry_after;
    for seed in 0..4 {
        let mut sim = log_cluster(5, 3, seed);
        sim.crash_at(ProcessId(0), 2_000);
        sim.run_until(20_000);
        for c in [5, 6, 7].map(ProcessId) {
            let client = sim.node(c).client();
            let worst = client.latencies().iter().copied().max().unwrap_or(0);
            assert_eq!(client.retries(), 0, "seed {seed}: {c} retried");
            assert!(
                worst < retry_after,
                "seed {seed}: {c} waited {worst} ticks for a reply"
            );
            assert_eq!(client.redirects(), 1, "seed {seed}: {c} switched leaders");
        }
    }
}

#[test]
fn commits_are_exactly_once_under_retries() {
    // Retries and leader switches during failover re-send the same command many
    // times; the log must commit each client command at most once.
    let mut sim = log_cluster(5, 4, 11);
    sim.crash_at(ProcessId(0), 2_000);
    sim.run_until(20_000);

    let log = sim.node(ProcessId(1)).log();
    let client_cmds: Vec<_> = log.committed().iter().filter(|c| !c.is_noop()).collect();
    let unique: BTreeSet<_> = client_cmds.iter().collect();
    assert_eq!(
        client_cmds.len(),
        unique.len(),
        "a client command committed twice"
    );

    // And nothing a client saw acknowledged is missing from the log.
    let total_acked: u64 = (0..4u32)
        .map(|k| sim.node(ProcessId(5 + k)).client().acked())
        .sum();
    assert!(
        client_cmds.len() as u64 >= total_acked,
        "fewer committed commands than acknowledgements"
    );
}

#[test]
fn joiner_catches_up_through_state_transfer() {
    // A replica admitted mid-run (§7 join + log `Sync`) must end with a
    // log on the same prefix chain as the founders' — service stays
    // online through membership *and* log reconfiguration.
    let mut sim = LogClusterBuilder::new(4, 2)
        .seed(21)
        .joiner(JoinConfig::new(3_000, vec![ProcessId(1)]))
        .build();
    sim.run_until(20_000);

    let joiner = sim.node(ProcessId(4));
    assert!(
        joiner.member().view().contains(ProcessId(4)),
        "joiner was never admitted"
    );
    let logs = survivor_logs(&sim);
    assert_eq!(logs.len(), 5, "joiner's log not among the survivors'");
    assert!(
        logs_agree(logs.iter().map(|l| (0, l.as_slice()))),
        "joiner's log left the prefix chain"
    );
    assert!(
        joiner.log().committed_ops() > 0,
        "state transfer never reached the joiner"
    );
}

#[test]
fn churn_with_leader_crash_and_joiner_stays_safe() {
    // The hard schedule: the leader dies while a joiner is mid-admission;
    // exclusion, reconfiguration, log recovery and state transfer all
    // overlap. Safety must hold on every sampled seed.
    for seed in 0..6 {
        let mut sim = LogClusterBuilder::new(5, 3)
            .seed(seed)
            .joiner(JoinConfig::new(2_500, vec![ProcessId(1)]))
            .build();
        sim.crash_at(ProcessId(0), 3_000);
        sim.run_until(25_000);

        let logs = survivor_logs(&sim);
        assert!(
            logs_agree(logs.iter().map(|l| (0, l.as_slice()))),
            "seed {seed}: logs diverged under churn"
        );
        let s = sim.node(ProcessId(1));
        assert!(
            s.log().committed_ops() > 0,
            "seed {seed}: no progress under churn"
        );
        assert!(
            !s.member().view().contains(ProcessId(0)),
            "seed {seed}: dead leader never excluded"
        );
    }
}

#[test]
fn new_leader_re_replies_for_recovered_slots() {
    // The lost-reply window: the leader commits a command, broadcasts
    // `DecideBatch`, and dies before the client's `Reply` leaves — with the
    // client's retry timer effectively off, only the new leader's
    // re-reply at recovery completion can unstick it. Regression test:
    // the successor must re-acknowledge every recovered client mark it
    // holds, not just slots it re-proposes.
    let mut sim = LogClusterBuilder::new(5, 1)
        .seed(13)
        .log_config(LogConfig::default().unbatched().retry_after(1_000_000))
        .build();
    // Crash immediately after the first DecideBatch send: one follower
    // learns the commit, the client's Reply is never sent.
    sim.crash_after_sends_at(ProcessId(0), 0, Some("log-decide-batch"), 1);
    sim.run_until(25_000);

    let s = sim.node(ProcessId(1));
    assert!(
        !s.member().view().contains(ProcessId(0)),
        "dead leader never excluded"
    );
    assert!(s.log().committed_ops() >= 1, "the command never committed");
    let logs = survivor_logs(&sim);
    assert!(
        logs_agree(logs.iter().map(|l| (0, l.as_slice()))),
        "survivor logs diverged"
    );
    // The client cannot retry (huge retry_after); its ack must have come
    // from the successor's re-reply.
    let c = sim.node(ProcessId(5)).client();
    assert!(
        c.acked() >= 1,
        "the lost reply was never re-sent by the new leader"
    );
}

/// The leader cut off into a minority quits (§4.3), and its log hears of
/// the quit: it neither leads nor serves once the member is gone.
#[test]
fn a_leader_that_quits_stops_leading() {
    let mut sim = log_cluster(5, 2, 11);
    let minority = [ProcessId(0), ProcessId(1)];
    let majority = [2, 3, 4, 5, 6].map(ProcessId);
    sim.partition_at(&[&minority, &majority], 2_000);
    sim.run_until(12_000);
    let old = sim.node(ProcessId(0));
    assert_eq!(old.member().lifecycle(), Lifecycle::Stopped);
    assert!(!old.log().is_leader(), "the quit leader still leads");
    assert!(sim.node(ProcessId(2)).log().is_leader(), "p2 took over");
}

/// A second replica crashes during the new leader's recovery round: p0
/// (the leader) at 2 000, then p2 at 2 215, while p1's round at ballot 1
/// still awaits p2's report. The round waits for every member of the view
/// it leads, so it holds until the view that excludes p2 installs and p1
/// recovers again at that ballot. The survivors agree, commit at the
/// final ballot, and every client's acks keep growing past the failover.
#[test]
fn a_crash_during_recovery_holds_the_round_until_the_next_view() {
    for seed in 0..4 {
        let mut sim = log_cluster(5, 3, seed);
        sim.crash_at(ProcessId(0), 2_000);
        sim.crash_at(ProcessId(2), 2_215);
        sim.run_until(2_000);
        let clients = [5, 6, 7].map(ProcessId);
        let before = clients.map(|c| sim.node(c).client().acked());
        sim.run_until(20_000);

        let logs = survivor_logs(&sim);
        assert_eq!(logs.len(), 3, "seed {seed}: a survivor went missing");
        assert!(
            logs_agree(logs.iter().map(|l| (0, l.as_slice()))),
            "seed {seed}: survivor logs diverged"
        );
        let s = sim.node(ProcessId(1));
        let ballots = s.log().ballots();
        // Nothing commits at ballot 1: p1's round there never hears p2.
        assert!(
            !ballots.contains(&1),
            "seed {seed}: p1 recovered without p2"
        );
        assert!(
            ballots.contains(&s.member().ver()),
            "seed {seed}: nothing committed at the final ballot"
        );
        for (c, before) in clients.into_iter().zip(before) {
            let after = sim.node(c).client().acked();
            assert!(after > before, "seed {seed}: {c} stalled at {before} acks");
        }
    }
}
