//! The causal stamps rebuilt from a recorded run — vector stamps by
//! `Trace::to_event_log`, Lamport stamps by `Trace::lamports` — checked
//! against the `msg_id` edges the engine records and against an
//! independent scalar rebuild from those edges.

use gmp::causality::EventLog;
use gmp::protocol::cluster;
use gmp::sim::{BlockMode, Trace, TraceKind};
use gmp::types::ProcessId;
use proptest::prelude::*;
use std::collections::HashMap;

/// Index of the `Send` and, if delivered, the `Recv` of every message.
/// The k-th `Send` of a trace is message k.
fn message_edges(trace: &Trace) -> HashMap<u64, (usize, Option<usize>)> {
    let mut edges = HashMap::new();
    for (i, e) in trace.events.iter().enumerate() {
        match e.kind {
            TraceKind::Send { .. } => {
                edges.insert(edges.len() as u64 + 1, (i, None));
            }
            TraceKind::Recv { msg_id, .. } => {
                edges.get_mut(&msg_id).expect("recv has a send").1 = Some(i);
            }
            _ => {}
        }
    }
    edges
}

/// Lamport's rules applied event by event, written apart from
/// `Trace::lamports`: a receive reads its send's stamp through the edge
/// table instead of a per-send list, so the two rebuilds share no code.
fn oracle_lamports(trace: &Trace) -> Vec<u64> {
    let send_of: HashMap<usize, usize> = message_edges(trace)
        .into_values()
        .filter_map(|(send, recv)| Some((recv?, send)))
        .collect();
    let mut own: HashMap<ProcessId, u64> = HashMap::new();
    let mut stamps: Vec<u64> = Vec::with_capacity(trace.events.len());
    for (i, e) in trace.events.iter().enumerate() {
        let clock = own.entry(e.pid).or_insert(0);
        *clock = match e.kind {
            TraceKind::Note(_) => *clock,
            TraceKind::Recv { .. } => (*clock).max(stamps[send_of[&i]]) + 1,
            _ => *clock + 1,
        };
        stamps.push(*clock);
    }
    stamps
}

/// Every delivered message orders its send before its receive, the
/// Lamport rebuild agrees with the oracle, and the rebuilt vector order
/// embeds in the Lamport order (the clock condition:
/// `a → b ⇒ lamport(a) < lamport(b)`).
fn assert_consistent_with_the_engine(trace: &Trace, log: &EventLog) {
    for (msg_id, (send, recv)) in message_edges(trace) {
        if let Some(recv) = recv {
            assert!(
                log.happens_before(send, recv) && !log.happens_before(recv, send),
                "msg {msg_id}: send {send} must happen before recv {recv}"
            );
        }
    }
    let lamport = trace.lamports();
    assert_eq!(lamport, oracle_lamports(trace), "Lamport rebuilds disagree");
    let events = &trace.events;
    for b in 0..events.len() {
        for a in 0..b {
            if log.happens_before(a, b) {
                assert!(
                    lamport[a] < lamport[b],
                    "{a} → {b} but lamport {} >= {}",
                    lamport[a],
                    lamport[b]
                );
            }
            // Simulation order linearizes happens-before.
            assert!(!log.happens_before(b, a), "{b} → {a} against trace order");
        }
    }
}

/// A partition holds cross traffic and releases it at the heal; a dropping
/// link loses messages for good. The rebuild must cope with a `Recv` long
/// after its `Send` and with a `Send` that never gets one.
#[test]
fn held_then_released_and_dropped_messages_rebuild() {
    let mut sim = cluster(5, 11);
    let a = [ProcessId(0), ProcessId(1), ProcessId(2)];
    let b = [ProcessId(3), ProcessId(4)];
    sim.partition_at(&[&a, &b], 300);
    sim.block_link_at(ProcessId(1), ProcessId(2), BlockMode::Drop, 350);
    sim.heal_at(700);
    sim.run_until(1_500);
    assert!(sim.stats().dropped_link > 0, "the drop link saw no traffic");

    let trace = sim.trace();
    let log = trace.to_event_log();
    assert_eq!(log.len(), trace.events.len());
    let edges = message_edges(trace);
    let event = |i: usize| trace.events.get(i).expect("an edge indexes the trace");
    let released = edges.values().any(|&(send, recv)| {
        recv.is_some_and(|recv| {
            a.contains(&event(send).pid) != a.contains(&event(recv).pid)
                && event(send).time < 700
                && event(recv).time >= 700
        })
    });
    assert!(released, "no held message crossed the heal");
    assert!(
        edges.values().any(|&(_, recv)| recv.is_none()),
        "every send was received"
    );
    assert_consistent_with_the_engine(trace, &log);
}

proptest! {
    // Each case is a full simulation plus an all-pairs scan of its events.
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For arbitrary (seed, n ≤ 8, crash / partition / drop schedule) the
    /// rebuilt stamps agree with the message edges and with each other.
    #[test]
    fn rebuilt_stamps_agree_with_edges_and_lamport_stamps(
        seed in 0u64..1_000_000,
        n in 3usize..=8,
        crash_at in 50u64..900,
        split in 1usize..7,
        partition_at in 50u64..600,
        heal_after in 0u64..500,
        drop_at in 0u64..900,
    ) {
        let mut sim = cluster(n, seed);
        let pid = |i: u64| ProcessId((i % n as u64) as u32);
        sim.crash_at(pid(seed), crash_at);
        let (left, right): (Vec<ProcessId>, Vec<ProcessId>) =
            (0..n as u32).map(ProcessId).partition(|p| p.index() < split.min(n - 1));
        sim.partition_at(&[&left, &right], partition_at);
        if heal_after > 0 {
            sim.heal_at(partition_at + heal_after);
        }
        sim.block_link_at(pid(seed + 1), pid(seed + 2), BlockMode::Drop, drop_at);
        sim.run_until(1_000);
        let trace = sim.trace();
        assert_consistent_with_the_engine(trace, &trace.to_event_log());
    }
}
