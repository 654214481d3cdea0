//! The vector stamps `Trace::to_event_log` rebuilds from a recorded run,
//! checked against what the engine records independently: the `msg_id`
//! edges and the Lamport stamps.

use gmp::causality::EventLog;
use gmp::protocol::cluster;
use gmp::sim::{BlockMode, Trace, TraceKind};
use gmp::types::ProcessId;
use proptest::prelude::*;
use std::collections::HashMap;

/// Index of the `Send` and, if delivered, the `Recv` of every message.
fn message_edges(trace: &Trace) -> HashMap<u64, (usize, Option<usize>)> {
    let mut edges = HashMap::new();
    for (i, e) in trace.events.iter().enumerate() {
        match e.kind {
            TraceKind::Send { msg_id, .. } => {
                edges.insert(msg_id, (i, None));
            }
            TraceKind::Recv { msg_id, .. } => {
                edges.get_mut(&msg_id).expect("recv has a send").1 = Some(i);
            }
            _ => {}
        }
    }
    edges
}

/// Every delivered message orders its send before its receive, and the
/// rebuilt order embeds in the engine's Lamport order (the clock
/// condition: `a → b ⇒ lamport(a) < lamport(b)`).
fn assert_consistent_with_the_engine(trace: &Trace, log: &EventLog) {
    for (msg_id, (send, recv)) in message_edges(trace) {
        if let Some(recv) = recv {
            assert!(
                log.happens_before(send, recv) && !log.happens_before(recv, send),
                "msg {msg_id}: send {send} must happen before recv {recv}"
            );
        }
    }
    let events = &trace.events;
    for b in 0..events.len() {
        for a in 0..b {
            if log.happens_before(a, b) {
                assert!(
                    events[a].lamport < events[b].lamport,
                    "{a} → {b} but lamport {} >= {}",
                    events[a].lamport,
                    events[b].lamport
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
    let event = |i: usize| &trace.events[i];
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
    /// rebuilt stamps agree with the engine's message edges and Lamport
    /// stamps.
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
