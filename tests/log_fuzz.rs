//! No-panic fuzz of a `ReplicatedLog` and a `Client`, stepped by hand
//! through a `Vec` sink with no simulator. Each case feeds one sequence
//! of arbitrary well-typed log messages, membership events and
//! flush-timer firings to three logs: a follower, the leader and a
//! welcomed joiner. Ids come from a small range, so messages and views
//! name the log itself, its peers and strangers alike, and a view may
//! omit the receiver. Ballots, slots, sequence numbers and snapshot
//! floors sit near both 0 and `u64::MAX`, so range ends overflow and
//! reported entries land far off.
//!
//! Per case, for each log:
//! - no input panics, which in a debug build includes the log's own
//!   invariant check at the end of every entry point;
//! - every timer a call arms is `LOG_FLUSH`, and it is the call's last
//!   effect;
//! - at most one flush is armed between two `step_flush`es;
//! - no `AcceptOkRange` covers a slot whose applied or decided command
//!   differs from the proposal's: an ack never contradicts a decision.
//!
//! The client must not panic either, and it follows whoever answers it:
//! after a `Reply`, each request it sends goes to that reply's sender
//! alone or to every replica.

use gmp::log::{
    Client, LogCmd, LogMsg, RecoverOkBody, ReplicatedLog, Snapshot, SyncOkBody, LOG_FLUSH,
};
use gmp::protocol::MemberEvent;
use gmp::sim::Effect;
use gmp::types::{ProcessId, QuitReason};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The fuzzed log's id.
const ME: ProcessId = ProcessId(2);

/// Ids `p0..p5`: the log, up to four peers and a stranger.
fn id() -> impl Strategy<Value = ProcessId> {
    (0u32..6).prop_map(ProcessId)
}

/// A number near 0 or near `u64::MAX`: a ballot, a slot, a count, a
/// sequence number or a snapshot floor.
fn edge() -> impl Strategy<Value = u64> {
    (proptest::bool::ANY, 0u64..4).prop_map(|(high, d)| if high { u64::MAX - d } else { d })
}

/// A client command, or now and then the recovery filler.
fn cmd() -> impl Strategy<Value = LogCmd> {
    (0u8..8, id(), edge()).prop_map(|(k, client, seq)| match k {
        0 => LogCmd::NOOP,
        _ => LogCmd { client, seq },
    })
}

fn snapshot() -> impl Strategy<Value = Option<Snapshot>> {
    let clients = vec((id(), edge()), 0..3);
    (proptest::bool::ANY, edge(), clients)
        .prop_map(|(some, floor, clients)| some.then_some(Snapshot { floor, clients }))
}

/// What reaches the log next, and how many ticks after the last input.
#[derive(Clone, Debug)]
enum Input {
    Msg(ProcessId, LogMsg),
    Event(MemberEvent),
    Flush,
}

fn message() -> impl Strategy<Value = LogMsg> {
    let cmds = vec(cmd(), 0..4);
    let report = vec((edge(), edge(), cmd()), 0..3);
    (0u8..9, (edge(), edge(), edge()), cmds, snapshot(), report).prop_map(
        |(kind, (ballot, slot, n), cmds, snapshot, report)| match kind {
            0 => LogMsg::Request {
                cmd: cmds.first().copied().unwrap_or(LogCmd::NOOP),
            },
            1 => LogMsg::Reply { seq: n },
            2 => LogMsg::AcceptBatch {
                ballot,
                first_slot: slot,
                cmds: cmds.into(),
            },
            3 => LogMsg::AcceptOkRange {
                ballot,
                first_slot: slot,
                count: n,
            },
            4 => LogMsg::DecideBatch {
                ballot,
                first_slot: slot,
                cmds: cmds.into(),
            },
            5 => LogMsg::Recover { ballot, from: slot },
            6 => LogMsg::RecoverOk(Arc::from(RecoverOkBody {
                ballot,
                snapshot,
                entries: report,
            })),
            7 => LogMsg::Sync { from: slot },
            _ => LogMsg::SyncOk(Arc::from(SyncOkBody {
                from: slot,
                snapshot,
                entries: report.into_iter().map(|(_, b, c)| (b, c)).collect(),
            })),
        },
    )
}

fn event() -> impl Strategy<Value = MemberEvent> {
    (0u8..3, edge(), vec(id(), 0..5), id()).prop_map(|(kind, ver, mut members, peer)| {
        // Half the views are given the log's own id; the rest hold it
        // only if it was drawn.
        if peer.0 % 2 == 0 {
            members.push(ME);
        }
        match kind {
            0 => MemberEvent::ViewInstalled {
                ver,
                members,
                mgr: peer,
            },
            1 => MemberEvent::ViewInstalled {
                ver,
                members,
                mgr: ME,
            },
            _ => MemberEvent::Quit {
                reason: QuitReason::Excluded,
            },
        }
    })
}

fn input() -> impl Strategy<Value = (u64, Input)> {
    (0u8..8, id(), message(), event(), 0u64..3).prop_map(|(kind, from, msg, ev, dt)| {
        let input = match kind {
            0..=4 => Input::Msg(from, msg),
            5 | 6 => Input::Event(ev),
            _ => Input::Flush,
        };
        (dt, input)
    })
}

/// A log bound to `ME` in a view of `p0..p{n-1}`: a follower of p0, the
/// leader, or a joiner that p0 just welcomed (its first view is v1).
fn started(start: u8, n: u32, tuning: (usize, usize, usize)) -> ReplicatedLog {
    let (max_inflight, batch, keep) = tuning;
    let mut log = ReplicatedLog::with_tuning(max_inflight, batch, keep);
    log.bind(ME);
    let members: Vec<ProcessId> = (0..n).map(ProcessId).collect();
    let ev = match start {
        0 => MemberEvent::ViewInstalled {
            ver: 0,
            members,
            mgr: ProcessId(0),
        },
        1 => MemberEvent::ViewInstalled {
            ver: 0,
            members,
            mgr: ME,
        },
        _ => MemberEvent::ViewInstalled {
            ver: 1,
            members,
            mgr: ProcessId(0),
        },
    };
    log.step_event(&mut Vec::new(), ev, 0);
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each case feeds the same inputs to a log of each start, so every
    /// start runs all 256 cases.
    #[test]
    fn a_log_survives_arbitrary_inputs_and_arms_one_flush_at_a_time(
        n in 3u32..6,
        tuning in (1usize..4, 1usize..4, 0usize..3),
        inputs in vec(input(), 1..200),
    ) {
        let keep = [1, 2, usize::MAX][tuning.2];
        for start in 0..3 {
            let mut log = started(start, n, (tuning.0, tuning.1, keep));
            let (mut now, mut armed) = (0, 0);
            for (dt, input) in inputs.iter().cloned() {
                now += dt;
                let contradicts = match &input {
                    Input::Msg(_, LogMsg::AcceptBatch { first_slot, cmds, .. }) => {
                        cmds.iter().zip(0..).any(|(&cmd, i)| {
                            let decided = first_slot.checked_add(i).and_then(|s| log.decided(s));
                            decided.is_some_and(|d| d != cmd)
                        })
                    }
                    _ => false,
                };
                let mut out: Vec<Effect<LogMsg>> = Vec::new();
                match input {
                    Input::Msg(from, msg) => log.step_message(&mut out, from, msg, now),
                    Input::Event(ev) => log.step_event(&mut out, ev, now),
                    Input::Flush => {
                        armed = 0;
                        log.step_flush(&mut out, now);
                    }
                }
                let timers: Vec<usize> =
                    (0..out.len()).filter(|&i| matches!(out[i], Effect::Timer { .. })).collect();
                for &i in &timers {
                    let flush = matches!(out[i], Effect::Timer { delay: 1, tag: LOG_FLUSH });
                    let last = i + 1 == out.len();
                    prop_assert!(flush && last, "start {start}, not a last flush: {out:?}");
                }
                let acked = out.iter().any(|e| {
                    matches!(e, Effect::Send { msg: LogMsg::AcceptOkRange { .. }, .. })
                });
                prop_assert!(!(contradicts && acked), "start {start}, acked over a decision: {out:?}");
                armed += timers.len();
                prop_assert!(armed <= 1, "start {start}: {armed} flushes armed at once");
            }
        }
    }

    #[test]
    fn a_client_survives_arbitrary_inputs(
        n in 1u32..4,
        window in 1usize..4,
        inputs in vec((proptest::bool::ANY, id(), message(), 0u64..80), 1..200),
    ) {
        let replicas: BTreeSet<ProcessId> = (0..n).map(ProcessId).collect();
        let mut client = Client::new(replicas.iter().copied().collect(), 1, 10, 30, window);
        client.start(&mut Vec::new(), ME);
        let (mut now, mut answered) = (0, None);
        for (tick, from, msg, dt) in inputs {
            now += dt;
            let mut out: Vec<Effect<LogMsg>> = Vec::new();
            if tick {
                client.fire(&mut out, u64::from(from.0) + 62, now);
            } else {
                if matches!(msg, LogMsg::Reply { .. }) {
                    answered = Some(from);
                }
                client.receive(&mut out, from, msg, now);
            }
            let Some(leader) = answered else { continue };
            let mut sent: BTreeMap<u64, BTreeSet<ProcessId>> = BTreeMap::new();
            for e in &out {
                if let Effect::Send { to, msg: LogMsg::Request { cmd } } = e {
                    sent.entry(cmd.seq).or_default().insert(*to);
                }
            }
            for (seq, to) in sent {
                prop_assert!(
                    to == BTreeSet::from([leader]) || to == replicas,
                    "seq {seq} went to {to:?} after {leader}'s reply: {out:?}"
                );
            }
        }
    }
}
