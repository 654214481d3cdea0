//! No-panic fuzz of one `Member`, stepped by hand through a `Vec` sink
//! with no simulator: started as an initial member, a joiner or an
//! observer, it is fed arbitrary well-typed messages and timer tags. Ids
//! come mostly from a small range, so messages name the member itself,
//! its peers and strangers alike; one in four comes from the whole `u32`
//! range, so no id a message names may size the member's state. Every
//! version a message states sits near
//! both 0 and `u64::MAX`; a `Welcome` or `InterrogateOk` states none,
//! since the version it hands over is the length of its `seq`.
//!
//! Per case, three things must hold:
//! - no input panics, which in a debug build includes the member's own
//!   invariant check at the end of every entry point (a round awaits only
//!   other members and none it has isolated, and the report throttle and
//!   monitoring set stay in the view);
//! - nothing follows `Effect::Quit` in the sink;
//! - the one `Note::Quit` is the effect just before it, so no note that
//!   `MemberEvent::of` maps follows the quit event.

use gmp::protocol::{
    CommitBody, Config, HeartbeatDigest, InterrogateOkBody, JoinConfig, Lifecycle, Member, Msg,
    ObserveConfig, ReconfBody, Sparse, ViewUpdateBody, WelcomeBody,
};
use gmp::sim::Effect;
use gmp::types::{NextEntry, Note, Op, OpKind, ProcessId, Ver};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// The fuzzed member's id.
const ME: ProcessId = ProcessId(2);

/// Ids `p0..p5` (the member, up to four peers and a stranger) three times
/// in four, otherwise any id: 0, `u32::MAX - 1` and `u32::MAX` are drawn
/// explicitly, since uniform draws never hit them.
fn id() -> impl Strategy<Value = ProcessId> {
    (0u8..16, 0u32..6, 0u32..=u32::MAX).prop_map(|(pick, small, wide)| {
        ProcessId(match pick {
            0..=11 => small,
            12 => 0,
            13 => u32::MAX - 1,
            14 => u32::MAX,
            _ => wide,
        })
    })
}

/// A version near 0 or near `u64::MAX`.
fn ver() -> impl Strategy<Value = Ver> {
    (proptest::bool::ANY, 0u64..4).prop_map(|(high, d)| if high { Ver::MAX - d } else { d })
}

fn op() -> impl Strategy<Value = Op> {
    (proptest::bool::ANY, id()).prop_map(|(add, p)| if add { Op::add(p) } else { Op::remove(p) })
}

/// What reaches the member next, and how many ticks after the last input.
#[derive(Debug)]
enum Input {
    Msg(ProcessId, Msg),
    Timer(u64),
}

fn input() -> impl Strategy<Value = (u64, Input)> {
    let lists = (vec(op(), 0..4), vec(op(), 0..4), vec(id(), 0..5));
    (0u8..16, id(), id(), ver(), lists, 0u64..120).prop_map(
        |(kind, from, a, v, (rl, invis, ids), dt)| {
            let reconf = || {
                Arc::from(ReconfBody {
                    rl: rl.clone(),
                    ver: v,
                    invis: invis.clone(),
                    faulty: ids.clone(),
                })
            };
            let msg = match kind {
                0 if ids.is_empty() => Msg::Heartbeat {
                    digest: HeartbeatDigest::empty(),
                },
                0 => Msg::Heartbeat {
                    digest: HeartbeatDigest::snapshot(ids.clone().into()),
                },
                1 => Msg::FaultyReport { suspect: a },
                2 => Msg::JoinRequest { joiner: a },
                3 => Msg::Invite {
                    op: rl.first().copied().unwrap_or(Op::remove(a)),
                    ver: v,
                },
                4 => Msg::UpdateOk { ver: v },
                5 => Msg::Commit(Arc::from(CommitBody {
                    op: rl.first().copied().unwrap_or(Op::add(a)),
                    ver: v,
                    next: invis.first().copied(),
                    faulty: ids,
                    recovered: vec![a],
                })),
                6 => Msg::Interrogate,
                7 => Msg::InterrogateOk(Arc::from(InterrogateOkBody {
                    next: invis
                        .iter()
                        .map(|&op| match op.kind {
                            OpKind::Add => NextEntry::concrete(vec![op], a, v),
                            OpKind::Remove => NextEntry::placeholder(op.target),
                        })
                        .collect(),
                    seq: rl,
                })),
                8 => Msg::Propose(reconf()),
                9 => Msg::ProposeOk { ver: v },
                10 => Msg::ReconfCommit(reconf()),
                11 => {
                    let mut members = ids;
                    if a.0 % 2 == 0 {
                        members.push(ME);
                    }
                    Msg::Welcome(Arc::from(WelcomeBody {
                        members,
                        seq: rl,
                        mgr: a,
                    }))
                }
                12 => Msg::Subscribe,
                13 => Msg::ViewUpdate(Arc::from(ViewUpdateBody {
                    members: ids,
                    ver: v,
                    mgr: a,
                })),
                // The member's three timer tags and two it never arms.
                _ => return (dt, Input::Timer(u64::from(a.0) % 5)),
            };
            (dt, Input::Msg(from, msg))
        },
    )
}

/// A member started as `ME` in one of the three lifecycles: an initial
/// member of `p0..p{n-1}` in a rotated seniority order, a joiner, or an
/// observer, under one of the protocol's knob settings.
fn started(lifecycle: u8, n: u32, shift: u32, knobs: (bool, bool, bool, bool)) -> Member {
    let (compression, mgr_majority, three_phase, sparse) = knobs;
    let mut cfg = Config::builder()
        .compression(compression)
        .mgr_majority(mgr_majority)
        .three_phase_reconfig(three_phase);
    if sparse {
        cfg = cfg.topology(Sparse::new(2));
    }
    let mut m = match lifecycle {
        0 => Member::new(
            cfg.build(),
            (0..n).map(|i| ProcessId((i + shift) % n)).collect(),
        ),
        1 => Member::joiner(cfg.joining(JoinConfig::new(1, vec![ProcessId(0)])).build()),
        _ => Member::observer(
            cfg.observing(ObserveConfig::new(1, vec![ProcessId(0)]))
                .build(),
        ),
    };
    m.start(&mut Vec::new(), ME, 0);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_member_survives_arbitrary_inputs_and_stays_quiet_after_quitting(
        lifecycle in 0u8..3,
        n in 3u32..6,
        shift in 0u32..5,
        knobs in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
        inputs in vec(input(), 1..200),
    ) {
        let mut m = started(lifecycle, n, shift % n, knobs);
        let mut out: Vec<Effect<Msg>> = Vec::new();
        let mut now = 0;
        for (dt, input) in inputs {
            now += dt;
            match input {
                Input::Msg(from, msg) => m.receive(&mut out, from, msg, now),
                Input::Timer(tag) => m.fire(&mut out, tag, now),
            }
        }
        let quits: Vec<usize> = (0..out.len()).filter(|&i| matches!(out[i], Effect::Quit)).collect();
        let noted: Vec<usize> = (0..out.len())
            .filter(|&i| matches!(out[i], Effect::Note(Note::Quit { .. })))
            .collect();
        match quits[..] {
            [] => prop_assert!(noted.is_empty() && m.lifecycle() != Lifecycle::Stopped),
            [q] => {
                prop_assert_eq!(q + 1, out.len(), "effects after Quit: {:?}", &out[q..]);
                prop_assert!(q >= 1 && noted == [q - 1], "quit notes at {:?}", noted);
                prop_assert!(m.lifecycle() == Lifecycle::Stopped);
            }
            _ => prop_assert!(false, "{} quits", quits.len()),
        }
    }
}
