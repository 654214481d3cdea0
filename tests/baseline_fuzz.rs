//! No-panic fuzz of the two baselines, `OnePhaseMember` and
//! `SymmetricMember`, each stepped by hand through a `Vec` sink with no
//! simulator: started as an initial member, it is fed arbitrary messages
//! from arbitrary senders and arbitrary timer tags. Senders and targets
//! are mostly in `0..n + 2` (the members and two strangers), and one in
//! four comes from the whole `u32` range.
//!
//! Per case, after every input:
//! - no input panics;
//! - the view is a subset of the initial view (no baseline admits anyone);
//! - the version counts the members removed, one per installed view.
//!
//! And at the end of the case, nothing follows `Effect::Quit` in the sink,
//! whose one `Note::Quit` is the effect just before it. A quit member
//! keeps being stepped: it is its own stopped state, not a driver dropping
//! its input, that keeps it silent.

use gmp::baselines::{OneMsg, OnePhaseMember, SymMsg, SymmetricMember};
use gmp::sim::Effect;
use gmp::types::{Note, ProcessId, Ver, View};
use proptest::collection::vec;
use proptest::prelude::*;

/// The fuzzed member's id.
const ME: ProcessId = ProcessId(1);

/// What reaches the member next, and how many ticks after the last input:
/// a message kind with raw sender and target ids (see [`pid`]) and a
/// version, or a timer tag.
#[derive(Debug)]
enum Input {
    Msg {
        kind: u8,
        from: u32,
        target: u32,
        ver: Ver,
    },
    Timer(u64),
}

/// A raw id: three times in four in `0..7`, otherwise any id; 0,
/// `u32::MAX - 1` and `u32::MAX` are drawn explicitly, since uniform draws
/// never hit them.
fn raw_id() -> impl Strategy<Value = u32> {
    (0u8..16, 0u32..7, 0u32..=u32::MAX).prop_map(|(pick, small, wide)| match pick {
        0..=11 => small,
        12 => 0,
        13 => u32::MAX - 1,
        14 => u32::MAX,
        _ => wide,
    })
}

/// The id a raw one names once `n` is drawn: a small one reduced to
/// `0..n + 2`, any other as it is.
fn pid(raw: u32, n: u32) -> ProcessId {
    ProcessId(if raw < 7 { raw % (n + 2) } else { raw })
}

/// A version is small or `Ver::MAX`.
fn input() -> impl Strategy<Value = (u64, Input)> {
    (0u8..5, raw_id(), raw_id(), 0u64..6, 0u64..120).prop_map(|(kind, from, target, v, dt)| {
        let input = match kind {
            // The tick and two tags no baseline arms.
            4 => Input::Timer(v % 3),
            _ => Input::Msg {
                kind,
                from,
                target,
                ver: if v == 5 { Ver::MAX } else { v },
            },
        };
        (dt, input)
    })
}

/// `p0..p{n-1}` in a rotated seniority order.
fn initial(n: u32, shift: u32) -> View {
    (0..n).map(|i| ProcessId((i + shift) % n)).collect()
}

/// The view stayed inside the initial one, and `ver` counts its removals.
fn check(initial: &View, view: &View, ver: Ver) {
    assert!(
        view.iter().all(|p| initial.contains(p)),
        "view {:?} left the initial {:?}",
        view.to_vec(),
        initial.to_vec()
    );
    assert_eq!(ver, (initial.len() - view.len()) as Ver, "ver");
}

/// At most one `Effect::Quit`, last in the sink, right after its note.
fn check_quit<M: std::fmt::Debug>(out: &[Effect<M>]) {
    let quits: Vec<usize> = (0..out.len())
        .filter(|&i| matches!(out[i], Effect::Quit))
        .collect();
    let noted: Vec<usize> = (0..out.len())
        .filter(|&i| matches!(out[i], Effect::Note(Note::Quit { .. })))
        .collect();
    match quits[..] {
        [] => assert!(noted.is_empty(), "quit notes at {noted:?} without a quit"),
        [q] => {
            assert_eq!(q + 1, out.len(), "effects after Quit: {:?}", &out[q..]);
            assert!(q >= 1 && noted == [q - 1], "quit notes at {noted:?}");
        }
        _ => panic!("{} quits", quits.len()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_one_phase_baseline_survives_arbitrary_inputs(
        n in 2u32..6,
        shift in 0u32..5,
        timing in (1u64..60, 1u64..300),
        inputs in vec(input(), 1..200),
    ) {
        let view = initial(n, shift % n);
        let mut m = OnePhaseMember::new(view.clone(), timing.0, timing.1);
        let mut out: Vec<Effect<OneMsg>> = Vec::new();
        m.start(&mut out, ME, 0);
        let mut now = 0;
        for (dt, input) in inputs {
            now += dt;
            match input {
                Input::Msg { kind, from, target, ver } => {
                    let msg = match kind {
                        0 | 1 => OneMsg::Heartbeat,
                        _ => OneMsg::Commit { target: pid(target, n), ver },
                    };
                    m.receive(&mut out, pid(from, n), msg, now);
                }
                Input::Timer(tag) => m.fire(&mut out, tag, now),
            }
            check(&view, m.view(), m.ver());
        }
        check_quit(&out);
    }

    #[test]
    fn the_symmetric_baseline_survives_arbitrary_inputs(
        n in 2u32..6,
        shift in 0u32..5,
        timing in (1u64..60, 1u64..300),
        inputs in vec(input(), 1..200),
    ) {
        let view = initial(n, shift % n);
        let mut m = SymmetricMember::new(view.clone(), timing.0, timing.1);
        let mut out: Vec<Effect<SymMsg>> = Vec::new();
        m.start(&mut out, ME, 0);
        let mut now = 0;
        for (dt, input) in inputs {
            now += dt;
            match input {
                Input::Msg { kind, from, target, .. } => {
                    let target = pid(target, n);
                    let msg = match kind {
                        0 => SymMsg::Heartbeat,
                        1 | 2 => SymMsg::Suspect { target },
                        _ => SymMsg::Ready { target },
                    };
                    m.receive(&mut out, pid(from, n), msg, now);
                }
                Input::Timer(tag) => m.fire(&mut out, tag, now),
            }
            check(&view, m.view(), m.ver());
        }
        check_quit(&out);
    }
}
