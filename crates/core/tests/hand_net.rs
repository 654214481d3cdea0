//! `Member`s stepped by hand, with no simulator: every send is delivered
//! at once in send order, and timers fire from a list sorted by due time.
//! The member's entry points and a `Vec` sink are the whole interface.

use gmp_core::{Config, Lifecycle, Member, Msg};
use gmp_sim::Effect;
use gmp_types::{ProcessId, View};
use std::collections::VecDeque;

/// Members wired by hand: zero-delay FIFO delivery, timers in due order
/// (ties in arming order), silenced processes dropped.
struct HandNet {
    members: Vec<Member>,
    up: Vec<bool>,
    wire: VecDeque<(ProcessId, ProcessId, Msg)>,
    /// `(due, process, tag)`, sorted by `due`.
    timers: Vec<(u64, usize, u64)>,
    now: u64,
}

impl HandNet {
    fn start(members: Vec<Member>) -> Self {
        let n = members.len();
        let mut net = HandNet {
            members,
            up: vec![true; n],
            wire: VecDeque::new(),
            timers: Vec::new(),
            now: 0,
        };
        for i in 0..n {
            net.step(i, |m, out, now| m.start(out, ProcessId(i as u32), now));
        }
        net
    }

    /// Runs one entry point of member `i` into a `Vec` sink, then routes
    /// what it emitted.
    fn step(&mut self, i: usize, call: impl FnOnce(&mut Member, &mut Vec<Effect<Msg>>, u64)) {
        let mut out = Vec::new();
        call(&mut self.members[i], &mut out, self.now);
        let from = ProcessId(i as u32);
        for effect in out {
            match effect {
                Effect::Send { to, msg } => self.wire.push_back((from, to, msg)),
                Effect::Timer { delay, tag } => {
                    let due = self.now + delay;
                    let at = self.timers.partition_point(|t| t.0 <= due);
                    self.timers.insert(at, (due, i, tag));
                }
                Effect::Note(_) => {}
                Effect::Quit => {
                    self.up[i] = false;
                    break;
                }
            }
        }
    }

    /// Delivers everything in flight and fires every timer due by `until`.
    fn run_until(&mut self, until: u64) {
        loop {
            while let Some((from, to, msg)) = self.wire.pop_front() {
                if self.up[to.index()] {
                    self.step(to.index(), |m, out, now| m.receive(out, from, msg, now));
                }
            }
            if self.timers.first().is_none_or(|t| t.0 > until) {
                break;
            }
            let (due, i, tag) = self.timers.remove(0);
            self.now = due;
            if self.up[i] {
                self.step(i, |m, out, now| m.fire(out, tag, now));
            }
        }
        self.now = until;
    }
}

#[test]
fn survivors_agree_on_excluding_a_silent_mgr() {
    let view = View::new((0..4).map(ProcessId).collect());
    let members = (0..4)
        .map(|_| Member::new(Config::default(), view.clone()))
        .collect();
    let mut net = HandNet::start(members);
    net.run_until(500);
    assert!(net.members[0].is_mgr());
    assert!(net.members.iter().all(|m| m.ver() == 0));

    net.up[0] = false;
    net.run_until(3_000);
    let survivors = &net.members[1..];
    for m in survivors {
        assert_eq!(m.lifecycle(), Lifecycle::Active);
        assert_eq!(m.ver(), 1);
        assert_eq!(
            m.view().as_slice(),
            [ProcessId(1), ProcessId(2), ProcessId(3)]
        );
        assert_eq!(m.mgr(), ProcessId(1));
        assert_eq!(m.seq(), survivors[0].seq());
    }
}
