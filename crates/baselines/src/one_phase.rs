//! The one-phase update protocol of Claim 7.1: the coordinator broadcasts a
//! removal commit directly, with no invitation round.
//!
//! The claim: *"A one-phase update algorithm cannot solve GMP when the
//! coordinator can fail."* Succession here is immediate — whoever believes
//! itself the most senior non-faulty member acts as coordinator — so two
//! sides of a partition can commit *different* removals for the same
//! version, violating GMP-2/GMP-3. The [`scenarios`](crate::scenarios)
//! module builds exactly the proof's run.

use crate::shell::Shell;
use gmp_sim::{Ctx, Message, Node, Out};
use gmp_types::note::{FaultySource, QuitReason};
use gmp_types::{ProcessId, Ver, View};

/// Messages of the one-phase protocol.
#[derive(Clone, Debug)]
pub enum OneMsg {
    /// Periodic life sign.
    Heartbeat,
    /// Unilateral removal commit: apply immediately.
    Commit {
        /// The process being removed.
        target: ProcessId,
        /// The version this installs.
        ver: Ver,
    },
}

impl Message for OneMsg {
    fn tag(&self) -> &'static str {
        match self {
            OneMsg::Heartbeat => "heartbeat",
            OneMsg::Commit { .. } => "commit-1p",
        }
    }
}

/// A member running the (unsound) one-phase protocol.
///
/// Sans-IO like `gmp_core::Member`: every entry point emits through an
/// [`Out`] sink, so a `Vec<gmp_sim::Effect<OneMsg>>` drives it as well as
/// the simulator does.
pub struct OnePhaseMember {
    shell: Shell,
}

impl OnePhaseMember {
    /// An initial member with the given view and failure-detection timing.
    pub fn new(initial_view: View, heartbeat_every: u64, suspect_after: u64) -> Self {
        OnePhaseMember {
            shell: Shell::new(initial_view, heartbeat_every, suspect_after),
        }
    }

    /// Current local view.
    pub fn view(&self) -> &View {
        &self.shell.view
    }

    /// Current local version.
    pub fn ver(&self) -> Ver {
        self.shell.ver
    }

    /// True when this process currently considers itself coordinator: the
    /// most senior member it does not believe faulty.
    pub fn is_coordinator(&self) -> bool {
        self.shell.coordinator() == Some(self.shell.me)
    }

    /// Starts the member as process `me` at time `now` (once, first).
    pub fn start(&mut self, out: &mut impl Out<OneMsg>, me: ProcessId, now: u64) {
        self.shell.start(out, me, now);
    }

    /// Handles `msg` from `from`, delivered at time `now`.
    pub fn receive(&mut self, out: &mut impl Out<OneMsg>, from: ProcessId, msg: OneMsg, now: u64) {
        if !self.shell.admit(out, from, now) {
            return;
        }
        if let OneMsg::Commit { target, ver } = msg {
            if target == self.shell.me {
                self.shell.quit(out, QuitReason::Excluded);
            } else if ver == self.shell.ver + 1 {
                // The faulty belief that justifies the commit (GMP-1 is
                // the one clause this protocol *does* satisfy).
                self.shell.suspect(out, target, FaultySource::Gossip);
                self.shell.remove(out, target, Shell::coordinator);
            }
        }
    }

    /// Handles the timer `tag` this member armed, due at time `now`.
    pub fn fire(&mut self, out: &mut impl Out<OneMsg>, tag: u64, now: u64) {
        if !self.shell.ticks(tag) {
            return;
        }
        for q in self.shell.beat(out, OneMsg::Heartbeat, now) {
            self.suspect(out, q);
        }
        self.shell.rearm(out);
    }

    fn suspect(&mut self, out: &mut impl Out<OneMsg>, q: ProcessId) {
        if self.shell.suspect(out, q, FaultySource::Observation) && self.is_coordinator() {
            // One phase: no invitation, no acknowledgement — just commit.
            let ver = self.shell.ver + 1;
            for p in self.shell.view.iter() {
                if p != self.shell.me {
                    out.send(p, OneMsg::Commit { target: q, ver });
                }
            }
            self.shell.remove(out, q, Shell::coordinator);
        }
    }
}

impl Node<OneMsg> for OnePhaseMember {
    fn on_start(&mut self, ctx: &mut Ctx<'_, OneMsg>) {
        self.start(ctx, ctx.id(), ctx.now());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, OneMsg>, from: ProcessId, msg: OneMsg) {
        self.receive(ctx, from, msg, ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, OneMsg>, tag: u64) {
        self.fire(ctx, tag, ctx.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::TICK;
    use gmp_sim::{Builder, Effect};

    fn cluster(n: u32, seed: u64) -> gmp_sim::Sim<OneMsg, OnePhaseMember> {
        let view: View = (0..n).map(ProcessId).collect();
        let mut sim = Builder::new().seed(seed).build();
        for _ in 0..n {
            sim.add_node(OnePhaseMember::new(view.clone(), 40, 200));
        }
        sim
    }

    #[test]
    fn one_phase_handles_simple_failure() {
        // Without coordinator failures the one-phase protocol works.
        let mut sim = cluster(4, 5);
        sim.crash_at(ProcessId(2), 300);
        sim.run_until(5_000);
        for p in sim.living() {
            assert!(!sim.node(p).view().contains(ProcessId(2)));
            assert_eq!(sim.node(p).ver(), 1);
        }
    }

    /// Excluded by a commit, p1 of {p0, p1, p2} quits and stays stopped:
    /// a later tick sends no heartbeat and re-arms nothing, and a later
    /// message is not admitted.
    #[test]
    fn an_excluded_member_stays_stopped() {
        let view: View = (0..3).map(ProcessId).collect();
        let mut m = OnePhaseMember::new(view, 40, 200);
        let mut out: Vec<Effect<OneMsg>> = Vec::new();
        m.start(&mut out, ProcessId(1), 0);
        let commit = OneMsg::Commit {
            target: ProcessId(1),
            ver: 1,
        };
        m.receive(&mut out, ProcessId(0), commit, 10);
        assert!(matches!(out.last(), Some(Effect::Quit)), "{out:?}");
        out.clear();
        m.fire(&mut out, TICK, 40);
        m.receive(&mut out, ProcessId(2), OneMsg::Heartbeat, 50);
        assert!(out.is_empty(), "effects after quit: {out:?}");
    }

    #[test]
    fn coordinator_is_most_senior_unsuspected() {
        let mut sim = cluster(3, 6);
        sim.run_until(100);
        assert!(sim.node(ProcessId(0)).is_coordinator());
        assert!(!sim.node(ProcessId(1)).is_coordinator());
    }
}
