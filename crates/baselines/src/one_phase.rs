//! The one-phase update protocol of Claim 7.1: the coordinator broadcasts a
//! removal commit directly, with no invitation round.
//!
//! The claim: *"A one-phase update algorithm cannot solve GMP when the
//! coordinator can fail."* Succession here is immediate — whoever believes
//! itself the most senior non-faulty member acts as coordinator — so two
//! sides of a partition can commit *different* removals for the same
//! version, violating GMP-2/GMP-3. The [`scenarios`](crate::scenarios)
//! module builds exactly the proof's run.

use gmp_detect::{HeartbeatDetector, Isolation};
use gmp_sim::{Ctx, Message, Node};
use gmp_types::note::FaultySource;
use gmp_types::{Note, Op, ProcessId, Ver, View};

const TICK: u64 = 1;

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
pub struct OnePhaseMember {
    me: ProcessId,
    view: View,
    ver: Ver,
    fd: HeartbeatDetector,
    iso: Isolation,
    faulty: std::collections::BTreeSet<ProcessId>,
    heartbeat_every: u64,
}

impl OnePhaseMember {
    /// An initial member with the given view and failure-detection timing.
    pub fn new(initial_view: View, heartbeat_every: u64, suspect_after: u64) -> Self {
        OnePhaseMember {
            me: ProcessId(u32::MAX),
            view: initial_view,
            ver: 0,
            fd: HeartbeatDetector::new(suspect_after),
            iso: Isolation::new(),
            faulty: Default::default(),
            heartbeat_every,
        }
    }

    /// Current local view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Current local version.
    pub fn ver(&self) -> Ver {
        self.ver
    }

    /// True when this process currently considers itself coordinator: the
    /// most senior member it does not believe faulty.
    pub fn is_coordinator(&self) -> bool {
        self.view
            .iter()
            .find(|p| !self.faulty.contains(p))
            .map(|p| p == self.me)
            .unwrap_or(false)
    }

    fn apply_remove(&mut self, ctx: &mut Ctx<'_, OneMsg>, target: ProcessId) {
        if !self.view.contains(target) {
            return;
        }
        self.view.remove(target);
        self.ver += 1;
        ctx.note(Note::OpApplied {
            op: Op::remove(target),
            ver: self.ver,
        });
        let mgr = self
            .view
            .iter()
            .find(|p| !self.faulty.contains(p))
            .unwrap_or(self.me);
        ctx.note(Note::ViewInstalled {
            ver: self.ver,
            members: self.view.shared(),
            mgr,
        });
    }

    fn handle_faulty(&mut self, ctx: &mut Ctx<'_, OneMsg>, q: ProcessId) {
        if q == self.me || !self.iso.isolate(q) {
            return;
        }
        self.fd.release(q);
        ctx.note(Note::Faulty {
            suspect: q,
            source: FaultySource::Observation,
        });
        if !self.view.contains(q) {
            return;
        }
        self.faulty.insert(q);
        if self.is_coordinator() {
            // One phase: no invitation, no acknowledgement — just commit.
            let ver = self.ver + 1;
            ctx.broadcast(
                self.view.iter().filter(|&p| p != self.me),
                OneMsg::Commit { target: q, ver },
            );
            self.apply_remove(ctx, q);
        }
    }
}

impl Node<OneMsg> for OnePhaseMember {
    fn on_start(&mut self, ctx: &mut Ctx<'_, OneMsg>) {
        self.me = ctx.id();
        let now = ctx.now();
        for p in self.view.to_vec() {
            if p != self.me {
                self.fd.track(p, now);
            }
        }
        ctx.note(Note::ViewInstalled {
            ver: 0,
            members: self.view.shared(),
            mgr: self.view.most_senior().expect("non-empty view"),
        });
        ctx.set_timer(self.heartbeat_every, TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, OneMsg>, from: ProcessId, msg: OneMsg) {
        if self.iso.is_isolated(from) {
            ctx.note(Note::Isolated { from });
            return;
        }
        self.fd.heard_from(from, ctx.now());
        match msg {
            OneMsg::Heartbeat => {}
            OneMsg::Commit { target, ver } => {
                if target == self.me {
                    ctx.note(Note::Quit {
                        reason: gmp_types::note::QuitReason::Excluded,
                    });
                    ctx.quit();
                    return;
                }
                if ver == self.ver + 1 {
                    self.handle_faulty_belief_only(ctx, target);
                    self.apply_remove(ctx, target);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, OneMsg>, tag: u64) {
        if tag != TICK {
            return;
        }
        let targets: Vec<ProcessId> = self
            .view
            .iter()
            .filter(|&p| p != self.me && !self.faulty.contains(&p))
            .collect();
        ctx.broadcast(targets, OneMsg::Heartbeat);
        for q in self.fd.tick(ctx.now()) {
            self.handle_faulty(ctx, q);
        }
        ctx.set_timer(self.heartbeat_every, TICK);
    }
}

impl OnePhaseMember {
    /// Records the faulty belief that justifies an incoming commit (GMP-1
    /// is the one clause this protocol *does* satisfy).
    fn handle_faulty_belief_only(&mut self, ctx: &mut Ctx<'_, OneMsg>, q: ProcessId) {
        if q != self.me && self.iso.isolate(q) {
            self.fd.release(q);
            ctx.note(Note::Faulty {
                suspect: q,
                source: FaultySource::Gossip,
            });
            self.faulty.insert(q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_sim::Builder;

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

    #[test]
    fn coordinator_is_most_senior_unsuspected() {
        let mut sim = cluster(3, 6);
        sim.run_until(100);
        assert!(sim.node(ProcessId(0)).is_coordinator());
        assert!(!sim.node(ProcessId(1)).is_coordinator());
    }
}
