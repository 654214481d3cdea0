//! A fully *symmetric* membership protocol in the style of Bruso \[5\]: every
//! process behaves identically, agreeing on each exclusion by all-to-all
//! rounds.
//!
//! The paper's comparison (§1, §8): a symmetric solution "requires an order
//! of magnitude more messages in all situations". This stand-in reproduces
//! that cost shape — Θ(n²) messages per exclusion (a suspicion round plus a
//! ready round, each all-to-all) versus the asymmetric protocol's Θ(n) —
//! which is what experiment E5 measures. It is correct for crash failures
//! of non-coordinating members under the same FIFO/reliable network
//! assumptions, but makes no attempt at the paper's reconfiguration
//! subtleties (that is the point of the comparison).

use gmp_detect::{HeartbeatDetector, Isolation};
use gmp_sim::{Ctx, Message, Node};
use gmp_types::note::FaultySource;
use gmp_types::{Note, Op, ProcessId, Ver, View};
use std::collections::{BTreeMap, BTreeSet};

const TICK: u64 = 1;

/// Messages of the symmetric protocol.
#[derive(Clone, Debug)]
pub enum SymMsg {
    /// Periodic life sign.
    Heartbeat,
    /// "I believe `target` is faulty" — broadcast by every process that
    /// comes to believe it (directly or by receiving this message).
    Suspect {
        /// The accused process.
        target: ProcessId,
    },
    /// "I have seen `Suspect(target)` from every live member" — broadcast
    /// when the suspicion round completes locally.
    Ready {
        /// The accused process.
        target: ProcessId,
    },
}

impl Message for SymMsg {
    fn tag(&self) -> &'static str {
        match self {
            SymMsg::Heartbeat => "heartbeat",
            SymMsg::Suspect { .. } => "suspect",
            SymMsg::Ready { .. } => "ready",
        }
    }
}

/// A member of the symmetric protocol.
pub struct SymmetricMember {
    me: ProcessId,
    view: View,
    ver: Ver,
    fd: HeartbeatDetector,
    iso: Isolation,
    faulty: BTreeSet<ProcessId>,
    /// Who has voted `Suspect(target)`.
    votes: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
    /// Who has declared `Ready(target)`.
    ready: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
    sent_ready: BTreeSet<ProcessId>,
    heartbeat_every: u64,
}

impl SymmetricMember {
    /// An initial member with the given view and failure-detection timing.
    pub fn new(initial_view: View, heartbeat_every: u64, suspect_after: u64) -> Self {
        SymmetricMember {
            me: ProcessId(u32::MAX),
            view: initial_view,
            ver: 0,
            fd: HeartbeatDetector::new(suspect_after),
            iso: Isolation::new(),
            faulty: Default::default(),
            votes: Default::default(),
            ready: Default::default(),
            sent_ready: Default::default(),
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

    /// The members whose votes are required for `target`'s exclusion: every
    /// current member not itself under suspicion, plus this process.
    fn electorate(&self, target: ProcessId) -> BTreeSet<ProcessId> {
        self.view
            .iter()
            .filter(|&p| p == self.me || (!self.faulty.contains(&p) && p != target))
            .collect()
    }

    fn suspect(&mut self, ctx: &mut Ctx<'_, SymMsg>, q: ProcessId, source: FaultySource) {
        if q == self.me || !self.iso.isolate(q) {
            return;
        }
        self.fd.release(q);
        ctx.note(Note::Faulty { suspect: q, source });
        if !self.view.contains(q) {
            return;
        }
        self.faulty.insert(q);
        // Symmetric: every believer broadcasts its own suspicion round.
        let targets: Vec<ProcessId> = self
            .view
            .iter()
            .filter(|&p| p != self.me && p != q)
            .collect();
        ctx.broadcast(targets, SymMsg::Suspect { target: q });
        self.votes.entry(q).or_default().insert(self.me);
        self.advance(ctx, q);
    }

    /// Checks whether a round for `target` completed and moves it forward.
    fn advance(&mut self, ctx: &mut Ctx<'_, SymMsg>, target: ProcessId) {
        if !self.view.contains(target) {
            return;
        }
        let electorate = self.electorate(target);
        let votes = self.votes.entry(target).or_default();
        if !electorate.iter().all(|p| votes.contains(p)) {
            return;
        }
        if self.sent_ready.insert(target) {
            let targets: Vec<ProcessId> = self
                .view
                .iter()
                .filter(|&p| p != self.me && p != target)
                .collect();
            ctx.broadcast(targets, SymMsg::Ready { target });
            self.ready.entry(target).or_default().insert(self.me);
        }
        let ready = self.ready.entry(target).or_default();
        if electorate.iter().all(|p| ready.contains(p)) {
            // Everyone has seen everyone's vote: apply deterministically.
            self.view.remove(target);
            self.ver += 1;
            ctx.note(Note::OpApplied {
                op: Op::remove(target),
                ver: self.ver,
            });
            ctx.note(Note::ViewInstalled {
                ver: self.ver,
                members: self.view.shared(),
                mgr: self.view.most_senior().unwrap_or(self.me),
            });
            self.votes.remove(&target);
            self.ready.remove(&target);
            // A member's failure may complete other pending rounds.
            let pending: Vec<ProcessId> = self.votes.keys().copied().collect();
            for t in pending {
                self.advance(ctx, t);
            }
        }
    }
}

impl Node<SymMsg> for SymmetricMember {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SymMsg>) {
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

    fn on_message(&mut self, ctx: &mut Ctx<'_, SymMsg>, from: ProcessId, msg: SymMsg) {
        if self.iso.is_isolated(from) {
            ctx.note(Note::Isolated { from });
            return;
        }
        self.fd.heard_from(from, ctx.now());
        match msg {
            SymMsg::Heartbeat => {}
            SymMsg::Suspect { target } => {
                if target == self.me {
                    return; // slander about self is ignored (S1 will bite)
                }
                self.votes.entry(target).or_default().insert(from);
                self.suspect(ctx, target, FaultySource::Gossip);
                self.advance(ctx, target);
            }
            SymMsg::Ready { target } => {
                self.ready.entry(target).or_default().insert(from);
                self.advance(ctx, target);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SymMsg>, tag: u64) {
        if tag != TICK {
            return;
        }
        let targets: Vec<ProcessId> = self
            .view
            .iter()
            .filter(|&p| p != self.me && !self.faulty.contains(&p))
            .collect();
        ctx.broadcast(targets, SymMsg::Heartbeat);
        for q in self.fd.tick(ctx.now()) {
            self.suspect(ctx, q, FaultySource::Observation);
        }
        ctx.set_timer(self.heartbeat_every, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_sim::Builder;

    fn cluster(n: u32, seed: u64) -> gmp_sim::Sim<SymMsg, SymmetricMember> {
        let view: View = (0..n).map(ProcessId).collect();
        let mut sim = Builder::new().seed(seed).build();
        for _ in 0..n {
            sim.add_node(SymmetricMember::new(view.clone(), 40, 200));
        }
        sim
    }

    #[test]
    fn symmetric_excludes_crashed_member() {
        let mut sim = cluster(5, 1);
        sim.crash_at(ProcessId(3), 300);
        sim.run_until(10_000);
        for p in sim.living() {
            assert!(!sim.node(p).view().contains(ProcessId(3)), "{p}");
            assert_eq!(sim.node(p).ver(), 1);
        }
    }

    #[test]
    fn symmetric_survives_two_failures() {
        let mut sim = cluster(6, 2);
        sim.crash_at(ProcessId(3), 300);
        sim.crash_at(ProcessId(5), 1_500);
        sim.run_until(20_000);
        for p in sim.living() {
            assert_eq!(sim.node(p).view().len(), 4, "{p}");
            assert_eq!(sim.node(p).ver(), 2);
        }
    }

    #[test]
    fn symmetric_costs_quadratic_messages() {
        // One exclusion costs ~2(n−1)(n−2) protocol messages vs 3n−5 for
        // the asymmetric algorithm — the "order of magnitude" claim.
        let mut sim = cluster(10, 3);
        sim.crash_at(ProcessId(9), 300);
        sim.run_until(10_000);
        let protocol = sim.stats().sends("suspect") + sim.stats().sends("ready");
        assert!(
            protocol >= 2 * 8 * 8,
            "expected quadratic cost, got {protocol}"
        );
    }
}
