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

use crate::shell::Shell;
use gmp_sim::{Ctx, Message, Node, Out};
use gmp_types::note::FaultySource;
use gmp_types::{ProcessId, Ver, View};
use std::collections::{BTreeMap, BTreeSet};

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
///
/// Sans-IO like `gmp_core::Member`: every entry point emits through an
/// [`Out`] sink, so a `Vec<gmp_sim::Effect<SymMsg>>` drives it as well as
/// the simulator does.
pub struct SymmetricMember {
    shell: Shell,
    /// Who has voted `Suspect(target)`.
    votes: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
    /// Who has declared `Ready(target)`.
    ready: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
    sent_ready: BTreeSet<ProcessId>,
}

impl SymmetricMember {
    /// An initial member with the given view and failure-detection timing.
    pub fn new(initial_view: View, heartbeat_every: u64, suspect_after: u64) -> Self {
        SymmetricMember {
            shell: Shell::new(initial_view, heartbeat_every, suspect_after),
            votes: Default::default(),
            ready: Default::default(),
            sent_ready: Default::default(),
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

    /// Starts the member as process `me` at time `now` (once, first).
    pub fn start(&mut self, out: &mut impl Out<SymMsg>, me: ProcessId, now: u64) {
        self.shell.start(out, me, now);
    }

    /// Handles `msg` from `from`, delivered at time `now`.
    pub fn receive(&mut self, out: &mut impl Out<SymMsg>, from: ProcessId, msg: SymMsg, now: u64) {
        if !self.shell.admit(out, from, now) {
            return;
        }
        match msg {
            SymMsg::Heartbeat => {}
            SymMsg::Suspect { target } => {
                if target == self.shell.me {
                    return; // slander about self is ignored (S1 will bite)
                }
                self.votes.entry(target).or_default().insert(from);
                self.suspect(out, target, FaultySource::Gossip);
                self.advance(out, target);
            }
            SymMsg::Ready { target } => {
                self.ready.entry(target).or_default().insert(from);
                self.advance(out, target);
            }
        }
    }

    /// Handles the timer `tag` this member armed, due at time `now`.
    pub fn fire(&mut self, out: &mut impl Out<SymMsg>, tag: u64, now: u64) {
        if !self.shell.ticks(tag) {
            return;
        }
        for q in self.shell.beat(out, SymMsg::Heartbeat, now) {
            self.suspect(out, q, FaultySource::Observation);
        }
        self.shell.rearm(out);
    }

    /// The members whose votes are required for `target`'s exclusion: every
    /// current member not itself under suspicion, plus this process.
    fn electorate(&self, target: ProcessId) -> BTreeSet<ProcessId> {
        let sh = &self.shell;
        sh.view
            .iter()
            .filter(|&p| p == sh.me || (!sh.is_faulty(p) && p != target))
            .collect()
    }

    /// Sends one round's `msg` about `target` to every other member.
    fn round(&self, out: &mut impl Out<SymMsg>, target: ProcessId, msg: SymMsg) {
        for p in self.shell.view.iter() {
            if p != self.shell.me && p != target {
                out.send(p, msg.clone());
            }
        }
    }

    fn suspect(&mut self, out: &mut impl Out<SymMsg>, q: ProcessId, source: FaultySource) {
        if !self.shell.suspect(out, q, source) {
            return;
        }
        // Symmetric: every believer broadcasts its own suspicion round.
        self.round(out, q, SymMsg::Suspect { target: q });
        self.votes.entry(q).or_default().insert(self.shell.me);
        self.advance(out, q);
    }

    /// Checks whether a round for `target` completed and moves it forward.
    fn advance(&mut self, out: &mut impl Out<SymMsg>, target: ProcessId) {
        if !self.shell.view.contains(target) {
            return;
        }
        let electorate = self.electorate(target);
        let votes = self.votes.entry(target).or_default();
        if !electorate.iter().all(|p| votes.contains(p)) {
            return;
        }
        if self.sent_ready.insert(target) {
            self.round(out, target, SymMsg::Ready { target });
            self.ready.entry(target).or_default().insert(self.shell.me);
        }
        let ready = self.ready.entry(target).or_default();
        if electorate.iter().all(|p| ready.contains(p)) {
            // Everyone has seen everyone's vote: apply deterministically.
            self.shell.remove(out, target, |sh| sh.view.most_senior());
            self.votes.remove(&target);
            self.ready.remove(&target);
            // A member's failure may complete other pending rounds.
            let pending: Vec<ProcessId> = self.votes.keys().copied().collect();
            for t in pending {
                self.advance(out, t);
            }
        }
    }
}

impl Node<SymMsg> for SymmetricMember {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SymMsg>) {
        self.start(ctx, ctx.id(), ctx.now());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SymMsg>, from: ProcessId, msg: SymMsg) {
        self.receive(ctx, from, msg, ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SymMsg>, tag: u64) {
        self.fire(ctx, tag, ctx.now());
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
