//! The two-phase update algorithm with condensed rounds (§3, Figs. 8–9):
//! `Mgr` invites, awaits the `OK`s and commits; an outer process accepts
//! invitations, applies commits and replays the future-view messages it
//! held back.

use super::{Member, Phase, Role, Step};
use crate::msg::{CommitBody, Msg};
use gmp_sim::Out;
use gmp_types::note::{FaultySource, QuitReason};
use gmp_types::{NextEntry, Note, Op, OpKind, ProcessId, Ver};
use std::sync::Arc;

impl Member {
    // ------------------------------------------------------------------
    // Coordinator (Fig. 8)
    // ------------------------------------------------------------------

    /// A `Commit` of `op` installing `ver`, with `next` as its contingent
    /// invitation: one body, shared by every recipient of the broadcast.
    fn commit(&self, op: Op, ver: Ver, next: Option<Op>) -> Msg {
        Msg::Commit(Arc::from(CommitBody {
            op,
            ver,
            next,
            faulty: self.faulty_vec(),
            recovered: self.recovered.iter().copied().collect(),
        }))
    }

    pub(super) fn op_valid(&self, op: Op) -> bool {
        match op.kind {
            OpKind::Remove => self.view.contains(op.target) && op.target != self.me,
            OpKind::Add => !self.view.contains(op.target),
        }
    }

    /// The operations this member would coordinate next, in the order
    /// Fig. 8 serves them: `Recovered` joiners not yet in the view, then
    /// removals of `Faulty`. A reconfiguration initiator hands the same
    /// queue to `GetNext`.
    pub(super) fn queued_ops(&self) -> impl Iterator<Item = Op> + '_ {
        let joiners = self.recovered.iter().filter(|&&j| !self.view.contains(j));
        let joiners = joiners.map(|&j| Op::add(j));
        joiners.chain(self.faulty_set().map(Op::remove))
    }

    /// Picks the next operation for the coordinator: inherited contingent
    /// plan first, then the queue.
    fn mgr_pick_next(&mut self) -> Option<Op> {
        while let Some(op) = self.forced.pop_front() {
            if self.op_valid(op) {
                return Some(op);
            }
        }
        self.queued_ops().next()
    }

    /// Invites the group to the next operation, if there is one.
    pub(super) fn mgr_start_update(&mut self, out: &mut impl Out<Msg>) -> Step {
        let Some(op) = self.mgr_pick_next() else {
            return Ok(());
        };
        let ver = self.ver() + 1;
        self.broadcast(out, Msg::Invite { op, ver });
        self.begin_round(out, Phase::Update { op, ver })
    }

    /// Every awaited member has answered or been suspected: commit `op`,
    /// installing `ver`, and go on to the next operation.
    pub(super) fn mgr_commit(&mut self, out: &mut impl Out<Msg>, op: Op, ver: Ver) -> Step {
        self.apply_op(out, op)?;
        debug_assert_eq!(self.ver(), ver);
        if op.kind == OpKind::Add {
            out.send(op.target, self.welcome(self.me));
        }
        if !self.cfg.compression {
            self.broadcast(out, self.commit(op, ver, None));
            return self.mgr_start_update(out); // fresh invitation for the next op
        }
        // Condensed round: the commit doubles as the next op's invitation.
        let next = self.mgr_pick_next();
        self.broadcast(out, self.commit(op, ver, next));
        match next {
            Some(op) => self.begin_round(out, Phase::Update { op, ver: ver + 1 }),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Outer process (Fig. 9)
    // ------------------------------------------------------------------

    pub(super) fn on_invite(
        &mut self,
        out: &mut impl Out<Msg>,
        from: ProcessId,
        op: Op,
        v: Ver,
    ) -> Step {
        if from != self.mgr || !matches!(self.role, Role::Outer) || v <= self.ver() {
            return Ok(()); // not our Mgr's, or a stale duplicate
        }
        if v - self.ver() > 1 {
            self.buffered.push((from, Msg::Invite { op, ver: v }));
            return Ok(());
        }
        self.accept_invite(out, op, self.mgr)
    }

    /// Fig. 9's answer to an invitation for `op` from `coord`, or to the
    /// contingent op a commit carries in its place: act on the belief it
    /// states, expect `op` at the next version and acknowledge.
    pub(super) fn accept_invite(
        &mut self,
        out: &mut impl Out<Msg>,
        op: Op,
        coord: ProcessId,
    ) -> Step {
        if op.removes(self.me) {
            return self.do_quit(out, QuitReason::Excluded);
        }
        match op.kind {
            OpKind::Remove => self.handle_faulty(out, op.target, FaultySource::Gossip)?,
            OpKind::Add => out.note(Note::Operating { id: op.target }),
        }
        let v = self.ver() + 1;
        self.next = vec![NextEntry::concrete(vec![op], coord, v)];
        out.send(coord, Msg::UpdateOk { ver: v });
        Ok(())
    }

    pub(super) fn on_commit(
        &mut self,
        out: &mut impl Out<Msg>,
        from: ProcessId,
        body: Arc<CommitBody>,
    ) -> Step {
        if from != self.mgr || !matches!(self.role, Role::Outer) {
            return Ok(());
        }
        let CommitBody {
            op,
            ver: v,
            next: nxt,
            faulty: ref f,
            recovered: ref r,
        } = *body;
        if v < self.ver() {
            return Ok(()); // stale
        }
        if v - self.ver() > 1 {
            self.buffered.push((from, Msg::Commit(body)));
            return Ok(());
        }
        if f.contains(&self.me) || nxt.is_some_and(|n| n.removes(self.me)) {
            return self.do_quit(out, QuitReason::Excluded);
        }
        if v == self.ver() {
            // Already installed (e.g. a joiner bootstrapped by `Welcome` at
            // this very version): only the contingent part matters.
            return self.process_contingent(out, nxt, f, r);
        }
        // v == self.ver() + 1: apply.
        for &q in f {
            if q != op.target {
                self.handle_faulty(out, q, FaultySource::Gossip)?;
            }
        }
        if !matches!(self.role, Role::Outer) {
            return Ok(()); // those suspicions made this member an initiator
        }
        for &j in r {
            out.note(Note::Operating { id: j });
        }
        self.apply_op(out, op)?;
        self.process_contingent(out, nxt, &[], &[])?;
        self.drain_buffer(out)
    }

    /// Handles the `Contingent(next-op(next-id) : F : R)` part of a commit:
    /// under compression it doubles as the next invitation (§3.1).
    fn process_contingent(
        &mut self,
        out: &mut impl Out<Msg>,
        nxt: Option<Op>,
        f: &[ProcessId],
        r: &[ProcessId],
    ) -> Step {
        for &q in f {
            self.handle_faulty(out, q, FaultySource::Gossip)?;
        }
        for &j in r {
            out.note(Note::Operating { id: j });
        }
        match nxt {
            Some(n) => self.accept_invite(out, n, self.mgr),
            None => {
                self.next.clear();
                Ok(())
            }
        }
    }

    /// Replays buffered future-view messages that have become current.
    pub(super) fn drain_buffer(&mut self, out: &mut impl Out<Msg>) -> Step {
        loop {
            let cur = self.ver();
            // Discard obsolete entries.
            let update_ver = |m: &Msg| match m {
                Msg::Invite { ver, .. } => Some(*ver),
                Msg::Commit(c) => Some(c.ver),
                _ => None,
            };
            self.buffered
                .retain(|(_, m)| update_ver(m).is_none_or(|ver| ver > cur));
            let pos = self
                .buffered
                .iter()
                .position(|(_, m)| update_ver(m) == Some(cur + 1));
            let Some(pos) = pos else { return Ok(()) };
            let (from, msg) = self.buffered.remove(pos);
            self.dispatch(out, from, msg)?;
            if self.ver() == cur {
                // Nothing advanced (the buffered message was an invite):
                // wait for more traffic.
                return Ok(());
            }
        }
    }
}
