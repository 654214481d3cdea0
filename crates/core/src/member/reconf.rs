//! Reconfiguration (§4–5, Figs. 5 and 10): when `Mgr` and every member
//! ranked above this one are perceived faulty, interrogate the rest,
//! propose what to install, and commit it as the new `Mgr`; as an outer
//! process, answer each phase.

use super::{faulty_in, Member, Phase, Role, Step};
use crate::decide::{determine, PhaseOneResp};
use crate::msg::{InterrogateOkBody, Msg, ReconfBody};
use gmp_sim::Out;
use gmp_types::note::{FaultySource, QuitReason};
use gmp_types::{NextEntry, Note, Op, OpKind, ProcessId, Ver};
use std::sync::Arc;

/// Whether a wire proposal installs versions `v − |rl| + 1 ..= v`: at
/// least one, and none below version 1.
fn installs_ops(body: &ReconfBody) -> bool {
    !body.rl.is_empty() && body.rl.len() as u64 <= body.ver
}

impl Member {
    /// The succession rule (§4.2): initiate reconfiguration when every
    /// member ranked above this process — and the coordinator — is
    /// perceived faulty.
    pub(super) fn maybe_initiate(&mut self, out: &mut impl Out<Msg>) -> Step {
        if self.mgr == self.me || !self.view.contains(self.me) {
            return Ok(());
        }
        let seniors_faulty = self
            .view
            .seniors_of(self.me)
            .iter()
            .all(|&s| self.is_faulty(s));
        if seniors_faulty && self.is_faulty(self.mgr) {
            return self.start_reconf(out);
        }
        Ok(())
    }

    /// Phase I: interrogate the rest of the view.
    fn start_reconf(&mut self, out: &mut impl Out<Msg>) -> Step {
        out.note(Note::ReconfStarted {
            from_ver: self.ver(),
        });
        self.broadcast(out, Msg::Interrogate);
        let mine = PhaseOneResp {
            from: self.me,
            seq: self.seq.clone(),
            next: self.next.clone(),
        };
        self.begin_round(out, Phase::Interrogate { resp: vec![mine] })
    }

    pub(super) fn on_interrogate(&mut self, out: &mut impl Out<Msg>, r: ProcessId) -> Step {
        let (Some(ri), Some(mi)) = (self.view.index_of(r), self.view.index_of(self.me)) else {
            return Ok(()); // unknown initiator: stale
        };
        // Fig. 10: a process ranked above the initiator is in HiFaulty(r)
        // and is being excluded — it quits.
        if ri > mi {
            return self.do_quit(out, QuitReason::Excluded);
        }
        // Respond with the pre-placeholder state (§4.4 ordering).
        let resp = InterrogateOkBody {
            seq: self.seq.clone(),
            next: self.next.clone(),
        };
        out.send(r, Msg::InterrogateOk(Arc::from(resp)));
        // Infer HiFaulty(r): every member senior to r (§4.5). The loop
        // walks a snapshot because `handle_faulty` borrows `self` mutably.
        let view = self.view.clone();
        for &s in view.seniors_of(r) {
            self.handle_faulty(out, s, FaultySource::HiFaultyInference)?;
        }
        self.next.push(NextEntry::placeholder(r));
        Ok(())
    }

    /// Phase I is answered by a majority: decide what to install (Fig. 6)
    /// and propose it.
    pub(super) fn reconf_decide(
        &mut self,
        out: &mut impl Out<Msg>,
        resp: Vec<PhaseOneResp>,
    ) -> Step {
        let queue: Vec<Op> = self.queued_ops().collect();
        let Some(decision) = determine(&resp[0], &resp[1..], &self.view, self.mgr, &queue) else {
            return Ok(()); // nothing to install
        };
        if !self.cfg.three_phase_reconfig {
            // Claim 7.2 baseline: commit directly after interrogation. The
            // proposal phase is what plants each initiator's plan in the
            // respondents' `next` lists; skipping it makes invisible commits
            // undetectable — see `gmp-baselines` for the counterexample.
            return self.reconf_commit_now(out, decision.v, decision.rl, decision.invis);
        }
        self.broadcast(
            out,
            Msg::Propose(Arc::from(ReconfBody {
                rl: decision.rl.clone(),
                ver: decision.v,
                invis: decision.invis.clone(),
                faulty: self.faulty_vec(),
            })),
        );
        let (v, rl, invis) = (decision.v, decision.rl, decision.invis);
        self.begin_round(out, Phase::Propose { v, rl, invis })
    }

    pub(super) fn on_propose(
        &mut self,
        out: &mut impl Out<Msg>,
        from: ProcessId,
        body: &ReconfBody,
    ) -> Step {
        let ReconfBody {
            ref rl,
            ver: v,
            ref invis,
            faulty: ref f,
        } = *body;
        if !matches!(self.role, Role::Outer) || v < self.ver() || !installs_ops(body) {
            return Ok(()); // initiator is behind us (stale), or a malformed proposal
        }
        if f.contains(&self.me)
            || rl.iter().any(|op| op.removes(self.me))
            || invis.iter().any(|op| op.removes(self.me))
        {
            return self.do_quit(out, QuitReason::Excluded);
        }
        for &q in f {
            self.handle_faulty(out, q, FaultySource::Gossip)?;
        }
        if !matches!(self.role, Role::Outer) {
            return Ok(()); // those suspicions made this member an initiator
        }
        // "p executes faulty_p(RL_r) upon receipt of r's proposal" (§6).
        for op in rl {
            if op.kind == OpKind::Remove {
                self.suspect(out, op.target, FaultySource::Gossip);
            }
        }
        self.next = vec![NextEntry::concrete(rl.clone(), from, v)];
        out.send(from, Msg::ProposeOk { ver: v });
        Ok(())
    }

    /// Phase III: install `rl`, announce the commit, and assume the `Mgr`
    /// role on the contingent plan.
    pub(super) fn reconf_commit_now(
        &mut self,
        out: &mut impl Out<Msg>,
        v: Ver,
        rl: Vec<Op>,
        invis: Vec<Op>,
    ) -> Step {
        // The commit's authority *is* the new coordinator: attribute the
        // installed views (and observer notifications) to it.
        self.mgr = self.me;
        self.apply_rl(out, &rl, v)?;
        out.note(Note::BecameMgr { ver: self.ver() });
        self.forced = invis.iter().copied().collect();
        let invis = if self.cfg.compression {
            invis
        } else {
            Vec::new()
        };
        let faulty = self.faulty_vec();
        let commit = ReconfBody {
            rl,
            ver: v,
            invis,
            faulty,
        };
        self.broadcast(out, Msg::ReconfCommit(Arc::from(commit)));
        self.next.clear();
        // Begin the Mgr role on the contingent plan.
        self.role = Role::MgrIdle;
        let usable =
            self.cfg.compression && self.forced.front().is_some_and(|&op| self.op_valid(op));
        if !usable {
            // No usable plan, or compression off: fresh invitations.
            return self.mgr_start_update(out);
        }
        // The reconfiguration commit doubled as the invitation for the
        // first contingent operation: go straight to the await phase.
        let op = self.forced.pop_front().expect("plan is non-empty");
        let ver = self.ver() + 1;
        self.begin_round(out, Phase::Update { op, ver })
    }

    pub(super) fn on_reconf_commit(
        &mut self,
        out: &mut impl Out<Msg>,
        from: ProcessId,
        body: &ReconfBody,
    ) -> Step {
        let ReconfBody {
            ref rl,
            ver: v,
            ref invis,
            faulty: ref f,
        } = *body;
        if !matches!(self.role, Role::Outer) || v < self.ver() || !installs_ops(body) {
            return Ok(()); // stale, or a malformed commit
        }
        if f.contains(&self.me)
            || rl.iter().any(|op| op.removes(self.me))
            || invis.first().is_some_and(|op| op.removes(self.me))
        {
            return self.do_quit(out, QuitReason::Excluded);
        }
        for &q in f {
            self.handle_faulty(out, q, FaultySource::Gossip)?;
        }
        if !matches!(self.role, Role::Outer) {
            return Ok(()); // those suspicions made this member an initiator
        }
        self.mgr = from; // the commit's authority is the new coordinator
        self.apply_rl(out, rl, v)?;
        // Compressed continuation: the commit doubles as the invitation for
        // the first contingent operation.
        match invis.first().copied() {
            Some(n) => self.accept_invite(out, n, from)?,
            None => self.next.clear(),
        }
        // GMP-5 liveness: surviving suspicions reach the new coordinator.
        self.report_suspects(out);
        self.drain_buffer(out)
    }

    /// Applies a reconfiguration proposal `rl` installing version `v`,
    /// starting from whatever prefix this process already holds.
    fn apply_rl(&mut self, out: &mut impl Out<Msg>, rl: &[Op], v: Ver) -> Step {
        let ver = self.ver();
        if ver >= v {
            return Ok(());
        }
        debug_assert!(
            !rl.is_empty(),
            "a reconfiguration proposal installs at least one op"
        );
        let start = v.saturating_sub(rl.len() as u64);
        if ver < start {
            // Further behind than the proposal can repair; impossible per
            // Prop. 5.1 but tolerated defensively.
            out.note(Note::Custom(format!(
                "cannot catch up: at v{} but proposal covers v{}..v{}",
                ver, start, v
            )));
            return Ok(());
        }
        for &op in &rl[(ver - start) as usize..] {
            self.apply_op(out, op)?;
        }
        debug_assert_eq!(self.ver(), v);
        Ok(())
    }

    fn report_suspects(&mut self, out: &mut impl Out<Msg>) {
        if self.mgr == self.me || self.is_faulty(self.mgr) {
            return;
        }
        for q in faulty_in(&self.fd, &self.view) {
            out.send(self.mgr, Msg::FaultyReport { suspect: q });
            self.last_report.insert(q, self.now);
        }
    }
}
