//! Joins (§7): a process outside the group asks any member until a
//! `Welcome` hands it the current view; members forward its request to
//! `Mgr`, which queues it as an add.

use super::{Lifecycle, Member, Role, Step, JOIN, TICK};
use crate::msg::{Msg, WelcomeBody};
use gmp_sim::Out;
use gmp_types::{Note, ProcessId, View};
use std::sync::Arc;

impl Member {
    /// Asks every contact to be let in, and asks again after
    /// `retry_every` until a `Welcome` arrives.
    pub(super) fn on_join_tick(&self, out: &mut impl Out<Msg>) {
        let join = self.cfg.join.as_ref().expect("joiner has join config");
        for &c in &join.contacts {
            out.send(c, Msg::JoinRequest { joiner: self.me });
        }
        out.set_timer(join.retry_every, JOIN);
    }

    /// A message reaching this process while it is still `Joining`.
    pub(super) fn receive_joining(
        &mut self,
        out: &mut impl Out<Msg>,
        from: ProcessId,
        msg: Msg,
    ) -> Step {
        match msg {
            Msg::Welcome(body) => return self.on_welcome(out, body),
            // Coordinator rounds addressed to this process as an
            // already-added member can overtake its Welcome (the add
            // commits first, and the Welcome may need a retried join
            // request if the original welcomer died). Invitations and
            // interrogations are never retransmitted, so discarding
            // them would wedge the coordinator awaiting this process's
            // response. Hold them and replay once a Welcome installs a
            // view; each handler's version guard discards stale ones.
            Msg::Invite { .. }
            | Msg::Commit(_)
            | Msg::Interrogate
            | Msg::Propose(_)
            | Msg::ReconfCommit(_) => self.buffered.push((from, msg)),
            _ => {}
        }
        Ok(())
    }

    /// State transfer of the current view, naming `mgr` as coordinator.
    pub(super) fn welcome(&self, mgr: ProcessId) -> Msg {
        Msg::Welcome(Arc::from(WelcomeBody {
            members: self.view.to_vec(),
            seq: self.seq.clone(),
            mgr,
        }))
    }

    pub(super) fn on_join_request(&mut self, out: &mut impl Out<Msg>, joiner: ProcessId) -> Step {
        if joiner == self.me {
            return Ok(());
        }
        if self.view.contains(joiner) {
            // Already a member (it may have missed its Welcome): any member
            // can re-welcome it.
            out.send(joiner, self.welcome(self.mgr));
            return Ok(());
        }
        if self.is_mgr() {
            if !self.recovered.contains(&joiner) && !self.fd.is_isolated(joiner) {
                self.recovered.push_back(joiner);
                out.note(Note::JoinRequested { joiner });
                if matches!(self.role, Role::MgrIdle) {
                    return self.mgr_start_update(out);
                }
            }
        } else if !self.is_faulty(self.mgr) && self.mgr != self.me {
            out.send(self.mgr, Msg::JoinRequest { joiner });
        }
        Ok(())
    }

    fn on_welcome(&mut self, out: &mut impl Out<Msg>, body: Arc<WelcomeBody>) -> Step {
        let WelcomeBody { members, seq, mgr } = Arc::unwrap_or_clone(body);
        // A member list that repeats a process, or leaves out this joiner,
        // is no view to join: ignore it whole and keep asking.
        let Some(view) = View::try_new(members).filter(|view| view.contains(self.me)) else {
            return Ok(());
        };
        self.view = view;
        self.seq = seq;
        self.mgr = mgr;
        self.lifecycle = Lifecycle::Active;
        self.role = Role::Outer;
        // Bootstrap grace: members only start heartbeating this joiner once
        // *their* copy of the add-commit arrives, which can lag well behind
        // the Welcome if the coordinator fails mid-broadcast. Future-dating
        // the first life sign gives them three full timeout windows before
        // the joiner may suspect anyone it has never heard from.
        let grace = self.now + 2 * self.cfg.suspect_after;
        self.install_topology(grace);
        self.announce_view(out);
        out.set_timer(self.cfg.heartbeat_every, TICK);
        // Replay coordinator rounds that overtook this Welcome (see
        // `receive_joining`). `dispatch` re-buffers anything still ahead
        // of the installed view; stale entries fail the handlers' version
        // guards. A replayed message can isolate a later one's sender, so
        // each passes S1 again.
        for (sender, msg) in std::mem::take(&mut self.buffered) {
            if self.fd.admit(sender, self.now) {
                self.dispatch(out, sender, msg)?;
            } else {
                out.note(Note::Isolated { from: sender });
            }
        }
        Ok(())
    }
}
