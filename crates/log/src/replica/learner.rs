//! The learner (a *replica* in *Paxos Made Moderately Complex*): it
//! learns decided slots — from the leader's `DecideBatch`es, or in bulk
//! from a catch-up `SyncOk` — and applies them in slot order.

use super::*;

impl ReplicatedLog {
    /// Learns a `DecideBatch`'s range and applies what it completes.
    pub(super) fn on_decide(&mut self, ballot: Ver, first_slot: u64, cmds: &[LogCmd]) {
        if let Some(slots) = slot_range(first_slot, cmds.len()) {
            self.learn_and_apply(slots.zip(cmds).map(|(slot, &cmd)| (slot, ballot, cmd)));
        }
    }

    /// Takes a catch-up answer: installs its snapshot, if any, then learns
    /// and applies its entries.
    pub(super) fn on_sync_ok(&mut self, body: Arc<SyncOkBody>) {
        let body = Arc::unwrap_or_clone(body);
        let Some(slots) = slot_range(body.from, body.entries.len()) else {
            return;
        };
        self.last_sync = Some((body.snapshot.is_some(), body.entries.len() as u64));
        if let Some(snap) = body.snapshot {
            self.install_snapshot(snap);
        }
        self.learn_and_apply(
            slots
                .zip(body.entries)
                .map(|(slot, (b, cmd))| (slot, b, cmd)),
        );
    }

    /// Learns every `(slot, ballot, cmd)` decision, then applies what they
    /// complete.
    pub(super) fn learn_and_apply(
        &mut self,
        decided: impl IntoIterator<Item = (u64, Ver, LogCmd)>,
    ) {
        for (slot, ballot, cmd) in decided {
            self.learn(slot, ballot, cmd);
        }
        self.apply_contiguous();
    }

    /// Records a decided entry above the applied prefix (idempotent;
    /// decides imply accepts so the entry also feeds later recoveries).
    fn learn(&mut self, slot: u64, ballot: Ver, cmd: LogCmd) {
        if slot < self.logical_len() {
            return; // already applied
        }
        if let Some(lead) = &mut self.lead {
            lead.admitted.remove(&cmd);
        }
        self.store(slot, ballot, cmd, true);
    }

    /// Applies every parked decision contiguous with the applied prefix,
    /// popping the window's front.
    fn apply_contiguous(&mut self) {
        while let Some(&Entry {
            ballot,
            cmd,
            decided: true,
        }) = self.slots.get(self.logical_len())
        {
            self.slots.remove(self.logical_len());
            self.committed.push(cmd);
            self.ballots.push(ballot);
            self.applied_at.push(self.now);
            if !cmd.is_noop() {
                self.raise_mark(cmd.client, cmd.seq);
            }
        }
    }
}
