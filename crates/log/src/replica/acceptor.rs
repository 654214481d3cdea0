//! The acceptor: the fault-tolerant memory of Paxos. It accepts the
//! leader's proposals at a ballot no lower than its promise, and answers
//! a new leader's recovery probe with everything it accepted.

use super::*;

impl ReplicatedLog {
    /// Accepts an `AcceptBatch` at `ballot` unless a higher ballot was
    /// promised, and acks the whole range in one `AcceptOkRange`.
    pub(super) fn on_accept(
        &mut self,
        out: &mut impl Out<LogMsg>,
        from: ProcessId,
        ballot: Ver,
        first_slot: u64,
        cmds: &[LogCmd],
    ) {
        let Some(slots) = slot_range(first_slot, cmds.len()) else {
            return;
        };
        if ballot < self.promised {
            return;
        }
        self.promised = ballot;
        let mut kept = true;
        for (slot, &cmd) in slots.zip(cmds) {
            kept &= self.accept(slot, ballot, cmd);
        }
        if kept {
            let count = cmds.len() as u64;
            let ack = LogMsg::AcceptOkRange {
                ballot,
                first_slot,
                count,
            };
            out.send(from, ack);
        }
    }

    /// Records an accepted entry; false means do not ack. A slot this
    /// replica knows decided (applied, or decided and parked) is final: it
    /// is left alone and acked only when `cmd` is the decided command, so
    /// an ack never vouches for a value that contradicts a decision. Below
    /// `base` the decided command is gone (a snapshot summarizes it), so
    /// such a slot is acked unchecked. False also when the window refuses
    /// a slot absurdly far from the rest.
    pub(super) fn accept(&mut self, slot: u64, ballot: Ver, cmd: LogCmd) -> bool {
        if slot < self.base {
            return true;
        }
        match self.decided(slot) {
            Some(decided) => decided == cmd,
            None => self.store(slot, ballot, cmd, false),
        }
    }

    /// Answers a `Recover` probe: promise the ballot and report everything
    /// accepted at slot ≥ `req` — the applied vectors up to the applied
    /// prefix (committed implies accepted), the window above it. Below
    /// `base` nothing survives as entries; the snapshot goes instead and
    /// the entries start at `base`.
    pub(super) fn on_recover(
        &mut self,
        out: &mut impl Out<LogMsg>,
        from: ProcessId,
        ballot: Ver,
        req: u64,
    ) {
        if ballot < self.promised {
            return;
        }
        self.promised = ballot;
        let sync = self.catch_up(req, self.base);
        let applied = sync.entries.into_iter().zip(sync.from..);
        let above = self.slots.range_from(sync.from);
        let entries = applied
            .map(|((b, cmd), slot)| (slot, b, cmd))
            .chain(above.map(|(slot, e)| (slot, e.ballot, e.cmd)))
            .collect();
        let body = RecoverOkBody {
            ballot,
            snapshot: sync.snapshot,
            entries,
        };
        out.send(from, LogMsg::RecoverOk(Arc::from(body)));
    }
}
