//! Compaction and catch-up: the floor below which the applied log is
//! summarized by per-client high-water marks, the [`Snapshot`] that
//! carries that summary, and the `Sync` answer that ships it plus the
//! applied tail to a joiner.

use super::*;

impl ReplicatedLog {
    /// Advances the compaction floor once the applied suffix above it
    /// exceeds twice the keep budget. The 2× hysteresis keeps the floor
    /// from moving on every applied slot.
    pub(super) fn maybe_compact(&mut self) {
        if self.compact_keep == usize::MAX {
            return;
        }
        let len = self.logical_len();
        if len - self.floor <= 2 * self.compact_keep as u64 {
            return;
        }
        self.floor = len - self.compact_keep as u64;
    }

    /// Raises `client`'s dedup high-water mark to `seq` unless it already
    /// stands higher: a snapshot may have pre-adopted a later mark.
    pub(super) fn raise_mark(&mut self, client: ProcessId, seq: u64) {
        let mark = self.client_hwm.entry(client).or_insert(seq);
        *mark = (*mark).max(seq);
    }

    /// The compacted summary of everything below the floor: the floor plus
    /// every client's dedup high-water mark.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            floor: self.floor,
            clients: self.client_hwm.iter().map(|(&c, &seq)| (c, seq)).collect(),
        }
    }

    /// Installs a received snapshot: adopt any newer client marks, and if
    /// the snapshot's floor is ahead of our applied prefix, restart the
    /// applied vectors at it (the pruned prefix is summarized, not lost —
    /// that is the floor invariant).
    pub(super) fn install_snapshot(&mut self, snap: Snapshot) {
        for (client, seq) in snap.clients {
            self.raise_mark(client, seq);
        }
        if snap.floor > self.logical_len() {
            self.committed.clear();
            self.ballots.clear();
            self.applied_at.clear();
            self.base = snap.floor;
            self.slots.truncate_below(snap.floor);
        }
        self.floor = self.floor.max(snap.floor);
    }

    /// The catch-up answer from slot `req`: the applied entries from
    /// `req` on, or — when `req` lies below `cut` — the snapshot that
    /// stands in for the prefix and the entries from the floor on.
    pub(super) fn catch_up(&self, req: u64, cut: u64) -> SyncOkBody {
        let (snapshot, from) = if req < cut {
            (Some(self.snapshot()), self.floor)
        } else {
            (None, req)
        };
        let lo = (from - self.base).min(self.committed.len() as u64) as usize;
        let applied = self.ballots[lo..].iter().zip(&self.committed[lo..]);
        let entries = applied.map(|(&b, &cmd)| (b, cmd)).collect();
        SyncOkBody {
            from,
            snapshot,
            entries,
        }
    }

    /// Answers a joiner's `Sync`: from below the floor, the snapshot that
    /// summarizes the prefix goes with the applied tail from the floor on
    /// — O(tail).
    pub(super) fn on_sync(&self, out: &mut impl Out<LogMsg>, from: ProcessId, req: u64) {
        let body = self.catch_up(req, self.floor);
        out.send(from, LogMsg::SyncOk(Arc::from(body)));
    }
}
