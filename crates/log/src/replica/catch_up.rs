//! Catch-up: the [`Snapshot`] that summarizes an applied prefix by
//! per-client high-water marks, and the `Sync` answer that ships it plus
//! the applied tail to a joiner.

use super::*;

impl ReplicatedLog {
    /// Raises `client`'s dedup high-water mark to `seq` unless it already
    /// stands higher: a snapshot may have pre-adopted a later mark.
    pub(super) fn raise_mark(&mut self, client: ProcessId, seq: u64) {
        let mark = self.client_hwm.entry(client).or_insert(seq);
        *mark = (*mark).max(seq);
    }

    /// The summary of everything below `cut`: the cut plus every client's
    /// dedup high-water mark.
    fn snapshot(&self, cut: u64) -> Snapshot {
        Snapshot {
            floor: cut,
            clients: self.client_hwm.iter().map(|(&c, &seq)| (c, seq)).collect(),
        }
    }

    /// Installs a received snapshot: adopt any newer client marks, and if
    /// the snapshot's floor is ahead of our applied prefix, restart the
    /// applied vectors at it (every slot below the floor is committed and
    /// its commands are summarized by the marks, not lost).
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
    }

    /// The catch-up answer from slot `req`: the applied entries from
    /// `req` on, or — when `req` lies below `cut` (`base ≤ cut ≤
    /// logical_len`) — the snapshot that stands in for the prefix and the
    /// entries from `cut` on.
    pub(super) fn catch_up(&self, req: u64, cut: u64) -> SyncOkBody {
        let (snapshot, from) = if req < cut {
            (Some(self.snapshot(cut)), cut)
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

    /// Answers a joiner's `Sync`: the last `compact_keep` applied entries
    /// (all of them from `base`, if fewer), behind a snapshot when `req`
    /// lies below them — O(keep), not O(log).
    pub(super) fn on_sync(&self, out: &mut impl Out<LogMsg>, from: ProcessId, req: u64) {
        let keep = self.compact_keep as u64;
        let cut = self.base.max(self.logical_len().saturating_sub(keep));
        let body = self.catch_up(req, cut);
        out.send(from, LogMsg::SyncOk(Arc::from(body)));
    }
}
