//! Failure detection (§2.2): the periodic tick that times peers out (F1),
//! heartbeats carrying faulty-set digests (F2 gossip), and the monitoring
//! set the topology draws over each installed view.

use super::{faulty_in, Lifecycle, Member, Step, TICK};
use crate::msg::{HeartbeatDigest, Msg};
use gmp_sim::Out;
use gmp_types::note::FaultySource;
use gmp_types::Ver;

/// Sender-side heartbeat-gossip state: the faulty set travels as one
/// `Arc`-shared snapshot per *change*, not one `Vec` per target per tick.
#[derive(Clone, Debug, Default)]
pub(super) struct HbGossip {
    /// What every beat carries: the faulty set as of its last change
    /// (ascending id order, like `faulty_vec`), empty while the set is.
    digest: HeartbeatDigest,
    /// Snapshot materializations, for the E9 fan-out experiment.
    pub(super) builds: u64,
    /// `(isolated ids, version)` when the digest was last compared with
    /// the faulty set. The set is the isolated ids within the view; the
    /// isolated ids only grow and the view only changes with the
    /// version, so while this pair holds the digest still matches.
    compared: Option<(usize, Ver)>,
}

impl Member {
    /// Recomputes the monitoring set from the configured topology against
    /// the current view, diffing it against the previous set: ex-monitors
    /// are released (not forgotten — they are still group members),
    /// new monitors are tracked with `lease` as their presumed last life
    /// sign. Called on every view install (initial start, welcome, and
    /// each applied operation). A monitor this member believes faulty
    /// stays in the set — heartbeats skip it — but the detector never
    /// tracks an isolated peer again.
    ///
    /// Emits no trace events and draws no randomness; `track` is a no-op
    /// for already-enrolled peers and `release` for never-enrolled ones —
    /// so under [`Flat`](crate::topology::Flat), where the set is always
    /// "everyone else", this reduces exactly to the pre-topology engine's
    /// track-on-add calls and the run stays byte-identical (pinned by the
    /// goldens in `tests/topology.rs`).
    pub(super) fn install_topology(&mut self, lease: u64) {
        let monitored = self.cfg.topology.monitors(self.me, &self.view);
        let mut view = self.view.iter().filter(|&p| p != self.me);
        debug_assert!(
            monitored.iter().all(|&p| view.any(|q| q == p)),
            "topology contract: {monitored:?} is not within the view less {}, in view order",
            self.me
        );
        let old = std::mem::replace(&mut self.topo_monitored, monitored);
        // Every start has no old set, hence nothing to release.
        if !old.is_empty() {
            let mut keep = self.topo_monitored.clone();
            keep.sort_unstable();
            for p in old {
                if keep.binary_search(&p).is_err() && self.view.contains(p) {
                    self.fd.release(p);
                }
                // Ex-monitors no longer in the view were already retired
                // by `fd.forget` in the removal path; releasing them again
                // would be a harmless no-op, skipped for clarity.
            }
        }
        self.fd.monitor(&self.topo_monitored, lease);
    }

    pub(super) fn on_tick(&mut self, out: &mut impl Out<Msg>) -> Step {
        if self.lifecycle != Lifecycle::Active {
            return Ok(());
        }
        let now = self.now;

        // Apply injected (spurious) suspicions and detector timeouts
        // *before* choosing heartbeat targets: S1 starts at the suspicion,
        // so a peer declared faulty at this very tick must not receive one
        // more heartbeat from us.
        for q in std::mem::take(&mut self.injected) {
            self.handle_faulty(out, q, FaultySource::Injected)?;
        }
        for q in self.fd.tick(now) {
            self.handle_faulty(out, q, FaultySource::Observation)?;
        }

        // Heartbeat fan-out. The faulty set is materialized at most once per
        // tick (and only when it changed), wrapped in an `Arc`-shared
        // snapshot, and every beat carries it by reference: per-recipient
        // payload cost is an O(1) clone of the digest, not a fresh `Vec`.
        // Re-carrying an unchanged set is a no-op at a receiver that
        // already processed it (S1 isolation is permanent, so `suspect`
        // refuses every id it names), and a receiver that missed it — a
        // `Joining` peer, a newly enrolled one, one behind a lossy link —
        // gets it on its next beat.
        // The set is walked only when it may have moved since the last
        // walk (see `HbGossip::compared`).
        let compared = Some((self.fd.isolated().len(), self.ver()));
        let moved = std::mem::replace(&mut self.hb.compared, compared) != compared;
        let carried = self.hb.digest.faulty().iter().copied();
        if self.cfg.gossip && moved && !self.faulty_set().eq(carried) {
            let faulty = self.faulty_vec();
            self.hb.digest = if faulty.is_empty() {
                HeartbeatDigest::empty()
            } else {
                self.hb.builds += 1;
                HeartbeatDigest::snapshot(faulty.into())
            };
        }
        // Heartbeats (and their digests) go to the *monitoring set*, not
        // the whole view — under the default Flat topology these coincide.
        // Suspicion relay on sparse graphs falls out of this line plus the
        // rebuild above: learning `Faulty{q}` (by timeout or digest)
        // changes the faulty set, which re-publishes the snapshot to
        // exactly these monitors on this very tick.
        for &p in &self.topo_monitored {
            if !self.fd.is_isolated(p) {
                let digest = self.hb.digest.clone();
                out.send(p, Msg::Heartbeat { digest });
            }
        }

        // Periodic re-reports keep GMP-5 live across coordinator changes
        // and lost observers.
        if !self.is_mgr() && self.mgr != self.me && !self.is_faulty(self.mgr) {
            for q in faulty_in(&self.fd, &self.view) {
                let last = self.last_report.get(&q);
                let due = last.is_none_or(|&t| now.saturating_sub(t) >= self.cfg.suspect_after);
                if due {
                    out.send(self.mgr, Msg::FaultyReport { suspect: q });
                    self.last_report.insert(q, now);
                }
            }
        }

        out.set_timer(self.cfg.heartbeat_every, TICK);
        Ok(())
    }
}
