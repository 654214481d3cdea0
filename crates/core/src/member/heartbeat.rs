//! Failure detection (§2.2): the periodic tick that times peers out (F1),
//! heartbeats carrying faulty-set digests (F2 gossip), and the monitoring
//! set the topology draws over each installed view.

use super::{Lifecycle, Member, Step, TICK};
use crate::msg::{HeartbeatDigest, Msg};
use gmp_sim::{Out, Shared};
use gmp_types::note::FaultySource;
use gmp_types::ProcessId;
use std::collections::BTreeSet;

/// Sender-side heartbeat-gossip state: the faulty set travels as one
/// `Arc`-shared snapshot per *change*, not one `Vec` per target per tick.
#[derive(Clone, Debug, Default)]
pub(super) struct HbGossip {
    /// Bumped whenever the faulty set differs from the previous tick's.
    epoch: u64,
    /// The faulty set as of `epoch` (ascending id order, like `faulty_vec`).
    last: Vec<ProcessId>,
    /// Shared snapshot for `epoch`; `None` while the set is empty (an empty
    /// snapshot and an empty beat are indistinguishable to the receiver).
    snapshot: Option<Shared<[ProcessId]>>,
    /// Snapshot materializations, for the E9 fan-out experiment.
    pub(super) builds: u64,
}

/// Digest-delivery bookkeeping for one heartbeat target, kept in the
/// detector's slot for the peer: enrolment starts it afresh, and it goes
/// with the slot when a view change releases or forgets the peer.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct HbPeer {
    /// Last epoch whose snapshot this peer is *known* to have received (the
    /// carrying beat was sent while the peer was confirmed `Active`).
    sent: Option<u64>,
    /// Whether we hold evidence the peer reached `Active`: any message it
    /// sent other than its own `JoinRequest` (joiners send those while
    /// still `Joining`, discarding everything but `Welcome` in return).
    /// Until then, a carrying beat might land on a `Joining` receiver and
    /// be discarded, so the snapshot is re-carried instead of marked sent.
    confirmed: bool,
}

impl Member {
    /// Records evidence that `p` has reached `Active`: from now on a
    /// digest-carrying beat to `p` may mark its epoch delivered at send
    /// time (lifecycle is monotone past `Active`, so no later beat can land
    /// on a discarding `Joining` receiver). No-op for strangers (observers,
    /// not-yet-admitted joiners) — they have no detector slot.
    pub(super) fn confirm_peer(&mut self, p: ProcessId) {
        if let Some(peer) = self.fd.peer_mut(p) {
            peer.confirmed = true;
        }
    }

    /// Recomputes the monitoring set from the configured topology against
    /// the current view, diffing it against the previous set: ex-monitors
    /// are released (not forgotten — they are still group members),
    /// new monitors are tracked with `lease` as their presumed last life
    /// sign. Called on every view install (initial start, welcome, and
    /// each applied operation).
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
        let keep: BTreeSet<ProcessId> = monitored.iter().copied().collect();
        let old = std::mem::replace(&mut self.topo_monitored, monitored);
        for p in old {
            if !keep.contains(&p) && self.view.contains(p) {
                self.fd.release(p);
            }
            // Ex-monitors no longer in the view were already retired by
            // `fd.forget` in the removal path; releasing them again
            // would be a harmless no-op, skipped for clarity.
        }
        // One exact allocation per install: ascending inserts would
        // otherwise double the id index to twice the largest monitored id.
        let end = self.topo_monitored.iter().map(|p| p.index() + 1).max();
        self.fd.reserve_ids(end.unwrap_or(0));
        for &p in &self.topo_monitored {
            self.fd.track(p, lease);
        }
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
        // snapshot, and fanned out by reference: per-recipient payload cost
        // is an O(1) clone of the digest, not a fresh `Vec`. The full set
        // travels only on the first beat to a peer after a change — every
        // later beat on that (reliable FIFO) link is a pure life sign, so
        // the gossip states receivers reach are exactly those of flooding.
        // NB: `sent` marks the epoch at *send* time, which is only sound on
        // the model's reliable channels (§2.1) *and* only for a receiver
        // that will actually process the beat. A `Joining` receiver
        // discards everything but `Welcome`, so a carrying beat that
        // overlaps the join window would be eaten and never retransmitted —
        // the joiner would miss this member's faulty set until it next
        // changed. The epoch is therefore marked sent only once the peer is
        // `confirmed` Active (we received some message from it other than
        // its own `JoinRequest`; lifecycle is monotone past `Active`, so
        // later beats can never land on a `Joining` receiver again). Until
        // then the snapshot is re-carried on every beat — an O(1) `Arc`
        // clone, no extra messages and no extra materializations. Lossy
        // `BlockMode::Drop` links would break the marking the same way,
        // and stay reserved for the baseline counterexample protocols.
        if self.cfg.gossip && !self.faulty.iter().copied().eq(self.hb.last.iter().copied()) {
            self.hb.epoch += 1;
            self.hb.last = self.faulty_vec(); // once per tick, not per target
            self.hb.snapshot = if self.hb.last.is_empty() {
                None
            } else {
                self.hb.builds += 1;
                Some(Shared::from(self.hb.last.clone()))
            };
        }
        // Heartbeats (and their digests) go to the *monitoring set*, not
        // the whole view — under the default Flat topology these coincide.
        // Suspicion relay on sparse graphs falls out of this line plus the
        // epoch bump above: learning `Faulty{q}` (by timeout or digest)
        // changes `self.faulty`, which re-publishes the snapshot to
        // exactly these monitors on this very tick.
        let snapshot = self.hb.snapshot.clone();
        let epoch = self.hb.epoch;
        for &p in &self.topo_monitored {
            if self.faulty.contains(&p) {
                continue;
            }
            let digest = match (&snapshot, self.fd.peer_mut(p)) {
                (Some(set), Some(peer)) => {
                    if peer.sent == Some(epoch) {
                        HeartbeatDigest::empty()
                    } else {
                        if peer.confirmed {
                            peer.sent = Some(epoch);
                        }
                        HeartbeatDigest::snapshot(set.clone())
                    }
                }
                _ => HeartbeatDigest::empty(),
            };
            out.send(p, Msg::Heartbeat { digest });
        }

        // Periodic re-reports keep GMP-5 live across coordinator changes
        // and lost observers.
        if !self.is_mgr() && self.mgr != self.me && !self.faulty.contains(&self.mgr) {
            for &q in &self.faulty {
                let last = self.last_report.get(&q);
                let due = last.is_none_or(|&t| now.saturating_sub(t) >= self.cfg.suspect_after);
                if self.view.contains(q) && due {
                    out.send(self.mgr, Msg::FaultyReport { suspect: q });
                    self.last_report.insert(q, now);
                }
            }
        }

        out.set_timer(self.cfg.heartbeat_every, TICK);
        Ok(())
    }
}
