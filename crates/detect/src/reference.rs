//! The retired `BTreeMap`-backed detector, kept as a behavioral oracle.
//!
//! [`MapDetector`] is the exact map-and-heap implementation that
//! [`HeartbeatDetector`](crate::HeartbeatDetector) replaced: per-peer
//! leases in a `BTreeMap<ProcessId, u64>` and heap entries keyed by
//! `ProcessId`, with the same lazy-deletion discipline. It exists for the **equivalence
//! proptests** in `gmp-props`, which drive identical schedules of track /
//! heard_from / suspect / forget / tick through both implementations and
//! assert identical suspicions, identical expiry instants and identical
//! tracked sets — the lease scan is pinned behaviorally, not just by
//! golden fingerprints.
//!
//! It is deliberately frozen: bugfixes that change *behavior* must land in
//! both implementations or the proptests will say so.

use gmp_types::ProcessId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// The retired, map-backed timeout observer. Same observable behavior as
/// [`HeartbeatDetector`](crate::HeartbeatDetector); see the
/// [module docs](self) for why it is kept.
#[derive(Clone, Debug)]
pub struct MapDetector {
    suspect_after: u64,
    last_heard: BTreeMap<ProcessId, u64>,
    suspects: BTreeSet<ProcessId>,
    /// Min-heap of `(lease deadline, peer)`, lazily pruned.
    deadlines: BinaryHeap<Reverse<(u64, ProcessId)>>,
}

impl MapDetector {
    /// A detector that suspects a tracked peer after `suspect_after` ticks
    /// of silence.
    ///
    /// # Panics
    ///
    /// Panics if `suspect_after` is zero.
    pub fn new(suspect_after: u64) -> Self {
        assert!(suspect_after > 0, "suspect_after must be positive");
        MapDetector {
            suspect_after,
            last_heard: BTreeMap::new(),
            suspects: BTreeSet::new(),
            deadlines: BinaryHeap::new(),
        }
    }

    /// The configured silence threshold.
    pub fn suspect_after(&self) -> u64 {
        self.suspect_after
    }

    /// Starts monitoring `p`, treating `now` as the last life sign.
    pub fn track(&mut self, p: ProcessId, now: u64) {
        if !self.suspects.contains(&p) && !self.last_heard.contains_key(&p) {
            self.last_heard.insert(p, now);
            self.deadlines
                .push(Reverse((now.saturating_add(self.suspect_after), p)));
        }
    }

    /// Stops monitoring `p`; its suspicion status is dropped as well.
    pub fn forget(&mut self, p: ProcessId) {
        self.last_heard.remove(&p);
        self.suspects.remove(&p);
    }

    /// Records a life sign from `p`; ignored for suspects and strangers.
    pub fn heard_from(&mut self, p: ProcessId, now: u64) {
        if self.suspects.contains(&p) {
            return;
        }
        if let Some(t) = self.last_heard.get_mut(&p) {
            if now > *t {
                *t = now;
                let d = now.saturating_add(self.suspect_after);
                self.deadlines.push(Reverse((d, p)));
            }
        }
    }

    /// Marks `p` suspected. Returns `true` if this is a new suspicion.
    pub fn suspect(&mut self, p: ProcessId) -> bool {
        self.last_heard.remove(&p);
        self.suspects.insert(p)
    }

    /// Whether `p` is currently suspected.
    pub fn is_suspect(&self, p: ProcessId) -> bool {
        self.suspects.contains(&p)
    }

    /// Evaluates timeouts at `now`; newly suspected peers in ascending id
    /// order.
    pub fn tick(&mut self, now: u64) -> Vec<ProcessId> {
        let mut expired = Vec::new();
        while let Some(&Reverse((deadline, p))) = self.deadlines.peek() {
            if deadline > now {
                break;
            }
            self.deadlines.pop();
            if self.last_heard.get(&p) == Some(&deadline.saturating_sub(self.suspect_after)) {
                self.last_heard.remove(&p);
                self.suspects.insert(p);
                expired.push(p);
            }
        }
        expired.sort_unstable();
        expired
    }

    /// Iterator over currently tracked (unsuspected) peers, ascending.
    pub fn tracked(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.last_heard.keys().copied()
    }

    /// Iterator over all current suspects.
    pub fn suspects(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.suspects.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_the_basic_expiry_schedule() {
        let mut d = MapDetector::new(100);
        d.track(ProcessId(1), 0);
        d.track(ProcessId(2), 0);
        d.heard_from(ProcessId(1), 60);
        assert_eq!(d.tick(100), vec![ProcessId(2)]);
        assert_eq!(d.tick(160), vec![ProcessId(1)]);
        assert_eq!(d.suspect_after(), 100);
        assert!(d.suspects().count() == 2 && d.tracked().next().is_none());
    }

    #[test]
    fn oracle_forget_and_re_suspect() {
        let mut d = MapDetector::new(10);
        d.track(ProcessId(1), 0);
        assert!(d.suspect(ProcessId(1)));
        assert!(d.is_suspect(ProcessId(1)));
        d.forget(ProcessId(1));
        assert!(!d.is_suspect(ProcessId(1)));
        assert!(d.tick(1_000).is_empty());
    }
}
