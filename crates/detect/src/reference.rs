//! The retired `BTreeMap`-backed detector, kept as a behavioral oracle.
//!
//! [`MapDetector`] is the map-and-heap algorithm that
//! [`HeartbeatDetector`](crate::HeartbeatDetector) replaced: per-peer
//! leases in a `BTreeMap<ProcessId, u64>` and heap entries keyed by
//! `ProcessId`, with lazy deletion. It exists for the **equivalence
//! proptests** in `gmp-props`, which drive identical schedules of track /
//! heard_from / release / forget / tick through both implementations and
//! assert identical expiries at identical instants and identical enrolled
//! sets — the lease scan is pinned behaviorally, not just by golden
//! fingerprints.
//!
//! It is deliberately frozen: bugfixes that change *behavior* must land in
//! both implementations or the proptests will say so.

use gmp_types::ProcessId;
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};

/// The retired, map-backed timeout observer. Same observable behavior as
/// [`HeartbeatDetector`](crate::HeartbeatDetector); see the
/// [module docs](self) for why it is kept.
#[derive(Clone, Debug)]
pub struct MapDetector {
    suspect_after: u64,
    last_heard: BTreeMap<ProcessId, u64>,
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
            deadlines: BinaryHeap::new(),
        }
    }

    /// Starts monitoring `p`, treating `now` as the last life sign.
    pub fn track(&mut self, p: ProcessId, now: u64) {
        if let Entry::Vacant(lease) = self.last_heard.entry(p) {
            lease.insert(now);
            self.deadlines
                .push(Reverse((now.saturating_add(self.suspect_after), p)));
        }
    }

    /// Stops monitoring `p`. The oracle keeps no retired-id record, so
    /// this also stands for `forget`.
    pub fn release(&mut self, p: ProcessId) {
        self.last_heard.remove(&p);
    }

    /// Records a life sign from `p`; ignored for peers not tracked.
    pub fn heard_from(&mut self, p: ProcessId, now: u64) {
        if let Some(t) = self.last_heard.get_mut(&p) {
            if now > *t {
                *t = now;
                let d = now.saturating_add(self.suspect_after);
                self.deadlines.push(Reverse((d, p)));
            }
        }
    }

    /// Evaluates timeouts at `now`; the expired peers, no longer tracked,
    /// in ascending id order.
    pub fn tick(&mut self, now: u64) -> Vec<ProcessId> {
        let mut expired = Vec::new();
        while let Some(&Reverse((deadline, p))) = self.deadlines.peek() {
            if deadline > now {
                break;
            }
            self.deadlines.pop();
            if self.last_heard.get(&p) == Some(&deadline.saturating_sub(self.suspect_after)) {
                self.last_heard.remove(&p);
                expired.push(p);
            }
        }
        expired.sort_unstable();
        expired
    }

    /// Iterator over tracked peers, ascending.
    pub fn enrolled(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.last_heard.keys().copied()
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
        assert!(d.enrolled().next().is_none());
    }

    #[test]
    fn oracle_forget_and_re_suspect() {
        let mut d = MapDetector::new(10);
        d.track(ProcessId(1), 0);
        d.release(ProcessId(1)); // the oracle's `forget` as well
        d.track(ProcessId(1), 5); // the released lease's deadline 10 stays heaped
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [ProcessId(1)]);
        assert!(d.tick(14).is_empty(), "the stale deadline fires nothing");
        assert_eq!(d.tick(15), vec![ProcessId(1)]);
    }
}
