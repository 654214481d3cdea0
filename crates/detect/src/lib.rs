//! Failure-detection substrate (§2.2 of the paper).
//!
//! Accurate crash detection is impossible in an asynchronous system; at best
//! a process can *suspect* another. The paper treats detections as input
//! events `faulty_p(q)` from two sources:
//!
//! * **F1 (Observation)** — a local mechanism (here: a timeout on hearing
//!   from the peer) decides in finite time after a real crash;
//! * **F2 (Gossip)** — learning of a suspicion from a message sent by a
//!   process that already held it.
//!
//! and imposes the isolation rule
//!
//! * **S1** — once `p` believes `q` faulty, `p` never receives a message
//!   from `q` again.
//!
//! This crate provides a process's one local detector,
//! [`HeartbeatDetector`]: the timeout-based observer (F1) and the monotone
//! inbound filter (S1) behind one id index. An owner that comes to believe
//! `q` faulty — by timeout, gossip or injection, the *spurious* detections
//! §2.2 discusses — [`isolate`](HeartbeatDetector::isolate)s it, which
//! frees `q`'s lease for good: every later
//! [`track`](HeartbeatDetector::track) of `q` is a no-op. Each received
//! message passes [`admit`](HeartbeatDetector::admit) once, which is S1
//! and the life sign in one index load. The isolated ids are the owner's
//! one record of suspicion: it reads its faulty set off
//! [`isolated`](HeartbeatDetector::isolated) (ascending) as the isolated
//! members of its view. Gossip (F2) is a protocol concern and lives in
//! `gmp-core`, which piggybacks faulty sets on protocol messages.
//!
//! The detector keeps one slot per enrolled peer: its id and its lease.
//! A life sign is one store into the peer's slot; expiry is a scan of the
//! slots, skipped while a cached lower bound says nothing can be due. The
//! retired map-and-heap implementation survives as
//! [`reference::MapDetector`] — a different algorithm, hence an
//! independent behavioral oracle for the equivalence proptests in
//! `gmp-props`.

use gmp_types::ProcessId;
#[cfg(debug_assertions)]
use std::collections::BTreeSet;

pub mod reference;

pub use reference::MapDetector;

/// `by_pid` entry of an id with no slot.
const NO_SLOT: u32 = u32::MAX;
/// `by_pid` entry of an isolated id.
const ISOLATED: u32 = u32::MAX - 1;
/// The id index covers ids below this only; a larger id never grows it.
/// The largest simulated group, E13's, has 4 096 processes.
const DENSE_IDS: usize = 1 << 16;

/// One enrolled peer.
#[derive(Clone, Debug)]
struct Slot {
    pid: ProcessId,
    /// Lease start (last life sign); `None` only in a free slot.
    lease: Option<u64>,
}

/// A process's local failure detector: timeout-based observation (source
/// F1) and the isolation filter of S1.
///
/// The detector is driven explicitly: the owner passes each received
/// message through [`admit`](HeartbeatDetector::admit) (or reports a bare
/// life sign with [`heard_from`](HeartbeatDetector::heard_from)) and polls
/// [`tick`](HeartbeatDetector::tick) from a periodic timer. Any received
/// message counts as a life sign, not just heartbeats — which matches the
/// paper's reading of "time" as a mere tool for suspecting crashes.
///
/// # A lease scan behind a lower bound
///
/// More than 99 % of what a member receives is a life sign, and the
/// question "has a lease run out?" is asked once per heartbeat period, so
/// the two are priced accordingly: a life sign is one store into the
/// peer's lease and nothing else, and [`tick`](HeartbeatDetector::tick)
/// scans the leases only when `now` has reached `next_due`, a cached
/// *lower bound* on the earliest lease deadline (lease + `suspect_after`).
/// The bound stays valid without being touched by life signs because
/// leases only move forward; [`track`](HeartbeatDetector::track) — the one
/// operation that can introduce an earlier deadline — lowers it with
/// `min`, removals leave it (a bound that is too low costs one scan, never
/// a missed expiry), and each scan recomputes it exactly. The scan walks
/// the slots, Θ(peers ever enrolled here), not the id index, which spans
/// the enrolled ids — a wrap-around member of a 1024-ring watches four
/// neighbours across the whole ring and would pay for a thousand empty
/// entries per scan. The rare expired ids are sorted afterwards, so
/// suspicions come out in ascending id order at exactly the instants a
/// deadline heap would produce.
///
/// # A slot table behind an id index
///
/// Each enrolled peer has one slot: its id and its lease, so every
/// enrolled peer holds a lease. [`tick`](HeartbeatDetector::tick) frees
/// the slot of each peer it expires, and
/// [`release`](HeartbeatDetector::release),
/// [`forget`](HeartbeatDetector::forget) and
/// [`isolate`](HeartbeatDetector::isolate) free the slot they name; a
/// freed slot waits for the next enrolment. No handle leaves the detector
/// — every access goes through the id index, which never points at a
/// freed slot — so a recycled slot needs no generation: its new occupant
/// starts from a fresh lease, and nothing can still address the old one.
///
/// # One index, bounded by no id
///
/// Each entry of the id index says "enrolled at slot `i`", "no slot" or
/// "isolated", so one load answers both S1 and the life sign. The index
/// is a window `lo .. lo + len` over the ids: it covers the span of the
/// ids enrolled below a fixed cap (2¹⁶), from the smallest to the
/// largest, not every id from 0, and an id's entry is one subtraction
/// away. A member that watches four ring neighbours indexes five ids
/// when their ids are contiguous, and the whole ring when they wrap
/// round past id 0. The isolated ids are also kept as a sorted list, the
/// one record of S1, which every entry the window covers mirrors. Only
/// enrolment grows the window — up by doubling its room, never past the
/// cap, down by shifting the index once into room for the whole new
/// window, each marking the isolated ids it newly covers — and it never
/// shrinks, so its worst case is `0 ..` the largest id enrolled. An id
/// named on the wire never sizes it: an isolated id outside the window
/// is found by binary search of the list, and an enrolled id at or past
/// the cap by a scan of the slots. [`monitor`](HeartbeatDetector::monitor)
/// sizes the window for a whole monitoring set at once, and
/// [`id_span`](HeartbeatDetector::id_span) reads the room it holds.
/// Storage is O(peers enrolled + ids isolated), plus an index over the
/// enrolled span.
///
/// # Invariant: process instances never return
///
/// The §2.1 model reuses no process identity: a crashed or excluded process
/// that "comes back" is a *new* instance with a fresh id. The detector
/// leans on that — [`forget`](HeartbeatDetector::forget) permanently
/// retires an id, and a later [`track`](HeartbeatDetector::track) of the
/// same id is a model violation that debug builds reject with a
/// `debug_assert` rather than silently restarting monitoring.
#[derive(Clone, Debug)]
pub struct HeartbeatDetector {
    suspect_after: u64,
    /// Enrolled peers and free slots, in enrolment order.
    slots: Vec<Slot>,
    /// Indices of free slots, reused last-freed first.
    free: Vec<u32>,
    /// `pid.index() - lo →` the peer's slot, [`NO_SLOT`] or [`ISOLATED`],
    /// for the ids of the window `lo .. lo + len`, which lies below
    /// [`DENSE_IDS`]. Grown on enrolment, or sized up front by
    /// [`monitor`](Self::monitor); never shrunk.
    by_pid: Vec<u32>,
    /// The first id the index covers.
    lo: usize,
    /// S1: every isolated id, ascending.
    isolated: Vec<ProcessId>,
    /// Lower bound on the earliest lease deadline (`u64::MAX`: no lease
    /// can be due); [`tick`](Self::tick) returns at once below it.
    next_due: u64,
    /// Ids retired by `forget`, kept (in debug builds only) to assert that
    /// no retired instance is ever tracked again — nor ever resurfaces
    /// from a recycled slot.
    #[cfg(debug_assertions)]
    forgotten: BTreeSet<ProcessId>,
}

impl HeartbeatDetector {
    /// A detector that suspects a tracked peer after `suspect_after` ticks
    /// of silence.
    ///
    /// # Panics
    ///
    /// Panics if `suspect_after` is zero.
    pub fn new(suspect_after: u64) -> Self {
        assert!(suspect_after > 0, "suspect_after must be positive");
        HeartbeatDetector {
            suspect_after,
            slots: Vec::new(),
            free: Vec::new(),
            by_pid: Vec::new(),
            lo: 0,
            isolated: Vec::new(),
            next_due: u64::MAX,
            #[cfg(debug_assertions)]
            forgotten: BTreeSet::new(),
        }
    }

    /// Where `p`'s entry sits in the index; past its end (wrapped round)
    /// for an id below the window.
    #[inline]
    fn at(&self, p: ProcessId) -> usize {
        p.index().wrapping_sub(self.lo)
    }

    /// What the index says of `p`: its slot, [`NO_SLOT`] or [`ISOLATED`].
    #[inline]
    fn entry(&self, p: ProcessId) -> u32 {
        let Some(&e) = self.by_pid.get(self.at(p)) else {
            return self.entry_past_index(p);
        };
        debug_assert!(
            e >= ISOLATED || self.slots[e as usize].pid == p,
            "id index out of step"
        );
        e
    }

    /// [`entry`](Self::entry) of an id the index does not cover. Enrolling
    /// an id below [`DENSE_IDS`] grows the window to cover it, so only a
    /// larger one can hold a slot here.
    #[cold]
    fn entry_past_index(&self, p: ProcessId) -> u32 {
        if self.isolated.binary_search(&p).is_ok() {
            return ISOLATED;
        }
        if p.index() < DENSE_IDS {
            return NO_SLOT;
        }
        let slot = self
            .slots
            .iter()
            .position(|s| s.pid == p && s.lease.is_some());
        slot.map_or(NO_SLOT, |i| i as u32)
    }

    /// Tracks each of `peers` (see [`track`](Self::track)) with `lease`
    /// as its last life sign, after widening the id index once to cover
    /// them all, from their smallest id to their largest: enrolments one
    /// at a time would otherwise shift the index down or double it up. A
    /// fresh index gets exactly that room. Ids from the cap on take no
    /// room in it.
    pub fn monitor(&mut self, peers: &[ProcessId], lease: u64) {
        let below = peers.iter().map(|p| p.index()).filter(|&i| i < DENSE_IDS);
        let (lo, hi) = below.fold((usize::MAX, 0), |(lo, hi), i| (lo.min(i), hi.max(i)));
        if lo <= hi {
            self.cover(lo, hi + 1);
        }
        for &p in peers {
            self.track(p, lease);
        }
    }

    /// How many ids the index has room for: the memory it holds, in
    /// entries. At least the span from the smallest to the largest id
    /// ever enrolled below the cap (or handed to
    /// [`monitor`](Self::monitor)), at most twice it, and never more than
    /// 2¹⁶, whatever ids the detector is handed.
    pub fn id_span(&self) -> usize {
        self.by_pid.capacity()
    }

    /// Every enrolled peer — each holds a lease — in ascending id order.
    pub fn enrolled(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let held = self.slots.iter().filter(|s| s.lease.is_some());
        let mut ids: Vec<ProcessId> = held.map(|s| s.pid).collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Starts monitoring `p`, treating `now` as the last life sign (a grace
    /// period equal to the full timeout). A peer that was not enrolled gets
    /// a slot; tracking an enrolled or an isolated peer is a no-op, so a
    /// peer believed faulty is never monitored again.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `p` was previously
    /// [`forget`](HeartbeatDetector::forget)ten and is not isolated:
    /// process instances never return in the model, so re-tracking a
    /// retired id is a caller bug.
    pub fn track(&mut self, p: ProcessId, now: u64) {
        if self.entry(p) != NO_SLOT {
            return;
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            !self.forgotten.contains(&p),
            "re-tracking forgotten process {p}: instances never return"
        );
        self.enrol(p, now);
        // The one way an earlier deadline than the bound can appear.
        self.next_due = self.next_due.min(now.saturating_add(self.suspect_after));
    }

    /// Gives `p` a slot — a free one if there is one — holding `lease`,
    /// and an index entry if `p` is below the cap.
    fn enrol(&mut self, p: ProcessId, lease: u64) {
        let slot = Slot {
            pid: p,
            lease: Some(lease),
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        if p.index() >= DENSE_IDS {
            return;
        }
        self.cover(p.index(), p.index() + 1);
        let at = self.at(p);
        self.by_pid[at] = i;
    }

    /// Grows the window to cover the ids `lo .. end`, all below the cap,
    /// and marks the isolated ids it newly covers. Growing down shifts
    /// the index once, into room for exactly the new window; growing up
    /// at least doubles the room, as `resize` would, but never past the
    /// cap, and gives a fresh index exactly the room it needs.
    fn cover(&mut self, lo: usize, end: usize) {
        if self.by_pid.is_empty() {
            self.lo = lo;
        }
        let (old_lo, old_end) = (self.lo, self.lo + self.by_pid.len());
        let end = end.max(old_end);
        if lo < old_lo {
            let mut by_pid = Vec::with_capacity(end - lo);
            by_pid.resize(old_lo - lo, NO_SLOT);
            by_pid.extend_from_slice(&self.by_pid);
            self.by_pid = by_pid;
            self.lo = lo;
            self.mark_isolated(lo, old_lo);
        }
        if end > old_end {
            let len = end - self.lo;
            let room = self.by_pid.capacity();
            if len > room {
                let room = (2 * room).clamp(len, DENSE_IDS - self.lo);
                self.by_pid.reserve_exact(room - self.by_pid.len());
            }
            self.by_pid.resize(len, NO_SLOT);
            self.mark_isolated(old_end, end);
        }
    }

    /// Marks the isolated ids of `from .. to`, which the window covers.
    fn mark_isolated(&mut self, from: usize, to: usize) {
        let start = self.isolated.partition_point(|q| q.index() < from);
        for q in self.isolated[start..].iter().take_while(|q| q.index() < to) {
            self.by_pid[q.index() - self.lo] = ISOLATED;
        }
    }

    /// Stops monitoring `p` for good (it was removed from the view): the
    /// slot is freed as by [`release`](HeartbeatDetector::release), and
    /// the id is *retired* — process instances never return in the model,
    /// so tracking it again is rejected (in debug builds) rather than
    /// silently restarting monitoring with a fresh lease.
    pub fn forget(&mut self, p: ProcessId) {
        self.release(p);
        #[cfg(debug_assertions)]
        self.forgotten.insert(p);
    }

    /// Stops monitoring `p` *without* retiring its id: the slot and its
    /// lease are freed for the next enrolment, and a later
    /// [`track`](HeartbeatDetector::track) legally re-enrols `p` under a
    /// fresh slot and lease. Owners call it when a view change moves a
    /// still-live member out of their monitoring set (a sparse ring
    /// re-knits around every install, and a later change can move it back
    /// in). No-op for ids that are not enrolled (releasing an
    /// already-`forget`ten, expired or isolated peer must be harmless).
    pub fn release(&mut self, p: ProcessId) {
        let e = self.entry(p);
        if e < ISOLATED {
            self.free_slot(e as usize);
        }
    }

    /// Returns slot `i` to the free list; its occupant is no longer
    /// enrolled.
    fn free_slot(&mut self, i: usize) {
        self.slots[i].lease = None;
        let at = self.at(self.slots[i].pid);
        if let Some(e) = self.by_pid.get_mut(at) {
            *e = NO_SLOT;
        }
        self.free.push(i as u32);
    }

    /// S1: from now on `q` is believed faulty, for good. Frees `q`'s slot,
    /// and every later [`track`](Self::track) of `q` is a no-op. Returns
    /// `true` if `q` was not isolated before.
    pub fn isolate(&mut self, q: ProcessId) -> bool {
        let Err(at) = self.isolated.binary_search(&q) else {
            return false;
        };
        self.release(q);
        self.isolated.insert(at, q);
        let at = self.at(q);
        if let Some(e) = self.by_pid.get_mut(at) {
            *e = ISOLATED;
        }
        true
    }

    /// Whether messages from `q` must be discarded.
    #[inline]
    pub fn is_isolated(&self, q: ProcessId) -> bool {
        self.entry(q) == ISOLATED
    }

    /// Every isolated id, in ascending order.
    pub fn isolated(&self) -> &[ProcessId] {
        &self.isolated
    }

    /// S1, then the life sign: whether a message from `q`, delivered at
    /// `now`, may be received. `false` if `q` is isolated; otherwise
    /// renews `q`'s lease if it is enrolled. One index load for every id
    /// the index covers.
    #[inline]
    pub fn admit(&mut self, q: ProcessId, now: u64) -> bool {
        match self.entry(q) {
            ISOLATED => false,
            NO_SLOT => true,
            i => {
                if let Some(t) = &mut self.slots[i as usize].lease {
                    // Stale information (`now <= *t`) must not shorten the
                    // lease; a lease that only moves forward keeps
                    // `next_due` a bound.
                    *t = (*t).max(now);
                }
                true
            }
        }
    }

    /// Records a life sign from `p`. Ignored for peers that are not
    /// enrolled: the detector monitors exactly the membership the owner
    /// registered via [`track`](HeartbeatDetector::track) — a message from
    /// a stranger (e.g. a joiner whose admission has not committed here
    /// yet) must not silently enroll it for suspicion.
    #[inline]
    pub fn heard_from(&mut self, p: ProcessId, now: u64) {
        // A released, expired, isolated or never-tracked peer has no
        // slot, so `admit`'s index load is every check there is.
        let _ = self.admit(p, now);
    }

    /// Evaluates timeouts at time `now`, returning the peers newly suspected
    /// by observation (F1), in ascending id order. Each is un-enrolled: its
    /// slot is freed, and only a later [`track`](HeartbeatDetector::track)
    /// would monitor it again.
    ///
    /// Cost: one comparison while `now` is below the cached bound on the
    /// earliest deadline — every call between two heartbeat rounds — and
    /// otherwise one pass over the slots, which expires what is due and
    /// recomputes the bound. A lease whose deadline would overflow `u64`
    /// never expires.
    pub fn tick(&mut self, now: u64) -> Vec<ProcessId> {
        if now < self.next_due {
            return Vec::new();
        }
        let mut expired = Vec::new();
        let mut next_due = u64::MAX;
        for i in 0..self.slots.len() {
            let Some(t) = self.slots[i].lease else {
                continue;
            };
            // `now - t`, not `t + suspect_after`: exact at any magnitude.
            if now.saturating_sub(t) < self.suspect_after {
                next_due = next_due.min(t.saturating_add(self.suspect_after));
            } else {
                expired.push(self.slots[i].pid);
                self.free_slot(i);
            }
        }
        self.next_due = next_due;
        // Slot order is enrolment order; suspicions are reported (and
        // deterministic replay depends on them being) in ascending id order.
        expired.sort_unstable();
        #[cfg(debug_assertions)]
        debug_assert!(
            expired.iter().all(|p| !self.forgotten.contains(p)),
            "a forgotten id resurfaced from a recycled slot: {expired:?}"
        );
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const P1: ProcessId = ProcessId(1);
    const P2: ProcessId = ProcessId(2);

    #[test]
    fn timeout_suspects_silent_peer() {
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 0);
        d.track(P2, 0);
        assert!(d.tick(50).is_empty());
        d.heard_from(P1, 60);
        let suspected = d.tick(100);
        assert_eq!(suspected, vec![P2]);
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [P1]);
        // P1 expires later.
        assert_eq!(d.tick(160), vec![P1]);
    }

    #[test]
    fn life_signs_do_not_move_backwards() {
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 50);
        d.heard_from(P1, 40); // stale information must not shorten the lease
        assert!(d.tick(149).is_empty());
        assert_eq!(d.tick(150), vec![P1]);
    }

    #[test]
    fn strangers_are_not_enrolled_by_their_messages() {
        let mut d = HeartbeatDetector::new(100);
        d.heard_from(P2, 10); // never tracked: must not be monitored
        assert!(d.tick(10_000).is_empty());
        assert!(d.enrolled().next().is_none());
    }

    #[test]
    fn suspicion_is_sticky() {
        // An expired peer's life signs neither revive its lease nor let it
        // expire a second time.
        let mut d = HeartbeatDetector::new(10);
        d.track(P1, 0);
        assert_eq!(d.tick(10), vec![P1]);
        d.heard_from(P1, 15);
        assert!(d.enrolled().next().is_none());
        assert!(d.tick(1_000).is_empty());
    }

    #[test]
    fn tick_un_enrolls_what_it_expires_and_track_re_enrols_afresh() {
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 0);
        d.track(P2, 0);
        d.heard_from(P2, 50);
        assert_eq!(d.tick(100), vec![P1]);
        assert_eq!(
            d.enrolled().collect::<Vec<_>>(),
            [P2],
            "expiry frees the slot"
        );
        d.track(P1, 300); // re-enrolled with its own lease, not the old one
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [P1, P2]);
        assert_eq!(d.tick(399), vec![P2]);
        assert_eq!(d.tick(400), vec![P1], "a fresh lease, a full timeout");
        assert!(d.enrolled().next().is_none());
    }

    #[test]
    fn forget_removes_all_state() {
        let mut d = HeartbeatDetector::new(10);
        d.track(P1, 0);
        d.forget(P1);
        assert!(d.enrolled().next().is_none());
        assert!(d.tick(1_000).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "instances never return")]
    fn re_tracking_a_forgotten_id_is_rejected() {
        let mut d = HeartbeatDetector::new(10);
        d.track(P1, 0);
        d.forget(P1);
        d.track(P1, 50); // model violation: the instance was retired
    }

    #[test]
    fn renewed_leases_leave_only_stale_heap_entries() {
        // Several life signs per peer: each renewal supersedes the previous
        // deadline, and only the *latest* lease decides expiry.
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 0);
        for t in [10, 20, 30, 250] {
            d.heard_from(P1, t);
        }
        assert!(
            d.tick(349).is_empty(),
            "stale deadlines (110..=130) must not fire at 349"
        );
        assert_eq!(d.tick(350), vec![P1], "the live lease expires at 250+100");
    }

    #[test]
    fn simultaneous_expiries_surface_in_ascending_id_order() {
        // The scan meets leases in slot order — enrolment order, shuffled
        // further by recycling — yet equal deadlines must come out
        // ascending by id.
        let mut d = HeartbeatDetector::new(50);
        for p in [7, 3, 9, 1, 5].map(ProcessId) {
            d.track(p, 0);
        }
        d.forget(ProcessId(3));
        d.track(ProcessId(8), 0); // recycles slot 1, between 7 and 9
        let expired = d.tick(50);
        assert_eq!(expired, [1, 5, 7, 8, 9].map(ProcessId).to_vec());
        assert!(d.enrolled().next().is_none());
    }

    #[test]
    fn a_peer_tracked_after_a_scan_lowers_the_cached_bound() {
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 0);
        d.heard_from(P1, 450);
        assert!(d.tick(100).is_empty()); // scans; the bound becomes 550
        d.track(P2, 200); // deadline 300, earlier than the bound
        assert!(d.tick(299).is_empty());
        assert_eq!(d.tick(300), vec![P2], "suspected on time, not at 550");
        assert!(d.tick(549).is_empty());
        assert_eq!(d.tick(550), vec![P1]);
    }

    #[test]
    fn re_knits_and_recycled_slots_neither_resurrect_nor_miss_a_suspicion() {
        let mut d = HeartbeatDetector::new(100);
        let p9 = ProcessId(9);
        d.track(P1, 0);
        d.track(P2, 0);
        d.heard_from(P2, 80);
        d.release(P1); // a re-knit moves P1 out, deadline 100 still cached
        assert!(d.tick(100).is_empty(), "a released lease cannot expire");
        d.track(P1, 120); // and back in: a fresh slot 0, deadline 220
        d.forget(P2); // exclusion frees slot 1 ...
        d.track(p9, 50); // ... for a joiner whose lease predates the scan
        d.heard_from(P2, 140); // a late beat of the retired id
        assert!(d.tick(149).is_empty());
        assert_eq!(d.tick(150), vec![p9], "below the scanned bound of 180");
        assert!(d.tick(219).is_empty());
        assert_eq!(d.tick(220), vec![P1], "the fresh lease, not the old one");
        assert!(
            d.enrolled().next().is_none(),
            "the retired id never resurfaces"
        );
        assert!(d.tick(u64::MAX).is_empty(), "nothing fires twice");
    }

    #[test]
    fn deadlines_beyond_u64_saturate_without_a_spurious_expiry() {
        let suspect_after = u64::MAX - 10;
        let mut d = HeartbeatDetector::new(suspect_after);
        let mut oracle = MapDetector::new(suspect_after);
        for (p, t) in [(P1, 5), (P2, 100)] {
            d.track(p, t); // P1 is due at MAX - 5, P2 beyond the clock
            oracle.track(p, t);
        }
        for now in [u64::MAX - 6, u64::MAX - 5, u64::MAX] {
            let expired = d.tick(now);
            assert_eq!(expired, oracle.tick(now), "tick at {now}");
            assert_eq!(expired.contains(&P1), now == u64::MAX - 5);
        }
        assert_eq!(d.enrolled().collect::<Vec<_>>(), vec![P2]);
    }

    #[test]
    fn gossip_suspicion_invalidates_the_pending_deadline() {
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 0);
        d.track(P2, 0);
        d.release(P1); // suspected via gossip before the timeout
        assert_eq!(
            d.tick(100),
            vec![P2],
            "P1's stale deadline must not re-report it"
        );
    }

    #[test]
    fn forgotten_entry_cannot_resurface_after_slot_reuse() {
        // When the detector recycles a forgotten peer's slot for a
        // newcomer with the *same deadline value*, whatever the forgotten
        // peer left behind (its share of the cached bound) must neither
        // suspect the retired id nor the slot's new occupant ahead of its
        // own lease.
        let mut d = HeartbeatDetector::new(100);
        let p9 = ProcessId(9);
        d.track(P1, 0); // lease at slot 0, deadline 100
        d.forget(P1); // frees slot 0, the lease goes with it
        d.track(p9, 0); // recycles slot 0, same deadline 100

        assert_eq!(
            d.enrolled().collect::<Vec<_>>(),
            [p9],
            "the newcomer is enrolled"
        );
        // One scan at t=100 meets one lease, the newcomer's, and suspects
        // it exactly once, at its own expiry.
        assert!(d.tick(99).is_empty());
        assert_eq!(d.tick(100), vec![p9], "only the live lease fires");
        assert!(d.enrolled().next().is_none(), "expiry frees the slot");
        assert!(d.tick(10_000).is_empty(), "nothing fires twice");
    }

    #[test]
    fn forgotten_entry_is_discarded_even_with_a_renewed_occupant() {
        // Variant: the newcomer renews its lease past the old deadline, so
        // at the time the bound still points to *no* lease is due — the slot
        // must stay silent until the renewed lease itself expires.
        let mut d = HeartbeatDetector::new(100);
        let p9 = ProcessId(9);
        d.track(P1, 0);
        d.forget(P1);
        d.track(p9, 0);
        d.heard_from(p9, 50); // live deadline moves to 150
        assert!(d.tick(100).is_empty(), "the old deadline fires nothing");
        assert_eq!(d.tick(150), vec![p9]);
    }

    #[test]
    fn release_allows_re_tracking() {
        // Unlike `forget`, `release` models a topology shift: the peer is
        // still a live group member, just no longer monitored here. It may
        // come back.
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 0);
        d.release(P1);
        assert!(d.enrolled().next().is_none(), "released slot is freed");
        assert!(d.tick(10_000).is_empty(), "no lease left to expire");
        d.track(P1, 500); // legal: the id was not retired
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [P1]);
        assert_eq!(d.tick(600), vec![P1], "fresh lease, fresh timeout");
    }

    #[test]
    fn release_of_a_stranger_or_forgotten_peer_is_a_no_op() {
        let mut d = HeartbeatDetector::new(100);
        d.release(P1); // never enrolled
        d.track(P2, 0);
        d.forget(P2);
        d.release(P2); // already retired by the view change
        assert!(d.tick(10_000).is_empty());
        #[cfg(debug_assertions)]
        {
            // `release` after `forget` must not un-retire the id.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut d2 = d.clone();
                d2.track(P2, 50);
            }));
            assert!(result.is_err(), "forgotten id stays forgotten");
        }
    }

    #[test]
    fn stale_heap_entries_from_a_released_slot_die_on_generation() {
        // Release leaves a too-low bound behind, like forget; a recycled
        // slot must not inherit the released peer's deadline through it.
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 0); // bound 100 (slot 0)
        d.release(P1);
        d.track(P2, 0); // recycles slot 0, deadline 100
        d.heard_from(P2, 50);
        assert!(d.tick(100).is_empty(), "the scan finds only P2's lease");
        assert_eq!(d.tick(150), vec![P2]);
    }

    #[test]
    fn a_freed_slot_is_unreachable_through_its_old_id() {
        // Every access goes through the id index, so a life sign for a
        // retired or released id never renews the next occupant of its
        // slot: the newcomer expires at its own deadline.
        let mut d = HeartbeatDetector::new(100);
        let p9 = ProcessId(9);
        d.track(P1, 0);
        d.forget(P1);
        d.track(p9, 0); // recycles P1's slot
        d.heard_from(P1, 90);
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [p9]);
        assert_eq!(d.tick(100), vec![p9], "a retired id never aliases");

        // A released slot is just as unreachable through the released id.
        d.track(P2, 100);
        d.release(P2);
        d.track(ProcessId(3), 100); // recycles P2's slot
        d.heard_from(P2, 190);
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [ProcessId(3)]);
        assert_eq!(
            d.tick(200),
            vec![ProcessId(3)],
            "a released id never aliases"
        );
    }

    #[test]
    fn a_recycled_slot_starts_from_a_fresh_lease() {
        // Nothing outside the detector can address a freed slot, so
        // recycling it only has to give the newcomer its own lease.
        let mut d = HeartbeatDetector::new(100);
        let p9 = ProcessId(9);
        d.track(P1, 0);
        d.track(P2, 10);
        d.heard_from(P1, 60);
        d.forget(P1);
        d.track(p9, 10); // recycles P1's slot, lease 10 rather than 60
        assert!(d.tick(109).is_empty());
        assert_eq!(d.tick(110), vec![P2, p9], "a newcomer never inherits");
        assert!(d.enrolled().next().is_none());

        // A topology shift frees the slot; coming back starts afresh.
        let p5 = ProcessId(5);
        d.track(p5, 100);
        d.heard_from(p5, 180);
        d.release(p5);
        assert!(d.enrolled().next().is_none());
        d.track(p5, 150);
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [p5]);
        assert_eq!(d.tick(250), vec![p5], "release then track resets the lease");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_timeout_rejected() {
        let _ = HeartbeatDetector::new(0);
    }

    #[test]
    fn isolation_is_monotone() {
        let mut d = HeartbeatDetector::new(100);
        d.track(P1, 0);
        assert!(!d.is_isolated(P1));
        assert!(d.isolate(P1));
        assert!(!d.isolate(P1));
        assert!(d.is_isolated(P1));
        assert!(!d.is_isolated(P2));
        assert!(d.enrolled().next().is_none(), "isolation frees the lease");
        d.track(P1, 50); // a no-op: an isolated peer is never monitored
        assert!(d.enrolled().next().is_none());
        assert!(d.tick(10_000).is_empty());
        assert!(!d.admit(P1, 60), "S1 drops its messages");
        assert!(d.admit(P2, 60), "a stranger's messages are received");
    }

    #[test]
    fn isolated_ids_are_found_past_the_index_without_growing_it() {
        let mut d = HeartbeatDetector::new(100);
        let isolated = [200, 3, 64, 63, 1_000, u32::MAX];
        for q in isolated {
            assert!(d.isolate(ProcessId(q)));
        }
        assert!(!d.isolate(ProcessId(64)));
        assert_eq!(d.id_span(), 0, "isolation alone takes no index room");
        // Tracking p70 gives the index a window of one id: 3, 63 and 64
        // stay outside it, for the binary search to find.
        d.track(ProcessId(70), 0);
        assert!(d.id_span() <= 71);
        for q in (0..=1_001).chain([u32::MAX - 1, u32::MAX]) {
            assert_eq!(d.is_isolated(ProcessId(q)), isolated.contains(&q), "p{q}");
        }
        let ascending = isolated.iter().copied().collect::<BTreeSet<_>>();
        assert!(d.isolated().iter().map(|p| p.0).eq(ascending));
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [ProcessId(70)]);
    }

    #[test]
    fn ids_from_the_cap_on_enrol_without_index_room() {
        let (cap, top) = (ProcessId(DENSE_IDS as u32), ProcessId(u32::MAX));
        let mut d = HeartbeatDetector::new(100);
        d.monitor(&[top, P1, cap], 0);
        assert!(d.id_span() <= 2, "only p1 takes index room");
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [P1, cap, top]);
        assert!(d.admit(top, 50));
        assert_eq!(d.tick(100), [P1, cap], "p{} renewed its lease", top.0);
        assert!(d.isolate(top));
        assert!(!d.admit(top, 120) && d.is_isolated(top));
        d.track(top, 120);
        assert!(d.enrolled().next().is_none());
        assert!(d.tick(10_000).is_empty(), "isolation freed the lease");
    }

    #[test]
    fn downward_growth_re_marks_the_isolated_ids_it_covers() {
        let (p1, p3, p10) = (ProcessId(1), ProcessId(3), ProcessId(10));
        let mut d = HeartbeatDetector::new(100);
        assert!(d.isolate(p3));
        d.track(p10, 0);
        assert!(d.id_span() < 11, "the window starts at p10, not at p0");
        d.track(p1, 0); // shifts the window down to p1, past p3
        assert_eq!(d.id_span(), 10, "room for exactly p1 ..= p10");
        assert!(d.is_isolated(p3));
        d.track(p3, 0);
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [p1, p10], "p3 stays out");
        assert!(!d.admit(p3, 10), "S1 still drops p3's messages");
        assert!(d.admit(p1, 10) && d.admit(p10, 10));
    }

    #[test]
    fn ids_on_both_sides_of_the_window_reach_their_own_leases() {
        let (p2, p700, top) = (ProcessId(2), ProcessId(700), ProcessId(65_535));
        let mut d = HeartbeatDetector::new(100);
        d.track(p700, 0);
        d.track(p2, 0); // grows the window down
        d.track(top, 0); // and up, to the last id below the cap
        let span = d.id_span();
        assert!(
            (65_534..=DENSE_IDS).contains(&span),
            "p2 ..= p65535: {span}"
        );
        assert_eq!(d.enrolled().collect::<Vec<_>>(), [p2, p700, top]);
        assert!(d.admit(p700, 50), "renews p700's lease alone");
        d.release(p2);
        assert_eq!(d.tick(100), [top], "p2 was released, p700 renewed");
        assert!(d.tick(149).is_empty());
        assert_eq!(d.tick(150), [p700]);
        assert!(d.enrolled().next().is_none());
        d.track(p2, 200);
        assert_eq!(d.tick(300), [p2], "a fresh lease in p2's old entry");
    }

    #[test]
    fn the_index_never_holds_room_past_the_cap() {
        let mut d = HeartbeatDetector::new(100);
        d.monitor(&[ProcessId(0), ProcessId(40_000)], 0);
        assert_eq!(d.id_span(), 40_001, "a fresh index gets exact room");
        d.monitor(&[ProcessId(65_535)], 0); // doubling would make 80 002
        assert_eq!(d.id_span(), DENSE_IDS);
        let mut d = HeartbeatDetector::new(100);
        for p in [1, 2, 3, 40_000, 65_535] {
            d.track(ProcessId(p), 0);
        }
        assert!(d.id_span() <= DENSE_IDS, "room for {}", d.id_span());
    }

    /// One id of the model proptest: from `0..200`, from the whole `u32`
    /// range, or an edge that uniform draws never hit.
    fn model_id(kind: u8, small: u32, wide: u32) -> ProcessId {
        let cap = DENSE_IDS as u32;
        let edges = [0, cap - 1, cap, u32::MAX - 1, u32::MAX];
        ProcessId(match kind {
            0 => wide,
            1 => edges[small as usize % edges.len()],
            _ => small,
        })
    }

    proptest::proptest! {
        /// Interleaved track, isolate, release, forget, admit and tick
        /// over ids drawn from `0..200`, from the whole `u32` range and
        /// from its edges: after every step `is_isolated` (of every id
        /// named so far), `isolated()` and `enrolled()` match `BTreeSet`
        /// models, no isolated id is enrolled, and the index's window spans
        /// at most the ids below the cap that were ever enrolled, in room
        /// for at most twice them and at most the cap.
        #[test]
        fn the_id_index_matches_a_set_model(
            steps in proptest::collection::vec(
                (0u8..7, 0u8..5, 0u32..200, 0u32..=u32::MAX, 0u64..40),
                1..120,
            ),
        ) {
            let mut d = HeartbeatDetector::new(100);
            let mut isolated = BTreeSet::new();
            let mut enrolled = BTreeSet::new();
            let mut forgotten = BTreeSet::new();
            let mut named = BTreeSet::new();
            // Smallest and largest id below the cap ever enrolled.
            let mut span: Option<(usize, usize)> = None;
            let mut now = 0;
            for (op, kind, small, wide, dt) in steps {
                now += dt;
                let p = model_id(kind, small, wide);
                named.insert(p);
                match op {
                    // Instances never return: nobody re-tracks a
                    // forgotten id.
                    0 | 1 if forgotten.contains(&p) => {}
                    0 | 1 => {
                        d.track(p, now);
                        if !isolated.contains(&p) {
                            enrolled.insert(p);
                            if p.index() < DENSE_IDS {
                                let (lo, hi) = span.unwrap_or((p.index(), p.index()));
                                span = Some((lo.min(p.index()), hi.max(p.index())));
                            }
                        }
                    }
                    2 => {
                        proptest::prop_assert_eq!(d.isolate(p), isolated.insert(p));
                        enrolled.remove(&p);
                    }
                    3 => {
                        d.release(p);
                        enrolled.remove(&p);
                    }
                    4 => {
                        d.forget(p);
                        enrolled.remove(&p);
                        forgotten.insert(p);
                    }
                    5 => proptest::prop_assert_eq!(d.admit(p, now), !isolated.contains(&p)),
                    _ => {
                        for q in d.tick(now) {
                            proptest::prop_assert!(enrolled.remove(&q), "{q} expired unenrolled");
                        }
                    }
                }
                for &q in &named {
                    proptest::prop_assert_eq!(d.is_isolated(q), isolated.contains(&q), "{}", q);
                }
                proptest::prop_assert!(d.isolated().iter().eq(&isolated));
                proptest::prop_assert!(d.enrolled().eq(enrolled.iter().copied()));
                proptest::prop_assert!(d.enrolled().all(|q| !d.is_isolated(q)));
                proptest::prop_assert!(d.id_span() <= DENSE_IDS);
                let most = span.map_or(0, |(lo, hi)| hi - lo + 1);
                proptest::prop_assert!(d.by_pid.len() <= most, "spans {} > {}", d.by_pid.len(), most);
                proptest::prop_assert!(d.id_span() <= 2 * most, "room {} > 2 × {}", d.id_span(), most);
            }
        }
    }
}
