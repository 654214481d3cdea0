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
//! This crate provides the timeout-based observer ([`HeartbeatDetector`],
//! F1) and the monotone inbound filter ([`Isolation`], S1). The two are
//! kept apart: the detector is a lease table and nothing else, and S1 is
//! recorded once, in the owner's `Isolation`. An owner that comes to
//! believe `q` faulty — by timeout, gossip or injection, the *spurious*
//! detections §2.2 discusses — isolates `q` and
//! [`release`](HeartbeatDetector::release)s its lease, and never tracks an
//! isolated peer again. The filter is the owner's one record of
//! suspicion: it reads its faulty set off [`Isolation::iter`] (the
//! isolated ids, ascending) as the isolated members of its view. Gossip
//! (F2) is a protocol concern and lives in `gmp-core`, which piggybacks
//! faulty sets on protocol messages.
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

/// One enrolled peer.
#[derive(Clone, Debug)]
struct Slot {
    pid: ProcessId,
    /// Lease start (last life sign); `None` only in a free slot.
    lease: Option<u64>,
}

/// Timeout-based failure observer (source F1).
///
/// The detector is driven explicitly: the owner reports life signs with
/// [`heard_from`](HeartbeatDetector::heard_from) and polls
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
/// the slots, Θ(peers ever enrolled here), not the id index, which is
/// Θ(largest id) — a degree-4 member of a 1024-ring would pay for a
/// thousand empty entries per scan. The rare expired ids are sorted
/// afterwards, so suspicions come out in ascending id order at exactly
/// the instants a deadline heap would produce.
///
/// # A slot table behind an id index
///
/// Each enrolled peer has one slot: its id and its lease, so every
/// enrolled peer holds a lease. [`tick`](HeartbeatDetector::tick) frees
/// the slot of each peer it expires, and
/// [`release`](HeartbeatDetector::release) and
/// [`forget`](HeartbeatDetector::forget) free the slot they name; a freed
/// slot waits for the next enrolment. No handle leaves the detector —
/// every access goes through the id index, which never points at a freed
/// slot — so a recycled slot needs no generation: its new occupant starts
/// from a fresh lease, and nothing can still address the old one.
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
    /// `pid.index() → slot` of every enrolled peer ([`NO_SLOT`]
    /// otherwise), grown on demand or sized up front by
    /// [`reserve_ids`](Self::reserve_ids). Ids are small (initial members
    /// plus joiners), never `u32::MAX` (the pre-start sentinel).
    by_pid: Vec<u32>,
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
            next_due: u64::MAX,
            #[cfg(debug_assertions)]
            forgotten: BTreeSet::new(),
        }
    }

    /// `p`'s slot, if `p` is enrolled.
    #[inline]
    fn slot_of(&self, p: ProcessId) -> Option<usize> {
        let i = *self.by_pid.get(p.index())?;
        if i == NO_SLOT {
            return None;
        }
        debug_assert_eq!(self.slots[i as usize].pid, p, "id index out of step");
        Some(i as usize)
    }

    /// Sizes the id index to cover ids below `end` in one exact
    /// allocation, so the enrolments that follow never grow it: the owner
    /// calls this before tracking a batch of peers whose largest id + 1 is
    /// `end`, instead of letting ascending enrolments double the index to
    /// twice the largest id. No-op when the index already covers `end`.
    pub fn reserve_ids(&mut self, end: usize) {
        if let Some(more) = end.checked_sub(self.by_pid.len()) {
            self.by_pid.reserve_exact(more);
            self.by_pid.resize(end, NO_SLOT);
        }
    }

    /// How many ids the index has room for: the memory it holds, in
    /// entries.
    pub fn id_span(&self) -> usize {
        self.by_pid.capacity()
    }

    /// Every enrolled peer — each holds a lease — in ascending id order.
    pub fn enrolled(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.by_pid
            .iter()
            .enumerate()
            .filter(|&(_, &i)| i != NO_SLOT)
            .map(|(p, _)| ProcessId(p as u32))
    }

    /// Starts monitoring `p`, treating `now` as the last life sign (a grace
    /// period equal to the full timeout). A peer that was not enrolled gets
    /// a slot; tracking an enrolled peer is a no-op. The owner decides whom
    /// to track: it never tracks a peer it believes faulty.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `p` was previously
    /// [`forget`](HeartbeatDetector::forget)ten: process instances never
    /// return in the model, so re-tracking a retired id is a caller bug.
    pub fn track(&mut self, p: ProcessId, now: u64) {
        #[cfg(debug_assertions)]
        debug_assert!(
            !self.forgotten.contains(&p),
            "re-tracking forgotten process {p}: instances never return"
        );
        if self.slot_of(p).is_none() {
            self.enrol(p, now);
            // The one way an earlier deadline than the bound can appear.
            self.next_due = self.next_due.min(now.saturating_add(self.suspect_after));
        }
    }

    /// Gives `p` a slot — a free one if there is one — holding `lease`.
    fn enrol(&mut self, p: ProcessId, lease: u64) {
        debug_assert_ne!(p.0, u32::MAX, "the pre-start sentinel has no slot");
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
        if self.by_pid.len() <= p.index() {
            self.by_pid.resize(p.index() + 1, NO_SLOT);
        }
        self.by_pid[p.index()] = i;
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
    /// fresh slot and lease. Owners call it when they come to believe `p`
    /// faulty, and when a view change moves a still-live member out of
    /// their monitoring set (a sparse ring re-knits around every install,
    /// and a later change can move it back in). No-op for ids that are
    /// not enrolled (releasing an already-`forget`ten or expired peer must
    /// be harmless).
    pub fn release(&mut self, p: ProcessId) {
        if let Some(i) = self.slot_of(p) {
            self.free_slot(i);
        }
    }

    /// Returns slot `i` to the free list; its occupant is no longer
    /// enrolled.
    fn free_slot(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        slot.lease = None;
        self.by_pid[slot.pid.index()] = NO_SLOT;
        self.free.push(i as u32);
    }

    /// Records a life sign from `p`. Ignored for peers that are not
    /// enrolled: the detector monitors exactly the membership the owner
    /// registered via [`track`](HeartbeatDetector::track) — a message from
    /// a stranger (e.g. a joiner whose admission has not committed here
    /// yet) must not silently enroll it for suspicion.
    #[inline]
    pub fn heard_from(&mut self, p: ProcessId, now: u64) {
        // Every enrolled peer holds a lease, and a released, expired or
        // never-tracked one has no slot, so the index load is every check
        // there is.
        if let Some(i) = self.slot_of(p) {
            if let Some(t) = &mut self.slots[i].lease {
                // Stale information (`now <= *t`) must not shorten the
                // lease; a lease that only moves forward keeps `next_due`
                // a bound.
                *t = (*t).max(now);
            }
        }
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

/// The monotone isolation filter of system property S1.
///
/// "Once a process `p` believes another, `q`, to be faulty, `p` never
/// receives messages from `q` again" — including after `q`'s removal from
/// the view, and forever (process instances are never reused).
///
/// The filter is consulted for every received message, so it is a bitmap
/// indexed by `ProcessId` (ids are small and dense — the assumption the
/// detector's id index already makes: the bitmap is sized by the largest
/// id isolated). Its owner's faulty set is read off it with
/// [`iter`](Isolation::iter).
#[derive(Clone, Debug, Default)]
pub struct Isolation {
    /// Bit `q.index()` is set iff `q` is isolated; grown on demand.
    bits: Vec<u64>,
}

impl Isolation {
    /// An empty filter.
    pub fn new() -> Self {
        Isolation::default()
    }

    /// Adds `q` to the isolated set. Returns `true` if newly isolated.
    pub fn isolate(&mut self, q: ProcessId) -> bool {
        let (word, bit) = (q.index() / 64, 1u64 << (q.index() % 64));
        if self.bits.len() <= word {
            self.bits.resize(word + 1, 0);
        }
        let fresh = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        fresh
    }

    /// Whether messages from `q` must be discarded.
    #[inline]
    pub fn is_isolated(&self, q: ProcessId) -> bool {
        let word = self.bits.get(q.index() / 64).copied().unwrap_or(0);
        word >> (q.index() % 64) & 1 == 1
    }

    /// Every isolated id, in ascending order. Walks the set bits alone:
    /// O(words + isolated ids), one `trailing_zeros` per id.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let words = self.bits.iter().enumerate().filter(|&(_, &w)| w != 0);
        words.flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(ProcessId(i as u32 * 64 + bit))
            })
        })
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
        let mut iso = Isolation::new();
        assert!(!iso.is_isolated(P1));
        assert!(iso.isolate(P1));
        assert!(!iso.isolate(P1));
        assert!(iso.is_isolated(P1));
        assert!(!iso.is_isolated(P2));
    }

    #[test]
    fn isolation_iterates_ascending_across_bitmap_words() {
        let mut iso = Isolation::new();
        let isolated = [200, 3, 64, 63, 1_000];
        for q in isolated {
            assert!(iso.isolate(ProcessId(q)));
        }
        assert!(!iso.isolate(ProcessId(64)));
        for q in 0..=1_000 {
            assert_eq!(iso.is_isolated(ProcessId(q)), isolated.contains(&q), "p{q}");
        }
        // Ids past the bitmap's end read as not isolated, without growing it.
        assert!(!iso.is_isolated(ProcessId(1_001)));
        assert!(!iso.is_isolated(ProcessId(u32::MAX)));
        let ascending = isolated.iter().copied().collect::<BTreeSet<_>>();
        assert!(iso.iter().map(|p| p.0).eq(ascending));
    }

    proptest::proptest! {
        /// `iter` yields exactly the isolated ids, ascending, over random
        /// ids that straddle the bitmap's word edges (63 | 64, 127 | 128)
        /// and leave whole words empty.
        #[test]
        fn isolation_iter_matches_a_set_model(
            ids in proptest::collection::vec(0u32..400, 0..40),
            edges in proptest::collection::vec(0usize..4, 0..4),
        ) {
            let mut iso = Isolation::new();
            let mut model = BTreeSet::new();
            let edge_ids = edges.iter().map(|&e| [63, 64, 127, 128][e]);
            for q in ids.into_iter().chain(edge_ids) {
                proptest::prop_assert_eq!(iso.isolate(ProcessId(q)), model.insert(q));
            }
            proptest::prop_assert!(iso.iter().map(|p| p.0).eq(model.iter().copied()));
        }
    }
}
