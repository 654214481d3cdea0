//! Index-addressed per-peer state: dense slot arenas behind a
//! generation-stamped roster.
//!
//! The protocol keeps several pieces of *hot* per-peer bookkeeping —
//! heartbeat leases, digest-epoch marks, GMP-5 report throttles — that are
//! touched on every tick and every message receipt. Keying them by
//! [`ProcessId`] in ordered maps costs a tree walk per
//! touch and scatters each peer's state across the heap. This module
//! flattens that state into dense arrays:
//!
//! * a [`PeerRoster`] resolves a `ProcessId` to a dense [`PeerIdx`] once
//!   (per message, or per view install), reusing tombstoned slots of
//!   excluded members for newcomers;
//! * any number of [`Arena`]s — one per kind of per-peer state — are then
//!   addressed by that index in O(1), no hashing and no tree walk.
//!
//! # Generations make slot reuse safe
//!
//! Because an excluded member's slot is recycled for the next joiner, a
//! bare index could smuggle the dead peer's state into the newcomer's
//! lap — precisely the "stale lease resurfaces as a suspicion" hazard.
//! Every slot therefore carries a [`Gen`]eration that is bumped on reuse,
//! and every handed-out handle is a [`PeerRef`] embedding the generation
//! it was resolved under. An [`Arena`] access checks the generation, so a
//! handle can only ever touch state written under its *own* occupant:
//! the newcomer never inherits the dead peer's leftovers, and a retired
//! handle can never shadow the newcomer's state. Cross-occupant aliasing
//! is unrepresentable rather than merely unlikely.
//!
//! # Example
//!
//! ```
//! use gmp_types::{Arena, PeerRoster, ProcessId};
//!
//! let mut roster = PeerRoster::new();
//! let mut leases: Arena<u64> = Arena::new();
//!
//! let p1 = roster.insert(ProcessId(1));
//! leases.set(p1, 400);
//! assert_eq!(leases.get(p1), Some(&400));
//!
//! // Exclude p1; a joiner reuses the slot under a fresh generation.
//! roster.remove(ProcessId(1));
//! let p9 = roster.insert(ProcessId(9));
//! assert_eq!(p9.idx(), p1.idx(), "slot is recycled");
//!
//! // The dead peer's lease cannot leak into the newcomer's state,
//! // and once the newcomer writes, the retired handle sees nothing.
//! assert_eq!(leases.get(p9), None, "fresh occupant starts empty");
//! leases.set(p9, 900);
//! assert_eq!(leases.get(p1), None, "retired handle never aliases");
//! ```

use crate::ProcessId;

/// Dense index of a peer's slot in a [`PeerRoster`] (and in every [`Arena`]
/// that shares its index space).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerIdx(u32);

impl PeerIdx {
    /// The raw array offset.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Generation of a roster slot, bumped each time the slot is recycled for a
/// new occupant. See the [module docs](self) for why this exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gen(u32);

/// A generation-stamped handle to a peer's slot: the pair (slot, occupant).
///
/// A `PeerRef` resolved while some peer occupied a slot never aliases the
/// slot's later occupants — arena accesses through it fail closed once the
/// roster recycles the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerRef {
    idx: PeerIdx,
    gen: Gen,
}

impl PeerRef {
    /// The dense slot index.
    #[inline]
    pub fn idx(self) -> PeerIdx {
        self.idx
    }

    /// The generation this handle was resolved under.
    #[inline]
    pub fn gen(self) -> Gen {
        self.gen
    }
}

#[derive(Clone, Debug)]
struct RosterSlot {
    pid: ProcessId,
    gen: Gen,
    live: bool,
}

/// The `ProcessId → PeerIdx` remap: assigns each tracked peer a dense slot,
/// tombstones slots of removed peers, and recycles tombstones (bumping the
/// generation) for later insertions.
///
/// Lookup by id is one indexed load (`by_pid[pid]` holds the whole
/// handle), not a search; iteration yields live peers in
/// ascending-`ProcessId` order so callers that expose sorted views
/// (detector `tracked()`, GMP-5 report sets) stay byte-identical to their
/// former `BTreeMap`-backed selves.
#[derive(Clone, Debug, Default)]
pub struct PeerRoster {
    /// `pid.index() → handle` of every live peer, grown on demand or sized
    /// up front by [`reserve_ids`](Self::reserve_ids). Ids are small
    /// (initial members plus joiners), never `u32::MAX` (the pre-start
    /// sentinel). Each entry's generation is a copy of its slot's, kept
    /// equal by `insert` and `remove` and checked by `debug_assert`.
    by_pid: Vec<Option<PeerRef>>,
    slots: Vec<RosterSlot>,
    free: Vec<PeerIdx>,
}

impl PeerRoster {
    /// An empty roster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (non-tombstoned) peers.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no peer is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (live + tombstoned) — the index space an
    /// [`Arena`] sharing this roster must cover.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Registers `pid`, returning its handle. Idempotent for an already-live
    /// peer; a tombstoned slot is recycled under a bumped generation.
    pub fn insert(&mut self, pid: ProcessId) -> PeerRef {
        debug_assert_ne!(pid.0, u32::MAX, "the pre-start sentinel has no slot");
        if let Some(r) = self.resolve(pid) {
            return r;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx.index()];
                slot.pid = pid;
                // Wrapping: a slot recycled `u32::MAX + 1` times returns to
                // generation 0. Staleness checks are exact equality (plus a
                // modular ordering in `Arena::set`), so wraparound only
                // matters to a handle held across 2^32 recycles of one slot
                // — out of contract by a factor of billions (recycles are
                // bounded by view changes).
                slot.gen = Gen(slot.gen.0.wrapping_add(1));
                slot.live = true;
                idx
            }
            None => {
                let idx = PeerIdx(self.slots.len() as u32);
                self.slots.push(RosterSlot {
                    pid,
                    gen: Gen(0),
                    live: true,
                });
                idx
            }
        };
        if self.by_pid.len() <= pid.index() {
            self.by_pid.resize(pid.index() + 1, None);
        }
        let r = PeerRef {
            idx,
            gen: self.slots[idx.index()].gen,
        };
        self.by_pid[pid.index()] = Some(r);
        r
    }

    /// Sizes the id index to cover ids below `end` in one exact
    /// allocation, so the inserts that follow never grow it. An owner that
    /// knows its largest id up front (a member at each view install) calls
    /// this once instead of letting ascending inserts double the index to
    /// twice the largest id. No-op when the index already covers `end`.
    pub fn reserve_ids(&mut self, end: usize) {
        if let Some(more) = end.checked_sub(self.by_pid.len()) {
            self.by_pid.reserve_exact(more);
            self.by_pid.resize(end, None);
        }
    }

    /// How many ids the index has room for: the memory it holds, in
    /// entries.
    pub fn id_span(&self) -> usize {
        self.by_pid.capacity()
    }

    /// Tombstones `pid`'s slot for recycling. Returns the retired handle,
    /// or `None` if `pid` was not live.
    pub fn remove(&mut self, pid: ProcessId) -> Option<PeerRef> {
        let r = self.resolve(pid)?;
        self.slots[r.idx.index()].live = false;
        self.by_pid[pid.index()] = None;
        self.free.push(r.idx);
        Some(r)
    }

    /// The current handle for `pid`, or `None` if it is not live.
    #[inline]
    pub fn resolve(&self, pid: ProcessId) -> Option<PeerRef> {
        let r = self.by_pid.get(pid.index()).copied().flatten();
        debug_assert!(r.is_none_or(|r| self.pid_of(r) == Some(pid)));
        r
    }

    /// True when `pid` is live.
    #[inline]
    pub fn contains(&self, pid: ProcessId) -> bool {
        self.resolve(pid).is_some()
    }

    /// The id occupying `r`'s slot — `None` if the slot has been recycled
    /// or tombstoned since `r` was resolved.
    pub fn pid_of(&self, r: PeerRef) -> Option<ProcessId> {
        let slot = self.slots.get(r.idx.index())?;
        (slot.live && slot.gen == r.gen).then_some(slot.pid)
    }

    /// Test-only: pins a live slot's generation, so wraparound tests reach
    /// the `u32::MAX` boundary without four billion recycles.
    #[cfg(test)]
    fn force_gen(&mut self, pid: ProcessId, gen: Gen) {
        let r = self.by_pid[pid.index()]
            .as_mut()
            .expect("force_gen targets a live peer");
        r.gen = gen;
        self.slots[r.idx.index()].gen = gen;
    }

    /// Live peers in ascending-`ProcessId` order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, PeerRef)> + '_ {
        self.by_pid.iter().enumerate().filter_map(|(pid, r)| {
            let pid = ProcessId(pid as u32);
            let r = (*r)?;
            debug_assert_eq!(self.pid_of(r), Some(pid));
            Some((pid, r))
        })
    }
}

#[derive(Clone, Debug)]
struct PeerSlotInner<T> {
    gen: Gen,
    value: T,
}

/// One occupied arena slot: the stored value stamped with the occupant
/// generation it belongs to.
#[derive(Clone, Debug)]
pub struct PeerSlot<T> {
    inner: PeerSlotInner<T>,
}

impl<T> PeerSlot<T> {
    /// The stored value.
    pub fn value(&self) -> &T {
        &self.inner.value
    }

    /// The generation the value was written under.
    pub fn gen(&self) -> Gen {
        self.inner.gen
    }
}

/// Dense per-peer storage addressed by [`PeerRef`]s from a shared
/// [`PeerRoster`].
///
/// Reads and writes are O(1) array accesses guarded by a generation check:
/// a handle that predates the slot's current occupant reads `None` and its
/// writes can never shadow the occupant's state. See the
/// [module docs](self) for the full contract and an example.
#[derive(Clone, Debug, Default)]
pub struct Arena<T> {
    slots: Vec<Option<PeerSlotInner<T>>>,
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena { slots: Vec::new() }
    }

    /// The value stored for `r`'s occupant, if any.
    #[inline]
    pub fn get(&self, r: PeerRef) -> Option<&T> {
        match self.slots.get(r.idx.index()) {
            Some(Some(s)) if s.gen == r.gen => Some(&s.value),
            _ => None,
        }
    }

    /// Mutable access to the value stored for `r`'s occupant, if any.
    #[inline]
    pub fn get_mut(&mut self, r: PeerRef) -> Option<&mut T> {
        match self.slots.get_mut(r.idx.index()) {
            Some(Some(s)) if s.gen == r.gen => Some(&mut s.value),
            _ => None,
        }
    }

    /// Stores `value` for `r`'s occupant, replacing whatever the slot held
    /// (the previous occupant's leftovers included).
    pub fn set(&mut self, r: PeerRef, value: T) {
        if self.slots.len() <= r.idx.index() {
            self.slots.resize_with(r.idx.index() + 1, || None);
        }
        let slot = &mut self.slots[r.idx.index()];
        // Modular (serial-number) ordering, so the guard survives generation
        // wraparound: `r` counts as current-or-newer iff it is at most 2^31
        // recycles ahead of what the slot holds.
        debug_assert!(
            slot.as_ref()
                .is_none_or(|s| (r.gen.0.wrapping_sub(s.gen.0) as i32) >= 0),
            "write through a stale PeerRef would shadow a newer occupant"
        );
        *slot = Some(PeerSlotInner { gen: r.gen, value });
    }

    /// Mutable access for `r`'s occupant, inserting `T::default()` first if
    /// the slot is empty or holds a previous occupant's value.
    pub fn entry(&mut self, r: PeerRef) -> &mut T
    where
        T: Default,
    {
        let fresh = match self.slots.get(r.idx.index()) {
            Some(Some(s)) => s.gen != r.gen,
            _ => true,
        };
        if fresh {
            self.set(r, T::default());
        }
        &mut self.slots[r.idx.index()]
            .as_mut()
            .expect("just written")
            .value
    }

    /// Removes and returns the value stored for `r`'s occupant, if any.
    pub fn remove(&mut self, r: PeerRef) -> Option<T> {
        let slot = self.slots.get_mut(r.idx.index())?;
        if slot.as_ref().is_some_and(|s| s.gen == r.gen) {
            slot.take().map(|s| s.value)
        } else {
            None
        }
    }

    /// Visits every stored value in ascending *slot* order with the handle
    /// it was written under, and drops those `keep` rejects. Θ(slots ever
    /// allocated), independent of how large the occupants' ids are — the
    /// walk a periodic scan of all per-peer state wants.
    pub fn retain(&mut self, mut keep: impl FnMut(PeerRef, &T) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(s) = slot else { continue };
            let r = PeerRef {
                idx: PeerIdx(i as u32),
                gen: s.gen,
            };
            if !keep(r, &s.value) {
                *slot = None;
            }
        }
    }

    /// Drops every stored value.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_returns_the_inserted_handle() {
        let mut roster = PeerRoster::new();
        let r = roster.insert(ProcessId(3));
        assert_eq!(roster.resolve(ProcessId(3)), Some(r));
        assert!(roster.contains(ProcessId(3)));
        assert_eq!(roster.pid_of(r), Some(ProcessId(3)));
        assert_eq!(roster.len(), 1);
    }

    #[test]
    fn reserved_index_keeps_its_size_and_holds_current_handles() {
        let mut roster = PeerRoster::new();
        roster.reserve_ids(1024);
        for pid in [1u32, 2, 1022, 1023] {
            roster.insert(ProcessId(pid));
        }
        assert_eq!(roster.by_pid.len(), 1024, "no insert grew the index");
        assert_eq!(roster.id_span(), 1024, "one exact allocation");
        roster.reserve_ids(8);
        assert_eq!(roster.id_span(), 1024, "a smaller reserve is a no-op");

        // A recycled slot's new handle is what the index hands out.
        let old = roster.remove(ProcessId(1022)).expect("live");
        let new = roster.insert(ProcessId(5));
        assert_eq!(new.idx(), old.idx(), "slot is recycled");
        assert_ne!(new.gen(), old.gen(), "under a bumped generation");
        assert_eq!(roster.resolve(ProcessId(5)), Some(new));
        assert_eq!(roster.resolve(ProcessId(1022)), None);
        assert_eq!(roster.id_span(), 1024);
    }

    #[test]
    fn insert_is_idempotent_for_a_live_peer() {
        let mut roster = PeerRoster::new();
        let a = roster.insert(ProcessId(5));
        let b = roster.insert(ProcessId(5));
        assert_eq!(a, b);
        assert_eq!(roster.len(), 1);
    }

    #[test]
    fn remove_tombstones_and_insert_recycles_with_a_new_generation() {
        let mut roster = PeerRoster::new();
        let p1 = roster.insert(ProcessId(1));
        let p2 = roster.insert(ProcessId(2));
        assert_eq!(roster.remove(ProcessId(1)), Some(p1));
        assert!(!roster.contains(ProcessId(1)));
        assert_eq!(roster.len(), 1);

        let p9 = roster.insert(ProcessId(9));
        assert_eq!(p9.idx(), p1.idx(), "tombstoned slot is reused");
        assert_ne!(p9.gen(), p1.gen(), "reuse bumps the generation");
        assert_eq!(roster.pid_of(p1), None, "stale handle resolves nothing");
        assert_eq!(roster.pid_of(p9), Some(ProcessId(9)));
        assert_eq!(roster.capacity(), 2);
        let _ = p2;
    }

    #[test]
    fn removing_an_unknown_peer_is_a_noop() {
        let mut roster = PeerRoster::new();
        roster.insert(ProcessId(1));
        assert_eq!(roster.remove(ProcessId(7)), None);
        assert_eq!(roster.len(), 1);
    }

    #[test]
    fn iteration_is_ascending_by_process_id() {
        let mut roster = PeerRoster::new();
        for pid in [9u32, 2, 5, 0] {
            roster.insert(ProcessId(pid));
        }
        roster.remove(ProcessId(5));
        let pids: Vec<u32> = roster.iter().map(|(p, _)| p.0).collect();
        assert_eq!(pids, vec![0, 2, 9]);
    }

    #[test]
    fn retain_walks_slot_order_with_the_writing_handle() {
        let mut roster = PeerRoster::new();
        let mut arena: Arena<u64> = Arena::new();
        // Slot order is enrolment order, not id order; slot 1 is recycled.
        for pid in [9u32, 2, 5] {
            let r = roster.insert(ProcessId(pid));
            arena.set(r, u64::from(pid));
        }
        let p2 = roster.remove(ProcessId(2)).expect("live");
        arena.remove(p2);
        let p7 = roster.insert(ProcessId(7));
        arena.set(p7, 7);
        let mut seen = Vec::new();
        arena.retain(|r, v| {
            seen.push((roster.pid_of(r), *v));
            *v != 5
        });
        let pids = [9, 7, 5].map(|p| Some(ProcessId(p)));
        assert_eq!(seen, vec![(pids[0], 9), (pids[1], 7), (pids[2], 5)]);
        assert_eq!(arena.get(p7), Some(&7), "accepted values stay");
        let p5 = roster.resolve(ProcessId(5)).expect("live");
        assert_eq!(arena.get(p5), None, "rejected values are dropped");
        assert_eq!(arena.get(p2), None);
    }

    #[test]
    fn arena_reads_are_generation_checked() {
        let mut roster = PeerRoster::new();
        let mut arena: Arena<u64> = Arena::new();
        let p1 = roster.insert(ProcessId(1));
        arena.set(p1, 10);
        assert_eq!(arena.get(p1), Some(&10));

        roster.remove(ProcessId(1));
        let p9 = roster.insert(ProcessId(9));
        assert_eq!(arena.get(p9), None, "new occupant sees no leftovers");

        arena.set(p9, 20);
        assert_eq!(arena.get(p9), Some(&20));
        assert_eq!(arena.get(p1), None, "retired handle never aliases");
    }

    #[test]
    fn entry_resets_a_previous_occupants_value() {
        let mut roster = PeerRoster::new();
        let mut arena: Arena<u64> = Arena::new();
        let p1 = roster.insert(ProcessId(1));
        *arena.entry(p1) = 99;
        roster.remove(ProcessId(1));
        let p9 = roster.insert(ProcessId(9));
        assert_eq!(*arena.entry(p9), 0, "entry defaults, never inherits");
        *arena.entry(p9) += 1;
        assert_eq!(arena.get(p9), Some(&1));
    }

    #[test]
    fn remove_only_takes_the_matching_generation() {
        let mut roster = PeerRoster::new();
        let mut arena: Arena<u64> = Arena::new();
        let p1 = roster.insert(ProcessId(1));
        arena.set(p1, 7);
        roster.remove(ProcessId(1));
        let p9 = roster.insert(ProcessId(9));
        arena.set(p9, 8);
        assert_eq!(arena.remove(p1), None, "stale remove cannot evict");
        assert_eq!(arena.remove(p9), Some(8));
        assert_eq!(arena.remove(p9), None);
    }

    #[test]
    fn get_mut_and_clear() {
        let mut roster = PeerRoster::new();
        let mut arena: Arena<u64> = Arena::new();
        let p = roster.insert(ProcessId(2));
        arena.set(p, 1);
        *arena.get_mut(p).unwrap() += 5;
        assert_eq!(arena.get(p), Some(&6));
        arena.clear();
        assert_eq!(arena.get(p), None);
    }

    #[test]
    fn generation_wraps_around_without_panicking() {
        let mut roster = PeerRoster::new();
        roster.insert(ProcessId(1));
        roster.force_gen(ProcessId(1), Gen(u32::MAX));
        let last = roster.resolve(ProcessId(1)).unwrap();
        assert_eq!(last.gen(), Gen(u32::MAX));

        // Recycling the maxed-out slot wraps the generation to 0 rather
        // than overflowing.
        roster.remove(ProcessId(1));
        let wrapped = roster.insert(ProcessId(2));
        assert_eq!(wrapped.idx(), last.idx(), "slot is recycled");
        assert_eq!(wrapped.gen(), Gen(0), "generation wraps to zero");
        assert_eq!(roster.pid_of(wrapped), Some(ProcessId(2)));
    }

    #[test]
    fn stale_handles_from_before_the_wrap_are_rejected() {
        let mut roster = PeerRoster::new();
        let mut arena: Arena<u64> = Arena::new();
        roster.insert(ProcessId(1));
        roster.force_gen(ProcessId(1), Gen(u32::MAX));
        let pre_wrap = roster.resolve(ProcessId(1)).unwrap();
        arena.set(pre_wrap, 10);
        assert_eq!(arena.get(pre_wrap), Some(&10));

        roster.remove(ProcessId(1));
        let post_wrap = roster.insert(ProcessId(2));
        assert_eq!(post_wrap.gen(), Gen(0));

        // The pre-wrap handle fails closed everywhere: the roster no longer
        // resolves it, and the arena neither reads, mutates, nor evicts
        // through it.
        assert_eq!(
            roster.pid_of(pre_wrap),
            None,
            "stale handle resolves nothing"
        );
        assert_eq!(arena.get(post_wrap), None, "new occupant sees no leftovers");
        arena.set(post_wrap, 20);
        assert_eq!(arena.get(pre_wrap), None, "pre-wrap read rejected");
        assert!(arena.get_mut(pre_wrap).is_none(), "pre-wrap write rejected");
        assert_eq!(arena.remove(pre_wrap), None, "pre-wrap evict rejected");
        assert_eq!(arena.get(post_wrap), Some(&20));
    }

    #[test]
    fn every_retired_handle_stays_dead_across_many_recycles() {
        // Recycle one slot repeatedly across the wrap boundary, keeping
        // every retired handle: each must keep reading nothing — the lazy
        // heap-discard in the detector leans on exactly this.
        let mut roster = PeerRoster::new();
        let mut arena: Arena<u64> = Arena::new();
        roster.insert(ProcessId(0));
        roster.force_gen(ProcessId(0), Gen(u32::MAX - 100));
        let mut retired = Vec::new();
        for round in 0u32..300 {
            let pid = ProcessId(round % 7);
            let r = roster.resolve(pid).unwrap_or_else(|| roster.insert(pid));
            arena.set(r, u64::from(round));
            retired.push(r);
            roster.remove(pid);
        }
        let live = roster.insert(ProcessId(9));
        arena.set(live, 999);
        assert_eq!(
            live.gen(),
            Gen((u32::MAX - 100).wrapping_add(300)),
            "one slot absorbed every recycle, wrapping past u32::MAX"
        );
        for (i, r) in retired.iter().enumerate() {
            assert_eq!(roster.pid_of(*r), None, "retired handle {i} resolved");
            assert_eq!(arena.get(*r), None, "retired handle {i} read a value");
        }
        assert_eq!(arena.get(live), Some(&999));
    }

    #[test]
    fn peer_slot_accessors() {
        let mut roster = PeerRoster::new();
        let p = roster.insert(ProcessId(1));
        let slot = PeerSlot {
            inner: PeerSlotInner {
                gen: p.gen(),
                value: 42u64,
            },
        };
        assert_eq!(*slot.value(), 42);
        assert_eq!(slot.gen(), p.gen());
    }
}
