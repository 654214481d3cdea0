//! The engine's event queue: a ring of per-tick FIFO buckets threaded
//! through a slab, with a binary heap of keys only for events beyond the
//! ring.
//!
//! The engine consumes events in `(time, seq)` order, `seq` being the
//! order of their pushes. Almost every event is scheduled a few ticks
//! ahead (message delays, heartbeat and detector timers), so instead of
//! sifting queued records through a heap of tens of thousands, the queue
//! keeps one FIFO per tick for the next [`WINDOW`] ticks: pushing appends
//! to the tick's list, popping unlinks the head of the earliest non-empty
//! one — both O(1).
//!
//! * **Keys are positions.** A linked event's time is its bucket's tick
//!   and its `seq` its place in the bucket's list, so a slab entry holds
//!   only the list link and the event ([`QKind`]): 48 B for `gmp-core`'s
//!   `Msg` and 64 B for `gmp-log`'s `AppMsg` (the size guards in
//!   `engine.rs` hold them there). Only a far event's key is stored, in
//!   the heap.
//! * **Window rule.** The ring covers the ticks `base .. base + WINDOW`,
//!   bucket `t mod WINDOW` holding tick `t`. `base` only moves forward,
//!   never past the `until` it is asked to search up to, and a caller may
//!   only push at `time ≥ base` (the engine clamps scheduling requests to
//!   its current time, which is never behind `base`).
//! * **Far events** (`time ≥ base + WINDOW`) sit in the same slab, unlinked;
//!   a `BinaryHeap` orders their `(time, seq, slab index)` keys. They are
//!   linked into their bucket *at the moment `base` advances far enough
//!   for the window to cover their tick*, in heap — `(time, seq)` — order,
//!   and before any push that could target that tick directly. The bucket
//!   is empty at that moment (its previous tenant, tick `t − WINDOW`, is
//!   behind `base` and was drained), and sequence numbers grow with every
//!   push, so a direct push to the tick always carries a larger `seq` than
//!   everything migrated into it. Every bucket is therefore in `seq` order
//!   by construction and the pop order is exactly a heap's.
//! * **Intrusive lists, one slab.** Buckets are `(head, tail)` indices
//!   into one free-listed slab rather than a `Vec` each: a `Vec` per
//!   bucket keeps its peak capacity forever, so 256 of them would pin 256×
//!   the per-tick peak, while the slab holds exactly the peak number of
//!   events pending at once — what the binary heap it replaced held.

use crate::engine::QKind;
use crate::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ticks covered by the ring. A power of two (the bucket index is a mask)
/// that covers the default message delays (≤ 10), `heartbeat_every` (40)
/// and `suspect_after` (200), so steady-state runs never touch the heap.
const WINDOW: u64 = 256;

/// "No entry": list terminator and empty-bucket marker.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// One slab slot: a pending event, or a link of the free list.
pub(crate) struct Entry<M> {
    /// Next entry of the same tick, or of the free list; unused while
    /// the event waits in the far heap.
    next: u32,
    /// `None` while the entry is on the free list.
    kind: Option<QKind<M>>,
}

/// Pending events in `(time, seq)` order. See the module docs.
pub(crate) struct EventQueue<M> {
    slab: Vec<Entry<M>>,
    free: u32,
    /// The `seq` of the last push.
    seq: u64,
    /// `(time, seq)` of every slab entry, for the bucket-order check of
    /// debug builds; kept beside the slab so that an entry's layout is
    /// the one release builds measure.
    #[cfg(debug_assertions)]
    keys: Vec<(Time, u64)>,
    buckets: Box<[Bucket; WINDOW as usize]>,
    /// First tick of the window; no pending event is earlier.
    base: Time,
    /// Events currently linked into the ring.
    near: usize,
    /// `(time, seq, slab index)` of the events at `base + WINDOW` or later.
    far: BinaryHeap<Reverse<(Time, u64, u32)>>,
}

fn bucket_of(time: Time) -> usize {
    (time % WINDOW) as usize
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            seq: 0,
            #[cfg(debug_assertions)]
            keys: Vec::new(),
            buckets: Box::new(
                [Bucket {
                    head: NIL,
                    tail: NIL,
                }; WINDOW as usize],
            ),
            base: 0,
            near: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Adds `kind` at `time`, after every event pushed before it for the
    /// same time.
    ///
    /// # Panics
    ///
    /// Panics if the event is scheduled behind the window, i.e. earlier
    /// than an `until` already searched with nothing left due.
    pub(crate) fn push(&mut self, time: Time, kind: QKind<M>) {
        assert!(
            time >= self.base,
            "event scheduled at {time} but the queue already advanced to {}",
            self.base
        );
        self.seq += 1;
        let entry = Entry {
            next: NIL,
            kind: Some(kind),
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than u32::MAX events pending at once");
            self.slab.push(entry);
            idx
        } else {
            let idx = self.free;
            let slot = &mut self.slab[idx as usize];
            self.free = slot.next;
            *slot = entry;
            idx
        };
        #[cfg(debug_assertions)]
        {
            self.keys.resize(self.slab.len(), (0, 0));
            self.keys[idx as usize] = (time, self.seq);
        }
        if time - self.base < WINDOW {
            self.link(time, idx);
        } else {
            self.far.push(Reverse((time, self.seq, idx)));
        }
    }

    /// Removes and returns the earliest pending event, with its time, if
    /// that time is at most `until`.
    pub(crate) fn pop_due(&mut self, until: Time) -> Option<(Time, QKind<M>)> {
        if !self.seek(until) {
            return None;
        }
        let bucket = &mut self.buckets[bucket_of(self.base)];
        let idx = bucket.head;
        let entry = &mut self.slab[idx as usize];
        let kind = entry.kind.take().expect("linked entries hold an event");
        bucket.head = entry.next;
        if bucket.head == NIL {
            bucket.tail = NIL;
        }
        entry.next = self.free;
        self.free = idx;
        self.near -= 1;
        Some((self.base, kind))
    }

    /// Links slab entry `idx`, an event at `time` inside the window, at
    /// the tail of its tick's bucket.
    fn link(&mut self, time: Time, idx: u32) {
        let b = bucket_of(time);
        let tail = self.buckets[b].tail;
        #[cfg(debug_assertions)]
        {
            let key = |i: u32| self.keys[i as usize];
            assert!(
                tail == NIL || (key(tail).0 == time && key(tail) < key(idx)),
                "bucket for tick {time} would leave seq order"
            );
        }
        self.slab[idx as usize].next = NIL;
        if tail == NIL {
            self.buckets[b].head = idx;
        } else {
            self.slab[tail as usize].next = idx;
        }
        self.buckets[b].tail = idx;
        self.near += 1;
    }

    /// Advances `base` to the earliest pending tick that is at most
    /// `until` (or to `until` if there is none) and says whether an event
    /// is due there.
    fn seek(&mut self, until: Time) -> bool {
        loop {
            if self.base > until {
                return false;
            }
            if self.buckets[bucket_of(self.base)].head != NIL {
                return true;
            }
            if self.base == until {
                return false;
            }
            // Nothing at `base`: step one tick — or, with the ring empty,
            // jump straight to the far heap's first tick.
            self.base = if self.near > 0 {
                self.base + 1
            } else {
                self.far
                    .peek()
                    .map_or(until, |&Reverse((time, ..))| time.min(until))
            };
            // The window just opened over new ticks: link their far events
            // in before anything can be pushed there directly.
            while let Some(&Reverse((time, _, idx))) = self.far.peek() {
                if time - self.base >= WINDOW {
                    break;
                }
                self.far.pop();
                self.link(time, idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_types::ProcessId;
    use proptest::prelude::*;

    /// An event that carries its push's number `k`, as a timer tag.
    fn ev(k: u64) -> QKind<()> {
        QKind::Timer {
            pid: ProcessId(0),
            tag: k,
        }
    }

    /// `(time, number)` of a popped [`ev`].
    fn key(ev: Option<(Time, QKind<()>)>) -> Option<(Time, u64)> {
        ev.map(|(time, kind)| match kind {
            QKind::Timer { tag, .. } => (time, tag),
            _ => unreachable!("the tests queue only timers"),
        })
    }

    /// The plain `(time, seq)` min-heap the queue replaced, with the same
    /// `pop_due` contract.
    struct Reference(BinaryHeap<Reverse<(Time, u64)>>);

    impl Reference {
        fn pop_due(&mut self, until: Time) -> Option<(Time, u64)> {
            if self.0.peek()?.0 .0 > until {
                return None;
            }
            self.0.pop().map(|Reverse(key)| key)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Any interleaving of pushes (ties on the current tick, delays
        /// inside the window, just beyond it, and several windows out so
        /// the ring index wraps) and `pop_due` calls with non-decreasing
        /// `until` pops the same `(time, seq)` sequence, and the same
        /// "nothing due" answers, as the binary heap.
        #[test]
        fn pops_exactly_like_the_binary_heap(
            ops in proptest::collection::vec((0u8..10, 0u64..4_096), 1..600),
        ) {
            let mut queue = EventQueue::new();
            let mut reference = Reference(BinaryHeap::new());
            // `now` mirrors `Sim::time`: the last popped event's time, or
            // the last `until` once nothing was due.
            let (mut now, mut until, mut seq) = (0u64, 0u64, 0u64);
            for (op, x) in ops {
                let delay = match op {
                    0 | 1 => Some(0),
                    2..=4 => Some(x % WINDOW),
                    5 => Some(WINDOW + x % WINDOW),
                    6 => Some(x * 3),
                    _ => None,
                };
                if let Some(delay) = delay {
                    seq += 1;
                    queue.push(now + delay, ev(seq));
                    reference.0.push(Reverse((now + delay, seq)));
                    continue;
                }
                // 7: one pop a few ticks on; 8: drain a stretch that may
                // span windows; 9: drain a shorter one.
                until += match op { 7 => x % 16, 8 => x % 1_024, _ => x % 64 };
                loop {
                    let got = key(queue.pop_due(until));
                    prop_assert_eq!(got, reference.pop_due(until));
                    now = got.map_or(now.max(until), |(time, _)| time);
                    if got.is_none() || op == 7 {
                        break;
                    }
                }
            }
            // Whatever is left comes out in the same order too.
            loop {
                let got = key(queue.pop_due(Time::MAX));
                prop_assert_eq!(got, reference.pop_due(Time::MAX));
                if got.is_none() {
                    break;
                }
            }
            prop_assert_eq!(queue.near, 0);
        }
    }

    /// A far event and a later near event for the same tick: the far one
    /// was pushed first, so it must pop first — migration happens when the
    /// window opens over the tick, before the direct push can.
    #[test]
    fn far_event_precedes_a_later_near_event_on_the_same_tick() {
        let mut q = EventQueue::new();
        q.push(300, ev(1)); // beyond the window: far heap
        q.push(100, ev(2));
        assert_eq!(key(q.pop_due(1_000)), Some((100, 2)));
        // At tick 100 the window covers 300: this push goes to the bucket.
        q.push(300, ev(3));
        q.push(299, ev(4));
        let order: Vec<_> = std::iter::from_fn(|| key(q.pop_due(1_000))).collect();
        assert_eq!(order, vec![(299, 4), (300, 1), (300, 3)]);
    }

    /// `start()` pops every time-0 event, dispatches the controls and
    /// re-pushes the rest in pop order; the re-pushed events must come
    /// back out in that order, ahead of anything scheduled meanwhile.
    #[test]
    fn repushing_deferred_time_zero_events_keeps_their_order() {
        let mut q = EventQueue::new();
        for k in 1..=4 {
            q.push(0, ev(k));
        }
        q.push(5, ev(5));
        let popped: Vec<_> = std::iter::from_fn(|| key(q.pop_due(0))).collect();
        assert_eq!(popped, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
        // Events 1 and 3 were controls, dispatched on the spot — one of
        // them scheduling a follow-up for time 0 that is popped by the
        // same loop; 2 and 4 are deferred.
        q.push(0, ev(6));
        assert_eq!(key(q.pop_due(0)), Some((0, 6)));
        for (time, k) in popped.into_iter().filter(|&(_, k)| k % 2 == 0) {
            q.push(time, ev(k));
        }
        q.push(0, ev(7));
        let order: Vec<_> = std::iter::from_fn(|| key(q.pop_due(10))).collect();
        assert_eq!(order, vec![(0, 2), (0, 4), (0, 7), (5, 5)]);
    }

    #[test]
    fn nothing_is_due_before_its_time_and_base_never_passes_until() {
        let mut q = EventQueue::new();
        q.push(1_000, ev(1));
        assert!(q.pop_due(999).is_none());
        // The search stopped at 999, so scheduling there is still legal.
        q.push(999, ev(2));
        assert_eq!(key(q.pop_due(999)), Some((999, 2)));
        assert!(q.pop_due(999).is_none());
        assert_eq!(key(q.pop_due(1_000)), Some((1_000, 1)));
        assert!(q.pop_due(Time::MAX).is_none());
    }

    #[test]
    #[should_panic(expected = "already advanced")]
    fn pushing_behind_the_window_is_rejected() {
        let mut q = EventQueue::new();
        assert!(q.pop_due(50).is_none());
        q.push(49, ev(1));
    }

    /// Memory is bounded by the peak number of events pending at once, not
    /// by buckets × per-tick peak: ten rounds of a 16 k-event burst spread
    /// over ten ticks (the `flat128` heartbeat shape) reuse the slab the
    /// first round allocated.
    #[test]
    fn slab_is_bounded_by_peak_in_flight() {
        const BURST: usize = 16_384;
        let mut q = EventQueue::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for round in 0..10 {
            for i in 0..BURST as u64 {
                seq += 1;
                q.push(now + 1 + i % 10, ev(seq));
            }
            assert_eq!(q.near, BURST);
            assert_eq!(
                q.slab.len(),
                BURST,
                "round {round}: slab grew past the peak"
            );
            now += 100;
            let popped = std::iter::from_fn(|| q.pop_due(now)).count();
            assert_eq!(popped, BURST);
            assert_eq!(q.near, 0);
        }
        assert!(q.far.is_empty());
    }
}
