//! Causality substrate: vector clocks and happens-before over a recorded
//! run.
//!
//! The one causal question any check asks is the Appendix's: does some
//! installation of version `w` lie in the causal past of an install
//! (Equation 4 and the knowledge ladder, in `gmp-props`). This crate
//! provides the vector clocks `Trace::to_event_log` rebuilds a recorded
//! run's stamps with, and the [`EventLog`] that answers that question with
//! [`EventLog::in_causal_past`]. The GMP property checkers read each
//! process's recorded history directly and use no cuts.
//!
//! Two clock representations are provided:
//!
//! * [`VectorClock`] — the plain, owned vector timestamp; mutation is always
//!   in place.
//! * [`CowClock`] / [`Stamp`] — a copy-on-write working clock and its
//!   immutable, `Arc`-shared snapshots. Taking a [`Stamp`] is O(1);
//!   the underlying vector is only deep-copied when the clock advances
//!   (tick/observe) *while a previous snapshot is still alive*, so
//!   events whose clock did not advance (notes) share one allocation.
//!
//! # Example
//!
//! ```
//! use gmp_causality::{CowClock, VectorClock};
//!
//! let mut a = VectorClock::new(2);
//! let mut b = VectorClock::new(2);
//! a.tick(0);                 // event at p0
//! b.observe(&a); b.tick(1);  // p1 receives p0's message
//! assert!(a.happened_before(&b));
//! assert!(!b.happened_before(&a));
//!
//! // Copy-on-write stamping: snapshots are O(1) and share storage.
//! let mut c = CowClock::new(2);
//! c.tick(0);
//! let s1 = c.stamp();
//! let s2 = c.stamp();        // no copy: same shared vector as s1
//! assert!(s1.shares_storage_with(&s2));
//! c.tick(0);                 // copies once, because s1/s2 are alive
//! assert!(s1.happened_before(&c.stamp()));
//! ```

#![deny(missing_docs)]

mod event_log;

pub use event_log::{EventLog, LoggedEvent};

use std::ops::Deref;
use std::sync::Arc;

/// A fixed-dimension vector clock.
///
/// Dimension is the number of processes in the run; the simulator fixes it at
/// construction time (joining processes exist from the start of the run and
/// simply have not joined the *group* yet, so the dimension never changes).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// The zero clock of dimension `n`.
    pub fn new(n: usize) -> Self {
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// Advances the local component `i` by one (a local/send event at
    /// process `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the clock's dimension.
    pub fn tick(&mut self, i: usize) {
        self.entries[i] += 1;
    }

    /// Pointwise maximum with another clock (message reception), *without*
    /// ticking the local component.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn observe(&mut self, other: &VectorClock) {
        self.check_dim(other);
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            *a = (*a).max(*b);
        }
    }

    /// `self ≤ other` pointwise.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.check_dim(other);
        self.entries.iter().zip(&other.entries).all(|(a, b)| a <= b)
    }

    /// Strict happens-before: `self ≤ other` and `self ≠ other`.
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        self.le(other) && self != other
    }

    /// The components as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }

    fn check_dim(&self, other: &VectorClock) {
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "vector clock dimension mismatch"
        );
    }
}

/// An immutable, cheaply cloneable vector timestamp.
///
/// A `Stamp` is an `Arc`-shared snapshot of a [`CowClock`] at some event.
/// Cloning a stamp (and thus recording it in an event log) is O(1) and
/// never copies the underlying vector. Stamps dereference to
/// [`VectorClock`], so its comparison queries (`le`, `happened_before`)
/// apply directly.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Stamp(Arc<VectorClock>);

impl Stamp {
    /// The snapshotted clock value.
    pub fn clock(&self) -> &VectorClock {
        &self.0
    }

    /// True when this stamp shares storage with `other` (same allocation —
    /// implies equality; the converse need not hold).
    pub fn shares_storage_with(&self, other: &Stamp) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Stamp {
    type Target = VectorClock;

    fn deref(&self) -> &VectorClock {
        &self.0
    }
}

/// A copy-on-write working vector clock.
///
/// The mutable counterpart of [`Stamp`]: a process's current clock, advanced
/// with [`tick`](CowClock::tick) and [`observe`](CowClock::observe) and
/// snapshotted with [`stamp`](CowClock::stamp). Snapshots are O(1) `Arc`
/// clones; the vector is deep-copied only when the clock advances while an
/// earlier snapshot is still alive, and consecutive advances between two
/// snapshots copy at most once. An `observe` that changes nothing (the
/// remote clock is already dominated) never copies.
#[derive(Clone, Debug)]
pub struct CowClock {
    inner: Arc<VectorClock>,
}

impl CowClock {
    /// The zero clock of dimension `n`.
    pub fn new(n: usize) -> Self {
        CowClock {
            inner: Arc::new(VectorClock::new(n)),
        }
    }

    /// Advances the local component `i` by one, copying the vector first iff
    /// an outstanding [`Stamp`] still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the clock's dimension.
    pub fn tick(&mut self, i: usize) {
        Arc::make_mut(&mut self.inner).tick(i);
    }

    /// Pointwise maximum with another clock (message reception), without
    /// ticking the local component. Does nothing — and copies nothing — when
    /// `other` is already dominated by the current clock.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn observe(&mut self, other: &VectorClock) {
        if other.le(&self.inner) {
            return; // no-op merge: keep sharing
        }
        Arc::make_mut(&mut self.inner).observe(other);
    }

    /// An O(1) immutable snapshot of the current clock.
    pub fn stamp(&self) -> Stamp {
        Stamp(Arc::clone(&self.inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_clock_message_chain() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        let mut c = VectorClock::new(3);
        a.tick(0); // e1 at p0
        b.observe(&a);
        b.tick(1); // receive at p1
        c.tick(2); // concurrent event at p2
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        assert!(!a.happened_before(&a.clone()), "happens-before is strict");
        for (x, y) in [(&c, &a), (&c, &b)] {
            assert!(!x.le(y) && !y.le(x), "c is concurrent with a and b");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = VectorClock::new(2);
        let b = VectorClock::new(3);
        let _ = a.le(&b);
    }

    #[test]
    fn stamps_share_storage_until_the_clock_advances() {
        let mut c = CowClock::new(3);
        c.tick(0);
        let s1 = c.stamp();
        let s2 = c.stamp();
        assert!(s1.shares_storage_with(&s2), "repeated stamps must not copy");
        c.tick(0); // must copy: s1/s2 are alive
        let s3 = c.stamp();
        assert!(!s3.shares_storage_with(&s1));
        assert_eq!(s1.as_slice(), &[1, 0, 0]);
        assert_eq!(s3.as_slice(), &[2, 0, 0]);
        assert!(s1.happened_before(&s3));
    }

    #[test]
    fn unshared_cow_clock_mutates_in_place() {
        let mut c = CowClock::new(2);
        c.tick(1);
        let before = Arc::as_ptr(&c.inner);
        drop(c.stamp());
        c.tick(1); // no outstanding stamp: in-place, no copy
        assert_eq!(Arc::as_ptr(&c.inner), before);
        assert_eq!(c.stamp().as_slice(), &[0, 2]);
    }

    #[test]
    fn dominated_observe_is_free() {
        let mut c = CowClock::new(2);
        c.tick(0);
        c.tick(0);
        let s = c.stamp();
        let mut old = VectorClock::new(2);
        old.tick(0);
        c.observe(&old); // dominated: no change, no copy
        assert!(s.shares_storage_with(&c.stamp()));
        let mut ahead = VectorClock::new(2);
        ahead.tick(1);
        c.observe(&ahead); // not dominated: copies away from s
        assert!(!s.shares_storage_with(&c.stamp()));
        assert_eq!(c.stamp().as_slice(), &[2, 1]);
    }

    #[test]
    fn stamp_equality_is_by_value() {
        let mut a = CowClock::new(2);
        let mut b = CowClock::new(2);
        a.tick(0);
        b.tick(0);
        let sa = a.stamp();
        let sb = b.stamp();
        assert_eq!(sa, sb, "equal values from distinct allocations");
        assert!(!sa.shares_storage_with(&sb));
        assert_eq!(sa.clock().as_slice(), &[1, 0]);
        assert!(CowClock::new(2).stamp().happened_before(&sa));
    }
}
