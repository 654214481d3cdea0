//! Causality substrate: Lamport clocks, vector clocks, happens-before, and
//! consistent cuts.
//!
//! The GMP specification (§2) is stated over *consistent cuts* of a system
//! run — prefixes of the run closed under Lamport's happens-before relation.
//! This crate provides the clock machinery — the Lamport and vector clocks
//! that `Trace::lamports` and `Trace::to_event_log` rebuild a recorded run's
//! stamps with — and the cut machinery the property checkers use to
//! evaluate cut-indexed propositions such as `IsSysView(x)`.
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
//! assert_eq!(s1, s2);
//! c.tick(0);                 // copies once, because s1/s2 are alive
//! assert!(s1.happened_before(c.clock()));
//! ```

#![deny(missing_docs)]

pub mod cut;

pub use cut::{Cut, EventIndex, EventLog, LoggedEvent};

use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A Lamport scalar clock (Lamport 1978, cited as \[12\] in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LamportClock(pub u64);

impl LamportClock {
    /// A fresh clock at 0.
    pub fn new() -> Self {
        LamportClock(0)
    }

    /// Advances the clock for a local or send event and returns the new
    /// timestamp.
    pub fn tick(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    /// Merges a received timestamp (`max(local, remote)`) and then ticks.
    /// Returns the new timestamp.
    pub fn merge(&mut self, remote: u64) -> u64 {
        self.0 = self.0.max(remote);
        self.tick()
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

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

    /// Dimension of the clock.
    pub fn dim(&self) -> usize {
        self.entries.len()
    }

    /// Component for process index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn get(&self, i: usize) -> u64 {
        self.entries[i]
    }

    /// Advances the local component `i` by one (a local/send event at
    /// process `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
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
        assert_eq!(self.dim(), other.dim(), "vector clock dimension mismatch");
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            *a = (*a).max(*b);
        }
    }

    /// `self ≤ other` pointwise.
    pub fn le(&self, other: &VectorClock) -> bool {
        assert_eq!(self.dim(), other.dim(), "vector clock dimension mismatch");
        self.entries.iter().zip(&other.entries).all(|(a, b)| a <= b)
    }

    /// Strict happens-before: `self ≤ other` and `self ≠ other`.
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        self.le(other) && self != other
    }

    /// True when neither clock happened before the other (concurrent
    /// events).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Partial-order comparison: `Some(Less)` iff `self → other`,
    /// `Some(Greater)` iff `other → self`, `Some(Equal)` iff identical, and
    /// `None` for concurrent clocks.
    pub fn partial_cmp_causal(&self, other: &VectorClock) -> Option<Ordering> {
        match (self.le(other), other.le(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }

    /// The components as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ">")
    }
}

/// An immutable, cheaply cloneable vector timestamp.
///
/// A `Stamp` is an `Arc`-shared snapshot of a [`CowClock`] at some event.
/// Cloning a stamp (and thus recording it on a trace event, attaching it to
/// an in-flight message, or copying it into an event log) is O(1) and never
/// copies the underlying vector. Stamps dereference to [`VectorClock`], so
/// all comparison queries (`happened_before`, `concurrent_with`, …) apply
/// directly.
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

impl From<VectorClock> for Stamp {
    fn from(vc: VectorClock) -> Self {
        Stamp(Arc::new(vc))
    }
}

impl fmt::Display for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
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

    /// Dimension of the clock.
    pub fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// The current clock value.
    pub fn clock(&self) -> &VectorClock {
        &self.inner
    }

    /// Advances the local component `i` by one, copying the vector first iff
    /// an outstanding [`Stamp`] still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
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

    /// True when at least one outstanding [`Stamp`] (or clone) still shares
    /// this clock's storage, i.e. the next advance will copy.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.inner) > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lamport_basics() {
        let mut c = LamportClock::new();
        assert_eq!(c.tick(), 1);
        assert_eq!(c.merge(10), 11);
        assert_eq!(c.merge(3), 12);
        assert_eq!(c.value(), 12);
    }

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
        assert!(c.concurrent_with(&a));
        assert!(c.concurrent_with(&b));
        assert_eq!(a.partial_cmp_causal(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp_causal(&a), Some(Ordering::Greater));
        assert_eq!(a.partial_cmp_causal(&c), None);
        assert_eq!(a.partial_cmp_causal(&a.clone()), Some(Ordering::Equal));
    }

    #[test]
    fn display_forms() {
        let mut a = VectorClock::new(2);
        a.tick(1);
        assert_eq!(a.to_string(), "<0,1>");
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
        assert!(c.is_shared());
        c.tick(0); // must copy: s1/s2 are alive
        let s3 = c.stamp();
        assert!(!s3.shares_storage_with(&s1));
        assert_eq!(s1.get(0), 1);
        assert_eq!(s3.get(0), 2);
        assert!(s1.happened_before(&s3));
    }

    #[test]
    fn unshared_cow_clock_mutates_in_place() {
        let mut c = CowClock::new(2);
        c.tick(1);
        drop(c.stamp());
        assert!(!c.is_shared());
        c.tick(1); // no outstanding stamp: in-place, no copy
        assert_eq!(c.clock().get(1), 2);
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
        assert_eq!(c.clock().as_slice(), &[2, 1]);
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
        assert_eq!(sa.to_string(), "<1,0>");
        let owned: Stamp = VectorClock::new(2).into();
        assert!(owned.happened_before(&sa));
    }
}
