//! `Arc`-shared message payloads.
//!
//! A message sent to `n − 1` recipients is cloned once per recipient, so a
//! payload embedded by value (a `Vec`, say) is deep-copied `n − 1` times
//! per fan-out — the dominant allocation cost of periodic full-group
//! traffic such as heartbeats. [`Shared`] is the same trick
//! [`gmp_causality::Stamp`] plays for vector-clock snapshots, applied to
//! message payloads: construct the payload once, wrap it, and every
//! per-recipient message clone is an O(1) reference-count bump on the one
//! allocation.
//!
//! It also keeps messages small. The engine moves every message into its
//! event record on send and out of it on delivery, so the record's size is
//! paid per event; a `Vec` costs a message 24 bytes and several of them
//! push a whole record past what the compiler moves inline, while a
//! `Shared` body costs 8 (16 for a slice). The membership and log crates
//! therefore keep every vector-carrying variant's fields in one body
//! behind a `Shared` (DESIGN.md, "The event record").

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, `Arc`-shared message payload.
///
/// Cloning a `Shared` — which is what [`Ctx::broadcast`](crate::Ctx::broadcast)
/// does per recipient — never copies the underlying data; all clones point at
/// the allocation built by the original constructor. Payloads are immutable
/// once wrapped, which is exactly the discipline a recorded message needs:
/// the bytes a receiver observes are the bytes the sender constructed.
///
/// ```
/// use gmp_sim::Shared;
///
/// let set: Shared<[u32]> = vec![3, 1, 4].into();
/// let fanned_out = set.clone(); // O(1): no copy of the slice
/// assert!(Shared::ptr_eq(&set, &fanned_out));
/// assert_eq!(&*fanned_out, &[3, 1, 4]);
/// ```
pub struct Shared<T: ?Sized>(Arc<T>);

impl<T: ?Sized> Shared<T> {
    /// True when `a` and `b` share one allocation (i.e. one is a clone of
    /// the other). Used by tests to prove fan-out does not copy.
    pub fn ptr_eq(a: &Shared<T>, b: &Shared<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T: Clone> Shared<T> {
    /// The payload by value: moved out when `this` is its only handle (a
    /// point-to-point message at its receiver), cloned otherwise.
    pub fn unwrap_or_clone(this: Shared<T>) -> T {
        Arc::unwrap_or_clone(this.0)
    }
}

impl<T: ?Sized> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: ?Sized> Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: PartialEq + ?Sized> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T: Eq + ?Sized> Eq for Shared<T> {}

impl<T> From<Vec<T>> for Shared<[T]> {
    /// Wraps an owned vector; the one allocation it took to build is the
    /// one every clone shares.
    fn from(v: Vec<T>) -> Self {
        Shared(Arc::from(v))
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared(Arc::new(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_allocation() {
        let a: Shared<[u8]> = vec![1, 2, 3].into();
        let b = a.clone();
        let c = b.clone();
        assert!(Shared::ptr_eq(&a, &b));
        assert!(Shared::ptr_eq(&a, &c));
        assert_eq!(a, c);
        assert_eq!(&*c, &[1, 2, 3]);
    }

    #[test]
    fn distinct_constructions_do_not_share() {
        let a: Shared<[u8]> = vec![1].into();
        let b: Shared<[u8]> = vec![1].into();
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(a, b, "equality is by value, sharing is by pointer");
    }

    #[test]
    fn the_last_handle_moves_the_payload_out() {
        let a: Shared<Vec<u8>> = vec![1, 2].into();
        let ptr = a.as_ptr();
        let b = a.clone();
        assert_eq!(
            Shared::unwrap_or_clone(a),
            vec![1, 2],
            "cloned: b still holds it"
        );
        let v = Shared::unwrap_or_clone(b);
        assert_eq!(v.as_ptr(), ptr, "moved, not copied");
    }

    #[test]
    fn empty_payloads_work() {
        let a: Shared<[u64]> = Vec::new().into();
        assert!(a.is_empty());
        assert_eq!(a.iter().count(), 0);
    }
}
