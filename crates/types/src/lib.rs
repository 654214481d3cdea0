//! Shared vocabulary for the Ricciardi–Birman group-membership reproduction.
//!
//! This crate defines the domain types used by every other crate in the
//! workspace: process identifiers, membership operations, seniority-ordered
//! [`View`]s with the paper's rank function (§4.2), the `next(p)` bookkeeping
//! entries of §4.4, and the semantic trace [`Note`]s that protocols emit so
//! that runs can be checked against the GMP specification afterwards.
//!
//! # Example
//!
//! ```
//! use gmp_types::{ProcessId, View};
//!
//! let view = View::new(vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
//! // Rank is seniority-based: the most senior member has rank n (§4.2).
//! assert_eq!(view.rank(ProcessId(0)), Some(3));
//! assert_eq!(view.rank(ProcessId(2)), Some(1));
//! assert_eq!(view.majority(), 2);
//! ```

#![deny(missing_docs)]

pub mod note;
pub mod view;

pub use note::{FaultySource, Note, QuitReason};
pub use view::View;

use std::fmt;

/// Identifier of a process instance.
///
/// Following §2.1, a "recovered" process is a *new and different* process
/// instance, so identifiers are never reused: a host that crashes and
/// restarts joins the group again under a fresh `ProcessId`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Index form, usable to address per-process arrays (e.g. vector clocks).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

/// Local view version number (the `x` in `Memb_p^x` / `Sys^x`).
///
/// Version 0 is the initial, commonly-known view (GMP-0); each committed
/// membership operation increments it by exactly one (§7, Add/Remove).
pub type Ver = u64;

/// The kind of a membership change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Exclusion of a perceived-faulty member (§3).
    Remove,
    /// Addition of a joining process (§7).
    Add,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Remove => f.write_str("remove"),
            OpKind::Add => f.write_str("add"),
        }
    }
}

/// A membership operation `op(proc-id)` as carried by invitation, commit and
/// reconfiguration messages (§7.1 Final Algorithm).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Op {
    /// Whether the target is being added or removed.
    pub kind: OpKind,
    /// The process being added or removed.
    pub target: ProcessId,
}

impl Op {
    /// Convenience constructor for `remove(target)`.
    pub fn remove(target: ProcessId) -> Self {
        Op {
            kind: OpKind::Remove,
            target,
        }
    }

    /// Convenience constructor for `add(target)`.
    pub fn add(target: ProcessId) -> Self {
        Op {
            kind: OpKind::Add,
            target,
        }
    }

    /// True when this operation removes `p`.
    pub fn removes(&self, p: ProcessId) -> bool {
        self.kind == OpKind::Remove && self.target == p
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.kind, self.target)
    }
}

/// One element of a process's `next(p)` list (§4.4): how the process expects
/// its local view to change next, on whose command, and which version would
/// result.
///
/// A *placeholder* entry `(? : r : ?)` — recorded when responding to `r`'s
/// interrogation — has `ops == None` and `ver == None`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NextEntry {
    /// The expected operation(s), or `None` for the `?` of a placeholder.
    ///
    /// Reconfiguration proposals may carry more than one operation
    /// ("the reconfiguration proposal RL_r may be more than just a single
    /// process", §5 Remarks), hence a list.
    pub ops: Option<Vec<Op>>,
    /// The coordinator the commit is expected from (`Mgr` or a reconfigurer).
    pub coord: ProcessId,
    /// The version the change would install, or `None` for a placeholder.
    pub ver: Option<Ver>,
}

impl NextEntry {
    /// A concrete expectation `(ops : coord : ver)`.
    pub fn concrete(ops: Vec<Op>, coord: ProcessId, ver: Ver) -> Self {
        NextEntry {
            ops: Some(ops),
            coord,
            ver: Some(ver),
        }
    }

    /// The placeholder `(? : coord : ?)` appended when responding to an
    /// interrogation (§4.4).
    pub fn placeholder(coord: ProcessId) -> Self {
        NextEntry {
            ops: None,
            coord,
            ver: None,
        }
    }

    /// True if this entry is a `(? : r : ?)` placeholder.
    pub fn is_placeholder(&self) -> bool {
        self.ops.is_none()
    }
}

impl fmt::Display for NextEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.ops, self.ver) {
            (Some(ops), Some(v)) => {
                write!(f, "(")?;
                for (i, op) in ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{op}")?;
                }
                write!(f, " : {} : {v})", self.coord)
            }
            _ => write!(f, "(? : {} : ?)", self.coord),
        }
    }
}

/// Majority cardinality `μ(S) = ⌊|S|/2⌋ + 1` of a set of size `n` (§4.3, §7).
#[inline]
pub fn majority_of(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_and_index() {
        let p = ProcessId(7);
        assert_eq!(p.to_string(), "p7");
        assert_eq!(p.index(), 7);
        assert_eq!(ProcessId::from(3u32), ProcessId(3));
    }

    #[test]
    fn op_constructors() {
        let r = Op::remove(ProcessId(1));
        assert_eq!(r.kind, OpKind::Remove);
        assert!(r.removes(ProcessId(1)));
        assert!(!r.removes(ProcessId(2)));
        let a = Op::add(ProcessId(2));
        assert_eq!(a.kind, OpKind::Add);
        assert!(!a.removes(ProcessId(2)));
        assert_eq!(r.to_string(), "remove(p1)");
        assert_eq!(a.to_string(), "add(p2)");
    }

    #[test]
    fn next_entry_placeholder() {
        let ph = NextEntry::placeholder(ProcessId(4));
        assert!(ph.is_placeholder());
        assert_eq!(ph.to_string(), "(? : p4 : ?)");
        let c = NextEntry::concrete(vec![Op::remove(ProcessId(1))], ProcessId(0), 3);
        assert!(!c.is_placeholder());
        assert_eq!(c.to_string(), "(remove(p1) : p0 : 3)");
    }

    /// Fact 7.1: |S| even ⇒ 2μ(S) = |S| + 2.
    #[test]
    fn fact_7_1() {
        for n in (2..100).step_by(2) {
            assert_eq!(2 * majority_of(n), n + 2);
        }
    }

    /// Fact 7.2: |S| odd ⇒ 2μ(S) = |S| + 1.
    #[test]
    fn fact_7_2() {
        for n in (1..100).step_by(2) {
            assert_eq!(2 * majority_of(n), n + 1);
        }
    }

    /// Proposition 7.1: |S'| = |S|+1 ⇒ μ(S) + μ(S') > |S'|, i.e. majority
    /// subsets of neighbouring views intersect.
    #[test]
    fn prop_7_1_neighbouring_majorities_intersect() {
        for n in 1..200 {
            assert!(majority_of(n) + majority_of(n + 1) > n + 1, "n = {n}");
        }
    }
}
