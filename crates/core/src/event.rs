//! The consumer-facing event queue: what a layer built *on top of*
//! membership needs to hear from it.
//!
//! A [`Member`](crate::Member) exposes accessors (`view()`, `faulty_set()`,
//! …) for inspection, but a consumer embedded in the same process — a
//! replicated log, a lock service, a router — must learn about membership
//! *transitions*, not poll state. Every protocol-visible transition
//! therefore also pushes a [`MemberEvent`] onto an internal queue that the
//! host drains with [`Member::take_events`](crate::Member::take_events)
//! after each handler call.
//!
//! # Contract
//!
//! * **Protocol-invisible.** Recording an event is a plain vector push: no
//!   sends, no timers, no trace notes, no randomness. Runs are byte-
//!   identical whether or not anyone drains the queue (the golden
//!   fingerprints in `tests/determinism.rs` pin this).
//! * **Deterministic.** For a fixed `(n, seed, fault schedule)` the event
//!   stream of every process is a pure function of the run — two replays
//!   of the same schedule drain identical streams (`tests/member_events.rs`
//!   proptests this).
//! * **Ordered.** Events appear in the order the transitions happened at
//!   this process. A `ViewInstalled` for version `v` precedes any event
//!   whose precondition is version `v`.
//! * **Drained, not broadcast.** `take_events` hands the queue over and
//!   empties it; an undrained queue grows only with membership activity
//!   (view changes and suspicions), never with steady-state traffic.
//! * **Copied on drain.** Until it is drained, a `ViewInstalled` or
//!   `Welcomed` holds the installed view's shared snapshot, not a copy of
//!   its members: every member that installs one view shares one list.
//!   `take_events` fills in each `members` vector, so only a host that
//!   drains pays for the copy.
//!
//! # Relation to trace [`Note`](gmp_types::Note)s
//!
//! Notes go to the *global* trace for offline property checking; events go
//! to the *local* consumer for online reaction. They overlap deliberately
//! (`ViewInstalled` exists as both) but serve different masters: notes are
//! diagnostic and may grow richer, events are the stable API surface.

use gmp_types::{FaultySource, ProcessId, QuitReason, Ver, View};

/// A membership transition observed by the local process, for consumers
/// layered on top of the group (drained via
/// [`Member::take_events`](crate::Member::take_events)).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemberEvent {
    /// A view was installed: the initial view at start (`ver == 0`), or an
    /// agreed membership operation committed locally. `mgr` is the
    /// coordinator of the installed view — consumers using the group for
    /// leader election (e.g. `gmp-log`) treat it as the leader and `ver`
    /// as the leader's ballot.
    ViewInstalled {
        /// Version of the installed view (`ver(p)`).
        ver: Ver,
        /// Members of the installed view, in seniority order.
        members: Vec<ProcessId>,
        /// Coordinator (`Mgr`) of the installed view.
        mgr: ProcessId,
    },
    /// This process began believing `peer` faulty (`faulty_p(q)`, §2.2) —
    /// by its own timeout (F1), by gossip (F2), by the `HiFaulty`
    /// inference, or injected by a test. The exclusion has *not* committed
    /// yet; a `ViewInstalled` without `peer` follows once it does.
    PeerSuspected {
        /// The newly suspected process.
        peer: ProcessId,
        /// What produced the belief.
        source: FaultySource,
    },
    /// An exclusion committed: `peer` left the membership at version `ver`.
    /// Always preceded by `PeerSuspected { peer, .. }` (GMP-1) and
    /// immediately followed by the matching `ViewInstalled`.
    PeerExcluded {
        /// The excluded process.
        peer: ProcessId,
        /// Version of the view that no longer contains `peer`.
        ver: Ver,
    },
    /// This process, having started as a joiner (§7), was welcomed into
    /// the group and is now `Active` in the carried view. Takes the place
    /// of the first `ViewInstalled` at a joiner.
    Welcomed {
        /// Version of the first view this process belongs to.
        ver: Ver,
        /// Members of that view, in seniority order (including this
        /// process).
        members: Vec<ProcessId>,
        /// Coordinator of that view.
        mgr: ProcessId,
    },
    /// This process left the group for good (`quit_p`, §2.1): excluded by
    /// the others, or resigned after losing the `Mgr` majority. Terminal —
    /// no further events follow.
    Quit {
        /// Why the process quit.
        reason: QuitReason,
    },
}

/// A queued event as the member holds it until
/// [`Member::take_events`](crate::Member::take_events) drains it: a view
/// event keeps the view's shared snapshot and copies its members then.
pub(crate) enum Pending {
    /// Any event that carries no member list.
    Event(MemberEvent),
    /// `ViewInstalled`, or `Welcomed` when `welcomed` is set.
    View {
        ver: Ver,
        view: View,
        mgr: ProcessId,
        welcomed: bool,
    },
}

impl Pending {
    /// The event a consumer drains.
    pub(crate) fn into_event(self) -> MemberEvent {
        match self {
            Pending::Event(event) => event,
            Pending::View {
                ver,
                view,
                mgr,
                welcomed,
            } => {
                let members = view.to_vec();
                if welcomed {
                    MemberEvent::Welcomed { ver, members, mgr }
                } else {
                    MemberEvent::ViewInstalled { ver, members, mgr }
                }
            }
        }
    }
}
