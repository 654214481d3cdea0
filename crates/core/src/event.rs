//! The consumer-facing membership events: what a layer built *on top of*
//! membership needs to hear from it.
//!
//! A [`Member`](crate::Member) exposes accessors (`view()`, `faulty_set()`,
//! …) for inspection, but a consumer embedded in the same process — a
//! replicated log, a lock service, a router — must learn about membership
//! *transitions*, not poll state. The member records each transition once,
//! as a trace [`Note`] emitted through its sink; [`MemberEvent::of`] reads
//! the two a consumer reacts to off that note stream: the agreed views and
//! the local quit. A raw suspicion (`Note::Faulty`) is not one of them: it
//! is a single process's belief, and a consumer waits for the view that
//! agrees on it. A host that wants events steps the member through a sink
//! that forwards every effect and keeps `MemberEvent::of` of each note
//! (`gmp-log`'s `Replica` does this).
//!
//! # Contract
//!
//! * **One record.** An event is a view of a note, never a second record:
//!   the note stream is the process's history (§2.1), and the events are
//!   the part of it a consumer reads.
//! * **Deterministic.** For a fixed `(n, seed, fault schedule)` the note
//!   stream of every process, and so its event stream, is a pure function
//!   of the run (`tests/member_events.rs` proptests this).
//! * **Ordered.** Events appear in the order the transitions happened at
//!   this process. A `ViewInstalled` for version `v` precedes any event
//!   whose precondition is version `v`.
//!
//! A joiner's first `ViewInstalled` is its welcome, and an exclusion is
//! the `ViewInstalled` without the excluded peer: the consumer that needs
//! either tells it from its own state.

use gmp_types::{Note, ProcessId, QuitReason, Ver};

/// A membership transition observed by the local process, for consumers
/// layered on top of the group: the note kinds [`MemberEvent::of`] maps.
/// The enum is exhaustive on purpose: a new kind fails to compile in
/// every consumer until that consumer decides what it means.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemberEvent {
    /// A view was installed: the initial view at start (`ver == 0`), a
    /// joiner's welcome, or an agreed membership operation committed
    /// locally. `mgr` is the coordinator of the installed view — consumers
    /// using the group for leader election (e.g. `gmp-log`) treat it as
    /// the leader and `ver` as the leader's ballot.
    ViewInstalled {
        /// Version of the installed view (`ver(p)`).
        ver: Ver,
        /// Members of the installed view, in seniority order.
        members: Vec<ProcessId>,
        /// Coordinator (`Mgr`) of the installed view.
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

impl MemberEvent {
    /// The event `note` records, if it is one a consumer reads:
    /// `ViewInstalled` (its members copied out of the shared list) and
    /// `Quit`. Every other note, `Faulty` included, is `None`.
    pub fn of(note: &Note) -> Option<MemberEvent> {
        Some(match note {
            Note::ViewInstalled { ver, members, mgr } => MemberEvent::ViewInstalled {
                ver: *ver,
                members: members.to_vec(),
                mgr: *mgr,
            },
            Note::Quit { reason } => MemberEvent::Quit {
                reason: reason.clone(),
            },
            _ => return None,
        })
    }
}
