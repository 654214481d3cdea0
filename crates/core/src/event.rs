//! The consumer-facing membership events: what a layer built *on top of*
//! membership needs to hear from it.
//!
//! A [`Member`](crate::Member) exposes accessors (`view()`, `faulty_set()`,
//! …) for inspection, but a consumer embedded in the same process — a
//! replicated log, a lock service, a router — must learn about membership
//! *transitions*, not poll state. The member records each transition once,
//! as a trace [`Note`] emitted through its sink; [`MemberEvent::of`] reads
//! the three a consumer reacts to off that note stream. A host that wants
//! events steps the member through a sink that forwards every effect and
//! keeps `MemberEvent::of` of each note (`gmp-log`'s `Replica` does this).
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

use gmp_types::{FaultySource, Note, ProcessId, QuitReason, Ver};

/// A membership transition observed by the local process, for consumers
/// layered on top of the group: the note kinds [`MemberEvent::of`] maps.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
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
    /// `ViewInstalled` (its members copied out of the shared list),
    /// `Faulty` as `PeerSuspected`, and `Quit`. Every other note is `None`.
    pub fn of(note: &Note) -> Option<MemberEvent> {
        Some(match note {
            Note::ViewInstalled { ver, members, mgr } => MemberEvent::ViewInstalled {
                ver: *ver,
                members: members.to_vec(),
                mgr: *mgr,
            },
            Note::Faulty { suspect, source } => MemberEvent::PeerSuspected {
                peer: *suspect,
                source: *source,
            },
            Note::Quit { reason } => MemberEvent::Quit {
                reason: reason.clone(),
            },
            _ => return None,
        })
    }
}
