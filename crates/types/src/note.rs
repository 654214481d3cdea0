//! Semantic trace annotations emitted by protocol implementations.
//!
//! The GMP specification (§2.3) is stated over *events* in process histories:
//! `faulty_p(q)`, `remove_p(q)`, view installations, quits. Protocols running
//! in the simulator emit these as [`Note`]s; the `gmp-props` crate then
//! checks GMP-0…GMP-5 against the recorded run.

use crate::{Op, ProcessId, Ver};
use std::fmt;
use std::sync::Arc;

/// A semantic event in a process history, recorded into the simulation trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Note {
    /// The event `faulty_p(q)`: this process now believes `suspect` faulty
    /// (§2.2, sources F1 observation / F2 gossip).
    Faulty {
        /// The process now believed faulty.
        suspect: ProcessId,
        /// Which mechanism produced the belief.
        source: FaultySource,
    },
    /// The analogue of `faulty` for recoveries: this process has learned
    /// that `id` is operational / joining (§7).
    Operating {
        /// The process now believed operational.
        id: ProcessId,
    },
    /// A membership operation was applied to the local view, producing
    /// version `ver` (the events `remove_p(q)` / `add_p(q)`).
    OpApplied {
        /// The operation applied.
        op: Op,
        /// The resulting local version.
        ver: Ver,
    },
    /// A new local view was installed (after applying all operations of a
    /// commit). `members` is seniority-ordered.
    ViewInstalled {
        /// The version of the installed view.
        ver: Ver,
        /// Seniority-ordered membership of the view: the installer's own
        /// list ([`View::shared`](crate::View::shared)), not a copy.
        members: Arc<[ProcessId]>,
        /// Whom this process considers coordinator in this view.
        mgr: ProcessId,
    },
    /// This process assumed the `Mgr` role (initially, or at the end of a
    /// successful reconfiguration).
    BecameMgr {
        /// The version at which the role was assumed.
        ver: Ver,
    },
    /// This process initiated the three-phase reconfiguration algorithm
    /// (its `HiFaulty` set became full, §4.2).
    ReconfStarted {
        /// The initiator's local version at initiation.
        from_ver: Ver,
    },
    /// A reconfiguration initiator or coordinator aborted and executed
    /// `quit` (e.g. it failed to assemble a majority, §4.3).
    Quit {
        /// Human-readable reason, for diagnostics.
        reason: QuitReason,
    },
    /// An inbound message was discarded by the isolation rule S1
    /// ("once p believes q faulty, p never receives messages from q again").
    Isolated {
        /// The sender whose message was discarded.
        from: ProcessId,
    },
    /// `Mgr` queued a join request (§7).
    JoinRequested {
        /// The process asking to join.
        joiner: ProcessId,
    },
    /// An external observer (§8 hierarchical service) learned of a view.
    /// Distinct from [`Note::ViewInstalled`]: observers are *not* members,
    /// so their knowledge does not participate in the GMP clauses.
    ObservedView {
        /// The version observed.
        ver: Ver,
        /// Seniority-ordered membership observed.
        members: Arc<[ProcessId]>,
        /// The coordinator according to the notifying member.
        mgr: ProcessId,
    },
    /// Free-form annotation for experiments.
    Custom(String),
}

/// Why a process came to believe another faulty (§2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultySource {
    /// F1: direct observation (timeout).
    Observation,
    /// F2: gossip — learned from a message sent by a process that already
    /// believed the suspect faulty.
    Gossip,
    /// Inferred from an interrogation: every process senior to the initiator
    /// is in `HiFaulty(initiator)` (§4.5).
    HiFaultyInference,
    /// Injected by a test or experiment (models spurious detection).
    Injected,
}

/// Why a process executed `quit`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuitReason {
    /// The process learned it is being excluded from the group (it was the
    /// target of a removal, appeared in a contingent faulty set, or received
    /// an interrogation from a lower-ranked initiator).
    Excluded,
    /// A coordinator failed to gather a majority of responses (§4.3: "An
    /// initiator that is unable to obtain either majority will execute
    /// quit").
    NoMajority {
        /// Number of responses assembled, counting the coordinator itself.
        got: usize,
        /// The majority threshold that was required.
        needed: usize,
    },
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::Faulty { suspect, source } => write!(f, "faulty({suspect}) [{source:?}]"),
            Note::Operating { id } => write!(f, "operating({id})"),
            Note::OpApplied { op, ver } => write!(f, "applied {op} -> v{ver}"),
            Note::ViewInstalled { ver, members, mgr } => {
                write!(f, "installed v{ver} mgr={mgr} members=")?;
                fmt_members(f, members)
            }
            Note::BecameMgr { ver } => write!(f, "became Mgr at v{ver}"),
            Note::ReconfStarted { from_ver } => {
                write!(f, "reconfiguration started from v{from_ver}")
            }
            Note::Quit { reason } => write!(f, "quit: {reason:?}"),
            Note::Isolated { from } => write!(f, "isolated message from {from}"),
            Note::JoinRequested { joiner } => write!(f, "join requested by {joiner}"),
            Note::ObservedView { ver, members, mgr } => {
                write!(f, "observed v{ver} mgr={mgr} members=")?;
                fmt_members(f, members)
            }
            Note::Custom(s) => write!(f, "{s}"),
        }
    }
}

/// A member list as `[p0,p1]`: the rendering shared by the two view notes.
fn fmt_members(f: &mut fmt::Formatter<'_>, members: &[ProcessId]) -> fmt::Result {
    write!(f, "[")?;
    for (i, m) in members.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{m}")?;
    }
    write!(f, "]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_display_nonempty() {
        let notes = [
            Note::Faulty {
                suspect: ProcessId(1),
                source: FaultySource::Observation,
            },
            Note::Operating { id: ProcessId(2) },
            Note::OpApplied {
                op: Op::remove(ProcessId(1)),
                ver: 3,
            },
            Note::ViewInstalled {
                ver: 1,
                members: vec![ProcessId(0)].into(),
                mgr: ProcessId(0),
            },
            Note::BecameMgr { ver: 2 },
            Note::ReconfStarted { from_ver: 1 },
            Note::Quit {
                reason: QuitReason::Excluded,
            },
            Note::Quit {
                reason: QuitReason::NoMajority { got: 1, needed: 3 },
            },
            Note::Isolated { from: ProcessId(9) },
            Note::JoinRequested {
                joiner: ProcessId(8),
            },
            Note::Custom("hello".into()),
        ];
        for n in &notes {
            assert!(!n.to_string().is_empty());
        }
    }

    #[test]
    fn view_notes_render_their_member_lists() {
        let installed = Note::ViewInstalled {
            ver: 1,
            members: vec![ProcessId(0), ProcessId(2)].into(),
            mgr: ProcessId(0),
        };
        assert_eq!(installed.to_string(), "installed v1 mgr=p0 members=[p0,p2]");
        let observed = Note::ObservedView {
            ver: 3,
            members: Vec::new().into(),
            mgr: ProcessId(1),
        };
        assert_eq!(observed.to_string(), "observed v3 mgr=p1 members=[]");
    }
}
