//! Protocol messages of the full algorithm (§3, §4.5, §7.1).

use gmp_sim::Message;
use gmp_types::{NextEntry, Op, ProcessId, Ver};
use std::sync::Arc;

/// The gossip payload (F2) piggybacked on a heartbeat: the sender's whole
/// faulty set.
///
/// Every beat carries the set, as an [`Arc`]-shared snapshot built once
/// per change of the set, so each beat's payload is a reference-count
/// bump, not a copy. A receiver that already processed the set finds every
/// id in it isolated (S1 is permanent), so a repeat does nothing there; a
/// receiver that missed it, because it was still joining or the beat was
/// lost, learns it from the next beat. The digest is empty while the set
/// is.
#[derive(Clone, Debug, Default)]
pub struct HeartbeatDigest {
    /// `Some(set)`: the sender's complete faulty set as of this beat.
    /// `None`: the sender's faulty set is empty.
    faulty: Option<Arc<[ProcessId]>>,
}

impl HeartbeatDigest {
    /// A pure life sign: the sender's faulty set is empty.
    pub fn empty() -> Self {
        HeartbeatDigest { faulty: None }
    }

    /// A beat carrying the sender's full faulty set. The snapshot is shared:
    /// cloning this digest per broadcast recipient copies nothing.
    pub fn snapshot(set: Arc<[ProcessId]>) -> Self {
        HeartbeatDigest { faulty: Some(set) }
    }

    /// The carried faulty set, in ascending id order; empty for a pure
    /// life sign. Every clone of a digest returns the one shared slice.
    pub fn faulty(&self) -> &[ProcessId] {
        self.faulty.as_deref().unwrap_or_default()
    }
}

/// Body of [`Msg::Commit`]:
/// `Commit(op(proc-id)) : Contingent(next-op(next-id) : Faulty : Recovered)`.
#[derive(Clone, Debug)]
pub struct CommitBody {
    /// The committed change.
    pub op: Op,
    /// The version this commit installs.
    pub ver: Ver,
    /// `Mgr`'s plan for the next change, doubling as the next invitation
    /// under compression (`None` outside condensed rounds).
    pub next: Option<Op>,
    /// `Faulty(Mgr)`: contingent removals the receivers must regard as
    /// faulty (F2 propagation).
    pub faulty: Vec<ProcessId>,
    /// `Recovered(Mgr)`: queued joiners.
    pub recovered: Vec<ProcessId>,
}

/// Body of [`Msg::InterrogateOk`]: an outer process's Phase I response
/// `OK(seq(p), next(p))`. It states no version: the responder's `ver(p)`
/// is the length of its `seq(p)`.
#[derive(Clone, Debug)]
pub struct InterrogateOkBody {
    /// Responder's committed operation sequence `seq(p)`.
    pub seq: Vec<Op>,
    /// Responder's expectation list `next(p)`.
    pub next: Vec<NextEntry>,
}

/// Body shared by [`Msg::Propose`], `Propose((RL_r : r : v) : (invis,
/// Faulty(r)))`, and [`Msg::ReconfCommit`], `Commit(RL_r) : (invis,
/// Faulty(r))` (§4.5).
#[derive(Clone, Debug)]
pub struct ReconfBody {
    /// The reconfiguration proposal `RL_r`.
    pub rl: Vec<Op>,
    /// The version `RL_r` installs.
    pub ver: Ver,
    /// The contingent plan the initiator executes as the new `Mgr` (in a
    /// commit under compression, also the first invitation of that plan).
    pub invis: Vec<Op>,
    /// `Faulty(r)`.
    pub faulty: Vec<ProcessId>,
}

/// Body of [`Msg::Welcome`]: state transfer to a newly added member. The
/// joiner's version is the length of the sequence it is handed.
#[derive(Clone, Debug)]
pub struct WelcomeBody {
    /// Seniority-ordered membership of the current view.
    pub members: Vec<ProcessId>,
    /// Committed operation sequence: its length is the current version,
    /// and the joiner serves future interrogations from it.
    pub seq: Vec<Op>,
    /// The current coordinator.
    pub mgr: ProcessId,
}

/// Body of [`Msg::ViewUpdate`]: a view pushed to subscribed observers.
#[derive(Clone, Debug)]
pub struct ViewUpdateBody {
    /// Seniority-ordered membership.
    pub members: Vec<ProcessId>,
    /// The version of this view.
    pub ver: Ver,
    /// The sender's coordinator.
    pub mgr: ProcessId,
}

/// Messages exchanged by [`Member`](crate::Member) processes.
///
/// Version fields always name the view version the message is *about* (the
/// version an invite proposes to install, the version a commit installs).
///
/// Every variant that carries a vector keeps it in a body behind an
/// [`Arc`]: a broadcast builds the body once and each recipient's copy
/// is a reference-count bump, and the message itself stays small enough
/// for the simulator to move it inline on every send and delivery
/// (DESIGN.md, "The event record").
#[derive(Clone, Debug)]
pub enum Msg {
    /// Periodic life sign; carries the sender's faulty set as gossip when
    /// F2 is enabled.
    Heartbeat {
        /// The piggybacked gossip digest.
        digest: HeartbeatDigest,
    },
    /// An outer process asks `Mgr` to start the exclusion algorithm for
    /// `suspect` (§3.1: "it sends a message to Mgr, requesting that it
    /// start the removal algorithm").
    FaultyReport {
        /// The perceived-faulty process.
        suspect: ProcessId,
    },
    /// A process outside the group asks to be added (§7). Members forward
    /// this to their `Mgr`.
    JoinRequest {
        /// The process that wants to join.
        joiner: ProcessId,
    },
    /// Phase I of the update algorithm: `Invite(op(proc-id))` (Fig. 8).
    Invite {
        /// The proposed membership change.
        op: Op,
        /// The version the change would install (`ver(Mgr)+1`).
        ver: Ver,
    },
    /// An outer process's `OK` response to an invitation or to the
    /// contingent part of a commit (condensed rounds, §3.1).
    UpdateOk {
        /// The version being agreed to.
        ver: Ver,
    },
    /// Phase II of the update algorithm.
    Commit(Arc<CommitBody>),
    /// Phase I of reconfiguration: the initiator's interrogation (§4.5).
    Interrogate,
    /// An outer process's Phase I response.
    InterrogateOk(Arc<InterrogateOkBody>),
    /// Phase II of reconfiguration.
    Propose(Arc<ReconfBody>),
    /// An outer process's Phase II `OK`.
    ProposeOk {
        /// The proposed version being acknowledged.
        ver: Ver,
    },
    /// Phase III of reconfiguration.
    ReconfCommit(Arc<ReconfBody>),
    /// State transfer to a newly added member (implementation addition; see
    /// `DESIGN.md` substitutions).
    Welcome(Arc<WelcomeBody>),
    /// An external *observer* asks a member to stream view changes to it —
    /// the hierarchical management service sketched in §8 ("by not
    /// requiring processes to be members of their own local views").
    Subscribe,
    /// A view notification pushed to subscribed observers.
    ViewUpdate(Arc<ViewUpdateBody>),
}

impl Message for Msg {
    fn tag(&self) -> &'static str {
        match self {
            Msg::Heartbeat { .. } => "heartbeat",
            Msg::FaultyReport { .. } => "faulty-report",
            Msg::JoinRequest { .. } => "join-request",
            Msg::Invite { .. } => "invite",
            Msg::UpdateOk { .. } => "update-ok",
            Msg::Commit(_) => "commit",
            Msg::Interrogate => "interrogate",
            Msg::InterrogateOk(_) => "interrogate-ok",
            Msg::Propose(_) => "propose",
            Msg::ProposeOk { .. } => "propose-ok",
            Msg::ReconfCommit(_) => "reconf-commit",
            Msg::Welcome(_) => "welcome",
            Msg::Subscribe => "subscribe",
            Msg::ViewUpdate(_) => "view-update",
        }
    }
}

/// Tags counted by the §7.2 message-complexity experiments: the update and
/// reconfiguration protocol proper, excluding heartbeats, suspicion reports,
/// join requests and state transfer (see `EXPERIMENTS.md`).
pub const PROTOCOL_TAGS: [&str; 8] = [
    "invite",
    "update-ok",
    "commit",
    "interrogate",
    "interrogate-ok",
    "propose",
    "propose-ok",
    "reconf-commit",
];

/// True when `tag` belongs to the §7.2 counting convention.
pub fn is_protocol_tag(tag: &str) -> bool {
    PROTOCOL_TAGS.contains(&tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable_and_counted_correctly() {
        assert_eq!(Msg::Interrogate.tag(), "interrogate");
        assert_eq!(
            Msg::Heartbeat {
                digest: HeartbeatDigest::empty()
            }
            .tag(),
            "heartbeat"
        );
        assert!(is_protocol_tag("invite"));
        assert!(is_protocol_tag("reconf-commit"));
        assert!(!is_protocol_tag("heartbeat"));
        assert!(!is_protocol_tag("welcome"));
        assert!(!is_protocol_tag("faulty-report"));
    }

    #[test]
    fn digest_clones_share_the_snapshot() {
        let set: Arc<[ProcessId]> = vec![ProcessId(3), ProcessId(7)].into();
        let d = HeartbeatDigest::snapshot(set.clone());
        let fanned = d.clone(); // what broadcast does per recipient
        assert_eq!(fanned.faulty(), [ProcessId(3), ProcessId(7)]);
        assert!(
            Arc::ptr_eq(&set, d.faulty.as_ref().unwrap()),
            "digest wraps, never copies, the snapshot"
        );
        assert!(
            std::ptr::eq(d.faulty(), fanned.faulty()),
            "every clone returns the one shared slice"
        );

        let beat = HeartbeatDigest::empty();
        assert!(beat.faulty().is_empty());
    }

    /// Every send moves a `Msg` into the engine's event record and every
    /// delivery moves it out. At 128 B and above LLVM emits each such move
    /// as a `memcpy` call on baseline x86-64; a 24-byte message keeps the
    /// whole record under that limit. A new variant that carries a vector
    /// puts it in a body behind an `Arc`, like `Commit`'s.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn msg_stays_small_enough_to_move_inline() {
        assert!(
            std::mem::size_of::<Msg>() <= 24,
            "{}",
            std::mem::size_of::<Msg>()
        );
    }
}
