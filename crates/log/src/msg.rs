//! Wire format of the replicated log, and the combined envelope that lets
//! log traffic and membership traffic share one simulated network.

use gmp_core::Msg;
use gmp_sim::Message;
use gmp_types::{ProcessId, Ver};
use std::sync::Arc;

/// A client command. The log stores command *identities*; `(client, seq)`
/// is unique because each client numbers its own requests. Slot fillers
/// proposed during leader recovery use [`LogCmd::NOOP`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogCmd {
    /// The issuing client (a process outside the group).
    pub client: ProcessId,
    /// The client's own request counter, starting at 0.
    pub seq: u64,
}

impl LogCmd {
    /// The no-op filler a recovering leader proposes into slots it cannot
    /// otherwise fill (classic multipaxos gap handling). Uses the same
    /// sentinel id space as the membership layer's "unassigned" marker.
    pub const NOOP: LogCmd = LogCmd {
        client: ProcessId(u32::MAX),
        seq: 0,
    };

    /// True for the recovery filler.
    pub fn is_noop(&self) -> bool {
        *self == LogCmd::NOOP
    }
}

/// A summary of everything below a cut in a replica's applied log:
/// enough for a receiver to serve reads of the dedup state and to accept
/// decides above the cut, without ever seeing the prefix.
///
/// Every slot `< floor` is committed (decided and applied) at the
/// snapshot's producer, and `clients` holds the dedup
/// high-water mark — the last committed `seq` — of every client with a
/// command anywhere in `[0, floor)` *or* in the producer's applied suffix
/// (carrying the suffix marks too costs nothing and lets receivers adopt
/// the map wholesale). Client sequence numbers commit in order per client
/// (FIFO links, see the module docs of [`crate::replica`]), so one `seq`
/// per client is a complete dedup summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// First slot *not* covered: everything below is committed and
    /// summarized here.
    pub floor: u64,
    /// Per-client dedup high-water marks `(client, last seq)`, sorted by
    /// client id.
    pub clients: Vec<(ProcessId, u64)>,
}

/// Body of [`LogMsg::RecoverOk`]: an acceptor's report to a new leader.
#[derive(Clone, Debug)]
pub struct RecoverOkBody {
    /// Echo of the recover's ballot.
    pub ballot: Ver,
    /// Present iff the responder cannot report entries all the way down to
    /// the requested slot.
    pub snapshot: Option<Snapshot>,
    /// This acceptor's accepted entries from the requested slot on (from
    /// the snapshot's floor, when one is attached), as `(slot, ballot,
    /// cmd)`.
    pub entries: Vec<(u64, Ver, LogCmd)>,
}

/// Body of [`LogMsg::SyncOk`]: state transfer to a joiner.
#[derive(Clone, Debug)]
pub struct SyncOkBody {
    /// First slot of `entries`: the sync's `from`, or the snapshot's floor
    /// when one is attached.
    pub from: u64,
    /// Present iff the responder cut its answer above the requested
    /// `from`.
    pub snapshot: Option<Snapshot>,
    /// Committed suffix starting at `from`, as `(deciding ballot, cmd)`.
    pub entries: Vec<(Ver, LogCmd)>,
}

/// Replicated-log protocol messages.
///
/// Ballots are GMP view versions: monotone, agreed, and free — the
/// membership layer already paid for the agreement. The steady state is
/// phase-2-only multipaxos, run per *range* of slots
/// (`AcceptBatch`/`AcceptOkRange`/`DecideBatch`) so the message cost per
/// command is amortized by the batch size; a single command is a range of
/// one. Phase 1 exists as the `Recover` round a new leader runs after a
/// view install.
///
/// As in [`gmp_core::Msg`], a variant that carries a vector keeps it behind
/// an [`Arc`], so a log message stays small enough for the simulator to
/// move inline.
#[derive(Clone, Debug)]
pub enum LogMsg {
    /// Client → leader: append `cmd` to the log.
    Request {
        /// The command to append.
        cmd: LogCmd,
    },
    /// Leader → client: the command with this `seq` committed.
    Reply {
        /// Echo of the client's request counter.
        seq: u64,
    },
    /// Leader → acceptors: accept `cmds` into the contiguous slot range
    /// starting at `first_slot`, at `ballot`. A batch of one is how a
    /// single command is proposed.
    AcceptBatch {
        /// The proposing leader's ballot (its view version).
        ballot: Ver,
        /// Slot of `cmds[0]`; `cmds[i]` goes into `first_slot + i`.
        first_slot: u64,
        /// The proposed commands, in slot order — one allocation shared by
        /// the copies sent to every acceptor.
        cmds: Arc<[LogCmd]>,
    },
    /// Acceptor → leader: the whole range `[first_slot, first_slot +
    /// count)` is accepted. One message acks a whole `AcceptBatch`.
    AcceptOkRange {
        /// Echo of the batch's ballot.
        ballot: Ver,
        /// Echo of the batch's first slot.
        first_slot: u64,
        /// Number of contiguous slots accepted.
        count: u64,
    },
    /// Leader → replicas: the contiguous range starting at `first_slot`
    /// is decided (majority-accepted).
    DecideBatch {
        /// Ballot under which the range was decided.
        ballot: Ver,
        /// Slot of `cmds[0]`.
        first_slot: u64,
        /// The decided commands, in slot order (shared like an
        /// `AcceptBatch`'s).
        cmds: Arc<[LogCmd]>,
    },
    /// New leader → view members: report every accepted entry at slot ≥
    /// `from` (the leader's committed length), so in-flight proposals of
    /// the dead leader can be re-proposed at `ballot`.
    Recover {
        /// The new leader's ballot.
        ballot: Ver,
        /// First slot of interest.
        from: u64,
    },
    /// Acceptor → new leader: accepted entries at slot ≥ the recover's
    /// `from`. When the responder's own log starts above the requested
    /// slot (it booted from a snapshot and holds nothing below its base),
    /// it attaches its current snapshot so the requester can catch up
    /// first.
    RecoverOk(Arc<RecoverOkBody>),
    /// Freshly welcomed member → leader: send me the committed prefix from
    /// `from` (state transfer for joiners).
    Sync {
        /// First slot the joiner is missing (its committed length).
        from: u64,
    },
    /// Leader → joiner: state transfer. This is the committed entries from
    /// `from` in slot order; once more than the responder's `compact_keep`
    /// entries lie above `from`, the prefix ships as a [`Snapshot`] and
    /// `entries` is only the last `compact_keep` — O(keep), not O(log).
    SyncOk(Arc<SyncOkBody>),
}

impl Message for LogMsg {
    fn tag(&self) -> &'static str {
        match self {
            LogMsg::Request { .. } => "log-request",
            LogMsg::Reply { .. } => "log-reply",
            LogMsg::AcceptBatch { .. } => "log-accept-batch",
            LogMsg::AcceptOkRange { .. } => "log-accept-ok-range",
            LogMsg::DecideBatch { .. } => "log-decide-batch",
            LogMsg::Recover { .. } => "log-recover",
            LogMsg::RecoverOk(_) => "log-recover-ok",
            LogMsg::Sync { .. } => "log-sync",
            LogMsg::SyncOk(_) => "log-sync-ok",
        }
    }
}

/// The combined wire type of a log-bearing cluster: membership protocol
/// messages and log messages share one network, one trace and one stats
/// table (log tags are `log-*`-prefixed; [`gmp_core::PROTOCOL_TAGS`] keeps
/// counting only the membership side).
#[derive(Clone, Debug)]
pub enum AppMsg {
    /// A membership-protocol message, delivered to the replica's
    /// [`Member`] (whose sends are wrapped here by `From<Msg>` as the
    /// replica's context takes them).
    ///
    /// [`Member`]: gmp_core::Member
    Gmp(Msg),
    /// A replicated-log message, delivered to the [`ReplicatedLog`]
    /// (replicas) or the [`Client`](crate::Client).
    ///
    /// [`ReplicatedLog`]: crate::ReplicatedLog
    Log(LogMsg),
}

impl From<Msg> for AppMsg {
    fn from(m: Msg) -> Self {
        AppMsg::Gmp(m)
    }
}

impl From<LogMsg> for AppMsg {
    fn from(m: LogMsg) -> Self {
        AppMsg::Log(m)
    }
}

impl Message for AppMsg {
    fn tag(&self) -> &'static str {
        match self {
            AppMsg::Gmp(m) => m.tag(),
            AppMsg::Log(m) => m.tag(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_not_a_client_command() {
        assert!(LogCmd::NOOP.is_noop());
        assert!(!LogCmd {
            client: ProcessId(3),
            seq: 0
        }
        .is_noop());
    }

    #[test]
    fn tags_delegate_through_the_envelope() {
        let m = AppMsg::Log(LogMsg::Sync { from: 0 });
        assert_eq!(m.tag(), "log-sync");
        let m = AppMsg::Gmp(Msg::Interrogate);
        assert_eq!(m.tag(), "interrogate");
    }

    /// The simulator moves every message into its event record on send and
    /// out on delivery; at 128 B and above each move is a `memcpy` call on
    /// baseline x86-64. A 40-byte `AppMsg` keeps the record at 72 B. A new
    /// variant that carries a vector puts it behind an `Arc`.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn log_messages_stay_small_enough_to_move_inline() {
        use std::mem::size_of;
        assert!(
            size_of::<LogMsg>() <= 40,
            "LogMsg is {} B",
            size_of::<LogMsg>()
        );
        assert!(
            size_of::<AppMsg>() <= 40,
            "AppMsg is {} B",
            size_of::<AppMsg>()
        );
    }
}
