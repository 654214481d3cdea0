//! The replicated-log state machine: multipaxos with GMP as the
//! reconfiguration and leader-election oracle.
//!
//! # How the membership layer is used
//!
//! | multipaxos concept | provided by GMP |
//! |---|---|
//! | configuration / epoch | the installed view |
//! | ballot number | the view version (monotone, agreed) |
//! | leader | the view's coordinator `Mgr` |
//! | quorum | the view majority (`⌊n/2⌋ + 1`) |
//! | leader election / phase 1 trigger | [`MemberEvent::ViewInstalled`] |
//!
//! The steady state is phase-2-only: the leader assigns slots in order and
//! broadcasts accepts; a view-majority of acks (the leader counts itself)
//! decides, the leader answers the client and broadcasts the decision.
//! Because proposals go out in ascending slot order over FIFO links,
//! decisions also arrive in order and the applied prefix never holds holes
//! for long.
//!
//! # One struct, one file per Paxos role
//!
//! [`ReplicatedLog`] is one struct with one `impl` block per role, named
//! as in *Paxos Made Moderately Complex*. The roles are not split into
//! structs of their own: every one of them reads the view, the ballot and
//! the slot window, so each wrapper's callers would still need to know
//! everything they know now.
//!
//! | file | role | handlers |
//! |---|---|---|
//! | `mod.rs` | — | the struct, accessors, `step_event`/`step_message`/`step_flush`, `store`, `check_invariants` |
//! | `leader.rs` | leader (proposer) | `become_leader`, `on_request`, `on_recover_ok`, `finish_recovery_if_ready`, `propose_queued`, `propose_batch`, `count_acks`, `decide_slots` |
//! | `acceptor.rs` | acceptor | `on_accept`, `accept`, `on_recover` |
//! | `learner.rs` | replica (learner) | `on_decide`, `on_sync_ok`, `learn_and_apply`, `learn`, `apply_contiguous` |
//! | `catch_up.rs` | catch-up | `raise_mark`, `snapshot`, `install_snapshot`, `catch_up`, `on_sync` |
//!
//! Debug builds check the log's invariants after every entry point (the
//! applied vectors in step, the window above the applied prefix, a leader
//! that is active and believes itself leader); release builds compile the
//! check out.
//!
//! # Where per-slot state lives
//!
//! Slot numbers are dense and monotone, so nothing here is a tree keyed
//! by slot. A replica's history is three parallel vectors — `committed`,
//! `ballots`, `applied_at` — covering `[base, logical_len)`, and
//! everything above is one `SlotWindow` of `(ballot, cmd, decided)`
//! entries: an accept writes an entry, a decision marks it (a decided
//! entry is final — later accepts leave it alone, and are acked only when
//! they carry the decided command), and applying pops the window's front
//! onto the vectors. The window therefore never holds an applied slot; `Recover` and `Sync` answer for those from the vectors
//! (decided ⊇ accepted, so the deciding ballot is a valid accepted
//! ballot). The leader's in-flight proposals are a second window whose
//! slots carry their ack set as a bitmask over view ranks, a slot leaving
//! it the moment it reaches quorum; the recovery round collects reports
//! in a third. The one command-keyed table, the leader's `admitted` set,
//! is a hash set: it is only probed, never iterated on a path that emits
//! a message. Committed commands are deduplicated by the per-client
//! high-water marks alone (see Catch-up).
//!
//! # Batching and pipelining
//!
//! Phase 2 has one wire path: the leader proposes up to `batch_max`
//! queued commands in one `AcceptBatch`, acceptors ack the whole range in
//! one `AcceptOkRange`, and decisions ship as `DecideBatch` runs. A batch
//! of one is the per-command case, not a separate protocol. The one
//! size-dependent policy is *when* to propose: with `batch_max > 1` the
//! leader coalesces every command that arrives within a tick (it arms a
//! 1-tick [`LOG_FLUSH`] timer on the first admission), with
//! `batch_max == 1` there is nothing to coalesce and it proposes in the
//! call that admitted the command. Message cost per command drops from
//! `3(n-1) + 2` to `3(n-1)/B + 2` for batch size `B`, and a batch's
//! commands are allocated once and shared by the copies sent to every
//! peer. Decide-path refills re-propose straight from the queue (no extra
//! flush tick), so a saturated pipeline stays saturated.
//!
//! # Catch-up
//!
//! A replica keeps every slot it applied, and one `last seq` dedup
//! high-water mark per client summarizes every command committed before
//! any slot. The mark is a complete dedup summary because links are FIFO
//! and the leader proposes in admission order, so each client's sequence
//! numbers commit in monotone order: `seq ≤ mark` ⇔ committed. A joiner's
//! `Sync` is answered with the last `compact_keep` applied entries; when
//! it asks from below them, a [`Snapshot`] — the cut plus the marks —
//! stands in for the prefix (O(keep), not O(log)), and the joiner starts
//! its applied vectors at `base = snapshot.floor` instead of 0.
//!
//! On every view install where this process is `Mgr` it (re)runs the
//! **recovery round** — multipaxos phase 1 at ballot = the new view
//! version: ask every other view member for its accepted entries above
//! the committed prefix, wait until *each* of them has answered, adopt the
//! highest-ballot value per slot, fill true gaps with no-ops, and
//! re-propose the lot before serving new client traffic. The log reads
//! only the group's agreed output, the installed views; a raw suspicion
//! never reaches it.
//!
//! *Safety* rests on recovery hearing a whole agreed view, so at least a
//! majority of it. Anything the dead leader may have committed survives
//! in the accepted sets of a majority of its view, and the new view
//! (minus the excluded members) still intersects that majority whenever
//! the group itself stayed a majority — the same bound the membership
//! layer already lives under (Fig. 8's `μ_Mgr`). So the round reads every
//! decided value and re-proposes it; and an acceptor that knows a slot
//! decided acks a proposal for it only when it carries the decided
//! command, so no ack ever vouches for a contradiction.
//!
//! *Liveness* rests on GMP-5: a suspicion ends with the suspect or its
//! observer out of the view. A member that crashes during the round never
//! answers, and the round holds until a view without it installs; that
//! install re-enters the round at the new ballot over the smaller view
//! (or hands the lead on, if the leader was the one excluded). Neither
//! argument depends on when anyone suspects anyone.
//!
//! On completing recovery the new leader also re-sends each client's
//! high-water `Reply`. A command decided under the dead leader may have
//! lost its reply with the crash, and the re-reply acknowledges it. It
//! also announces the new leader: only a leader replies, and a client
//! follows whoever replies to it, so every client with a committed
//! command moves to the new leader without waiting for its retry timer.
//! A follower ignores client requests.
//!
//! The state machine is sans-IO like [`Member`](gmp_core::Member): its
//! entry points ([`step_event`](ReplicatedLog::step_event),
//! [`step_message`](ReplicatedLog::step_message),
//! [`step_flush`](ReplicatedLog::step_flush)) mutate state and emit every
//! message, and the one [`LOG_FLUSH`] timer batching needs, through a
//! `&mut impl Out<LogMsg>` sink — in the simulator the hosting
//! [`Replica`](crate::Replica) node's context, by hand a
//! `Vec<Effect<LogMsg>>`. The flush timer is always the last effect of
//! the call that arms it, so it keeps its place behind that call's sends.

mod acceptor;
mod catch_up;
mod leader;
mod learner;

use crate::msg::{LogCmd, LogMsg, RecoverOkBody, Snapshot, SyncOkBody};
use crate::window::{SlotWindow, MAX_SPAN};
use gmp_core::MemberEvent;
use gmp_sim::{Effect, IntSet, Out, Time};
use gmp_types::{ProcessId, Ver};
use leader::LeaderState;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Timer tag of the leader's batch-coalescing flush. The membership layer
/// owns tags 1–3 and the client loop tag 64; the hosting node routes this
/// one back into [`ReplicatedLog::step_flush`].
pub const LOG_FLUSH: u64 = 65;

/// What a replica holds for one slot above its applied prefix.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Ballot of the accept — or, once `decided`, of the decision.
    ballot: Ver,
    cmd: LogCmd,
    /// Learned as decided; waits here only for the slots below it.
    decided: bool,
}

/// The slots `[first, first + len)` a range message names; `None` when the
/// end overflows, and the message is then ignored whole.
fn slot_range(first: u64, len: usize) -> Option<std::ops::Range<u64>> {
    Some(first..first.checked_add(len as u64)?)
}

/// The per-process replicated-log state machine. Embed one next to a
/// [`Member`](gmp_core::Member) (the [`Replica`](crate::Replica) node does
/// this) and feed it the events of the member's notes plus incoming
/// [`LogMsg`]s.
#[derive(Clone, Debug)]
pub struct ReplicatedLog {
    me: ProcessId,
    /// Members of the current view (the acceptor set), seniority order.
    view: Vec<ProcessId>,
    /// Highest ballot promised: max of every installed version and every
    /// ballot accepted from. Accepts below it are stale and ignored.
    promised: Ver,
    /// Accepted and decided-but-parked entries, all at slot ≥
    /// `logical_len()`. Recovery reads this; below it the applied vectors
    /// answer.
    slots: SlotWindow<Entry>,
    /// First slot the applied vectors cover: 0 unless this replica booted
    /// from a snapshot, in which case its history starts at the
    /// snapshot's floor.
    base: u64,
    /// The applied log from `base`: `committed[i]` is slot `base + i`.
    committed: Vec<LogCmd>,
    /// Ballot under which each applied slot was decided.
    ballots: Vec<Ver>,
    /// Local simulated time each slot was applied.
    applied_at: Vec<Time>,
    /// Per-client dedup high-water mark: `client → last committed seq`.
    /// Complete because per-client seqs commit in order. Ordered: the
    /// failover re-reply walks it onto the wire. One entry per client
    /// whose command ever committed, whatever its id, kept for good:
    /// exactly-once needs the mark of every client that may retry.
    client_hwm: BTreeMap<ProcessId, u64>,
    /// Leader-only state, while this process is `Mgr`.
    lead: Option<LeaderState>,
    /// Max in-flight slots before client commands wait in the queue.
    max_inflight: usize,
    /// Max commands per `AcceptBatch`; at 1 requests are proposed on
    /// arrival instead of waiting for a flush timer.
    batch_max: usize,
    /// How many applied entries a snapshot catch-up ships (`usize::MAX`:
    /// a `Sync` gets every entry from `base`, with no snapshot).
    compact_keep: usize,
    /// A flush timer is armed and not yet fired — don't arm another.
    flush_armed: bool,
    /// Shape of the last `SyncOk` received: `(carried a snapshot, tail
    /// length)`. Test/bench observability for the O(tail) gate.
    last_sync: Option<(bool, u64)>,
    /// True between activation (initial view / welcome) and quit.
    active: bool,
    /// Time of the input being handled: each entry point sets it, and
    /// applying a slot stamps it into `applied_at`.
    now: Time,
    /// The sink of the three-argument entry-point shims, read back by
    /// [`take_outbox`](Self::take_outbox) and
    /// [`take_flush_request`](Self::take_flush_request).
    shim: Vec<Effect<LogMsg>>,
}

impl ReplicatedLog {
    /// A blank log: `max_inflight` caps concurrently proposed slots,
    /// `batch_max` commands go per `AcceptBatch` (1 = propose each request
    /// on arrival) and a joiner's `Sync` is answered with the last
    /// `compact_keep` applied entries behind a snapshot (`usize::MAX` =
    /// every entry, no snapshot).
    pub fn with_tuning(max_inflight: usize, batch_max: usize, compact_keep: usize) -> Self {
        assert!(max_inflight >= 1, "the in-flight window must admit work");
        assert!(batch_max >= 1, "a batch carries at least one command");
        assert!(compact_keep >= 1, "a catch-up ships at least one entry");
        ReplicatedLog {
            me: ProcessId(u32::MAX),
            view: Vec::new(),
            promised: 0,
            slots: SlotWindow::new(0),
            base: 0,
            committed: Vec::new(),
            ballots: Vec::new(),
            applied_at: Vec::new(),
            client_hwm: BTreeMap::new(),
            lead: None,
            max_inflight,
            batch_max,
            compact_keep,
            flush_armed: false,
            last_sync: None,
            active: false,
            now: 0,
            shim: Vec::new(),
        }
    }

    /// Binds this log to its process id (called by the hosting node at
    /// start, before any event is fed).
    pub fn bind(&mut self, me: ProcessId) {
        self.me = me;
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The applied log from [`base`](Self::base), in slot order (including
    /// no-op fillers): `committed()[i]` is slot `base() + i`. `base()` is
    /// 0 except on snapshot-booted replicas.
    pub fn committed(&self) -> &[LogCmd] {
        &self.committed
    }

    /// Ballot under which each applied slot was decided (parallel to
    /// [`committed`](Self::committed)).
    pub fn ballots(&self) -> &[Ver] {
        &self.ballots
    }

    /// Local simulated time each applied slot was applied (parallel to
    /// [`committed`](Self::committed)).
    pub fn applied_at(&self) -> &[Time] {
        &self.applied_at
    }

    /// First slot the applied vectors cover (the snapshot floor this
    /// replica booted from, or 0 for founders).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// One past the last applied slot (`base + committed().len()`).
    pub fn logical_len(&self) -> u64 {
        self.base + self.committed.len() as u64
    }

    /// The command this replica knows was decided at `slot`: applied, or
    /// decided and parked above the applied prefix. `None` when the slot is
    /// undecided here or lies below [`base`](Self::base).
    pub fn decided(&self, slot: u64) -> Option<LogCmd> {
        if slot < self.logical_len() {
            let i = slot.checked_sub(self.base)?;
            return Some(self.committed[i as usize]);
        }
        self.slots.get(slot).filter(|e| e.decided).map(|e| e.cmd)
    }

    /// Sizes of the hot state, for memory-bound assertions:
    /// `(accepted, parked, admitted, client marks)` — window entries, the
    /// decided ones among them, the leader's admitted-command set (0 on a
    /// follower), per-client marks.
    pub fn hot_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.slots.len(),
            self.slots.range_from(0).filter(|(_, e)| e.decided).count(),
            self.lead.as_ref().map_or(0, |lead| lead.admitted.len()),
            self.client_hwm.len(),
        )
    }

    /// Shape of the last `SyncOk` this replica received: `(carried a
    /// snapshot, tail entry count)`. `None` until one arrives.
    pub fn last_sync(&self) -> Option<(bool, u64)> {
        self.last_sync
    }

    /// True while this process believes itself leader.
    pub fn is_leader(&self) -> bool {
        self.lead.is_some()
    }

    /// Applied client operations, no-op fillers excluded (not counting
    /// anything below [`base`](Self::base) on snapshot-booted replicas).
    pub fn committed_ops(&self) -> usize {
        self.committed.iter().filter(|c| !c.is_noop()).count()
    }

    // ------------------------------------------------------------------
    // Entry-point shims, kept for `benchmark/src/micro.rs`; a change to
    // `benchmark/` ports it to the sink-taking entry points and deletes
    // these.
    // ------------------------------------------------------------------

    /// [`step_event`](Self::step_event) into the shim sink.
    #[doc(hidden)]
    pub fn on_member_event(&mut self, ev: MemberEvent, now: Time) {
        let mut out = std::mem::take(&mut self.shim);
        self.step_event(&mut out, ev, now);
        self.shim = out;
    }

    /// [`step_message`](Self::step_message) into the shim sink.
    #[doc(hidden)]
    pub fn on_message(&mut self, from: ProcessId, msg: LogMsg, now: Time) {
        let mut out = std::mem::take(&mut self.shim);
        self.step_message(&mut out, from, msg, now);
        self.shim = out;
    }

    /// [`step_flush`](Self::step_flush) into the shim sink.
    #[doc(hidden)]
    pub fn on_flush(&mut self, now: Time) {
        let mut out = std::mem::take(&mut self.shim);
        self.step_flush(&mut out, now);
        self.shim = out;
    }

    /// Drains the messages the shims emitted, in emission order.
    #[doc(hidden)]
    pub fn take_outbox(&mut self) -> Vec<(ProcessId, LogMsg)> {
        let mut sends = Vec::new();
        for effect in std::mem::take(&mut self.shim) {
            match effect {
                Effect::Send { to, msg } => sends.push((to, msg)),
                timer => self.shim.push(timer),
            }
        }
        sends
    }

    /// True once per [`LOG_FLUSH`] timer the shims armed.
    #[doc(hidden)]
    pub fn take_flush_request(&mut self) -> bool {
        let before = self.shim.len();
        self.shim.retain(|e| !matches!(e, Effect::Timer { .. }));
        self.shim.len() < before
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// The [`LOG_FLUSH`] timer fired: propose everything coalesced since
    /// it was armed (up to `batch_max` per `AcceptBatch`).
    pub fn step_flush(&mut self, out: &mut impl Out<LogMsg>, now: Time) {
        self.now = now;
        self.flush_armed = false;
        self.propose_queued(out);
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Feeds one membership transition. The hosting node calls this with
    /// the events of each member step's notes, in order.
    pub fn step_event(&mut self, out: &mut impl Out<LogMsg>, ev: MemberEvent, now: Time) {
        self.now = now;
        match ev {
            MemberEvent::ViewInstalled { ver, members, mgr } => {
                let welcomed = !self.active;
                self.active = true;
                self.view = members;
                self.promised = self.promised.max(ver);
                if mgr == self.me {
                    self.become_leader(out, ver);
                } else {
                    // Demotion (or follower continuation): any in-flight
                    // proposals are the new leader's problem now — its
                    // recovery round reads them out of our accepted set.
                    self.lead = None;
                    if welcomed {
                        // Joiner state transfer: ask the leader for the
                        // committed prefix we missed. Decides from now on
                        // reach us directly (we are in the view the leader
                        // broadcasts to); `SyncOk` fills everything before.
                        let from = self.logical_len();
                        out.send(mgr, LogMsg::Sync { from });
                    }
                }
            }
            MemberEvent::Quit { .. } => {
                // An armed flush stays armed: nothing cancels its timer.
                self.active = false;
                self.lead = None;
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Handles one incoming log message.
    pub fn step_message(
        &mut self,
        out: &mut impl Out<LogMsg>,
        from: ProcessId,
        msg: LogMsg,
        now: Time,
    ) {
        self.now = now;
        if self.active {
            match msg {
                LogMsg::Request { cmd } => self.on_request(out, from, cmd),
                LogMsg::AcceptBatch {
                    ballot,
                    first_slot,
                    cmds,
                } => self.on_accept(out, from, ballot, first_slot, &cmds),
                LogMsg::AcceptOkRange {
                    ballot,
                    first_slot,
                    count,
                } => self.count_acks(out, from, ballot, first_slot, count),
                LogMsg::DecideBatch {
                    ballot,
                    first_slot,
                    cmds,
                } => self.on_decide(ballot, first_slot, &cmds),
                LogMsg::Recover { ballot, from: req } => self.on_recover(out, from, ballot, req),
                LogMsg::RecoverOk(body) => self.on_recover_ok(out, from, body),
                LogMsg::Sync { from: req } => self.on_sync(out, from, req),
                LogMsg::SyncOk(body) => self.on_sync_ok(body),
                // Client-side messages; replicas ignore strays.
                LogMsg::Reply { .. } => {}
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Writes `slot`'s window entry, replacing what was there. False only
    /// when the window refuses a slot absurdly far from the rest.
    fn store(&mut self, slot: u64, ballot: Ver, cmd: LogCmd, decided: bool) -> bool {
        let entry = Entry {
            ballot,
            cmd,
            decided,
        };
        self.slots.insert(slot, entry)
    }

    /// Panics unless the state is one some sequence of inputs can reach.
    /// Each check holds on every well-typed input, arbitrary wire
    /// messages and membership events included (`tests/log_fuzz.rs`
    /// feeds them). A leader's in-flight count is not bounded here: a
    /// recovery plan is proposed whole, past `max_inflight`. Nor are its
    /// ack marks: `count_acks` derives the one mark it sets from the
    /// sender's view rank, and never for itself, in one expression.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        let (len, n) = (self.logical_len(), self.committed.len());
        assert!(self.ballots.len() == n && self.applied_at.len() == n);
        assert!(self.slots.len() == 0 || self.slots.span().start >= len);
        assert!(self.lead.is_none() || self.active);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_types::QuitReason;

    /// A hand-driven log's sink.
    type Sink = Vec<Effect<LogMsg>>;

    /// The `(recipient, message)` of every send in `out` since it was last
    /// read, which empties it.
    fn sends(out: &mut Sink) -> Vec<(ProcessId, LogMsg)> {
        out.drain(..)
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    /// View `ver` of `members`, led by `mgr`.
    fn view(ver: Ver, members: impl IntoIterator<Item = u32>, mgr: u32) -> MemberEvent {
        let members = members.into_iter().map(ProcessId).collect();
        let mgr = ProcessId(mgr);
        MemberEvent::ViewInstalled { ver, members, mgr }
    }

    /// Installs view `ver` of p0..p2, led by `mgr`, at time 0.
    fn installed(log: &mut ReplicatedLog, out: &mut Sink, ver: Ver, mgr: u32) {
        log.step_event(out, view(ver, [0, 1, 2], mgr), 0);
    }

    fn cmd(client: u32, seq: u64) -> LogCmd {
        LogCmd {
            client: ProcessId(client),
            seq,
        }
    }

    fn recover_ok(ballot: Ver, entries: Vec<(u64, Ver, LogCmd)>) -> LogMsg {
        LogMsg::RecoverOk(Arc::from(RecoverOkBody {
            ballot,
            snapshot: None,
            entries,
        }))
    }

    fn recover_ok_empty(log: &mut ReplicatedLog, out: &mut Sink, from: u32, ballot: Ver, at: Time) {
        log.step_message(out, ProcessId(from), recover_ok(ballot, vec![]), at);
    }

    /// p1 following p0 in a 3-member view, at ballot 0.
    fn follower() -> ReplicatedLog {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        log.bind(ProcessId(1));
        installed(&mut log, &mut sink, 0, 0);
        log
    }

    /// A batch of one: `cmd` proposed into `slot`.
    fn accept_one(ballot: Ver, slot: u64, cmd: LogCmd) -> LogMsg {
        let cmds = vec![cmd].into();
        LogMsg::AcceptBatch {
            ballot,
            first_slot: slot,
            cmds,
        }
    }

    /// The ack of a batch of one.
    fn ack_one(ballot: Ver, slot: u64) -> LogMsg {
        LogMsg::AcceptOkRange {
            ballot,
            first_slot: slot,
            count: 1,
        }
    }

    /// The decision of a batch of one.
    fn decide_one(ballot: Ver, slot: u64, cmd: LogCmd) -> LogMsg {
        let cmds = vec![cmd].into();
        LogMsg::DecideBatch {
            ballot,
            first_slot: slot,
            cmds,
        }
    }

    /// The `(slot, cmd)` of every `AcceptBatch` in `out`, each of which
    /// must be a batch of one.
    fn single_accepts(out: &[(ProcessId, LogMsg)]) -> Vec<(u64, LogCmd)> {
        out.iter()
            .filter_map(|(_, m)| match m {
                LogMsg::AcceptBatch {
                    first_slot, cmds, ..
                } => {
                    assert_eq!(cmds.len(), 1, "expected a batch of one, got {m:?}");
                    Some((*first_slot, cmds[0]))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn leader_recovers_then_serves() {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        log.bind(ProcessId(0));
        installed(&mut log, &mut sink, 0, 0);
        // Recovery round goes out to both peers…
        let out = sends(&mut sink);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].1, LogMsg::Recover { ballot: 0, from: 0 }));
        // …and no client work is served until it answers.
        log.step_message(
            &mut sink,
            ProcessId(9),
            LogMsg::Request { cmd: cmd(9, 0) },
            1,
        );
        assert!(sends(&mut sink).is_empty());
        for p in [1, 2] {
            recover_ok_empty(&mut log, &mut sink, p, 0, 2);
        }
        let out = sends(&mut sink);
        // A batch of one for slot 0 to both peers.
        assert_eq!(out.len(), 2);
        assert_eq!(single_accepts(&out), vec![(0, cmd(9, 0)); 2]);
        assert!(matches!(out[0].1, LogMsg::AcceptBatch { ballot: 0, .. }));
        // One ack + self = 2 of 3: decided, replied, applied.
        log.step_message(&mut sink, ProcessId(1), ack_one(0, 0), 3);
        let out = sends(&mut sink);
        assert!(out
            .iter()
            .any(|(to, m)| *to == ProcessId(9) && matches!(m, LogMsg::Reply { seq: 0 })));
        assert_eq!(log.committed(), &[cmd(9, 0)]);
        assert_eq!(log.committed_ops(), 1);
    }

    #[test]
    fn acceptor_rejects_stale_ballots() {
        let mut sink = Sink::new();
        let mut log = follower();
        // A view install at ver 2 raises the promise…
        installed(&mut log, &mut sink, 2, 0);
        sink.clear();
        // …so a ballot-1 accept is ignored.
        log.step_message(&mut sink, ProcessId(0), accept_one(1, 0, cmd(9, 0)), 5);
        assert!(sends(&mut sink).is_empty());
        log.step_message(&mut sink, ProcessId(0), accept_one(2, 0, cmd(9, 0)), 6);
        assert!(matches!(
            sends(&mut sink).as_slice(),
            [(
                ProcessId(0),
                LogMsg::AcceptOkRange {
                    ballot: 2,
                    first_slot: 0,
                    count: 1
                }
            )]
        ));
    }

    /// A decided slot is final at its acceptor: a proposal for it is acked
    /// only when it carries the decided command, whether the slot is
    /// applied (0) or decided and parked behind a hole (2).
    #[test]
    fn an_acceptor_acks_a_decided_slot_only_for_its_command() {
        let mut sink = Sink::new();
        let mut log = follower();
        let (old, new) = (ProcessId(0), ProcessId(2));
        for slot in [0, 2] {
            log.step_message(&mut sink, old, decide_one(0, slot, cmd(9, slot)), 5);
        }
        for slot in [0, 2] {
            let (decided, other) = (cmd(9, slot), cmd(8, slot));
            log.step_message(&mut sink, new, accept_one(1, slot, other), 6);
            assert!(sends(&mut sink).is_empty(), "slot {slot}: acked {other:?}");
            log.step_message(&mut sink, new, accept_one(1, slot, decided), 7);
            let out = sends(&mut sink);
            let [(to, LogMsg::AcceptOkRange { first_slot, .. })] = out[..] else {
                panic!("slot {slot}: expected one ack, got {out:?}");
            };
            assert_eq!((to, first_slot), (new, slot));
            assert_eq!(log.decided(slot), Some(decided));
        }
    }

    #[test]
    fn recovery_adopts_highest_ballot_and_fills_gaps() {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        log.bind(ProcessId(1));
        // Follower first: accept slot 1 (not 0) at ballot 0 from the old
        // leader, then take over at ver 1.
        installed(&mut log, &mut sink, 0, 0);
        sink.clear();
        log.step_message(&mut sink, ProcessId(0), accept_one(0, 1, cmd(9, 1)), 5);
        sink.clear();
        log.step_event(&mut sink, view(1, [1, 2], 1), 10);
        sink.clear();
        // The peer reports a higher-ballot value for slot 1 — adopted.
        log.step_message(
            &mut sink,
            ProcessId(2),
            recover_ok(1, vec![(1, 1, cmd(8, 4))]),
            11,
        );
        let accepts = single_accepts(&sends(&mut sink));
        // Slot 0 was a hole → no-op; slot 1 re-proposed with the adopted value.
        assert_eq!(accepts, vec![(0, LogCmd::NOOP), (1, cmd(8, 4))]);
        // The 2-member view decides with the peer's ok.
        log.step_message(&mut sink, ProcessId(2), ack_one(1, 0), 12);
        log.step_message(&mut sink, ProcessId(2), ack_one(1, 1), 12);
        assert_eq!(log.committed(), &[LogCmd::NOOP, cmd(8, 4)]);
        assert_eq!(log.committed_ops(), 1);
        assert_eq!(log.ballots(), &[1, 1]);
    }

    #[test]
    fn duplicate_requests_answer_from_the_log() {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        log.bind(ProcessId(0));
        installed(&mut log, &mut sink, 0, 0);
        sink.clear();
        for p in [1, 2] {
            recover_ok_empty(&mut log, &mut sink, p, 0, 1);
        }
        sink.clear();
        log.step_message(
            &mut sink,
            ProcessId(9),
            LogMsg::Request { cmd: cmd(9, 0) },
            2,
        );
        sink.clear();
        log.step_message(&mut sink, ProcessId(1), ack_one(0, 0), 3);
        sink.clear();
        // Same command again: replied immediately, not re-proposed.
        log.step_message(
            &mut sink,
            ProcessId(9),
            LogMsg::Request { cmd: cmd(9, 0) },
            4,
        );
        let out = sends(&mut sink);
        assert!(matches!(
            out.as_slice(),
            [(ProcessId(9), LogMsg::Reply { seq: 0 })]
        ));
        assert_eq!(log.committed().len(), 1);
    }

    #[test]
    fn followers_ignore_client_requests() {
        let mut sink = Sink::new();
        let mut log = follower();
        log.step_message(
            &mut sink,
            ProcessId(9),
            LogMsg::Request { cmd: cmd(9, 0) },
            1,
        );
        assert!(sink.is_empty(), "a follower answered: {sink:?}");
    }

    #[test]
    fn out_of_order_decides_apply_contiguously() {
        let mut sink = Sink::new();
        let mut log = follower();
        log.step_message(&mut sink, ProcessId(0), decide_one(0, 1, cmd(9, 1)), 5);
        assert!(log.committed().is_empty());
        log.step_message(&mut sink, ProcessId(0), decide_one(0, 0, cmd(9, 0)), 6);
        assert_eq!(log.committed(), &[cmd(9, 0), cmd(9, 1)]);
        assert_eq!(log.applied_at(), &[6, 6]);
    }

    // ------------------------------------------------------------------
    // Batched hot path
    // ------------------------------------------------------------------

    #[test]
    fn requests_coalesce_into_one_accept_batch() {
        let mut log = batched_leader(3, 4);
        // Three requests within one tick admit silently and ask one flush.
        for s in 0..3 {
            log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, s) }, 5);
        }
        assert!(log.take_outbox().is_empty());
        assert!(log.take_flush_request());
        assert!(!log.take_flush_request(), "one armed flush at a time");
        log.on_flush(6);
        let out = log.take_outbox();
        // One AcceptBatch per peer carrying all three commands.
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[0].1,
            LogMsg::AcceptBatch { ballot: 0, first_slot: 0, cmds } if cmds.len() == 3
        ));
        // One range ack (2 of 3 with self) decides the whole range.
        log.on_message(
            ProcessId(1),
            LogMsg::AcceptOkRange {
                ballot: 0,
                first_slot: 0,
                count: 3,
            },
            7,
        );
        let out = log.take_outbox();
        let batches = out
            .iter()
            .filter(|(_, m)| matches!(m, LogMsg::DecideBatch { cmds, .. } if cmds.len() == 3))
            .count();
        assert_eq!(batches, 2, "one DecideBatch per peer");
        let replies = out
            .iter()
            .filter(|(_, m)| matches!(m, LogMsg::Reply { .. }))
            .count();
        assert_eq!(replies, 3);
        assert_eq!(log.committed(), &[cmd(9, 0), cmd(9, 1), cmd(9, 2)]);
    }

    /// Two same-tick requests at a batching leader arm one flush timer,
    /// and it is the last effect of the call that armed it, so its `seq`
    /// follows every send of that call. Once it fires, the next request
    /// arms the next one.
    #[test]
    fn one_flush_timer_ends_the_call_that_arms_it() {
        let mut log = batched_leader(3, 4);
        let request = |log: &mut ReplicatedLog, seq: u64, now: Time| {
            let mut sink = Sink::new();
            let cmd = cmd(9, seq);
            log.step_message(&mut sink, ProcessId(9), LogMsg::Request { cmd }, now);
            sink
        };
        let is_flush = |e: &Effect<LogMsg>| {
            matches!(
                e,
                Effect::Timer {
                    delay: 1,
                    tag: LOG_FLUSH
                }
            )
        };
        let calls = [request(&mut log, 0, 5), request(&mut log, 1, 5)];
        let flushes = calls
            .each_ref()
            .map(|c| c.iter().filter(|e| is_flush(e)).count());
        assert_eq!(flushes, [1, 0], "one flush per armed window: {calls:?}");
        assert!(calls[0].last().is_some_and(is_flush), "{:?}", calls[0]);
        log.step_flush(&mut Sink::new(), 6);
        assert!(request(&mut log, 2, 7).last().is_some_and(is_flush));
    }

    #[test]
    fn decide_batches_apply_like_single_decides() {
        let mut sink = Sink::new();
        let cmds: Vec<LogCmd> = (0..3).map(|s| cmd(9, s)).collect();
        let mut whole = follower();
        let (ballot, first_slot) = (0, 0);
        let batch = LogMsg::DecideBatch {
            ballot,
            first_slot,
            cmds: cmds.clone().into(),
        };
        whole.step_message(&mut sink, ProcessId(0), batch, 6);
        // The same range as three batches of one, slot 0 last.
        let mut singles = follower();
        for slot in [2, 1] {
            singles.step_message(
                &mut sink,
                ProcessId(0),
                decide_one(0, slot, cmds[slot as usize]),
                5,
            );
        }
        assert!(singles.committed().is_empty(), "slot 0 still missing");
        singles.step_message(&mut sink, ProcessId(0), decide_one(0, 0, cmds[0]), 6);
        assert_eq!(whole.committed(), &cmds[..]);
        assert_eq!(singles.committed(), whole.committed());
        assert_eq!(singles.ballots(), whole.ballots());
        assert_eq!(singles.applied_at(), whole.applied_at());
    }

    #[test]
    fn a_batch_of_one_is_proposed_on_arrival() {
        // batch_max 1: the request goes out in the call that admitted it,
        // one single-command AcceptBatch per peer, with no flush asked.
        let mut log = batched_leader(3, 1);
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 5);
        let out = log.take_outbox();
        let peers: Vec<ProcessId> = out.iter().map(|&(to, _)| to).collect();
        assert_eq!(peers, vec![ProcessId(1), ProcessId(2)]);
        assert_eq!(single_accepts(&out), vec![(0, cmd(9, 0)); 2]);
        assert!(!log.take_flush_request());
        // batch_max 8: the same request only asks for the flush, and
        // nothing is proposed until it fires.
        let mut log = batched_leader(3, 8);
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 5);
        assert!(log.take_outbox().is_empty());
        assert!(log.take_flush_request());
        log.on_flush(6);
        let out = log.take_outbox();
        assert_eq!(single_accepts(&out), vec![(0, cmd(9, 0)); 2]);
    }

    // ------------------------------------------------------------------
    // Range messages off the wire
    // ------------------------------------------------------------------

    /// Three commands from `u64::MAX - 1` on: the range's end overflows.
    fn past_the_last_slot() -> (u64, Vec<LogCmd>) {
        (u64::MAX - 1, (0..3).map(|s| cmd(9, s)).collect())
    }

    #[test]
    fn an_accept_batch_past_the_last_slot_is_ignored() {
        let mut sink = Sink::new();
        let mut log = follower();
        let (first_slot, cmds) = past_the_last_slot();
        let ballot = 0;
        let cmds = cmds.into();
        let msg = LogMsg::AcceptBatch {
            ballot,
            first_slot,
            cmds,
        };
        log.step_message(&mut sink, ProcessId(0), msg, 5);
        assert!(sends(&mut sink).is_empty(), "no ack");
        assert_eq!(log.hot_sizes().0, 0, "no entry");
    }

    #[test]
    fn a_decide_batch_past_the_last_slot_is_ignored() {
        let mut sink = Sink::new();
        let mut log = follower();
        let (first_slot, cmds) = past_the_last_slot();
        let ballot = 0;
        let cmds = cmds.into();
        let msg = LogMsg::DecideBatch {
            ballot,
            first_slot,
            cmds,
        };
        log.step_message(&mut sink, ProcessId(0), msg, 5);
        assert_eq!(log.hot_sizes().0, 0, "no entry");
        assert!(log.committed().is_empty());
    }

    #[test]
    fn a_sync_ok_past_the_last_slot_is_ignored() {
        let mut sink = Sink::new();
        let mut log = follower();
        let (from, cmds) = past_the_last_slot();
        let entries = cmds.into_iter().map(|c| (0, c)).collect();
        let msg = LogMsg::SyncOk(Arc::from(SyncOkBody {
            from,
            snapshot: None,
            entries,
        }));
        log.step_message(&mut sink, ProcessId(0), msg, 5);
        assert_eq!(log.hot_sizes().0, 0, "no entry");
        assert_eq!(log.last_sync(), None);
    }

    // ------------------------------------------------------------------
    // Snapshot catch-up, high-water dedup
    // ------------------------------------------------------------------

    /// A solitary leader (quorum 1) that has committed `ops` commands
    /// from client 9, answering a `Sync` with up to `keep` entries.
    fn solitary(ops: u64, keep: usize) -> ReplicatedLog {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, keep);
        log.bind(ProcessId(0));
        log.step_event(&mut sink, view(0, [0], 0), 0);
        sink.clear();
        for s in 0..ops {
            log.step_message(
                &mut sink,
                ProcessId(9),
                LogMsg::Request { cmd: cmd(9, s) },
                s,
            );
            sink.clear();
        }
        log
    }

    #[test]
    fn an_applied_log_leaves_an_empty_window_and_dedups_from_the_mark() {
        let mut sink = Sink::new();
        let log = solitary(20, 4);
        assert_eq!(log.committed_ops(), 20);
        let (acc, parked, admitted, hwm) = log.hot_sizes();
        assert_eq!(acc, 0, "the window holds nothing applied");
        assert_eq!(parked, 0);
        assert_eq!(admitted, 0, "every admitted command was learned");
        assert_eq!(hwm, 1, "one mark per client");
        // An old duplicate, and a recent one, answer from the mark and
        // are not proposed again.
        let mut log = log;
        for seq in [3, 17] {
            log.step_message(
                &mut sink,
                ProcessId(9),
                LogMsg::Request { cmd: cmd(9, seq) },
                30,
            );
            let out = sends(&mut sink);
            assert!(
                matches!(out.as_slice(), [(ProcessId(9), LogMsg::Reply { seq: s })] if *s == seq),
                "{out:?}"
            );
        }
        assert_eq!(log.committed_ops(), 20);
        // …while a fresh command is admitted normally.
        log.step_message(
            &mut sink,
            ProcessId(9),
            LogMsg::Request { cmd: cmd(9, 20) },
            31,
        );
        sink.clear();
        assert_eq!(log.committed_ops(), 21);
    }

    #[test]
    fn sync_from_below_the_last_keep_entries_ships_a_snapshot_plus_tail() {
        let mut sink = Sink::new();
        let mut log = solitary(20, 4);
        log.step_message(&mut sink, ProcessId(5), LogMsg::Sync { from: 0 }, 40);
        let out = sends(&mut sink);
        assert_eq!(out.len(), 1);
        let LogMsg::SyncOk(body) = &out[0].1 else {
            panic!("expected a SyncOk, got {:?}", out[0].1);
        };
        let SyncOkBody {
            from,
            snapshot: Some(snap),
            entries,
        } = &**body
        else {
            panic!("expected a snapshot-bearing SyncOk, got {body:?}");
        };
        assert_eq!(*from, 16);
        assert_eq!(snap.floor, 16);
        assert_eq!(snap.clients, vec![(ProcessId(9), 19)]);
        assert_eq!(entries.len(), 4, "O(keep), not O(log)");
        // A fresh replica boots from it: vectors restart at the cut.
        let mut joiner = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        joiner.bind(ProcessId(5));
        joiner.step_event(&mut sink, view(1, [0, 5], 0), 41);
        sink.clear();
        joiner.step_message(&mut sink, ProcessId(0), out[0].1.clone(), 42);
        assert_eq!(joiner.base(), 16);
        assert_eq!(joiner.logical_len(), 20);
        assert_eq!(joiner.committed().len(), 4);
        assert_eq!(joiner.last_sync(), Some((true, 4)));
        // The adopted marks dedup below its base.
        assert!(joiner.is_committed(&cmd(9, 2)));
        assert!(!joiner.is_committed(&cmd(9, 20)));
    }

    #[test]
    fn recover_above_the_base_reports_committed_entries() {
        let mut sink = Sink::new();
        let mut log = solitary(20, 4);
        // A new leader probing from slot 10 (≥ base 0, below the last
        // `keep` entries) gets the committed range [10, 20) plus
        // everything accepted above, and no snapshot.
        log.step_message(
            &mut sink,
            ProcessId(1),
            LogMsg::Recover {
                ballot: 7,
                from: 10,
            },
            50,
        );
        let out = sends(&mut sink);
        let LogMsg::RecoverOk(body) = &out[0].1 else {
            panic!("expected a RecoverOk, got {:?}", out[0].1);
        };
        let RecoverOkBody {
            snapshot: None,
            entries,
            ..
        } = &**body
        else {
            panic!("expected an entry-only RecoverOk, got {body:?}");
        };
        assert_eq!(entries.first().map(|e| e.0), Some(10));
        assert_eq!(entries.len(), 10, "[10, 20) with nothing missing");
    }

    // ------------------------------------------------------------------
    // Slot windows, ack bitmasks, shared batches
    // ------------------------------------------------------------------

    /// p0 leading `n` members at ballot 0 with batches of up to
    /// `batch_max`, its recovery round already answered.
    fn batched_leader(n: u32, batch_max: usize) -> ReplicatedLog {
        let mut log = ReplicatedLog::with_tuning(8, batch_max, usize::MAX);
        log.bind(ProcessId(0));
        log.on_member_event(view(0, 0..n, 0), 0);
        for p in 1..n {
            log.on_message(ProcessId(p), recover_ok(0, vec![]), 1);
        }
        log.take_outbox();
        log
    }

    /// Admits client 9's commands `seqs` within one tick and flushes them.
    fn propose(log: &mut ReplicatedLog, seqs: std::ops::Range<u64>) -> Vec<(ProcessId, LogMsg)> {
        for s in seqs {
            log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, s) }, 5);
        }
        assert!(log.take_flush_request());
        log.on_flush(6);
        log.take_outbox()
    }

    fn ack_range(log: &mut ReplicatedLog, from: u32, first_slot: u64, count: u64) {
        let ballot = 0;
        log.on_message(
            ProcessId(from),
            LogMsg::AcceptOkRange {
                ballot,
                first_slot,
                count,
            },
            7,
        );
    }

    #[test]
    fn a_range_ack_is_clamped_to_the_in_flight_window() {
        let mut log = batched_leader(3, 4);
        propose(&mut log, 0..3);
        // `first_slot + count` overflows, and the range names 2^64 slots:
        // only its overlap with the window, slots 1 and 2, is walked.
        ack_range(&mut log, 1, 1, u64::MAX);
        assert!(log.committed().is_empty(), "slot 0 is still undecided");
        assert_eq!(log.hot_sizes().1, 2, "slots 1 and 2 decided and parked");
        ack_range(&mut log, 1, u64::MAX - 1, 7);
        ack_range(&mut log, 1, 0, u64::MAX);
        assert_eq!(log.committed(), &[cmd(9, 0), cmd(9, 1), cmd(9, 2)]);
    }

    #[test]
    fn only_view_members_other_than_the_leader_are_counted() {
        let mut log = batched_leader(3, 4);
        propose(&mut log, 0..1);
        ack_range(&mut log, 7, 0, 1); // never in the view
        ack_range(&mut log, 0, 0, 1); // the leader's own vote is implicit
        assert!(log.committed().is_empty(), "neither is a second acceptor");
        ack_range(&mut log, 2, 0, 1);
        assert_eq!(log.committed(), &[cmd(9, 0)]);
        // Same rule when the batch of one went out on arrival.
        let mut log = batched_leader(3, 1);
        log.on_message(ProcessId(9), LogMsg::Request { cmd: cmd(9, 0) }, 2);
        for outsider in [7, 0] {
            ack_range(&mut log, outsider, 0, 1);
        }
        assert!(log.committed().is_empty());
        ack_range(&mut log, 1, 0, 1);
        assert_eq!(log.committed(), &[cmd(9, 0)]);
    }

    #[test]
    fn a_batch_is_allocated_once_for_all_peers() {
        let mut log = batched_leader(3, 4);
        let out = propose(&mut log, 0..3);
        let [(_, LogMsg::AcceptBatch { cmds: a, .. }), (_, LogMsg::AcceptBatch { cmds: b, .. })] =
            out.as_slice()
        else {
            panic!("expected one AcceptBatch per peer, got {out:?}");
        };
        assert!(Arc::ptr_eq(a, b));
        ack_range(&mut log, 1, 0, 3);
        let out = log.take_outbox();
        let [(_, LogMsg::DecideBatch { cmds: a, .. }), (_, LogMsg::DecideBatch { cmds: b, .. }), ..] =
            out.as_slice()
        else {
            panic!("expected one DecideBatch per peer first, got {out:?}");
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(&a[..], &[cmd(9, 0), cmd(9, 1), cmd(9, 2)]);
    }

    #[test]
    fn an_ack_set_wider_than_a_machine_word_reaches_quorum() {
        // 130 members: quorum 66, so 65 acceptors beside the leader, and
        // ranks 64.. live in the second and third word of the bitmask.
        let mut log = batched_leader(130, 4);
        propose(&mut log, 0..1);
        for round in 0..2 {
            for p in 1..=64 {
                ack_range(&mut log, p, 0, 1);
            }
            assert!(log.committed().is_empty(), "round {round}: 64 acks + self");
        }
        ack_range(&mut log, 129, 0, 1);
        assert_eq!(log.committed(), &[cmd(9, 0)]);
    }

    #[test]
    fn recover_below_the_applied_prefix_answers_from_vectors_then_window() {
        let mut sink = Sink::new();
        // p1 follows p0: slots 0..4 applied, 4 and 6 accepted, 7 decided
        // but parked behind the holes.
        let mut p1 = follower();
        let leader = ProcessId(0);
        let (ballot, first_slot) = (0, 0);
        let cmds = (0..4).map(|s| cmd(9, s)).collect::<Vec<_>>().into();
        p1.step_message(
            &mut sink,
            leader,
            LogMsg::DecideBatch {
                ballot,
                first_slot,
                cmds,
            },
            5,
        );
        for slot in [4, 6] {
            p1.step_message(&mut sink, leader, accept_one(ballot, slot, cmd(9, slot)), 5);
        }
        let cmd7 = cmd(9, 7);
        p1.step_message(&mut sink, leader, decide_one(ballot, 7, cmd7), 5);
        assert_eq!((p1.logical_len(), p1.hot_sizes().0), (4, 3));
        sink.clear();
        // p2 applied only 0..2 before taking over at ballot 1.
        let mut p2 = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        p2.bind(ProcessId(2));
        installed(&mut p2, &mut sink, 0, 0);
        let cmds = vec![cmd(9, 0), cmd(9, 1)].into();
        p2.step_message(
            &mut sink,
            leader,
            LogMsg::DecideBatch {
                ballot,
                first_slot,
                cmds,
            },
            5,
        );
        sink.clear();
        p2.step_event(&mut sink, view(1, [1, 2], 2), 10);
        let probe = sends(&mut sink);
        assert!(matches!(
            probe.as_slice(),
            [(ProcessId(1), LogMsg::Recover { ballot: 1, from: 2 })]
        ));
        p1.step_message(&mut sink, ProcessId(2), probe[0].1.clone(), 11);
        let answer = sends(&mut sink);
        let [(ProcessId(2), LogMsg::RecoverOk(body))] = answer.as_slice() else {
            panic!("expected one RecoverOk to p2, got {answer:?}");
        };
        let RecoverOkBody {
            snapshot: None,
            entries,
            ..
        } = &**body
        else {
            panic!("expected an entry-only RecoverOk, got {body:?}");
        };
        let slots: Vec<u64> = entries.iter().map(|e| e.0).collect();
        assert_eq!(slots, vec![2, 3, 4, 6, 7], "vectors, then the window");
        // The new leader's plan: everything above its own prefix, whether
        // the responder reported it from the vectors or the window, with
        // the hole at 5 filled by a no-op.
        p2.step_message(&mut sink, ProcessId(1), answer[0].1.clone(), 12);
        let accepts = single_accepts(&sends(&mut sink));
        let plan = [
            cmd(9, 2),
            cmd(9, 3),
            cmd(9, 4),
            LogCmd::NOOP,
            cmd(9, 6),
            cmd7,
        ];
        assert_eq!(accepts, (2..).zip(plan).collect::<Vec<_>>());
    }

    // ------------------------------------------------------------------
    // Failover fixes
    // ------------------------------------------------------------------

    /// Five replicas. p0 decides `c9` at slot 0 with p2's and p3's acks,
    /// and only those two learn the decision. Then v1 = {p1..p4} installs,
    /// and p1 leads it while client 8's `c8` waits in its queue. p4's empty
    /// report alone, a minority of v1, must not let p1 propose (`c8` would
    /// take slot 0); once every v1 member has answered, p1 adopts `c9`.
    #[test]
    fn recovery_hears_every_view_member_before_proposing() {
        let (c9, c8) = (cmd(9, 0), cmd(8, 0));
        let mut sink = Sink::new();
        let mut logs: Vec<ReplicatedLog> = (0..5)
            .map(|p| {
                let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
                log.bind(ProcessId(p));
                log.step_event(&mut sink, view(0, 0..5, 0), 0);
                log
            })
            .collect();
        for p in 1..5 {
            recover_ok_empty(&mut logs[0], &mut sink, p, 0, 1);
        }
        logs[0].step_message(&mut sink, ProcessId(9), LogMsg::Request { cmd: c9 }, 2);
        sink.clear();
        for p in [2, 3] {
            logs[p].step_message(&mut sink, ProcessId(0), accept_one(0, 0, c9), 3);
            let [(_, ack)] = &sends(&mut sink)[..] else {
                panic!("one ack")
            };
            logs[0].step_message(&mut sink, ProcessId(p as u32), ack.clone(), 4);
        }
        assert_eq!(logs[0].committed(), &[c9]);
        sink.clear();
        for p in [2, 3] {
            logs[p].step_message(&mut sink, ProcessId(0), decide_one(0, 0, c9), 5);
        }
        for log in &mut logs[1..] {
            log.step_event(&mut sink, view(1, 1..5, 1), 10);
        }
        logs[1].step_message(&mut sink, ProcessId(8), LogMsg::Request { cmd: c8 }, 11);
        let probe = sends(&mut sink)[0].1.clone();
        for p in [4, 2, 3] {
            logs[p].step_message(&mut sink, ProcessId(1), probe.clone(), 12);
            let [(_, report)] = &sends(&mut sink)[..] else {
                panic!("one report")
            };
            logs[1].step_message(&mut sink, ProcessId(p as u32), report.clone(), 13);
            if p == 4 {
                assert_eq!(single_accepts(&sends(&mut sink)), vec![], "p4 alone");
            }
        }
        let accepts = single_accepts(&sends(&mut sink));
        assert_eq!(accepts, [[(0, c9); 3], [(1, c8); 3]].concat());
    }

    #[test]
    fn a_new_leader_re_replies_for_committed_commands() {
        let mut sink = Sink::new();
        let mut log = follower();
        // Slot 0 committed under the old leader; its Reply died with it.
        log.step_message(&mut sink, ProcessId(0), decide_one(0, 0, cmd(9, 0)), 5);
        sink.clear();
        log.step_event(&mut sink, view(1, [1, 2], 1), 10);
        sink.clear();
        recover_ok_empty(&mut log, &mut sink, 2, 1, 11);
        let out = sends(&mut sink);
        assert!(
            out.iter()
                .any(|(to, m)| *to == ProcessId(9) && matches!(m, LogMsg::Reply { seq: 0 })),
            "recovery completion re-replies the client's high-water mark"
        );
    }

    #[test]
    fn recovered_commands_are_not_proposed_twice() {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        log.bind(ProcessId(1));
        log.step_event(&mut sink, view(1, [1, 2], 1), 0);
        sink.clear();
        // The client retries to the new leader while it is still probing…
        log.step_message(
            &mut sink,
            ProcessId(9),
            LogMsg::Request { cmd: cmd(9, 0) },
            1,
        );
        assert!(sends(&mut sink).is_empty(), "queued behind recovery");
        // …and the same command comes back as a recovered entry.
        log.step_message(
            &mut sink,
            ProcessId(2),
            recover_ok(1, vec![(0, 0, cmd(9, 0))]),
            2,
        );
        let accepts = single_accepts(&sends(&mut sink));
        assert_eq!(accepts, vec![(0, cmd(9, 0))], "the queued twin is dropped");
    }

    /// p1 leads {p1, p2} at ballot 1 and is still recovering when client
    /// 9's retry of `X` is queued and then the old leader's decision of
    /// `X` at slot 0 arrives. Once p2's empty report finishes the round,
    /// `X` must not be proposed again: it would commit a second time.
    #[test]
    fn a_late_decide_does_not_commit_a_queued_command_twice() {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        log.bind(ProcessId(1));
        log.step_event(&mut sink, view(1, [1, 2], 1), 0);
        let x = cmd(9, 0);
        log.step_message(&mut sink, ProcessId(9), LogMsg::Request { cmd: x }, 1);
        log.step_message(&mut sink, ProcessId(0), decide_one(0, 0, x), 2);
        assert_eq!(log.committed(), &[x]);
        sink.clear();
        recover_ok_empty(&mut log, &mut sink, 2, 1, 3);
        assert_eq!(single_accepts(&sends(&mut sink)), vec![]);
        log.step_message(&mut sink, ProcessId(2), ack_one(1, 1), 4);
        assert_eq!(log.committed(), &[x], "committed once");
    }

    /// A recovery report names a slot far above the new leader's log: the
    /// plan runs from the log's end to the highest reported slot, so a
    /// slot `MAX_SPAN` or more above the round's start is dropped rather
    /// than sized into the plan.
    #[test]
    fn a_far_recovery_report_does_not_size_the_plan() {
        for far in [u64::MAX - 1, MAX_SPAN] {
            let mut sink = Sink::new();
            let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
            log.bind(ProcessId(0));
            installed(&mut log, &mut sink, 0, 0);
            log.step_message(
                &mut sink,
                ProcessId(1),
                recover_ok(0, vec![(far, 0, cmd(9, 0))]),
                1,
            );
            sink.clear();
            recover_ok_empty(&mut log, &mut sink, 2, 0, 2);
            assert_eq!(single_accepts(&sends(&mut sink)), vec![], "slot {far}");
            log.step_message(
                &mut sink,
                ProcessId(8),
                LogMsg::Request { cmd: cmd(8, 0) },
                3,
            );
            assert_eq!(single_accepts(&sends(&mut sink)), vec![(0, cmd(8, 0)); 2]);
        }
    }

    /// A snapshot off the wire can put a leader's log at the end of the
    /// slot space. It proposes into the last slot there is, `u64::MAX - 1`,
    /// and after that proposes nothing rather than count past `u64::MAX`.
    #[test]
    fn a_leader_at_the_end_of_the_slot_space_stops_proposing() {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        log.bind(ProcessId(0));
        log.step_event(&mut sink, view(0, [0, 1], 0), 0);
        let floor = u64::MAX - 1;
        let snapshot = Some(Snapshot {
            floor,
            clients: vec![],
        });
        let entries = vec![];
        let body = RecoverOkBody {
            ballot: 0,
            snapshot,
            entries,
        };
        log.step_message(
            &mut sink,
            ProcessId(1),
            LogMsg::RecoverOk(Arc::from(body)),
            1,
        );
        assert_eq!(log.logical_len(), floor);
        sink.clear();
        for seq in 0..2 {
            let cmd = cmd(9, seq);
            log.step_message(&mut sink, ProcessId(9), LogMsg::Request { cmd }, 2);
        }
        assert_eq!(single_accepts(&sends(&mut sink)), vec![(floor, cmd(9, 0))]);
    }

    /// `Quit` cancels no timer, so a flush armed before it is still armed
    /// after: a log that is activated again does not arm a second one
    /// before the first fires.
    #[test]
    fn a_quit_leaves_an_armed_flush_armed() {
        let mut log = batched_leader(3, 4);
        let mut sink = Sink::new();
        let request = |seq| LogMsg::Request { cmd: cmd(9, seq) };
        log.step_message(&mut sink, ProcessId(9), request(0), 5);
        let reason = QuitReason::Excluded;
        log.step_event(&mut sink, MemberEvent::Quit { reason }, 5);
        installed(&mut log, &mut sink, 1, 0);
        for p in [1, 2] {
            recover_ok_empty(&mut log, &mut sink, p, 1, 5);
        }
        log.step_message(&mut sink, ProcessId(9), request(1), 5);
        let timers = sink.iter().filter(|e| matches!(e, Effect::Timer { .. }));
        assert_eq!(timers.count(), 1, "one flush armed at a time: {sink:?}");
        log.step_flush(&mut sink, 6);
        sink.clear();
        log.step_message(&mut sink, ProcessId(9), request(2), 7);
        assert!(matches!(
            sink.last(),
            Some(Effect::Timer { tag: LOG_FLUSH, .. })
        ));
    }
}
