//! The replicated-log state machine: multipaxos with GMP as the
//! reconfiguration and leader-election oracle.
//!
//! # How the membership layer is used
//!
//! | multipaxos concept | provided by GMP |
//! |---|---|
//! | configuration / epoch | the installed view |
//! | ballot number | the view version `ver` (monotone, agreed) |
//! | leader | the view's coordinator `Mgr` |
//! | quorum | the view majority (`⌊n/2⌋ + 1`) |
//! | leader election / phase 1 trigger | [`MemberEvent::ViewInstalled`] |
//! | failure notice | [`MemberEvent::PeerSuspected`] |
//!
//! The steady state is phase-2-only: the leader assigns slots in order and
//! broadcasts accepts; a view-majority of acks (the leader counts itself)
//! decides, the leader answers the client and broadcasts the decision.
//! Because proposals go out in ascending slot order over FIFO links,
//! decisions also arrive in order and the applied prefix never holds holes
//! for long.
//!
//! # Where per-slot state lives
//!
//! Slot numbers are dense and monotone, so nothing here is a tree keyed
//! by slot. A replica's history is three parallel vectors — `committed`,
//! `ballots`, `applied_at` — covering `[base, logical_len)`, and
//! everything above is one `SlotWindow` of `(ballot, cmd, decided)`
//! entries: an accept writes an entry, a decision marks it (a decided
//! entry is final — later accepts leave it alone), and applying pops the
//! window's front onto the vectors. The window therefore never holds an
//! applied slot; `Recover` and `Sync` answer for those from the vectors
//! (decided ⊇ accepted, so the deciding ballot is a valid accepted
//! ballot). The leader's in-flight proposals are a second window whose
//! slots carry their ack set as a bitmask over view ranks, a slot leaving
//! it the moment it reaches quorum; the recovery round collects reports
//! in a third. The two command-keyed dedup tables (`by_cmd`, the leader's
//! `admitted`) are hash tables: they are only probed, never iterated on a
//! path that emits a message.
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
//! # Compaction
//!
//! Replicas maintain a **compaction floor**, `base ≤ floor ≤
//! logical_len`: every slot below it is committed and summarized by a
//! [`Snapshot`] — the floor itself plus one `(last seq, slot)` dedup
//! high-water mark per client. The mark is a complete dedup summary
//! because links are FIFO and the leader proposes in admission order, so
//! each client's sequence numbers commit in monotone order: `seq ≤ mark`
//! ⇔ committed. Once `logical_len - floor > 2·compact_keep`, the floor
//! advances to `logical_len - compact_keep` and `by_cmd` — the one
//! per-slot table that outlives application — is pruned below it; the
//! window needs no pruning, it ends where the applied prefix begins.
//! Joiner `Sync` below the floor answers with snapshot + tail (O(tail),
//! not O(log)); a snapshot-booted replica starts its applied vectors at
//! `base = snapshot.floor` instead of 0.
//!
//! On every view install where this process is `Mgr` it (re)runs the
//! **recovery round** — multipaxos phase 1 at ballot = the new `ver`: ask
//! every view member for accepted entries above the committed prefix,
//! adopt the highest-ballot value per slot, fill true gaps with no-ops,
//! and re-propose the lot before serving new client traffic. That is what
//! makes leader failover safe: anything the dead leader may have committed
//! survives in the accepted sets of a majority, and the new view (minus
//! the excluded members) still intersects it whenever the group itself
//! stayed a majority — the same bound the membership layer already lives
//! under (Fig. 8's `μ_Mgr`). On completing recovery the new leader also
//! re-sends each client's high-water `Reply`: a command decided under the
//! dead leader may have lost its reply with the crash, and the re-reply
//! is what unsticks that client without waiting for its retry sweep.
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

use crate::msg::{LogCmd, LogMsg, RecoverOkBody, Snapshot, SyncOkBody};
use crate::window::SlotWindow;
use gmp_core::MemberEvent;
use gmp_sim::{Effect, IntMap, IntSet, Out, Shared};
use gmp_types::{ProcessId, Ver};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Simulated-time alias (mirrors `gmp_sim::Time`).
type Time = u64;

/// Timer tag of the leader's batch-coalescing flush. The membership layer
/// owns tags 1–3 and the client loop tag 64; the hosting node routes this
/// one back into [`ReplicatedLog::step_flush`].
pub const LOG_FLUSH: u64 = 65;

/// Leader-only state.
#[derive(Clone, Debug)]
struct LeaderState {
    /// Our ballot: the version of the view that made us `Mgr`.
    ballot: Ver,
    /// Next unproposed slot.
    next_slot: u64,
    /// Client commands admitted but not yet proposed (recovery in
    /// progress, batch flush pending, or the in-flight window is full).
    queue: VecDeque<LogCmd>,
    /// Leader-side dedup: mirror of `queue` ∪ `in_flight`. Entries leave
    /// when their command is learned; committed dedup is `by_cmd` and the
    /// per-client high-water marks, so this set stays window-sized.
    admitted: IntSet<LogCmd>,
    /// Proposed, awaiting a quorum of acks: the command per slot, whose
    /// mark `r` is the ack of view rank `r` (the leader counts itself
    /// implicitly). A slot leaves on reaching quorum, so `len()` is the
    /// undecided count the window-room test wants.
    in_flight: SlotWindow<LogCmd>,
    /// The recovery round, while it runs. `None` once steady-state.
    recovery: Option<Recovery>,
}

/// Recovery-round bookkeeping (phase 1 at the new ballot).
#[derive(Clone, Debug)]
struct Recovery {
    /// View members whose `RecoverOk` is still awaited.
    pending: BTreeSet<ProcessId>,
    /// Highest-ballot accepted entry reported per slot.
    found: SlotWindow<(Ver, LogCmd)>,
}

impl Recovery {
    /// Keeps the report for `slot` unless one at `ballot` or above is held.
    fn adopt(&mut self, slot: u64, ballot: Ver, cmd: LogCmd) {
        let held = self.found.get(slot);
        if held.is_none_or(|&(have, _)| have < ballot) {
            self.found.insert(slot, (ballot, cmd));
        }
    }
}

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
/// this) and feed it the member's drained events plus incoming [`LogMsg`]s.
#[derive(Clone, Debug)]
pub struct ReplicatedLog {
    me: ProcessId,
    /// Members of the current view (the acceptor set), seniority order.
    view: Vec<ProcessId>,
    /// Version of the current view.
    ver: Ver,
    /// Current leader belief: the view's `Mgr`.
    leader: Option<ProcessId>,
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
    /// Compaction floor: every slot below is committed and summarized by
    /// the per-client high-water marks. `base ≤ floor ≤ logical_len`.
    floor: u64,
    /// Slot of each applied client command at slot ≥ `floor` (exact
    /// duplicate replies above the floor; the marks answer below it).
    by_cmd: IntMap<LogCmd, u64>,
    /// Per-client dedup high-water mark: `client → (last committed seq,
    /// its slot)`. Complete because per-client seqs commit in order.
    /// Ordered: the failover re-reply walks it onto the wire.
    client_hwm: BTreeMap<ProcessId, (u64, u64)>,
    /// Processes the membership layer currently suspects.
    suspected: BTreeSet<ProcessId>,
    /// Leader-only state, while this process is `Mgr`.
    lead: Option<LeaderState>,
    /// Max in-flight slots before client commands wait in the queue.
    max_inflight: usize,
    /// Max commands per `AcceptBatch`; at 1 requests are proposed on
    /// arrival instead of waiting for a flush timer.
    batch_max: usize,
    /// Applied suffix length that triggers compaction (`usize::MAX`
    /// disables it; compaction runs when `logical_len - floor > 2·keep`).
    compact_keep: usize,
    /// A flush timer is armed and not yet fired — don't arm another.
    flush_armed: bool,
    /// Shape of the last `SyncOk` received: `(carried a snapshot, tail
    /// length)`. Test/bench observability for the O(tail) gate.
    last_sync: Option<(bool, u64)>,
    /// True between activation (initial view / welcome) and quit.
    active: bool,
    /// Slots an ack just brought to quorum, ascending; scratch between
    /// `count_acks` and the decide that consumes it.
    decided: Vec<(u64, LogCmd)>,
    /// The sink of the three-argument entry-point shims, read back by
    /// [`take_outbox`](Self::take_outbox) and
    /// [`take_flush_request`](Self::take_flush_request).
    shim: Vec<Effect<LogMsg>>,
}

impl ReplicatedLog {
    /// A blank log: `max_inflight` caps concurrently proposed slots,
    /// `batch_max` commands go per `AcceptBatch` (1 = propose each request
    /// on arrival) and compaction keeps `compact_keep` applied slots of hot
    /// state (`usize::MAX` = off).
    pub fn with_tuning(max_inflight: usize, batch_max: usize, compact_keep: usize) -> Self {
        assert!(max_inflight >= 1, "the in-flight window must admit work");
        assert!(batch_max >= 1, "a batch carries at least one command");
        assert!(compact_keep >= 1, "compaction must keep the working tail");
        ReplicatedLog {
            me: ProcessId(u32::MAX),
            view: Vec::new(),
            ver: 0,
            leader: None,
            promised: 0,
            slots: SlotWindow::new(0),
            base: 0,
            committed: Vec::new(),
            ballots: Vec::new(),
            applied_at: Vec::new(),
            floor: 0,
            by_cmd: IntMap::default(),
            client_hwm: BTreeMap::new(),
            suspected: BTreeSet::new(),
            lead: None,
            max_inflight,
            batch_max,
            compact_keep,
            flush_armed: false,
            last_sync: None,
            active: false,
            decided: Vec::new(),
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

    /// The compaction floor: every slot below it is committed here and
    /// summarized by the per-client high-water marks.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// One past the last applied slot (`base + committed().len()`).
    pub fn logical_len(&self) -> u64 {
        self.base + self.committed.len() as u64
    }

    /// Sizes of the prunable hot state, for memory-bound assertions:
    /// `(accepted, parked, by_cmd, client marks)` — window entries, the
    /// decided ones among them, exact dedup entries, per-client marks.
    pub fn hot_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.slots.len(),
            self.slots.range_from(0).filter(|(_, e)| e.decided).count(),
            self.by_cmd.len(),
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

    /// The current leader belief (the view's `Mgr`), once a view is known.
    pub fn leader(&self) -> Option<ProcessId> {
        self.leader
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
    // Flush timer
    // ------------------------------------------------------------------

    /// The [`LOG_FLUSH`] timer fired: propose everything coalesced since
    /// it was armed (up to `batch_max` per `AcceptBatch`).
    pub fn step_flush(&mut self, out: &mut impl Out<LogMsg>, now: Time) {
        self.flush_armed = false;
        self.propose_queued(out, now);
    }

    // ------------------------------------------------------------------
    // Membership events
    // ------------------------------------------------------------------

    /// Feeds one membership transition. The hosting node calls this with
    /// everything `Member::take_events` drained, in order.
    pub fn step_event(&mut self, out: &mut impl Out<LogMsg>, ev: MemberEvent, now: Time) {
        match ev {
            MemberEvent::ViewInstalled { ver, members, mgr }
            | MemberEvent::Welcomed { ver, members, mgr } => {
                let welcomed = !self.active;
                self.active = true;
                self.view = members;
                self.ver = ver;
                self.promised = self.promised.max(ver);
                self.leader = Some(mgr);
                self.suspected.retain(|p| self.view.contains(p));
                if mgr == self.me {
                    self.become_leader(out, ver, now);
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
                        out.send(
                            mgr,
                            LogMsg::Sync {
                                from: self.logical_len(),
                            },
                        );
                    }
                }
            }
            MemberEvent::PeerSuspected { peer, .. } => {
                self.suspected.insert(peer);
                // A suspect will never answer: stop awaiting its recovery
                // response. (In-flight accepts keep counting toward the
                // *view* majority — the next view install re-proposes them
                // if the quorum died.)
                if let Some(lead) = &mut self.lead {
                    if let Some(rec) = &mut lead.recovery {
                        rec.pending.remove(&peer);
                    }
                }
                self.finish_recovery_if_ready(out, now);
            }
            MemberEvent::PeerExcluded { .. } => {
                // The matching ViewInstalled (next event) carries the new
                // view; nothing to do on the exclusion itself.
            }
            MemberEvent::Quit { .. } => {
                self.active = false;
                self.lead = None;
                self.flush_armed = false;
            }
            // `MemberEvent` is non_exhaustive: future kinds don't concern
            // the log until someone teaches it otherwise.
            _ => {}
        }
    }

    /// Starts (or restarts) leading at `ballot`. Re-entered on *every*
    /// view install that leaves us `Mgr`: the recovery round is idempotent
    /// and re-proposing at the newest ballot is exactly what un-wedges
    /// slots whose quorum died mid-accept.
    fn become_leader(&mut self, out: &mut impl Out<LogMsg>, ballot: Ver, now: Time) {
        let mut queue = match self.lead.take() {
            // Keep admitted-but-unserved client work across re-elections.
            Some(prev) => prev.queue,
            None => VecDeque::new(),
        };
        // …minus anything a leader in between already committed (the
        // client resubmitted it there while we were a follower).
        queue.retain(|c| self.committed_slot_of(c).is_none());
        let admitted = queue.iter().copied().collect();
        let pending: BTreeSet<ProcessId> = self
            .view
            .iter()
            .filter(|&&p| p != self.me && !self.suspected.contains(&p))
            .copied()
            .collect();
        self.lead = Some(LeaderState {
            ballot,
            next_slot: self.logical_len(),
            queue,
            admitted,
            in_flight: SlotWindow::new(self.view.len()),
            recovery: Some(Recovery {
                pending,
                found: SlotWindow::new(0),
            }),
        });
        let from = self.logical_len();
        self.broadcast(out, || LogMsg::Recover { ballot, from });
        // A solitary (or fully-suspicious) leader recovers from its own
        // accepted set alone.
        self.finish_recovery_if_ready(out, now);
    }

    /// Sends `msg()` to every other view member, in view order.
    fn broadcast(&self, out: &mut impl Out<LogMsg>, msg: impl Fn() -> LogMsg) {
        for &p in self.view.iter().filter(|&&p| p != self.me) {
            out.send(p, msg());
        }
    }

    // ------------------------------------------------------------------
    // Log messages
    // ------------------------------------------------------------------

    /// Handles one incoming log message.
    pub fn step_message(
        &mut self,
        out: &mut impl Out<LogMsg>,
        from: ProcessId,
        msg: LogMsg,
        now: Time,
    ) {
        if !self.active {
            return;
        }
        match msg {
            LogMsg::Request { cmd } => self.on_request(out, from, cmd, now),
            LogMsg::AcceptBatch {
                ballot,
                first_slot,
                cmds,
            } => {
                let Some(slots) = slot_range(first_slot, cmds.len()) else {
                    return;
                };
                if ballot >= self.promised {
                    self.promised = ballot;
                    let mut kept = true;
                    for (slot, &cmd) in slots.zip(cmds.iter()) {
                        kept &= self.accept(slot, ballot, cmd);
                    }
                    if kept {
                        let count = cmds.len() as u64;
                        out.send(
                            from,
                            LogMsg::AcceptOkRange {
                                ballot,
                                first_slot,
                                count,
                            },
                        );
                    }
                }
            }
            LogMsg::AcceptOkRange {
                ballot,
                first_slot,
                count,
            } => {
                self.count_acks(from, ballot, first_slot, count);
                if !self.decided.is_empty() {
                    self.decide_slots(out, ballot, now);
                }
            }
            LogMsg::DecideBatch {
                ballot,
                first_slot,
                cmds,
            } => {
                let Some(slots) = slot_range(first_slot, cmds.len()) else {
                    return;
                };
                for (slot, &cmd) in slots.zip(cmds.iter()) {
                    self.learn(slot, ballot, cmd);
                }
                self.apply_contiguous(now);
            }
            LogMsg::Recover {
                ballot,
                from: floor,
            } => self.on_recover(out, from, ballot, floor),
            LogMsg::RecoverOk(body) => {
                let RecoverOkBody {
                    ballot,
                    snapshot,
                    entries,
                } = Shared::unwrap_or_clone(body);
                if let Some(snap) = snapshot {
                    self.install_snapshot(snap);
                }
                let Some(lead) = &mut self.lead else { return };
                if lead.ballot != ballot {
                    return; // stale round
                }
                let Some(rec) = &mut lead.recovery else {
                    return;
                };
                for (slot, b, cmd) in entries {
                    rec.adopt(slot, b, cmd);
                }
                rec.pending.remove(&from);
                self.finish_recovery_if_ready(out, now);
            }
            LogMsg::Sync { from: req } => {
                // Below the floor the prefix is gone: ship the snapshot
                // that summarizes it plus the retained tail — O(tail).
                let (snapshot, start) = if req < self.floor {
                    (Some(self.snapshot()), self.floor)
                } else {
                    (None, req)
                };
                let entries = self.applied_from(start).map(|(_, b, c)| (b, c)).collect();
                let body = SyncOkBody {
                    from: start,
                    snapshot,
                    entries,
                };
                out.send(from, LogMsg::SyncOk(Shared::from(body)));
            }
            LogMsg::SyncOk(body) => {
                let SyncOkBody {
                    from: start,
                    snapshot,
                    entries,
                } = Shared::unwrap_or_clone(body);
                let Some(slots) = slot_range(start, entries.len()) else {
                    return;
                };
                self.last_sync = Some((snapshot.is_some(), entries.len() as u64));
                if let Some(snap) = snapshot {
                    self.install_snapshot(snap);
                }
                for (slot, (b, cmd)) in slots.zip(entries) {
                    self.learn(slot, b, cmd);
                }
                self.apply_contiguous(now);
            }
            // Client-side messages; replicas ignore strays.
            LogMsg::Redirect { .. } | LogMsg::Reply { .. } => {}
        }
    }

    /// The applied entries at slot ≥ `start`, as `(slot, deciding ballot,
    /// cmd)`. `start` must not lie below `base`.
    fn applied_from(&self, start: u64) -> impl Iterator<Item = (u64, Ver, LogCmd)> + '_ {
        debug_assert!(start >= self.base, "start under the applied base");
        let lo = (start - self.base).min(self.committed.len() as u64) as usize;
        (lo..self.committed.len())
            .map(|i| (self.base + i as u64, self.ballots[i], self.committed[i]))
    }

    /// Answers a `Recover` probe: promise the ballot and report everything
    /// accepted at slot ≥ `req` — the applied vectors up to the applied
    /// prefix (committed implies accepted), the window above it. Below
    /// `base` nothing survives as entries; the snapshot goes instead and
    /// the entries start at its floor.
    fn on_recover(&mut self, out: &mut impl Out<LogMsg>, from: ProcessId, ballot: Ver, req: u64) {
        if ballot < self.promised {
            return;
        }
        self.promised = ballot;
        let (snapshot, start) = if req < self.base {
            (Some(self.snapshot()), self.floor)
        } else {
            (None, req)
        };
        let above = self.slots.range_from(start);
        let entries = self
            .applied_from(start)
            .chain(above.map(|(slot, e)| (slot, e.ballot, e.cmd)))
            .collect();
        let body = RecoverOkBody {
            ballot,
            snapshot,
            entries,
        };
        out.send(from, LogMsg::RecoverOk(Shared::from(body)));
    }

    fn on_request(
        &mut self,
        out: &mut impl Out<LogMsg>,
        client: ProcessId,
        cmd: LogCmd,
        now: Time,
    ) {
        if self.lead.is_none() {
            // Not the leader: point the client at our belief (silence
            // would also work — clients retry — but the hint is what makes
            // failover latency a round trip instead of a timeout).
            if let Some(l) = self.leader {
                if l != self.me {
                    out.send(client, LogMsg::Redirect { leader: l });
                }
            }
            return;
        }
        if let Some(slot) = self.committed_slot_of(&cmd) {
            // Committed duplicate (client re-sent across a failover the
            // first reply did not survive): answer from the log above the
            // floor, or from the client's high-water mark below it.
            out.send(client, LogMsg::Reply { seq: cmd.seq, slot });
            return;
        }
        let lead = self.lead.as_mut().expect("leader checked above");
        if !lead.admitted.insert(cmd) {
            return; // queued or in flight; the decide will answer
        }
        lead.queue.push_back(cmd);
        if self.batch_max > 1 {
            // Coalesce everything arriving this tick into one batch under a
            // 1-tick flush. This is the call's last effect, so the timer's
            // `seq` follows every send of the call.
            self.ask_flush(out);
        } else {
            // A batch of one has nothing to wait for.
            self.propose_queued(out, now);
        }
    }

    /// The committed slot of `cmd`, if it committed: exact from `by_cmd`
    /// above the floor, else inferred from the client's high-water mark
    /// (`seq ≤ mark` ⇔ committed; the mark's slot stands in for the
    /// pruned exact slot — clients match replies by `seq` alone).
    fn committed_slot_of(&self, cmd: &LogCmd) -> Option<u64> {
        if let Some(&slot) = self.by_cmd.get(cmd) {
            return Some(slot);
        }
        match self.client_hwm.get(&cmd.client) {
            Some(&(seq, slot)) if seq >= cmd.seq => Some(slot),
            _ => None,
        }
    }

    /// Arms the flush timer, once per armed window.
    fn ask_flush(&mut self, out: &mut impl Out<LogMsg>) {
        if !self.flush_armed {
            self.flush_armed = true;
            out.set_timer(1, LOG_FLUSH);
        }
    }

    /// Counts `from`'s ack for `[first_slot, first_slot + count)` at
    /// `ballot` and moves every slot it brings to quorum from the
    /// in-flight window to `decided`. The range is off the wire: only its
    /// overlap with the window is walked, and only a member of the
    /// current view is counted (once — its rank is its bit).
    fn count_acks(&mut self, from: ProcessId, ballot: Ver, first_slot: u64, count: u64) {
        let quorum = self.quorum();
        let Some(lead) = self.lead.as_mut().filter(|l| l.ballot == ballot) else {
            return;
        };
        let me = self.me;
        let Some(rank) = self.view.iter().position(|&p| p == from && p != me) else {
            return;
        };
        let span = lead.in_flight.span();
        let end = first_slot.saturating_add(count).min(span.end);
        for slot in first_slot.max(span.start)..end {
            // +1: the leader accepted its own proposal at propose time.
            if lead
                .in_flight
                .mark(slot, rank)
                .is_some_and(|n| n + 1 >= quorum)
            {
                let cmd = lead.in_flight.remove(slot).expect("a marked slot");
                self.decided.push((slot, cmd));
            }
        }
    }

    /// Commits the `decided` slots: learn them all, ship one `DecideBatch`
    /// per contiguous run per peer (one allocation per run), answer the
    /// clients, and refill the pipeline straight from the queue.
    fn decide_slots(&mut self, out: &mut impl Out<LogMsg>, ballot: Ver, now: Time) {
        let mut decided = std::mem::take(&mut self.decided);
        for &(slot, cmd) in &decided {
            self.learn(slot, ballot, cmd);
        }
        for run in decided.chunk_by(|a, b| a.0 + 1 == b.0) {
            let first_slot = run[0].0;
            let cmds: Vec<LogCmd> = run.iter().map(|&(_, cmd)| cmd).collect();
            let cmds: Shared<[LogCmd]> = cmds.into();
            self.broadcast(out, || LogMsg::DecideBatch {
                ballot,
                first_slot,
                cmds: cmds.clone(),
            });
        }
        for &(slot, cmd) in &decided {
            if !cmd.is_noop() {
                out.send(cmd.client, LogMsg::Reply { seq: cmd.seq, slot });
            }
        }
        // Hand the scratch back before anything below can decide again.
        decided.clear();
        self.decided = decided;
        self.apply_contiguous(now);
        self.propose_queued(out, now);
    }

    /// Records an accepted entry. Below the applied prefix the slot is
    /// already final here, and so is a parked decision: both are left
    /// alone and still acked (decided ⊇ accepted). False — do not ack —
    /// only when the window refuses a slot absurdly far from the rest.
    fn accept(&mut self, slot: u64, ballot: Ver, cmd: LogCmd) -> bool {
        if slot < self.logical_len() || self.slots.get(slot).is_some_and(|e| e.decided) {
            return true;
        }
        let decided = false;
        self.slots.insert(
            slot,
            Entry {
                ballot,
                cmd,
                decided,
            },
        )
    }

    /// Records a decided entry (idempotent; decides imply accepts so the
    /// entry also feeds later recoveries).
    fn learn(&mut self, slot: u64, ballot: Ver, cmd: LogCmd) {
        if slot < self.logical_len() {
            return; // already applied
        }
        if let Some(lead) = &mut self.lead {
            lead.admitted.remove(&cmd);
        }
        let decided = true;
        self.slots.insert(
            slot,
            Entry {
                ballot,
                cmd,
                decided,
            },
        );
    }

    /// Applies every parked decision contiguous with the applied prefix —
    /// popping the window's front — then compacts if the hot state
    /// outgrew its bound.
    fn apply_contiguous(&mut self, now: Time) {
        while let Some(&Entry {
            ballot,
            cmd,
            decided: true,
        }) = self.slots.get(self.logical_len())
        {
            let slot = self.logical_len();
            self.slots.remove(slot);
            self.committed.push(cmd);
            self.ballots.push(ballot);
            self.applied_at.push(now);
            if !cmd.is_noop() {
                self.by_cmd.insert(cmd, slot);
                let mark = self.client_hwm.entry(cmd.client).or_insert((cmd.seq, slot));
                // ≥, not >: a snapshot may have pre-adopted this very mark.
                if cmd.seq >= mark.0 {
                    *mark = (cmd.seq, slot);
                }
            }
        }
        self.maybe_compact();
    }

    /// Advances the compaction floor once the applied suffix above it
    /// exceeds twice the keep budget, pruning `by_cmd` below the new
    /// floor. The 2× hysteresis makes the amortized cost O(1) per applied
    /// slot.
    fn maybe_compact(&mut self) {
        if self.compact_keep == usize::MAX {
            return;
        }
        let len = self.logical_len();
        if len - self.floor <= 2 * self.compact_keep as u64 {
            return;
        }
        let new_floor = len - self.compact_keep as u64;
        self.by_cmd.retain(|_, s| *s >= new_floor);
        self.floor = new_floor;
    }

    /// The compacted summary of everything below the floor: the floor plus
    /// every client's dedup high-water mark.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            floor: self.floor,
            clients: self
                .client_hwm
                .iter()
                .map(|(&c, &(seq, slot))| (c, seq, slot))
                .collect(),
        }
    }

    /// Installs a received snapshot: adopt any newer client marks, and if
    /// the snapshot's floor is ahead of our applied prefix, restart the
    /// applied vectors at it (the pruned prefix is summarized, not lost —
    /// that is the floor invariant).
    fn install_snapshot(&mut self, snap: Snapshot) {
        for (client, seq, slot) in snap.clients {
            let mark = self.client_hwm.entry(client).or_insert((seq, slot));
            if seq >= mark.0 {
                *mark = (seq, slot);
            }
        }
        if snap.floor > self.logical_len() {
            self.committed.clear();
            self.ballots.clear();
            self.applied_at.clear();
            self.base = snap.floor;
            self.slots.truncate_below(snap.floor);
            self.by_cmd.retain(|_, s| *s >= snap.floor);
        }
        self.floor = self.floor.max(snap.floor);
    }

    /// The view majority, acceptor quorum of every ballot.
    fn quorum(&self) -> usize {
        self.view.len() / 2 + 1
    }

    /// Completes the recovery round once every awaited response is in:
    /// adopt the highest-ballot entry per slot, fill gaps with no-ops,
    /// re-propose everything above the committed prefix, re-send each
    /// client's high-water reply, then serve the queue.
    fn finish_recovery_if_ready(&mut self, out: &mut impl Out<LogMsg>, now: Time) {
        let floor_slot = self.logical_len();
        let Some(lead) = &mut self.lead else { return };
        let Some(mut rec) = lead.recovery.take_if(|r| r.pending.is_empty()) else {
            return;
        };
        let ballot = lead.ballot;
        // Decides kept arriving from the old leader while we probed:
        // never propose below (or into) the applied prefix.
        lead.next_slot = lead.next_slot.max(floor_slot);
        // Our own accepted set is a recovery response like any other.
        for (slot, e) in self.slots.range_from(floor_slot) {
            rec.adopt(slot, e.ballot, e.cmd);
        }
        let chosen = rec.found;
        if let Some((top, _)) = chosen.range_from(floor_slot).last() {
            let plan: Vec<LogCmd> = (floor_slot..=top)
                .map(|s| chosen.get(s).map_or(LogCmd::NOOP, |&(_, c)| c))
                .collect();
            // A recovered command may *also* sit in our queue (its client
            // retried to us while we probed). Re-proposing it once under
            // its recovered slot is the exactly-once path; drop the
            // queued twin.
            lead.queue.retain(|c| !plan.contains(c));
            lead.admitted
                .extend(plan.iter().filter(|c| !c.is_noop()).copied());
            lead.next_slot = lead.next_slot.max(top + 1);
            for (i, cmds) in plan.chunks(self.batch_max).enumerate() {
                let first = floor_slot + (i * self.batch_max) as u64;
                self.propose_batch(out, first, ballot, cmds.to_vec().into(), now);
            }
        }
        // Failover re-reply: a command decided under the dead leader may
        // have lost its reply with the crash. One reply per known client
        // (its high-water mark) unsticks any such client immediately;
        // completed clients ignore it by seq.
        for (&client, &(seq, slot)) in &self.client_hwm {
            out.send(client, LogMsg::Reply { seq, slot });
        }
        self.propose_queued(out, now);
    }

    /// Moves queued client commands into the in-flight window in batches
    /// of up to `batch_max`, as window room allows.
    fn propose_queued(&mut self, out: &mut impl Out<LogMsg>, now: Time) {
        loop {
            let Some(lead) = &mut self.lead else { return };
            if lead.recovery.is_some() || lead.in_flight.len() >= self.max_inflight {
                return;
            }
            if lead.queue.is_empty() {
                return;
            }
            let room = self.max_inflight - lead.in_flight.len();
            let take = room.min(self.batch_max).min(lead.queue.len());
            let first = lead.next_slot;
            lead.next_slot += take as u64;
            let ballot = lead.ballot;
            let cmds: Vec<LogCmd> = lead.queue.drain(..take).collect();
            self.propose_batch(out, first, ballot, cmds.into(), now);
        }
    }

    /// Proposes `cmds` into the contiguous range starting at `first_slot`:
    /// self-accept each, one `AcceptBatch` per peer, and — in the
    /// single-member view — decide the whole range on the spot.
    fn propose_batch(
        &mut self,
        out: &mut impl Out<LogMsg>,
        first_slot: u64,
        ballot: Ver,
        cmds: Shared<[LogCmd]>,
        now: Time,
    ) {
        self.promised = self.promised.max(ballot);
        for (slot, &cmd) in (first_slot..).zip(cmds.iter()) {
            self.accept(slot, ballot, cmd);
        }
        let solitary = self.quorum() == 1;
        let Some(lead) = &mut self.lead else { return };
        for (slot, &cmd) in (first_slot..).zip(cmds.iter()) {
            if solitary {
                self.decided.push((slot, cmd));
            } else {
                lead.in_flight.insert(slot, cmd);
            }
        }
        self.broadcast(out, || LogMsg::AcceptBatch {
            ballot,
            first_slot,
            cmds: cmds.clone(),
        });
        if solitary {
            self.decide_slots(out, ballot, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn view3() -> Vec<ProcessId> {
        vec![ProcessId(0), ProcessId(1), ProcessId(2)]
    }

    fn installed(log: &mut ReplicatedLog, out: &mut Sink, ver: Ver, mgr: u32) {
        log.step_event(
            out,
            MemberEvent::ViewInstalled {
                ver,
                members: view3(),
                mgr: ProcessId(mgr),
            },
            0,
        );
    }

    fn cmd(client: u32, seq: u64) -> LogCmd {
        LogCmd {
            client: ProcessId(client),
            seq,
        }
    }

    fn recover_ok(ballot: Ver, entries: Vec<(u64, Ver, LogCmd)>) -> LogMsg {
        LogMsg::RecoverOk(Shared::from(RecoverOkBody {
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
            .any(|(to, m)| *to == ProcessId(9) && matches!(m, LogMsg::Reply { seq: 0, slot: 0 })));
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
        let members = vec![ProcessId(1), ProcessId(2)];
        log.step_event(
            &mut sink,
            MemberEvent::ViewInstalled {
                ver: 1,
                members,
                mgr: ProcessId(1),
            },
            10,
        );
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
            [(ProcessId(9), LogMsg::Reply { seq: 0, slot: 0 })]
        ));
        assert_eq!(log.committed().len(), 1);
    }

    #[test]
    fn followers_redirect_clients() {
        let mut sink = Sink::new();
        let mut log = follower();
        log.step_message(
            &mut sink,
            ProcessId(9),
            LogMsg::Request { cmd: cmd(9, 0) },
            1,
        );
        assert!(matches!(
            sends(&mut sink).as_slice(),
            [(
                ProcessId(9),
                LogMsg::Redirect {
                    leader: ProcessId(0)
                }
            )]
        ));
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
        let msg = LogMsg::SyncOk(Shared::from(SyncOkBody {
            from,
            snapshot: None,
            entries,
        }));
        log.step_message(&mut sink, ProcessId(0), msg, 5);
        assert_eq!(log.hot_sizes().0, 0, "no entry");
        assert_eq!(log.last_sync(), None);
    }

    // ------------------------------------------------------------------
    // Compaction, snapshots, high-water dedup
    // ------------------------------------------------------------------

    /// A solitary leader (quorum 1) that has committed `ops` commands
    /// from client 9, compacting down to `keep`.
    fn solitary_compacted(ops: u64, keep: usize) -> ReplicatedLog {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, keep);
        log.bind(ProcessId(0));
        log.step_event(
            &mut sink,
            MemberEvent::ViewInstalled {
                ver: 0,
                members: vec![ProcessId(0)],
                mgr: ProcessId(0),
            },
            0,
        );
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
    fn compaction_prunes_hot_state_and_dedups_from_the_mark() {
        let mut sink = Sink::new();
        let log = solitary_compacted(20, 4);
        assert_eq!(log.committed_ops(), 20);
        // Floor advances by `keep` each time the suffix exceeds 2·keep:
        // trigger at len 9 → 5, 14 → 10, 19 → 15.
        assert_eq!(log.floor(), 15);
        let (acc, parked, by_cmd, hwm) = log.hot_sizes();
        assert_eq!(acc, 0, "the window holds nothing applied");
        assert_eq!(parked, 0);
        assert_eq!(by_cmd, 5, "only slots ≥ floor keep exact entries");
        assert_eq!(hwm, 1, "one mark per client");
        // A duplicate far below the floor still answers — from the mark
        // (slot is best-effort; clients match replies by seq).
        let mut log = log;
        log.step_message(
            &mut sink,
            ProcessId(9),
            LogMsg::Request { cmd: cmd(9, 3) },
            30,
        );
        assert!(matches!(
            sends(&mut sink).as_slice(),
            [(ProcessId(9), LogMsg::Reply { seq: 3, slot: 19 })]
        ));
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
    fn sync_below_the_floor_ships_a_snapshot_plus_tail() {
        let mut sink = Sink::new();
        let mut log = solitary_compacted(20, 4);
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
        assert_eq!(*from, 15);
        assert_eq!(snap.floor, 15);
        assert_eq!(snap.clients, vec![(ProcessId(9), 19, 19)]);
        assert_eq!(entries.len(), 5, "O(tail), not O(log)");
        // A fresh replica boots from it: vectors restart at the floor.
        let mut joiner = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        joiner.bind(ProcessId(5));
        joiner.step_event(
            &mut sink,
            MemberEvent::ViewInstalled {
                ver: 1,
                members: vec![ProcessId(0), ProcessId(5)],
                mgr: ProcessId(0),
            },
            41,
        );
        sink.clear();
        joiner.step_message(&mut sink, ProcessId(0), out[0].1.clone(), 42);
        assert_eq!(joiner.base(), 15);
        assert_eq!(joiner.logical_len(), 20);
        assert_eq!(joiner.committed().len(), 5);
        assert_eq!(joiner.last_sync(), Some((true, 5)));
        // The adopted marks dedup below its base.
        assert_eq!(joiner.committed_slot_of(&cmd(9, 2)), Some(19));
        assert_eq!(joiner.committed_slot_of(&cmd(9, 20)), None);
    }

    #[test]
    fn recover_between_base_and_floor_reports_committed_entries() {
        let mut sink = Sink::new();
        let mut log = solitary_compacted(20, 4);
        // A new leader probing from slot 10 (< floor 15, ≥ base 0) gets
        // the committed range [10, 15) plus everything accepted above.
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
        log.on_member_event(
            MemberEvent::ViewInstalled {
                ver: 0,
                members: (0..n).map(ProcessId).collect(),
                mgr: ProcessId(0),
            },
            0,
        );
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
        assert!(Shared::ptr_eq(a, b));
        ack_range(&mut log, 1, 0, 3);
        let out = log.take_outbox();
        let [(_, LogMsg::DecideBatch { cmds: a, .. }), (_, LogMsg::DecideBatch { cmds: b, .. }), ..] =
            out.as_slice()
        else {
            panic!("expected one DecideBatch per peer first, got {out:?}");
        };
        assert!(Shared::ptr_eq(a, b));
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
        p2.step_event(
            &mut sink,
            MemberEvent::ViewInstalled {
                ver: 1,
                members: vec![ProcessId(1), ProcessId(2)],
                mgr: ProcessId(2),
            },
            10,
        );
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

    #[test]
    fn a_new_leader_re_replies_for_committed_commands() {
        let mut sink = Sink::new();
        let mut log = follower();
        // Slot 0 committed under the old leader; its Reply died with it.
        log.step_message(&mut sink, ProcessId(0), decide_one(0, 0, cmd(9, 0)), 5);
        sink.clear();
        log.step_event(
            &mut sink,
            MemberEvent::ViewInstalled {
                ver: 1,
                members: vec![ProcessId(1), ProcessId(2)],
                mgr: ProcessId(1),
            },
            10,
        );
        sink.clear();
        recover_ok_empty(&mut log, &mut sink, 2, 1, 11);
        let out = sends(&mut sink);
        assert!(
            out.iter().any(
                |(to, m)| *to == ProcessId(9) && matches!(m, LogMsg::Reply { seq: 0, slot: 0 })
            ),
            "recovery completion re-replies the client's high-water mark"
        );
    }

    #[test]
    fn recovered_commands_are_not_proposed_twice() {
        let mut sink = Sink::new();
        let mut log = ReplicatedLog::with_tuning(8, 1, usize::MAX);
        log.bind(ProcessId(1));
        let members = vec![ProcessId(1), ProcessId(2)];
        log.step_event(
            &mut sink,
            MemberEvent::ViewInstalled {
                ver: 1,
                members,
                mgr: ProcessId(1),
            },
            0,
        );
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
}
