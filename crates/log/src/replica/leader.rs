//! The leader (proposer): the view's `Mgr` serializes client commands.
//! A view install that makes this process `Mgr` opens the recovery round
//! (phase 1 at the new ballot); after it, admitted commands are proposed
//! in slot order, in batches, and a view-majority of acks decides them.

use super::*;

/// Leader-only state.
#[derive(Clone, Debug)]
pub(super) struct LeaderState {
    /// Our ballot: the version of the view that made us `Mgr`.
    ballot: Ver,
    /// Next unproposed slot.
    next_slot: u64,
    /// Client commands admitted but not yet proposed (recovery in
    /// progress, batch flush pending, or the in-flight window is full).
    queue: VecDeque<LogCmd>,
    /// Leader-side dedup: mirror of `queue` ∪ `in_flight`, a hash set so a
    /// request is one probe. Entries leave when their command is learned;
    /// committed dedup is the per-client high-water marks, so this set
    /// stays window-sized.
    pub(super) admitted: IntSet<LogCmd>,
    /// Proposed, awaiting a quorum of acks: the command per slot, whose
    /// mark `r` is the ack of view rank `r` (the leader counts itself
    /// implicitly). A slot leaves on reaching quorum, so `len()` is the
    /// undecided count the window-room test wants.
    pub(super) in_flight: SlotWindow<LogCmd>,
    /// The recovery round, while it runs. `None` once steady-state.
    recovery: Option<Recovery>,
}

/// Recovery-round bookkeeping (phase 1 at the new ballot).
#[derive(Clone, Debug)]
struct Recovery {
    /// The slot the round asked from: the applied length at its start.
    from: u64,
    /// View members whose `RecoverOk` is still awaited.
    pending: BTreeSet<ProcessId>,
    /// Highest-ballot accepted entry reported per slot.
    found: SlotWindow<(Ver, LogCmd)>,
}

impl Recovery {
    /// Keeps the report for `slot` unless one at `ballot` or above is held.
    /// A slot below the round's `from`, or `MAX_SPAN` or more above it, is
    /// dropped: the plan spans `from` to the highest kept slot, so a slot
    /// off the wire must not be able to make it longer than that.
    fn adopt(&mut self, slot: u64, ballot: Ver, cmd: LogCmd) {
        let near = slot.checked_sub(self.from).is_some_and(|d| d < MAX_SPAN);
        let held = self.found.get(slot);
        if near && held.is_none_or(|&(have, _)| have < ballot) {
            self.found.insert(slot, (ballot, cmd));
        }
    }
}

impl ReplicatedLog {
    /// Starts (or restarts) leading at `ballot`. Re-entered on *every*
    /// view install that leaves us `Mgr`: the recovery round is idempotent
    /// and re-proposing at the newest ballot is exactly what un-wedges
    /// slots whose quorum died mid-accept. The round awaits a `RecoverOk`
    /// from every other member of the view: one that crashed holds it
    /// until the view that excludes it installs and re-enters here.
    pub(super) fn become_leader(&mut self, out: &mut impl Out<LogMsg>, ballot: Ver) {
        // Keep admitted-but-unserved client work across re-elections.
        let queue = self.lead.take().map(|prev| prev.queue).unwrap_or_default();
        let admitted = queue.iter().copied().collect();
        let pending = self
            .view
            .iter()
            .filter(|&&p| p != self.me)
            .copied()
            .collect();
        let from = self.logical_len();
        self.lead = Some(LeaderState {
            ballot,
            next_slot: from,
            queue,
            admitted,
            in_flight: SlotWindow::new(self.view.len()),
            recovery: Some(Recovery {
                from,
                pending,
                found: SlotWindow::new(0),
            }),
        });
        self.broadcast(out, || LogMsg::Recover { ballot, from });
        // A solitary leader recovers from its own accepted set alone.
        self.finish_recovery_if_ready(out);
    }

    /// Sends `msg()` to every other view member, in view order.
    fn broadcast(&self, out: &mut impl Out<LogMsg>, msg: impl Fn() -> LogMsg) {
        for &p in self.view.iter().filter(|&&p| p != self.me) {
            out.send(p, msg());
        }
    }

    /// The view majority, acceptor quorum of every ballot.
    fn quorum(&self) -> usize {
        self.view.len() / 2 + 1
    }

    pub(super) fn on_request(
        &mut self,
        out: &mut impl Out<LogMsg>,
        client: ProcessId,
        cmd: LogCmd,
    ) {
        if self.lead.is_none() {
            // Only a leader answers: a client follows whoever does, and its
            // retries reach every replica, the leader among them.
            return;
        }
        if self.is_committed(&cmd) {
            // Committed duplicate (client re-sent across a failover the
            // first reply did not survive): answer from the client's
            // high-water mark.
            out.send(client, LogMsg::Reply { seq: cmd.seq });
            return;
        }
        let lead = self.lead.as_mut().expect("leader checked above");
        if !lead.admitted.insert(cmd) {
            return; // queued or in flight; the decide will answer
        }
        lead.queue.push_back(cmd);
        if self.batch_max == 1 {
            // A batch of one has nothing to wait for.
            self.propose_queued(out);
        } else if !self.flush_armed {
            // Coalesce everything arriving this tick into one batch under
            // one 1-tick flush. This is the call's last effect, so the
            // timer's `seq` follows every send of the call.
            self.flush_armed = true;
            out.set_timer(1, LOG_FLUSH);
        }
    }

    /// True once `cmd` committed here: `seq ≤ mark` ⇔ committed, because
    /// each client's commands commit in `seq` order.
    pub(super) fn is_committed(&self, cmd: &LogCmd) -> bool {
        self.client_hwm
            .get(&cmd.client)
            .is_some_and(|&seq| seq >= cmd.seq)
    }

    /// Collects one acceptor's phase-1 report for the running round: its
    /// snapshot, if it sent one, then its accepted entries.
    pub(super) fn on_recover_ok(
        &mut self,
        out: &mut impl Out<LogMsg>,
        from: ProcessId,
        body: Arc<RecoverOkBody>,
    ) {
        let body = Arc::unwrap_or_clone(body);
        if let Some(snap) = body.snapshot {
            self.install_snapshot(snap);
        }
        let lead = self.lead.as_mut().filter(|l| l.ballot == body.ballot);
        let Some(rec) = lead.and_then(|l| l.recovery.as_mut()) else {
            return; // stale round
        };
        for (slot, b, cmd) in body.entries {
            rec.adopt(slot, b, cmd);
        }
        rec.pending.remove(&from);
        self.finish_recovery_if_ready(out);
    }

    /// Completes the recovery round once every awaited response is in:
    /// adopt the highest-ballot entry per slot, fill gaps with no-ops,
    /// re-propose everything above the committed prefix, re-send each
    /// client's high-water reply, then serve the queue.
    fn finish_recovery_if_ready(&mut self, out: &mut impl Out<LogMsg>) {
        let floor_slot = self.logical_len();
        let Some(lead) = &mut self.lead else { return };
        let Some(mut rec) = lead.recovery.take_if(|r| r.pending.is_empty()) else {
            return;
        };
        let mut queue = std::mem::take(&mut lead.queue);
        // Our own accepted set is a recovery response like any other.
        for (slot, e) in self.slots.range_from(floor_slot) {
            rec.adopt(slot, e.ballot, e.cmd);
        }
        let chosen = rec.found;
        let end = chosen
            .range_from(floor_slot)
            .last()
            .map_or(floor_slot, |(top, _)| top + 1);
        let plan: Vec<LogCmd> = (floor_slot..end)
            .map(|s| chosen.get(s).map_or(LogCmd::NOOP, |&(_, c)| c))
            .collect();
        // A queued command the round has already placed is dropped: one
        // the plan re-proposes under its recovered slot (its client
        // retried to us while we probed), or one a decide from an older
        // ballot committed meanwhile. Either way proposing the queued twin
        // would commit it a second time.
        queue.retain(|c| !plan.contains(c) && !self.is_committed(c));
        let lead = self.lead.as_mut().expect("leading");
        let proposed = plan.iter().filter(|c| !c.is_noop());
        lead.admitted = queue.iter().chain(proposed).copied().collect();
        lead.queue = queue;
        // Decides kept arriving from the old leader while we probed:
        // never propose below (or into) the applied prefix.
        lead.next_slot = lead.next_slot.max(end);
        for (i, cmds) in plan.chunks(self.batch_max).enumerate() {
            let first = floor_slot + (i * self.batch_max) as u64;
            self.propose_batch(out, first, cmds.to_vec().into());
        }
        // Failover re-reply: a command decided under the dead leader may
        // have lost its reply with the crash. One reply per known client
        // (its high-water mark) unsticks any such client immediately;
        // completed clients ignore it by seq.
        for (&client, &seq) in &self.client_hwm {
            out.send(client, LogMsg::Reply { seq });
        }
        self.propose_queued(out);
    }

    /// Moves queued client commands into the in-flight window in batches
    /// of up to `batch_max`, as window room allows.
    pub(super) fn propose_queued(&mut self, out: &mut impl Out<LogMsg>) {
        loop {
            let Some(lead) = &mut self.lead else { return };
            let room = self.max_inflight.saturating_sub(lead.in_flight.len());
            let take = room.min(self.batch_max).min(lead.queue.len());
            // No slot lies past `u64::MAX`; only a snapshot off the wire
            // puts the log that far along.
            let spent = lead.next_slot.checked_add(take as u64).is_none();
            if lead.recovery.is_some() || take == 0 || spent {
                return;
            }
            let first = lead.next_slot;
            lead.next_slot += take as u64;
            let cmds: Vec<LogCmd> = lead.queue.drain(..take).collect();
            self.propose_batch(out, first, cmds.into());
        }
    }

    /// Proposes `cmds` at our ballot into the contiguous range starting at
    /// `first_slot`: self-accept each, one `AcceptBatch` per peer, and — in
    /// the single-member view — decide the whole range on the spot.
    fn propose_batch(&mut self, out: &mut impl Out<LogMsg>, first_slot: u64, cmds: Arc<[LogCmd]>) {
        let ballot = self.lead.as_ref().expect("only a leader proposes").ballot;
        self.promised = self.promised.max(ballot);
        let slots = (first_slot..first_slot + cmds.len() as u64).zip(cmds.iter().copied());
        for (slot, cmd) in slots.clone() {
            self.accept(slot, ballot, cmd);
        }
        self.broadcast(out, || LogMsg::AcceptBatch {
            ballot,
            first_slot,
            cmds: cmds.clone(),
        });
        if self.quorum() == 1 {
            self.decide_slots(out, ballot, slots.collect());
        } else if let Some(lead) = &mut self.lead {
            for (slot, cmd) in slots {
                lead.in_flight.insert(slot, cmd);
            }
        }
    }

    /// Counts `from`'s ack for `[first_slot, first_slot + count)` at
    /// `ballot`, moves every slot it brings to quorum from the in-flight
    /// window to `decided`, and decides them. The range is off the wire:
    /// only its overlap with the window is walked, and only a member of
    /// the current view is counted (once — its rank is its bit).
    pub(super) fn count_acks(
        &mut self,
        out: &mut impl Out<LogMsg>,
        from: ProcessId,
        ballot: Ver,
        first_slot: u64,
        count: u64,
    ) {
        let quorum = self.quorum();
        let Some(lead) = self.lead.as_mut().filter(|l| l.ballot == ballot) else {
            return;
        };
        let Some(rank) = self.view.iter().position(|&p| p == from && p != self.me) else {
            return;
        };
        let span = lead.in_flight.span();
        let end = first_slot.saturating_add(count).min(span.end);
        let mut decided = Vec::new();
        for slot in first_slot.max(span.start)..end {
            // +1: the leader accepted its own proposal at propose time.
            if lead
                .in_flight
                .mark(slot, rank)
                .is_some_and(|n| n + 1 >= quorum)
            {
                let cmd = lead.in_flight.remove(slot).expect("a marked slot");
                decided.push((slot, cmd));
            }
        }
        if !decided.is_empty() {
            self.decide_slots(out, ballot, decided);
        }
    }

    /// Commits the `decided` slots, ascending: learn and apply them all,
    /// ship one `DecideBatch` per contiguous run per peer (one allocation
    /// per run), answer the clients, and refill the pipeline straight from
    /// the queue.
    fn decide_slots(
        &mut self,
        out: &mut impl Out<LogMsg>,
        ballot: Ver,
        decided: Vec<(u64, LogCmd)>,
    ) {
        self.learn_and_apply(decided.iter().map(|&(slot, cmd)| (slot, ballot, cmd)));
        for run in decided.chunk_by(|a, b| a.0 + 1 == b.0) {
            let first_slot = run[0].0;
            let cmds: Vec<LogCmd> = run.iter().map(|&(_, cmd)| cmd).collect();
            let cmds: Arc<[LogCmd]> = cmds.into();
            self.broadcast(out, || LogMsg::DecideBatch {
                ballot,
                first_slot,
                cmds: cmds.clone(),
            });
        }
        for &(_, cmd) in &decided {
            if !cmd.is_noop() {
                out.send(cmd.client, LogMsg::Reply { seq: cmd.seq });
            }
        }
        self.propose_queued(out);
    }
}
