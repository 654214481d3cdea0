//! Sharded intra-run execution: one run's event loop spread across worker
//! threads, byte-identical to the single-threaded engine for every shard
//! count.
//!
//! [`Sim::run_until_sharded`] partitions the processes across `S` shards
//! with the stable function [`shard_of`] (`pid mod S`). Each shard worker
//! owns the node state, Lamport clocks, liveness status and pending
//! mid-broadcast crashes of its processes; the calling thread acts as the
//! **sequencer** and keeps everything whose mutation order is globally
//! visible — the event queue, the run RNG, `seq`/`msg_id` allocation,
//! link state, held messages, statistics and the trace.
//!
//! # Why the merge is deterministic
//!
//! The sequencer pops events in global `(time, seq)` order, exactly like
//! [`Sim::run_until`]. Consecutive events at one timestamp form a *batch*:
//! each is dispatched to the shard owning its target process as a
//! timestamped envelope over a channel, and the shards execute their
//! subsets concurrently. A shard only ever sees its own processes, in the
//! global order restricted to them, so everything process-local (handler
//! execution, clock ticks, status transitions, timer cancellation,
//! mid-broadcast crash countdowns) replays exactly as the sequential
//! engine would have replayed it. Each execution returns an ordered
//! *effect bundle* — stamped trace events, sends (with the message id
//! still unassigned), timer arms — and the sequencer applies the bundles
//! **in dispatch order**. Every global allocation (message ids, queue
//! sequence numbers, per-message delay draws from the run RNG) therefore
//! happens at exactly the position in the run where the sequential engine
//! performs it, which is what pins the trace byte-identical for every `S`
//! (`tests/sharding.rs`, `tests/determinism.rs`).
//!
//! # The conservative frontier barrier
//!
//! A batch never crosses a timestamp: messages have delay ≥ 1 tick
//! (asserted by the network model), so nothing executed at time `t` can
//! schedule new work at time `t` with a smaller sequence number — the
//! lookahead that makes the same-instant window safe, the classic
//! conservative-PDES argument. Fault-injection controls (partitions,
//! blocks, delay overrides, crash arming) are barriers: all outstanding
//! bundles are applied before one executes, so link state is constant
//! within a batch and the sequencer can evaluate message fates at
//! dispatch time.
//!
//! # Shard-stable timer ids
//!
//! Handlers run on shard threads, so timer ids cannot come from the
//! engine's global counter without reintroducing cross-thread ordering.
//! Instead each handler invocation allocates from a private block derived
//! from the triggering event's globally unique queue sequence number
//! (`(1 << 63) | seq << 16`; start-of-run invocations use a pid-derived
//! block tagged with bit 62). Blocks never collide across shards, across
//! batches, or with ids the sequential path allocated earlier in the same
//! run — see the property tests at the bottom of this module.

use crate::engine::{Control, InFlight, QKind, Queued, SendCrash, Sim, Slot, Trigger};
use crate::hash::IntSet;
use crate::net::BlockMode;
use crate::node::{Action, Ctx, Message, Node, TimerId};
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::{NodeStatus, Time};
use gmp_types::ProcessId;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::mpsc::{Receiver, Sender};

/// The stable shard partition: process `pid` is owned by shard
/// `pid mod shards`.
///
/// Every process lands in exactly one shard, the assignment depends only
/// on `(pid, shards)`, and with `shards == 1` everything collapses onto
/// shard 0 — which is why the single-shard sharded run exercises the full
/// dispatch machinery on one worker.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(pid: ProcessId, shards: usize) -> usize {
    assert!(shards >= 1, "shard count must be at least 1");
    pid.index() % shards
}

fn shard_of_index(index: usize, shards: usize) -> usize {
    index % shards
}

/// Top bit marks ids allocated by the sharded path (the sequential
/// engine's counter starts at 1 and could only reach this bit after 2^63
/// timers).
const SHARDED_ID_BIT: u64 = 1 << 63;
/// Second bit separates start-of-run blocks (pid-derived) from event
/// blocks (seq-derived).
const START_ID_BIT: u64 = 1 << 62;
/// Width of one invocation's private id block.
const BLOCK_BITS: u32 = 16;
/// Maximum timers one handler invocation may arm in sharded mode.
const BLOCK_CAPACITY: u64 = (1 << BLOCK_BITS) - 1;

/// Timer-id block for the handler invocation triggered by the queue event
/// with sequence number `seq`.
pub(crate) fn event_timer_base(seq: u64) -> u64 {
    debug_assert!(
        seq < (1 << (62 - BLOCK_BITS)),
        "queue sequence numbers exhausted the sharded timer-id space"
    );
    SHARDED_ID_BIT | (seq << BLOCK_BITS)
}

/// Timer-id block for the start-of-run invocation of `pid` (start
/// invocations have no queue event, so the block is pid-derived; `start`
/// runs at most once per simulation).
pub(crate) fn start_timer_base(pid: ProcessId) -> u64 {
    SHARDED_ID_BIT | START_ID_BIT | ((pid.index() as u64) << BLOCK_BITS)
}

/// A work item dispatched from the sequencer to a shard worker.
enum ToShard<M> {
    /// Execute one queue event against shard-owned state and reply with an
    /// effect bundle.
    Exec { time: Time, work: Work<M> },
    /// Arm a mid-broadcast crash (control barrier; no reply).
    Arm { pid: ProcessId, crash: SendCrash },
}

enum Work<M> {
    Start {
        pid: ProcessId,
    },
    Deliver {
        inf: InFlight<M>,
        /// Link fate evaluated by the sequencer at dispatch time; link
        /// state only changes at control barriers, so this equals the fate
        /// the sequential engine would observe at processing time.
        fate: Option<BlockMode>,
        seq: u64,
    },
    Timer {
        pid: ProcessId,
        id: TimerId,
        tag: u64,
        seq: u64,
    },
    Crash {
        pid: ProcessId,
    },
}

/// One ordered effect of a shard-side execution. The sequencer applies
/// these in dispatch order, performing exactly the global mutations the
/// sequential engine interleaves with handler execution.
enum Effect<M> {
    /// A fully stamped trace event (pre-events, notes, crash/quit
    /// lifecycle records).
    Trace(TraceEvent),
    /// A send: the trace event still carries `msg_id == 0`; the sequencer
    /// allocates the id, patches the event, accounts the send and routes
    /// the message (fate, delay draw, enqueue).
    Send {
        ev: TraceEvent,
        from: ProcessId,
        to: ProcessId,
        msg: M,
        tag: &'static str,
        send_lamport: u64,
    },
    /// Arm a timer `delay` ticks from now.
    SetTimer {
        pid: ProcessId,
        id: TimerId,
        delay: Time,
        tag: u64,
    },
    /// A delivery bounced off a blocked link: the sequencer files the
    /// message under the link's held queue.
    Held(InFlight<M>),
    /// A delivery to a crashed/quit process.
    DeadReceiver,
    /// A delivery dropped by a severed link.
    LinkDropped,
    /// A delivery that went through (counted before the receive event,
    /// like the sequential engine).
    Delivered { tag: &'static str },
}

/// A bundle, or the payload of a panic raised inside a shard-side handler
/// (re-raised on the sequencer thread so the caller sees the original
/// message).
type BundleResult<M> = Result<Vec<Effect<M>>, Box<dyn std::any::Any + Send>>;

/// What a worker hands back when its channel closes.
struct ShardFinal<N> {
    slots: Vec<Option<Slot<N>>>,
    cancel_added: IntSet<u64>,
    cancel_removed: IntSet<u64>,
    crash_after: Vec<Option<SendCrash>>,
}

/// Shard-owned state: the slots (node, status, clocks) of the shard's
/// processes plus everything whose mutations are process-local — the
/// cancelled-timer set and pending mid-broadcast crashes.
struct ShardWorker<N> {
    n: usize,
    /// Dense pid-indexed table; `Some` exactly for this shard's pids.
    slots: Vec<Option<Slot<N>>>,
    /// Live view of the cancelled-timer set. Seeded from the engine's set;
    /// sound to check shard-locally because a process's timers and its
    /// cancellations both execute on its owning shard, in global order.
    cancelled: IntSet<u64>,
    cancel_added: IntSet<u64>,
    cancel_removed: IntSet<u64>,
    crash_after: Vec<Option<SendCrash>>,
}

impl<N> ShardWorker<N> {
    fn run<M>(mut self, rx: Receiver<ToShard<M>>, tx: Sender<BundleResult<M>>) -> ShardFinal<N>
    where
        M: Message,
        N: Node<M>,
    {
        while let Ok(msg) = rx.recv() {
            match msg {
                ToShard::Exec { time, work } => {
                    let mut fx = Vec::new();
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.execute(time, work, &mut fx)
                    }));
                    let failed = result.is_err();
                    let out = result.map(|()| fx);
                    if tx.send(out).is_err() || failed {
                        // Channel gone, or shard state is torn mid-panic:
                        // stop executing; the sequencer re-raises.
                        break;
                    }
                }
                ToShard::Arm { pid, crash } => {
                    self.crash_after[pid.index()] = Some(crash);
                }
            }
        }
        ShardFinal {
            slots: self.slots,
            cancel_added: self.cancel_added,
            cancel_removed: self.cancel_removed,
            crash_after: self.crash_after,
        }
    }

    fn slot_mut(&mut self, pid: ProcessId) -> &mut Slot<N> {
        self.slots[pid.index()]
            .as_mut()
            .expect("pid owned by this shard")
    }

    fn execute<M>(&mut self, time: Time, work: Work<M>, fx: &mut Vec<Effect<M>>)
    where
        M: Message,
        N: Node<M>,
    {
        match work {
            Work::Start { pid } => {
                self.invoke(time, pid, Trigger::Start, start_timer_base(pid), fx);
            }
            Work::Crash { pid } => {
                let slot = self.slot_mut(pid);
                if slot.status.is_up() {
                    let ev = lifecycle(slot, time, pid, TraceKind::Crash);
                    fx.push(Effect::Trace(ev));
                    slot.status = NodeStatus::Crashed;
                }
            }
            Work::Timer { pid, id, tag, seq } => {
                if self.cancelled.remove(&id.0) {
                    if !self.cancel_added.remove(&id.0) {
                        self.cancel_removed.insert(id.0);
                    }
                    return;
                }
                if !self.slot_mut(pid).status.is_up() {
                    return;
                }
                self.invoke(time, pid, Trigger::Timer { tag }, event_timer_base(seq), fx);
            }
            Work::Deliver { inf, fate, seq } => {
                // Status before fate, exactly like the sequential engine —
                // and checked here rather than at dispatch, because a quit
                // earlier in the same batch is only visible on this shard.
                if !self.slot_mut(inf.to).status.is_up() {
                    fx.push(Effect::DeadReceiver);
                    return;
                }
                match fate {
                    Some(BlockMode::Hold) => fx.push(Effect::Held(inf)),
                    Some(BlockMode::Drop) => fx.push(Effect::LinkDropped),
                    None => {
                        fx.push(Effect::Delivered { tag: inf.tag });
                        let base = event_timer_base(seq);
                        self.invoke(time, inf.to, Trigger::Recv(inf), base, fx);
                    }
                }
            }
        }
    }

    /// Mirror of the engine's `invoke`: stamp and emit the pre-event, run
    /// the handler, then pre-apply its actions.
    fn invoke<M>(
        &mut self,
        time: Time,
        pid: ProcessId,
        trigger: Trigger<M>,
        id_base: u64,
        fx: &mut Vec<Effect<M>>,
    ) where
        M: Message,
        N: Node<M>,
    {
        let slot = self.slot_mut(pid);
        if !slot.status.is_up() {
            return;
        }
        let (lamport, kind) = trigger.stamp(&mut slot.lamport);
        fx.push(Effect::Trace(TraceEvent {
            time,
            pid,
            lamport,
            kind,
        }));
        // Handlers must not draw from the run RNG in sharded mode (none of
        // the shipped protocols do): the draw order would depend on which
        // shard ran first. The context gets a decoy whose state is checked
        // afterwards, so misuse fails loudly instead of diverging quietly.
        let mut decoy = SmallRng::seed_from_u64(0x5AD_C0DE);
        let pristine = decoy.clone();
        let mut timer_counter = id_base;
        let mut ctx = Ctx {
            pid,
            now: time,
            actions: Vec::new(),
            rng: &mut decoy,
            timer_counter: &mut timer_counter,
        };
        trigger.run(&mut slot.node, &mut ctx);
        let actions = ctx.actions;
        assert!(
            decoy == pristine,
            "Ctx::rng() is not available under run_until_sharded: RNG draw \
             order would depend on shard interleaving"
        );
        assert!(
            timer_counter - id_base <= BLOCK_CAPACITY,
            "a handler may arm at most {BLOCK_CAPACITY} timers per invocation in sharded mode"
        );
        self.pre_apply(time, pid, actions, fx);
    }

    /// The process-local half of the engine's `apply_actions`: clock
    /// ticks, trace stamping, status transitions and the mid-broadcast
    /// crash countdown happen here; everything global (message ids, fates,
    /// delay draws, enqueues) is deferred to the sequencer via effects, in
    /// the same order.
    fn pre_apply<M>(
        &mut self,
        time: Time,
        pid: ProcessId,
        actions: Vec<Action<M>>,
        fx: &mut Vec<Effect<M>>,
    ) where
        M: Message,
        N: Node<M>,
    {
        let idx = pid.index();
        for action in actions {
            if !self.slot_mut(pid).status.is_up() {
                break; // quit/crash mid-handler: remaining effects are lost
            }
            match action {
                Action::Send { to, msg } => {
                    assert!(to.index() < self.n, "send to unknown process {to}");
                    let tag = msg.tag();
                    let lamport = self.slot_mut(pid).lamport.tick();
                    let ev = TraceEvent {
                        time,
                        pid,
                        lamport,
                        kind: TraceKind::Send { to, msg_id: 0, tag },
                    };
                    fx.push(Effect::Send {
                        ev,
                        from: pid,
                        to,
                        msg,
                        tag,
                        send_lamport: lamport,
                    });
                    // Mid-broadcast crash bookkeeping (Figure 3).
                    if let Some(sc) = self.crash_after[idx].as_mut() {
                        let counts = sc.tag.map(|f| f == tag).unwrap_or(true);
                        if counts {
                            sc.remaining -= 1;
                            if sc.remaining == 0 {
                                self.crash_after[idx] = None;
                                let slot = self.slot_mut(pid);
                                let ev = lifecycle(slot, time, pid, TraceKind::Crash);
                                fx.push(Effect::Trace(ev));
                                slot.status = NodeStatus::Crashed;
                            }
                        }
                    }
                }
                Action::SetTimer { id, delay, tag } => {
                    fx.push(Effect::SetTimer {
                        pid,
                        id,
                        delay,
                        tag,
                    });
                }
                Action::CancelTimer { id } => {
                    if self.cancelled.insert(id.0) {
                        self.cancel_removed.remove(&id.0);
                        self.cancel_added.insert(id.0);
                    }
                }
                Action::Note(note) => {
                    fx.push(Effect::Trace(TraceEvent {
                        time,
                        pid,
                        lamport: self.slot_mut(pid).lamport.value(),
                        kind: TraceKind::Note(note),
                    }));
                }
                Action::Quit => {
                    let slot = self.slot_mut(pid);
                    let ev = lifecycle(slot, time, pid, TraceKind::Quit);
                    fx.push(Effect::Trace(ev));
                    slot.status = NodeStatus::Quit;
                }
            }
        }
    }
}

/// Mirror of the engine's `record_lifecycle`: tick the clock and stamp.
fn lifecycle<N>(slot: &mut Slot<N>, time: Time, pid: ProcessId, kind: TraceKind) -> TraceEvent {
    TraceEvent {
        time,
        pid,
        lamport: slot.lamport.tick(),
        kind,
    }
}

impl<M: Message + Send, N: Node<M> + Send> Sim<M, N> {
    /// Runs the simulation like [`Sim::run_until`], but with the event
    /// loop sharded across `shards` worker threads.
    ///
    /// Output is **byte-identical** to the single-threaded engine for
    /// every shard count: the same trace, statistics, statuses and node
    /// states, pinned by `tests/sharding.rs` and the golden fingerprints
    /// in `tests/determinism.rs`. Sharded and sequential segments can be
    /// freely mixed within one run (e.g. `run_until(500)` followed by
    /// `run_until_sharded(1_000, 4)`).
    ///
    /// Parallelism comes from batches of same-timestamp events executing
    /// concurrently on their owning shards (see the module docs for the
    /// frontier argument); on a single-core host the sharded path is pure
    /// overhead — it exists for multicore scaling at large `n` and as the
    /// equivalence oracle for the sharded dispatch machinery itself.
    ///
    /// `shards` is clamped to `min(shards, members, available cores)`:
    /// a shard above that bound owns no work (or has no core to run on)
    /// and is pure scheduling overhead — the E12 ledger showed shards=8
    /// *regressing below sequential* at n=512 on small hosts. The clamp
    /// is announced on stderr (never the trace, which stays identical at
    /// every shard count).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, if the simulation has no nodes, or if
    /// a handler draws from [`Ctx::rng`] (the draw order would depend on
    /// shard interleaving; no shipped protocol uses it).
    pub fn run_until_sharded(&mut self, until: Time, shards: usize) {
        assert!(shards >= 1, "shard count must be at least 1");
        let n = self.slots.len();
        let cores = crate::pool::available_jobs().get();
        let cap = n.max(1).min(cores);
        let shards = if shards > cap {
            eprintln!(
                "note: clamping shards {shards} -> {cap} ({n} members, {cores} cores); \
                 output is identical at every shard count"
            );
            cap
        } else {
            shards
        };
        let starting = !self.started;
        if starting {
            assert!(n > 0, "simulation needs at least one node");
            self.started = true;
            self.trace = Trace::new(n);
        }

        // Carve the process-local state out into per-shard tables.
        self.crash_after.resize(n, None);
        let mut shard_slots: Vec<Vec<Option<Slot<N>>>> = (0..shards)
            .map(|_| (0..n).map(|_| None).collect())
            .collect();
        for (i, slot) in self.slots.drain(..).enumerate() {
            shard_slots[shard_of_index(i, shards)][i] = Some(slot);
        }
        let mut shard_crash: Vec<Vec<Option<SendCrash>>> =
            (0..shards).map(|_| vec![None; n]).collect();
        for (i, sc) in self.crash_after.drain(..).enumerate() {
            shard_crash[shard_of_index(i, shards)][i] = sc;
        }

        let finals: Vec<ShardFinal<N>> = std::thread::scope(|scope| {
            let mut txs = Vec::with_capacity(shards);
            let mut rxs = Vec::with_capacity(shards);
            let mut handles = Vec::with_capacity(shards);
            for sh in 0..shards {
                let (tx, work_rx) = std::sync::mpsc::channel::<ToShard<M>>();
                let (bundle_tx, bundle_rx) = std::sync::mpsc::channel::<BundleResult<M>>();
                let worker = ShardWorker {
                    n,
                    slots: std::mem::take(&mut shard_slots[sh]),
                    cancelled: self.cancelled.clone(),
                    cancel_added: IntSet::default(),
                    cancel_removed: IntSet::default(),
                    crash_after: std::mem::take(&mut shard_crash[sh]),
                };
                handles.push(scope.spawn(move || worker.run(work_rx, bundle_tx)));
                txs.push(tx);
                rxs.push(bundle_rx);
            }
            if starting {
                self.start_sharded(n, shards, &txs, &rxs);
            }
            self.drive_sharded(until, shards, &txs, &rxs);
            drop(txs); // workers drain and return their state
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        // Reassemble: every pid comes back from exactly one shard.
        let mut slots: Vec<Option<Slot<N>>> = (0..n).map(|_| None).collect();
        let mut crash_after: Vec<Option<SendCrash>> = vec![None; n];
        for fin in finals {
            for (i, slot) in fin.slots.into_iter().enumerate() {
                if slot.is_some() {
                    debug_assert!(slots[i].is_none(), "pid {i} returned twice");
                    slots[i] = slot;
                }
            }
            for (i, sc) in fin.crash_after.into_iter().enumerate() {
                if sc.is_some() {
                    crash_after[i] = sc;
                }
            }
            for id in fin.cancel_removed {
                self.cancelled.remove(&id);
            }
            for id in fin.cancel_added {
                self.cancelled.insert(id);
            }
        }
        self.slots = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("pid {i} never returned from its shard")))
            .collect();
        self.crash_after = crash_after;
        self.time = self.time.max(until);
    }

    /// Sharded analogue of the engine's `start`: apply time-0 controls and
    /// crashes first, then run every `on_start` as one pid-ordered batch.
    fn start_sharded(
        &mut self,
        n: usize,
        shards: usize,
        txs: &[Sender<ToShard<M>>],
        rxs: &[Receiver<BundleResult<M>>],
    ) {
        let mut deferred = Vec::new();
        while let Some(ev) = self.queue.pop_due(0) {
            match ev.kind {
                QKind::Control(c) => {
                    self.time = ev.time;
                    self.apply_control_sharded(c, shards, txs);
                }
                QKind::Crash { pid } => {
                    self.time = ev.time;
                    let sh = shard_of(pid, shards);
                    dispatch(&txs[sh], ev.time, Work::Crash { pid });
                    let fx = recv_bundle(&rxs[sh]);
                    self.apply_bundle(fx);
                }
                _ => deferred.push(ev),
            }
        }
        for ev in deferred {
            self.queue.push(ev);
        }
        for i in 0..n {
            let pid = ProcessId(i as u32);
            dispatch(&txs[shard_of(pid, shards)], 0, Work::Start { pid });
        }
        for i in 0..n {
            let pid = ProcessId(i as u32);
            let fx = recv_bundle(&rxs[shard_of(pid, shards)]);
            self.apply_bundle(fx);
        }
    }

    /// The sequencer loop: batches of same-timestamp events fan out to the
    /// shards; their bundles are applied in dispatch order; controls are
    /// barriers.
    fn drive_sharded(
        &mut self,
        until: Time,
        shards: usize,
        txs: &[Sender<ToShard<M>>],
        rxs: &[Receiver<BundleResult<M>>],
    ) {
        while let Some(top) = self.queue.peek_due(until) {
            let (t, is_control) = (top.time, matches!(top.kind, QKind::Control(_)));
            if is_control {
                let ev = self.queue.pop_due(t).expect("peeked event exists");
                self.time = ev.time;
                match ev.kind {
                    QKind::Control(c) => self.apply_control_sharded(c, shards, txs),
                    _ => unreachable!("peeked a control event"),
                }
                continue;
            }
            self.time = t;
            let mut order = Vec::new();
            loop {
                // The earliest event is at `t` or later, so "due by `t`"
                // means "at `t`".
                let batchable = self
                    .queue
                    .peek_due(t)
                    .is_some_and(|top| !matches!(top.kind, QKind::Control(_)));
                if !batchable {
                    break;
                }
                let ev = self.queue.pop_due(t).expect("peeked event exists");
                let Queued { seq, kind, .. } = ev;
                let (sh, work) = match kind {
                    QKind::Deliver(inf) => {
                        let sh = shard_of(inf.to, shards);
                        let fate = self.net.fate(inf.from, inf.to);
                        (sh, Work::Deliver { inf, fate, seq })
                    }
                    QKind::Timer { pid, id, tag } => {
                        (shard_of(pid, shards), Work::Timer { pid, id, tag, seq })
                    }
                    QKind::Crash { pid } => (shard_of(pid, shards), Work::Crash { pid }),
                    QKind::Control(_) => unreachable!("controls break the batch"),
                };
                dispatch(&txs[sh], t, work);
                order.push(sh);
            }
            for sh in order {
                let fx = recv_bundle(&rxs[sh]);
                self.apply_bundle(fx);
            }
        }
    }

    /// Controls are sequencer business (they mutate global link state and
    /// may release held messages through the run RNG) — except crash
    /// arming, whose countdown state lives with the owning shard.
    fn apply_control_sharded(&mut self, c: Control, shards: usize, txs: &[Sender<ToShard<M>>]) {
        match c {
            Control::CrashAfterSends {
                pid,
                tag,
                remaining,
            } => {
                if remaining == 0 {
                    self.crash_at(pid, self.time);
                } else {
                    txs[shard_of(pid, shards)]
                        .send(ToShard::Arm {
                            pid,
                            crash: SendCrash { tag, remaining },
                        })
                        .expect("shard worker alive");
                }
            }
            other => self.apply_control(other),
        }
    }

    /// Applies one effect bundle, performing the global mutations in the
    /// exact positions the sequential engine would: message-id allocation,
    /// send accounting, fates, delay draws, enqueues.
    fn apply_bundle(&mut self, fx: Vec<Effect<M>>) {
        for effect in fx {
            match effect {
                Effect::Trace(ev) => self.trace.events.push(ev),
                Effect::Send {
                    mut ev,
                    from,
                    to,
                    msg,
                    tag,
                    send_lamport,
                } => {
                    self.msg_counter += 1;
                    let msg_id = self.msg_counter;
                    if let TraceKind::Send { msg_id: id, .. } = &mut ev.kind {
                        *id = msg_id;
                    }
                    self.trace.events.push(ev);
                    self.stats.record_send(tag);
                    let inf = InFlight {
                        from,
                        to,
                        msg,
                        msg_id,
                        tag,
                        send_lamport,
                    };
                    match self.net.fate(from, to) {
                        Some(BlockMode::Hold) => {
                            self.stats.held += 1;
                            self.held.entry((from.0, to.0)).or_default().push(inf);
                        }
                        Some(BlockMode::Drop) => {
                            self.stats.dropped_link += 1;
                        }
                        None => {
                            let at = self.net.schedule(&mut self.rng, self.time, from, to);
                            self.enqueue(at, QKind::Deliver(inf));
                        }
                    }
                }
                Effect::SetTimer {
                    pid,
                    id,
                    delay,
                    tag,
                } => {
                    self.enqueue(self.time + delay, QKind::Timer { pid, id, tag });
                }
                Effect::Held(inf) => {
                    self.stats.held += 1;
                    self.held
                        .entry((inf.from.0, inf.to.0))
                        .or_default()
                        .push(inf);
                }
                Effect::DeadReceiver => self.stats.dropped_dead_receiver += 1,
                Effect::LinkDropped => self.stats.dropped_link += 1,
                Effect::Delivered { tag } => self.stats.record_delivery(tag),
            }
        }
    }
}

fn dispatch<M>(tx: &Sender<ToShard<M>>, time: Time, work: Work<M>) {
    tx.send(ToShard::Exec { time, work })
        .expect("shard worker alive");
}

fn recv_bundle<M>(rx: &Receiver<BundleResult<M>>) -> Vec<Effect<M>> {
    match rx.recv() {
        Ok(Ok(fx)) => fx,
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("shard worker terminated unexpectedly"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Builder;
    use gmp_types::Note;
    use rand::Rng;

    #[derive(Clone, Debug)]
    enum TMsg {
        Ping(u32),
        Pong(#[allow(dead_code)] u32),
    }
    impl Message for TMsg {
        fn tag(&self) -> &'static str {
            match self {
                TMsg::Ping(_) => "ping",
                TMsg::Pong(_) => "pong",
            }
        }
    }

    /// Every node periodically pings a rotating target, pongs back, notes
    /// milestones, and re-arms (sometimes cancelling) timers — enough
    /// surface to cross shards constantly.
    struct Chatter {
        n: u32,
        round: u32,
        pongs: u32,
    }

    impl Node<TMsg> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            ctx.set_timer(5 + u64::from(ctx.id().0 % 3), 1);
            let cancelled = ctx.set_timer(7, 9);
            ctx.cancel_timer(cancelled);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ProcessId, msg: TMsg) {
            match msg {
                TMsg::Ping(x) => ctx.send(from, TMsg::Pong(x)),
                TMsg::Pong(_) => {
                    self.pongs += 1;
                    if self.pongs.is_multiple_of(4) {
                        ctx.note(Note::Custom(format!("pongs={}", self.pongs)));
                    }
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TMsg>, tag: u64) {
            if tag != 1 {
                return;
            }
            self.round += 1;
            let target = ProcessId((ctx.id().0 + self.round) % self.n);
            if target != ctx.id() {
                ctx.send(target, TMsg::Ping(self.round));
            }
            if self.round < 40 {
                ctx.set_timer(5, 1);
            }
        }
    }

    fn chatter(n: u32, seed: u64) -> Sim<TMsg, Chatter> {
        let mut sim = Builder::new().seed(seed).delay(1, 7).build();
        for _ in 0..n {
            sim.add_node(Chatter {
                n,
                round: 0,
                pongs: 0,
            });
        }
        sim
    }

    /// Full observable snapshot of a finished run: every trace field,
    /// every statistic, every status.
    fn snapshot<M: Message, N: Node<M>>(sim: &Sim<M, N>) -> (Vec<String>, crate::Stats, Vec<bool>) {
        let events = sim
            .trace()
            .events
            .iter()
            .map(|e| {
                format!(
                    "t={} pid={} lamport={} kind={:?}",
                    e.time, e.pid, e.lamport, e.kind
                )
            })
            .collect();
        let statuses = (0..sim.n())
            .map(|i| sim.status(ProcessId(i as u32)).is_up())
            .collect();
        (events, sim.stats().clone(), statuses)
    }

    #[test]
    fn sharded_chatter_matches_sequential_for_every_shard_count() {
        let mut reference = chatter(7, 42);
        reference.run_until(2_000);
        let want = snapshot(&reference);
        assert!(want.0.len() > 100, "scenario must be non-trivial");
        for shards in [1, 2, 3, 4, 8, 16] {
            let mut sim = chatter(7, 42);
            sim.run_until_sharded(2_000, shards);
            assert_eq!(snapshot(&sim), want, "shards={shards}");
        }
    }

    #[test]
    fn sharded_and_sequential_segments_mix_within_one_run() {
        let mut reference = chatter(6, 7);
        reference.run_until(3_000);
        let want = snapshot(&reference);

        let mut sim = chatter(6, 7);
        sim.run_until_sharded(500, 4); // sharded start
        sim.run_until(1_200); // sequential middle
        sim.run_until_sharded(2_100, 2); // different shard count
        sim.run_until_sharded(3_000, 3);
        assert_eq!(snapshot(&sim), want);
    }

    #[test]
    fn crashes_and_mid_broadcast_crashes_replay_identically() {
        let build = || {
            let mut sim = chatter(6, 13);
            sim.crash_at(ProcessId(5), 40);
            sim.crash_after_sends_at(ProcessId(1), 0, Some("ping"), 3);
            sim.crash_after_sends_at(ProcessId(2), 60, None, 2);
            sim
        };
        let mut reference = build();
        reference.run_until(2_000);
        let want = snapshot(&reference);
        assert!(
            !want.2[1] && !want.2[2] && !want.2[5],
            "all three crashes must land"
        );
        for shards in [1, 2, 4, 8] {
            let mut sim = build();
            sim.run_until_sharded(2_000, shards);
            assert_eq!(snapshot(&sim), want, "shards={shards}");
        }
    }

    #[test]
    fn link_controls_and_partitions_replay_identically() {
        let build = || {
            let mut sim = chatter(6, 99);
            sim.block_link_at(ProcessId(0), ProcessId(3), BlockMode::Hold, 10);
            sim.unblock_link_at(ProcessId(0), ProcessId(3), 600);
            sim.block_link_at(ProcessId(4), ProcessId(1), BlockMode::Drop, 25);
            sim.unblock_link_at(ProcessId(4), ProcessId(1), 800);
            sim.set_link_delay_at(ProcessId(2), ProcessId(0), Some((30, 60)), 50);
            sim.partition_at(
                &[
                    &[ProcessId(0), ProcessId(1), ProcessId(2)],
                    &[ProcessId(3), ProcessId(4), ProcessId(5)],
                ],
                900,
            );
            sim.heal_at(1_400);
            sim
        };
        let mut reference = build();
        reference.run_until(2_500);
        let want = snapshot(&reference);
        assert!(want.1.held == 0, "heal must release everything");
        for shards in [1, 2, 4, 8] {
            let mut sim = build();
            sim.run_until_sharded(2_500, shards);
            assert_eq!(snapshot(&sim), want, "shards={shards}");
        }
    }

    #[test]
    fn quitting_mid_batch_still_drops_same_instant_deliveries() {
        // A node that quits on its first received message: any further
        // deliveries — including ones in the same timestamp batch — must
        // count as dropped_dead_receiver, exactly like the sequential
        // engine decides.
        struct Quitter;
        impl Node<TMsg> for Quitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
                if ctx.id() == ProcessId(0) {
                    // Two pings to p2 over the same link land on distinct
                    // ticks (FIFO), but pings from p0 and p1 can collide.
                    ctx.send(ProcessId(2), TMsg::Ping(0));
                }
                if ctx.id() == ProcessId(1) {
                    ctx.send(ProcessId(2), TMsg::Ping(1));
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, _from: ProcessId, _msg: TMsg) {
                ctx.quit();
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, TMsg>, _tag: u64) {}
        }
        for seed in 0..32u64 {
            let build = || {
                let mut sim: Sim<TMsg, Quitter> = Builder::new().seed(seed).delay(1, 2).build();
                for _ in 0..3 {
                    sim.add_node(Quitter);
                }
                sim
            };
            let mut reference = build();
            reference.run_until(100);
            let want = snapshot(&reference);
            for shards in [2, 3] {
                let mut sim = build();
                sim.run_until_sharded(100, shards);
                assert_eq!(snapshot(&sim), want, "seed={seed} shards={shards}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "Ctx::rng() is not available under run_until_sharded")]
    fn rng_using_handlers_are_rejected_loudly() {
        struct RngUser;
        impl Node<TMsg> for RngUser {
            fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
                let _: u64 = ctx.rng().gen_range(0..10);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ProcessId, _: TMsg) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, TMsg>, _: u64) {}
        }
        let mut sim: Sim<TMsg, RngUser> = Builder::new().build();
        sim.add_node(RngUser);
        sim.run_until_sharded(10, 1);
    }

    mod partition_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Every process lands in exactly one shard, and the
            /// assignment is a pure function of (pid, shards).
            #[test]
            fn every_member_lands_in_exactly_one_stable_shard(
                n in 1usize..512,
                shards in 1usize..32,
            ) {
                let mut owned = vec![0u32; n];
                for sh in 0..shards {
                    for (pid, count) in owned.iter_mut().enumerate() {
                        if shard_of(ProcessId(pid as u32), shards) == sh {
                            *count += 1;
                        }
                    }
                }
                prop_assert!(owned.iter().all(|&c| c == 1),
                    "each pid must be claimed by exactly one shard");
                for pid in 0..n {
                    let p = ProcessId(pid as u32);
                    let first = shard_of(p, shards);
                    prop_assert!(first < shards);
                    prop_assert_eq!(first, shard_of(p, shards), "partition must be stable");
                }
            }

            /// Timer-id blocks handed to concurrently executing handler
            /// invocations never collide: distinct event seqs get disjoint
            /// blocks, start blocks are disjoint from event blocks, and
            /// both stay clear of the sequential engine's counter ids.
            #[test]
            fn shard_local_timer_id_blocks_never_collide(
                seq_a in 1u64..1_000_000_000,
                seq_b in 1u64..1_000_000_000,
                pid_a in 0u32..100_000,
                pid_b in 0u32..100_000,
                k in 1u64..=BLOCK_CAPACITY,
                sequential_counter in 1u64..1_000_000_000_000,
            ) {
                if seq_a != seq_b {
                    let (a, b) = (event_timer_base(seq_a), event_timer_base(seq_b));
                    prop_assert!(a + BLOCK_CAPACITY < b || b + BLOCK_CAPACITY < a,
                        "event blocks must be disjoint");
                }
                if pid_a != pid_b {
                    let (a, b) = (start_timer_base(ProcessId(pid_a)), start_timer_base(ProcessId(pid_b)));
                    prop_assert!(a + BLOCK_CAPACITY < b || b + BLOCK_CAPACITY < a,
                        "start blocks must be disjoint");
                }
                let ev_id = event_timer_base(seq_a) + k;
                let start_id = start_timer_base(ProcessId(pid_a)) + k;
                prop_assert_ne!(ev_id & START_ID_BIT, START_ID_BIT,
                    "event ids must not wander into the start-id space");
                prop_assert_eq!(start_id & START_ID_BIT, START_ID_BIT);
                prop_assert_ne!(ev_id, sequential_counter,
                    "sharded ids live above the sequential counter range");
                prop_assert_ne!(start_id, sequential_counter);
            }
        }
    }
}
