//! The discrete-event engine: deterministic scheduling, fault injection,
//! Lamport stamping.

use crate::net::{BlockMode, NetState};
use crate::node::{Action, Ctx, Message, Node};
use crate::queue::EventQueue;
use crate::stats::Stats;
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::Time;
use gmp_causality::LamportClock;
use gmp_types::ProcessId;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Liveness status of a simulated process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// Operational.
    Up,
    /// Crashed by fault injection (`quit_p` in the model).
    Crashed,
    /// Executed `quit` itself (excluded or lost a majority).
    Quit,
}

impl NodeStatus {
    /// True when the process can still execute events.
    pub fn is_up(self) -> bool {
        self == NodeStatus::Up
    }
}

/// Configures and builds a [`Sim`].
///
/// ```
/// # use gmp_sim::Builder;
/// let builder = Builder::new().seed(42).delay(1, 20);
/// ```
#[derive(Clone, Debug)]
pub struct Builder {
    delay_min: Time,
    delay_max: Time,
    seed: u64,
    fifo: bool,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            delay_min: 1,
            delay_max: 10,
            seed: 0,
            fifo: true,
        }
    }
}

impl Builder {
    /// A builder with default delays (1..=10 ticks), seed 0, FIFO links.
    pub fn new() -> Self {
        Builder::default()
    }

    /// Message delay range in ticks (inclusive); delays are sampled
    /// uniformly and independently per message.
    pub fn delay(mut self, min: Time, max: Time) -> Self {
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Seed for all randomness in the run. Equal seeds give identical runs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether per-link FIFO delivery order is enforced (the model requires
    /// it; disable only to exercise the `gmp-link` FIFO construction).
    pub fn fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Builds an empty simulator; add nodes with [`Sim::add_node`].
    pub fn build<M: Message, N: Node<M>>(self) -> Sim<M, N> {
        Sim {
            slots: Vec::new(),
            queue: EventQueue::new(),
            held: HashMap::new(),
            net: NetState::new(self.delay_min, self.delay_max, self.fifo),
            rng: SmallRng::seed_from_u64(self.seed),
            time: 0,
            seq: 0,
            msg_counter: 0,
            actions: Vec::new(),
            crash_after: Vec::new(),
            trace: Trace::default(),
            stats: Stats::default(),
            started: false,
        }
    }
}

struct Slot<N> {
    node: N,
    status: NodeStatus,
    lamport: LamportClock,
}

pub(crate) struct InFlight<M> {
    from: ProcessId,
    to: ProcessId,
    msg: M,
    msg_id: u64,
    tag: &'static str,
    send_lamport: u64,
}

/// What a queued event does. The event queue only reads the `(time, seq)`
/// key around it; the payload types are `pub(crate)` only because this
/// enum names them.
pub(crate) enum QKind<M> {
    Deliver(InFlight<M>),
    Timer { pid: ProcessId, tag: u64 },
    Crash { pid: ProcessId },
    Control(Control),
}

pub(crate) enum Control {
    Partition(Vec<usize>),
    Heal,
    Block {
        from: ProcessId,
        to: ProcessId,
        mode: BlockMode,
    },
    Unblock {
        from: ProcessId,
        to: ProcessId,
    },
    SetDelay {
        from: ProcessId,
        to: ProcessId,
        range: Option<(Time, Time)>,
    },
    CrashAfterSends {
        pid: ProcessId,
        tag: Option<&'static str>,
        remaining: u32,
    },
}

pub(crate) struct Queued<M> {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) kind: QKind<M>,
}

/// What makes a process take a step.
enum Trigger<M> {
    Start,
    Recv(InFlight<M>),
    Timer { tag: u64 },
}

/// A scheduled mid-broadcast crash (Figure 3): the process may perform
/// `remaining` more sends (optionally only those matching `tag`) and is
/// then crashed immediately after the final matching send.
#[derive(Clone, Copy)]
struct SendCrash {
    tag: Option<&'static str>,
    remaining: u32,
}

/// The deterministic simulator. See the crate docs for an example.
pub struct Sim<M: Message, N: Node<M>> {
    slots: Vec<Slot<N>>,
    queue: EventQueue<M>,
    /// Held messages per directed link, in send order.
    held: HashMap<(u32, u32), Vec<InFlight<M>>>,
    net: NetState,
    rng: SmallRng,
    time: Time,
    seq: u64,
    msg_counter: u64,
    /// Scratch buffer lent to each handler's [`Ctx`] and drained by
    /// `apply_actions`, so a heartbeat fan-out does not regrow a fresh
    /// `Vec` on every tick.
    actions: Vec<Action<M>>,
    /// Pending mid-broadcast crash per process, indexed by pid (the slot
    /// table is dense, so this follows the same index-addressed scheme as
    /// the protocol's peer arenas).
    crash_after: Vec<Option<SendCrash>>,
    trace: Trace,
    stats: Stats,
    started: bool,
}

impl<M: Message, N: Node<M>> Sim<M, N> {
    /// Registers a process. Must be called before the first `run_until`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn add_node(&mut self, node: N) -> ProcessId {
        assert!(
            !self.started,
            "cannot add nodes after the simulation started"
        );
        let pid = ProcessId(self.slots.len() as u32);
        self.slots.push(Slot {
            node,
            status: NodeStatus::Up,
            lamport: LamportClock::new(),
        });
        pid
    }

    /// Number of processes in the run.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// The recorded run so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Message counters so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Liveness status of a process.
    pub fn status(&self, pid: ProcessId) -> NodeStatus {
        self.slots[pid.index()].status
    }

    /// Processes that are still up.
    pub fn living(&self) -> Vec<ProcessId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status.is_up())
            .map(|(i, _)| ProcessId(i as u32))
            .collect()
    }

    /// Immutable access to a node's protocol state (for assertions).
    pub fn node(&self, pid: ProcessId) -> &N {
        &self.slots[pid.index()].node
    }

    /// Mutable access to a node's protocol state (test setup only).
    pub fn node_mut(&mut self, pid: ProcessId) -> &mut N {
        &mut self.slots[pid.index()].node
    }

    /// Queues `kind` for `time` — or for now, if `time` is already past:
    /// the clock never runs backwards.
    fn enqueue(&mut self, time: Time, kind: QKind<M>) {
        let time = time.max(self.time);
        self.seq += 1;
        self.queue.push(Queued {
            time,
            seq: self.seq,
            kind,
        });
    }

    /// Schedules a crash (`quit_p`) at the given time. Like every `*_at`
    /// method, a time that is already past means "now".
    pub fn crash_at(&mut self, pid: ProcessId, at: Time) {
        self.enqueue(at, QKind::Crash { pid });
    }

    /// From time `at` on, lets `pid` perform `sends` more message sends
    /// (optionally counting only messages whose tag equals `tag`) and then
    /// crashes it *immediately after the matching send* — i.e. possibly in
    /// the middle of a broadcast, as in Figure 3. An `at` already past
    /// means "now".
    pub fn crash_after_sends_at(
        &mut self,
        pid: ProcessId,
        at: Time,
        tag: Option<&'static str>,
        sends: u32,
    ) {
        self.enqueue(
            at,
            QKind::Control(Control::CrashAfterSends {
                pid,
                tag,
                remaining: sends,
            }),
        );
    }

    /// Blocks the directed link `from -> to` starting at `at` (now, if
    /// `at` is already past).
    pub fn block_link_at(&mut self, from: ProcessId, to: ProcessId, mode: BlockMode, at: Time) {
        self.enqueue(at, QKind::Control(Control::Block { from, to, mode }));
    }

    /// Unblocks the directed link `from -> to` at `at`; held messages are
    /// then delivered (with fresh delays, preserving FIFO order).
    pub fn unblock_link_at(&mut self, from: ProcessId, to: ProcessId, at: Time) {
        self.enqueue(at, QKind::Control(Control::Unblock { from, to }));
    }

    /// Partitions the processes into the given groups at time `at`.
    /// Cross-partition messages are held (unbounded delay), not lost. An
    /// `at` already past means "now".
    ///
    /// # Panics
    ///
    /// Panics (at application time) if a process appears in no group.
    pub fn partition_at(&mut self, groups: &[&[ProcessId]], at: Time) {
        let mut assignment = vec![usize::MAX; self.slots.len()];
        for (g, members) in groups.iter().enumerate() {
            for p in *members {
                assignment[p.index()] = g;
            }
        }
        assert!(
            assignment.iter().all(|&g| g != usize::MAX),
            "every process must appear in exactly one partition group"
        );
        self.enqueue(at, QKind::Control(Control::Partition(assignment)));
    }

    /// Heals any partition at time `at` (now, if `at` is already past),
    /// releasing held messages.
    pub fn heal_at(&mut self, at: Time) {
        self.enqueue(at, QKind::Control(Control::Heal));
    }

    /// Overrides the delay range of the directed link `from -> to` at `at`
    /// (`None` restores the default). Used to model degraded links that
    /// trigger spurious failure detection (§2.2). An `at` already past
    /// means "now".
    pub fn set_link_delay_at(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        range: Option<(Time, Time)>,
        at: Time,
    ) {
        self.enqueue(at, QKind::Control(Control::SetDelay { from, to, range }));
    }

    /// Runs the simulation, processing every event with `time <= until`.
    pub fn run_until(&mut self, until: Time) {
        if !self.started {
            self.start();
        }
        while let Some(ev) = self.queue.pop_due(until) {
            self.dispatch(ev);
        }
        self.time = self.time.max(until);
    }

    /// Runs sequentially: exactly [`Sim::run_until`], whatever `_shards`
    /// says. The only caller left is the benchmark's
    /// `sim.sharded2_wall_ratio` probe in `bench_trace`, which therefore
    /// reads ≈ 1.0 (a per-layer metric, not an end-to-end one). ROADMAP
    /// item 1 deletes that probe and this delegate together.
    #[doc(hidden)]
    pub fn run_until_sharded(&mut self, until: Time, _shards: usize) {
        self.run_until(until)
    }

    fn start(&mut self) {
        assert!(!self.slots.is_empty(), "simulation needs at least one node");
        self.started = true;
        let n = self.slots.len();
        self.trace = Trace::new(n);
        // Apply fault-injection and link controls scheduled at time 0 before
        // any process takes a step, so experiments can shape the run from
        // the very first event (e.g. arm a mid-broadcast crash for a
        // broadcast performed in `on_start`).
        let mut deferred = Vec::new();
        while let Some(ev) = self.queue.pop_due(0) {
            match ev.kind {
                QKind::Control(_) | QKind::Crash { .. } => self.dispatch(ev),
                _ => deferred.push(ev),
            }
        }
        for ev in deferred {
            self.queue.push(ev);
        }
        for i in 0..n {
            self.invoke(ProcessId(i as u32), Trigger::Start);
        }
    }

    fn dispatch(&mut self, ev: Queued<M>) {
        self.time = ev.time;
        match ev.kind {
            QKind::Deliver(inf) => self.deliver(inf),
            QKind::Timer { pid, tag } => self.invoke(pid, Trigger::Timer { tag }),
            QKind::Crash { pid } => {
                if self.slots[pid.index()].status.is_up() {
                    self.record_lifecycle(pid, TraceKind::Crash);
                    self.slots[pid.index()].status = NodeStatus::Crashed;
                }
            }
            QKind::Control(c) => self.apply_control(c),
        }
    }

    fn deliver(&mut self, inf: InFlight<M>) {
        if !self.slots[inf.to.index()].status.is_up() {
            self.stats.dropped_dead_receiver += 1;
            return;
        }
        // The link state is consulted at delivery time, so a block installed
        // after the send still catches in-flight messages.
        match self.net.fate(inf.from, inf.to) {
            Some(BlockMode::Hold) => {
                self.stats.held += 1;
                self.held
                    .entry((inf.from.0, inf.to.0))
                    .or_default()
                    .push(inf);
                return;
            }
            Some(BlockMode::Drop) => {
                self.stats.dropped_link += 1;
                return;
            }
            None => {}
        }
        self.stats.record_delivery(inf.tag);
        self.invoke(inf.to, Trigger::Recv(inf));
    }

    fn apply_control(&mut self, c: Control) {
        match c {
            Control::Partition(groups) => self.net.set_partition(Some(groups)),
            Control::Heal => {
                self.net.set_partition(None);
                self.release_unblocked();
            }
            Control::Block { from, to, mode } => self.net.block(from, to, mode),
            Control::Unblock { from, to } => {
                self.net.unblock(from, to);
                self.release_unblocked();
            }
            Control::SetDelay { from, to, range } => self.net.set_delay_override(from, to, range),
            Control::CrashAfterSends {
                pid,
                tag,
                remaining,
            } => {
                if remaining == 0 {
                    self.crash_at(pid, self.time);
                } else {
                    if self.crash_after.len() <= pid.index() {
                        self.crash_after.resize(pid.index() + 1, None);
                    }
                    self.crash_after[pid.index()] = Some(SendCrash { tag, remaining });
                }
            }
        }
    }

    /// Reschedules held messages for every link that is no longer blocked.
    fn release_unblocked(&mut self) {
        // Released messages draw fresh per-message delays from the run's
        // RNG, so the links must be visited in a deterministic order — map
        // iteration order must never reach the RNG stream.
        let mut links: Vec<(u32, u32)> = self.held.keys().copied().collect();
        links.sort_unstable();
        for (f, t) in links {
            if self.net.fate(ProcessId(f), ProcessId(t)).is_none() {
                let msgs = self.held.remove(&(f, t)).unwrap_or_default();
                for inf in msgs {
                    self.stats.held = self.stats.held.saturating_sub(1);
                    let at = self
                        .net
                        .schedule(&mut self.rng, self.time, inf.from, inf.to);
                    self.enqueue(at, QKind::Deliver(inf));
                }
            }
        }
    }

    /// Records a crash/quit lifecycle event with proper stamping.
    fn record_lifecycle(&mut self, pid: ProcessId, kind: TraceKind) {
        let lamport = self.slots[pid.index()].lamport.tick();
        self.trace.events.push(TraceEvent {
            time: self.time,
            pid,
            lamport,
            kind,
        });
    }

    fn invoke(&mut self, pid: ProcessId, trigger: Trigger<M>) {
        let slot = &mut self.slots[pid.index()];
        if !slot.status.is_up() {
            return;
        }
        // Stamp and record the triggering event, then run the handler.
        let (lamport, kind) = match &trigger {
            Trigger::Start => (slot.lamport.tick(), TraceKind::Start),
            Trigger::Recv(inf) => (
                slot.lamport.merge(inf.send_lamport),
                TraceKind::Recv {
                    from: inf.from,
                    msg_id: inf.msg_id,
                    tag: inf.tag,
                },
            ),
            Trigger::Timer { tag } => (slot.lamport.tick(), TraceKind::Timer { tag: *tag }),
        };
        self.trace.events.push(TraceEvent {
            time: self.time,
            pid,
            lamport,
            kind,
        });
        // The handler runs on the node where it sits: the slot and the
        // effect buffer are disjoint fields.
        let ctx = &mut Ctx {
            pid,
            now: self.time,
            actions: &mut self.actions,
        };
        match trigger {
            Trigger::Start => slot.node.on_start(ctx),
            Trigger::Recv(inf) => slot.node.on_message(ctx, inf.from, inf.msg),
            Trigger::Timer { tag } => slot.node.on_timer(ctx, tag),
        }
        let mut actions = std::mem::take(&mut self.actions);
        self.apply_actions(pid, &mut actions);
        self.actions = actions;
    }

    /// Applies a handler's effects in emission order, leaving `actions`
    /// empty.
    fn apply_actions(&mut self, pid: ProcessId, actions: &mut Vec<Action<M>>) {
        let idx = pid.index();
        for action in actions.drain(..) {
            if !self.slots[idx].status.is_up() {
                break; // quit/crash mid-handler: remaining effects are lost
            }
            match action {
                Action::Send { to, msg } => {
                    assert!(
                        to.index() < self.slots.len(),
                        "send to unknown process {to}"
                    );
                    let tag = msg.tag();
                    self.msg_counter += 1;
                    let msg_id = self.msg_counter;
                    let lamport = self.slots[idx].lamport.tick();
                    self.trace.events.push(TraceEvent {
                        time: self.time,
                        pid,
                        lamport,
                        kind: TraceKind::Send { to, msg_id, tag },
                    });
                    self.stats.record_send(tag);
                    let inf = InFlight {
                        from: pid,
                        to,
                        msg,
                        msg_id,
                        tag,
                        send_lamport: lamport,
                    };
                    match self.net.fate(pid, to) {
                        Some(BlockMode::Hold) => {
                            self.stats.held += 1;
                            self.held.entry((pid.0, to.0)).or_default().push(inf);
                        }
                        Some(BlockMode::Drop) => {
                            self.stats.dropped_link += 1;
                        }
                        None => {
                            let at = self.net.schedule(&mut self.rng, self.time, pid, to);
                            self.enqueue(at, QKind::Deliver(inf));
                        }
                    }
                    // Mid-broadcast crash bookkeeping (Figure 3).
                    if let Some(sc) = self.crash_after.get_mut(idx).and_then(Option::as_mut) {
                        let counts = sc.tag.map(|f| f == tag).unwrap_or(true);
                        if counts {
                            sc.remaining -= 1;
                            if sc.remaining == 0 {
                                self.crash_after[idx] = None;
                                self.record_lifecycle(pid, TraceKind::Crash);
                                self.slots[idx].status = NodeStatus::Crashed;
                            }
                        }
                    }
                }
                Action::SetTimer { delay, tag } => {
                    self.enqueue(self.time + delay, QKind::Timer { pid, tag });
                }
                Action::Note(note) => {
                    self.trace.events.push(TraceEvent {
                        time: self.time,
                        pid,
                        lamport: self.slots[idx].lamport.value(),
                        kind: TraceKind::Note(note),
                    });
                }
                Action::Quit => {
                    self.record_lifecycle(pid, TraceKind::Quit);
                    self.slots[idx].status = NodeStatus::Quit;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_types::Note;

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

    /// Node 0 pings everyone at start; everyone pongs back; node 0 counts.
    struct PingPong {
        n: u32,
        pongs: u32,
    }

    impl Node<TMsg> for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            if ctx.id() == ProcessId(0) {
                let all = (0..self.n).map(ProcessId);
                ctx.broadcast(all, TMsg::Ping(0));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, TMsg>, from: ProcessId, msg: TMsg) {
            match msg {
                TMsg::Ping(x) => ctx.send(from, TMsg::Pong(x)),
                TMsg::Pong(_) => {
                    self.pongs += 1;
                    ctx.note(Note::Custom(format!("pong #{}", self.pongs)));
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TMsg>, _tag: u64) {}
    }

    fn build(n: u32, seed: u64) -> Sim<TMsg, PingPong> {
        let mut sim = Builder::new().seed(seed).build();
        for _ in 0..n {
            sim.add_node(PingPong { n, pongs: 0 });
        }
        sim
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut sim = build(4, 1);
        sim.run_until(1_000);
        assert_eq!(sim.node(ProcessId(0)).pongs, 3);
        assert_eq!(sim.stats().sends("ping"), 3);
        assert_eq!(sim.stats().sends("pong"), 3);
        assert_eq!(sim.stats().delivered("pong"), 3);
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let mut a = build(5, 9);
        let mut b = build(5, 9);
        a.run_until(500);
        b.run_until(500);
        let ta: Vec<_> = a
            .trace()
            .events
            .iter()
            .map(|e| (e.time, e.pid, format!("{:?}", e.kind)))
            .collect();
        let tb: Vec<_> = b
            .trace()
            .events
            .iter()
            .map(|e| (e.time, e.pid, format!("{:?}", e.kind)))
            .collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut a = build(5, 1);
        let mut b = build(5, 2);
        a.run_until(500);
        b.run_until(500);
        let ta: Vec<_> = a.trace().events.iter().map(|e| e.time).collect();
        let tb: Vec<_> = b.trace().events.iter().map(|e| e.time).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut sim = build(3, 3);
        sim.crash_at(ProcessId(1), 1); // before any delivery (delays >= 1)
        sim.run_until(1_000);
        assert_eq!(sim.status(ProcessId(1)), NodeStatus::Crashed);
        // p1 never ponged.
        assert_eq!(sim.node(ProcessId(0)).pongs, 1);
        assert_eq!(sim.stats().dropped_dead_receiver, 1);
        assert_eq!(sim.living(), vec![ProcessId(0), ProcessId(2)]);
    }

    #[test]
    fn crash_after_sends_cuts_broadcast_short() {
        // Node 0 broadcasts 4 pings; crash it after the second ping send.
        let mut sim = build(5, 4);
        sim.crash_after_sends_at(ProcessId(0), 0, Some("ping"), 2);
        sim.run_until(1_000);
        assert_eq!(sim.stats().sends("ping"), 2, "broadcast must be cut short");
        assert_eq!(sim.status(ProcessId(0)), NodeStatus::Crashed);
    }

    #[test]
    fn blocked_link_holds_and_releases() {
        let mut sim = build(2, 5);
        sim.block_link_at(ProcessId(0), ProcessId(1), BlockMode::Hold, 0);
        sim.unblock_link_at(ProcessId(0), ProcessId(1), 500);
        sim.run_until(400);
        assert_eq!(sim.stats().delivered("ping"), 0);
        sim.run_until(1_000);
        assert_eq!(sim.stats().delivered("ping"), 1);
        assert_eq!(sim.node(ProcessId(0)).pongs, 1);
    }

    #[test]
    fn partition_holds_cross_traffic() {
        let mut sim = build(4, 6);
        sim.partition_at(
            &[&[ProcessId(0), ProcessId(1)], &[ProcessId(2), ProcessId(3)]],
            0,
        );
        sim.run_until(500);
        // Only p1's pong crossed (p2, p3 unreachable).
        assert_eq!(sim.node(ProcessId(0)).pongs, 1);
        sim.heal_at(501);
        sim.run_until(2_000);
        assert_eq!(sim.node(ProcessId(0)).pongs, 3);
    }

    #[test]
    fn fifo_order_is_respected() {
        // With FIFO on, pings sent in a burst over one link arrive in order.
        #[derive(Clone, Debug)]
        struct Seq(u32);
        impl Message for Seq {
            fn tag(&self) -> &'static str {
                "seq"
            }
        }
        struct Sender;
        struct Receiver {
            got: Vec<u32>,
        }
        enum Either {
            S(Sender),
            R(Receiver),
        }
        impl Node<Seq> for Either {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Seq>) {
                if let Either::S(_) = self {
                    for i in 0..50 {
                        ctx.send(ProcessId(1), Seq(i));
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Seq>, _from: ProcessId, msg: Seq) {
                if let Either::R(r) = self {
                    r.got.push(msg.0);
                }
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, Seq>, _tag: u64) {}
        }
        let mut sim: Sim<Seq, Either> = Builder::new().seed(11).delay(1, 100).build();
        sim.add_node(Either::S(Sender));
        sim.add_node(Either::R(Receiver { got: Vec::new() }));
        sim.run_until(10_000);
        if let Either::R(r) = sim.node(ProcessId(1)) {
            assert_eq!(r.got, (0..50).collect::<Vec<_>>());
        } else {
            panic!("node 1 is the receiver");
        }
    }

    /// Each timer fires once, after its own delay, with its own tag —
    /// whatever order the handler armed them in.
    #[test]
    fn timers_fire_with_their_tags() {
        struct T {
            fired: Vec<u64>,
        }
        #[derive(Clone, Debug)]
        struct Never;
        impl Message for Never {
            fn tag(&self) -> &'static str {
                "never"
            }
        }
        impl Node<Never> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Never>) {
                ctx.set_timer(30, 3);
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Never>, _: ProcessId, _: Never) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, Never>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim: Sim<Never, T> = Builder::new().build();
        sim.add_node(T { fired: Vec::new() });
        sim.run_until(100);
        assert_eq!(sim.node(ProcessId(0)).fired, vec![1, 2, 3]);
    }

    /// A fault scheduled for a moment already past takes effect now: the
    /// trace's clock never steps backwards.
    #[test]
    fn scheduling_in_the_past_takes_effect_now() {
        struct Ticker;
        #[derive(Clone, Debug)]
        struct Never;
        impl Message for Never {
            fn tag(&self) -> &'static str {
                "never"
            }
        }
        impl Node<Never> for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Never>) {
                ctx.set_timer(7, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Never>, _: ProcessId, _: Never) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Never>, _tag: u64) {
                ctx.set_timer(7, 0);
            }
        }
        let mut sim: Sim<Never, Ticker> = Builder::new().build();
        sim.add_node(Ticker);
        sim.add_node(Ticker);
        sim.run_until(500);
        sim.crash_at(ProcessId(1), 5);
        sim.run_until(600);
        let events = &sim.trace().events;
        assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "trace times must be non-decreasing"
        );
        let crash = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Crash))
            .expect("the crash was recorded");
        assert_eq!(crash.time, 500, "a past-dated crash happens now");
        assert_eq!(sim.status(ProcessId(1)), NodeStatus::Crashed);
        assert_eq!(events.last().map(|e| e.pid), Some(ProcessId(0)));
    }

    #[test]
    fn vector_clocks_capture_message_causality() {
        let mut sim = build(2, 8);
        sim.run_until(1_000);
        let log = sim.trace().to_event_log();
        // Find the ping send at p0 and its reception at p1.
        let send_idx = sim
            .trace()
            .events
            .iter()
            .position(|e| matches!(e.kind, TraceKind::Send { tag: "ping", .. }))
            .expect("ping sent");
        let recv_idx = sim
            .trace()
            .events
            .iter()
            .position(|e| matches!(e.kind, TraceKind::Recv { tag: "ping", .. }))
            .expect("ping received");
        assert!(log.happens_before(send_idx, recv_idx));
        assert!(!log.happens_before(recv_idx, send_idx));
    }
}

#[cfg(test)]
mod release_tests {
    use super::*;
    use crate::net::BlockMode;

    #[derive(Clone, Debug)]
    struct Num(u32);
    impl Message for Num {
        fn tag(&self) -> &'static str {
            "num"
        }
    }

    struct Burst {
        got: Vec<u32>,
    }

    /// Like [`Burst`], but every node sprays every other node, so several
    /// links hold traffic at once.
    struct Fan {
        got: Vec<u32>,
    }
    impl Node<Num> for Fan {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Num>) {
            for to in 0..4u32 {
                if ProcessId(to) != ctx.id() {
                    for i in 0..8 {
                        ctx.send(ProcessId(to), Num(i));
                    }
                }
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Num>, _: ProcessId, m: Num) {
            self.got.push(m.0);
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, Num>, _: u64) {}
    }
    impl Node<Num> for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Num>) {
            if ctx.id() == ProcessId(0) {
                for i in 0..30 {
                    ctx.send(ProcessId(1), Num(i));
                }
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Num>, _: ProcessId, m: Num) {
            self.got.push(m.0);
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, Num>, _: u64) {}
    }

    fn two_nodes(seed: u64) -> Sim<Num, Burst> {
        let mut sim = Builder::new().seed(seed).delay(1, 30).build();
        sim.add_node(Burst { got: Vec::new() });
        sim.add_node(Burst { got: Vec::new() });
        sim
    }

    /// Messages held on a blocked link are released in FIFO order.
    #[test]
    fn held_messages_release_in_order() {
        let mut sim = two_nodes(3);
        sim.block_link_at(ProcessId(0), ProcessId(1), BlockMode::Hold, 0);
        sim.unblock_link_at(ProcessId(0), ProcessId(1), 2_000);
        sim.run_until(10_000);
        assert_eq!(sim.node(ProcessId(1)).got, (0..30).collect::<Vec<_>>());
    }

    /// A heal that releases several links at once must replay identically:
    /// the per-message redelivery delays are drawn from the run's RNG, so
    /// the release order (and with it the whole downstream schedule) has to
    /// be a pure function of the seed, not of map iteration order.
    #[test]
    fn multi_link_release_replays_identically() {
        let run = || {
            let mut sim = Builder::new().seed(9).delay(1, 30).build();
            for _ in 0..4 {
                sim.add_node(Fan { got: Vec::new() });
            }
            for to in 1..4u32 {
                sim.block_link_at(ProcessId(0), ProcessId(to), BlockMode::Hold, 0);
            }
            for from in 1..4u32 {
                sim.block_link_at(ProcessId(from), ProcessId(0), BlockMode::Hold, 0);
            }
            for a in 0..4u32 {
                for b in 0..4u32 {
                    if a != b {
                        sim.unblock_link_at(ProcessId(a), ProcessId(b), 2_000);
                    }
                }
            }
            sim.run_until(10_000);
            sim.trace()
                .events
                .iter()
                .map(|e| format!("{} {} {:?}", e.time, e.pid, e.kind))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert!(a.iter().any(|l| l.contains("Recv")), "nothing was released");
        assert_eq!(a, run(), "multi-link release diverged between replays");
    }

    /// A block installed mid-flight catches messages already scheduled.
    #[test]
    fn in_flight_messages_are_caught_by_late_block() {
        let mut sim = two_nodes(4);
        // Delays are 1..=30; block at t=1 catches everything still in
        // flight (only deliveries scheduled at t<=1 escape).
        sim.block_link_at(ProcessId(0), ProcessId(1), BlockMode::Hold, 1);
        sim.run_until(5_000);
        let early = sim.node(ProcessId(1)).got.len();
        assert!(early < 30, "most of the burst must be held, got {early}");
        sim.unblock_link_at(ProcessId(0), ProcessId(1), 6_000);
        sim.run_until(12_000);
        assert_eq!(sim.node(ProcessId(1)).got, (0..30).collect::<Vec<_>>());
    }

    /// Drop-mode blocks lose messages permanently (used only by the
    /// baseline counter-example schedules).
    #[test]
    fn drop_mode_loses_messages() {
        let mut sim = two_nodes(5);
        sim.block_link_at(ProcessId(0), ProcessId(1), BlockMode::Drop, 0);
        sim.unblock_link_at(ProcessId(0), ProcessId(1), 2_000);
        sim.run_until(10_000);
        assert!(sim.node(ProcessId(1)).got.is_empty());
        assert_eq!(sim.stats().dropped_link, 30);
    }

    /// Healing a partition releases held traffic exactly once.
    #[test]
    fn heal_releases_exactly_once() {
        let mut sim = two_nodes(6);
        sim.partition_at(&[&[ProcessId(0)], &[ProcessId(1)]], 0);
        sim.heal_at(1_000);
        sim.run_until(10_000);
        assert_eq!(sim.node(ProcessId(1)).got, (0..30).collect::<Vec<_>>());
        assert_eq!(sim.stats().delivered("num"), 30);
    }
}
