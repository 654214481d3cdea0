//! The discrete-event engine: deterministic scheduling, fault injection
//! and trace recording. It records each event as it happens and stamps
//! none: message ids, receive tags and Lamport stamps are derived from the
//! trace afterwards (`Trace::lamports`).

use crate::net::{BlockMode, NetState};
use crate::node::{Ctx, Message, Node};
use crate::queue::EventQueue;
use crate::stats::Stats;
use crate::trace::{Trace, TraceEvent, TraceKind, MAX_PROCESSES};
use crate::Time;
use gmp_types::{Note, ProcessId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

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
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            delay_min: 1,
            delay_max: 10,
            seed: 0,
        }
    }
}

impl Builder {
    /// A builder with default delays (1..=10 ticks) and seed 0. Links are
    /// always FIFO, as the model requires (§2.1).
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

    /// Builds an empty simulator; add nodes with [`Sim::add_node`].
    pub fn build<M: Message, N: Node<M>>(self) -> Sim<M, N> {
        Sim {
            slots: Vec::new(),
            core: Core {
                queue: EventQueue::new(),
                held: BTreeMap::new(),
                unreleased: BTreeMap::new(),
                net: NetState::new(self.delay_min, self.delay_max),
                rng: SmallRng::seed_from_u64(self.seed),
                time: 0,
                msg_counter: 0,
                n: 0,
                crash_after: Vec::new(),
                trace: Trace::default(),
                stats: Stats::default(),
            },
            started: false,
        }
    }
}

struct Slot<N> {
    node: N,
    proc: Proc,
}

/// The engine's per-process state, lent to the process's handlers (in
/// their [`Ctx`]) next to the node itself.
pub(crate) struct Proc {
    status: NodeStatus,
}

/// A message on the wire. It keeps nothing the message or the trace can
/// tell by itself: the tag comes from [`Message::tag`] at delivery and the
/// send's Lamport stamp from the trace, so the record stays small enough
/// to move inline (DESIGN.md, "The event record").
pub(crate) struct InFlight<M> {
    from: ProcessId,
    to: ProcessId,
    msg: M,
    msg_id: u64,
}

/// What a queued event does. The event queue keeps its `(time, seq)` key
/// by where it links it and reads nothing inside; the payload types are
/// `pub(crate)` only because this enum names them. A `Token` is a delivery on a released link that
/// carries no message: it takes the link's oldest undelivered one out of
/// the backlog.
pub(crate) enum QKind<M> {
    Deliver(InFlight<M>),
    Token { from: ProcessId, to: ProcessId },
    Timer { pid: ProcessId, tag: u64 },
    Crash { pid: ProcessId },
    Control(Control),
}

pub(crate) enum Control {
    Partition(Vec<Vec<ProcessId>>),
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
    core: Core<M>,
    started: bool,
}

/// Everything of the engine but the processes: what a handler's effects
/// update, so [`Ctx`] borrows it while the handler runs.
pub(crate) struct Core<M> {
    queue: EventQueue<M>,
    /// Every message a block or a partition caught and that is not
    /// delivered yet, by link and then message id: each link's backlog,
    /// in send order.
    held: BTreeMap<(ProcessId, ProcessId, u64), InFlight<M>>,
    /// Per link, how many of its held messages no queued
    /// [`QKind::Token`] will deliver: its share of [`Stats::held`].
    unreleased: BTreeMap<(ProcessId, ProcessId), u64>,
    net: NetState,
    rng: SmallRng,
    pub(crate) time: Time,
    msg_counter: u64,
    /// Number of processes, fixed when the run starts.
    n: usize,
    /// Pending mid-broadcast crash per process, indexed by pid (the pid
    /// space is dense).
    crash_after: Vec<Option<SendCrash>>,
    trace: Trace,
    stats: Stats,
}

impl<M: Message, N: Node<M>> Sim<M, N> {
    /// Registers a process. Must be called before the first `run_until`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started, or if it already has
    /// 2²⁹ processes: a trace record packs a sender's id into 29 bits.
    pub fn add_node(&mut self, node: N) -> ProcessId {
        assert!(
            !self.started,
            "cannot add nodes after the simulation started"
        );
        assert!(
            self.slots.len() < MAX_PROCESSES,
            "a run has at most {MAX_PROCESSES} processes"
        );
        let pid = ProcessId(self.slots.len() as u32);
        self.slots.push(Slot {
            node,
            proc: Proc {
                status: NodeStatus::Up,
            },
        });
        pid
    }

    /// Number of processes in the run.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.time
    }

    /// The recorded run so far.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// Message counters so far.
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// Liveness status of a process.
    pub fn status(&self, pid: ProcessId) -> NodeStatus {
        self.slots[pid.index()].proc.status
    }

    /// Processes that are still up.
    pub fn living(&self) -> Vec<ProcessId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.proc.status.is_up())
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

    /// Schedules a crash (`quit_p`) at the given time. Like every `*_at`
    /// method, a time that is already past means "now".
    ///
    /// # Panics
    ///
    /// Panics when the crash is applied if `pid` is not a process of the
    /// run (nodes may still be added after this call).
    pub fn crash_at(&mut self, pid: ProcessId, at: Time) {
        self.core.enqueue(at, QKind::Crash { pid });
    }

    /// From time `at` on, lets `pid` perform `sends` more message sends
    /// (optionally counting only messages whose tag equals `tag`) and then
    /// crashes it *immediately after the matching send* — i.e. possibly in
    /// the middle of a broadcast, as in Figure 3. An `at` already past
    /// means "now".
    ///
    /// # Panics
    ///
    /// Panics when the fault is applied if `pid` is not a process of the
    /// run (nodes may still be added after this call).
    pub fn crash_after_sends_at(
        &mut self,
        pid: ProcessId,
        at: Time,
        tag: Option<&'static str>,
        sends: u32,
    ) {
        self.core.enqueue(
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
        self.core
            .enqueue(at, QKind::Control(Control::Block { from, to, mode }));
    }

    /// Unblocks the directed link `from -> to` at `at`; held messages are
    /// then delivered at fresh delivery times, oldest first, and ahead of
    /// every later message on the link (§2.1's FIFO channels).
    pub fn unblock_link_at(&mut self, from: ProcessId, to: ProcessId, at: Time) {
        self.core
            .enqueue(at, QKind::Control(Control::Unblock { from, to }));
    }

    /// Partitions the processes into the given groups at time `at`,
    /// replacing any partition in force. Cross-partition messages are held
    /// (unbounded delay), not lost; a link the new groups reconnect has
    /// its held messages released, as by a heal. An `at` already past
    /// means "now".
    ///
    /// # Panics
    ///
    /// Panics when the partition is applied — against every node of the
    /// run, including those added after this call — unless each process
    /// appears in exactly one group.
    pub fn partition_at(&mut self, groups: &[&[ProcessId]], at: Time) {
        let groups = groups.iter().map(|g| g.to_vec()).collect();
        self.core
            .enqueue(at, QKind::Control(Control::Partition(groups)));
    }

    /// Heals any partition at time `at` (now, if `at` is already past),
    /// releasing held messages.
    pub fn heal_at(&mut self, at: Time) {
        self.core.enqueue(at, QKind::Control(Control::Heal));
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
        self.core
            .enqueue(at, QKind::Control(Control::SetDelay { from, to, range }));
    }

    /// Runs the simulation, processing every event with `time <= until`.
    pub fn run_until(&mut self, until: Time) {
        if !self.started {
            self.start();
        }
        while let Some((time, kind)) = self.core.queue.pop_due(until) {
            self.dispatch(time, kind);
        }
        self.core.time = self.core.time.max(until);
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
        self.core.n = n;
        self.core.trace = Trace::new(n);
        // Apply fault-injection and link controls scheduled at time 0 before
        // any process takes a step, so experiments can shape the run from
        // the very first event (e.g. arm a mid-broadcast crash for a
        // broadcast performed in `on_start`).
        let mut deferred = Vec::new();
        while let Some((time, kind)) = self.core.queue.pop_due(0) {
            match kind {
                QKind::Control(_) | QKind::Crash { .. } => self.dispatch(time, kind),
                _ => deferred.push(kind),
            }
        }
        for kind in deferred {
            self.core.queue.push(0, kind);
        }
        for i in 0..n {
            self.invoke(ProcessId(i as u32), Trigger::Start);
        }
    }

    fn dispatch(&mut self, time: Time, kind: QKind<M>) {
        self.core.time = time;
        // One call site for `deliver`, so it inlines here.
        let inf = match kind {
            QKind::Deliver(inf) => inf,
            QKind::Token { from, to } => self.core.take_oldest(from, to),
            QKind::Timer { pid, tag } => return self.invoke(pid, Trigger::Timer { tag }),
            QKind::Crash { pid } => {
                self.core.assert_in_run(pid);
                let proc = &mut self.slots[pid.index()].proc;
                return self.core.stop(pid, proc, TraceKind::Crash);
            }
            QKind::Control(c) => return self.core.apply_control(c),
        };
        self.deliver(inf);
    }

    /// Delivers, holds or drops `inf` by the receiver's status and the
    /// link's fate. A link with a backlog hands over its oldest message
    /// instead, so it stays FIFO through blocks, partitions and releases.
    fn deliver(&mut self, mut inf: InFlight<M>) {
        let core = &mut self.core;
        if !self.slots[inf.to.index()].proc.status.is_up() {
            core.stats.dropped_dead_receiver += 1;
            return;
        }
        // The link state is consulted at delivery time, so a block installed
        // after the send still catches in-flight messages.
        match core.net.fate(inf.from, inf.to) {
            Some(BlockMode::Hold) => return core.hold(inf),
            Some(BlockMode::Drop) => {
                core.stats.dropped_link += 1;
                return;
            }
            None => {}
        }
        if !core.held.is_empty() {
            inf = core.oldest(inf);
        }
        self.invoke(inf.to, Trigger::Recv(inf));
    }

    fn invoke(&mut self, pid: ProcessId, trigger: Trigger<M>) {
        let Slot { node, proc } = &mut self.slots[pid.index()];
        if !proc.status.is_up() {
            return;
        }
        // Record the triggering event, then run the handler.
        let kind = match &trigger {
            Trigger::Start => TraceKind::Start,
            Trigger::Recv(inf) => TraceKind::Recv {
                from: inf.from,
                msg_id: inf.msg_id,
            },
            Trigger::Timer { tag } => TraceKind::Timer { tag: *tag },
        };
        self.core.record(pid, kind);
        // The handler runs on the node where it sits, and each effect takes
        // hold where the handler emits it: the node, its `Proc` and the
        // core are disjoint borrows.
        let ctx = &mut Ctx {
            pid,
            core: &mut self.core,
            proc,
        };
        match trigger {
            Trigger::Start => node.on_start(ctx),
            Trigger::Recv(inf) => node.on_message(ctx, inf.from, inf.msg),
            Trigger::Timer { tag } => node.on_timer(ctx, tag),
        }
    }
}

/// `send`, `set_timer`, `note` and `stop` are the effects a handler emits
/// through its [`Ctx`], applied on the spot. Each does nothing once the
/// process is no longer up: after its own `quit`, or after the send a
/// mid-broadcast crash cut it off at.
impl<M: Message> Core<M> {
    /// Queues `kind` for `time` — or for now, if `time` is already past:
    /// the clock never runs backwards.
    fn enqueue(&mut self, time: Time, kind: QKind<M>) {
        self.queue.push(time.max(self.time), kind);
    }

    fn record(&mut self, pid: ProcessId, kind: TraceKind<'_>) {
        self.trace.events.push(TraceEvent {
            time: self.time,
            pid,
            kind,
        });
    }

    /// Panics unless `pid` is a process of the run: a fault scheduled for
    /// any other pid is a bug in the experiment.
    fn assert_in_run(&self, pid: ProcessId) {
        assert!(
            pid.index() < self.n,
            "fault scheduled for unknown process {pid} (the run has {} processes)",
            self.n
        );
    }

    /// Records and counts `pid`'s send, then queues, holds or drops the
    /// message by the link's fate. The `Send` carries no id: the k-th send
    /// of the run is message k, which is the `msg_id` its `Recv` records.
    pub(crate) fn send(&mut self, pid: ProcessId, proc: &mut Proc, to: ProcessId, msg: M) {
        if !proc.status.is_up() {
            return;
        }
        assert!(to.index() < self.n, "send to unknown process {to}");
        let tag = msg.tag();
        self.msg_counter += 1;
        let k = self.trace.events.push_send(self.time, pid, to, tag);
        self.stats.record_send(k, tag);
        let inf = InFlight {
            from: pid,
            to,
            msg,
            msg_id: self.msg_counter,
        };
        match self.net.fate(pid, to) {
            Some(BlockMode::Hold) => self.hold(inf),
            Some(BlockMode::Drop) => {
                self.stats.dropped_link += 1;
            }
            None => {
                let at = self.net.schedule(&mut self.rng, self.time, pid, to);
                self.enqueue(at, QKind::Deliver(inf));
            }
        }
        // Mid-broadcast crash bookkeeping (Figure 3).
        let crash = self
            .crash_after
            .get_mut(pid.index())
            .and_then(Option::as_mut);
        if let Some(sc) = crash.filter(|sc| sc.tag.is_none_or(|f| f == tag)) {
            sc.remaining -= 1;
            if sc.remaining == 0 {
                self.crash_after[pid.index()] = None;
                self.stop(pid, proc, TraceKind::Crash);
            }
        }
    }

    pub(crate) fn set_timer(&mut self, pid: ProcessId, proc: &Proc, delay: Time, tag: u64) {
        if proc.status.is_up() {
            // A delay past the end of time never fires, rather than
            // wrapping around to fire at once.
            self.enqueue(self.time.saturating_add(delay), QKind::Timer { pid, tag });
        }
    }

    pub(crate) fn note(&mut self, pid: ProcessId, proc: &Proc, note: Note) {
        if proc.status.is_up() {
            self.trace.events.push_note(self.time, pid, note);
        }
    }

    /// Stops `pid` for good and records why: `kind` is its `Crash` or
    /// its own `Quit`.
    pub(crate) fn stop(&mut self, pid: ProcessId, proc: &mut Proc, kind: TraceKind<'_>) {
        if proc.status.is_up() {
            proc.status = match kind {
                TraceKind::Crash => NodeStatus::Crashed,
                _ => NodeStatus::Quit,
            };
            self.record(pid, kind);
        }
    }

    fn apply_control(&mut self, c: Control) {
        match c {
            Control::Partition(groups) => self.net.partition(self.n, &groups),
            Control::Heal => self.net.set_partition(None),
            Control::Block { from, to, mode } => self.net.block(from, to, mode),
            Control::Unblock { from, to } => self.net.unblock(from, to),
            Control::SetDelay { from, to, range } => self.net.set_delay_override(from, to, range),
            Control::CrashAfterSends {
                pid,
                tag,
                remaining,
            } => {
                self.assert_in_run(pid);
                if remaining == 0 {
                    self.enqueue(self.time, QKind::Crash { pid });
                } else {
                    if self.crash_after.len() <= pid.index() {
                        self.crash_after.resize(pid.index() + 1, None);
                    }
                    self.crash_after[pid.index()] = Some(SendCrash { tag, remaining });
                }
                return;
            }
        }
        // Any link control may reconnect a link with a backlog: a heal, an
        // unblock, or a partition that puts both ends in one group.
        self.release_unblocked();
    }

    /// Holds `inf` in its link's backlog until a release.
    #[cold]
    fn hold(&mut self, inf: InFlight<M>) {
        self.stats.held += 1;
        *self.unreleased.entry((inf.from, inf.to)).or_default() += 1;
        self.held.insert((inf.from, inf.to, inf.msg_id), inf);
    }

    /// The oldest undelivered message of `inf`'s link, `inf` included.
    #[cold]
    fn oldest(&mut self, inf: InFlight<M>) -> InFlight<M> {
        let (from, to) = (inf.from, inf.to);
        self.held.insert((from, to, inf.msg_id), inf);
        self.take_oldest(from, to)
    }

    /// Takes the oldest message out of the backlog of the link `from ->
    /// to`: what a token delivers.
    fn take_oldest(&mut self, from: ProcessId, to: ProcessId) -> InFlight<M> {
        let oldest = self.held.range((from, to, 0)..=(from, to, u64::MAX)).next();
        let (&key, _) = oldest.expect("a token's link has a backlog");
        self.held.remove(&key).expect("the key was just found")
    }

    /// Releases the held messages of every link that is no longer
    /// blocked: one [`QKind::Token`] each, at a fresh delivery time.
    fn release_unblocked(&mut self) {
        // The tokens draw their delays from the run's RNG, so the links are
        // visited in a deterministic order: the map's, which is link order.
        let mut unreleased = std::mem::take(&mut self.unreleased);
        unreleased.retain(|&(from, to), &mut count| {
            let blocked = self.net.fate(from, to).is_some();
            if !blocked {
                self.stats.held -= count;
                for _ in 0..count {
                    let at = self.net.schedule(&mut self.rng, self.time, from, to);
                    self.enqueue(at, QKind::Token { from, to });
                }
            }
            blocked
        });
        self.unreleased = unreleased;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Entry;
    use gmp_types::Note;

    /// How many messages tagged `tag` the trace records as received.
    pub(super) fn received<M: Message, N: Node<M>>(sim: &Sim<M, N>, tag: &str) -> usize {
        let trace = sim.trace();
        let recvs = trace.events.iter().filter(|e| {
            matches!(e.kind, TraceKind::Recv { msg_id, .. } if trace.message_tag(msg_id) == tag)
        });
        recvs.count()
    }

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
                for p in 1..self.n {
                    ctx.send(ProcessId(p), TMsg::Ping(0));
                }
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

    /// The engine-level `Send` audit, checked at compile time: a simulator
    /// whose message and node types are `Send` is itself `Send`, so a run
    /// can be built on one thread and driven on another.
    #[test]
    fn sim_is_send_when_message_and_node_are() {
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&build(3, 0));
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut sim = build(4, 1);
        sim.run_until(1_000);
        assert_eq!(sim.node(ProcessId(0)).pongs, 3);
        assert_eq!(sim.stats().sends("ping"), 3);
        assert_eq!(sim.stats().sends("pong"), 3);
        assert_eq!(received(&sim, "pong"), 3);
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

    /// Process 0 emits a fixed effect sequence at start; the rest listen.
    struct Script(fn(&mut Ctx<'_, TMsg>));

    impl Node<TMsg> for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TMsg>) {
            if ctx.id() == ProcessId(0) {
                (self.0)(ctx);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, TMsg>, _: ProcessId, _: TMsg) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, TMsg>, _: u64) {}
    }

    /// Runs `script` on process 0 of `n` until t = 1000.
    fn run_script(
        n: u32,
        script: fn(&mut Ctx<'_, TMsg>),
        setup: impl FnOnce(&mut Sim<TMsg, Script>),
    ) -> Sim<TMsg, Script> {
        let mut sim = Builder::new().seed(2).build();
        for _ in 0..n {
            sim.add_node(Script(script));
        }
        setup(&mut sim);
        sim.run_until(1_000);
        sim
    }

    /// p0's history as `(lamport, kind)` pairs, the stamps rebuilt from
    /// the trace.
    fn p0_history(sim: &Sim<TMsg, Script>) -> Vec<(u64, TraceKind<'_>)> {
        let trace = sim.trace();
        trace
            .events
            .iter()
            .zip(trace.lamports())
            .filter(|(e, _)| e.pid == ProcessId(0))
            .map(|(e, lamport)| (lamport, e.kind))
            .collect()
    }

    /// Effects take hold in emission order, and `quit` cuts off everything
    /// emitted after it: the second send, note and timer leave no trace,
    /// and the timer armed before the quit never fires.
    #[test]
    fn quit_cuts_off_every_later_effect() {
        let sim = run_script(
            2,
            |ctx| {
                ctx.note(Note::Custom("before".into()));
                ctx.send(ProcessId(1), TMsg::Ping(1));
                ctx.set_timer(5, 1);
                ctx.quit();
                ctx.send(ProcessId(1), TMsg::Ping(2));
                ctx.note(Note::Custom("after".into()));
                ctx.set_timer(5, 2);
            },
            |_| {},
        );
        let before = Note::Custom("before".into());
        let send = TraceKind::Send {
            to: ProcessId(1),
            tag: "ping",
        };
        assert_eq!(
            p0_history(&sim),
            vec![
                (1, TraceKind::Start),
                (1, TraceKind::Note(&before)),
                (2, send),
                (3, TraceKind::Quit),
            ]
        );
    }

    /// A mid-broadcast crash (Figure 3) drops every effect the handler
    /// emits after the crashing send, not only the remaining sends.
    #[test]
    fn mid_broadcast_crash_drops_later_notes_and_timers() {
        let sim = run_script(
            4,
            |ctx| {
                for p in 1..4 {
                    ctx.send(ProcessId(p), TMsg::Ping(0));
                }
                ctx.note(Note::Custom("sent".into()));
                ctx.set_timer(5, 1);
            },
            |sim| sim.crash_after_sends_at(ProcessId(0), 0, None, 2),
        );
        let kinds: Vec<TraceKind> = p0_history(&sim).into_iter().map(|(_, k)| k).collect();
        assert!(
            matches!(
                kinds[..],
                [
                    TraceKind::Start,
                    TraceKind::Send {
                        to: ProcessId(1),
                        ..
                    },
                    TraceKind::Send {
                        to: ProcessId(2),
                        ..
                    },
                    TraceKind::Crash,
                ]
            ),
            "{kinds:?}"
        );
    }

    #[test]
    fn blocked_link_holds_and_releases() {
        let mut sim = build(2, 5);
        sim.block_link_at(ProcessId(0), ProcessId(1), BlockMode::Hold, 0);
        sim.unblock_link_at(ProcessId(0), ProcessId(1), 500);
        sim.run_until(400);
        assert_eq!(received(&sim, "ping"), 0);
        sim.run_until(1_000);
        assert_eq!(received(&sim, "ping"), 1);
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
        // Links are always FIFO: pings sent in a burst over one link
        // arrive in order.
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

    /// A timer armed past the end of time never fires: its due time
    /// saturates at `Time::MAX` instead of wrapping around to "now".
    #[test]
    fn a_timer_past_the_end_of_time_never_fires() {
        struct Late {
            fired: Vec<(Time, u64)>,
        }
        #[derive(Clone, Debug)]
        struct Never;
        impl Message for Never {
            fn tag(&self) -> &'static str {
                "never"
            }
        }
        impl Node<Never> for Late {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Never>) {
                ctx.set_timer(5, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Never>, _: ProcessId, _: Never) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Never>, tag: u64) {
                self.fired.push((ctx.now(), tag));
                if tag == 0 {
                    ctx.set_timer(u64::MAX, 1);
                }
            }
        }
        let mut sim: Sim<Never, Late> = Builder::new().build();
        sim.add_node(Late { fired: Vec::new() });
        sim.run_until(10_000);
        assert_eq!(sim.node(ProcessId(0)).fired, vec![(5, 0)]);
    }

    /// A queued event is moved into its slab entry on every push and out
    /// on every pop. At 128 B and above LLVM emits each such move as a
    /// `memcpy` call on baseline x86-64; with the tag left to
    /// [`Message::tag`], the send's Lamport stamp to the trace, and the
    /// event's time and `seq` to where the queue links it, a 40-byte
    /// message enum (`gmp-log`'s `AppMsg`) queues in at most 64 B. A
    /// 40-byte message with no spare tag values, such as `[u64; 5]`,
    /// takes 72 B: the event kind then needs a tag of its own.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_40_byte_message_enum_takes_a_slab_entry_of_at_most_64_bytes() {
        use std::mem::size_of;
        #[allow(dead_code)]
        #[derive(Clone, Debug)]
        enum Forty {
            Wide([u64; 4], u32),
            Narrow(u32),
        }
        impl Message for Forty {
            fn tag(&self) -> &'static str {
                "forty"
            }
        }
        assert_eq!(size_of::<Forty>(), 40);
        let entry = size_of::<Entry<Forty>>();
        assert!(entry <= 64, "Entry<Forty> is {entry} B");
        #[derive(Clone, Debug)]
        struct Packed(#[allow(dead_code)] [u64; 5]);
        impl Message for Packed {
            fn tag(&self) -> &'static str {
                "packed"
            }
        }
        let entry = size_of::<Entry<Packed>>();
        assert!(entry <= 72, "Entry<Packed> is {entry} B");
    }

    /// A 24-byte message enum (`gmp-core`'s `Msg`) queues in at most 48 B.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_24_byte_message_enum_takes_a_slab_entry_of_at_most_48_bytes() {
        use std::mem::size_of;
        #[allow(dead_code)]
        #[derive(Clone, Debug)]
        enum TwentyFour {
            Wide(u64, u64),
            Narrow(u32),
        }
        impl Message for TwentyFour {
            fn tag(&self) -> &'static str {
                "twenty-four"
            }
        }
        assert_eq!(size_of::<TwentyFour>(), 24);
        let entry = size_of::<Entry<TwentyFour>>();
        assert!(entry <= 48, "Entry<TwentyFour> is {entry} B");
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
            events
                .iter()
                .zip(events.iter().skip(1))
                .all(|(a, b)| a.time <= b.time),
            "trace times must be non-decreasing"
        );
        let crash = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::Crash))
            .expect("the crash was recorded");
        assert_eq!(crash.time, 500, "a past-dated crash happens now");
        assert_eq!(sim.status(ProcessId(1)), NodeStatus::Crashed);
        assert_eq!(events.iter().last().map(|e| e.pid), Some(ProcessId(0)));
    }

    #[test]
    fn vector_clocks_capture_message_causality() {
        let mut sim = build(2, 8);
        sim.run_until(1_000);
        let trace = sim.trace();
        let log = trace.to_event_log();
        // Find the ping send at p0 (message 1) and its reception at p1.
        let send_idx = trace
            .events
            .iter()
            .position(|e| matches!(e.kind, TraceKind::Send { tag: "ping", .. }))
            .expect("ping sent");
        let recv_idx = trace
            .events
            .iter()
            .position(|e| matches!(e.kind, TraceKind::Recv { msg_id: 1, .. }))
            .expect("ping received");
        assert_eq!(trace.message_tag(1), "ping");
        assert!(log.happens_before(send_idx, recv_idx));
        assert!(!log.happens_before(recv_idx, send_idx));
    }
}

#[cfg(test)]
mod release_tests {
    use super::tests::received;
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
        assert_eq!(received(&sim, "num"), 30);
    }

    /// A node added after `partition_at` (legal before the run starts) is
    /// checked against the groups when the partition is applied.
    #[test]
    #[should_panic(expected = "exactly one partition group")]
    fn partition_must_cover_a_node_added_later() {
        let mut sim = two_nodes(7);
        sim.partition_at(&[&[ProcessId(0)], &[ProcessId(1)]], 0);
        sim.add_node(Burst { got: Vec::new() });
        sim.run_until(10);
    }

    /// A crash scheduled for a pid outside the run is rejected by name
    /// when it is applied, like a partition that misses a node.
    #[test]
    #[should_panic(expected = "fault scheduled for unknown process p5")]
    fn a_crash_for_an_unknown_process_is_rejected() {
        let mut sim = two_nodes(9);
        sim.crash_at(ProcessId(5), 3);
        sim.run_until(10);
    }

    #[test]
    #[should_panic(expected = "fault scheduled for unknown process p2")]
    fn a_send_crash_for_an_unknown_process_is_rejected() {
        let mut sim = two_nodes(10);
        sim.crash_after_sends_at(ProcessId(2), 3, None, 1);
        sim.run_until(10);
    }

    /// Both are checked when applied, so a node added after scheduling
    /// is a valid target.
    #[test]
    fn a_crash_may_target_a_node_added_later() {
        let mut sim = two_nodes(11);
        sim.crash_at(ProcessId(2), 3);
        sim.crash_after_sends_at(ProcessId(3), 0, None, 0);
        sim.add_node(Burst { got: Vec::new() });
        sim.add_node(Burst { got: Vec::new() });
        sim.run_until(10);
        assert_eq!(sim.status(ProcessId(2)), NodeStatus::Crashed);
        assert_eq!(sim.status(ProcessId(3)), NodeStatus::Crashed);
    }

    #[test]
    #[should_panic(expected = "exactly one partition group")]
    fn partition_rejects_a_process_in_two_groups() {
        let mut sim = two_nodes(8);
        sim.partition_at(&[&[ProcessId(0), ProcessId(1)], &[ProcessId(1)]], 0);
        sim.run_until(10);
    }
}
