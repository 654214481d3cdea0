//! The traced pass's instruments, all outside the measured crates: a
//! [`Timed`] node adapter that times and counts every handler call into
//! `Member` / `LogProc`, and a counting allocator the `bench_trace` binary
//! (and only it) installs.
//!
//! Handler calls number 10⁶–10⁷ per run, so this boundary is recorded as
//! per-[`Kind`] aggregates (calls, busy ns, bytes, allocations), not one
//! span per call. Neither instrument touches `Ctx`, the RNG or any message:
//! the run is event-for-event the one [`Plain`](crate::workload::Plain)
//! produces, which `bench_trace` asserts on every invocation.

use crate::workload::{Host, LogSpec, MembershipSpec, Probe};
use gmp::log::{AppMsg, Client, LogMsg, LogProc, Replica, ReplicatedLog, LOG_FLUSH};
use gmp::prelude::*;
use gmp::protocol::{is_protocol_tag, Msg};
use gmp::sim::{Ctx, Message, Node};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

thread_local! {
    // Per thread, so counting costs two plain adds instead of two locked
    // ones per allocation (2–4 allocations per event add up). Every
    // measured run is single-threaded; `const` initializers and no
    // destructors keep the accesses allocation-free inside the allocator.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOC_BYTES.with(|b| b.set(b.get() + bytes as u64));
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

/// The system allocator plus two per-thread counters (bytes requested,
/// calls). Installed with `#[global_allocator]` by `bench_trace` only, so
/// the timed end-to-end binary runs on the untouched system allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth is what costs: count the bytes added, and the call.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` are the caller's live allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(bytes, calls)` this thread has allocated so far (zeros unless
/// [`CountingAlloc`] is the global allocator).
pub fn allocated() -> (u64, u64) {
    (ALLOC_BYTES.with(Cell::get), ALLOC_CALLS.with(Cell::get))
}

// ---------------------------------------------------------------------
// The handler clock
// ---------------------------------------------------------------------

/// Reads the clock handler calls are timed with. Two `Instant::now()`
/// reads cost ~70 ns per call on the reference VM — 15–20 % of a run of
/// cheap handlers; the time-stamp counter costs a quarter of that.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions: it reads a counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Reads the clock handler calls are timed with (nanoseconds here).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// [`ticks`] per nanosecond, measured once against `Instant` over 10 ms
/// (the counter is invariant — `constant_tsc` — on every x86-64 this can
/// sensibly run on).
fn ticks_per_ns() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let (t0, c0) = (Instant::now(), ticks());
        while t0.elapsed().as_millis() < 10 {
            std::hint::spin_loop();
        }
        (ticks() - c0) as f64 / t0.elapsed().as_nanos() as f64
    })
}

// ---------------------------------------------------------------------
// The handler ledger
// ---------------------------------------------------------------------

/// What a handler call was, for attribution to a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// `gmp-core`: `Member::on_start` (in log clusters, the replica's).
    CoreStart,
    /// `gmp-core`: a heartbeat delivery.
    CoreHeartbeat,
    /// `gmp-core`: an update / reconfiguration message (`PROTOCOL_TAGS`).
    CoreProtocol,
    /// `gmp-core`: any other membership message (reports, joins, welcome).
    CoreOther,
    /// `gmp-core`: a membership timer (heartbeat tick, join retry).
    CoreTimer,
    /// `gmp-log`: an `AcceptBatch` delivery; `units` counts its commands.
    LogAccept,
    /// `gmp-log`: any other log message at a replica.
    LogReplica,
    /// `gmp-log`: the leader's flush timer.
    LogFlush,
    /// `gmp-log`: anything at a client (start, replies, its loop timer).
    LogClient,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 9;

impl Kind {
    /// All kinds, in discriminant order.
    pub const ALL: [Kind; KINDS] = [
        Kind::CoreStart,
        Kind::CoreHeartbeat,
        Kind::CoreProtocol,
        Kind::CoreOther,
        Kind::CoreTimer,
        Kind::LogAccept,
        Kind::LogReplica,
        Kind::LogFlush,
        Kind::LogClient,
    ];

    /// Stable name, for the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CoreStart => "core.start",
            Kind::CoreHeartbeat => "core.heartbeat",
            Kind::CoreProtocol => "core.protocol",
            Kind::CoreOther => "core.other",
            Kind::CoreTimer => "core.timer",
            Kind::LogAccept => "log.accept",
            Kind::LogReplica => "log.replica",
            Kind::LogFlush => "log.flush",
            Kind::LogClient => "log.client",
        }
    }

    /// True for the kinds charged to `gmp-core`.
    pub fn is_core(self) -> bool {
        (self as usize) <= Kind::CoreTimer as usize
    }
}

/// Aggregate of the handler calls of one [`Kind`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Calls.
    pub calls: u64,
    /// Wall nanoseconds inside the handler. (Inside a [`Timed`] node this
    /// holds raw clock ticks; [`total_ledger`] converts.)
    pub busy_ns: u64,
    /// Bytes allocated inside the handler.
    pub alloc_bytes: u64,
    /// Allocator calls inside the handler.
    pub allocs: u64,
    /// Kind-specific work units (commands per `AcceptBatch`).
    pub units: u64,
}

impl Agg {
    fn add(&mut self, other: &Agg) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.alloc_bytes += other.alloc_bytes;
        self.allocs += other.allocs;
        self.units += other.units;
    }

    fn sub(&mut self, earlier: &Agg) {
        self.calls -= earlier.calls;
        self.busy_ns -= earlier.busy_ns;
        self.alloc_bytes -= earlier.alloc_bytes;
        self.allocs -= earlier.allocs;
        self.units -= earlier.units;
    }
}

/// One [`Agg`] per [`Kind`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger(pub [Agg; KINDS]);

impl Ledger {
    /// Adds `other` in.
    pub fn add(&mut self, other: &Ledger) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.add(b);
        }
    }

    /// Takes `earlier` (a snapshot of the same counters) out.
    pub fn sub(&mut self, earlier: &Ledger) {
        for (a, b) in self.0.iter_mut().zip(&earlier.0) {
            a.sub(b);
        }
    }

    /// The aggregate of one kind.
    pub fn of(&self, kind: Kind) -> Agg {
        self.0[kind as usize]
    }

    /// The sum over the kinds `pick` accepts.
    pub fn sum(&self, pick: impl Fn(Kind) -> bool) -> Agg {
        let mut total = Agg::default();
        for kind in Kind::ALL.into_iter().filter(|&k| pick(k)) {
            total.add(&self.of(kind));
        }
        total
    }
}

/// Tells [`Timed`] which layer a call into the node belongs to.
pub trait Classify<M> {
    /// Kind of `on_start`.
    fn start_kind(&self) -> Kind;
    /// Kind of delivering `msg`, and its work units.
    fn message_kind(&self, msg: &M) -> (Kind, u64);
    /// Kind of firing timer `tag`.
    fn timer_kind(&self, tag: u64) -> Kind;
}

impl Classify<Msg> for Member {
    fn start_kind(&self) -> Kind {
        Kind::CoreStart
    }

    fn message_kind(&self, msg: &Msg) -> (Kind, u64) {
        (core_message_kind(msg), 0)
    }

    fn timer_kind(&self, _tag: u64) -> Kind {
        Kind::CoreTimer
    }
}

fn core_message_kind(msg: &Msg) -> Kind {
    match msg.tag() {
        "heartbeat" => Kind::CoreHeartbeat,
        tag if is_protocol_tag(tag) => Kind::CoreProtocol,
        _ => Kind::CoreOther,
    }
}

impl Classify<AppMsg> for LogProc {
    fn start_kind(&self) -> Kind {
        if self.is_replica() {
            Kind::CoreStart
        } else {
            Kind::LogClient
        }
    }

    fn message_kind(&self, msg: &AppMsg) -> (Kind, u64) {
        match msg {
            _ if !self.is_replica() => (Kind::LogClient, 0),
            AppMsg::Gmp(m) => (core_message_kind(m), 0),
            AppMsg::Log(LogMsg::AcceptBatch { cmds, .. }) => (Kind::LogAccept, cmds.len() as u64),
            AppMsg::Log(_) => (Kind::LogReplica, 0),
        }
    }

    fn timer_kind(&self, tag: u64) -> Kind {
        match (self.is_replica(), tag) {
            (false, _) => Kind::LogClient,
            (true, LOG_FLUSH) => Kind::LogFlush,
            (true, _) => Kind::CoreTimer,
        }
    }
}

/// A node that forwards every call to `N` unchanged, recording around it.
pub struct Timed<N> {
    inner: N,
    /// Boxed: the engine moves a node out of its slot and back around every
    /// handler call, so 360 inline bytes would be copied twice per event.
    ledger: Box<Ledger>,
}

impl<N> Timed<N> {
    /// Wraps `inner`.
    pub fn new(inner: N) -> Self {
        Timed {
            inner,
            ledger: Box::default(),
        }
    }

    fn record<R>(&mut self, kind: Kind, units: u64, call: impl FnOnce(&mut N) -> R) -> R {
        let (bytes, allocs) = allocated();
        let start = ticks();
        let out = call(&mut self.inner);
        let busy = ticks() - start;
        let (bytes_after, allocs_after) = allocated();
        let agg = &mut self.ledger.0[kind as usize];
        agg.calls += 1;
        agg.busy_ns += busy;
        agg.alloc_bytes += bytes_after - bytes;
        agg.allocs += allocs_after - allocs;
        agg.units += units;
        out
    }
}

impl<N> Probe<N> for Timed<N> {
    fn inner(&self) -> &N {
        &self.inner
    }
}

impl<M: Message, N: Node<M> + Classify<M>> Node<M> for Timed<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let kind = self.inner.start_kind();
        self.record(kind, 0, |n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M) {
        let (kind, units) = self.inner.message_kind(&msg);
        self.record(kind, units, |n| n.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        let kind = self.inner.timer_kind(tag);
        self.record(kind, 0, |n| n.on_timer(ctx, tag));
    }
}

/// Sums the ledgers of every node of a simulation, busy time in
/// nanoseconds.
pub fn total_ledger<M, N>(sim: &Sim<M, Timed<N>>) -> Ledger
where
    M: Message,
    N: Node<M> + Classify<M>,
{
    let mut total = Ledger::default();
    for p in 0..sim.n() as u32 {
        total.add(&sim.node(ProcessId(p)).ledger);
    }
    for agg in &mut total.0 {
        agg.busy_ns = (agg.busy_ns as f64 / ticks_per_ns()) as u64;
    }
    total
}

// ---------------------------------------------------------------------
// Hosting
// ---------------------------------------------------------------------

/// Every node wrapped in [`Timed`]. The library's cluster builders only
/// produce bare nodes, so this mirrors their registration order by hand
/// (members, joiners; replicas, joiner, clients with the builders' issue
/// stagger); the determinism guard fails if the mirror ever drifts.
pub struct Traced;

impl Host for Traced {
    type MemberNode = Timed<Member>;
    type LogNode = Timed<LogProc>;

    fn membership(spec: &MembershipSpec, seed: u64) -> Sim<Msg, Timed<Member>> {
        let initial: View = (0..spec.n as u32).map(ProcessId).collect();
        let mut sim = Builder::new().seed(seed).build();
        for _ in 0..spec.n {
            sim.add_node(Timed::new(Member::new(
                spec.config.clone(),
                initial.clone(),
            )));
        }
        for (at, contacts) in &spec.joins {
            let cfg = joiner_config(&spec.config, JoinConfig::new(*at, contacts.clone()));
            sim.add_node(Timed::new(Member::joiner(cfg)));
        }
        sim
    }

    fn log(spec: &LogSpec, seed: u64) -> Sim<AppMsg, Timed<LogProc>> {
        let lc = &spec.log_config;
        let initial: View = (0..spec.replicas as u32).map(ProcessId).collect();
        let log = || ReplicatedLog::with_tuning(lc.max_inflight, lc.batch, lc.compact_keep);
        let replica = |member| Timed::new(LogProc::Replica(Box::new(Replica::new(member, log()))));
        let mut sim = Builder::new().seed(seed).build();
        for _ in 0..spec.replicas {
            sim.add_node(replica(Member::new(Config::default(), initial.clone())));
        }
        if let Some(join) = &spec.join {
            let cfg = joiner_config(&Config::default(), join.clone());
            sim.add_node(replica(Member::joiner(cfg)));
        }
        for k in 0..spec.clients as u64 {
            sim.add_node(Timed::new(LogProc::Client(Client::new(
                initial.to_vec(),
                lc.request_every + 7 * k,
                lc.request_every,
                lc.retry_after,
                lc.window,
            ))));
        }
        sim
    }
}

fn joiner_config(base: &Config, join: JoinConfig) -> Config {
    let mut cfg = base.clone();
    cfg.join = Some(join);
    cfg
}
