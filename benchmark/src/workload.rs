//! The five workloads, how a seed of each is built and run, and what is
//! read off the finished run.
//!
//! A *repetition* of a workload is `k` independent seeds run back to back,
//! each in three phases: **setup** (build the cluster, then
//! `run_until(warm)`: start, cluster formation, first heartbeat round,
//! clocks and trace allocated), **measured** (`run_until(horizon)`) and an
//! untimed **verify**. Everything here is a pure function of
//! `(workload, seed)`; host time is taken by the caller.

use crate::clock::Elapsed;
use gmp::log::{AppMsg, LogCmd, LogProc};
use gmp::prelude::*;
use gmp::protocol::Msg;
use gmp::sim::{Node, Stats, Trace};
use gmp::types::Note;
use std::collections::BTreeMap;

/// One benchmark workload.
pub struct Workload {
    /// Fixed name (the `--workload` argument).
    pub name: &'static str,
    /// Why it is in the set — which layers it loads and how.
    pub why: &'static str,
    /// Seeds per repetition.
    pub k: u64,
    /// End of the setup phase, in simulated ticks.
    pub warm: u64,
    /// End of the measured phase, in simulated ticks.
    pub horizon: u64,
    /// What runs.
    pub scenario: Scenario,
}

/// The cluster shape and fault schedule of a workload.
pub enum Scenario {
    /// Bare membership: `Member` nodes only.
    Membership(MembershipSpec),
    /// Replicated log on membership: `LogProc` replicas and clients.
    Log(LogSpec),
}

/// A membership cluster and its schedule of changes.
pub struct MembershipSpec {
    /// Initial members `p0..p(n-1)`; `p0` is the first `Mgr`.
    pub n: usize,
    /// Protocol configuration shared by every member.
    pub config: Config,
    /// Crashes `(victim, at)`.
    pub crashes: Vec<(ProcessId, u64)>,
    /// Joiners `(first ask, contacts)`; the k-th gets pid `n + k`.
    pub joins: Vec<(u64, Vec<ProcessId>)>,
}

/// A log-bearing cluster: replicas, closed-loop clients, one optional
/// joiner and one optional crash.
pub struct LogSpec {
    /// Initial replicas `p0..p(replicas-1)`; `p0` leads first.
    pub replicas: usize,
    /// Closed-loop clients (pids after the replicas and the joiner).
    pub clients: usize,
    /// Client rate, window and leader batching.
    pub log_config: LogConfig,
    /// A late-joining replica (pid `replicas`).
    pub join: Option<JoinConfig>,
    /// A crash `(victim, at)`.
    pub crash: Option<(ProcessId, u64)>,
}

/// A command acknowledged later than this many ticks after a surviving
/// replica applied it counts as failed.
pub const ACK_GRACE_TICKS: u64 = 2_000;

/// The five workloads, in reporting order.
pub fn workloads() -> Vec<Workload> {
    let single_fault = |n: usize, topology_sparse: bool| {
        let cfg = Config::builder().timing(100, 150);
        let cfg = if topology_sparse {
            cfg.topology(Sparse::new(4))
        } else {
            cfg
        };
        Scenario::Membership(MembershipSpec {
            n,
            config: cfg.build(),
            crashes: vec![(ProcessId(n as u32 - 1), 110)],
            joins: Vec::new(),
        })
    };
    vec![
        Workload {
            name: "flat128",
            why: "the paper's clique at n=128: ~130k heartbeat events per seed, so the engine's \
                  queue+stamp+trace path dominates and Member's heartbeat/detector path is the rest",
            k: 16,
            warm: 100,
            horizon: 500,
            scenario: single_fault(128, false),
        },
        Workload {
            name: "sparse1024",
            why: "degree-4 ring at n=1024: few events, each paying a Theta(n) vector stamp and 8 KiB \
                  of trace; isolates gmp-causality and trace memory, handlers nearly idle",
            k: 18,
            warm: 100,
            horizon: 500,
            scenario: single_fault(1024, true),
        },
        Workload {
            name: "churn16",
            why: "n=16 under 12 crashes (Mgr and junior alternating) and 12 joins: two-phase updates, \
                  three-phase reconfiguration and joins instead of steady heartbeats; tiny stamps",
            k: 30,
            warm: 500,
            horizon: 20_000,
            scenario: churn16(),
        },
        Workload {
            name: "log_steady",
            why: "5 replicas, 8 closed-loop clients x window 8, no faults: the log at saturation; gmp-log \
                  handlers take their largest share. Many short seeds: each locks into one of ~6 batching modes",
            k: 400,
            warm: 250,
            horizon: 1_500,
            scenario: Scenario::Log(LogSpec {
                replicas: 5,
                clients: 8,
                log_config: LogConfig::default().request_every(5).window(8),
                join: None,
                crash: None,
            }),
        },
        Workload {
            name: "log_failover",
            why: "5 replicas + joiner, 4 clients at light load, leader crash at 3000: near-empty \
                  batches, then exclusion + reconfiguration + Recover + snapshot Sync; shows the outage",
            k: 48,
            warm: 500,
            horizon: 12_000,
            scenario: Scenario::Log(LogSpec {
                replicas: 5,
                clients: 4,
                log_config: LogConfig::default().request_every(10),
                join: Some(JoinConfig::new(2_500, vec![ProcessId(1)])),
                crash: Some((ProcessId(0), 3_000)),
            }),
        },
    ]
}

/// `churn16`: crash k (k = 0..12) hits at `1000 + 1500k`, alternating the
/// current `Mgr` (the senior survivor: p0, p1, …) and the most junior
/// initial member still up (p15, p14, …); a joiner first asks 700 ticks
/// after each crash through the four initial members that never crash.
/// 24 view changes commit and 16 members remain.
fn churn16() -> Scenario {
    let n = 16u32;
    let contacts: Vec<ProcessId> = (6..10).map(ProcessId).collect();
    let mut crashes = Vec::new();
    let mut joins = Vec::new();
    for k in 0..12u32 {
        let at = 1_000 + 1_500 * k as u64;
        let victim = if k % 2 == 0 { k / 2 } else { n - 1 - k / 2 };
        crashes.push((ProcessId(victim), at));
        joins.push((at + 700, contacts.clone()));
    }
    Scenario::Membership(MembershipSpec {
        n: n as usize,
        config: Config::default(),
        crashes,
        joins,
    })
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------
// Hosting: how nodes are put into the simulator
// ---------------------------------------------------------------------

/// Read access to the protocol state behind a hosted node.
pub trait Probe<T> {
    /// The hosted state machine.
    fn inner(&self) -> &T;
}

impl Probe<Member> for Member {
    fn inner(&self) -> &Member {
        self
    }
}

impl Probe<LogProc> for LogProc {
    fn inner(&self) -> &LogProc {
        self
    }
}

/// How a workload's processes are hosted in the simulator: bare
/// ([`Plain`]) for the timed end-to-end pass, or wrapped in the timing
/// adapter for the traced pass. Both must produce the same run.
pub trait Host {
    /// Node type of membership clusters.
    type MemberNode: Node<Msg> + Probe<Member>;
    /// Node type of log clusters.
    type LogNode: Node<AppMsg> + Probe<LogProc>;
    /// Builds a membership cluster (joiners registered, nothing scheduled).
    fn membership(spec: &MembershipSpec, seed: u64) -> Sim<Msg, Self::MemberNode>;
    /// Builds a log cluster (joiner and clients registered).
    fn log(spec: &LogSpec, seed: u64) -> Sim<AppMsg, Self::LogNode>;
}

/// Bare nodes, assembled by the library's own cluster builders.
pub struct Plain;

impl Host for Plain {
    type MemberNode = Member;
    type LogNode = LogProc;

    fn membership(spec: &MembershipSpec, seed: u64) -> Sim<Msg, Member> {
        let mut b = ClusterBuilder::new(spec.n, spec.config.clone());
        for (at, contacts) in &spec.joins {
            b = b.joiner(JoinConfig::new(*at, contacts.clone()));
        }
        b.sim(Builder::new().seed(seed)).build()
    }

    fn log(spec: &LogSpec, seed: u64) -> Sim<AppMsg, LogProc> {
        let mut b = LogClusterBuilder::new(spec.replicas, spec.clients)
            .seed(seed)
            .log_config(spec.log_config.clone());
        if let Some(join) = &spec.join {
            b = b.joiner(join.clone());
        }
        b.build()
    }
}

/// A built cluster of either shape.
pub enum Cluster<H: Host> {
    /// Membership only.
    Membership(Sim<Msg, H::MemberNode>),
    /// Replicated log.
    Log(Sim<AppMsg, H::LogNode>),
}

/// Engine counters read at a phase boundary.
#[derive(Clone, Debug)]
pub struct Counters {
    /// Trace events recorded so far.
    pub events: u64,
    /// Message counters so far.
    pub stats: Stats,
    /// Acknowledged commands per client so far (log workloads).
    pub acked: Vec<u64>,
}

/// Host time of one seed's phases.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Cluster construction and fault scheduling.
    pub build: Elapsed,
    /// `run_until(warm)`.
    pub warm: Elapsed,
    /// `run_until(horizon)`: the measured phase.
    pub measure: Elapsed,
}

impl Phases {
    /// CPU seconds of the setup phase (build + warm-up).
    pub fn setup_cpu(&self) -> f64 {
        self.build.cpu + self.warm.cpu
    }
}

/// The simulated outcome of one seed: deterministic in `(workload, seed)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeedOutcome {
    /// Trace events of the measured phase.
    pub events: u64,
    /// Messages sent in the measured phase (all tags).
    pub sends: u64,
    /// Simulated ticks of the measured phase.
    pub ticks: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (see the README's definition).
    pub failed: u64,
    /// Operations completed in the measured phase.
    pub ops: u64,
    /// One latency sample per completed operation (log) or per survivor
    /// per change (membership), in ticks.
    pub latencies: Vec<u64>,
    /// Longest interval with an operation pending and none completing.
    pub stall: u64,
}

impl<H: Host> Cluster<H> {
    /// Builds seed `seed` of `w` and schedules its faults.
    pub fn build(w: &Workload, seed: u64) -> Self {
        match &w.scenario {
            Scenario::Membership(spec) => {
                let mut sim = H::membership(spec, seed);
                for &(victim, at) in &spec.crashes {
                    sim.crash_at(victim, at);
                }
                Cluster::Membership(sim)
            }
            Scenario::Log(spec) => {
                let mut sim = H::log(spec, seed);
                if let Some((victim, at)) = spec.crash {
                    sim.crash_at(victim, at);
                }
                Cluster::Log(sim)
            }
        }
    }

    /// Advances the simulation.
    pub fn run_until(&mut self, until: u64) {
        match self {
            Cluster::Membership(sim) => sim.run_until(until),
            Cluster::Log(sim) => sim.run_until(until),
        }
    }

    /// The recorded run.
    pub fn trace(&self) -> &Trace {
        match self {
            Cluster::Membership(sim) => sim.trace(),
            Cluster::Log(sim) => sim.trace(),
        }
    }

    /// Message counters.
    pub fn stats(&self) -> &Stats {
        match self {
            Cluster::Membership(sim) => sim.stats(),
            Cluster::Log(sim) => sim.stats(),
        }
    }

    /// Engine counters now.
    pub fn counters(&self) -> Counters {
        let acked = match self {
            Cluster::Membership(_) => Vec::new(),
            Cluster::Log(sim) => client_pids(sim)
                .map(|p| sim.node(p).inner().client().acked())
                .collect(),
        };
        Counters {
            events: self.trace().events.len() as u64,
            stats: self.stats().clone(),
            acked,
        }
    }

    /// Reads the seed's simulated outcome off the finished run.
    pub fn outcome(&self, w: &Workload, at_warm: &Counters) -> SeedOutcome {
        let mut out = match (self, &w.scenario) {
            (Cluster::Membership(sim), Scenario::Membership(spec)) => {
                membership_outcome(sim, spec, w)
            }
            (Cluster::Log(sim), Scenario::Log(_)) => log_outcome(sim, w, at_warm),
            _ => unreachable!("cluster built from this workload"),
        };
        out.events = self.trace().events.len() as u64 - at_warm.events;
        out.sends = self.stats().sends_total() - at_warm.stats.sends_total();
        out.ticks = w.horizon - w.warm;
        out
    }

    /// The untimed correctness gate: the GMP safety clauses on the trace,
    /// then the workload's own outcome checks.
    pub fn verify(&self, w: &Workload) -> Result<(), String> {
        let report = gmp::props::check_safety(self.trace());
        if !report.is_ok() {
            return Err(format!("GMP safety violated: {report:?}"));
        }
        match (self, &w.scenario) {
            (Cluster::Membership(sim), Scenario::Membership(spec)) => verify_membership(sim, spec),
            (Cluster::Log(sim), Scenario::Log(spec)) => verify_log(sim, spec),
            _ => unreachable!("cluster built from this workload"),
        }
    }
}

// ---------------------------------------------------------------------
// Membership workloads
// ---------------------------------------------------------------------

/// An injected membership change.
#[derive(Clone, Copy, Debug)]
pub struct Change {
    /// The process crashed or joining.
    pub target: ProcessId,
    /// Injection time: the crash, or the joiner's first request.
    pub at: u64,
    /// True for a join, false for a crash.
    pub join: bool,
}

impl Change {
    /// True when a membership that does (`has_target`) or does not hold
    /// the target reflects the change.
    fn reflected(&self, has_target: bool) -> bool {
        has_target == self.join
    }
}

/// The changes a membership spec injects, in schedule order. Crash victims
/// are initial members (a view "reflects" a crash when the victim is
/// absent, which only means something for a process that was once in it).
pub fn changes(spec: &MembershipSpec) -> Vec<Change> {
    let crashes = spec.crashes.iter().map(|&(target, at)| Change {
        target,
        at,
        join: false,
    });
    let joins = spec.joins.iter().enumerate().map(|(k, (at, _))| Change {
        target: ProcessId((spec.n + k) as u32),
        at: *at,
        join: true,
    });
    let mut all: Vec<Change> = crashes.chain(joins).collect();
    all.sort_by_key(|c| c.at);
    all
}

/// For each change, when each survivor first installed a view reflecting
/// it (from the `ViewInstalled` trace notes): `result[c]` holds one
/// `(survivor, time)` per survivor that saw the transition. A survivor
/// whose *first* view already reflects a change it is not the target of
/// (a joiner admitted after the change) saw none and contributes nothing.
pub fn reflection_times<M, N>(sim: &Sim<M, N>, all: &[Change]) -> Vec<Vec<(ProcessId, u64)>>
where
    M: gmp::sim::Message,
    N: Node<M>,
{
    let living = sim.living();
    let mut installs: BTreeMap<ProcessId, Vec<(u64, &[ProcessId])>> = BTreeMap::new();
    for (e, note) in sim.trace().notes() {
        if let Note::ViewInstalled { members, .. } = note {
            if living.binary_search(&e.pid).is_ok() {
                installs.entry(e.pid).or_default().push((e.time, members));
            }
        }
    }
    all.iter()
        .map(|change| {
            installs
                .iter()
                .filter_map(|(&pid, views)| {
                    let i = views
                        .iter()
                        .position(|(_, m)| change.reflected(m.contains(&change.target)))?;
                    (i > 0 || change.target == pid).then_some((pid, views[i].0))
                })
                .collect()
        })
        .collect()
}

fn membership_outcome<N>(sim: &Sim<Msg, N>, spec: &MembershipSpec, w: &Workload) -> SeedOutcome
where
    N: Node<Msg> + Probe<Member>,
{
    let all = changes(spec);
    let times = reflection_times(sim, &all);
    let living = sim.living();
    let mut out = SeedOutcome::default();
    for (change, seen) in all.iter().zip(&times) {
        out.attempted += 1;
        let everywhere = living
            .iter()
            .all(|&p| change.reflected(sim.node(p).inner().view().contains(change.target)));
        if !everywhere {
            out.failed += 1;
            continue;
        }
        if change.at > w.warm {
            out.ops += 1;
        }
        for &(_, t) in seen {
            let latency = t.saturating_sub(change.at);
            out.latencies.push(latency);
            out.stall = out.stall.max(latency);
        }
    }
    out
}

fn verify_membership<N>(sim: &Sim<Msg, N>, spec: &MembershipSpec) -> Result<(), String>
where
    N: Node<Msg> + Probe<Member>,
{
    let living = sim.living();
    let reference = living
        .first()
        .map(|&p| sim.node(p).inner())
        .ok_or("no process survived")?;
    let (view, ver) = (reference.view().to_vec(), reference.ver());
    for &p in &living {
        let m = sim.node(p).inner();
        if m.view().to_vec() != view || m.ver() != ver {
            return Err(format!(
                "survivors disagree: {p:?} holds v{} {:?}, p{:?} holds v{ver} {view:?}",
                m.ver(),
                m.view().to_vec(),
                living[0]
            ));
        }
    }
    if view != living {
        return Err(format!(
            "agreed view {view:?} is not the surviving set {living:?}"
        ));
    }
    for change in changes(spec) {
        if !change.reflected(view.contains(&change.target)) {
            return Err(format!(
                "{change:?} not reflected in the final view {view:?}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Log workloads
// ---------------------------------------------------------------------

/// Client pids of a log cluster, ascending.
fn client_pids<N>(sim: &Sim<AppMsg, N>) -> impl Iterator<Item = ProcessId> + '_
where
    N: Node<AppMsg> + Probe<LogProc>,
{
    (0..sim.n() as u32)
        .map(ProcessId)
        .filter(move |&p| !sim.node(p).inner().is_replica())
}

/// The surviving replica holding the longest applied history (lowest pid
/// on ties): the reference log of the run.
fn most_advanced<N>(sim: &Sim<AppMsg, N>) -> Option<ProcessId>
where
    N: Node<AppMsg> + Probe<LogProc>,
{
    let mut best: Option<(usize, ProcessId)> = None;
    for p in sim.living() {
        let node = sim.node(p).inner();
        if !node.is_replica() {
            continue;
        }
        let len = node.log().applied_at().len();
        if best.is_none_or(|(l, _)| len > l) {
            best = Some((len, p));
        }
    }
    best.map(|(_, p)| p)
}

fn log_outcome<N>(sim: &Sim<AppMsg, N>, w: &Workload, at_warm: &Counters) -> SeedOutcome
where
    N: Node<AppMsg> + Probe<LogProc>,
{
    let mut out = SeedOutcome::default();
    let reference = most_advanced(sim).map(|p| sim.node(p).inner().log());
    for (k, p) in client_pids(sim).enumerate() {
        let client = sim.node(p).inner().client();
        let before = at_warm.acked[k];
        out.ops += client.acked() - before;
        out.latencies
            .extend_from_slice(&client.latencies()[before as usize..]);
        // A command a surviving replica applied long before the horizon
        // must have been acknowledged by now.
        let due = reference.map_or(0, |log| {
            log.committed()
                .iter()
                .zip(log.applied_at())
                .filter(|(cmd, &t)| cmd.client == p && t + ACK_GRACE_TICKS <= w.horizon)
                .count() as u64
        });
        out.failed += due.saturating_sub(client.acked());
    }
    out.attempted = out.ops + out.failed;
    if let Some(log) = reference {
        // Longest gap between consecutive applies inside the measured
        // phase, the horizon closing the last one.
        let mut last = w.warm;
        for &t in log.applied_at().iter().filter(|&&t| t > w.warm) {
            out.stall = out.stall.max(t - last);
            last = t;
        }
        out.stall = out.stall.max(w.horizon - last);
    }
    out
}

fn verify_log<N>(sim: &Sim<AppMsg, N>, spec: &LogSpec) -> Result<(), String>
where
    N: Node<AppMsg> + Probe<LogProc>,
{
    let replicas: Vec<ProcessId> = sim
        .living()
        .into_iter()
        .filter(|&p| sim.node(p).inner().is_replica())
        .collect();
    let expected = spec.replicas + spec.join.is_some() as usize - spec.crash.is_some() as usize;
    if replicas.len() != expected {
        return Err(format!(
            "{} replicas survive, expected {expected}",
            replicas.len()
        ));
    }
    let logs = replicas.iter().map(|&p| {
        let log = sim.node(p).inner().log();
        (log.base(), log.committed())
    });
    if !logs_agree(logs) {
        return Err("surviving replicas' logs diverge".into());
    }
    let reference = most_advanced(sim).ok_or("no replica survived")?;
    let log = sim.node(reference).inner().log();
    if log.base() != 0 {
        return Err(format!(
            "reference replica {reference:?} booted from a snapshot"
        ));
    }
    // Exactly-once, gapless: each client's commands appear once each, in
    // seq order 0, 1, 2, …; and nothing is acknowledged that is not there.
    let mut next: BTreeMap<ProcessId, u64> = BTreeMap::new();
    for cmd in log.committed().iter().filter(|c| !c.is_noop()) {
        let LogCmd { client, seq } = *cmd;
        let want = next.entry(client).or_insert(0);
        if seq != *want {
            return Err(format!(
                "client {client:?}: committed seq {seq}, expected {want}"
            ));
        }
        *want += 1;
    }
    for p in client_pids(sim) {
        let (acked, committed) = (
            sim.node(p).inner().client().acked(),
            next.get(&p).copied().unwrap_or(0),
        );
        if acked == 0 || acked > committed {
            return Err(format!(
                "client {p:?}: {acked} acks for {committed} commits"
            ));
        }
    }
    Ok(())
}
