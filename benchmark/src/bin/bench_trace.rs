//! The traced pass: per-layer numbers taken from outside the measured
//! crates. Every node is wrapped in [`Timed`](gmp_benchmark::timed::Timed),
//! the allocator counts, and micro-drivers call the layers the node
//! boundary hides. Each round runs the same seeds bare and traced: their
//! CPU ratio is the tracing overhead, and their simulated outcomes must be
//! equal — the proof that the instruments are protocol-invisible.

use gmp::log::{AppMsg, LogProc};
use gmp::prelude::*;
use gmp::sim::{Message, Node, Stats, Trace, TraceKind};
use gmp::types::{Note, OpKind};
use gmp_benchmark::cli::{self, Args};
use gmp_benchmark::clock::{cpu_now, rss_bytes, Elapsed};
use gmp_benchmark::metrics::{in_table_order, median, sum_of_minima, PER_LAYER};
use gmp_benchmark::micro;
use gmp_benchmark::report::{fingerprint_line, host_line, metric_line, result_line, write_out};
use gmp_benchmark::run::{repetition, Observer, Repetition, Schedule, SeedRun};
use gmp_benchmark::timed::{allocated, total_ledger, CountingAlloc, Kind, Ledger, Traced};
use gmp_benchmark::workload::{
    find, reflection_times, Change, Cluster, Counters, Plain, Probe, Scenario, Workload,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let outcome = cli::parse(std::env::args().skip(1)).and_then(|args| {
        if args.trace == Some(false) {
            return Err(
                "bench_trace is the traced pass; --trace 0 is bench's (benchmark/run.sh picks)"
                    .into(),
            );
        }
        if args.check || args.manifest || args.calibrate {
            return Err("--check, --manifest and --calibrate belong to bench".into());
        }
        let name = args
            .workload
            .as_deref()
            .ok_or_else(|| format!("bench_trace takes one workload\n{}", cli::USAGE))?;
        trace(name, &args)
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the traced repetitions add up, beyond what [`Repetition`] holds.
#[derive(Default)]
struct Layers {
    /// Handler aggregates of the measured phases.
    ledger: Ledger,
    /// Allocator `(bytes, calls)` of the measured phases, handlers included.
    alloc: (u64, u64),
    /// Message counters of the measured phases.
    dead_letters: u64,
    heartbeats: u64,
    protocol_msgs: u64,
    log_msgs: u64,
    /// Membership outcome, whole runs.
    view_changes: u64,
    reconfigurations: u64,
    excluded: u64,
    excluded_live: u64,
    /// Per injected crash: fault → first suspicion, first suspicion → last
    /// install among the survivors.
    detect_ticks: Vec<u64>,
    agree_ticks: Vec<u64>,
    /// Log outcome.
    retries: u64,
    redirects: u64,
    recovery_ticks: Vec<u64>,
    sync_entries: Vec<u64>,
    hot_slots_max: u64,
    /// First seed only: resident bytes the run added per trace event, and
    /// the cost of the property checker's two entry points on its trace.
    rss_bytes_per_event: Option<f64>,
    props: Option<(f64, f64)>,
}

/// Collects [`Layers`] while a traced repetition runs.
struct LayerObserver<'w> {
    w: &'w Workload,
    layers: Layers,
    rss_before: u64,
    warm_ledger: Ledger,
    warm_alloc: (u64, u64),
}

fn ledger_of(cluster: &Cluster<Traced>) -> Ledger {
    match cluster {
        Cluster::Membership(sim) => total_ledger(sim),
        Cluster::Log(sim) => total_ledger(sim),
    }
}

impl Observer<Traced> for LayerObserver<'_> {
    fn at_warm(&mut self, cluster: &Cluster<Traced>) {
        self.warm_ledger = ledger_of(cluster);
        self.warm_alloc = allocated();
    }

    fn at_end(&mut self, _seed: &SeedRun, cluster: &Cluster<Traced>, at_warm: &Counters) {
        let (bytes, calls) = allocated();
        let l = &mut self.layers;
        l.alloc.0 += bytes - self.warm_alloc.0;
        l.alloc.1 += calls - self.warm_alloc.1;
        let mut ledger = ledger_of(cluster);
        ledger.sub(&self.warm_ledger);
        l.ledger.add(&ledger);

        let (stats, before) = (cluster.stats(), &at_warm.stats);
        let delta = |count: &dyn Fn(&Stats) -> u64| count(stats) - count(before);
        l.dead_letters += delta(&|s| s.dropped_dead_receiver);
        l.heartbeats += delta(&|s| s.sends("heartbeat"));
        l.protocol_msgs += delta(&|s| s.sends_matching(gmp::protocol::is_protocol_tag));
        l.log_msgs += delta(&|s| s.sends_matching(|tag| tag.starts_with("log-")));

        let trace = cluster.trace();
        if l.rss_bytes_per_event.is_none() {
            let grown = rss_bytes().saturating_sub(self.rss_before);
            l.rss_bytes_per_event = Some(grown as f64 / trace.events.len() as f64);
            let t0 = cpu_now();
            let report = gmp::props::check_safety(trace);
            let t1 = cpu_now();
            let log = trace.to_event_log();
            let t2 = cpu_now();
            std::hint::black_box((report, log));
            l.props = Some((t1 - t0, t2 - t1));
        }
        membership_layers(l, trace);
        match (cluster, &self.w.scenario) {
            (Cluster::Membership(sim), Scenario::Membership(spec)) => {
                let versions = sim.living().into_iter().map(|p| sim.node(p).inner().ver());
                l.view_changes += versions.max().unwrap_or(0);
                fault_timing(l, sim, &spec.crashes);
            }
            (Cluster::Log(sim), Scenario::Log(spec)) => {
                let replicas = sim.living().into_iter().map(|p| sim.node(p).inner());
                let versions = replicas
                    .filter(|n| n.is_replica())
                    .map(|n| n.member().ver());
                l.view_changes += versions.max().unwrap_or(0);
                if let Some((target, at)) = spec.crash {
                    fault_timing(l, sim, &[(target, at)]);
                    l.recovery_ticks.extend(recovery_ticks(sim, target));
                }
                log_layers(l, sim, spec.replicas, spec.join.is_some());
            }
            _ => unreachable!("cluster built from this workload"),
        }
    }
}

/// Reconfigurations and exclusions, read off the trace notes.
fn membership_layers(l: &mut Layers, trace: &Trace) {
    let crashed: BTreeSet<ProcessId> = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Crash)
        .map(|e| e.pid)
        .collect();
    let mut removed = BTreeSet::new();
    for (_, note) in trace.notes() {
        match note {
            Note::BecameMgr { ver } if *ver > 0 => l.reconfigurations += 1,
            Note::OpApplied { op, .. } if op.kind == OpKind::Remove => {
                removed.insert(op.target);
            }
            _ => {}
        }
    }
    l.excluded += removed.len() as u64;
    l.excluded_live += removed.difference(&crashed).count() as u64;
}

/// Detection and agreement time of each injected crash `(victim, at)`:
/// one pass over the notes for the first suspicions, one for the installs.
fn fault_timing<M: Message, N: Node<M>>(
    l: &mut Layers,
    sim: &Sim<M, N>,
    crashes: &[(ProcessId, u64)],
) {
    let mut suspected: Vec<Option<u64>> = vec![None; crashes.len()];
    for (e, note) in sim.trace().notes() {
        if let Note::Faulty { suspect, .. } = note {
            let hit = crashes
                .iter()
                .position(|&(target, at)| target == *suspect && e.time >= at);
            if let Some(i) = hit {
                suspected[i].get_or_insert(e.time);
            }
        }
    }
    let changes: Vec<Change> = crashes
        .iter()
        .map(|&(target, at)| Change {
            target,
            at,
            join: false,
        })
        .collect();
    for ((installs, suspected), &(_, at)) in reflection_times(sim, &changes)
        .iter()
        .zip(suspected)
        .zip(crashes)
    {
        let last_install = installs.iter().map(|&(_, t)| t).max();
        if let (Some(suspected), Some(last_install)) = (suspected, last_install) {
            l.detect_ticks.push(suspected - at);
            l.agree_ticks.push(last_install.saturating_sub(suspected));
        }
    }
}

/// From the view that excluded `victim` being installed at the new leader
/// to the first command applied under that leader's ballot.
fn recovery_ticks<N>(sim: &Sim<AppMsg, N>, victim: ProcessId) -> Option<u64>
where
    N: Node<AppMsg> + Probe<LogProc>,
{
    let leader = sim.living().into_iter().find(|&p| {
        let node = sim.node(p).inner();
        node.is_replica() && node.log().is_leader()
    })?;
    let (installed_at, ballot) = sim.trace().notes().find_map(|(e, note)| match note {
        Note::ViewInstalled { ver, members, .. }
            if e.pid == leader && !members.contains(&victim) =>
        {
            Some((e.time, *ver))
        }
        _ => None,
    })?;
    let log = sim.node(leader).inner().log();
    log.ballots()
        .iter()
        .zip(log.applied_at())
        .find(|&(&b, _)| b >= ballot)
        .map(|(_, &t)| t.saturating_sub(installed_at))
}

fn log_layers<N>(l: &mut Layers, sim: &Sim<AppMsg, N>, replicas: usize, joiner: bool)
where
    N: Node<AppMsg> + Probe<LogProc>,
{
    for p in (0..sim.n() as u32).map(ProcessId) {
        let node = sim.node(p).inner();
        if !node.is_replica() {
            l.retries += node.client().retries();
            l.redirects += node.client().redirects();
        } else if sim.status(p).is_up() {
            let (accepted, parked, by_cmd, _) = node.log().hot_sizes();
            l.hot_slots_max = l.hot_slots_max.max(accepted.max(parked).max(by_cmd) as u64);
        }
    }
    if joiner {
        let joined = sim.node(ProcessId(replicas as u32)).inner().log();
        l.sync_entries
            .extend(joined.last_sync().map(|(_, tail)| tail));
    }
}

fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Runs the traced pass on one workload and prints every per-layer metric.
fn trace(name: &str, args: &Args) -> Result<(), String> {
    let w = find(name).ok_or_else(|| format!("unknown workload {name:?}\n{}", cli::USAGE))?;
    let k = if args.smoke { 1 } else { w.k };
    let started = Instant::now();
    let mut schedule = Schedule::new(args.reps.or(args.smoke.then_some(1)), args.seconds);
    let mut observer = LayerObserver {
        w: &w,
        layers: Layers::default(),
        rss_before: rss_bytes(),
        warm_ledger: Ledger::default(),
        warm_alloc: (0, 0),
    };
    let mut rounds: Vec<(Repetition, Repetition)> = Vec::new();
    loop {
        // Round 0 runs traced first, so the first seed's resident-set growth
        // is read against a heap nothing has grown yet; later rounds
        // alternate, so neither side always inherits the other's warm heap.
        let bare = |first: bool| repetition::<Plain>(&w, args.seed, k, first, &mut ());
        let (traced, plain) = if rounds.len().is_multiple_of(2) {
            let traced = repetition::<Traced>(&w, args.seed, k, rounds.is_empty(), &mut observer)?;
            (traced, bare(false)?)
        } else {
            let plain = bare(false)?;
            (
                repetition::<Traced>(&w, args.seed, k, false, &mut observer)?,
                plain,
            )
        };
        if traced.pooled != plain.pooled {
            return Err(format!(
                "{name}: the traced run diverged from the bare run on the same seeds \
                 (instrumentation is not protocol-invisible, or `Traced` no longer mirrors the cluster builders)"
            ));
        }
        let more = schedule.another(traced.unverified_wall() + plain.unverified_wall());
        rounds.push((traced, plain));
        if !more {
            break;
        }
    }

    let n_rounds = rounds.len() as f64;
    let l = &observer.layers;
    let pooled = &rounds[0].0.pooled;
    let sum =
        |f: &dyn Fn(&Repetition) -> f64| rounds.iter().map(|(t, _)| f(t)).sum::<f64>() / n_rounds;
    let phase_cpu = |pick: fn(&SeedRun) -> Elapsed| {
        sum(&|r: &Repetition| r.seeds.iter().map(|s| pick(s).cpu).sum())
    };
    let traced_cpu = sum(&|r: &Repetition| r.cpu());
    let plain_cpu = median(&rounds.iter().map(|(_, p)| p.cpu()).collect::<Vec<_>>());
    // Seed by seed, the least CPU time any round needed, traced over bare.
    let measured = |pick: fn(&(Repetition, Repetition)) -> &Repetition| -> Vec<Vec<f64>> {
        let per_seed = |r| pick(r).seeds.iter().map(|s| s.phases.measure.cpu).collect();
        rounds.iter().map(per_seed).collect()
    };
    let overhead = sum_of_minima(&measured(|r| &r.0)) / sum_of_minima(&measured(|r| &r.1));
    let wall_over_cpu = median(
        &rounds
            .iter()
            .map(|(t, _)| t.measure_wall() / t.cpu())
            .collect::<Vec<_>>(),
    );

    // Handler aggregates are sums over all rounds; scale to one.
    let core = l.ledger.sum(Kind::is_core);
    let replica = l
        .ledger
        .sum(|k| matches!(k, Kind::LogAccept | Kind::LogReplica | Kind::LogFlush));
    let client = l.ledger.of(Kind::LogClient);
    let per_round = |total: u64| total as f64 / n_rounds;
    let core_busy = per_round(core.busy_ns) * 1e-9;
    let log_busy = per_round(replica.busy_ns + client.busy_ns) * 1e-9;
    let self_cpu = traced_cpu - core_busy - log_busy;
    let events = pooled.events as f64;
    let ops = pooled.ops;
    let ticks = pooled.ticks as f64;
    let handler_alloc = l.ledger.sum(|_| true);

    let (n_procs, degree, suspect_after, log_config) = match &w.scenario {
        Scenario::Membership(spec) => {
            let view: View = (0..spec.n as u32).map(ProcessId).collect();
            let degree = spec.config.topology.monitors(ProcessId(0), &view).len();
            (
                spec.n + spec.joins.len(),
                degree,
                spec.config.suspect_after,
                None,
            )
        }
        Scenario::Log(spec) => (
            spec.replicas + spec.join.is_some() as usize + spec.clients,
            spec.replicas - 1,
            Config::default().suspect_after,
            Some(&spec.log_config),
        ),
    };
    let (heard_ns, tick_ns) = micro::detect_ns(degree, suspect_after);
    // The keep-or-cut question ROADMAP asks of the sharded engine is about
    // event-dense cliques, so only that workload probes it.
    let sharded = if w.name == "flat128" {
        sharded2_wall_ratio(&w, args.seed)
    } else {
        0.0
    };
    let (check_safety_s, event_log_s) = l.props.unwrap_or((0.0, 0.0));

    let computed = [
        ("sim.events", events),
        ("sim.sends", pooled.sends as f64),
        (
            "sim.dead_letter_ratio",
            per(per_round(l.dead_letters), pooled.sends),
        ),
        ("sim.build_s", phase_cpu(|s| s.phases.build)),
        ("sim.warmup_s", phase_cpu(|s| s.phases.warm)),
        ("sim.self_cpu_s", self_cpu),
        ("sim.self_ns_per_event", self_cpu * 1e9 / events),
        ("sim.self_share", self_cpu / traced_cpu),
        ("sim.events_per_cpu_s", events / plain_cpu),
        (
            "sim.alloc_bytes_per_event",
            per_round(l.alloc.0 - handler_alloc.alloc_bytes) / events,
        ),
        (
            "sim.allocs_per_event",
            per_round(l.alloc.1 - handler_alloc.allocs) / events,
        ),
        (
            "sim.rss_bytes_per_event",
            l.rss_bytes_per_event.unwrap_or(0.0),
        ),
        ("sim.sharded2_wall_ratio", sharded),
        ("core.calls", per_round(core.calls)),
        ("core.busy_s", core_busy),
        ("core.share", core_busy / traced_cpu),
        (
            "core.heartbeat_ns_per_call",
            ns_per_call(&l.ledger, Kind::CoreHeartbeat),
        ),
        (
            "core.protocol_ns_per_call",
            ns_per_call(&l.ledger, Kind::CoreProtocol),
        ),
        (
            "core.timer_ns_per_call",
            ns_per_call(&l.ledger, Kind::CoreTimer),
        ),
        (
            "core.alloc_bytes_per_call",
            per(core.alloc_bytes as f64, core.calls),
        ),
        ("core.view_changes", per_round(l.view_changes)),
        ("core.reconfigurations", per_round(l.reconfigurations)),
        (
            "core.live_exclusions",
            per(l.excluded_live as f64, l.excluded),
        ),
        (
            "core.protocol_msgs_per_change",
            per(l.protocol_msgs as f64, l.view_changes),
        ),
        (
            "core.monitor_msgs_per_ktick",
            per_round(l.heartbeats) * 1000.0 / ticks,
        ),
        ("core.detect_ticks", mean(&l.detect_ticks)),
        ("core.agree_ticks", mean(&l.agree_ticks)),
        ("log.replica_calls", per_round(replica.calls)),
        ("log.replica_busy_s", per_round(replica.busy_ns) * 1e-9),
        ("log.share", log_busy / traced_cpu),
        (
            "log.replica_ns_per_call",
            per(replica.busy_ns as f64, replica.calls),
        ),
        (
            "log.client_ns_per_call",
            per(client.busy_ns as f64, client.calls),
        ),
        (
            "log.alloc_bytes_per_op",
            per(per_round(replica.alloc_bytes + client.alloc_bytes), ops),
        ),
        ("log.msgs_per_op", per(per_round(l.log_msgs), ops)),
        (
            "log.batch_fill",
            per(
                l.ledger.of(Kind::LogAccept).units as f64,
                l.ledger.of(Kind::LogAccept).calls,
            ),
        ),
        ("log.retries_per_op", per(per_round(l.retries), ops)),
        ("log.redirects", per_round(l.redirects)),
        ("log.recovery_ticks", mean(&l.recovery_ticks)),
        ("log.sync_entries", mean(&l.sync_entries)),
        ("log.hot_slots_max", l.hot_slots_max as f64),
        (
            "log.step_ns_per_cmd",
            log_config.map_or(0.0, micro::log_step_ns_per_cmd),
        ),
        (
            "causality.send_recv_ns",
            micro::causality_send_recv_ns(n_procs),
        ),
        ("detect.heard_from_ns", heard_ns),
        ("detect.tick_ns", tick_ns),
        ("props.check_safety_s", check_safety_s),
        ("props.event_log_s", event_log_s),
        ("bench.trace_overhead_ratio", overhead),
        ("bench.wall_over_cpu", wall_over_cpu),
    ];
    let values = in_table_order(&PER_LAYER, &computed)?;

    let spans = write_out(
        &format!("{name}.spans.jsonl"),
        &spans_jsonl(name, started, &rounds, &l.ledger),
    )?;
    println!("{}", host_line());
    println!(
        "run: workload={name} seed_base={} k={k} rounds={} traced_cpu_s={traced_cpu} untraced_cpu_s={plain_cpu} spans={}",
        args.seed,
        rounds.len(),
        spans.display()
    );
    println!("{}", fingerprint_line(name, pooled));
    for (def, value) in &values {
        println!("{}", metric_line(name, def, *value, ""));
    }
    println!("{}", result_line(pooled.attempted, pooled.failed, &values));
    Ok(())
}

fn ns_per_call(ledger: &Ledger, kind: Kind) -> f64 {
    per(ledger.of(kind).busy_ns as f64, ledger.of(kind).calls)
}

/// Wall time of `run_until_sharded(horizon, 2)` over `run_until(horizon)`
/// on the seed base's run (informational: ROADMAP's keep-or-cut audit).
fn sharded2_wall_ratio(w: &Workload, seed: u64) -> f64 {
    let time = |sharded: bool| {
        let Cluster::Membership(mut sim) = Cluster::<Plain>::build(w, seed) else {
            unreachable!("only the membership workload flat128 probes the sharded engine");
        };
        let start = Instant::now();
        if sharded {
            sim.run_until_sharded(w.horizon, 2);
        } else {
            sim.run_until(w.horizon);
        }
        start.elapsed().as_secs_f64()
    };
    let sequential = time(false);
    time(true) / sequential
}

/// The span tree workload → round → repetition → seed → phase, one JSON
/// object per line, plus one `handlers` line per handler kind (calls that
/// number in the millions are recorded as aggregates, not spans).
fn spans_jsonl(
    name: &str,
    started: Instant,
    rounds: &[(Repetition, Repetition)],
    ledger: &Ledger,
) -> String {
    let mut out = String::new();
    let mut next_id = 0u64;
    let mut span = |out: &mut String, parent: Option<u64>, name: &str, at: Instant, secs: f64| {
        next_id += 1;
        let start_us = at.duration_since(started).as_micros();
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {next_id}, \"parent\": {parent}, \"name\": \"{name}\", \"start_us\": {start_us}, \"end_us\": {}}}",
            start_us + (secs * 1e6) as u128
        )
        .expect("write to string");
        next_id
    };
    let root = span(
        &mut out,
        None,
        &format!("workload:{name}"),
        started,
        started.elapsed().as_secs_f64(),
    );
    for (i, (traced, plain)) in rounds.iter().enumerate() {
        for (mode, rep) in [("traced", traced), ("bare", plain)] {
            let rep_id = span(
                &mut out,
                Some(root),
                &format!("repetition:{i}:{mode}"),
                rep.started,
                rep.wall,
            );
            for s in &rep.seeds {
                let end = s.verify.unwrap_or(s.phases.measure);
                let seed_secs = (end.started - s.phases.build.started).as_secs_f64() + end.wall;
                let seed_id = span(
                    &mut out,
                    Some(rep_id),
                    &format!("seed:{}", s.seed),
                    s.phases.build.started,
                    seed_secs,
                );
                let phases = [
                    ("build", Some(s.phases.build)),
                    ("warmup", Some(s.phases.warm)),
                    ("measure", Some(s.phases.measure)),
                    ("verify", s.verify),
                ];
                for (phase, elapsed) in phases {
                    if let Some(e) = elapsed {
                        span(&mut out, Some(seed_id), phase, e.started, e.wall);
                    }
                }
            }
        }
    }
    for kind in Kind::ALL {
        let agg = ledger.of(kind);
        writeln!(
            out,
            "{{\"parent\": {root}, \"name\": \"handlers:{}\", \"calls\": {}, \"busy_ns\": {}, \"alloc_bytes\": {}, \"allocs\": {}, \"units\": {}}}",
            kind.name(), agg.calls, agg.busy_ns, agg.alloc_bytes, agg.allocs, agg.units
        )
        .expect("write to string");
    }
    out
}
