//! Criterion wall-clock benchmarks over the paper's workloads.
//!
//! One benchmark group per experiment (see `EXPERIMENTS.md`): these measure
//! the *simulator's* wall-clock cost of executing each protocol scenario —
//! the message-complexity tables themselves are regenerated by the `tables`
//! binary, which counts protocol messages rather than time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmp_baselines::{figure_11_run, SymMsg, SymmetricMember};
use gmp_bench::{bench_exclusion_run, e4_worst_case, e8_seed_sweep, protocol_messages};
use gmp_causality::{CowClock, VectorClock};
use gmp_core::{cluster_with, Config, HeartbeatDigest};
use gmp_sim::{pool, run_seeds_parallel, BatchConfig, Builder, Shared, Sim};
use gmp_types::{ProcessId, View};
use std::hint::black_box;
use std::num::NonZeroUsize;

/// E1 — one exclusion at increasing group sizes.
fn bench_exclusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("exclusion");
    for n in [4usize, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let sim = bench_exclusion_run(n, 7);
                black_box(protocol_messages(sim.stats()))
            });
        });
    }
    group.finish();
}

/// E2 — a burst of failures under condensed vs. standard rounds.
fn bench_condensed(c: &mut Criterion) {
    let mut group = c.benchmark_group("condensed");
    for (label, compression) in [("compressed", true), ("standard", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = Config::builder()
                    .mgr_majority(false)
                    .compression(compression)
                    .build();
                let mut sim = cluster_with(16, 7, cfg);
                for k in 0..8u64 {
                    sim.crash_at(ProcessId((15 - k) as u32), 300 + k);
                }
                sim.run_until(20_000);
                black_box(protocol_messages(sim.stats()))
            });
        });
    }
    group.finish();
}

/// E3 — coordinator replacement at increasing group sizes.
fn bench_reconfiguration(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconfiguration");
    for n in [5usize, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut sim = cluster_with(n, 7, Config::default());
                sim.crash_at(ProcessId(0), 300);
                sim.run_until(10_000);
                black_box(protocol_messages(sim.stats()))
            });
        });
    }
    group.finish();
}

/// E4 — the worst-case cascade of failed reconfigurations.
fn bench_worst_case(c: &mut Criterion) {
    c.bench_function("worst_case_cascade_n9", |b| {
        b.iter(|| black_box(e4_worst_case(&[9], 7)));
    });
}

/// E5 — the symmetric baseline against the asymmetric algorithm.
fn bench_symmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetric_vs_asymmetric");
    group.bench_function("symmetric_n16", |b| {
        b.iter(|| {
            let view: View = (0..16u32).map(ProcessId).collect();
            let mut sim: Sim<SymMsg, SymmetricMember> = Builder::new().seed(7).build();
            for _ in 0..16 {
                sim.add_node(SymmetricMember::new(view.clone(), 40, 200));
            }
            sim.crash_at(ProcessId(15), 300);
            sim.run_until(10_000);
            black_box(sim.stats().sends_total())
        });
    });
    group.bench_function("asymmetric_n16", |b| {
        b.iter(|| {
            let sim = bench_exclusion_run(16, 7);
            black_box(sim.stats().sends_total())
        });
    });
    group.finish();
}

/// F11 — the full Figure 11 adversarial schedule (three-phase arm).
fn bench_figure11(c: &mut Criterion) {
    c.bench_function("figure11_three_phase", |b| {
        b.iter(|| {
            let sim = figure_11_run(true, 7);
            black_box(sim.trace().events.len())
        });
    });
}

/// Per-event cost of rebuilding vector stamps (`Trace::to_event_log`): an
/// eager-clone replay against the copy-on-write clock the rebuild uses, at
/// n ∈ {8, 32, 128}.
///
/// Reproduces the rebuild's profile per simulated protocol step: one send
/// event (tick the process's clock, stamp the logged event, keep the stamp
/// for the matching receive) and one piggybacked note event (stamp without
/// advancing). The eager path deep-copies the n-entry vector at every one
/// of those points; the copy-on-write path copies only on the tick and
/// shares everything else.
fn bench_stamping(c: &mut Criterion) {
    const STEPS: usize = 1_000;
    let mut group = c.benchmark_group("stamping");
    for n in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::new("eager_clone", n), &n, |b, &n| {
            b.iter(|| {
                let mut vc = VectorClock::new(n);
                let mut stamps = Vec::with_capacity(3 * STEPS);
                for i in 0..STEPS {
                    vc.tick(i % n);
                    stamps.push(vc.clone()); // send: logged-event stamp
                    stamps.push(vc.clone()); // send: kept for the receive
                    stamps.push(vc.clone()); // note: stamp, no advance
                }
                black_box(stamps.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("cow", n), &n, |b, &n| {
            b.iter(|| {
                let mut vc = CowClock::new(n);
                let mut stamps = Vec::with_capacity(3 * STEPS);
                for i in 0..STEPS {
                    vc.tick(i % n);
                    stamps.push(vc.stamp()); // copies at most on the tick
                    stamps.push(vc.stamp()); // O(1): clock unchanged
                    stamps.push(vc.stamp()); // O(1): clock unchanged
                }
                black_box(stamps.len())
            });
        });
    }
    group.finish();
}

/// E8 — the multi-seed batch runner end to end (small slice: the full
/// sweep is `tables e8`).
fn bench_seed_sweep(c: &mut Criterion) {
    c.bench_function("seed_sweep_n16_8seeds", |b| {
        b.iter(|| black_box(e8_seed_sweep(&[16], 0..8, NonZeroUsize::new(1))));
    });
}

/// E10 — the same sweep on the worker pool: one worker against every core
/// the host reports (identical output, different wall-clock; on a
/// single-core host the two coincide).
fn bench_seed_sweep_parallel(c: &mut Criterion) {
    let auto = pool::available_jobs().get();
    let mut group = c.benchmark_group("seed_sweep_parallel");
    for (label, jobs) in [("jobs_1", 1usize), ("jobs_auto", auto)] {
        group.bench_with_input(BenchmarkId::new(label, jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let runs = run_seeds_parallel(
                    0..8,
                    BatchConfig::new(2_000),
                    NonZeroUsize::new(jobs),
                    |seed| {
                        let mut sim =
                            cluster_with(16, seed, Config::builder().timing(100, 400).build());
                        sim.crash_at(ProcessId(15), 300);
                        sim
                    },
                );
                black_box(runs.len())
            });
        });
    }
    group.finish();
}

/// E9 — heartbeat payload fan-out: the retired per-peer `Vec`-clone
/// encoding against the `Arc`-shared delta digest, at n ∈ {8, 32, 128}.
///
/// Models the sender side of `TICKS` heartbeat intervals with one
/// faulty-set change at the start (the E9 protocol scenario): the clone
/// path materializes the faulty vector every tick and deep-copies it into
/// each of the n−1 payloads; the digest path materializes one snapshot at
/// the change and fans out O(1) digest clones — full to each peer once,
/// empty afterwards — exactly as `Member::on_tick` does.
fn bench_heartbeat_fanout(c: &mut Criterion) {
    const TICKS: usize = 50;
    let mut group = c.benchmark_group("heartbeat_fanout");
    for n in [8usize, 32, 128] {
        let faulty: Vec<ProcessId> = (0..n as u32 / 4).map(ProcessId).collect();
        group.bench_with_input(BenchmarkId::new("per_peer_clone", n), &n, |b, &n| {
            b.iter(|| {
                let mut payloads = 0usize;
                for _ in 0..TICKS {
                    let set = faulty.clone(); // materialized every tick
                    for _ in 0..n - 1 {
                        payloads += black_box(set.clone()).len(); // per target
                    }
                }
                black_box(payloads)
            });
        });
        group.bench_with_input(BenchmarkId::new("shared_digest", n), &n, |b, &n| {
            b.iter(|| {
                let snapshot: Shared<[ProcessId]> = faulty.clone().into(); // once
                let mut payloads = 0usize;
                for tick in 0..TICKS {
                    for _ in 0..n - 1 {
                        let digest = if tick == 0 {
                            HeartbeatDigest::snapshot(snapshot.clone()) // O(1)
                        } else {
                            HeartbeatDigest::empty()
                        };
                        payloads += black_box(digest).faulty().count();
                    }
                }
                black_box(payloads)
            });
        });
    }
    group.finish();
}

/// E15 — the replicated-log hot path: the unbatched baseline (batches of one)
/// against batched + pipelined cells of the ladder, wall-clock for the
/// same steady schedule (see `tables e15` for the message-level table).
/// Batched runs commit ~4x the operations in the same horizon, so this
/// also tracks the per-committed-op simulator cost across PRs.
fn bench_log_batching(c: &mut Criterion) {
    use gmp_log::{LogClusterBuilder, LogConfig};
    let mut group = c.benchmark_group("log_batching");
    for (label, lc) in [
        ("unbatched", LogConfig::default().unbatched()),
        ("batch8_window4", LogConfig::default().batch(8).window(4)),
        (
            "batch16_window8",
            LogConfig::default().batch(16).window(8).max_inflight(16),
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &lc, |b, lc| {
            b.iter(|| {
                let mut sim = LogClusterBuilder::new(5, 4)
                    .seed(7)
                    .log_config(lc.clone())
                    .build();
                sim.run_until(15_000);
                let ops = sim.node(ProcessId(0)).log().committed_ops();
                assert!(ops > 0, "the workload committed nothing");
                black_box(ops)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Small sample count: each iteration is a full deterministic protocol
    // run (hundreds of simulated seconds), so per-sample noise is low.
    config = Criterion::default().sample_size(10);
    targets =
        bench_exclusion,
        bench_condensed,
        bench_reconfiguration,
        bench_worst_case,
        bench_symmetric,
        bench_figure11,
        bench_stamping,
        bench_seed_sweep,
        bench_seed_sweep_parallel,
        bench_heartbeat_fanout,
        bench_log_batching
}
criterion_main!(benches);
