//! Multi-seed batch execution: run one scenario across a whole range of
//! seeds and aggregate per-run statistics.
//!
//! The paper's claims are quantified over *all* schedules; a single seeded
//! run samples exactly one. [`run_seeds`] explores the schedule space by
//! replaying the same scenario under every seed in a range — each run is
//! independently deterministic (see `tests/determinism.rs`) — and returns
//! one [`RunStats`] per seed, which [`summarize_runs`] condenses into
//! percentile [`Summary`] statistics. Recording an event is O(1) (causal
//! stamps are rebuilt on demand by [`Trace::lamports`](crate::Trace::lamports)
//! and [`Trace::to_event_log`](crate::Trace::to_event_log), never stored),
//! which keeps this affordable at `n` up to 128 and dozens of seeds per
//! call.
//!
//! Because runs are independent, the sweep parallelizes perfectly:
//! [`run_seeds_parallel`] executes the same sweep on a scoped worker pool
//! ([`pool`]) and returns a vector **identical** to the
//! sequential runner's, in seed order, whatever the thread count — the
//! pool changes wall-clock time, never output.
//!
//! # Example
//!
//! ```
//! use gmp_sim::{run_seeds, summarize_runs, BatchConfig, Builder, Ctx, Message, Node};
//! use gmp_types::ProcessId;
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Message for Ping {
//!     fn tag(&self) -> &'static str { "ping" }
//! }
//!
//! /// p0 pings everyone once at start.
//! struct Hello { n: u32 }
//! impl Node<Ping> for Hello {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
//!         if ctx.id() == ProcessId(0) {
//!             ctx.broadcast((0..self.n).map(ProcessId), Ping);
//!         }
//!     }
//!     fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: ProcessId, _: Ping) {}
//!     fn on_timer(&mut self, _: &mut Ctx<'_, Ping>, _: u64) {}
//! }
//!
//! let n = 4u32;
//! let runs = run_seeds(0..32, BatchConfig::new(1_000), |seed| {
//!     let mut sim = Builder::new().seed(seed).build();
//!     for _ in 0..n {
//!         sim.add_node(Hello { n });
//!     }
//!     sim
//! });
//! assert_eq!(runs.len(), 32);
//! // Every schedule delivers the same broadcast: n - 1 pings.
//! let pings = summarize_runs(&runs, |r| r.stats.sends("ping"));
//! assert_eq!((pings.min, pings.max), (3, 3));
//! // Delivery *times* differ across seeds, so run lengths may too.
//! let events = summarize_runs(&runs, |r| r.events as u64);
//! assert!(events.p50 >= events.min);
//! ```

use crate::engine::Sim;
use crate::node::{Message, Node};
use crate::pool;
use crate::stats::{Stats, Summary};
use crate::Time;
use std::num::NonZeroUsize;
use std::ops::Range;

/// How far each run of a seed sweep executes. The thread count is
/// [`run_seeds_parallel`]'s own argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Simulated-time horizon passed to [`Sim::run_until`] for every seed.
    pub horizon: Time,
}

impl BatchConfig {
    /// A sweep whose runs all execute to the given horizon.
    pub fn new(horizon: Time) -> Self {
        BatchConfig { horizon }
    }
}

/// Outcome of one seeded run of a batch.
///
/// Two `RunStats` compare equal iff every recorded figure — seed, event
/// count, survivors, end time, and all per-tag message counters — matches;
/// the determinism tests compare whole sweep vectors this way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// The seed that produced this run.
    pub seed: u64,
    /// Events recorded in the trace.
    pub events: usize,
    /// Processes still up at the horizon.
    pub living: usize,
    /// Simulated time the run reached (= the configured horizon).
    pub end_time: Time,
    /// Message counters of the run.
    pub stats: Stats,
}

/// Executes one already-built run of a sweep to the horizon and collects
/// its statistics. Shared verbatim by the sequential and parallel runners,
/// so their per-run behavior cannot drift apart.
fn finish_run<M, N>(seed: u64, config: &BatchConfig, mut sim: Sim<M, N>) -> RunStats
where
    M: Message,
    N: Node<M>,
{
    sim.run_until(config.horizon);
    RunStats {
        seed,
        events: sim.trace().events.len(),
        living: sim.living().len(),
        end_time: sim.now(),
        stats: sim.stats().clone(),
    }
}

/// Runs `build(seed)` to the configured horizon for every seed in `seeds`,
/// in order, and collects one [`RunStats`] per run.
///
/// `build` constructs a fresh simulator for each seed — typically a
/// `Builder::new().seed(seed)` plus the scenario's nodes and fault
/// schedule. Each run is a pure function of its seed, so the returned
/// vector is deterministic end to end.
///
/// # Seed-range contract
///
/// An **empty** range (`a..a`) is a legal degenerate sweep and returns an
/// empty vector. A **reversed** range (`start > end`) is a caller bug, not
/// a sweep: debug builds reject it with a `debug_assert!`, release builds
/// fall through to `Range`'s iteration semantics and return an empty
/// vector. The same contract applies to [`run_seeds_parallel`].
pub fn run_seeds<M, N, F>(seeds: Range<u64>, config: BatchConfig, mut build: F) -> Vec<RunStats>
where
    M: Message,
    N: Node<M>,
    F: FnMut(u64) -> Sim<M, N>,
{
    debug_assert!(
        seeds.start <= seeds.end,
        "reversed seed range {}..{} (empty ranges are written a..a)",
        seeds.start,
        seeds.end
    );
    seeds
        .map(|seed| finish_run(seed, &config, build(seed)))
        .collect()
}

/// [`run_seeds`] on the scoped worker pool: the same sweep, the same
/// seed-ordered output, executed on `jobs` threads.
///
/// The returned vector is **identical** to the sequential runner's for any
/// thread count — runs are pure functions of their seeds, workers claim
/// seeds work-stealing style off an atomic cursor, and every result is
/// slotted by its index in the range (see [`pool::run_indexed`]). The
/// determinism suite and a property test pin `run_seeds_parallel(…) ==
/// run_seeds(…)` across ranges, horizons, and job counts.
///
/// `jobs` of `None` means [`pool::available_jobs`], every core the
/// platform reports. Unlike [`run_seeds`], `build` must be callable from
/// worker threads (`Fn + Sync`) and the simulator's message and node
/// types must be [`Send`] — see the crate docs' `Send` audit.
///
/// # Seed-range contract
///
/// Same as [`run_seeds`]: empty is legal, reversed is a debug-build panic.
pub fn run_seeds_parallel<M, N, F>(
    seeds: Range<u64>,
    config: BatchConfig,
    jobs: Option<NonZeroUsize>,
    build: F,
) -> Vec<RunStats>
where
    M: Message + Send,
    N: Node<M> + Send,
    F: Fn(u64) -> Sim<M, N> + Sync,
{
    debug_assert!(
        seeds.start <= seeds.end,
        "reversed seed range {}..{} (empty ranges are written a..a)",
        seeds.start,
        seeds.end
    );
    let jobs = jobs.unwrap_or_else(pool::available_jobs);
    let count = seeds.end.saturating_sub(seeds.start) as usize;
    pool::run_indexed(jobs, count, |i| {
        let seed = seeds.start + i as u64;
        finish_run(seed, &config, build(seed))
    })
}

/// Extracts `metric` from every run and summarizes it (min/max/mean and
/// nearest-rank percentiles).
pub fn summarize_runs<F>(runs: &[RunStats], mut metric: F) -> Summary
where
    F: FnMut(&RunStats) -> u64,
{
    let values: Vec<u64> = runs.iter().map(&mut metric).collect();
    Summary::of(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Ctx;
    use crate::Builder;
    use gmp_types::ProcessId;

    #[derive(Clone, Debug)]
    struct Tick;
    impl Message for Tick {
        fn tag(&self) -> &'static str {
            "tick"
        }
    }

    /// Everyone sends one message to the next process at start.
    struct Ring {
        n: u32,
    }
    impl Node<Tick> for Ring {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Tick>) {
            let next = ProcessId((ctx.id().0 + 1) % self.n);
            ctx.send(next, Tick);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Tick>, _: ProcessId, _: Tick) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, Tick>, _: u64) {}
    }

    fn ring(n: u32, seed: u64) -> Sim<Tick, Ring> {
        let mut sim = Builder::new().seed(seed).build();
        for _ in 0..n {
            sim.add_node(Ring { n });
        }
        sim
    }

    #[test]
    fn one_run_stats_per_seed_in_order() {
        let runs = run_seeds(5..13, BatchConfig::new(500), |s| ring(6, s));
        assert_eq!(runs.len(), 8);
        assert_eq!(
            runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
            (5..13).collect::<Vec<_>>()
        );
        for r in &runs {
            assert_eq!(r.stats.sends("tick"), 6);
            assert_eq!(r.living, 6);
            assert_eq!(r.end_time, 500);
        }
    }

    #[test]
    fn batch_is_deterministic() {
        let a = run_seeds(0..16, BatchConfig::new(500), |s| ring(4, s));
        let b = run_seeds(0..16, BatchConfig::new(500), |s| ring(4, s));
        assert_eq!(a, b);
    }

    #[test]
    fn summarize_extracts_the_chosen_metric() {
        let runs = run_seeds(0..32, BatchConfig::new(500), |s| ring(5, s));
        let sends = summarize_runs(&runs, |r| r.stats.sends_total());
        assert_eq!(sends.count, 32);
        assert_eq!(
            (sends.min, sends.max),
            (5, 5),
            "ring sends are schedule-independent"
        );
        let events = summarize_runs(&runs, |r| r.events as u64);
        // start + send + recv per process = 3n when everything delivers.
        assert_eq!((events.min, events.max), (15, 15));
    }

    #[test]
    fn empty_seed_range_is_empty() {
        let runs = run_seeds(3..3, BatchConfig::new(100), |s| ring(3, s));
        assert!(runs.is_empty());
        assert_eq!(summarize_runs(&runs, |r| r.events as u64).count, 0);
        let par = run_seeds_parallel(3..3, BatchConfig::new(100), None, |s| ring(3, s));
        assert!(par.is_empty());
    }

    #[test]
    fn single_seed_sweeps_work() {
        let seq = run_seeds(9..10, BatchConfig::new(500), |s| ring(4, s));
        let par = run_seeds_parallel(9..10, BatchConfig::new(500), None, |s| ring(4, s));
        assert_eq!(seq.len(), 1);
        assert_eq!(seq, par);
        assert_eq!(seq[0].seed, 9);
    }

    // A reversed range is precisely the caller bug the contract rejects,
    // so the lint against constructing one is suppressed here on purpose.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "reversed seed range")]
    #[allow(clippy::reversed_empty_ranges)]
    fn reversed_range_is_rejected_in_debug() {
        let _ = run_seeds(5..2, BatchConfig::new(100), |s| ring(3, s));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "reversed seed range")]
    #[allow(clippy::reversed_empty_ranges)]
    fn reversed_range_is_rejected_in_debug_parallel() {
        let _ = run_seeds_parallel(5..2, BatchConfig::new(100), None, |s| ring(3, s));
    }

    #[test]
    fn fault_schedules_apply_per_run() {
        let runs = run_seeds(0..8, BatchConfig::new(500), |s| {
            let mut sim = ring(4, s);
            sim.crash_at(ProcessId(3), 1);
            sim
        });
        for r in &runs {
            assert_eq!(r.living, 3, "seed {}: crash must apply", r.seed);
        }
    }

    #[test]
    fn parallel_matches_sequential_for_every_job_count() {
        let config = BatchConfig::new(600);
        let sequential = run_seeds(0..24, config, |s| ring(5, s));
        for jobs in [1usize, 2, 3, 4, 8, 32] {
            let parallel =
                run_seeds_parallel(0..24, config, NonZeroUsize::new(jobs), |s| ring(5, s));
            assert_eq!(parallel, sequential, "jobs={jobs}: output diverged");
        }
    }

    #[test]
    fn more_jobs_than_seeds_matches_sequential() {
        let config = BatchConfig::new(400);
        let sequential = run_seeds(0..3, config, |s| ring(4, s));
        let parallel = run_seeds_parallel(0..3, config, NonZeroUsize::new(16), |s| ring(4, s));
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn parallel_runs_apply_fault_schedules() {
        let runs = run_seeds_parallel(0..8, BatchConfig::new(500), NonZeroUsize::new(4), |s| {
            let mut sim = ring(4, s);
            sim.crash_at(ProcessId(3), 1);
            sim
        });
        for r in &runs {
            assert_eq!(r.living, 3, "seed {}: crash must apply", r.seed);
        }
    }

    /// The engine-level `Send` audit, checked at compile time: a simulator
    /// whose message and node types are `Send` is itself `Send`, which is
    /// what lets whole runs execute on pool worker threads. (All engine
    /// internals — `SmallRng`, the event queue, `Arc`-backed `Shared`
    /// payloads — are `Send + Sync`-safe by construction; nothing
    /// in the stack uses `Rc` or interior mutability.)
    #[test]
    fn sim_is_send_when_message_and_node_are() {
        fn assert_send<T: Send>(_: &T) {}
        let sim = ring(3, 0);
        assert_send(&sim);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Explicit case budget; failures replay via the per-case seeds
            // recorded in proptest-regressions/.
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            /// The tentpole's determinism pin as a property: for arbitrary
            /// seed ranges, horizons, group sizes and job counts, the
            /// parallel sweep returns the *same `RunStats` vector* as the
            /// sequential one — thread scheduling is invisible in the
            /// output.
            #[test]
            fn parallel_equals_sequential(
                start in 0u64..1_000,
                len in 0u64..24,
                horizon in 1u64..800,
                jobs in 1usize..=8,
                n in 2u32..6,
            ) {
                let seeds = start..start + len;
                let config = BatchConfig::new(horizon);
                let sequential = run_seeds(seeds.clone(), config, |s| ring(n, s));
                let parallel =
                    run_seeds_parallel(seeds, config, NonZeroUsize::new(jobs), |s| ring(n, s));
                prop_assert_eq!(parallel, sequential);
            }
        }
    }
}
