//! Repetitions: `k` seeds back to back, each `Sim` dropped before the
//! next is built, so memory is bounded by one run while the timed phases
//! add up to seconds.

use crate::clock::{Elapsed, Stopwatch};
use crate::metrics::Pooled;
use crate::workload::{Cluster, Counters, Host, Phases, SeedOutcome, Workload};
use std::time::Instant;

/// Hooks for the traced pass; the end-to-end pass uses `()`.
pub trait Observer<H: Host> {
    /// The cluster at the setup/measured boundary.
    fn at_warm(&mut self, _cluster: &Cluster<H>) {}

    /// The finished cluster of one seed, before it is verified and dropped.
    fn at_end(&mut self, _seed: &SeedRun, _cluster: &Cluster<H>, _at_warm: &Counters) {}
}

impl<H: Host> Observer<H> for () {}

/// Host time and simulated outcome of one seed.
#[derive(Clone, Debug)]
pub struct SeedRun {
    /// The seed.
    pub seed: u64,
    /// Host time of build, warm-up and the measured phase.
    pub phases: Phases,
    /// Host time of the correctness gate, when it ran.
    pub verify: Option<Elapsed>,
    /// What the simulation did (its latency samples move into the
    /// repetition's [`Pooled`] once the observer has seen them).
    pub outcome: SeedOutcome,
}

/// One repetition of a workload.
#[derive(Clone, Debug)]
pub struct Repetition {
    /// When it began.
    pub started: Instant,
    /// Wall seconds from `started` to the last seed's end.
    pub wall: f64,
    /// Per seed, in seed order.
    pub seeds: Vec<SeedRun>,
    /// The seeds' simulated outcomes, pooled.
    pub pooled: Pooled,
}

impl Repetition {
    /// CPU seconds of the measured phases, summed.
    pub fn cpu(&self) -> f64 {
        self.seeds.iter().map(|s| s.phases.measure.cpu).sum()
    }

    /// Wall seconds of the repetition without its correctness gate: what
    /// counts against the `--seconds` budget.
    pub fn unverified_wall(&self) -> f64 {
        let verify: f64 = self
            .seeds
            .iter()
            .filter_map(|s| s.verify)
            .map(|v| v.wall)
            .sum();
        self.wall - verify
    }

    /// Wall seconds of the measured phases, summed.
    pub fn measure_wall(&self) -> f64 {
        self.seeds.iter().map(|s| s.phases.measure.wall).sum()
    }
}

/// Runs seeds `base..base + k` of `w` back to back, each through build →
/// warm-up → measured phase, timing each. With `verify`, every seed passes
/// the correctness gate (untimed) before it is dropped; the first
/// violation aborts the repetition.
pub fn repetition<H: Host>(
    w: &Workload,
    base: u64,
    k: u64,
    verify: bool,
    observer: &mut impl Observer<H>,
) -> Result<Repetition, String> {
    let end = base
        .checked_add(k)
        .ok_or_else(|| format!("--seed {base} leaves no room for {k} seeds"))?;
    let started = Instant::now();
    let mut seeds = Vec::with_capacity(k as usize);
    let mut pooled = Pooled::default();
    for seed in base..end {
        let sw = Stopwatch::start();
        let mut cluster = Cluster::<H>::build(w, seed);
        let build = sw.elapsed();
        let sw = Stopwatch::start();
        cluster.run_until(w.warm);
        let warm = sw.elapsed();
        let at_warm = cluster.counters();
        observer.at_warm(&cluster);
        let sw = Stopwatch::start();
        cluster.run_until(w.horizon);
        let measure = sw.elapsed();
        let mut run = SeedRun {
            seed,
            phases: Phases {
                build,
                warm,
                measure,
            },
            verify: None,
            outcome: cluster.outcome(w, &at_warm),
        };
        observer.at_end(&run, &cluster, &at_warm);
        if verify {
            let sw = Stopwatch::start();
            cluster
                .verify(w)
                .map_err(|e| format!("{} seed {seed}: {e}", w.name))?;
            run.verify = Some(sw.elapsed());
        }
        drop(cluster);
        pooled.push(&mut run.outcome);
        seeds.push(run);
    }
    pooled.finish();
    Ok(Repetition {
        started,
        wall: started.elapsed().as_secs_f64(),
        seeds,
        pooled,
    })
}

/// Decides after each repetition whether to run another: a fixed count,
/// or as many as fit the budget of timed seconds (at least [`MIN_REPS`]).
pub struct Schedule {
    fixed: Option<usize>,
    seconds: f64,
    spent: f64,
    done: usize,
}

/// Fewest repetitions a budgeted run makes: a median needs three.
pub const MIN_REPS: usize = 3;

impl Schedule {
    /// `fixed` repetitions, or a budget of `seconds`.
    pub fn new(fixed: Option<usize>, seconds: f64) -> Self {
        Schedule {
            fixed,
            seconds,
            spent: 0.0,
            done: 0,
        }
    }

    /// Records a finished repetition that took `last_wall` seconds (the
    /// untimed correctness gate not counted); true if another should run.
    /// Under a budget the run stops at the repetition boundary nearest to
    /// it.
    pub fn another(&mut self, last_wall: f64) -> bool {
        self.done += 1;
        self.spent += last_wall;
        match self.fixed {
            Some(n) => self.done < n,
            None => self.done < MIN_REPS || self.spent + last_wall / 2.0 < self.seconds,
        }
    }
}
