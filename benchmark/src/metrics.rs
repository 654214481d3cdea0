//! Metric definitions (the single source `BENCHMARK.json` is generated
//! from) and the arithmetic that turns per-seed outcomes into them.

use crate::workload::SeedOutcome;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when it improved).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, every one defined on every workload. A bound
/// is about three times the widest spread between seed bases measured on
/// any workload (README, "Spread"), and `setup_s` carries the largest.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.2),
    e2e("ops_per_cpu_s", "ops/s", Higher, 0.2),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("ops_per_ktick", "ops/ktick", Higher, 0.02),
    e2e("latency_ticks_p50", "ticks", Lower, 0.03),
    e2e("latency_ticks_tail", "ticks", Lower, 0.03),
    e2e("stall_ticks_max", "ticks", Lower, 0.06),
    e2e("msgs_per_op", "msgs/op", Lower, 0.06),
    e2e("events_per_op", "events/op", Lower, 0.05),
];

/// The per-layer metrics of the traced pass, grouped by crate. A metric
/// that does not apply to a workload (the log's on a membership workload)
/// reads 0 there.
pub const PER_LAYER: [MetricDef; 48] = [
    // gmp-sim
    layer("sim.events", "count", Lower),
    layer("sim.sends", "count", Lower),
    layer("sim.dead_letter_ratio", "ratio", Lower),
    layer("sim.build_s", "s", Lower),
    layer("sim.warmup_s", "s", Lower),
    layer("sim.self_cpu_s", "s", Lower),
    layer("sim.self_ns_per_event", "ns/event", Lower),
    layer("sim.self_share", "ratio", Lower),
    layer("sim.events_per_cpu_s", "events/s", Higher),
    layer("sim.alloc_bytes_per_event", "B/event", Lower),
    layer("sim.allocs_per_event", "allocs/event", Lower),
    layer("sim.rss_bytes_per_event", "B/event", Lower),
    layer("sim.sharded2_wall_ratio", "ratio", Lower),
    // gmp-core
    layer("core.calls", "count", Lower),
    layer("core.busy_s", "s", Lower),
    layer("core.share", "ratio", Lower),
    layer("core.heartbeat_ns_per_call", "ns/call", Lower),
    layer("core.protocol_ns_per_call", "ns/call", Lower),
    layer("core.timer_ns_per_call", "ns/call", Lower),
    layer("core.alloc_bytes_per_call", "B/call", Lower),
    layer("core.view_changes", "count", Lower),
    layer("core.reconfigurations", "count", Lower),
    layer("core.live_exclusions", "ratio", Lower),
    layer("core.protocol_msgs_per_change", "msgs/change", Lower),
    layer("core.monitor_msgs_per_ktick", "msgs/ktick", Lower),
    layer("core.detect_ticks", "ticks", Lower),
    layer("core.agree_ticks", "ticks", Lower),
    // gmp-log
    layer("log.replica_calls", "count", Lower),
    layer("log.replica_busy_s", "s", Lower),
    layer("log.share", "ratio", Lower),
    layer("log.replica_ns_per_call", "ns/call", Lower),
    layer("log.client_ns_per_call", "ns/call", Lower),
    layer("log.alloc_bytes_per_op", "B/op", Lower),
    layer("log.msgs_per_op", "msgs/op", Lower),
    layer("log.batch_fill", "cmds/batch", Higher),
    layer("log.retries_per_op", "ratio", Lower),
    layer("log.redirects", "count", Lower),
    layer("log.recovery_ticks", "ticks", Lower),
    layer("log.sync_entries", "count", Lower),
    layer("log.hot_slots_max", "count", Lower),
    layer("log.step_ns_per_cmd", "ns/cmd", Lower),
    // gmp-causality, gmp-detect, gmp-props: micro-drivers
    layer("causality.send_recv_ns", "ns", Lower),
    layer("detect.heard_from_ns", "ns", Lower),
    layer("detect.tick_ns", "ns", Lower),
    layer("props.check_safety_s", "s", Lower),
    layer("props.event_log_s", "s", Lower),
    // the harness itself
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.wall_over_cpu", "ratio", Lower),
];

/// The simulated outcome of the seeds of one repetition, pooled. Equal
/// for equal `(workload, seed base, k)` whatever the host does: the
/// determinism guard compares these.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pooled {
    /// Seeds pooled.
    pub seeds: u64,
    /// Trace events of the measured phases.
    pub events: u64,
    /// Messages sent in the measured phases.
    pub sends: u64,
    /// Simulated ticks of the measured phases.
    pub ticks: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Operations completed in the measured phases.
    pub ops: u64,
    /// Sum over seeds of the per-seed longest stall.
    pub stall_sum: u64,
    /// All latency samples, ascending once [`finish`](Self::finish)ed.
    pub latencies: Vec<u64>,
}

impl Pooled {
    /// Adds one seed, taking its latency samples (the harness keeps one
    /// copy of them, not two: its own footprint shows in `peak_rss_mib`).
    pub fn push(&mut self, seed: &mut SeedOutcome) {
        self.seeds += 1;
        self.events += seed.events;
        self.sends += seed.sends;
        self.ticks += seed.ticks;
        self.attempted += seed.attempted;
        self.failed += seed.failed;
        self.ops += seed.ops;
        self.stall_sum += seed.stall;
        self.latencies.append(&mut seed.latencies);
        seed.latencies.shrink_to_fit();
    }

    /// Sorts the samples; call once after the last [`push`](Self::push).
    pub fn finish(&mut self) {
        self.latencies.sort_unstable();
    }

    /// Nearest-rank percentile of the latency samples: the smallest
    /// sample with at least the share `p` of all samples at or below it.
    pub fn latency(&self, p: f64) -> u64 {
        let n = self.latencies.len();
        let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
        self.latencies[rank - 1]
    }

    /// The highest percentile of `p90, p99, p99.9, …` that still has ten
    /// samples beyond it (`p50` if not even p90 does): its label and value.
    pub fn latency_tail(&self) -> (String, u64) {
        let n = self.latencies.len();
        let mut best = ("p50".to_string(), self.latency(0.5));
        for nines in 1..=6 {
            let p = 1.0 - 0.1f64.powi(nines);
            let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
            if n - rank < 10 {
                break;
            }
            let label = match nines {
                1 => "p90".to_string(),
                2 => "p99".to_string(),
                k => format!("p99.{}", "9".repeat(k as usize - 2)),
            };
            best = (label, self.latencies[rank - 1]);
        }
        best
    }

    /// The six simulated end-to-end metrics, by name.
    pub fn simulated(&self) -> [(&'static str, f64); 6] {
        let ops = self.ops as f64;
        [
            ("ops_per_ktick", ops * 1000.0 / self.ticks as f64),
            ("latency_ticks_p50", self.latency(0.5) as f64),
            ("latency_ticks_tail", self.latency_tail().1 as f64),
            ("stall_ticks_max", self.stall_sum as f64 / self.seeds as f64),
            ("msgs_per_op", self.sends as f64 / ops),
            ("events_per_op", self.events as f64 / ops),
        ]
    }
}

/// Pairs every metric of `table` with its computed value, in table order.
/// Fails on a metric the table has and `computed` lacks, or the reverse, so
/// the tables `BENCHMARK.json` is generated from and the code that fills
/// them cannot drift apart silently.
pub fn in_table_order(
    table: &[MetricDef],
    computed: &[(&str, f64)],
) -> Result<Vec<(MetricDef, f64)>, String> {
    if let Some((name, _)) = computed
        .iter()
        .find(|(name, _)| !table.iter().any(|def| def.name == *name))
    {
        return Err(format!("metric {name} was computed but is in no table"));
    }
    table
        .iter()
        .map(|def| {
            computed
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|&(_, value)| (*def, value))
                .ok_or_else(|| format!("metric {} was not computed", def.name))
        })
        .collect()
}

/// Sum over positions of the minimum over repetitions: `per_rep[r][i]` is
/// the time repetition `r` took for the same piece of work `i`.
/// Disturbance only ever adds time, so the least of several timings of
/// the same work is the one closest to undisturbed.
pub fn sum_of_minima(per_rep: &[Vec<f64>]) -> f64 {
    (0..per_rep[0].len())
        .map(|i| {
            per_rep
                .iter()
                .map(|rep| rep[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `[min, q1, median, q3, max]` of `values`, quartiles by linear
/// interpolation between order statistics.
pub fn five_numbers(values: &[f64]) -> [f64; 5] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled(latencies: Vec<u64>) -> Pooled {
        let mut p = Pooled {
            latencies,
            ..Pooled::default()
        };
        p.finish();
        p
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2032 samples: p99 leaves 20 beyond, p99.9 would leave 2.
        let p = pooled((1..=2032).collect());
        assert_eq!(p.latency_tail(), ("p99".to_string(), 2012));
        // 50 samples: not even p90 has ten beyond it.
        assert_eq!(pooled((1..=50).collect()).latency_tail().0, "p50");
        let p = pooled((1..=200_000).collect());
        assert_eq!(p.latency_tail(), ("p99.99".to_string(), 199_980));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let p = pooled(vec![5, 1, 4, 2, 3]);
        assert_eq!((p.latency(0.5), p.latency(1.0), p.latency(0.01)), (3, 5, 1));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(sum_of_minima(&[vec![3.0, 1.0], vec![2.0, 5.0]]), 3.0);
        let table = &END_TO_END[..2];
        let ordered = in_table_order(table, &[("cpu_s", 2.0), ("setup_s", 1.0)]).unwrap();
        assert_eq!((ordered[0].1, ordered[1].1), (1.0, 2.0));
        assert!(in_table_order(table, &[("cpu_s", 2.0)]).is_err());
        assert!(in_table_order(table, &[("cpu_s", 2.0), ("setup_s", 1.0), ("x", 0.0)]).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            five_numbers(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            [1.0, 2.0, 3.0, 4.0, 5.0]
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.bound <= 0.25);
        }
    }
}
