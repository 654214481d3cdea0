//! The end-to-end pass: tracing off, bare nodes, the untouched system
//! allocator. `bench <workload>` measures one workload in this process
//! (so `VmHWM` is that workload's own); `bench` alone runs all five, one
//! child process each; `bench --check` does that twice and compares the
//! two sets within the metrics' bounds.

use gmp_benchmark::calib::{kernel, kernel_in_child, KERNEL_REF_S, SLOTS};
use gmp_benchmark::cli::{self, Args};
use gmp_benchmark::clock::peak_rss_bytes;
use gmp_benchmark::metrics::{five_numbers, in_table_order, sum_of_minima, Pooled, END_TO_END};
use gmp_benchmark::report::{fingerprint_line, host_line, manifest, metric_line, result_line};
use gmp_benchmark::run::{repetition, Observer, Schedule, SeedRun};
use gmp_benchmark::workload::{find, workloads, Cluster, Counters, Plain};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let outcome = cli::parse(std::env::args().skip(1)).and_then(|args| {
        if args.manifest {
            print!("{}", manifest());
            Ok(())
        } else if args.calibrate {
            println!("{}", kernel());
            Ok(())
        } else if args.trace == Some(true) {
            Err("bench measures with tracing off; --trace 1 is bench_trace's (benchmark/run.sh picks)".into())
        } else if let Some(name) = &args.workload {
            one(name, &args)
        } else {
            all(&args)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the calibration kernel after every `stride`-th seed.
struct Calibrator {
    exe: PathBuf,
    base: u64,
    stride: u64,
    /// Kernel CPU seconds of this repetition's slots.
    slots: Vec<f64>,
    error: Option<String>,
}

impl Observer<Plain> for Calibrator {
    fn at_end(&mut self, seed: &SeedRun, _cluster: &Cluster<Plain>, _at_warm: &Counters) {
        if (seed.seed - self.base).is_multiple_of(self.stride) {
            match kernel_in_child(&self.exe) {
                Ok(seconds) => self.slots.push(seconds),
                Err(e) => self.error = Some(e),
            }
        }
    }
}

/// Measures one workload in this process and prints its ten metrics.
fn one(name: &str, args: &Args) -> Result<(), String> {
    let w = find(name).ok_or_else(|| format!("unknown workload {name:?}\n{}", cli::USAGE))?;
    let k = if args.smoke { 1 } else { w.k };
    let mut calibrator = Calibrator {
        exe: std::env::current_exe().map_err(|e| format!("cannot locate bench: {e}"))?,
        base: args.seed,
        stride: k.div_ceil(SLOTS),
        slots: Vec::new(),
        error: None,
    };
    let mut schedule = Schedule::new(args.reps.or(args.smoke.then_some(1)), args.seconds);
    // Host time per repetition, per seed (setup, cpu) or per slot (kernel).
    let (mut setup, mut cpu, mut kernel) = (Vec::new(), Vec::new(), Vec::new());
    let mut wall_over_cpu = Vec::new();
    let mut first: Option<Pooled> = None;
    loop {
        // Every repetition replays the same seeds: the first one passes
        // the correctness gate, the others must match it number for number.
        let rep = repetition::<Plain>(&w, args.seed, k, first.is_none(), &mut calibrator)?;
        if let Some(e) = calibrator.error.take() {
            return Err(e);
        }
        setup.push(
            rep.seeds
                .iter()
                .map(|s| s.phases.setup_cpu())
                .collect::<Vec<_>>(),
        );
        cpu.push(
            rep.seeds
                .iter()
                .map(|s| s.phases.measure.cpu)
                .collect::<Vec<_>>(),
        );
        kernel.push(std::mem::take(&mut calibrator.slots));
        wall_over_cpu.push(rep.measure_wall() / rep.cpu());
        let more = schedule.another(rep.unverified_wall());
        match &first {
            None => first = Some(rep.pooled),
            Some(first) if *first != rep.pooled => {
                return Err(format!(
                    "{name}: repetition {} diverged from repetition 1 on the same seeds",
                    cpu.len()
                ))
            }
            Some(_) => {}
        }
        if !more {
            break;
        }
    }
    let pooled = first.expect("at least one repetition ran");
    if pooled.ops == 0 {
        return Err(format!("{name}: no operation completed"));
    }

    // Reference-host seconds per host second, from the calibration slots.
    let host_speed = KERNEL_REF_S * kernel[0].len() as f64 / sum_of_minima(&kernel);
    let cpu_s = sum_of_minima(&cpu) * host_speed;
    let host = [
        ("setup_s", sum_of_minima(&setup) * host_speed),
        ("cpu_s", cpu_s),
        ("ops_per_cpu_s", pooled.ops as f64 / cpu_s),
        ("peak_rss_mib", peak_rss_bytes() as f64 / (1 << 20) as f64),
    ];
    let computed: Vec<(&str, f64)> = host.into_iter().chain(pooled.simulated()).collect();
    let values = in_table_order(&END_TO_END, &computed)?;

    println!("{}", host_line());
    println!(
        "run: workload={name} seed_base={} k={k} reps={} ops={} latency_samples={}",
        args.seed,
        cpu.len(),
        pooled.ops,
        pooled.latencies.len()
    );
    println!("{}", fingerprint_line(name, &pooled));
    for (def, value) in &values {
        let note = match def.name {
            "latency_ticks_tail" => format!("({})", pooled.latency_tail().0),
            _ => String::new(),
        };
        println!("{}", metric_line(name, def, *value, &note));
    }
    // What the normalized numbers were made from, so a disturbed host is
    // visible rather than silently corrected: raw per-repetition sums, the
    // speed factor, and wall over CPU (above ~1.25 the process was
    // descheduled during a measured phase).
    let raw = |per_rep: &[Vec<f64>]| {
        let sums: Vec<f64> = per_rep.iter().map(|rep| rep.iter().sum()).collect();
        format!("reps[min q1 med q3 max]={:?}", five_numbers(&sums))
    };
    println!("info {name} raw_setup_s {}", raw(&setup));
    println!("info {name} raw_cpu_s {}", raw(&cpu));
    println!("info {name} raw_kernel_s {}", raw(&kernel));
    println!("info {name} bench.host_speed {host_speed}");
    println!(
        "info {name} bench.wall_over_cpu reps[min q1 med q3 max]={:?}",
        five_numbers(&wall_over_cpu)
    );
    println!("{}", result_line(pooled.attempted, pooled.failed, &values));
    Ok(())
}

/// `(workload, metric) → value` of one pass over all workloads.
type Pass = BTreeMap<(String, String), f64>;

/// Runs `exe` on every workload, one child process each, echoing their
/// reports and collecting their `metric` lines.
fn pass(exe: &std::path::Path, args: &Args) -> Result<Pass, String> {
    let mut values = Pass::new();
    for w in workloads() {
        let mut cmd = Command::new(exe);
        cmd.arg(w.name)
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(reps) = args.reps {
            cmd.args(["--reps", &reps.to_string()]);
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        if !out.status.success() {
            return Err(format!(
                "{} {} failed: {}",
                exe.display(),
                w.name,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in text.lines() {
            let mut words = line.split(' ');
            if let (Some("metric"), Some(w), Some(name), Some(value)) =
                (words.next(), words.next(), words.next(), words.next())
            {
                let value = value
                    .parse()
                    .map_err(|_| format!("unreadable metric line {line:?}"))?;
                values.insert((w.to_string(), name.to_string()), value);
            }
        }
    }
    Ok(values)
}

/// All five workloads; with `--smoke` the traced pass too; with `--check`
/// everything twice, failing unless the second set is within bounds.
fn all(args: &Args) -> Result<(), String> {
    let bench = std::env::current_exe().map_err(|e| format!("cannot locate bench: {e}"))?;
    let first = pass(&bench, args)?;
    if args.smoke {
        pass(&bench.with_file_name("bench_trace"), args)?;
    }
    if !args.check {
        return Ok(());
    }
    let second = pass(&bench, args)?;
    let mut regressions = 0;
    println!("check: second set against the first (worse by at most the bound)");
    for w in workloads() {
        for def in &END_TO_END {
            let key = (w.name.to_string(), def.name.to_string());
            let (Some(&a), Some(&b)) = (first.get(&key), second.get(&key)) else {
                return Err(format!("{} {} missing from a set", w.name, def.name));
            };
            let worse = def.better.worsening(a, b);
            let ok = worse <= def.bound;
            regressions += usize::from(!ok);
            println!(
                "check {} {} {a} -> {b} {} ({:+.2}% worse, bound {:.0}%) {}",
                w.name,
                def.name,
                def.unit,
                worse * 100.0,
                def.bound * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    if regressions > 0 {
        return Err(format!(
            "{regressions} metric(s) moved by more than their bound between identical sets"
        ));
    }
    Ok(())
}
