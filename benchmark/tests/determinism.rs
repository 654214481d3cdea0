//! The determinism guard, run through the real binaries: for one seed
//! base the simulated numbers must be identical across repetitions (the
//! binaries enforce that themselves and exit non-zero otherwise), across
//! invocations, and between `bench` and `bench_trace` — which is also the
//! test that `Timed<N>`, the counting allocator and the hand-mirrored
//! `Traced` cluster construction are protocol-invisible.

use std::process::Command;

/// Runs a binary and returns its stdout; panics unless it exits 0.
fn run(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The simulated end-to-end metrics of a report, as printed.
fn simulated(report: &str) -> Vec<String> {
    const NAMES: [&str; 6] = [
        "ops_per_ktick",
        "latency_ticks_p50",
        "latency_ticks_tail",
        "stall_ticks_max",
        "msgs_per_op",
        "events_per_op",
    ];
    let lines: Vec<String> = report
        .lines()
        .filter(|l| l.starts_with("metric "))
        .filter(|l| NAMES.iter().any(|n| l.split(' ').nth(2) == Some(n)))
        .map(|l| l.split(' ').take(4).collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(
        lines.len(),
        NAMES.len(),
        "report lacks simulated metrics:\n{report}"
    );
    lines
}

/// The `simulated …` fingerprint line both binaries print.
fn fingerprint(report: &str) -> &str {
    report
        .lines()
        .find(|l| l.starts_with("simulated "))
        .unwrap_or_else(|| panic!("no fingerprint line in:\n{report}"))
}

const WORKLOADS: [&str; 5] = [
    "flat128",
    "sparse1024",
    "churn16",
    "log_steady",
    "log_failover",
];

#[test]
fn repetitions_invocations_and_tracing_agree() {
    let (bench, bench_trace) = (
        env!("CARGO_BIN_EXE_bench"),
        env!("CARGO_BIN_EXE_bench_trace"),
    );
    for w in WORKLOADS {
        // Two repetitions inside one process (compared by the binary),
        // then a second process, then the traced binary.
        let a = run(bench, &[w, "--smoke", "--reps", "2", "--seed", "5"]);
        let b = run(
            bench,
            &["--workload", w, "--smoke", "--seed", "5", "--trace", "0"],
        );
        let t = run(bench_trace, &[w, "--smoke", "--seed", "5", "--trace", "1"]);
        assert_eq!(simulated(&a), simulated(&b), "{w}: two invocations differ");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&t),
            "{w}: tracing changed the run"
        );
        // Another seed base is another run.
        let c = run(bench, &[w, "--smoke", "--seed", "6"]);
        assert_ne!(fingerprint(&a), fingerprint(&c), "{w}: the seed is ignored");
    }
}

#[test]
fn the_last_line_is_the_result_object() {
    let bench = env!("CARGO_BIN_EXE_bench");
    let report = run(bench, &["churn16", "--smoke"]);
    let last = report.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": 24, \"failed\": 0, \"metrics\": {")
    );
    for name in ["setup_s", "cpu_s", "peak_rss_mib", "events_per_op"] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
    }
}

#[test]
fn wrong_pass_and_unknown_workload_are_refused() {
    let (bench, bench_trace) = (
        env!("CARGO_BIN_EXE_bench"),
        env!("CARGO_BIN_EXE_bench_trace"),
    );
    for (exe, args) in [
        (bench, &["churn16", "--trace", "1"][..]),
        (bench_trace, &["churn16", "--trace", "0"][..]),
        (bench, &["no_such_workload"][..]),
    ] {
        let out = Command::new(exe).args(args).output().expect("spawn");
        assert!(!out.status.success(), "{exe} {args:?} should fail");
        assert!(out.stdout.is_empty(), "a refused run prints no result");
    }
}
