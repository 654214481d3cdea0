//! What a run prints: host metadata, one `metric` line per number, and
//! the driver's result object as the last line of stdout. Also the
//! generator of `BENCHMARK.json`.

use crate::cli::RUN_SECONDS;
use crate::metrics::{MetricDef, Pooled, END_TO_END, PER_LAYER};
use crate::workload::workloads;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// The directory the package lives in (where it was built).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Writes `content` to `out/<name>` inside the package directory.
pub fn write_out(name: &str, content: &str) -> Result<PathBuf, String> {
    let dir = package_dir().join("out");
    let path = dir.join(name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, content))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// First line of a command's stdout, or `"unknown"` when it cannot run
/// (no `git` checkout in the driver's copy, say).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and build a number was measured on, as one `host:` line.
pub fn host_line() -> String {
    let mem_total = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("MemTotal:").map(|r| r.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} MemTotal={mem_total:?} rustc={:?} commit={}",
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// Formats a finite number with all its digits.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value}")
}

fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One human- and machine-readable line per metric:
/// `metric <workload> <name> <value> <unit>[ <note>]`.
pub fn metric_line(workload: &str, def: &MetricDef, value: f64, note: &str) -> String {
    let mut line = format!(
        "metric {workload} {} {} {}",
        def.name,
        number(value),
        def.unit
    );
    if !note.is_empty() {
        line.push(' ');
        line.push_str(note);
    }
    line
}

/// The determinism guard's fingerprint: equal for every run — bare or
/// traced, any repetition, any invocation — of one `(workload, seed base,
/// k)`, and nothing else.
pub fn fingerprint_line(workload: &str, pooled: &Pooled) -> String {
    format!(
        "simulated {workload} events={} sends={} {:?}",
        pooled.events,
        pooled.sends,
        pooled.simulated()
    )
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(MetricDef, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(def.name),
                number(*value),
                quoted(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `BENCHMARK.json`, generated from the workload and metric tables so the
/// file and the code cannot disagree (`tests/manifest.rs` compares them).
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("write to string");
    let rows = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        writeln!(out, "  {}: [", quoted(key)).expect("write to string");
        out.push_str(&rows.join(",\n"));
        out.push_str(if last { "\n  ]\n" } else { "\n  ],\n" });
    };
    let workload_rows = workloads()
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    rows(&mut out, "workloads", workload_rows, false);
    let e2e_rows = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.word()),
                number(m.bound)
            )
        })
        .collect();
    rows(&mut out, "end_to_end", e2e_rows, false);
    let layer_rows = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.word())
            )
        })
        .collect();
    rows(&mut out, "per_layer", layer_rows, true);
    out.push_str("}\n");
    out
}
