//! The repo's benchmark: five long-running workloads over the `gmp`
//! workspace, end-to-end metrics in process CPU time and simulated ticks,
//! and a per-layer ledger taken from outside the measured crates.
//!
//! Two binaries share this library: `bench` (the timed end-to-end pass,
//! tracing off) and `bench_trace` (the traced pass). `README.md` defines
//! every workload and metric; `BENCHMARK.json` at the repo root is
//! generated from the tables here (`bench --manifest`).

pub mod calib;
pub mod cli;
pub mod clock;
pub mod metrics;
pub mod micro;
pub mod report;
pub mod run;
pub mod timed;
pub mod workload;
