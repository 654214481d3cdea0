//! Paper-reproduction harness regenerating every analytic table and figure
//! of the paper (see `EXPERIMENTS.md` for the full index).
//!
//! * The [`experiments`] module builds each experiment's workload and
//!   returns structured rows (measured vs. formula);
//! * `src/bin/tables.rs` prints them (`cargo run -p gmp-bench --bin tables`).
//!
//! Every table is simulated: the paper prices its protocols in messages,
//! so nothing here reads a clock, and `tables`' output is a pure function
//! of the code. Wall-clock measurement lives in the separate `benchmark/`
//! package.
//!
//! Experiments come in two shapes: single-run workloads pinned to one seed
//! (E1–E7, the tables and figures), and the *seed sweep* (E8), which runs
//! the scenario once per seed of a whole range and reports percentile
//! statistics ([`gmp_sim::Summary`]): schedule-space exploration in one
//! call.
//!
//! # Example
//!
//! ```
//! use gmp_bench::{e1_exclusion, e8_seed_sweep};
//!
//! // One run: excluding a crashed member costs exactly 3n − 5 messages.
//! let row = &e1_exclusion(&[5], 42)[0];
//! assert_eq!(row.measured, row.formula);
//! assert_eq!(row.formula, 10);
//!
//! // Many runs: the same bound holds across every sampled schedule.
//! let sweep = &e8_seed_sweep(&[5], 0..8)[0];
//! assert_eq!(sweep.protocol.min, sweep.formula);
//! assert_eq!(sweep.protocol.p99, sweep.formula);
//! ```

pub mod experiments;

pub use experiments::*;
