//! Baseline membership protocols the paper compares against or proves
//! insufficient (§7.2, §7.3, §8).
//!
//! | baseline | paper artifact | what it shows |
//! |----------|----------------|---------------|
//! | [`one_phase`] | Claim 7.1 | one-phase updates violate GMP-3 when the coordinator can fail |
//! | two-phase reconfiguration (`gmp_core::ConfigBuilder::three_phase_reconfig`) | Claim 7.2 / Fig. 11 | without a proposal phase, invisible commits are undetectable |
//! | [`symmetric`] | Bruso \[5\] comparison | symmetric protocols cost an order of magnitude more messages |
//!
//! Both baseline members are sans-IO like `gmp_core::Member`: `start`,
//! `receive` and `fire` emit through a `gmp_sim::Out` sink, and their
//! `Node` impls only forward. They share one failure-detection shell (view,
//! version, heartbeat detector, S1 filter, heartbeat tick) and differ only
//! in how they agree on a removal.
//!
//! The [`scenarios`] module builds the deterministic adversarial schedules
//! from the proofs; the uncompressed two-phase update baseline for §7.2 is
//! `gmp_core::Config::without_compression`.

pub mod one_phase;
pub mod scenarios;
mod shell;
pub mod symmetric;

pub use one_phase::{OneMsg, OnePhaseMember};
pub use scenarios::{claim_7_1_run, figure_11_run, Fig11Cast, FIG11_CAST};
pub use symmetric::{SymMsg, SymmetricMember};
