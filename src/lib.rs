//! # gmp — process groups as a failure-detection service
//!
//! A full reproduction of Ricciardi & Birman, *"Using Process Groups to
//! Implement Failure Detection in Asynchronous Environments"* (Cornell
//! TR 91-1188 / PODC 1991), as a Rust workspace. This facade crate
//! re-exports every subsystem:
//!
//! * [`types`] — process ids, membership operations, seniority-ranked views;
//! * [`sim`] — deterministic discrete-event simulator of the asynchronous
//!   system model (§2.1);
//! * [`link`] — reliable FIFO links built from scratch (alternating-bit,
//!   go-back-N), per §3's channel requirements;
//! * [`causality`] — vector clocks and happens-before over a recorded run
//!   (§2.1);
//! * [`detect`] — failure-detection substrate: observation (F1), isolation
//!   (S1);
//! * [`protocol`] — the paper's contribution: `Mgr`-coordinated two-phase
//!   updates with condensed rounds, three-phase reconfiguration, joins;
//! * [`props`] — the GMP-0…GMP-5 specification as machine-checkable
//!   properties over recorded runs, plus the epistemic analysis of the
//!   appendix;
//! * [`baselines`] — the protocols the paper proves insufficient or
//!   expensive (one-phase, two-phase reconfiguration, symmetric);
//! * [`log`] — a multipaxos-style replicated log riding on the membership
//!   service: the `Mgr` leads, view versions are ballots, view installs
//!   are reconfigurations.
//!
//! Most programs only need the [`prelude`].
//!
//! # Example
//!
//! ```
//! use gmp::prelude::*;
//!
//! let mut sim = cluster(5, 42);
//! sim.crash_at(ProcessId(4), 300);
//! sim.run_until(5_000);
//! let survivor = sim.node(ProcessId(0));
//! assert!(!survivor.view().contains(ProcessId(4)));
//! ```

pub use gmp_baselines as baselines;
pub use gmp_causality as causality;
pub use gmp_core as protocol;
pub use gmp_detect as detect;
pub use gmp_link as link;
pub use gmp_log as log;
pub use gmp_props as props;
pub use gmp_sim as sim;
pub use gmp_types as types;

/// The stable surface, one `use` away.
///
/// ```
/// use gmp::prelude::*;
///
/// let cfg = ConfigBuilder::default().timing(80, 120).build();
/// let mut sim = ClusterBuilder::new(3, cfg).build();
/// sim.run_until(2_000);
/// assert_eq!(sim.node(ProcessId(0)).view().len(), 3);
/// ```
pub mod prelude {
    pub use gmp_core::{
        cluster, cluster_with, ClusterBuilder, Config, ConfigBuilder, JoinConfig, Lifecycle,
        Member, MemberEvent, ObserveConfig,
    };
    pub use gmp_core::{Flat, Sparse, Topology};
    pub use gmp_log::{
        log_cluster, logs_agree, Client, LogClusterBuilder, LogConfig, ReplicatedLog,
    };
    pub use gmp_sim::{Builder, Sim};
    pub use gmp_types::{ProcessId, Ver, View};
}
