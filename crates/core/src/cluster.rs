//! Convenience harness for assembling simulated groups.
//!
//! Tests, examples and benchmarks all build the same shape of run: `n`
//! initial members (process ids `0..n`, member 0 the initial `Mgr`) plus
//! optional late joiners. This module centralizes that setup.

use crate::config::{Config, JoinConfig, ObserveConfig};
use crate::member::Member;
use crate::msg::Msg;
use gmp_sim::{Builder, Sim};
use gmp_types::{ProcessId, View};

/// A simulated group under construction.
pub struct ClusterBuilder {
    sim_builder: Builder,
    n: usize,
    cfg: Config,
    joiners: Vec<JoinConfig>,
    observers: Vec<ObserveConfig>,
}

impl ClusterBuilder {
    /// A cluster of `n` initial members sharing `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, cfg: Config) -> Self {
        assert!(n > 0, "a cluster needs at least one member");
        ClusterBuilder {
            sim_builder: Builder::new(),
            n,
            cfg,
            joiners: Vec::new(),
            observers: Vec::new(),
        }
    }

    /// Replaces the simulator builder (seed, delays).
    pub fn sim(mut self, builder: Builder) -> Self {
        self.sim_builder = builder;
        self
    }

    /// Adds a late joiner; it receives the next free process id.
    pub fn joiner(mut self, join: JoinConfig) -> Self {
        self.joiners.push(join);
        self
    }

    /// Adds an external observer (§8 hierarchical service); observers are
    /// registered after all joiners and receive the subsequent ids.
    pub fn observer(mut self, observe: ObserveConfig) -> Self {
        self.observers.push(observe);
        self
    }

    /// Builds the simulator with all members registered.
    pub fn build(self) -> Sim<Msg, Member> {
        let initial: View = (0..self.n as u32).map(ProcessId).collect();
        let mut sim = self.sim_builder.build();
        // `View` clones share one list: every initial member scans the same
        // n ids until its first install.
        for _ in 0..self.n {
            sim.add_node(Member::new(self.cfg.clone(), initial.clone()));
        }
        for join in self.joiners {
            let mut cfg = self.cfg.clone();
            cfg.join = Some(join);
            sim.add_node(Member::joiner(cfg));
        }
        for observe in self.observers {
            let mut cfg = self.cfg.clone();
            cfg.observe = Some(observe);
            sim.add_node(Member::observer(cfg));
        }
        sim
    }
}

/// Shorthand: an `n`-member cluster with the given seed and default
/// protocol configuration.
///
/// ```
/// use gmp_core::cluster;
/// use gmp_types::ProcessId;
///
/// let mut sim = cluster(5, 42);
/// sim.run_until(1_000);
/// assert_eq!(sim.node(ProcessId(0)).view().len(), 5);
/// ```
pub fn cluster(n: usize, seed: u64) -> Sim<Msg, Member> {
    ClusterBuilder::new(n, Config::default())
        .sim(Builder::new().seed(seed))
        .build()
}

/// Shorthand: an `n`-member cluster with explicit protocol configuration.
pub fn cluster_with(n: usize, seed: u64, cfg: Config) -> Sim<Msg, Member> {
    ClusterBuilder::new(n, cfg)
        .sim(Builder::new().seed(seed))
        .build()
}
