//! Protocol configuration.

use crate::topology::{Flat, Topology};
use gmp_types::ProcessId;
use std::sync::Arc;

/// Tuning knobs for a [`Member`](crate::Member).
///
/// Defaults reproduce the paper's *final* algorithm: condensed update rounds
/// (§3.1), the `Mgr` majority requirement of Fig. 8, and gossip piggybacking
/// (F2) on heartbeats.
///
/// Construct with [`Config::default`] or, to change any knob, through
/// [`Config::builder`]:
///
/// ```
/// use gmp_core::Config;
///
/// let cfg = Config::builder().timing(40, 400).gossip(false).build();
/// assert_eq!(cfg.suspect_after, 400);
/// ```
///
/// The struct is `#[non_exhaustive]`: fields stay readable everywhere, but
/// new knobs (topology landed in PR 7; lease policies and log batching are
/// next) can be added without breaking downstream construction sites.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Config {
    /// Interval between heartbeat/failure-detector ticks.
    pub heartbeat_every: u64,
    /// Silence threshold after which a peer is suspected (F1). Must
    /// comfortably exceed the network round trip or every run degenerates
    /// into mutual suspicion.
    pub suspect_after: u64,
    /// Condensed update rounds: piggyback the next invitation on the commit
    /// (§3.1). Disable to measure the standard two-phase cost (§7.2).
    pub compression: bool,
    /// The final algorithm's majority requirement for `Mgr` (Fig. 8,
    /// `μ_Mgr`). Disable to run the §3.1 basic algorithm, which tolerates
    /// `|Memb|−1` failures but assumes `Mgr` never fails.
    pub mgr_majority: bool,
    /// Piggyback the local faulty set on heartbeats (gossip source F2).
    pub gossip: bool,
    /// Run the full three-phase reconfiguration (interrogate → propose →
    /// commit). Disabling this skips the proposal phase — exactly the
    /// protocol Claim 7.2 proves *cannot* solve GMP. It exists solely so
    /// the baseline experiments can reproduce that counterexample; never
    /// disable it otherwise.
    pub three_phase_reconfig: bool,
    /// Present when this process starts *outside* the group and must join
    /// (§7). `None` for initial members.
    pub join: Option<JoinConfig>,
    /// Present when this process is an *observer* of the group — the §8
    /// hierarchical management service: it tracks the agreed membership
    /// without ever being a member. `None` for members and joiners.
    pub observe: Option<ObserveConfig>,
    /// The monitoring graph: who this member heartbeats (and carries
    /// digests to). Recomputed against the view on every view install.
    /// Defaults to the paper's clique ([`Flat`]); see
    /// [`crate::topology`] for the sparse ring. All
    /// members of a cluster must share one topology (the symmetry contract
    /// is between *peers*), which `ClusterBuilder` guarantees by cloning
    /// the config.
    pub topology: Arc<dyn Topology>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            heartbeat_every: 40,
            suspect_after: 200,
            compression: true,
            mgr_majority: true,
            gossip: true,
            three_phase_reconfig: true,
            join: None,
            observe: None,
            topology: Arc::new(Flat),
        }
    }
}

impl Config {
    /// Starts a [`ConfigBuilder`] from the defaults. The only supported
    /// way to construct a non-default configuration.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }
}

/// Builds a [`Config`], knob by knob.
///
/// Obtained from [`Config::builder`]; every setter has a default (the
/// paper's final algorithm), so only the knobs under study need naming.
/// Because `Config` itself is `#[non_exhaustive]`, the builder is the
/// construction path that stays source-compatible when knobs are added.
///
/// ```
/// use gmp_core::{Config, Sparse};
///
/// let cfg = Config::builder()
///     .timing(100, 400)
///     .compression(false)
///     .topology(Sparse::new(4))
///     .build();
/// assert!(!cfg.compression);
/// ```
#[derive(Clone, Debug, Default)]
#[must_use = "call `.build()` to obtain the Config"]
pub struct ConfigBuilder {
    cfg: Config,
}

impl ConfigBuilder {
    /// Sets the heartbeat interval and the suspicion timeout together —
    /// the two only make sense relative to each other.
    ///
    /// # Panics
    ///
    /// Panics unless both are positive.
    pub fn timing(mut self, heartbeat_every: u64, suspect_after: u64) -> Self {
        assert!(
            heartbeat_every > 0 && suspect_after > 0,
            "timing values must be positive"
        );
        self.cfg.heartbeat_every = heartbeat_every;
        self.cfg.suspect_after = suspect_after;
        self
    }

    /// Enables or disables condensed update rounds (§3.1). Off measures
    /// the standard two-phase cost (§7.2).
    pub fn compression(mut self, on: bool) -> Self {
        self.cfg.compression = on;
        self
    }

    /// Enables or disables the `Mgr` majority requirement (Fig. 8). Off
    /// runs the §3.1 basic algorithm, valid only when `Mgr` cannot fail.
    pub fn mgr_majority(mut self, on: bool) -> Self {
        self.cfg.mgr_majority = on;
        self
    }

    /// Enables or disables faulty-set gossip on heartbeats (F2).
    pub fn gossip(mut self, on: bool) -> Self {
        self.cfg.gossip = on;
        self
    }

    /// Enables or disables the third reconfiguration phase. **Disabling is
    /// unsound** — provided only to reproduce the Claim 7.2
    /// counterexample; see `gmp-baselines`.
    pub fn three_phase_reconfig(mut self, on: bool) -> Self {
        self.cfg.three_phase_reconfig = on;
        self
    }

    /// Marks this process as a joiner with the given parameters (§7).
    pub fn joining(mut self, join: JoinConfig) -> Self {
        self.cfg.join = Some(join);
        self
    }

    /// Marks this process as a group observer (§8).
    pub fn observing(mut self, observe: ObserveConfig) -> Self {
        self.cfg.observe = Some(observe);
        self
    }

    /// Replaces the monitoring graph (default: [`Flat`]).
    pub fn topology(mut self, topology: impl Topology + 'static) -> Self {
        self.cfg.topology = Arc::new(topology);
        self
    }

    /// Replaces the monitoring graph with an already-shared instance —
    /// what sweeps use to hand one `Arc` to every member of many runs.
    pub fn topology_shared(mut self, topology: Arc<dyn Topology>) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Config {
        self.cfg
    }
}

/// How a process outside the group joins it (§7).
#[derive(Clone, Debug)]
pub struct JoinConfig {
    /// Simulated time at which the first join request is sent.
    pub at: u64,
    /// Group members to contact (any member forwards to `Mgr`).
    pub contacts: Vec<ProcessId>,
    /// Retry interval until a `Welcome` arrives.
    pub retry_every: u64,
}

impl JoinConfig {
    /// A join request first sent at `at` to `contacts`, retried every 250
    /// ticks.
    pub fn new(at: u64, contacts: Vec<ProcessId>) -> Self {
        assert!(!contacts.is_empty(), "a joiner needs at least one contact");
        JoinConfig {
            at,
            contacts,
            retry_every: 250,
        }
    }

    /// Overrides the retry interval.
    pub fn retry_every(mut self, interval: u64) -> Self {
        assert!(interval > 0, "retry interval must be positive");
        self.retry_every = interval;
        self
    }
}

/// How an observer follows the group (§8 hierarchical service).
#[derive(Clone, Debug)]
pub struct ObserveConfig {
    /// Simulated time of the first subscription attempt.
    pub at: u64,
    /// Members to subscribe to, tried in order; once view updates arrive,
    /// the observed membership itself extends the fail-over list.
    pub contacts: Vec<ProcessId>,
}

impl ObserveConfig {
    /// An observer first subscribing at `at` through `contacts`. It
    /// re-checks its subscription every 100 ticks.
    pub fn new(at: u64, contacts: Vec<ProcessId>) -> Self {
        assert!(
            !contacts.is_empty(),
            "an observer needs at least one contact"
        );
        ObserveConfig { at, contacts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_final_algorithm() {
        let c = Config::default();
        assert!(c.compression);
        assert!(c.mgr_majority);
        assert!(c.gossip);
        assert!(c.join.is_none());
    }

    #[test]
    fn builder_methods() {
        let c = Config::builder()
            .timing(10, 50)
            .compression(false)
            .mgr_majority(false)
            .gossip(false)
            .build();
        assert_eq!(c.heartbeat_every, 10);
        assert_eq!(c.suspect_after, 50);
        assert!(!c.compression && !c.mgr_majority && !c.gossip);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn builder_rejects_zero_timing() {
        let _ = Config::builder().timing(0, 50);
    }

    #[test]
    #[should_panic(expected = "at least one contact")]
    fn join_needs_contacts() {
        let _ = JoinConfig::new(0, vec![]);
    }
}
