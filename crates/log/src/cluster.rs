//! Convenience constructors for log-bearing clusters, mirroring
//! [`gmp_core::ClusterBuilder`].

use crate::client::Client;
use crate::msg::{AppMsg, LogCmd};
use crate::node::{LogProc, Replica};
use crate::replica::ReplicatedLog;
use gmp_core::{Config, JoinConfig, Member};
use gmp_sim::{Builder, Sim};
use gmp_types::{ProcessId, View};

/// Workload and log tuning knobs.
///
/// Like [`Config`], construct via [`Default`] and the chained setters;
/// the struct is `#[non_exhaustive]` so knobs can grow.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct LogConfig {
    /// Client issue interval (closed loop: next request one interval after
    /// the previous acknowledgement at the earliest).
    pub request_every: u64,
    /// Client resend timeout for unacknowledged requests.
    pub retry_after: u64,
    /// Leader pipelining: max concurrently proposed slots before client
    /// commands queue.
    pub max_inflight: usize,
    /// Leader batching: max commands per `AcceptBatch`. At 1 there is
    /// nothing to coalesce: each command is proposed as a batch of one
    /// without waiting for the flush tick.
    pub batch: usize,
    /// Client pipeline window: requests each client keeps in flight.
    /// 1 reproduces the strict closed loop of the unbatched baseline.
    pub window: usize,
    /// Snapshot catch-up: how many applied entries a joiner's `Sync` is
    /// answered with. A joiner missing more gets a snapshot of the prefix
    /// plus the last `compact_keep` entries (`usize::MAX`: the whole
    /// applied log, no snapshot).
    pub compact_keep: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            request_every: 50,
            retry_after: 300,
            max_inflight: 8,
            batch: 8,
            window: 4,
            compact_keep: 4096,
        }
    }
}

impl LogConfig {
    /// Sets the client issue interval.
    pub fn request_every(mut self, interval: u64) -> Self {
        assert!(interval > 0, "issue interval must be positive");
        self.request_every = interval;
        self
    }

    /// Sets the client resend timeout.
    pub fn retry_after(mut self, timeout: u64) -> Self {
        assert!(timeout > 0, "retry timeout must be positive");
        self.retry_after = timeout;
        self
    }

    /// Sets the leader's in-flight window (pipelining knob).
    pub fn max_inflight(mut self, window: usize) -> Self {
        assert!(window >= 1, "the in-flight window must admit work");
        self.max_inflight = window;
        self
    }

    /// Sets the leader's max batch size (1 = batches of one, no flush
    /// timer).
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "a batch carries at least one command");
        self.batch = batch;
        self
    }

    /// Sets the client pipeline window (1 = strict closed loop).
    pub fn window(mut self, window: usize) -> Self {
        assert!(window >= 1, "the pipeline window must admit work");
        self.window = window;
        self
    }

    /// Sets how many applied entries a snapshot catch-up ships
    /// (`usize::MAX` = the whole applied log, no snapshot catch-up).
    pub fn compact_keep(mut self, keep: usize) -> Self {
        assert!(keep >= 1, "a catch-up ships at least one entry");
        self.compact_keep = keep;
        self
    }

    /// The unbatched, snapshot-free preset: batches of one, one request in
    /// flight per client, joiners caught up from the whole applied log
    /// rather than a snapshot: the per-slot baseline's traffic.
    pub fn unbatched(self) -> Self {
        self.batch(1).window(1).compact_keep(usize::MAX)
    }
}

/// Builds a simulator whose processes are `n` log-bearing replicas
/// (pids `0..n`), then any joiners, then `clients` workload clients.
///
/// ```
/// use gmp_log::LogClusterBuilder;
/// use gmp_types::ProcessId;
///
/// let mut sim = LogClusterBuilder::new(3, 2).seed(7).build();
/// sim.run_until(5_000);
/// assert!(sim.node(ProcessId(0)).log().committed_ops() > 0);
/// ```
pub struct LogClusterBuilder {
    n: usize,
    clients: usize,
    cfg: Config,
    log_cfg: LogConfig,
    joiners: Vec<JoinConfig>,
    sim: Builder,
}

impl LogClusterBuilder {
    /// `n` initial replicas and `clients` clients.
    ///
    /// # Panics
    ///
    /// Panics unless both counts are at least 1.
    pub fn new(n: usize, clients: usize) -> Self {
        assert!(n >= 1, "a group needs at least one member");
        assert!(clients >= 1, "a workload needs at least one client");
        LogClusterBuilder {
            n,
            clients,
            cfg: Config::default(),
            log_cfg: LogConfig::default(),
            joiners: Vec::new(),
            sim: Builder::new(),
        }
    }

    /// Seeds the simulator (shorthand for a custom [`Builder`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim = self.sim.seed(seed);
        self
    }

    /// Replaces the simulator builder wholesale (seed, delays).
    pub fn sim(mut self, builder: Builder) -> Self {
        self.sim = builder;
        self
    }

    /// Replaces the membership configuration shared by every replica.
    pub fn config(mut self, cfg: Config) -> Self {
        assert!(
            cfg.join.is_none() && cfg.observe.is_none(),
            "give joiners via LogClusterBuilder::joiner"
        );
        self.cfg = cfg;
        self
    }

    /// Replaces the workload/log configuration.
    pub fn log_config(mut self, cfg: LogConfig) -> Self {
        self.log_cfg = cfg;
        self
    }

    /// Adds a late-joining replica (§7 join + log state transfer). Joiner
    /// pids follow the initial replicas: the k-th call gets pid `n + k`.
    pub fn joiner(mut self, join: JoinConfig) -> Self {
        self.joiners.push(join);
        self
    }

    /// Builds the simulator with replicas, joiners and clients registered.
    pub fn build(self) -> Sim<AppMsg, LogProc> {
        let initial: View = (0..self.n as u32).map(ProcessId).collect();
        let replicas: Vec<ProcessId> = initial.to_vec();
        let mut sim = self.sim.build();
        let log = || {
            ReplicatedLog::with_tuning(
                self.log_cfg.max_inflight,
                self.log_cfg.batch,
                self.log_cfg.compact_keep,
            )
        };
        for _ in 0..self.n {
            sim.add_node(LogProc::Replica(Box::new(Replica::new(
                Member::new(self.cfg.clone(), initial.clone()),
                log(),
            ))));
        }
        for join in self.joiners.iter() {
            let mut cfg = self.cfg.clone();
            cfg.join = Some(join.clone());
            sim.add_node(LogProc::Replica(Box::new(Replica::new(
                Member::joiner(cfg),
                log(),
            ))));
        }
        for k in 0..self.clients {
            // Stagger first issues so clients don't arrive in lockstep.
            let first_at = self.log_cfg.request_every + 7 * k as u64;
            sim.add_node(LogProc::Client(Client::new(
                replicas.clone(),
                first_at,
                self.log_cfg.request_every,
                self.log_cfg.retry_after,
                self.log_cfg.window,
            )));
        }
        sim
    }
}

/// Shorthand: `n` replicas, `clients` clients, defaults everywhere.
pub fn log_cluster(n: usize, clients: usize, seed: u64) -> Sim<AppMsg, LogProc> {
    LogClusterBuilder::new(n, clients).seed(seed).build()
}

/// True when the logs never diverge — the safety property E14 gates on.
/// Each log comes as `(base, suffix)` with `suffix[i]` the command of slot
/// `base + i` (`base` is 0 except on replicas that booted from a
/// snapshot). Agreement means every pair matches on the slot range both
/// actually hold — lagging and snapshot-trimmed histories are fine,
/// divergence is not. For logs that all start at slot 0 this is "each is
/// a prefix of the longest".
pub fn logs_agree<'a>(logs: impl IntoIterator<Item = (u64, &'a [LogCmd])>) -> bool {
    let logs: Vec<(u64, &[LogCmd])> = logs.into_iter().collect();
    for (i, &(base_a, a)) in logs.iter().enumerate() {
        for &(base_b, b) in &logs[i + 1..] {
            let lo = base_a.max(base_b);
            let hi = (base_a + a.len() as u64).min(base_b + b.len() as u64);
            if lo >= hi {
                continue; // no overlap to compare
            }
            let sa = &a[(lo - base_a) as usize..(hi - base_a) as usize];
            let sb = &b[(lo - base_b) as usize..(hi - base_b) as usize];
            if sa != sb {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(client: u32, seq: u64) -> LogCmd {
        LogCmd {
            client: ProcessId(client),
            seq,
        }
    }

    // Logs that all start at slot 0 agree when each is a prefix of the
    // longest: survivors may lag…
    #[test]
    fn prefix_check_accepts_lagging_survivors() {
        let a = [cmd(9, 0), cmd(9, 1), cmd(8, 0)];
        let b = [cmd(9, 0), cmd(9, 1)];
        let c: [LogCmd; 0] = [];
        assert!(logs_agree([(0, &a[..]), (0, &b[..]), (0, &c[..])]));
    }

    // …but never diverge.
    #[test]
    fn prefix_check_rejects_divergence() {
        let a = [cmd(9, 0), cmd(9, 1)];
        let b = [cmd(9, 0), cmd(8, 0)];
        assert!(!logs_agree([(0, &a[..]), (0, &b[..])]));
    }

    #[test]
    fn base_aware_agreement_compares_overlaps_only() {
        let full = [cmd(9, 0), cmd(9, 1), cmd(8, 0), cmd(8, 1)];
        let tail = [cmd(8, 0), cmd(8, 1)];
        // A snapshot-booted replica holding slots [2, 4) agrees…
        assert!(logs_agree([(0, &full[..]), (2, &tail[..])]));
        // …and a diverging tail does not.
        let bad = [cmd(8, 0), cmd(7, 7)];
        assert!(!logs_agree([(0, &full[..]), (2, &bad[..])]));
        // Disjoint ranges have nothing to disagree about.
        assert!(logs_agree([(0, &full[..2]), (3, &tail[..])]));
    }
}
