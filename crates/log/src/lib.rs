//! A multipaxos-style replicated log on top of the GMP membership service
//! — the consumer the paper promises: process groups make failure
//! detection *usable*, so use them.
//!
//! The membership layer already solves the hard parts of multipaxos:
//! * **leader election** — the view's `Mgr` is the leader; succession is
//!   the three-phase reconfiguration, not a log-level protocol;
//! * **ballots** — view versions are monotone and agreed, so a ballot is
//!   free; there are no dueling proposers by construction (two leaders
//!   can only be `Mgr`s of different versions, and the higher version's
//!   promise wins);
//! * **reconfiguration** — view installs *are* the configuration changes;
//!   [`MemberEvent`](gmp_core::MemberEvent)s deliver them to the log.
//!
//! What remains is the steady-state phase 2 — one per-range path
//! (`AcceptBatch`/`AcceptOkRange`/`DecideBatch`), a single command being a
//! range of one — the new-leader recovery round, and joiner state
//! transfer (snapshot + tail once compaction has passed the joiner's
//! prefix) — see [`ReplicatedLog`]. Everything is sans-IO: the log and the
//! [`Client`] emit through a [`gmp_sim::Out`] sink, which inside
//! [`gmp_sim`]'s deterministic engine is the handler's context and
//! outside it a `Vec` of [`gmp_sim::Effect`]s. Batch size, client pipeline
//! window and the compaction budget are [`LogConfig`] knobs;
//! `LogConfig::default()` is the batched trim and
//! [`LogConfig::unbatched`](cluster::LogConfig::unbatched) is the batch-1,
//! window-1, uncompacted preset, whose traffic matches PR 9's per-slot
//! baseline message for message.
//!
//! # Quickstart
//!
//! ```
//! use gmp_log::{log_cluster, prefix_identical};
//! use gmp_types::ProcessId;
//!
//! // Five replicas, three clients; crash the leader mid-run.
//! let mut sim = log_cluster(5, 3, 7);
//! sim.crash_at(ProcessId(0), 2_000);
//! sim.run_until(20_000);
//!
//! // The survivors agreed on a log and made progress past the failover.
//! let logs: Vec<&[_]> = sim
//!     .living()
//!     .into_iter()
//!     .filter(|&p| p != ProcessId(0) && ProcessId(5) > p)
//!     .map(|p| sim.node(p).log().committed())
//!     .collect();
//! assert!(prefix_identical(logs.iter().copied()));
//! assert!(sim.node(ProcessId(1)).log().committed_ops() > 0);
//! ```

pub mod client;
pub mod cluster;
pub mod msg;
pub mod node;
pub mod replica;
mod window;

pub use client::Client;
pub use cluster::{log_cluster, logs_agree, prefix_identical, LogClusterBuilder, LogConfig};
pub use msg::{AppMsg, LogCmd, LogMsg, RecoverOkBody, Snapshot, SyncOkBody};
pub use node::{LogProc, Replica};
pub use replica::{ReplicatedLog, LOG_FLUSH};
