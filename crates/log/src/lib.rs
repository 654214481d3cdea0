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
//!   [`MemberEvent`](gmp_core::MemberEvent)s deliver them to the log;
//! * **failure detection** — the log reads only the group's agreed output.
//!   A raw suspicion never reaches it: a new leader's recovery waits for
//!   every member of the view it leads, and the view that excludes a
//!   crashed member starts a new round without it.
//!
//! What remains is the steady-state phase 2 — one per-range path
//! (`AcceptBatch`/`AcceptOkRange`/`DecideBatch`), a single command being a
//! range of one — the new-leader recovery round, and joiner state
//! transfer (snapshot + the last `compact_keep` entries once the joiner
//! misses more) — see [`ReplicatedLog`]. Its Paxos roles (leader,
//! acceptor, learner, and catch-up) each live in one file of
//! [`replica`], and debug builds check its invariants after every entry
//! point. Everything is sans-IO: the log and the
//! [`Client`] emit through a [`gmp_sim::Out`] sink, which inside
//! [`gmp_sim`]'s deterministic engine is the handler's context and
//! outside it a `Vec` of [`gmp_sim::Effect`]s. Batch size, client pipeline
//! window and how many applied entries a snapshot catch-up ships are
//! [`LogConfig`] knobs;
//! `LogConfig::default()` is the batched trim and
//! [`LogConfig::unbatched`](cluster::LogConfig::unbatched) is the batch-1,
//! window-1, snapshot-free preset, whose traffic matches PR 9's per-slot
//! baseline message for message.
//!
//! # Quickstart
//!
//! ```
//! use gmp_log::{log_cluster, logs_agree};
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
//! assert!(logs_agree(logs.iter().map(|&l| (0, l))));
//! assert!(sim.node(ProcessId(1)).log().committed_ops() > 0);
//! ```

pub mod client;
pub mod cluster;
pub mod msg;
pub mod node;
pub mod replica;
mod window;

pub use client::Client;
pub use cluster::{log_cluster, logs_agree, LogClusterBuilder, LogConfig};
pub use msg::{AppMsg, LogCmd, LogMsg, RecoverOkBody, Snapshot, SyncOkBody};
pub use node::{LogProc, Replica};
pub use replica::{ReplicatedLog, LOG_FLUSH};
