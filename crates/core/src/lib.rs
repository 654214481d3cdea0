//! The Ricciardi–Birman group-membership protocol (Cornell TR 91-1188 /
//! PODC 1991): process-group membership as a failure-detection service for
//! asynchronous systems.
//!
//! # What this implements
//!
//! * the **two-phase update algorithm** run by a distinguished coordinator
//!   (`Mgr`) to exclude perceived-faulty members and admit joiners, with the
//!   *condensed* rounds of §3.1 that piggyback the next invitation on the
//!   current commit;
//! * the **three-phase reconfiguration algorithm** (interrogate → propose →
//!   commit) that elects a successor and stabilizes the system when `Mgr`
//!   itself is perceived faulty, including the `Determine`/`GetStable`
//!   procedures that make *invisibly committed* view changes detectable
//!   (§4–§5);
//! * the **join procedure** of §7, making the service fully *online*: a
//!   continuous stream of removals and additions is processed without
//!   blocking;
//! * the failure-detection rules of §2.2: timeout observation (F1), gossip
//!   (F2) and the isolation rule (S1).
//!
//! A [`Member`] does no I/O: [`Member::start`], [`Member::receive`] and
//! [`Member::fire`] take the current time and emit their effects (sends,
//! timers, trace notes, `quit`) through a [`gmp_sim::Out`] sink. Its
//! [`Node`](gmp_sim::Node) impl passes the simulator's context as that
//! sink, so the deterministic engine of [`gmp_sim`] applies each effect as
//! it is emitted, and its traces can be checked against the formal GMP
//! specification with `gmp-props`; a test can equally step members by hand
//! into a `Vec<`[`gmp_sim::Effect`]`>` and route the effects itself.
//!
//! # Quickstart
//!
//! ```
//! use gmp_core::cluster;
//! use gmp_types::ProcessId;
//!
//! // Five members; p0 is the initial Mgr. Crash p2 and watch the group
//! // agree on its exclusion.
//! let mut sim = cluster(5, 7);
//! sim.crash_at(ProcessId(2), 500);
//! sim.run_until(5_000);
//! for p in sim.living() {
//!     let m = sim.node(p);
//!     assert_eq!(m.ver(), 1);
//!     assert!(!m.view().contains(ProcessId(2)));
//! }
//! ```

pub mod cluster;
pub mod config;
pub mod decide;
pub mod event;
pub mod member;
pub mod msg;
pub mod topology;

pub use cluster::{cluster, cluster_with, ClusterBuilder};
pub use config::{Config, ConfigBuilder, JoinConfig, ObserveConfig};
pub use decide::{determine, get_stable, proposals_for_ver, Decision, PhaseOneResp, Proposal};
pub use event::MemberEvent;
pub use member::{Lifecycle, Member};
pub use msg::{
    is_protocol_tag, CommitBody, HeartbeatDigest, InterrogateOkBody, Msg, ReconfBody,
    ViewUpdateBody, WelcomeBody, PROTOCOL_TAGS,
};
pub use topology::{Flat, Sparse, Topology};
