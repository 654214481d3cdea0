//! Deterministic discrete-event simulator of the paper's system model
//! (§2.1): `n` processes communicating over a completely connected network of
//! reliable FIFO channels, with *unbounded* (randomized, seeded) message
//! delays, no global clock visible to the processes, and crash failures.
//!
//! The simulator substitutes for the real asynchronous environment the
//! authors ran on (see `DESIGN.md`): it implements the model verbatim and
//! additionally lets experiments construct the adversarial schedules the
//! paper's proofs quantify over — crashes in the middle of a broadcast
//! (Figure 3), blocked links and partitions (Figure 4, Claim 7.1), and
//! spurious failure detections.
//!
//! Protocols are [`Node`] state machines. A handler acts only through its
//! [`Ctx`], which borrows the engine for the handler's duration and applies
//! each effect where the handler emits it: a [`Ctx::send`] is recorded,
//! counted and queued before it returns, and once the process
//! quits or a scheduled crash cuts it off mid-broadcast, the handler's
//! further effects are discarded. A sans-IO state machine emits through
//! the [`Out`] sink trait instead, which a [`Ctx`] implements, and so does
//! a `Vec<`[`Effect`]`>` for drivers outside the simulator.
//!
//! Every send, receive, timer, crash, quit and semantic
//! [`Note`](gmp_types::Note) is recorded in a [`Trace`], so runs can be
//! checked against the GMP specification afterwards (`gmp-props`) and
//! message complexity can be measured (`gmp-bench`). Recording an event
//! is one 24-byte push at every `n`: message ids, receive tags, Lamport
//! stamps and vector clocks are functions of the recorded `Send`/`Recv`
//! edges, so the engine never carries them — [`Trace::lamports`] and
//! [`Trace::to_event_log`] rebuild the stamps for the caller that needs
//! them. Fan-out payloads are cheap too:
//! a broadcast is a loop of [`Out::send`]s, one message clone per
//! recipient, and wrapping the payload in a [`std::sync::Arc`] makes each
//! clone an O(1) reference bump on one allocation instead of a deep copy.
//! A seed sweep
//! replays one scenario once per seed, one run after another, and
//! condenses each per-run metric with [`Summary::of`].
//!
//! # Threading and the `Send` audit
//!
//! A run is one deterministic sequential event loop, and the crate starts
//! no thread. `Sim<M, N>: Send` whenever `M: Send` and `N: Send`: every
//! engine internal is owned data or an [`std::sync::Arc`] payload, so a
//! run may be built on one thread and driven on another — pinned by a
//! compile-time assertion in `engine.rs`'s tests. (The one thread-local
//! in the crate is not part of any value: a dropped [`Trace`] parks its
//! cleared event buffer in a per-thread spare slot that the next `Trace`
//! built on *that* thread takes over — capacity only, never contents —
//! so a `Sim` moved to another thread simply parks its buffer there.)
//!
//! # Example
//!
//! ```
//! use gmp_sim::{Builder, Ctx, Message, Node};
//! use gmp_types::ProcessId;
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Message for Ping {
//!     fn tag(&self) -> &'static str { "ping" }
//! }
//!
//! struct Echo;
//! impl Node<Ping> for Echo {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
//!         if ctx.id() == ProcessId(0) {
//!             ctx.send(ProcessId(1), Ping);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, Ping>, _from: ProcessId, _msg: Ping) {}
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Ping>, _tag: u64) {}
//! }
//!
//! let mut sim = Builder::new().seed(1).build::<Ping, Echo>();
//! sim.add_node(Echo);
//! sim.add_node(Echo);
//! sim.run_until(1_000);
//! assert_eq!(sim.stats().sends("ping"), 1);
//! ```

pub mod net;
pub mod node;
pub mod stats;
pub mod trace;

mod engine;
mod hash;
mod queue;

pub use engine::{Builder, NodeStatus, Sim};
pub use hash::{IntHasher, IntSet};
pub use net::BlockMode;
pub use node::{Ctx, Effect, Message, Node, Out};
pub use stats::{Stats, Summary};
pub use trace::{Events, Trace, TraceEvent, TraceKind};

/// Simulated time, in abstract ticks. Processes never read this directly —
/// they only see timers firing — preserving the "no global clock" model.
pub type Time = u64;
