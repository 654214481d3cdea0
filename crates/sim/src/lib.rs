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
//! each effect where the handler emits it: a [`Ctx::send`] is stamped,
//! recorded, counted and queued before it returns, and once the process
//! quits or a scheduled crash cuts it off mid-broadcast, the handler's
//! further effects are discarded. A sans-IO state machine emits through
//! the [`Out`] sink trait instead, which a [`Ctx`] implements, and so does
//! a `Vec<`[`Effect`]`>` for drivers outside the simulator.
//!
//! Every send, receive, timer, crash, quit and semantic
//! [`Note`](gmp_types::Note) is recorded in a [`Trace`] with its Lamport
//! stamp, so runs can be checked against the GMP specification afterwards
//! (`gmp-props`) and message complexity can be measured (`gmp-bench`). Recording an event is O(1) at every `n`: vector
//! clocks are a function of the recorded `Send`/`Recv` edges, so the engine
//! never carries them — [`Trace::to_event_log`] rebuilds them for the
//! caller that needs happens-before. Fan-out payloads are cheap too:
//! wrapping a payload in
//! [`Shared`] makes every per-recipient message clone — whether via
//! [`Ctx::broadcast`] or a per-target [`Ctx::send`] loop — an O(1)
//! reference bump on one allocation instead of a deep copy. The [`batch`]
//! module ([`run_seeds`]) replays one scenario across a whole seed range
//! and aggregates percentile statistics ([`Summary`]) for schedule-space
//! exploration; [`run_seeds_parallel`] executes the same sweep on a
//! scoped-thread worker [`pool`] with seed-ordered, byte-identical output.
//!
//! # Threading and the `Send` audit
//!
//! A run is one deterministic sequential event loop; the engine's only
//! parallelism is *between* runs. The worker pool gives each thread its
//! own `Sim`, built from its own seed ([`run_seeds_parallel`]), and
//! returns the results in seed order — byte-identical to the sequential
//! [`run_seeds`] at every job count. That is sound because
//! `Sim<M, N>: Send` whenever `M: Send` and `N: Send`: every engine
//! internal is owned data (`SmallRng` is a plain xoshiro256++ state; the
//! event queue is a slab `Vec`, a boxed bucket array of indices into it
//! and a heap of far-event keys; link state is hash maps of plain values) or
//! an atomically reference-counted payload ([`Shared`] wraps
//! [`std::sync::Arc`]). No *value* in the stack holds an `Rc`, a
//! thread-local or interior mutability, so the auto trait holds —
//! pinned by a compile-time assertion in `batch.rs`'s tests and relied on
//! by [`run_seeds_parallel`]'s `M: Send, N: Send` bounds. (The one
//! thread-local in the crate is not part of any value: a dropped
//! [`Trace`] parks its cleared event buffer in a per-thread spare slot
//! that the next `Trace` built on *that* thread takes over — capacity
//! only, never contents — so a `Sim` moved to another thread simply
//! parks its buffer there.)
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

pub mod batch;
pub mod net;
pub mod node;
pub mod pool;
pub mod shared;
pub mod stats;
pub mod trace;

mod engine;
mod hash;
mod queue;

pub use batch::{run_seeds, run_seeds_parallel, summarize_runs, BatchConfig, RunStats};
pub use engine::{Builder, NodeStatus, Sim};
pub use hash::{IntHasher, IntMap, IntSet};
pub use net::BlockMode;
pub use node::{Ctx, Effect, Message, Node, Out};
pub use shared::Shared;
pub use stats::{Stats, Summary};
pub use trace::{Trace, TraceEvent, TraceKind};

/// Simulated time, in abstract ticks. Processes never read this directly —
/// they only see timers firing — preserving the "no global clock" model.
pub type Time = u64;
