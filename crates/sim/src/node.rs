//! The [`Node`] protocol trait, the effect context [`Ctx`] handed to it,
//! and the sink trait [`Out`] that sans-IO state machines emit through.

use crate::engine::{Core, Proc};
use crate::trace::TraceKind;
use crate::Time;
use gmp_types::{Note, ProcessId};

/// A protocol message. `tag` names the message kind for trace recording and
/// message-complexity accounting (the benchmarks count sends per tag).
pub trait Message: Clone + std::fmt::Debug {
    /// A short, stable name for this message kind (e.g. `"invite"`).
    fn tag(&self) -> &'static str;
}

/// A deterministic protocol state machine driven by the simulator.
///
/// Handlers perform effects exclusively through [`Ctx`], and the simulator
/// applies each one as the handler emits it. That keeps the run
/// deterministic and lets a scheduled mid-broadcast crash cut a broadcast
/// short exactly as in the paper's Figure 3.
pub trait Node<M: Message> {
    /// Called once at simulated time 0, in process-id order.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// Called when a message is delivered to this process.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M);

    /// Called when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64);
}

/// The effect context passed to every [`Node`] handler.
///
/// All interaction with the outside world — sending, timers, quitting,
/// trace annotations — goes through this context, and the simulator
/// applies each effect as the handler emits it: a send is stamped,
/// recorded, counted and queued before `send` returns. Once the process
/// has quit, or a scheduled crash has cut it off mid-broadcast, every
/// further effect of the handler is discarded.
pub struct Ctx<'a, M> {
    pub(crate) pid: ProcessId,
    /// The engine core, lent for the duration of one handler.
    pub(crate) core: &'a mut Core<M>,
    /// This process's status and Lamport clock.
    pub(crate) proc: &'a mut Proc,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// This process's identifier.
    pub fn id(&self) -> ProcessId {
        self.pid
    }

    /// Current simulated time. Protocols should treat this as opaque "local
    /// clock" information only (timeouts), never as a global clock.
    pub fn now(&self) -> Time {
        self.core.time
    }

    /// Sends `msg` to `to`. Channels are reliable and FIFO unless the
    /// experiment has blocked the link or crashed the receiver.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.core.send(self.pid, self.proc, to, msg);
    }

    /// `Bcast(p, G, m)` (§3.1): sends `msg` to every process in `to` except
    /// this one. Indivisible in the sense that no other handler of this
    /// process runs in between, but *not* failure-atomic: a scheduled crash
    /// can cut it short after any prefix of the sends.
    ///
    /// The message is cloned once per recipient. For payload-free messages
    /// that clone is trivially cheap; for bulk payloads, wrap them in
    /// [`Shared`](crate::Shared) so one constructed payload fans out to
    /// `n − 1` recipients as O(1) reference bumps instead of deep copies.
    /// The same wrapping keeps `M` small, and every send and delivery
    /// moves `M` through the engine's event record. (`gmp-core`'s `Member`
    /// does not call this: it is written against [`Out`], so it broadcasts
    /// as single [`Out::send`]s, each recipient's copy sharing one body — a
    /// `Commit`'s, a `ReconfCommit`'s, a heartbeat digest's snapshot — and
    /// a crash cuts them the same way.)
    pub fn broadcast<I>(&mut self, to: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
    {
        for p in to {
            if p != self.pid {
                self.send(p, msg.clone());
            }
        }
    }

    /// Arms a one-shot timer that fires after `delay` ticks, delivering
    /// `tag` to [`Node::on_timer`]. Timers cannot be cancelled: a handler
    /// that no longer wants one ignores its tag when it fires.
    pub fn set_timer(&mut self, delay: Time, tag: u64) {
        self.core.set_timer(self.pid, self.proc, delay, tag);
    }

    /// Records a semantic annotation into the trace (e.g. `faulty_p(q)`,
    /// view installation). The GMP property checkers read these.
    pub fn note(&mut self, note: Note) {
        self.core.note(self.pid, self.proc, note);
    }

    /// Executes the event `quit_p`: this process permanently ceases
    /// communication (§2.1). Every effect the handler emits after this is
    /// discarded.
    pub fn quit(&mut self) {
        self.core.stop(self.pid, self.proc, TraceKind::Quit);
    }
}

/// Where a sans-IO state machine emits its effects.
///
/// A handler written against `&mut impl Out<M>` runs unchanged inside the
/// simulator, where a [`Ctx`] applies each effect as it is emitted, and
/// outside it, where a `Vec<Effect<M>>` records them for a hand-wired
/// driver or a test to route.
pub trait Out<M> {
    /// Sends `msg` to `to`.
    fn send(&mut self, to: ProcessId, msg: M);
    /// Arms a one-shot timer that hands `tag` back after `delay` ticks.
    fn set_timer(&mut self, delay: Time, tag: u64);
    /// Records a trace annotation for the GMP property checkers.
    fn note(&mut self, note: Note);
    /// Executes `quit`: every later effect of the process is void.
    fn quit(&mut self);
}

/// One effect emitted through an [`Out`], as a `Vec` sink records it.
#[derive(Clone, Debug)]
pub enum Effect<M> {
    /// Send `msg` to `to`.
    Send { to: ProcessId, msg: M },
    /// Hand `tag` back once `delay` ticks have passed.
    Timer { delay: Time, tag: u64 },
    /// A trace annotation for the GMP property checkers.
    Note(Note),
    /// The process executed `quit`: every later effect is void.
    Quit,
}

/// A context accepts every message its envelope `M` can be made from, so
/// a layer hosted inside a composite node emits its own message type.
impl<M: Message, T: Into<M>> Out<T> for Ctx<'_, M> {
    fn send(&mut self, to: ProcessId, msg: T) {
        Ctx::send(self, to, msg.into());
    }
    fn set_timer(&mut self, delay: Time, tag: u64) {
        Ctx::set_timer(self, delay, tag);
    }
    fn note(&mut self, note: Note) {
        Ctx::note(self, note);
    }
    fn quit(&mut self) {
        Ctx::quit(self);
    }
}

impl<M> Out<M> for Vec<Effect<M>> {
    fn send(&mut self, to: ProcessId, msg: M) {
        self.push(Effect::Send { to, msg });
    }
    fn set_timer(&mut self, delay: Time, tag: u64) {
        self.push(Effect::Timer { delay, tag });
    }
    fn note(&mut self, note: Note) {
        self.push(Effect::Note(note));
    }
    fn quit(&mut self) {
        self.push(Effect::Quit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct M0;
    impl Message for M0 {
        fn tag(&self) -> &'static str {
            "m0"
        }
    }

    /// Process 1 broadcasts to the whole group at start.
    struct Caster;
    impl Node<M0> for Caster {
        fn on_start(&mut self, ctx: &mut Ctx<'_, M0>) {
            if ctx.id() == ProcessId(1) {
                ctx.broadcast([ProcessId(0), ProcessId(1), ProcessId(2)], M0);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, M0>, _: ProcessId, _: M0) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, M0>, _: u64) {}
    }

    #[test]
    fn broadcast_skips_self() {
        let mut sim = crate::Builder::new().build::<M0, Caster>();
        for _ in 0..3 {
            sim.add_node(Caster);
        }
        sim.run_until(0);
        let targets: Vec<ProcessId> = sim
            .trace()
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Send { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![ProcessId(0), ProcessId(2)]);
    }
}
