//! The [`Node`] protocol trait and the effect context [`Ctx`] handed to it.

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
/// Handlers perform effects exclusively through [`Ctx`]; the simulator
/// applies them in emission order after the handler returns, which keeps
/// the run deterministic and lets a scheduled mid-broadcast crash cut a
/// broadcast short exactly as in the paper's Figure 3.
pub trait Node<M: Message> {
    /// Called once at simulated time 0, in process-id order.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>);

    /// Called when a message is delivered to this process.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M);

    /// Called when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64);
}

/// An effect requested by a node handler.
#[derive(Clone, Debug)]
pub(crate) enum Action<M> {
    Send { to: ProcessId, msg: M },
    SetTimer { delay: Time, tag: u64 },
    Note(Note),
    Quit,
}

/// The effect context passed to every [`Node`] handler.
///
/// All interaction with the outside world — sending, timers, quitting,
/// trace annotations — goes through this context so the simulator can
/// record and order it deterministically.
pub struct Ctx<'a, M> {
    pub(crate) pid: ProcessId,
    pub(crate) now: Time,
    /// The engine's effect buffer, lent for the duration of one handler.
    pub(crate) actions: &'a mut Vec<Action<M>>,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// This process's identifier.
    pub fn id(&self) -> ProcessId {
        self.pid
    }

    /// Current simulated time. Protocols should treat this as opaque "local
    /// clock" information only (timeouts), never as a global clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to`. Channels are reliable and FIFO unless the
    /// experiment has blocked the link or crashed the receiver.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send { to, msg });
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
    /// (`gmp-core`'s `Member` does not call this: it broadcasts, and fans
    /// out heartbeat digests that share one `Shared` snapshot, into its own
    /// outbox, which its host replays here as single [`send`](Ctx::send)s —
    /// so a crash cuts them the same way.)
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
        self.actions.push(Action::SetTimer { delay, tag });
    }

    /// Records a semantic annotation into the trace (e.g. `faulty_p(q)`,
    /// view installation). The GMP property checkers read these.
    pub fn note(&mut self, note: Note) {
        self.actions.push(Action::Note(note));
    }

    /// Executes the event `quit_p`: this process permanently ceases
    /// communication (§2.1). Remaining queued effects of the current handler
    /// are discarded.
    pub fn quit(&mut self) {
        self.actions.push(Action::Quit);
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

    #[test]
    fn broadcast_skips_self() {
        let mut actions = Vec::new();
        let mut ctx: Ctx<'_, M0> = Ctx {
            pid: ProcessId(1),
            now: 0,
            actions: &mut actions,
        };
        ctx.broadcast([ProcessId(0), ProcessId(1), ProcessId(2)], M0);
        let targets: Vec<ProcessId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![ProcessId(0), ProcessId(2)]);
    }
}
