//! The composite simulator node: a [`Member`] and a [`ReplicatedLog`] in
//! one process, or a [`Client`] outside the group.
//!
//! All three layers are plain state machines that emit through the
//! handler's [`Ctx`], which is an `Out<Msg>` and an `Out<LogMsg>` at once:
//! `AppMsg` converts from both, so each layer's sends are wrapped in their
//! envelope as the context applies them. Membership messages and timers
//! go to the [`Member`]'s entry points through a small sink, `Tap`, that
//! forwards every effect to the context and keeps the [`MemberEvent`] of
//! each note. After *every* member step the replica feeds those events to
//! the log, so the log's effects follow the member's. Timer tags route by
//! value: the membership layer owns tags 1–3, the client loop uses its
//! own, and [`LOG_FLUSH`] is the log's batch-coalescing flush.

use crate::client::Client;
use crate::msg::AppMsg;
use crate::replica::{ReplicatedLog, LOG_FLUSH};
use gmp_core::{Member, MemberEvent, Msg};
use gmp_sim::{Ctx, Node, Out, Time};
use gmp_types::{Note, ProcessId};

/// A group member with a replicated log riding on its views.
pub struct Replica {
    /// The membership layer.
    pub member: Member,
    /// The log layer, fed the events of the member's notes.
    pub log: ReplicatedLog,
}

/// The sink a replica steps its member through: every effect goes on to
/// the context, and the events the log reads are kept from the notes —
/// also once the context discards effects, after a quit or a crash cut
/// the step short, so the log still hears of the transition.
struct Tap<'t, 'c> {
    ctx: &'t mut Ctx<'c, AppMsg>,
    events: Vec<MemberEvent>,
}

impl Out<Msg> for Tap<'_, '_> {
    fn send(&mut self, to: ProcessId, msg: Msg) {
        self.ctx.send(to, msg.into());
    }
    fn set_timer(&mut self, delay: Time, tag: u64) {
        self.ctx.set_timer(delay, tag);
    }
    fn note(&mut self, note: Note) {
        self.events.extend(MemberEvent::of(&note));
        self.ctx.note(note);
    }
    fn quit(&mut self) {
        self.ctx.quit();
    }
}

impl Replica {
    /// Couples a member (initial or joiner) with a fresh log.
    pub fn new(member: Member, log: ReplicatedLog) -> Self {
        Replica { member, log }
    }

    /// One member step through a `Tap`, then the events of its notes
    /// into the log, in order. The log never steps the member, so one
    /// pass settles everything.
    fn step(&mut self, ctx: &mut Ctx<'_, AppMsg>, call: impl FnOnce(&mut Member, &mut Tap)) {
        let mut tap = Tap {
            ctx,
            events: Vec::new(),
        };
        call(&mut self.member, &mut tap);
        for ev in tap.events {
            self.log.step_event(ctx, ev, ctx.now());
        }
    }
}

/// A process of a log-bearing cluster.
pub enum LogProc {
    /// A group member carrying the log (boxed: the member + log pair is
    /// much larger than the client).
    Replica(Box<Replica>),
    /// A workload client outside the group.
    Client(Client),
}

impl LogProc {
    /// The replica's log, for post-run inspection. Panics on a client.
    pub fn log(&self) -> &ReplicatedLog {
        match self {
            LogProc::Replica(r) => &r.log,
            LogProc::Client(_) => panic!("clients carry no log"),
        }
    }

    /// The replica's member, for post-run inspection. Panics on a client.
    pub fn member(&self) -> &Member {
        match self {
            LogProc::Replica(r) => &r.member,
            LogProc::Client(_) => panic!("clients carry no member"),
        }
    }

    /// The client, for post-run inspection. Panics on a replica.
    pub fn client(&self) -> &Client {
        match self {
            LogProc::Client(c) => c,
            LogProc::Replica(_) => panic!("replicas are not clients"),
        }
    }

    /// True for replicas (members and joiners), false for clients.
    pub fn is_replica(&self) -> bool {
        matches!(self, LogProc::Replica(_))
    }
}

impl Node<AppMsg> for LogProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        match self {
            LogProc::Replica(r) => {
                r.log.bind(ctx.id());
                let (me, now) = (ctx.id(), ctx.now());
                r.step(ctx, |m, tap| m.start(tap, me, now));
            }
            LogProc::Client(c) => c.start(ctx, ctx.id()),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, AppMsg>, from: ProcessId, msg: AppMsg) {
        match (self, msg) {
            (LogProc::Replica(r), AppMsg::Gmp(m)) => {
                let now = ctx.now();
                r.step(ctx, |member, tap| member.receive(tap, from, m, now));
            }
            (LogProc::Replica(r), AppMsg::Log(m)) => r.log.step_message(ctx, from, m, ctx.now()),
            (LogProc::Client(c), AppMsg::Log(m)) => c.receive(ctx, from, m, ctx.now()),
            (LogProc::Client(_), AppMsg::Gmp(_)) => {} // stray; clients speak log only
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AppMsg>, tag: u64) {
        match self {
            // The flush tick is the log's; every other replica timer
            // belongs to the membership layer.
            LogProc::Replica(r) if tag == LOG_FLUSH => r.log.step_flush(ctx, ctx.now()),
            LogProc::Replica(r) => {
                let now = ctx.now();
                r.step(ctx, |m, tap| m.fire(tap, tag, now));
            }
            LogProc::Client(c) => c.fire(ctx, tag, ctx.now()),
        }
    }
}
