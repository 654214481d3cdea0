//! The composite simulator node: a [`Member`] and a [`ReplicatedLog`] in
//! one process, or a [`Client`] outside the group.
//!
//! All three layers are plain state machines that emit through the
//! handler's [`Ctx`], which is an `Out<Msg>` and an `Out<LogMsg>` at once:
//! `AppMsg` converts from both, so each layer's sends are wrapped in their
//! envelope as the context applies them. Membership messages and timers
//! go to the [`Member`]'s entry points unchanged; after *every* member
//! step the replica feeds the drained
//! [`MemberEvent`](gmp_core::MemberEvent)s to the log, so the log's
//! effects follow the member's. Timer tags route by value: the membership
//! layer owns tags 1–3, the client loop uses its own, and [`LOG_FLUSH`] is
//! the log's batch-coalescing flush.

use crate::client::Client;
use crate::msg::AppMsg;
use crate::replica::{ReplicatedLog, LOG_FLUSH};
use gmp_core::Member;
use gmp_sim::{Ctx, Node};
use gmp_types::ProcessId;

/// A group member with a replicated log riding on its views.
pub struct Replica {
    /// The membership layer.
    pub member: Member,
    /// The log layer, subscribed to the member's events.
    pub log: ReplicatedLog,
}

impl Replica {
    /// Couples a member (initial or joiner) with a fresh log.
    pub fn new(member: Member, log: ReplicatedLog) -> Self {
        Replica { member, log }
    }

    /// After a member step: its events into the log, in order. Member
    /// handlers only ever *push* events, and the log only ever *consumes*
    /// them, so one pass settles everything.
    fn pump(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        for ev in self.member.take_events() {
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
                r.member.start(ctx, ctx.id(), ctx.now());
                r.pump(ctx);
            }
            LogProc::Client(c) => c.start(ctx, ctx.id()),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, AppMsg>, from: ProcessId, msg: AppMsg) {
        match (self, msg) {
            (LogProc::Replica(r), AppMsg::Gmp(m)) => {
                r.member.receive(ctx, from, m, ctx.now());
                r.pump(ctx);
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
                r.member.fire(ctx, tag, ctx.now());
                r.pump(ctx);
            }
            LogProc::Client(c) => c.fire(ctx, tag, ctx.now()),
        }
    }
}
