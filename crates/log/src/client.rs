//! The workload generator: a closed-loop client outside the group.
//!
//! Each client keeps a bounded *pipeline window* of requests in flight
//! (`window = 1` is the strict one-at-a-time loop of the unbatched
//! preset). Every `request_every` ticks it tops the window back up with
//! fresh commands; an unacknowledged command is re-sent after
//! `retry_after` ticks — periodically to the *whole* replica set, which is
//! how a client whose leader died (together with the `Redirect` hints of
//! live followers) rediscovers the new one. The time from issue to `Reply`
//! is recorded per operation; operations that straddle a leader crash are
//! exactly the ones whose latency shows the failover.

use crate::msg::{AppMsg, LogCmd, LogMsg};
use gmp_sim::Ctx;
use gmp_types::ProcessId;
use std::collections::BTreeMap;

/// Timer tag for the client loop. Far outside the membership layer's tag
/// space (1–3), which matters only stylistically — clients are separate
/// processes, not composites.
pub(crate) const CLIENT_TICK: u64 = 64;

/// An in-flight request (keyed by its seq in the window map).
#[derive(Clone, Copy, Debug)]
struct Pending {
    issued_at: u64,
    last_sent: u64,
    tries: u32,
}

/// A closed-loop client of the replicated log.
#[derive(Clone, Debug)]
pub struct Client {
    me: ProcessId,
    /// The initial replica set: fallback contacts for leader rediscovery.
    replicas: Vec<ProcessId>,
    /// Current leader belief (initially the senior replica).
    leader: ProcessId,
    /// Issue interval of the closed loop.
    request_every: u64,
    /// Resend an unacknowledged request after this long.
    retry_after: u64,
    /// Max requests in flight at once (the pipeline window, ≥ 1).
    window: usize,
    /// First issue time (staggered per client by the cluster builder).
    first_at: u64,
    next_seq: u64,
    /// In-flight requests by seq (iteration order = seq order, so resends
    /// and top-ups are deterministic).
    pending: BTreeMap<u64, Pending>,
    /// Commit latency (issue → reply) of every acknowledged operation, in
    /// acknowledgement order.
    latencies: Vec<u64>,
    /// Redirects followed.
    redirects: u64,
    /// Resends after timeout.
    retries: u64,
}

impl Client {
    /// A client issuing every `request_every` ticks starting at
    /// `first_at`, keeping up to `window` requests in flight, retrying
    /// after `retry_after`, against `replicas` (the senior replica is the
    /// initial leader guess).
    pub fn new(
        replicas: Vec<ProcessId>,
        first_at: u64,
        request_every: u64,
        retry_after: u64,
        window: usize,
    ) -> Self {
        assert!(!replicas.is_empty(), "a client needs at least one replica");
        assert!(
            request_every > 0 && retry_after > 0,
            "intervals must be positive"
        );
        assert!(window >= 1, "the pipeline window must admit work");
        Client {
            me: ProcessId(u32::MAX),
            leader: replicas[0],
            replicas,
            request_every,
            retry_after,
            window,
            first_at,
            next_seq: 0,
            pending: BTreeMap::new(),
            latencies: Vec::new(),
            redirects: 0,
            retries: 0,
        }
    }

    /// Acknowledged operations.
    pub fn acked(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Commit latencies (issue → reply), in acknowledgement order.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Redirects followed while hunting the leader.
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Timed-out resends.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn cmd(&self, seq: u64) -> LogCmd {
        LogCmd {
            client: self.me,
            seq,
        }
    }

    pub(crate) fn on_start(&mut self, ctx: &mut Ctx<'_, AppMsg>) {
        self.me = ctx.id();
        ctx.set_timer(self.first_at.max(1), CLIENT_TICK);
    }

    pub(crate) fn on_message(&mut self, ctx: &mut Ctx<'_, AppMsg>, _from: ProcessId, msg: LogMsg) {
        match msg {
            LogMsg::Reply { seq, .. } => {
                if let Some(p) = self.pending.remove(&seq) {
                    self.latencies.push(ctx.now() - p.issued_at);
                }
            }
            // The guard keeps a transiently confused pair of followers
            // from bouncing the same request at network speed.
            LogMsg::Redirect { leader } if leader != self.leader => {
                self.leader = leader;
                self.redirects += 1;
                // Chase the hint right away, whole window.
                let now = ctx.now();
                for (&seq, p) in self.pending.iter_mut() {
                    p.last_sent = now;
                    let m = AppMsg::Log(LogMsg::Request {
                        cmd: LogCmd {
                            client: self.me,
                            seq,
                        },
                    });
                    ctx.send(leader, m);
                }
            }
            _ => {}
        }
    }

    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_, AppMsg>, tag: u64) {
        if tag != CLIENT_TICK {
            return;
        }
        let now = ctx.now();
        // Resend anything stale (seq order), …
        let mut stale: Vec<u64> = Vec::new();
        for (&seq, p) in self.pending.iter() {
            if now.saturating_sub(p.last_sent) >= self.retry_after {
                stale.push(seq);
            }
        }
        for seq in stale {
            let p = self.pending.get_mut(&seq).expect("collected above");
            p.last_sent = now;
            p.tries += 1;
            let tries = p.tries;
            self.retries += 1;
            let msg = LogMsg::Request { cmd: self.cmd(seq) };
            if tries.is_multiple_of(2) {
                // Every other retry sweeps the whole replica set: live
                // followers answer with redirects even when our leader
                // belief is a corpse.
                for r in self.replicas.clone() {
                    ctx.send(r, AppMsg::Log(msg.clone()));
                }
            } else {
                ctx.send(self.leader, AppMsg::Log(msg));
            }
        }
        // …then top the pipeline window back up with fresh commands.
        while self.pending.len() < self.window {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert(
                seq,
                Pending {
                    issued_at: now,
                    last_sent: now,
                    tries: 0,
                },
            );
            ctx.send(
                self.leader,
                AppMsg::Log(LogMsg::Request { cmd: self.cmd(seq) }),
            );
        }
        ctx.set_timer(self.request_every, CLIENT_TICK);
    }
}
