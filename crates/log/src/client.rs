//! The workload generator: a closed-loop client outside the group.
//!
//! Each client keeps a bounded *pipeline window* of requests in flight
//! (`window = 1` is the strict one-at-a-time loop of the unbatched
//! preset). Every `request_every` ticks it tops the window back up with
//! fresh commands, sent to its leader belief; an unacknowledged command is
//! re-sent after `retry_after` ticks to *every* replica. Only a leader
//! sends `Reply`, so the client follows whoever answers it: a `Reply` from
//! another process makes that process the leader belief and re-sends the
//! whole window to it. A new leader re-replies to every client with a
//! committed command when its recovery round ends, so the group's agreed
//! view, not the retry timer, moves the client to it. The time from issue
//! to `Reply` is recorded per operation; operations that straddle a
//! leader crash are exactly the ones whose latency shows the failover.

use crate::msg::{LogCmd, LogMsg};
use gmp_sim::Out;
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
}

/// A closed-loop client of the replicated log.
#[derive(Clone, Debug)]
pub struct Client {
    me: ProcessId,
    /// The initial replica set: every retry goes to each of them.
    replicas: Vec<ProcessId>,
    /// Current leader belief: the senior replica at first, then the sender
    /// of the latest `Reply`.
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
    /// Leader switches: `Reply`s from a process other than the belief.
    switches: u64,
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
            switches: 0,
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

    /// Leader switches: how often a `Reply` came from a process other than
    /// the leader belief.
    pub fn redirects(&self) -> u64 {
        self.switches
    }

    /// Timed-out resends.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Starts the client as process `me`: its first tick is due at
    /// `first_at` (never before tick 1).
    pub fn start(&mut self, out: &mut impl Out<LogMsg>, me: ProcessId) {
        self.me = me;
        out.set_timer(self.first_at.max(1), CLIENT_TICK);
    }

    /// Handles `msg` from `from`, delivered at time `now`.
    pub fn receive(&mut self, out: &mut impl Out<LogMsg>, from: ProcessId, msg: LogMsg, now: u64) {
        let LogMsg::Reply { seq } = msg else { return };
        if let Some(p) = self.pending.remove(&seq) {
            self.latencies.push(now - p.issued_at);
        }
        if from != self.leader {
            // Only a leader replies: follow it right away, whole window.
            self.leader = from;
            self.switches += 1;
            for (&seq, p) in self.pending.iter_mut() {
                p.last_sent = now;
                out.send(from, request(self.me, seq));
            }
        }
    }

    /// Handles the timer `tag`, due at time `now`: resends what is stale
    /// and tops the window back up.
    pub fn fire(&mut self, out: &mut impl Out<LogMsg>, tag: u64, now: u64) {
        if tag != CLIENT_TICK {
            return;
        }
        // Resend anything stale (seq order), …
        for (&seq, p) in self.pending.iter_mut() {
            if now.saturating_sub(p.last_sent) < self.retry_after {
                continue;
            }
            p.last_sent = now;
            self.retries += 1;
            // Followers ignore requests, so asking every replica reaches
            // whichever of them leads, even when our belief is a corpse.
            for &r in &self.replicas {
                out.send(r, request(self.me, seq));
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
                },
            );
            out.send(self.leader, request(self.me, seq));
        }
        out.set_timer(self.request_every, CLIENT_TICK);
    }
}

/// `client`'s request for its command `seq`.
fn request(client: ProcessId, seq: u64) -> LogMsg {
    let cmd = LogCmd { client, seq };
    LogMsg::Request { cmd }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_sim::Effect;

    type Sink = Vec<Effect<LogMsg>>;

    const ME: ProcessId = ProcessId(9);

    /// A client of p0..p2 (p0 the senior), window 3, ticking every 10 and
    /// retrying after 50.
    fn client(first_at: u64) -> Client {
        let replicas = (0..3).map(ProcessId).collect();
        Client::new(replicas, first_at, 10, 50, 3)
    }

    /// `(recipient, seq)` of each effect, every one of which must be one
    /// of this client's `Request`s.
    fn requests(effects: &[Effect<LogMsg>]) -> Vec<(ProcessId, u64)> {
        let request = |e: &Effect<LogMsg>| match e {
            Effect::Send {
                to,
                msg: LogMsg::Request { cmd },
            } if cmd.client == ME => (*to, cmd.seq),
            _ => panic!("expected a request, got {e:?}"),
        };
        effects.iter().map(request).collect()
    }

    /// Fires the client tick at `now`: returns the requests it sent, after
    /// checking that it re-armed itself last.
    fn tick(c: &mut Client, now: u64) -> Vec<(ProcessId, u64)> {
        let mut out = Sink::new();
        c.fire(&mut out, CLIENT_TICK, now);
        let Some((
            Effect::Timer {
                delay: 10,
                tag: CLIENT_TICK,
            },
            sent,
        )) = out.split_last()
        else {
            panic!("expected the tick to re-arm last, got {out:?}");
        };
        requests(sent)
    }

    /// Started at 5 and ticked once: seqs 0..3 in flight at p0, issued at 5.
    fn ticked() -> Client {
        let mut c = client(5);
        c.start(&mut Sink::new(), ME);
        tick(&mut c, 5);
        c
    }

    #[test]
    fn start_arms_the_first_tick_no_earlier_than_tick_one() {
        for (first_at, due) in [(0, 1), (1, 1), (7, 7)] {
            let mut out = Sink::new();
            client(first_at).start(&mut out, ME);
            assert!(
                matches!(out.as_slice(), [Effect::Timer { delay, tag: CLIENT_TICK }] if *delay == due),
                "first_at {first_at}: {out:?}"
            );
        }
    }

    #[test]
    fn the_first_tick_fills_the_window_at_the_senior_replica() {
        let mut c = client(5);
        c.start(&mut Sink::new(), ME);
        let p0 = ProcessId(0);
        assert_eq!(tick(&mut c, 5), [(p0, 0), (p0, 1), (p0, 2)]);
        assert_eq!(tick(&mut c, 15), [], "the window is full");
    }

    #[test]
    fn a_reply_from_another_process_makes_it_the_leader_and_re_sends_the_window() {
        let mut c = ticked();
        let mut out = Sink::new();
        let p = ProcessId;
        c.receive(&mut out, p(0), LogMsg::Reply { seq: 0 }, 6);
        assert!(out.is_empty(), "already the leader belief: {out:?}");
        // A new leader's re-reply names it even for a command acked before.
        c.receive(&mut out, p(2), LogMsg::Reply { seq: 0 }, 7);
        assert_eq!(requests(&out), [(p(2), 1), (p(2), 2)]);
        out.clear();
        // A joiner that became leader is followed too: it is no initial
        // replica.
        c.receive(&mut out, p(7), LogMsg::Reply { seq: 1 }, 8);
        assert_eq!(requests(&out), [(p(7), 2)]);
        assert_eq!(c.redirects(), 2);
        assert_eq!(c.latencies(), [1, 3]);
        assert_eq!(tick(&mut c, 15), [(p(7), 3), (p(7), 4)], "fresh commands");
    }

    /// `(replica, seq)` for every replica, for each of `seqs`.
    fn to_every_replica(seqs: std::ops::Range<u64>) -> Vec<(ProcessId, u64)> {
        seqs.flat_map(|s| (0..3).map(move |r| (ProcessId(r), s)))
            .collect()
    }

    #[test]
    fn every_retry_goes_to_every_replica() {
        let mut c = ticked();
        assert_eq!(tick(&mut c, 54), [], "not stale before retry_after");
        assert_eq!(tick(&mut c, 55), to_every_replica(0..3));
        assert_eq!(tick(&mut c, 104), []);
        assert_eq!(tick(&mut c, 105), to_every_replica(0..3));
        assert_eq!(c.retries(), 6);
    }

    /// A late reply from a dead leader can switch the client back to it,
    /// which costs at most one `retry_after`: the next retry reaches the
    /// live leader too, and its reply switches the client again.
    #[test]
    fn a_stale_reply_switches_back_but_the_next_retry_reaches_every_replica() {
        let mut c = ticked();
        let mut out = Sink::new();
        let p = ProcessId;
        c.receive(&mut out, p(1), LogMsg::Reply { seq: 0 }, 20);
        assert_eq!(requests(&out), [(p(1), 1), (p(1), 2)]);
        out.clear();
        c.receive(&mut out, p(0), LogMsg::Reply { seq: 1 }, 21);
        assert_eq!(requests(&out), [(p(0), 2)], "back to the old leader");
        let mut retried = to_every_replica(2..3);
        retried.extend([(p(0), 3), (p(0), 4)]);
        assert_eq!(tick(&mut c, 71), retried);
        out.clear();
        c.receive(&mut out, p(1), LogMsg::Reply { seq: 2 }, 72);
        assert_eq!(requests(&out), [(p(1), 3), (p(1), 4)]);
        assert_eq!(c.redirects(), 3);
    }

    #[test]
    fn a_reply_records_its_latency_once() {
        let mut c = ticked();
        let mut out = Sink::new();
        for now in [12, 20] {
            let reply = LogMsg::Reply { seq: 1 };
            c.receive(&mut out, ProcessId(0), reply, now);
        }
        assert_eq!(c.latencies(), [7]);
        assert_eq!(c.acked(), 1);
        assert!(out.is_empty());
    }
}
