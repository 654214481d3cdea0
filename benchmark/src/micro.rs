//! Micro-drivers: the layers the node boundary hides (`gmp-causality`,
//! `gmp-detect`, the pure `ReplicatedLog` state machine), called through
//! their public functions with no simulator around them.

use crate::clock::cpu_now;
use gmp::causality::CowClock;
use gmp::detect::HeartbeatDetector;
use gmp::log::{LogCmd, LogMsg};
use gmp::prelude::*;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// `causality.send_recv_ns`: one send (`tick` + `stamp`) and the matching
/// receive (`observe` + `tick` + `stamp`) at `n` processes, with the
/// previous stamps still alive — as they are in a trace — so every tick
/// pays the copy-on-write.
pub fn causality_send_recv_ns(n: usize) -> f64 {
    let iters = (40_000_000 / n.max(64)).max(2_000);
    let (mut sender, mut receiver) = (CowClock::new(n), CowClock::new(n));
    let mut held = (sender.stamp(), receiver.stamp());
    let start = cpu_now();
    for _ in 0..iters {
        sender.tick(0);
        let sent = sender.stamp();
        receiver.observe(sent.clock());
        receiver.tick(1);
        // The previous pair is dropped only now, after the new one was cut.
        held = (sent, receiver.stamp());
    }
    let elapsed = cpu_now() - start;
    black_box(&held);
    elapsed * 1e9 / iters as f64
}

/// `(detect.heard_from_ns, detect.tick_ns)`: a life sign per tracked peer,
/// then one timeout evaluation, on detectors each tracking `degree` peers.
/// Many detectors take turns so each timed block is thousands of calls.
pub fn detect_ns(degree: usize, suspect_after: u64) -> (f64, f64) {
    const DETECTORS: usize = 256;
    let rounds = (2_000_000 / (DETECTORS * degree)).max(20);
    let peers: Vec<ProcessId> = (1..=degree as u32).map(ProcessId).collect();
    let mut detectors: Vec<HeartbeatDetector> = (0..DETECTORS)
        .map(|_| {
            let mut d = HeartbeatDetector::new(suspect_after);
            for &p in &peers {
                d.track(p, 0);
            }
            d
        })
        .collect();
    let (mut heard, mut tick) = (0.0, 0.0);
    let mut suspected = 0;
    for round in 1..=rounds as u64 {
        let now = round * suspect_after / 2;
        // `Instant` here: its read costs ~25 ns, the CPU clock's a syscall,
        // and a block at degree 4 is only ~20 µs long.
        let t0 = Instant::now();
        for d in &mut detectors {
            for &p in &peers {
                d.heard_from(p, now);
            }
        }
        let t1 = Instant::now();
        for d in &mut detectors {
            suspected += d.tick(now).len();
        }
        tick += t1.elapsed().as_secs_f64();
        heard += (t1 - t0).as_secs_f64();
    }
    assert_eq!(
        suspected, 0,
        "peers heard every half timeout are never suspected"
    );
    (
        heard * 1e9 / (rounds * DETECTORS * degree) as f64,
        tick * 1e9 / (rounds * DETECTORS) as f64,
    )
}

/// `log.step_ns_per_cmd`: one leader and four acceptor `ReplicatedLog`s
/// stepped by hand through `on_member_event` / `on_message` / `on_flush` /
/// `take_outbox`, every message delivered at once; CPU nanoseconds per
/// committed command across all five state machines.
pub fn log_step_ns_per_cmd(log_config: &LogConfig) -> f64 {
    const REPLICAS: u32 = 5;
    const COMMANDS: u64 = 40_000;
    let members: Vec<ProcessId> = (0..REPLICAS).map(ProcessId).collect();
    let client = ProcessId(REPLICAS);
    let mut net = HandNet {
        logs: members
            .iter()
            .map(|&p| {
                let mut log = ReplicatedLog::with_tuning(
                    log_config.max_inflight,
                    log_config.batch,
                    log_config.compact_keep,
                );
                log.bind(p);
                log
            })
            .collect(),
        wire: VecDeque::new(),
        flush_due: Vec::new(),
        now: 0,
        replies: 0,
    };
    for i in 0..members.len() {
        let installed = MemberEvent::ViewInstalled {
            ver: 0,
            members: members.clone(),
            mgr: members[0],
        };
        net.step(i, |log, now| log.on_member_event(installed, now));
    }
    net.settle();

    let start = cpu_now();
    for seq in 0..COMMANDS {
        let request = LogMsg::Request {
            cmd: LogCmd { client, seq },
        };
        net.step(0, |log, now| log.on_message(client, request, now));
        // One batch's worth of same-tick arrivals, then the tick passes.
        if (seq + 1) % log_config.batch as u64 == 0 {
            net.settle();
        }
    }
    net.settle();
    let elapsed = cpu_now() - start;
    assert_eq!(
        net.replies, COMMANDS,
        "every command must commit and be acknowledged"
    );
    assert_eq!(
        net.logs[REPLICAS as usize - 1].committed_ops() as u64,
        COMMANDS
    );
    elapsed * 1e9 / COMMANDS as f64
}

/// Five logs wired by hand: zero-delay delivery, flush requests honoured
/// one tick later, replies to the (absent) client counted.
struct HandNet {
    logs: Vec<ReplicatedLog>,
    wire: VecDeque<(ProcessId, ProcessId, LogMsg)>,
    flush_due: Vec<usize>,
    now: u64,
    replies: u64,
}

impl HandNet {
    /// Runs one handler of log `i`, then collects what it queued.
    fn step(&mut self, i: usize, call: impl FnOnce(&mut ReplicatedLog, u64)) {
        call(&mut self.logs[i], self.now);
        let from = ProcessId(i as u32);
        for (to, msg) in self.logs[i].take_outbox() {
            self.wire.push_back((from, to, msg));
        }
        if self.logs[i].take_flush_request() {
            self.flush_due.push(i);
        }
    }

    /// Delivers and flushes until nothing is in flight.
    fn settle(&mut self) {
        loop {
            while let Some((from, to, msg)) = self.wire.pop_front() {
                if to.index() < self.logs.len() {
                    self.step(to.index(), |log, now| log.on_message(from, msg, now));
                } else if matches!(msg, LogMsg::Reply { .. }) {
                    self.replies += 1;
                }
            }
            let Some(i) = self.flush_due.pop() else {
                return;
            };
            self.now += 1;
            self.step(i, |log, now| log.on_flush(now));
        }
    }
}
