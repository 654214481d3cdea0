//! Replicated log: multipaxos riding on the membership service.
//!
//! ```text
//! cargo run --example replicated_log
//! ```
//!
//! Five replicas carry a replicated log; the view's `Mgr` is the leader,
//! view versions are the ballots, and a view install is a
//! reconfiguration. Three closed-loop clients push commands while the
//! leader is crashed mid-run: the group excludes it, the new `Mgr` runs a
//! recovery round over the surviving acceptors, and the clients follow
//! the new leader as soon as its post-recovery reply reaches them. The
//! survivors' logs must agree: each is a prefix of the longest.
//!
//! The default `LogConfig` is the batched trim: the leader coalesces
//! same-tick commands into one `AcceptBatch` (`batch`), clients keep a
//! pipeline window in flight (`window`), and a joiner catches up from a
//! snapshot plus the last `compact_keep` applied entries.
//! `LogConfig::default().unbatched()` is the strict one-at-a-time preset —
//! every command a batch of one, proposed on arrival — try it here and
//! watch committed ops drop ~4x.

use gmp::prelude::*;

fn main() {
    let replicas = 5;
    let clients = 3;
    let crash_at = 3_000;

    let mut sim = LogClusterBuilder::new(replicas, clients).seed(2024).build();

    // p0 is the senior member, hence the initial Mgr and log leader.
    sim.crash_at(ProcessId(0), crash_at);
    sim.run_until(30_000);

    let survivors: Vec<ProcessId> = (1..replicas as u32).map(ProcessId).collect();

    println!("per-replica state after the run:");
    for &p in &survivors {
        let node = sim.node(p);
        let (m, l) = (node.member(), node.log());
        let (accepted, _, admitted, _) = l.hot_sizes();
        println!(
            "  {} -> view v{} ({} members), {} committed ops \
             ({} accepted / {} admitted hot){}",
            p,
            m.ver(),
            m.view().len(),
            l.committed_ops(),
            accepted,
            admitted,
            if l.is_leader() { "  [leader]" } else { "" }
        );
    }

    println!("\nper-client workload:");
    let mut slowest = 0;
    for k in 0..clients as u32 {
        let c = sim.node(ProcessId(replicas as u32 + k)).client();
        let max = c.latencies().iter().copied().max().unwrap_or(0);
        slowest = slowest.max(max);
        println!(
            "  client {} -> {} acked, {} retries, {} leader switches, worst latency {} ticks",
            k,
            c.acked(),
            c.retries(),
            c.redirects(),
            max
        );
    }
    println!(
        "\nworst commit latency {slowest} ticks — the requests that \
         straddled the leader crash and waited out the failover"
    );

    // Safety gate: survivors may lag, never diverge.
    let logs: Vec<&[_]> = survivors
        .iter()
        .map(|&p| sim.node(p).log().committed())
        .collect();
    assert!(
        logs_agree(logs.iter().map(|&l| (0, l))),
        "survivor logs diverged"
    );

    // Liveness gates: the group excluded the dead leader and the log kept
    // committing under its successor.
    let survivor = sim.node(ProcessId(1));
    assert!(!survivor.member().view().contains(ProcessId(0)));
    assert!(survivor.log().committed_ops() > 0);
    let post_failover = survivor
        .log()
        .ballots()
        .iter()
        .any(|&b| b >= survivor.member().ver());
    assert!(post_failover, "no command committed under the new leader");

    println!("survivor logs prefix-identical; progress resumed after failover: OK");
}
