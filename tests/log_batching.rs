//! Integration: the batched/pipelined log hot path (`AcceptBatch` /
//! `AcceptOkRange` / `DecideBatch`, client pipeline windows, snapshot
//! catch-up) against the unbatched baseline (batches of one) — safety across
//! the knob space, exactly-once replies, bounded hot state on long runs,
//! and O(keep) joiner catch-up.

use gmp::log::{AppMsg, LogCmd, LogProc};
use gmp::prelude::*;
use gmp::sim::Sim;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn build(
    replicas: usize,
    clients: usize,
    seed: u64,
    lc: LogConfig,
    join_at: Option<u64>,
) -> Sim<AppMsg, LogProc> {
    let mut b = LogClusterBuilder::new(replicas, clients)
        .seed(seed)
        .log_config(lc);
    if let Some(at) = join_at {
        b = b.joiner(JoinConfig::new(at, vec![ProcessId(1)]));
    }
    b.build()
}

/// `(base, committed entries)` of every living replica, in pid order: a
/// joiner booted from a snapshot holds only `[base, len)`.
fn replica_logs(sim: &Sim<AppMsg, LogProc>) -> Vec<(u64, Vec<LogCmd>)> {
    let mut pids: Vec<ProcessId> = sim
        .living()
        .into_iter()
        .filter(|&p| sim.node(p).is_replica())
        .collect();
    pids.sort();
    pids.into_iter()
        .map(|p| {
            let log = sim.node(p).log();
            (log.base(), log.committed().to_vec())
        })
        .collect()
}

/// Per-client committed seqs, in slot order, from the longest log that
/// starts at slot 0 (a founder's: founders keep every applied entry).
fn per_client_seqs(logs: &[(u64, Vec<LogCmd>)]) -> BTreeMap<ProcessId, Vec<u64>> {
    let longest = logs
        .iter()
        .filter(|(base, _)| *base == 0)
        .map(|(_, l)| l)
        .max_by_key(|l| l.len())
        .expect("some founder");
    let mut seqs: BTreeMap<ProcessId, Vec<u64>> = BTreeMap::new();
    for c in longest.iter().filter(|c| !c.is_noop()) {
        seqs.entry(c.client).or_default().push(c.seq);
    }
    seqs
}

proptest! {
    // Each case is a full workload run, so keep the sampled space small;
    // failures replay from proptest-regressions/.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Across the whole (seed, n, batch, window, catch-up budget, joiner,
    /// leader crash) knob space: replica logs agree on every slot they
    /// share (a joiner booted from a snapshot holds only `[base, len)`),
    /// every client's committed commands are a gapless in-order prefix of
    /// its issue stream (exactly-once, no reordering), and no client acks
    /// more than committed. The duplicates a failover's retries send are
    /// answered from the client marks wherever they land. The optional
    /// joiner's `Sync` is answered with the whole applied log or with a
    /// snapshot plus the last `compact_keep` entries, so the catch-up
    /// budget decides what it boots from.
    #[test]
    fn batched_log_safe_across_knob_space(
        seed in 0u64..500,
        n in 3usize..=5,
        batch in 1usize..=16,
        window in 1usize..=8,
        keep in 0usize..3,
        join in 0usize..4,
        crash in proptest::bool::ANY,
    ) {
        let clients = 2usize;
        let horizon = 6_000u64;
        let lc = LogConfig::default()
            .batch(batch)
            .window(window)
            .max_inflight(batch.max(8))
            .compact_keep([8, 64, usize::MAX][keep]);
        let join_at = [None, Some(1_000), Some(2_500), Some(4_000)][join];
        let mut seq = build(n, clients, seed, lc, join_at);
        if crash {
            seq.crash_at(ProcessId(0), horizon / 2);
        }
        seq.run_until(horizon);

        let logs = replica_logs(&seq);
        prop_assert!(
            logs_agree(logs.iter().map(|(base, l)| (*base, l.as_slice()))),
            "replica logs diverged"
        );
        for (client, seqs) in per_client_seqs(&logs) {
            let expect: Vec<u64> = (0..seqs.len() as u64).collect();
            prop_assert_eq!(
                &seqs, &expect,
                "client {:?} committed out of order or more than once", client
            );
        }
        // Clients come after the replicas and the joiner.
        let first_client = n + join_at.is_some() as usize;
        let lats: Vec<Vec<u64>> = (0..clients as u32)
            .map(|k| sim_client(&seq, first_client, k).latencies().to_vec())
            .collect();
        for (k, l) in lats.iter().enumerate() {
            let committed = logs
                .iter()
                .map(|log| {
                    log.1
                        .iter()
                        .filter(|c| c.client == ProcessId((first_client + k) as u32))
                        .count()
                })
                .max()
                .unwrap_or(0);
            prop_assert!(
                l.len() <= committed,
                "client {k} acked {} but only {committed} committed", l.len()
            );
        }
    }
}

fn sim_client(sim: &Sim<AppMsg, LogProc>, first: usize, k: u32) -> &gmp::log::Client {
    sim.node(ProcessId(first as u32 + k)).client()
}

#[test]
fn pipelining_multiplies_committed_throughput() {
    // The tentpole's headline: at the same horizon and offered-load
    // interval, a pipelined window must commit at least twice what the
    // strict closed loop does (the E15 CI gate, pinned in tier-1 too).
    let horizon = 10_000;
    let mut base = build(5, 4, 3, LogConfig::default().unbatched(), None);
    base.run_until(horizon);
    let mut piped = build(5, 4, 3, LogConfig::default().batch(8).window(4), None);
    piped.run_until(horizon);

    let unbatched = base.node(ProcessId(1)).log().committed_ops();
    let batched = piped.node(ProcessId(1)).log().committed_ops();
    assert!(unbatched > 0, "the baseline committed nothing");
    assert!(
        batched >= 2 * unbatched,
        "pipelined run committed {batched} ops, needs >= 2x the baseline's {unbatched}"
    );
}

#[test]
fn hot_state_stays_bounded_on_long_runs() {
    // The per-slot state (the window above the applied prefix, reported
    // as its entries and the decided ones among them), the leader's
    // admitted commands and the per-client marks must stay flat no matter
    // how long the run: applied slots leave the window, and the marks are
    // one per client.
    let keep = 64usize;
    let clients = 2usize;
    let lc = LogConfig::default().batch(8).window(4).compact_keep(keep);
    let mut sim = build(3, clients, 9, lc, None);
    sim.run_until(20_000);

    for pid in (0..3u32).map(ProcessId) {
        let log = sim.node(pid).log();
        assert!(
            log.logical_len() > 4 * keep as u64,
            "{pid:?}: run too short to outgrow the catch-up budget"
        );
        let (accepted, parked, admitted, hwm) = log.hot_sizes();
        let bound = 2 * keep + 64;
        assert!(accepted <= bound, "{pid:?}: accepted grew to {accepted}");
        assert!(parked <= bound, "{pid:?}: parked grew to {parked}");
        assert!(admitted <= bound, "{pid:?}: admitted grew to {admitted}");
        assert_eq!(hwm, clients, "{pid:?}: per-client marks leaked");
    }
}

#[test]
fn joiner_sync_ships_snapshot_plus_tail_not_the_log() {
    // Once the donors have applied more than `keep` entries, a late
    // joiner's catch-up must be a snapshot plus exactly the last `keep`
    // entries rather than a replay of the whole log.
    let keep = 64usize;
    let lc = LogConfig::default().batch(8).window(4).compact_keep(keep);
    let mut sim = build(4, 2, 21, lc, Some(6_000));
    sim.run_until(14_000);

    let joiner = sim.node(ProcessId(4));
    assert!(
        joiner.member().view().contains(ProcessId(4)),
        "joiner was never admitted"
    );
    let (snapshot, tail) = joiner
        .log()
        .last_sync()
        .expect("the joiner never received a SyncOk");
    assert!(
        snapshot,
        "the joiner replayed the log instead of a snapshot"
    );
    assert_eq!(tail, keep as u64, "SyncOk tail is not the catch-up budget");
    assert!(
        joiner.log().base() > 0,
        "the joiner's vectors start at slot 0 — whole-prefix transfer"
    );
    let donor_len = sim.node(ProcessId(1)).log().logical_len();
    assert!(
        donor_len >= 4 * tail.max(1),
        "payload is not O(tail): {tail} entries for a {donor_len}-slot log"
    );
    assert!(
        joiner.log().committed_ops() > 0,
        "the joiner never applied its tail"
    );

    // Base-aware agreement: the joiner holds [base, len), founders hold
    // [0, len); every shared slot range must match.
    assert!(
        logs_agree((0..5u32).map(ProcessId).map(|p| {
            let l = sim.node(p).log();
            (l.base(), l.committed())
        })),
        "a replica disagreed on a shared slot range"
    );
}
