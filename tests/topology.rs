//! Topology-layer regression tests (see `crates/core/src/topology.rs`).
//!
//! Two claims are pinned here:
//!
//! 1. **`Flat` is the pre-refactor engine, byte for byte.** Lifting the
//!    hardwired "all other members" loops behind the `Topology` trait is
//!    a pure representation refactor: under the default clique the exact
//!    golden fingerprints recorded *before* the trait existed must
//!    reproduce, even when the topology is spelled out explicitly.
//! 2. **Sparse graphs still disseminate suspicion.** A `Sparse(k)` ring
//!    member heartbeats only its `k` neighbours, so a suspicion born at
//!    one member must be *relayed* — re-carried by each learner's own
//!    digests — to cross the graph. The proptest below injects the one
//!    suspicion that the protocol never shortcuts (suspecting the
//!    coordinator is never reported point-to-point, because reports go
//!    *to* the coordinator) and bounds how long the ring takes to carry
//!    it to every survivor, for arbitrary `(seed, n, k)`.

mod common;

use common::{fingerprint, fnv1a};
use gmp::protocol::{cluster_with, Config, Flat, Sparse};
use gmp::sim::{TraceEvent, TraceKind};
use gmp::types::{Note, ProcessId};
use proptest::prelude::*;

/// The crash-only golden scenario of `tests/determinism.rs`, with the
/// clique topology configured *explicitly* instead of by default.
fn flat_crash_run(n: usize, seed: u64) -> gmp::sim::Sim<gmp::protocol::Msg, gmp::protocol::Member> {
    let mut sim = cluster_with(n, seed, Config::builder().topology(Flat).build());
    sim.crash_at(ProcessId(n as u32 - 1), 400);
    sim.crash_at(ProcessId(1), 900);
    sim
}

/// The pre-refactor golden fingerprints (recorded in PR 3, re-verified in
/// PR 5; see `tests/determinism.rs` for their provenance). The topology
/// refactor must not move a single stamp under `Flat`.
const GOLDEN: [(usize, u64, usize, u64); 3] = [
    (6, 42, 14696, 0x5240_f36d_ee7d_f5d8),
    (5, 7, 8044, 0xde3b_806b_eee6_1872),
    (9, 0xDEAD_BEEF, 46640, 0x1d76_8c0b_f965_d980),
];

#[test]
fn explicit_flat_topology_reproduces_the_pre_refactor_goldens() {
    for (n, seed, events, hash) in GOLDEN {
        let mut sim = flat_crash_run(n, seed);
        sim.run_until(20_000);
        let fp = fingerprint(sim.trace());
        assert_eq!(fp.len(), events, "n={n} seed={seed}: event count drifted");
        assert_eq!(
            fnv1a(&fp),
            hash,
            "n={n} seed={seed}: the topology layer moved a stamp under Flat"
        );
    }
}

/// First time each process noted `Faulty{suspect}`, from the trace.
fn first_faulty_notes(events: &[TraceEvent], suspect: ProcessId) -> Vec<(ProcessId, u64)> {
    let mut firsts: Vec<(ProcessId, u64)> = Vec::new();
    for e in events {
        if let TraceKind::Note(Note::Faulty { suspect: s, .. }) = &e.kind {
            if *s == suspect && !firsts.iter().any(|&(p, _)| p == e.pid) {
                firsts.push((e.pid, e.time));
            }
        }
    }
    firsts
}

proptest! {
    // Each case is a full simulation; the budget keeps the suite seconds-
    // sized while still sweeping (seed, n, k) jointly. Failures replay via
    // proptest-regressions/.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Under `Sparse(k ≥ 2)`, one injected suspicion reaches every
    /// surviving member within a bounded number of relay rounds.
    ///
    /// The injected belief is `Faulty{Mgr}` at the ring's antipode — the
    /// one suspicion with no point-to-point shortcut: it is never
    /// reported (reports go *to* the coordinator), the coordinator is
    /// alive so nobody else's timeout fires, and reconfiguration cannot
    /// start until the belief has been relayed all the way around to the
    /// second-most-senior member. Every hop is a digest re-carry:
    /// learner bumps its gossip epoch, re-publishes to its own `k`
    /// monitors, and the wave advances ⌈k/2⌉ ring positions per
    /// heartbeat interval.
    #[test]
    fn injected_suspicion_reaches_all_survivors_within_bounded_relay_rounds(
        seed in 0u64..10_000,
        n in 5usize..32,
        k in 2usize..8,
    ) {
        let heartbeat = 40u64;
        let mgr = ProcessId(0);
        let injector = ProcessId(n as u32 / 2);
        let mut sim = cluster_with(n, seed, Config::builder().topology(Sparse::new(k)).build());
        sim.run_until(500);
        sim.node_mut(injector).inject_suspicion(mgr);

        // Worst-case ring distance from the injector to any member is
        // ⌈n/2⌉; the wave advances half = ⌈k/2⌉ positions per round (or
        // the graph degenerated to the clique: one round). A generous
        // +10 rounds absorbs the injection landing on the *next* tick,
        // per-hop delivery jitter, and the reconfiguration the belief
        // triggers once it reaches the second-most-senior member (whose
        // commit informs any member the wave has not reached yet).
        let half = k.div_ceil(2);
        let hops = if 2 * half >= n - 1 { 1 } else { n.div_ceil(2).div_ceil(half) };
        let rounds = (hops + 10) as u64;
        sim.run_until(500 + rounds * heartbeat + 1_000);

        let firsts = first_faulty_notes(&sim.trace().events, mgr);
        let t0 = firsts
            .iter()
            .find(|&&(p, _)| p == injector)
            .map(|&(_, t)| t)
            .expect("the injector itself must note the suspicion");
        for p in sim.living() {
            if p == mgr {
                continue; // the spuriously-suspected coordinator quits or is excluded
            }
            let &(_, t) = firsts
                .iter()
                .find(|&&(q, _)| q == p)
                .unwrap_or_else(|| panic!(
                    "n={n} k={k} seed={seed}: survivor {p} never learned Faulty{{{mgr}}}"
                ));
            prop_assert!(
                t <= t0 + rounds * heartbeat,
                "n={n} k={k} seed={seed}: {p} learned at t={t}, \
                 more than {rounds} relay rounds after the injection at t={t0}"
            );
        }
        // The relayed belief must also have *consequences*: the group
        // reconfigures around the suspected coordinator.
        for p in sim.living() {
            if p == mgr {
                continue;
            }
            prop_assert!(
                !sim.node(p).view().contains(mgr),
                "n={n} k={k} seed={seed}: {p} still has the suspected Mgr in its view"
            );
        }
    }
}
