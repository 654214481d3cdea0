//! The monitoring-graph layer: who heartbeats (and digests to) whom.
//!
//! The paper's protocol implicitly assumes a *clique*: every member
//! heartbeats every other member, so failure detection (F1) is direct and
//! gossip (F2) reaches everyone in one hop. That is exactly what caps
//! practical group sizes — heartbeat fan-out is Θ(n²) per interval.
//!
//! This module lifts the graph into a first-class, swappable [`Topology`]:
//! the member recomputes its *monitoring set* from the configured topology
//! on every view install and confines heartbeats (with their piggybacked
//! faulty-set digests) to that set. Everything *agreement-critical* stays
//! global and untouched: update/reconfiguration broadcasts, await sets,
//! majorities and point-to-point suspicion reports to `Mgr` are addressed
//! to the whole view regardless of topology — the graph only decides where
//! failure *detection* and gossip *dissemination* happen.
//!
//! On a sparse graph, completeness is restored by **suspicion relay**: a
//! member that learns `Faulty{p}` — by its own timeout or via a received
//! digest — adds `p` to its faulty set, which changes the digest it
//! carries, which re-publishes the suspicion to *its* monitors on the next
//! beat. Suspicions therefore flood the monitoring graph hop by hop, and
//! any connected graph eventually informs every surviving member (Sens &
//! Arantes et al. make the same argument for failure detectors under
//! partial connectivity; Duarte's system-level diagnosis model is the
//! classic source for "any connected test graph suffices").
//!
//! # Contract
//!
//! * `monitors(me, view)` must be **symmetric** (`q ∈ monitors(p) ⇔
//!   p ∈ monitors(q)`): heartbeats are sent to exactly the monitoring set,
//!   so an asymmetric graph would beat peers that never enrolled the
//!   sender — their detector (correctly) ignores strangers and every
//!   digest would be re-carried forever.
//! * The graph over any view's *surviving* members should be connected,
//!   or relayed suspicions cannot reach everyone.
//! * `me ∉ monitors(me, view)`; every returned peer is a view member.
//! * The result must be a pure function of `(me, view)` — it is recomputed
//!   at every view install on every member, and determinism of whole runs
//!   rests on it.
//! * Peers must be returned in *view (seniority) order*: the order decides
//!   detector-arena slot assignment and heartbeat send order, both of
//!   which are pinned byte-identical for [`Flat`] by the golden tests.

use gmp_types::{ProcessId, View};
use std::fmt;

/// A monitoring graph over the current view.
///
/// Implementations are shared by every member of a cluster via
/// `Arc<dyn Topology>` (see [`Config::topology`](crate::Config)), so they
/// must be `Send + Sync` and carry no per-member state.
pub trait Topology: fmt::Debug + Send + Sync {
    /// The peers `me` monitors in `view`: heartbeat targets, digest
    /// carriers, and failure-detector enrollment. See the module docs for
    /// the symmetry/connectivity/purity contract.
    fn monitors(&self, me: ProcessId, view: &View) -> Vec<ProcessId>;
}

/// The paper's implicit clique: everyone monitors everyone else.
///
/// This is the default and reproduces the pre-topology engine
/// byte-for-byte (pinned by the goldens in `tests/determinism.rs` and
/// `tests/topology.rs`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Flat;

impl Topology for Flat {
    fn monitors(&self, me: ProcessId, view: &View) -> Vec<ProcessId> {
        view.iter().filter(|&p| p != me).collect()
    }
}

/// A k-regular ring of neighbors over the view's seniority order.
///
/// Member at seniority index `i` monitors the `⌈k/2⌉` members on each side
/// of it (indices `i ± 1..=⌈k/2⌉`, modulo the view size) — a symmetric
/// circulant graph of effective degree `min(2·⌈k/2⌉, n−1)`, diameter
/// `⌈(n−1)/2⌉ / ⌈k/2⌉` hops. Heartbeat load drops from Θ(n²) to Θ(n·k)
/// per interval; a suspicion reaches the whole ring in diameter-many
/// relay rounds (each round ≤ one heartbeat interval once the carrier has
/// beaten all its monitors).
///
/// `k ≥ 2` keeps the graph connected under any single failure pattern the
/// protocol survives anyway; `k ≥ n − 1` degenerates to [`Flat`].
#[derive(Clone, Copy, Debug)]
pub struct Sparse {
    /// Requested degree; the ring realizes `2·⌈k/2⌉` (capped at `n−1`).
    pub k: usize,
}

impl Sparse {
    /// A ring of degree (at least) `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`: degree-1 rings disconnect on the first failure.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "a sparse ring needs degree k >= 2");
        Sparse { k }
    }
}

impl Topology for Sparse {
    fn monitors(&self, me: ProcessId, view: &View) -> Vec<ProcessId> {
        let n = view.len();
        let Some(i) = view.index_of(me) else {
            // Not (yet) a member — e.g. a joiner bootstrapping from its
            // Welcome before the add committed everywhere. Monitor no one;
            // the next view install recomputes.
            return Vec::new();
        };
        let half = self.k.div_ceil(2);
        if half * 2 >= n.saturating_sub(1) {
            return view.iter().filter(|&p| p != me).collect();
        }
        let mut picked = vec![false; n];
        for d in 1..=half {
            picked[(i + d) % n] = true;
            picked[(i + n - d) % n] = true;
        }
        picked[i] = false;
        view.iter()
            .enumerate()
            .filter(|&(j, _)| picked[j])
            .map(|(_, p)| p)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n: u32) -> View {
        (0..n).map(ProcessId).collect()
    }

    /// The contract every impl must hold: symmetry, no self-loops, members
    /// only, view order.
    fn check_contract(t: &dyn Topology, v: &View) {
        for p in v.iter() {
            let m = t.monitors(p, v);
            assert!(!m.contains(&p), "{t:?}: {p} monitors itself");
            let mut last = None;
            for q in &m {
                assert!(v.contains(*q), "{t:?}: {p} monitors non-member {q}");
                let idx = v.index_of(*q);
                assert!(last < Some(idx), "{t:?}: {p}'s monitors not in view order");
                last = Some(idx);
                assert!(
                    t.monitors(*q, v).contains(&p),
                    "{t:?}: asymmetric edge {p} -> {q}"
                );
            }
        }
    }

    #[test]
    fn flat_is_the_clique() {
        let v = view(6);
        check_contract(&Flat, &v);
        for p in v.iter() {
            assert_eq!(Flat.monitors(p, &v).len(), 5);
        }
        // Exactly the order the pre-topology engine enumerated.
        assert_eq!(
            Flat.monitors(ProcessId(2), &v),
            [0, 1, 3, 4, 5].map(ProcessId).to_vec()
        );
    }

    #[test]
    fn sparse_ring_has_even_degree_and_wraps() {
        let v = view(8);
        let t = Sparse::new(2);
        check_contract(&t, &v);
        for p in v.iter() {
            assert_eq!(t.monitors(p, &v).len(), 2, "{p}");
        }
        // p0's ring neighbors are indices 1 and 7.
        assert_eq!(t.monitors(ProcessId(0), &v), [1, 7].map(ProcessId).to_vec());
        // Odd k rounds up to the next even degree.
        let t3 = Sparse::new(3);
        check_contract(&t3, &v);
        assert_eq!(t3.monitors(ProcessId(0), &v).len(), 4);
    }

    #[test]
    fn sparse_degenerates_to_flat_on_small_views() {
        for n in 2..=6u32 {
            let v = view(n);
            let t = Sparse::new(6);
            check_contract(&t, &v);
            for p in v.iter() {
                assert_eq!(t.monitors(p, &v), Flat.monitors(p, &v), "n={n} {p}");
            }
        }
    }

    #[test]
    fn sparse_is_connected_by_construction() {
        // Offsets ±1 are always included (k >= 2), so the plain ring is a
        // subgraph: connectivity is immediate. Spot-check reachability.
        let v = view(9);
        let t = Sparse::new(2);
        let mut reach = [false; 9];
        let mut frontier = vec![ProcessId(0)];
        reach[0] = true;
        while let Some(p) = frontier.pop() {
            for q in t.monitors(p, &v) {
                if !reach[q.index()] {
                    reach[q.index()] = true;
                    frontier.push(q);
                }
            }
        }
        assert!(reach.iter().all(|&r| r));
    }

    #[test]
    fn strangers_monitor_no_one() {
        let v = view(5);
        let outsider = ProcessId(99);
        assert!(Sparse::new(2).monitors(outsider, &v).is_empty());
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn degree_one_rings_are_rejected() {
        let _ = Sparse::new(1);
    }
}
