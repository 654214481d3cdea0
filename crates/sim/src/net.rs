//! Network model: seeded delays, FIFO scheduling, link control, partitions.
//!
//! Channels are always FIFO and *reliable* by default (§2.1). Experiments
//! may block links (messages held until released, modelling arbitrarily long
//! delay) or sever them (messages dropped — used only by baseline
//! counter-example scenarios), and may partition the process set.

use crate::hash::IntMap;
use crate::Time;
use gmp_types::ProcessId;
use rand::rngs::SmallRng;
use rand::Rng;

/// What a blocked link does with traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockMode {
    /// Messages are held and delivered when the link is unblocked — the
    /// model-faithful "unbounded delay" behaviour.
    Hold,
    /// Messages are silently dropped. Outside the paper's model (channels
    /// are reliable); used by baseline violation demos where the run ends
    /// before a held message could legally be delivered anyway.
    Drop,
}

/// One sender's FIFO bookkeeping: the last scheduled delivery time per
/// receiver it has sent to, sorted by receiver, and the index of its
/// previous send.
///
/// A member's broadcasts and heartbeat fan-outs go out in view order,
/// which is ascending receiver order when processes join in pid order, so
/// the next lookup is almost always at `cursor + 1` (the next receiver of
/// the fan-out) or at `cursor` (a second message to the same peer); only
/// the first send of a fan-out and sends out of order binary-search. A
/// row holds exactly the links its sender has used, so memory stays
/// O(links used) at any n.
#[derive(Debug, Default)]
struct LinkRow {
    links: Vec<(u32, Time)>,
    cursor: usize,
}

impl LinkRow {
    /// The last delivery time scheduled on the link to `to`, 0 if none yet.
    fn last_mut(&mut self, to: u32) -> &mut Time {
        let at = |i: usize| self.links.get(i).is_some_and(|l| l.0 == to);
        let i = if at(self.cursor + 1) {
            self.cursor + 1
        } else if at(self.cursor) {
            self.cursor
        } else {
            self.seek(to)
        };
        self.cursor = i;
        &mut self.links[i].1
    }

    /// The index of `to`'s pair, inserted in sorted position if new. Out
    /// of line, so the send path it is inlined into keeps only the two
    /// cursor compares.
    #[inline(never)]
    fn seek(&mut self, to: u32) -> usize {
        match self.links.binary_search_by_key(&to, |l| l.0) {
            Ok(i) => i,
            Err(i) => {
                self.links.insert(i, (to, 0));
                debug_assert!(self.links.windows(2).all(|w| w[0].0 < w[1].0));
                i
            }
        }
    }
}

/// Link-level state: delays, blocks, partitions, FIFO bookkeeping.
///
/// `blocked` and `delay_override` are only ever probed by key — nothing
/// iterates them — so their hasher is free to be the cheap integer one.
/// Both are empty unless an experiment sets a link, and a probe of an
/// empty table returns at once.
#[derive(Debug)]
pub(crate) struct NetState {
    delay_min: Time,
    delay_max: Time,
    /// Per-directed-link blocks.
    blocked: IntMap<(u32, u32), BlockMode>,
    /// Partition id per process; `None` means fully connected.
    partition: Option<Vec<usize>>,
    /// Per-directed-link delay overrides.
    delay_override: IntMap<(u32, u32), (Time, Time)>,
    /// Last scheduled delivery time per directed link (FIFO enforcement),
    /// one row per sender pid, grown on a sender's first send.
    last_sched: Vec<LinkRow>,
}

impl NetState {
    pub(crate) fn new(delay_min: Time, delay_max: Time) -> Self {
        assert!(
            delay_min <= delay_max,
            "delay_min must not exceed delay_max"
        );
        assert!(delay_min >= 1, "delays must be at least one tick");
        NetState {
            delay_min,
            delay_max,
            blocked: IntMap::default(),
            partition: None,
            delay_override: IntMap::default(),
            last_sched: Vec::new(),
        }
    }

    /// Whether traffic from `from` to `to` currently passes, and if not,
    /// what happens to it.
    pub(crate) fn fate(&self, from: ProcessId, to: ProcessId) -> Option<BlockMode> {
        if let Some(mode) = self.blocked.get(&(from.0, to.0)) {
            return Some(*mode);
        }
        if let Some(groups) = &self.partition {
            let gf = groups.get(from.index()).copied().unwrap_or(usize::MAX);
            let gt = groups.get(to.index()).copied().unwrap_or(usize::MAX);
            if gf != gt {
                // A partition is indistinguishable from unbounded delay in
                // the model, so held (not dropped).
                return Some(BlockMode::Hold);
            }
        }
        None
    }

    /// Samples a delivery time for a message sent `from -> to` at `now`,
    /// maintaining per-link FIFO order.
    pub(crate) fn schedule(
        &mut self,
        rng: &mut SmallRng,
        now: Time,
        from: ProcessId,
        to: ProcessId,
    ) -> Time {
        let (lo, hi) = self
            .delay_override
            .get(&(from.0, to.0))
            .copied()
            .unwrap_or((self.delay_min, self.delay_max));
        let delay = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
        // Saturating: a delivery past the end of time stays there, and
        // events at one time pop in `seq` order, so FIFO holds at
        // `Time::MAX` too.
        let mut at = now.saturating_add(delay);
        let f = from.index();
        if f >= self.last_sched.len() {
            self.last_sched.resize_with(f + 1, LinkRow::default);
        }
        let last = self.last_sched[f].last_mut(to.0);
        if at <= *last {
            at = last.saturating_add(1);
        }
        *last = at;
        at
    }

    pub(crate) fn block(&mut self, from: ProcessId, to: ProcessId, mode: BlockMode) {
        self.blocked.insert((from.0, to.0), mode);
    }

    pub(crate) fn unblock(&mut self, from: ProcessId, to: ProcessId) {
        self.blocked.remove(&(from.0, to.0));
    }

    pub(crate) fn set_partition(&mut self, groups: Option<Vec<usize>>) {
        self.partition = groups;
    }

    /// Partitions the processes `0..n` into `groups`.
    ///
    /// # Panics
    ///
    /// Panics unless each of them appears in exactly one group, and no
    /// other process appears in any.
    pub(crate) fn partition(&mut self, n: usize, groups: &[Vec<ProcessId>]) {
        const ONE_GROUP: &str = "every process must appear in exactly one partition group";
        let mut assignment = vec![None; n];
        for (g, members) in groups.iter().enumerate() {
            for p in members {
                let unassigned = assignment.get_mut(p.index()).filter(|a| a.is_none());
                *unassigned.expect(ONE_GROUP) = Some(g);
            }
        }
        let assignment = assignment.into_iter().map(|g| g.expect(ONE_GROUP));
        self.set_partition(Some(assignment.collect()));
    }

    pub(crate) fn set_delay_override(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        range: Option<(Time, Time)>,
    ) {
        match range {
            Some((lo, hi)) => {
                assert!(lo >= 1 && lo <= hi, "invalid delay override");
                self.delay_override.insert((from.0, to.0), (lo, hi));
            }
            None => {
                self.delay_override.remove(&(from.0, to.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// The per-link hash map the sender rows replaced, with the same
    /// delay sampling and FIFO clamp.
    struct Reference {
        delay_override: IntMap<(u32, u32), (Time, Time)>,
        last_sched: IntMap<(u32, u32), Time>,
    }

    impl Reference {
        fn schedule(&mut self, rng: &mut SmallRng, now: Time, from: u32, to: u32) -> Time {
            let (lo, hi) = self
                .delay_override
                .get(&(from, to))
                .copied()
                .unwrap_or(DELAY);
            let delay = if lo == hi { lo } else { rng.gen_range(lo..=hi) };
            let mut at = now.saturating_add(delay);
            let last = self.last_sched.entry((from, to)).or_insert(0);
            if at <= *last {
                at = last.saturating_add(1);
            }
            *last = at;
            at
        }
    }

    /// Processes in the oracle's runs: few enough that links repeat.
    const N: u32 = 12;
    /// The default delay range of the oracle's runs.
    const DELAY: (Time, Time) = (1, 10);

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Any sequence of ascending fan-outs (some skipping receivers),
        /// repeat sends to one peer, descending fan-outs, single sends in
        /// random order, delay overrides set and cleared, and deliveries
        /// pushed to the end of time returns exactly the delivery times the
        /// hash map returned.
        #[test]
        fn schedules_exactly_like_the_link_map(
            ops in proptest::collection::vec((0u8..9, 0..N, 0..N, 0u64..1_000), 1..200),
        ) {
            let mut net = NetState::new(DELAY.0, DELAY.1);
            let mut reference = Reference {
                delay_override: IntMap::default(),
                last_sched: IntMap::default(),
            };
            let (mut rng, mut ref_rng) = (SmallRng::seed_from_u64(3), SmallRng::seed_from_u64(3));
            let mut now: Time = 0;
            for (op, a, b, x) in ops {
                let sends: Vec<u32> = match op {
                    // Ascending fan-out, every peer or every peer but a few.
                    0 => (0..N).filter(|&r| r != a).collect(),
                    1 => (0..N).filter(|&r| r != a && (u64::from(r) + x) % 3 != 0).collect(),
                    // Repeat sends to one peer.
                    2 => vec![b; 1 + (x % 4) as usize],
                    // Descending fan-out.
                    3 => (0..N).rev().filter(|&r| r != a).collect(),
                    // One send, in no particular order.
                    4 => vec![b],
                    5 => {
                        let lo = 1 + x % 50;
                        let range = (lo, lo + x % 3);
                        net.set_delay_override(ProcessId(a), ProcessId(b), Some(range));
                        reference.delay_override.insert((a, b), range);
                        vec![b]
                    }
                    6 => {
                        net.set_delay_override(ProcessId(a), ProcessId(b), None);
                        reference.delay_override.remove(&(a, b));
                        vec![b]
                    }
                    // A link whose deliveries saturate at the end of time.
                    7 => {
                        let range = (Time::MAX, Time::MAX);
                        net.set_delay_override(ProcessId(a), ProcessId(b), Some(range));
                        reference.delay_override.insert((a, b), range);
                        vec![b, b]
                    }
                    // The clock itself near the end of time.
                    _ => {
                        now = now.max(Time::MAX - x);
                        (0..N).filter(|&r| r != a).collect()
                    }
                };
                for to in sends {
                    let got = net.schedule(&mut rng, now, ProcessId(a), ProcessId(to));
                    prop_assert_eq!(got, reference.schedule(&mut ref_rng, now, a, to));
                }
                now = now.saturating_add(x % 5);
            }
        }
    }

    /// `sparse1024`'s send shape — a degree-4 ring at n = 1024, every node
    /// reporting to p0 and one p0 broadcast to all — leaves each sender's
    /// row holding exactly the receivers it sent to: a row grows to n only
    /// for a sender that did send to everyone. (A dense n × n table would
    /// hold 1 Mi entries here.)
    #[test]
    fn rows_hold_only_the_links_used() {
        const NODES: u32 = 1024;
        let mut net = NetState::new(1, 10);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut used = BTreeSet::new();
        let mut send = |net: &mut NetState, from: u32, to: u32| {
            net.schedule(&mut rng, 0, ProcessId(from), ProcessId(to));
            used.insert((from, to));
        };
        for round in 0..3 {
            for p in 0..NODES {
                let mut ring = [1, 2, NODES - 1, NODES - 2].map(|d| (p + d) % NODES);
                ring.sort_unstable();
                for to in ring {
                    send(&mut net, p, to);
                }
                if p != 0 && round == 1 {
                    send(&mut net, p, 0);
                }
            }
        }
        for to in 1..NODES {
            send(&mut net, 0, to);
        }
        let held: BTreeSet<(u32, u32)> = (0u32..)
            .zip(&net.last_sched)
            .flat_map(|(from, row)| row.links.iter().map(move |l| (from, l.0)))
            .collect();
        assert_eq!(held, used);
        assert_eq!(
            net.last_sched.iter().map(|r| r.links.len()).sum::<usize>(),
            used.len()
        );
        assert_eq!(net.last_sched[0].links.len(), NODES as usize - 1);
        let widest = net.last_sched[1..].iter().map(|r| r.links.len()).max();
        assert_eq!(widest, Some(5));
    }

    #[test]
    fn fifo_scheduling_is_monotone_per_link() {
        let mut net = NetState::new(1, 50);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut last = 0;
        for now in 0..100 {
            let at = net.schedule(&mut rng, now, ProcessId(0), ProcessId(1));
            assert!(at > last, "delivery times must strictly increase per link");
            last = at;
        }
    }

    #[test]
    fn independent_links_are_not_ordered() {
        let mut net = NetState::new(5, 5);
        let mut rng = SmallRng::seed_from_u64(7);
        let a = net.schedule(&mut rng, 0, ProcessId(0), ProcessId(1));
        let b = net.schedule(&mut rng, 0, ProcessId(0), ProcessId(2));
        assert_eq!(a, 5);
        assert_eq!(b, 5); // different link, same sample: no ordering forced
    }

    #[test]
    fn blocks_and_partitions() {
        let mut net = NetState::new(1, 2);
        assert_eq!(net.fate(ProcessId(0), ProcessId(1)), None);
        net.block(ProcessId(0), ProcessId(1), BlockMode::Drop);
        assert_eq!(net.fate(ProcessId(0), ProcessId(1)), Some(BlockMode::Drop));
        assert_eq!(net.fate(ProcessId(1), ProcessId(0)), None); // directed
        net.unblock(ProcessId(0), ProcessId(1));
        assert_eq!(net.fate(ProcessId(0), ProcessId(1)), None);

        net.set_partition(Some(vec![0, 0, 1]));
        assert_eq!(net.fate(ProcessId(0), ProcessId(2)), Some(BlockMode::Hold));
        assert_eq!(net.fate(ProcessId(0), ProcessId(1)), None);
        net.set_partition(None);
        assert_eq!(net.fate(ProcessId(0), ProcessId(2)), None);
    }

    /// Deliveries past the end of time saturate at `Time::MAX` rather
    /// than wrap around, and a FIFO link keeps them there.
    #[test]
    fn deliveries_past_the_end_of_time_saturate() {
        let mut net = NetState::new(1, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        let (a, b) = (ProcessId(0), ProcessId(1));
        net.set_delay_override(a, b, Some((u64::MAX, u64::MAX)));
        assert_eq!(net.schedule(&mut rng, 5, a, b), u64::MAX);
        net.set_delay_override(a, b, None);
        assert_eq!(net.schedule(&mut rng, 6, a, b), u64::MAX);
    }

    #[test]
    fn delay_override_is_used() {
        let mut net = NetState::new(1, 2);
        let mut rng = SmallRng::seed_from_u64(1);
        net.set_delay_override(ProcessId(0), ProcessId(1), Some((100, 100)));
        assert_eq!(net.schedule(&mut rng, 10, ProcessId(0), ProcessId(1)), 110);
        net.set_delay_override(ProcessId(0), ProcessId(1), None);
        // Past the FIFO clamp of the overridden delivery at 110.
        let at = net.schedule(&mut rng, 200, ProcessId(0), ProcessId(1));
        assert!((201..=202).contains(&at));
    }
}
