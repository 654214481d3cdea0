//! Network model: seeded delays, FIFO scheduling, link control, partitions.
//!
//! Channels are *reliable and FIFO* by default (§2.1). Experiments may
//! block links (messages held until released, modelling arbitrarily long
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

/// Link-level state: delays, blocks, partitions, FIFO bookkeeping.
///
/// The per-link tables are only ever probed by key — nothing iterates
/// them — so their hasher is free to be the cheap integer one.
#[derive(Debug)]
pub(crate) struct NetState {
    delay_min: Time,
    delay_max: Time,
    fifo: bool,
    /// Per-directed-link blocks.
    blocked: IntMap<(u32, u32), BlockMode>,
    /// Partition id per process; `None` means fully connected.
    partition: Option<Vec<usize>>,
    /// Per-directed-link delay overrides.
    delay_override: IntMap<(u32, u32), (Time, Time)>,
    /// Last scheduled delivery time per directed link (FIFO enforcement).
    last_sched: IntMap<(u32, u32), Time>,
}

impl NetState {
    pub(crate) fn new(delay_min: Time, delay_max: Time, fifo: bool) -> Self {
        assert!(
            delay_min <= delay_max,
            "delay_min must not exceed delay_max"
        );
        assert!(delay_min >= 1, "delays must be at least one tick");
        NetState {
            delay_min,
            delay_max,
            fifo,
            blocked: IntMap::default(),
            partition: None,
            delay_override: IntMap::default(),
            last_sched: IntMap::default(),
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
    /// maintaining per-link FIFO order when enabled.
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
        if self.fifo {
            let last = self.last_sched.entry((from.0, to.0)).or_insert(0);
            if at <= *last {
                at = last.saturating_add(1);
            }
            *last = at;
        }
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
    use rand::SeedableRng;

    #[test]
    fn fifo_scheduling_is_monotone_per_link() {
        let mut net = NetState::new(1, 50, true);
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
        let mut net = NetState::new(5, 5, true);
        let mut rng = SmallRng::seed_from_u64(7);
        let a = net.schedule(&mut rng, 0, ProcessId(0), ProcessId(1));
        let b = net.schedule(&mut rng, 0, ProcessId(0), ProcessId(2));
        assert_eq!(a, 5);
        assert_eq!(b, 5); // different link, same sample: no ordering forced
    }

    #[test]
    fn blocks_and_partitions() {
        let mut net = NetState::new(1, 2, true);
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
        let mut net = NetState::new(1, 2, true);
        let mut rng = SmallRng::seed_from_u64(1);
        let (a, b) = (ProcessId(0), ProcessId(1));
        net.set_delay_override(a, b, Some((u64::MAX, u64::MAX)));
        assert_eq!(net.schedule(&mut rng, 5, a, b), u64::MAX);
        net.set_delay_override(a, b, None);
        assert_eq!(net.schedule(&mut rng, 6, a, b), u64::MAX);
    }

    #[test]
    fn delay_override_is_used() {
        let mut net = NetState::new(1, 2, false);
        let mut rng = SmallRng::seed_from_u64(1);
        net.set_delay_override(ProcessId(0), ProcessId(1), Some((100, 100)));
        assert_eq!(net.schedule(&mut rng, 10, ProcessId(0), ProcessId(1)), 110);
        net.set_delay_override(ProcessId(0), ProcessId(1), None);
        let at = net.schedule(&mut rng, 10, ProcessId(0), ProcessId(1));
        assert!((11..=12).contains(&at));
    }
}
