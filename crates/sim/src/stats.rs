//! Message accounting for complexity experiments (§7.2), and order
//! statistics for aggregating one metric across a batch of seeded runs.

/// Per-tag send counters, one per entry of the trace's tag table and at
/// the same index, so a send is counted without a second lookup. The
/// table gives the same text at a second address (another codegen unit's
/// copy of a literal, a leaked `String`) an entry of its own; everything
/// that reads the counters goes by text, so such entries add up.
#[derive(Clone, Debug, Default)]
struct TagCounts(Vec<(&'static str, u64)>);

impl TagCounts {
    fn get(&self, tag: &str) -> u64 {
        self.0.iter().filter(|(t, _)| *t == tag).map(|e| e.1).sum()
    }

    /// The counters sorted by tag, one per text: the form that depends on
    /// neither the order the tags were first seen in nor their addresses.
    fn sorted(&self) -> Vec<(&'static str, u64)> {
        let mut pairs = self.0.clone();
        pairs.sort_unstable();
        pairs.dedup_by(|next, kept| {
            next.0 == kept.0 && {
                kept.1 += next.1;
                true
            }
        });
        pairs
    }
}

impl PartialEq for TagCounts {
    fn eq(&self, other: &Self) -> bool {
        self.sorted() == other.sorted()
    }
}

impl Eq for TagCounts {}

/// Counters over a run, keyed by message tag.
///
/// The benchmarks use these to regenerate the paper's message-complexity
/// tables: a broadcast counts one message per receiver, a process never
/// messages itself, and heartbeats / reports / state transfer are excluded
/// by tag filtering (see `EXPERIMENTS.md` for the counting convention).
///
/// Deliveries are not counted here: each one is a `Recv` in the trace.
///
/// Equality compares every counter, so two runs with equal `Stats` sent
/// exactly the same per-tag message counts and dropped and held the same
/// numbers — the comparison replay-determinism checks rest on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    sends: TagCounts,
    /// Messages addressed to a crashed or quit process.
    pub dropped_dead_receiver: u64,
    /// Messages dropped by a severed link.
    pub dropped_link: u64,
    /// Messages currently held on blocked links or across partitions.
    pub held: u64,
}

impl Stats {
    /// Counts a send of `tag`, whose index in the trace's tag table is
    /// `k`. Indices are dense in first-send order, so a new one is the
    /// next entry.
    #[inline]
    pub(crate) fn record_send(&mut self, k: u32, tag: &'static str) {
        match self.sends.0.get_mut(k as usize) {
            Some((_, count)) => *count += 1,
            None => {
                debug_assert_eq!(k as usize, self.sends.0.len(), "tag indices are dense");
                self.sends.0.push((tag, 1));
            }
        }
    }

    /// Number of messages sent with the given tag.
    pub fn sends(&self, tag: &str) -> u64 {
        self.sends.get(tag)
    }

    /// Total messages sent across all tags.
    pub fn sends_total(&self) -> u64 {
        self.sends_matching(|_| true)
    }

    /// Sum of send counts over tags accepted by `filter`.
    pub fn sends_matching<F>(&self, mut filter: F) -> u64
    where
        F: FnMut(&str) -> bool,
    {
        self.sends
            .0
            .iter()
            .filter(|(t, _)| filter(t))
            .map(|(_, c)| *c)
            .sum()
    }
}

/// Order statistics of one metric over many runs, such as one value per
/// seed of a sweep.
///
/// Percentiles use the nearest-rank definition: `p`-th percentile = the
/// smallest value such that at least `p`% of samples are ≤ it. An empty
/// sample yields all-zero statistics with `count == 0`.
///
/// ```
/// use gmp_sim::Summary;
///
/// let s = Summary::of(&[4, 1, 3, 2, 5]);
/// assert_eq!((s.count, s.min, s.max), (5, 1, 5));
/// assert_eq!(s.p50, 3);
/// assert_eq!(s.mean, 3.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile, nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
}

impl Summary {
    /// Summarizes a sample (order irrelevant).
    pub fn of(values: &[u64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let pct = |p: f64| -> u64 {
            // Nearest rank: ceil(p/100 * count), 1-based.
            let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Summary {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            // Summed in `u128`: samples near `u64::MAX` must not wrap.
            mean: sorted.iter().map(|&v| u128::from(v)).sum::<u128>() as f64 / sorted.len() as f64,
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Events;
    use gmp_types::ProcessId;

    /// The counters of a run that sent `tags`, each counted at its index
    /// in a trace's tag table, as the engine counts it.
    fn count(tags: &[&'static str]) -> Stats {
        let mut events = Events::default();
        let mut s = Stats::default();
        for &tag in tags {
            s.record_send(events.push_send(0, ProcessId(0), ProcessId(1), tag), tag);
        }
        s
    }

    #[test]
    fn counting() {
        let s = count(&["a", "a", "b"]);
        assert_eq!(s.sends("a"), 2);
        assert_eq!(s.sends("b"), 1);
        assert_eq!(s.sends("c"), 0);
        assert_eq!(s.sends_total(), 3);
        assert_eq!(s.sends_matching(|t| t == "a"), 2);
        assert_eq!(s, count(&["b", "a", "a"]), "exactly a: 2 and b: 1");
    }

    #[test]
    fn equality_ignores_the_order_tags_were_first_seen_in() {
        let a = count(&["x", "y", "y"]);
        assert_eq!(a, count(&["y", "x", "y"]), "same per-tag counts");
        assert_ne!(a, count(&["y", "x", "y", "x"]), "a count differs");
        assert_ne!(
            count(&["x", "y", "y", "z"]),
            count(&["y", "x", "y", "x"]),
            "equal totals, different tags"
        );
        let mut c = a.clone();
        c.held += 1;
        assert_ne!(a, c, "the drop and hold counters compare too");
    }

    #[test]
    fn equal_text_at_another_address_lands_in_the_same_counter() {
        // The same tag text from a second address — another codegen unit's
        // copy of a literal, here a leaked `String` — takes an entry of its
        // own in the tag table, and must still aggregate, whichever copy
        // came first.
        let leaked: &'static str = Box::leak(String::from("hb").into_boxed_str());
        assert!(!std::ptr::eq(leaked, "hb"));
        let s = count(&["zz", leaked, "hb", "aa", leaked, "hb"]);
        assert_eq!(s.sends("hb"), 4);
        assert_eq!(s.sends_total(), 6);
        assert_eq!(s.sends_matching(|t| t == "hb"), 4);
        assert_eq!((s.sends("aa"), s.sends("zz")), (1, 1));
        let expected = count(&["aa", "hb", "hb", "hb", "hb", "zz"]);
        assert_eq!(s, expected, "one hb counter, not one per address");
    }

    #[test]
    fn summary_order_statistics() {
        let s = Summary::of(&[10, 30, 20, 50, 40]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 50);
        assert_eq!(s.mean, 30.0);
        assert_eq!(s.p50, 30);
        assert_eq!(s.p90, 50);
        assert_eq!(s.p99, 50);
    }

    #[test]
    fn summary_large_sample_percentiles() {
        // 1..=100: nearest-rank percentiles are exact.
        let values: Vec<u64> = (1..=100).collect();
        let s = Summary::of(&values);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 99);
        assert_eq!(s.mean, 50.5);
    }

    #[test]
    fn summary_edge_cases() {
        assert_eq!(Summary::of(&[]), Summary::default());
        let one = Summary::of(&[7]);
        assert_eq!((one.min, one.p50, one.p99, one.max), (7, 7, 7, 7));
        assert_eq!(one.count, 1);
        assert_eq!((one.p90, one.mean), (7, 7.0));
    }

    #[test]
    fn summary_two_samples() {
        // Nearest rank at len 2: rank(50) = ceil(1.0) = 1 → the smaller
        // sample; rank(90) = ceil(1.8) = 2 and rank(99) = 2 → the larger.
        let s = Summary::of(&[10, 2]);
        assert_eq!(s.count, 2);
        assert_eq!((s.min, s.max), (2, 10));
        assert_eq!(s.p50, 2);
        assert_eq!((s.p90, s.p99), (10, 10));
        assert_eq!(s.mean, 6.0);
    }

    /// Samples at the top of the range (`end_time`s of runs swept to
    /// `Time::MAX`) sum past `u64::MAX` without wrapping the mean.
    #[test]
    fn summary_mean_does_not_overflow() {
        assert_eq!(Summary::of(&[u64::MAX, u64::MAX]).mean, u64::MAX as f64);
    }

    #[test]
    fn summary_all_equal_inputs() {
        for len in [1usize, 2, 3, 17] {
            let values = vec![42u64; len];
            let s = Summary::of(&values);
            assert_eq!(s.count, len);
            assert_eq!(
                (s.min, s.p50, s.p90, s.p99, s.max),
                (42, 42, 42, 42, 42),
                "len {len}: every order statistic of a constant sample is 42"
            );
            assert_eq!(s.mean, 42.0);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Explicit case budget; failures replay via the per-case seeds
            // recorded in proptest-regressions/.
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Order statistics are monotone in the percentile for any
            /// sample: min ≤ p50 ≤ p90 ≤ p99 ≤ max (and every one is an
            /// actual sample value, which nearest-rank guarantees).
            #[test]
            fn percentiles_are_monotone(values in proptest::collection::vec(0u64..=u64::MAX, 1..80)) {
                let s = Summary::of(&values);
                prop_assert_eq!(s.count, values.len());
                prop_assert!(s.min <= s.p50);
                prop_assert!(s.p50 <= s.p90);
                prop_assert!(s.p90 <= s.p99);
                prop_assert!(s.p99 <= s.max);
                prop_assert!(values.contains(&s.p50) && values.contains(&s.p99));
                prop_assert!(s.min as f64 <= s.mean && s.mean <= s.max as f64);
            }
        }
    }
}
