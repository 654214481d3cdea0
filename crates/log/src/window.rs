//! A dense map over a moving run of log slots.
//!
//! Slot numbers are dense and monotone, and every per-slot table of the
//! log holds a short run of them just above the applied prefix — so a
//! ring of `Option<T>` indexed by `slot - start` does the work of a
//! `BTreeMap<u64, T>` with one bounds check per lookup. The window keeps
//! itself tight: it is empty or both its first and last cell are
//! occupied, so removing the lowest slot *is* the pop that advances it.
//!
//! Each slot can also carry a fixed-width bit set (`bits` per slot, fixed
//! at construction, stored in one flat ring beside the cells — no
//! per-slot allocation): the leader's ack set, one bit per view rank.

use std::collections::VecDeque;

/// Most cells a window spans. Real runs stay within a few thousand (the
/// in-flight window, or a joiner's tail); a slot number off the wire must
/// not be able to demand more memory than this.
pub(crate) const MAX_SPAN: u64 = 1 << 22;

#[derive(Clone, Debug)]
pub(crate) struct SlotWindow<T> {
    /// Slot of `cells[0]`.
    start: u64,
    cells: VecDeque<Option<T>>,
    /// Occupied cells.
    live: usize,
    /// `words` mark words per cell, in cell order.
    marks: VecDeque<u64>,
    words: usize,
}

impl<T> SlotWindow<T> {
    /// An empty window whose slots each carry `bits` mark bits.
    pub(crate) fn new(bits: usize) -> Self {
        SlotWindow {
            start: 0,
            cells: VecDeque::new(),
            live: 0,
            marks: VecDeque::new(),
            words: bits.div_ceil(64),
        }
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The half-open slot range from the lowest to past the highest
    /// occupied slot (empty when the window is).
    pub(crate) fn span(&self) -> std::ops::Range<u64> {
        self.start..self.start + self.cells.len() as u64
    }

    fn index(&self, slot: u64) -> Option<usize> {
        let i = slot.checked_sub(self.start)?;
        (i < self.cells.len() as u64).then_some(i as usize)
    }

    pub(crate) fn get(&self, slot: u64) -> Option<&T> {
        self.cells[self.index(slot)?].as_ref()
    }

    /// Occupied slots at or above `from`, ascending.
    pub(crate) fn range_from(&self, from: u64) -> impl Iterator<Item = (u64, &T)> {
        let skip = from.saturating_sub(self.start).min(self.cells.len() as u64) as usize;
        (self.start + skip as u64..self.span().end)
            .zip(self.cells.range(skip..))
            .filter_map(|(slot, cell)| Some((slot, cell.as_ref()?)))
    }

    /// Stores `value` at `slot` with its marks cleared, replacing what was
    /// there; the window grows at either end to reach it. False (nothing
    /// stored) iff that would span more than [`MAX_SPAN`] cells, or for
    /// the one slot number whose successor — the log's length once it is
    /// applied — does not exist.
    pub(crate) fn insert(&mut self, slot: u64, value: T) -> bool {
        if slot == u64::MAX {
            return false;
        }
        if self.cells.is_empty() {
            self.start = slot;
        }
        if slot < self.start {
            let grow = self.start - slot;
            if grow > MAX_SPAN - self.cells.len() as u64 {
                return false;
            }
            for _ in 0..grow {
                self.cells.push_front(None);
            }
            for _ in 0..grow as usize * self.words {
                self.marks.push_front(0);
            }
            self.start = slot;
        }
        let i = slot - self.start;
        if i >= MAX_SPAN {
            return false;
        }
        let i = i as usize;
        if i >= self.cells.len() {
            self.cells.resize_with(i + 1, || None);
            self.marks.resize((i + 1) * self.words, 0);
        }
        for w in 0..self.words {
            self.marks[i * self.words + w] = 0;
        }
        if self.cells[i].replace(value).is_none() {
            self.live += 1;
        }
        true
    }

    /// Sets mark `bit` of the occupied `slot` and returns how many of its
    /// marks are now set; `None` on a vacant slot.
    pub(crate) fn mark(&mut self, slot: u64, bit: usize) -> Option<usize> {
        let i = self.index(slot)?;
        self.cells[i].as_ref()?;
        self.marks[i * self.words + bit / 64] |= 1 << (bit % 64);
        let words = self.marks.range(i * self.words..(i + 1) * self.words);
        Some(words.map(|w| w.count_ones() as usize).sum())
    }

    pub(crate) fn remove(&mut self, slot: u64) -> Option<T> {
        let i = self.index(slot)?;
        let value = self.cells[i].take()?;
        self.live -= 1;
        self.tighten();
        Some(value)
    }

    /// Drops every slot below `slot`.
    pub(crate) fn truncate_below(&mut self, slot: u64) {
        let below = slot.saturating_sub(self.start).min(self.cells.len() as u64);
        self.drop_front(below as usize);
        self.tighten();
    }

    /// Drops the first `n` cells and their marks.
    fn drop_front(&mut self, n: usize) {
        self.live -= self.cells.drain(..n).flatten().count();
        self.marks.drain(..n * self.words);
        self.start += n as u64;
    }

    /// Restores "empty, or occupied at both ends".
    fn tighten(&mut self) {
        self.drop_front(self.cells.iter().take_while(|c| c.is_none()).count());
        while let Some(None) = self.cells.back() {
            self.cells.pop_back();
        }
        self.marks.truncate(self.cells.len() * self.words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Slots the property test draws from: a busy neighbourhood, a second
    /// one 10 000 slots up (the lagging joiner that accepts at the
    /// leader's slot before its `SyncOk` fills in everything below), and
    /// the gap between them.
    fn slot(x: u64) -> u64 {
        match x % 8 {
            0..=3 => 500 + x % 64,
            4..=6 => 10_500 + x % 64,
            _ => x % 11_000,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Any mix of inserts (fresh, overwriting, below the window's
        /// start, across the gap), removes, truncations, lookups and range
        /// scans leaves the window equal to the `BTreeMap` it replaced —
        /// contents, length and span.
        #[test]
        fn behaves_like_a_btreemap(
            ops in proptest::collection::vec((0u8..8, 0u64..100_000), 1..200),
        ) {
            let mut window = SlotWindow::new(0);
            let mut model = BTreeMap::new();
            for (step, (op, x)) in ops.into_iter().enumerate() {
                let s = slot(x);
                match op {
                    0..=3 => {
                        prop_assert!(window.insert(s, step));
                        model.insert(s, step);
                    }
                    4 | 5 => prop_assert_eq!(window.remove(s), model.remove(&s)),
                    6 => {
                        window.truncate_below(s);
                        model = model.split_off(&s);
                    }
                    _ => {
                        let got: Vec<_> = window.range_from(s).map(|(k, &v)| (k, v)).collect();
                        let want: Vec<_> = model.range(s..).map(|(&k, &v)| (k, v)).collect();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(window.get(s), model.get(&s));
                prop_assert_eq!(window.len(), model.len());
                let ends = model.keys().next().zip(model.keys().next_back());
                if let Some((&lo, &hi)) = ends {
                    prop_assert_eq!(window.span(), lo..hi + 1);
                }
                prop_assert!(window.span().is_empty() == model.is_empty());
            }
        }
    }

    #[test]
    fn an_empty_window_anchors_wherever_the_first_insert_lands() {
        let mut w = SlotWindow::new(0);
        assert!(w.insert(1 << 40, 'a'));
        assert_eq!(w.span(), 1 << 40..(1 << 40) + 1);
        assert_eq!(w.remove(1 << 40), Some('a'));
        assert!(w.insert(3, 'b'));
        assert_eq!((w.span(), w.len()), (3..4, 1));
    }

    #[test]
    fn a_slot_too_far_from_the_rest_is_refused_not_allocated() {
        let mut w = SlotWindow::new(0);
        assert!(w.insert(MAX_SPAN, 'a'));
        assert!(!w.insert(2 * MAX_SPAN, 'b'), "too far above");
        assert!(!w.insert(0, 'b'), "too far below");
        assert!(!w.insert(u64::MAX, 'b'));
        assert_eq!((w.span(), w.len()), (MAX_SPAN..MAX_SPAN + 1, 1));
        assert!(w.insert(1, 'b'), "exactly MAX_SPAN cells is allowed");
        assert!(!SlotWindow::new(0).insert(u64::MAX, 'c'));
    }

    /// The last slot a window holds is `u64::MAX - 1`: walking it must
    /// not count past the end of the slot space.
    #[test]
    fn a_range_walk_ends_at_the_last_slot_number() {
        let mut w = SlotWindow::new(0);
        assert!(w.insert(u64::MAX - 1, 'a'));
        assert!(w.insert(u64::MAX - 3, 'b'));
        let walked: Vec<(u64, char)> = w.range_from(0).map(|(s, &c)| (s, c)).collect();
        assert_eq!(walked, vec![(u64::MAX - 3, 'b'), (u64::MAX - 1, 'a')]);
    }

    #[test]
    fn marks_follow_their_slot_and_count_across_words() {
        let mut w = SlotWindow::new(130);
        for s in [7, 8, 9] {
            w.insert(s, ());
        }
        assert_eq!(w.mark(8, 0), Some(1));
        assert_eq!(w.mark(8, 0), Some(1), "a set bit counts once");
        assert_eq!(w.mark(8, 64), Some(2));
        assert_eq!(w.mark(8, 129), Some(3));
        assert_eq!(w.mark(6, 1), None, "below the window");
        // The window slides under the marks: slot 8's stay slot 8's…
        w.remove(7);
        w.insert(5, ());
        assert_eq!(w.mark(8, 1), Some(4));
        assert_eq!(w.mark(9, 1), Some(1));
        assert_eq!(w.mark(5, 129), Some(1));
        // …a vacated slot takes none, and a re-insert starts clean.
        w.remove(8);
        assert_eq!(w.mark(8, 2), None);
        w.insert(8, ());
        assert_eq!(w.mark(8, 2), Some(1));
    }
}
