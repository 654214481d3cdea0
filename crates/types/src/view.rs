//! Seniority-ordered membership views and the rank function of §4.2.

use crate::{majority_of, Op, OpKind, ProcessId};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter;
use std::sync::{Arc, OnceLock, Weak};

/// A local membership view `Memb(p)`, ordered by *seniority*.
///
/// The paper bases process rank on "seniority with respect to duration in the
/// system view" (§4.2, footnote 12): the longest-standing member — initially
/// `Mgr` — has the highest rank `n`, and the most recently added member has
/// rank `1`. Removing a member "increases the rank of all lower-ranked
/// processes by one", which is automatic here because rank is derived from
/// position. Joins append at the junior end.
///
/// A view is an immutable snapshot: cloning it shares the member list
/// (a reference-count bump), and [`View::remove`] / [`View::push_junior`]
/// build the next list rather than edit one that a clone, a trace note or
/// another member may still hold. [`View::shared`] hands the list out.
///
/// Holders that apply the same operation to the same snapshot share the
/// result, which is a function of the two alone; GMP-2 (one membership
/// per version) is why a whole group's members do. A snapshot's id index
/// is built once, on its first lookup, for every holder.
///
/// Two views are equal iff they contain the same members in the same
/// seniority order.
#[derive(Clone, Default)]
pub struct View {
    snap: Arc<Snapshot>,
}

/// The state every holder of one view shares.
///
/// `next` memoizes the first `remove`/`push_junior` applied to this
/// snapshot: every later holder that applies the same operation gets the
/// same successor instead of building an equal list of its own. The link
/// is [`Weak`], so a stale view (a crashed member's) keeps no later view
/// alive, and dropping a long history frees one snapshot at a time with
/// no recursion. A different operation, or a successor every holder has
/// dropped, builds a fresh list.
#[derive(Default)]
struct Snapshot {
    members: Arc<[ProcessId]>,
    /// `(id, position)` for every member, sorted by id: one entry per
    /// member, never sized by the ids themselves.
    index: OnceLock<Box<[(ProcessId, u32)]>>,
    next: OnceLock<(Op, Weak<Snapshot>)>,
}

/// The id index of `members`: `(id, position)` pairs sorted by id.
fn build_index(members: &[ProcessId]) -> Box<[(ProcessId, u32)]> {
    let mut index: Vec<(ProcessId, u32)> = (0u32..).zip(members).map(|(i, &m)| (m, i)).collect();
    index.sort_unstable();
    index.into()
}

impl View {
    /// Creates a view from a seniority-ordered member list (most senior
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if `members` contains duplicates: a process is a member at
    /// most once.
    pub fn new(members: Vec<ProcessId>) -> Self {
        View::try_new(members).expect("duplicate member in view")
    }

    /// [`View::new`] for untrusted input: `None` if `members` repeats a
    /// process.
    ///
    /// O(n log n): builds the id index and looks for equal neighbours in
    /// it; a list without repeats keeps the index for its lookups. Nothing
    /// is indexed by id, so a list naming a huge id costs no more than any
    /// other list of its length.
    pub fn try_new(members: Vec<ProcessId>) -> Option<Self> {
        let index = build_index(&members);
        if index.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        let snap = Snapshot {
            members: members.into(),
            index: OnceLock::from(index),
            next: OnceLock::new(),
        };
        Some(View {
            snap: Arc::new(snap),
        })
    }

    /// The empty view (used by processes that have not yet joined).
    pub fn empty() -> Self {
        View::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.snap.members.len()
    }

    /// True when no process is a member.
    pub fn is_empty(&self) -> bool {
        self.snap.members.is_empty()
    }

    /// Membership test: a binary search of the id index.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.index_of(p).is_some()
    }

    /// Seniority position: 0 is the most senior member.
    ///
    /// O(log n) once the snapshot's id index exists; the first lookup on
    /// a snapshot, by any of its holders, builds it.
    pub fn index_of(&self, p: ProcessId) -> Option<usize> {
        let index = self
            .snap
            .index
            .get_or_init(|| build_index(&self.snap.members));
        let at = index.binary_search_by_key(&p, |&(m, _)| m).ok()?;
        Some(index[at].1 as usize)
    }

    /// The paper's rank: `rank(p) = n − index(p)`, so the most senior member
    /// has rank `n` and the most junior rank 1 (§4.2). `None` if `p` is not
    /// a member ("the rank of an excluded process is undefined").
    pub fn rank(&self, p: ProcessId) -> Option<usize> {
        self.index_of(p).map(|i| self.len() - i)
    }

    /// Members strictly senior to `p` (higher-ranked), most senior first.
    ///
    /// This is exactly the set whose perceived faultiness triggers `p` to
    /// initiate reconfiguration, and the set every receiver of `p`'s
    /// interrogation can infer as `HiFaulty(p)` (§4.5: "rank is commonly
    /// known. Consequently, other processes can infer the contents of
    /// HiFaulty(p)").
    pub fn seniors_of(&self, p: ProcessId) -> &[ProcessId] {
        match self.index_of(p) {
            Some(i) => &self.snap.members[..i],
            None => &[],
        }
    }

    /// The most senior member (the initial `Mgr`), if any.
    pub fn most_senior(&self) -> Option<ProcessId> {
        self.snap.members.first().copied()
    }

    /// Majority cardinality `μ = ⌊n/2⌋ + 1` for this view (§4.3).
    pub fn majority(&self) -> usize {
        majority_of(self.len())
    }

    /// Iterator over members in seniority order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.snap.members.iter().copied()
    }

    /// The members as a slice, most senior first.
    pub fn as_slice(&self) -> &[ProcessId] {
        &self.snap.members
    }

    /// The member list itself, most senior first, shared rather than
    /// copied: a record of this view that outlives later installs.
    pub fn shared(&self) -> Arc<[ProcessId]> {
        Arc::clone(&self.snap.members)
    }

    /// Owned copy of the member list in seniority order.
    pub fn to_vec(&self) -> Vec<ProcessId> {
        self.snap.members.to_vec()
    }

    /// Removes a member, preserving the relative seniority of the rest.
    /// Returns whether `p` was present.
    ///
    /// The first holder of this snapshot to remove `p` builds the shorter
    /// list in one pass; later holders share it. Every clone of the old
    /// view keeps reading the old list.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let op = Op::remove(p);
        if self.follow(op) {
            return true;
        }
        let Some(i) = self.index_of(p) else {
            return false;
        };
        let (seniors, rest) = self.snap.members.split_at(i);
        let members = seniors.iter().chain(&rest[1..]).copied().collect();
        self.advance(op, members);
        true
    }

    /// Adds a member at the junior end (rank 1). Returns `false` (and leaves
    /// the view unchanged) if `p` is already a member.
    ///
    /// Like [`View::remove`], shares the successor of an earlier holder
    /// that added `p`, or builds the longer list anew.
    pub fn push_junior(&mut self, p: ProcessId) -> bool {
        let op = Op::add(p);
        if self.follow(op) {
            return true;
        }
        if self.contains(p) {
            return false;
        }
        let members = self.snap.members.iter().copied().chain(iter::once(p));
        self.advance(op, members.collect());
        true
    }

    /// Applies a membership operation. Returns whether the view changed.
    pub fn apply(&mut self, op: Op) -> bool {
        match op.kind {
            OpKind::Remove => self.remove(op.target),
            OpKind::Add => self.push_junior(op.target),
        }
    }

    /// Moves to the successor an earlier holder built by applying `op` to
    /// this snapshot, if it recorded one and someone still holds it.
    fn follow(&mut self, op: Op) -> bool {
        let next = self.snap.next.get().filter(|(done, _)| *done == op);
        match next.and_then(|(_, next)| next.upgrade()) {
            Some(next) => {
                self.snap = next;
                true
            }
            None => false,
        }
    }

    /// Moves to a new snapshot of `members`, the result of `op`, and offers
    /// it as this snapshot's successor (the first offer wins).
    fn advance(&mut self, op: Op, members: Arc<[ProcessId]>) {
        let next = Arc::new(Snapshot {
            members,
            ..Snapshot::default()
        });
        // A slot that already holds another op, or a successor every
        // holder has dropped, stays as it is.
        let _ = self.snap.next.set((op, Arc::downgrade(&next)));
        self.snap = next;
    }
}

impl PartialEq for View {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.snap, &other.snap) || self.as_slice() == other.as_slice()
    }
}

impl Eq for View {}

impl Hash for View {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("View")
            .field("members", &self.as_slice())
            .finish()
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, m) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ProcessId> for View {
    fn from_iter<T: IntoIterator<Item = ProcessId>>(iter: T) -> Self {
        View::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a View {
    type Item = ProcessId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ProcessId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(ids: &[u32]) -> View {
        View::new(ids.iter().map(|&i| ProcessId(i)).collect())
    }

    #[test]
    fn rank_matches_paper_convention() {
        // "in the x-th system view, rank(Mgr) = |Sys^x|, and rank(p) = 1 if p
        // is the lowest-ranked process" (§4.2).
        let view = v(&[0, 1, 2, 3]);
        assert_eq!(view.rank(ProcessId(0)), Some(4));
        assert_eq!(view.rank(ProcessId(3)), Some(1));
        assert_eq!(view.rank(ProcessId(9)), None);
    }

    #[test]
    fn removal_shifts_ranks_up() {
        // "Whenever a process is removed from a view, the ranks of all
        // lower-ranked processes are increased by one" (§4.2).
        let mut view = v(&[0, 1, 2, 3]);
        let before = view.rank(ProcessId(3)).unwrap();
        assert!(view.remove(ProcessId(1)));
        assert_eq!(view.rank(ProcessId(3)).unwrap(), before); // 1 -> still junior-most
        assert_eq!(view.rank(ProcessId(2)), Some(2));
        assert_eq!(view.rank(ProcessId(0)), Some(3));
        assert!(!view.remove(ProcessId(1)));
    }

    #[test]
    fn relative_rank_is_stable_while_co_members() {
        // "while p and q are in the same system views, their ranking relative
        // to each other will not change" (§4.2).
        let mut view = v(&[0, 1, 2, 3, 4]);
        let ordered = |view: &View, a, b| view.rank(a).unwrap() > view.rank(b).unwrap();
        assert!(ordered(&view, ProcessId(1), ProcessId(3)));
        view.remove(ProcessId(0));
        view.remove(ProcessId(2));
        view.push_junior(ProcessId(9));
        assert!(ordered(&view, ProcessId(1), ProcessId(3)));
    }

    #[test]
    fn joins_are_junior_most() {
        let mut view = v(&[0, 1]);
        assert!(view.push_junior(ProcessId(5)));
        assert_eq!(view.rank(ProcessId(5)), Some(1));
        assert!(!view.push_junior(ProcessId(5)));
        assert_eq!(view.len(), 3);
    }

    #[test]
    fn seniors_of_is_hifaulty_inference() {
        let view = v(&[0, 1, 2, 3]);
        assert_eq!(view.seniors_of(ProcessId(2)), &[ProcessId(0), ProcessId(1)]);
        assert_eq!(view.seniors_of(ProcessId(0)), &[] as &[ProcessId]);
        assert_eq!(view.seniors_of(ProcessId(9)), &[] as &[ProcessId]);
    }

    #[test]
    fn apply_ops() {
        let mut view = v(&[0, 1, 2]);
        assert!(view.apply(Op::remove(ProcessId(1))));
        assert!(view.apply(Op::add(ProcessId(7))));
        assert_eq!(view.as_slice(), &[ProcessId(0), ProcessId(2), ProcessId(7)]);
        assert!(!view.apply(Op::remove(ProcessId(1))));
    }

    #[test]
    fn majority_examples() {
        assert_eq!(v(&[0, 1, 2]).majority(), 2);
        assert_eq!(v(&[0, 1, 2, 3]).majority(), 3);
        assert_eq!(v(&[0]).majority(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_members_rejected() {
        let _ = v(&[0, 1, 0]);
    }

    /// The reference verdict: an O(n²) scan of each prefix for a repeat.
    fn repeats_quadratic(members: &[ProcessId]) -> bool {
        (0..members.len()).any(|i| members[..i].contains(&members[i]))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Sorting a copy gives the quadratic scan's verdict, on lists
        /// that may repeat by chance (ids drawn from a small range) and on
        /// lists with a repeat planted at a random pair of positions.
        #[test]
        fn try_new_agrees_with_the_quadratic_scan(
            ids in proptest::collection::vec(0u32..48, 0..40),
            plant in proptest::bool::ANY,
            from in 0usize..40,
            to in 0usize..40,
        ) {
            let mut members: Vec<ProcessId> = ids.into_iter().map(ProcessId).collect();
            let n = members.len();
            if plant && n >= 2 && from % n != to % n {
                members[to % n] = members[from % n];
                prop_assert!(repeats_quadratic(&members));
            }
            let want = !repeats_quadratic(&members);
            let got = View::try_new(members.clone());
            prop_assert_eq!(got.is_some(), want);
            if let Some(view) = got {
                prop_assert_eq!(view.as_slice(), &members[..], "order is kept");
            }
        }
    }

    /// Applies step `kind` (`remove`, `push_junior`, `apply` of a removal,
    /// `apply` of an add) for `p` to the view and to the `Vec` model, and
    /// returns both verdicts.
    fn step(view: &mut View, model: &mut Vec<ProcessId>, kind: u8, p: ProcessId) -> (bool, bool) {
        let at = model.iter().position(|&m| m == p);
        let removes = matches!(kind, 0 | 2);
        let want = match (removes, at) {
            (true, Some(i)) => {
                model.remove(i);
                true
            }
            (false, None) => {
                model.push(p);
                true
            }
            _ => false,
        };
        let got = match kind {
            0 => view.remove(p),
            1 => view.push_junior(p),
            2 => view.apply(Op::remove(p)),
            _ => view.apply(Op::add(p)),
        };
        (got, want)
    }

    /// Checks every query of `view` against the `Vec` model.
    fn agrees(view: &View, model: &[ProcessId]) {
        prop_assert_eq!(view.as_slice(), model);
        prop_assert_eq!(view.len(), model.len());
        for q in (0..12).map(ProcessId) {
            let at = model.iter().position(|&m| m == q);
            prop_assert_eq!(view.contains(q), at.is_some());
            prop_assert_eq!(view.index_of(q), at);
            prop_assert_eq!(view.rank(q), at.map(|i| model.len() - i));
            let seniors = at.map_or(&[][..], |i| &model[..i]);
            prop_assert_eq!(view.seniors_of(q), seniors);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Two clones of one start view take the same step or different
        /// ones, either going first. After every step each agrees with its
        /// own `Vec` model on every query, the two share a list exactly
        /// when their histories of changes are equal, and no earlier clone
        /// reads a changed list.
        #[test]
        fn view_agrees_with_a_vec_model(
            initial in proptest::collection::btree_set(0u32..12, 0..8),
            steps in proptest::collection::vec(
                (0u8..4, 0u32..12, 0u8..4, 0u32..12, proptest::bool::ANY),
                0..40,
            ),
        ) {
            let start: Vec<ProcessId> = initial.into_iter().map(ProcessId).collect();
            let view = View::new(start.clone());
            let mut sides = [(view.clone(), start.clone()), (view, start)];
            let mut histories: [Vec<(u8, ProcessId)>; 2] = [Vec::new(), Vec::new()];
            let mut taken: Vec<(View, Vec<ProcessId>)> = Vec::new();
            for (kind, id, other_kind, other_id, b_first) in steps {
                // One step in four, the second clone takes its own.
                let diverge = other_kind == 0;
                let moves = [(kind, id), if diverge { (other_kind, other_id) } else { (kind, id) }];
                let order = if b_first { [1, 0] } else { [0, 1] };
                for side in order {
                    let (view, model) = &mut sides[side];
                    taken.push((view.clone(), model.clone()));
                    let (kind, id) = moves[side];
                    let (got, want) = step(view, model, kind, ProcessId(id));
                    prop_assert_eq!(got, want);
                    if got {
                        // `apply` of a removal is a removal, of an add an add.
                        histories[side].push((kind % 2, ProcessId(id)));
                    }
                }
                for (view, model) in &sides {
                    agrees(view, model);
                }
                let shared = Arc::ptr_eq(&sides[0].0.shared(), &sides[1].0.shared());
                prop_assert_eq!(shared, histories[0] == histories[1]);
                for (old, read) in &taken {
                    prop_assert_eq!(old.as_slice(), &read[..], "an earlier clone moved");
                }
            }
        }
    }

    #[test]
    fn successor_is_held_weakly() {
        let start = v(&[0, 1, 2, 3]);
        let mut first = start.clone();
        assert!(first.remove(ProcessId(1)));
        // While one holder keeps the successor, the same op shares it.
        let mut second = start.clone();
        assert!(second.remove(ProcessId(1)));
        assert!(Arc::ptr_eq(&first.shared(), &second.shared()));
        // Once every holder is gone, the start view keeps nothing alive,
        // and the same op rebuilds an equal list.
        let list = Arc::downgrade(&first.shared());
        drop((first, second));
        assert!(
            list.upgrade().is_none(),
            "the slot kept its successor alive"
        );
        let mut again = start.clone();
        assert!(again.remove(ProcessId(1)));
        assert_eq!(
            again.as_slice(),
            &[ProcessId(0), ProcessId(2), ProcessId(3)]
        );
        // A different op on the same snapshot never takes the memo.
        let mut other = start;
        assert!(!other.push_junior(ProcessId(1)));
        assert!(other.remove(ProcessId(2)));
        assert_eq!(
            other.as_slice(),
            &[ProcessId(0), ProcessId(1), ProcessId(3)]
        );
    }

    #[test]
    fn lookups_handle_the_largest_ids() {
        let ids = [u32::MAX, 0, u32::MAX - 1, 7, u32::MAX - 2];
        let mut view = View::new(ids.iter().map(|&i| ProcessId(i)).collect());
        for (i, &id) in ids.iter().enumerate() {
            assert!(view.contains(ProcessId(id)));
            assert_eq!(view.index_of(ProcessId(id)), Some(i));
        }
        for absent in [u32::MAX - 3, 1, 6, 8] {
            assert!(!view.contains(ProcessId(absent)));
            assert_eq!(view.index_of(ProcessId(absent)), None);
        }
        assert!(view.remove(ProcessId(u32::MAX)));
        assert!(!view.contains(ProcessId(u32::MAX)));
        assert_eq!(view.index_of(ProcessId(u32::MAX - 2)), Some(3));
        assert!(view.push_junior(ProcessId(u32::MAX)));
        assert_eq!(view.index_of(ProcessId(u32::MAX)), Some(4));
        assert_eq!(view.rank(ProcessId(u32::MAX)), Some(1));
    }

    #[test]
    fn view_is_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<View>();
    }

    #[test]
    fn try_new_handles_the_largest_ids() {
        let top = ProcessId(u32::MAX - 1);
        let view = View::try_new(vec![top, ProcessId(0)]).expect("no repeat");
        assert_eq!(view.as_slice(), &[top, ProcessId(0)]);
        assert!(View::try_new(vec![top, ProcessId(3), top]).is_none());
    }

    #[test]
    fn singleton_view_edge_cases() {
        // A group of one: the sole member is both Mgr (rank n = 1) and the
        // junior-most member, and μ({p}) = 1 — it is its own majority.
        let view = v(&[3]);
        assert_eq!(view.len(), 1);
        assert_eq!(view.rank(ProcessId(3)), Some(1));
        assert_eq!(view.most_senior(), Some(ProcessId(3)));
        assert_eq!(view.majority(), 1);
        assert_eq!(view.seniors_of(ProcessId(3)), &[] as &[ProcessId]);
    }

    #[test]
    fn empty_view_edge_cases() {
        // Processes that have not joined yet hold the empty view: no ranks,
        // no Mgr, and μ(∅) = 1 (a vacuous quorum no one can reach).
        let view = View::empty();
        assert!(view.is_empty());
        assert_eq!(view.rank(ProcessId(0)), None);
        assert_eq!(view.most_senior(), None);
        assert_eq!(view.majority(), 1);
    }

    #[test]
    fn joiner_not_in_view_has_no_rank() {
        // "the rank of an excluded process is undefined" (§4.2) — and a
        // joiner's rank is equally undefined until its add commits.
        let mut view = v(&[0, 1, 2]);
        let joiner = ProcessId(7);
        assert!(!view.contains(joiner));
        assert_eq!(view.rank(joiner), None);
        assert_eq!(view.index_of(joiner), None);
        assert_eq!(view.seniors_of(joiner), &[] as &[ProcessId]);
        // Once admitted, the joiner enters at the junior end with rank 1,
        // and existing ranks are untouched.
        assert!(view.push_junior(joiner));
        assert_eq!(view.rank(joiner), Some(1));
        assert_eq!(view.rank(ProcessId(0)), Some(4));
        assert_eq!(view.rank(ProcessId(2)), Some(2));
    }

    #[test]
    fn rank_after_exclusion_follows_seniority_rule() {
        // §4.2: excluding a member promotes exactly the lower-ranked
        // (junior) processes by one; seniors keep their rank only if no one
        // senior to them left. The excluded process's rank becomes None.
        let mut view = v(&[0, 1, 2, 3, 4]);
        assert!(view.remove(ProcessId(2)));
        assert_eq!(view.rank(ProcessId(2)), None);
        // Seniors of the excluded process: ranks drop by one with n.
        assert_eq!(view.rank(ProcessId(0)), Some(4));
        assert_eq!(view.rank(ProcessId(1)), Some(3));
        // Juniors: unchanged absolute rank (promoted relative to n).
        assert_eq!(view.rank(ProcessId(3)), Some(2));
        assert_eq!(view.rank(ProcessId(4)), Some(1));
        // Majority shrinks with the view: μ(5) = 3 before, μ(4) = 3 after.
        assert_eq!(view.majority(), 3);
        assert!(view.remove(ProcessId(4)));
        assert_eq!(view.majority(), 2);
    }

    #[test]
    fn majority_of_neighbouring_sizes_always_intersects() {
        // μ(n) + μ(n+1) > n+1 for every reachable size (Prop. 7.1), checked
        // on View::majority itself rather than majority_of.
        let mut view = View::empty();
        for i in 0..64u32 {
            let mu_before = view.majority();
            let n_before = view.len();
            assert!(view.push_junior(ProcessId(i)));
            // Except when growing from the empty view (μ(∅) is vacuous),
            // quorums of neighbouring views must overlap.
            if n_before > 0 {
                assert!(
                    mu_before + view.majority() > view.len(),
                    "disjoint quorums possible at n = {}",
                    view.len()
                );
            }
        }
    }

    #[test]
    fn display_and_iteration() {
        let view = v(&[2, 0]);
        assert_eq!(view.to_string(), "{p2, p0}");
        let collected: Vec<_> = view.iter().collect();
        assert_eq!(collected, vec![ProcessId(2), ProcessId(0)]);
        let rebuilt: View = view.iter().collect();
        assert_eq!(rebuilt, view);
        let shown = "View { members: [ProcessId(2), ProcessId(0)] }";
        assert_eq!(format!("{view:?}"), shown);
    }
}
