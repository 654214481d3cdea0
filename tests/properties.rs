//! Property-based tests on the core data structures and decision
//! procedures: view algebra, clock laws, and `Determine` invariants.

use gmp::causality::VectorClock;
use gmp::protocol::{determine, proposals_for_ver, PhaseOneResp};
use gmp::types::{majority_of, NextEntry, Op, ProcessId, View};
use proptest::prelude::*;

fn arb_view(max: u32) -> impl Strategy<Value = View> {
    proptest::collection::btree_set(0..max, 1..(max as usize))
        .prop_map(|ids| View::new(ids.into_iter().map(ProcessId).collect()))
}

proptest! {
    // Explicit case budget: keeps CI runtime bounded, and failures are
    // reproducible via the per-case seeds recorded in proptest-regressions/.
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Rank is a bijection onto 1..=n with the most senior at n.
    #[test]
    fn rank_is_bijective(view in arb_view(24)) {
        let n = view.len();
        let mut seen = std::collections::BTreeSet::new();
        for p in view.iter() {
            let r = view.rank(p).expect("member has a rank");
            prop_assert!(r >= 1 && r <= n);
            prop_assert!(seen.insert(r), "duplicate rank");
        }
        prop_assert_eq!(view.most_senior().and_then(|p| view.rank(p)), Some(n));
    }

    /// Removing any member preserves the relative order of the rest
    /// ("their ranking relative to each other will not change", §4.2).
    #[test]
    fn removal_preserves_relative_order(view in arb_view(24), idx in 0usize..24) {
        prop_assume!(view.len() >= 2);
        let victim = view.as_slice()[idx % view.len()];
        let before: Vec<ProcessId> = view.iter().filter(|&p| p != victim).collect();
        let mut after = view.clone();
        prop_assert!(after.remove(victim));
        prop_assert_eq!(after.as_slice(), &before[..]);
    }

    /// Majorities of a view and its successor (one member added or
    /// removed) always intersect — Prop. 7.1 on concrete views.
    #[test]
    fn neighbouring_view_majorities_intersect(view in arb_view(24), add in 24u32..48) {
        let n = view.len();
        let mut grown = view.clone();
        prop_assert!(grown.push_junior(ProcessId(add)));
        prop_assert!(majority_of(n) + majority_of(n + 1) > n + 1);
        // Concrete check: any μ(n)-subset of `view` and μ(n+1)-subset of
        // `grown` must share a member, because view ⊂ grown.
        let mu_a = view.majority();
        let mu_b = grown.majority();
        prop_assert!(mu_a + mu_b > grown.len());
    }

    /// Vector clock comparison is a partial order consistent with message
    /// chains.
    #[test]
    fn vector_clock_partial_order(
        ticks_a in proptest::collection::vec(0u64..5, 4),
        ticks_b in proptest::collection::vec(0u64..5, 4),
    ) {
        let mut a = VectorClock::new(4);
        let mut b = VectorClock::new(4);
        for (i, &t) in ticks_a.iter().enumerate() {
            for _ in 0..t { a.tick(i); }
        }
        for (i, &t) in ticks_b.iter().enumerate() {
            for _ in 0..t { b.tick(i); }
        }
        // Antisymmetry.
        if a.happened_before(&b) {
            prop_assert!(!b.happened_before(&a));
        }
        // observe() produces an upper bound.
        let mut c = a.clone();
        c.observe(&b);
        prop_assert!(a.le(&c));
        prop_assert!(b.le(&c));
    }

    /// `Determine` never proposes a version that would make any respondent
    /// skip a view (Prop. 5.3 / GMP-3), and the proposal always covers the
    /// gap from the slowest respondent.
    #[test]
    fn determine_never_skips(
        my_ver in 1u64..5,
        ahead in proptest::bool::ANY,
        behind in proptest::bool::ANY,
    ) {
        let view = View::new((0..6).map(ProcessId).collect());
        let committed: Vec<Op> = (0..10).map(|i| Op::remove(ProcessId(40 + i))).collect();
        let me = PhaseOneResp {
            from: ProcessId(1),
            seq: committed[..my_ver as usize].to_vec(),
            next: vec![],
        };
        let mut others = Vec::new();
        if ahead {
            others.push(PhaseOneResp {
                from: ProcessId(2),
                seq: committed[..(my_ver + 1) as usize].to_vec(),
                next: vec![],
            });
        }
        if behind {
            others.push(PhaseOneResp {
                from: ProcessId(3),
                seq: committed[..(my_ver - 1) as usize].to_vec(),
                next: vec![],
            });
        }
        let d = determine(&me, &others, &view, ProcessId(0), &[]).unwrap();
        // The proposed version is at most one past the fastest respondent.
        let vmax = others.iter().map(PhaseOneResp::ver).chain([my_ver]).max().unwrap();
        prop_assert!(d.v <= vmax + 1, "proposal skips: v={} vmax={}", d.v, vmax);
        prop_assert!(d.v >= my_ver, "proposal regresses");
        // The ops cover exactly versions (v - rl.len(), v].
        prop_assert!(!d.rl.is_empty());
        prop_assert!(d.v as usize >= d.rl.len());
        // Slowest respondent can apply the proposal without skipping.
        let vmin = others.iter().map(PhaseOneResp::ver).chain([my_ver]).min().unwrap();
        prop_assert!(d.v as usize - d.rl.len() <= vmin as usize);
    }

    /// `ProposalsForVer` finds exactly the concrete entries for the asked
    /// version, never placeholders.
    #[test]
    fn proposals_ignore_placeholders_and_other_versions(
        ver in 1u64..6,
        n_placeholders in 0usize..4,
        n_concrete in 0usize..4,
    ) {
        let mut next = Vec::new();
        for i in 0..n_placeholders {
            next.push(NextEntry::placeholder(ProcessId(i as u32)));
        }
        for i in 0..n_concrete {
            next.push(NextEntry::concrete(
                vec![Op::remove(ProcessId(30 + i as u32))],
                ProcessId(i as u32),
                ver,
            ));
        }
        // An entry for a *different* version never shows up.
        next.push(NextEntry::concrete(vec![Op::remove(ProcessId(99))], ProcessId(9), ver + 1));
        let resp = [PhaseOneResp { from: ProcessId(0), seq: vec![], next }];
        let props = proposals_for_ver(&resp, ver);
        prop_assert_eq!(props.len(), n_concrete);
        prop_assert!(props.iter().all(|p| p.ops[0].target != ProcessId(99)));
    }
}
