//! The reconfiguration decision procedures `Determine` and `GetStable`
//! (Fig. 6), and the `ProposalsForVer` sets of §4.4–§4.5.
//!
//! These are pure functions of the initiator's state and its Phase I
//! responses, which makes the case analysis of §5 directly unit- and
//! property-testable.
//!
//! Two indexing ambiguities in the paper's pseudo-code are resolved here as
//! documented in `DESIGN.md`:
//!
//! * in the `L = S = ∅` branch we examine `ProposalsForVer(v)` with
//!   `v = ver(r)+1` (the paper writes `v+1`, but by Prop. 5.3 respondents
//!   can hold proposals only up to `ver(r)+1`, so `v+1` would always be
//!   empty);
//! * `GetStable` receives the version whose proposal set is being decided.

use gmp_types::{NextEntry, Op, ProcessId, Ver, View};

/// A Phase I response `OK(seq(p), next(p))` together with the responder's
/// version, as collected by a reconfiguration initiator. The initiator's own
/// state participates as a response too (`r ∈ PhaseIResp(r)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseOneResp {
    /// The responder.
    pub from: ProcessId,
    /// `ver(p)` at response time.
    pub ver: Ver,
    /// `seq(p)`: the committed operation sequence.
    pub seq: Vec<Op>,
    /// `next(p)`: the expectation list.
    pub next: Vec<NextEntry>,
}

/// The outcome of `Determine(RL_r, invis, v)` (Fig. 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The version the initiator proposes to install.
    pub v: Ver,
    /// `RL_r`: the operations installing version `v`.
    pub rl: Vec<Op>,
    /// `invis`: the contingent plan the initiator will execute as the new
    /// `Mgr` immediately after committing (possibly empty).
    pub invis: Vec<Op>,
}

/// A candidate proposal for some version: the operations and their proposer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proposal {
    /// The proposed operations `z`.
    pub ops: Vec<Op>,
    /// The coordinator that proposed them (`Mgr` or a reconfigurer).
    pub coord: ProcessId,
}

/// `ProposalsForVer(x, r)`: every concrete `next` entry for version `x`
/// found among the Phase I responses (§4.5). Proposals are deduplicated by
/// `(ops, coord)`; distinct proposers of identical operations are kept so
/// `GetStable` can rank them.
pub fn proposals_for_ver(responses: &[PhaseOneResp], x: Ver) -> Vec<Proposal> {
    let mut out: Vec<Proposal> = Vec::new();
    for resp in responses {
        for entry in &resp.next {
            if entry.ver == Some(x) {
                if let Some(ops) = &entry.ops {
                    let prop = Proposal {
                        ops: ops.clone(),
                        coord: entry.coord,
                    };
                    if !out.contains(&prop) {
                        out.push(prop);
                    }
                }
            }
        }
    }
    out
}

/// Number of *distinct operation sets* among proposals — the cardinality the
/// paper bounds by 2 (Prop. 5.5).
pub fn distinct_op_sets(proposals: &[Proposal]) -> usize {
    let mut seen: Vec<&Vec<Op>> = Vec::new();
    for p in proposals {
        if !seen.contains(&&p.ops) {
            seen.push(&p.ops);
        }
    }
    seen.len()
}

/// `GetStable(r, x)` (Fig. 6): among competing proposals for the same
/// version, selects the one whose *proposer has the lowest rank* — the only
/// proposal that could have been committed invisibly (Prop. 5.6: the
/// lower-ranked proposer supersedes the higher-ranked one, because every
/// respondent to the junior initiator stops listening to its seniors).
///
/// Proposers no longer in `view` are treated as junior-most.
///
/// # Panics
///
/// Panics if `proposals` is empty.
pub fn get_stable(proposals: &[Proposal], view: &View) -> Vec<Op> {
    assert!(
        !proposals.is_empty(),
        "GetStable requires at least one proposal"
    );
    let junior_most = proposals
        .iter()
        .min_by_key(|p| view.rank(p.coord).unwrap_or(0))
        .expect("non-empty");
    junior_most.ops.clone()
}

/// Selects the proposal operations for a version according to the
/// 0 / 1 / many case split shared by all three `Determine` branches.
fn select_proposal(responses: &[PhaseOneResp], x: Ver, view: &View) -> Option<Vec<Op>> {
    let proposals = proposals_for_ver(responses, x);
    match distinct_op_sets(&proposals) {
        0 => None,
        1 => Some(proposals[0].ops.clone()),
        _ => Some(get_stable(&proposals, view)),
    }
}

/// `GetNext`: the initiator's own queued operations, used for the contingent
/// plan when no competing proposal must be propagated. Operations whose
/// target already appears in `rl` are skipped.
fn get_next(queue: &[Op], rl: &[Op]) -> Vec<Op> {
    queue
        .iter()
        .filter(|op| !rl.iter().any(|r| r.target == op.target))
        .take(1)
        .copied()
        .collect()
}

/// `Determine(RL_r, invis, v)` (Fig. 6): computes the reconfiguration
/// proposal for initiator `r`.
///
/// * `me` — the initiator's own state, counted as a Phase I response;
/// * `others` — the collected responses (majority subset, initiator
///   excluded);
/// * `view` — the initiator's current local view (for ranking proposers);
/// * `old_mgr` — the coordinator the initiator believes failed (the default
///   removal when no proposal is detectable, line D.4);
/// * `queue` — the initiator's own pending operations, in execution order
///   (`Recovered` then `Faulty`), for `GetNext`.
///
/// Respondents outside the `ver(r) ± 1` band permitted by Prop. 5.1 are
/// ignored defensively (they cannot occur in protocol-generated runs).
///
/// Returns `None` when the proposal would need a version after
/// `Ver::MAX`: no round can be numbered, so none is started. A catch-up
/// to `Ver::MAX` itself is still decided, with a contingent plan that
/// the new `Mgr` cannot number either. Also `None` when the responses
/// would make `RL_r` empty (an ahead respondent whose `seq` is no longer,
/// or a detectable proposal of no operations): receivers ignore such a
/// proposal, so no round could complete.
pub fn determine(
    me: &PhaseOneResp,
    others: &[PhaseOneResp],
    view: &View,
    old_mgr: ProcessId,
    queue: &[Op],
) -> Option<Decision> {
    let mut all: Vec<&PhaseOneResp> = Vec::with_capacity(others.len() + 1);
    all.push(me);
    all.extend(others.iter().filter(|r| r.ver.abs_diff(me.ver) <= 1));
    let owned: Vec<PhaseOneResp> = all.iter().map(|r| (*r).clone()).collect();
    // The contingent plan after a catch-up to `v`: the detectable proposal
    // for `v + 1`, else `GetNext`. `Ver::MAX` has no successor to plan for.
    let plan_after = |v: Ver, rl: &[Op]| {
        v.checked_add(1)
            .and_then(|next| select_proposal(&owned, next, view))
            .unwrap_or_else(|| get_next(queue, rl))
    };

    // L: respondents one version ahead; S: one version behind (§5).
    let l_rep = all.iter().find(|r| r.ver > me.ver);
    let s_rep = all.iter().find(|r| r.ver < me.ver);
    // The proposal must cover the gap from the *slowest* respondent: with
    // two successive partial commits, L (at ver(r)+1) and S (at ver(r)−1)
    // can coexist (Prop. 5.1 allows the ±1 band), and a proposal starting
    // at ver(r) would strand S forever — it could then never acknowledge a
    // future invitation and the group would stall. Re-proposing the full
    // suffix is safe: all seqs are prefix-compatible (Theorem 5.1), so
    // every competing committed proposal installs the same views.
    let min_len = all
        .iter()
        .map(|r| r.seq.len())
        .min()
        .unwrap_or(me.seq.len());

    let decision = if let Some(l) = l_rep {
        // Incomplete installation of version ver(L): catch everyone up.
        let v = l.ver;
        debug_assert!(
            l.seq.len() >= me.seq.len(),
            "seqs must be prefix-compatible"
        );
        let rl: Vec<Op> = l.seq[min_len..].to_vec();
        let invis = plan_after(v, &rl);
        Decision { v, rl, invis }
    } else if let Some(s) = s_rep {
        // Incomplete installation of version ver(r): re-propose the suffix
        // the laggards are missing.
        let v = me.ver;
        debug_assert!(
            me.seq.len() >= s.seq.len(),
            "seqs must be prefix-compatible"
        );
        let rl: Vec<Op> = me.seq[min_len..].to_vec();
        let invis = plan_after(v, &rl);
        Decision { v, rl, invis }
    } else {
        // Everyone agrees on ver(r): propose a fresh change for v =
        // ver(r)+1, propagating any detectable proposal for it (D.4–D.6,
        // with the index fix described in the module docs).
        let v = me.ver.checked_add(1)?;
        let rl = select_proposal(&owned, v, view).unwrap_or_else(|| vec![Op::remove(old_mgr)]);
        let invis = get_next(queue, &rl);
        Decision { v, rl, invis }
    };
    Some(decision).filter(|d| !d.rl.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_types::NextEntry;

    fn pid(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn view(ids: &[u32]) -> View {
        View::new(ids.iter().map(|&i| pid(i)).collect())
    }

    fn resp(from: u32, ver: Ver, seq: Vec<Op>, next: Vec<NextEntry>) -> PhaseOneResp {
        PhaseOneResp {
            from: pid(from),
            ver,
            seq,
            next,
        }
    }

    /// Quiescent failure of Mgr: no proposals anywhere, everyone at the same
    /// version. The initiator proposes removing Mgr (line D.4) and plans its
    /// own queue next.
    #[test]
    fn fresh_branch_proposes_mgr_removal() {
        let v = view(&[0, 1, 2, 3, 4]);
        let me = resp(1, 0, vec![], vec![]);
        let others = [resp(2, 0, vec![], vec![]), resp(3, 0, vec![], vec![])];
        let d = determine(
            &me,
            &others,
            &v,
            pid(0),
            &[Op::remove(pid(0)), Op::remove(pid(4))],
        )
        .unwrap();
        assert_eq!(d.v, 1);
        assert_eq!(d.rl, vec![Op::remove(pid(0))]);
        // GetNext skips ops already in rl.
        assert_eq!(d.invis, vec![Op::remove(pid(4))]);
    }

    /// D.5: exactly one detectable proposal for the fresh version is
    /// propagated — Mgr's in-flight plan survives Mgr's death.
    #[test]
    fn fresh_branch_propagates_single_proposal() {
        let v = view(&[0, 1, 2, 3, 4]);
        let mgr_plan = NextEntry::concrete(vec![Op::remove(pid(4))], pid(0), 1);
        let me = resp(1, 0, vec![], vec![]);
        let others = [
            resp(2, 0, vec![], vec![mgr_plan]),
            resp(3, 0, vec![], vec![]),
        ];
        let d = determine(&me, &others, &v, pid(0), &[Op::remove(pid(0))]).unwrap();
        assert_eq!(d.v, 1);
        assert_eq!(d.rl, vec![Op::remove(pid(4))]);
        assert_eq!(d.invis, vec![Op::remove(pid(0))]);
    }

    /// D.6 / Prop. 5.6: with two competing proposals, the junior proposer's
    /// is the stably-defined one (case 1 of the proof: Mgr's proposal could
    /// not have reached a majority, so the reconfigurer's wins).
    #[test]
    fn fresh_branch_two_proposals_picks_junior_proposer() {
        let v = view(&[0, 1, 2, 3, 4]);
        // Mgr (p0, rank 5) planned remove(p4); reconfigurer p1 (rank 4)
        // proposed remove(p0). p1's proposal is stably-defined.
        let from_mgr = NextEntry::concrete(vec![Op::remove(pid(4))], pid(0), 1);
        let from_rec = NextEntry::concrete(vec![Op::remove(pid(0))], pid(1), 1);
        let me = resp(2, 0, vec![], vec![]);
        let others = [
            resp(3, 0, vec![], vec![from_mgr]),
            resp(4, 0, vec![], vec![from_rec]),
        ];
        let d = determine(&me, &others, &v, pid(0), &[]).unwrap();
        assert_eq!(d.v, 1);
        assert_eq!(
            d.rl,
            vec![Op::remove(pid(0))],
            "junior proposer is stable (Prop. 5.6)"
        );
    }

    /// L ≠ ∅: some respondent already installed ver(r)+1 — the initiator
    /// catches up by re-proposing the missing suffix.
    #[test]
    fn ahead_branch_catches_up() {
        let v = view(&[0, 1, 2, 3, 4]);
        let committed = Op::remove(pid(4));
        let me = resp(1, 0, vec![], vec![]);
        let others = [
            resp(2, 1, vec![committed], vec![]), // member of L
            resp(3, 0, vec![], vec![]),
        ];
        let d = determine(&me, &others, &v, pid(0), &[Op::remove(pid(0))]).unwrap();
        assert_eq!(d.v, 1);
        assert_eq!(d.rl, vec![committed]);
        assert_eq!(d.invis, vec![Op::remove(pid(0))]);
    }

    /// L ≠ ∅ with an attendant contingent plan for v+1 at the ahead
    /// respondent: the plan is adopted as invis (condensed-round evidence).
    #[test]
    fn ahead_branch_adopts_contingent_plan() {
        let v = view(&[0, 1, 2, 3, 4]);
        let committed = Op::remove(pid(4));
        let plan = NextEntry::concrete(vec![Op::remove(pid(0))], pid(0), 2);
        let me = resp(1, 0, vec![], vec![]);
        let others = [resp(2, 1, vec![committed], vec![plan])];
        let d = determine(&me, &others, &v, pid(0), &[]).unwrap();
        assert_eq!(d.v, 1);
        assert_eq!(d.rl, vec![committed]);
        assert_eq!(d.invis, vec![Op::remove(pid(0))]);
    }

    /// S ≠ ∅: laggards one version behind get the initiator's suffix
    /// re-proposed.
    #[test]
    fn behind_branch_reproposes_suffix() {
        let v = view(&[0, 1, 2, 3, 4]);
        let committed = Op::remove(pid(4));
        let me = resp(1, 1, vec![committed], vec![]);
        let others = [
            resp(2, 1, vec![committed], vec![]),
            resp(3, 0, vec![], vec![]),
        ];
        let d = determine(&me, &others, &v, pid(0), &[Op::remove(pid(0))]).unwrap();
        assert_eq!(d.v, 1);
        assert_eq!(d.rl, vec![committed]);
        assert_eq!(d.invis, vec![Op::remove(pid(0))]);
    }

    /// Placeholders `(? : r : ?)` never contribute proposals.
    #[test]
    fn placeholders_are_ignored() {
        let v = view(&[0, 1, 2]);
        let me = resp(1, 0, vec![], vec![NextEntry::placeholder(pid(2))]);
        let others = [resp(2, 0, vec![], vec![NextEntry::placeholder(pid(1))])];
        let d = determine(&me, &others, &v, pid(0), &[]).unwrap();
        assert_eq!(d.rl, vec![Op::remove(pid(0))]);
    }

    /// Identical operations proposed by the same coordinator are one
    /// proposal, not two.
    #[test]
    fn proposals_dedupe() {
        let e = NextEntry::concrete(vec![Op::remove(pid(3))], pid(0), 1);
        let rs = [
            resp(1, 0, vec![], vec![e.clone()]),
            resp(2, 0, vec![], vec![e]),
        ];
        let props = proposals_for_ver(&rs, 1);
        assert_eq!(props.len(), 1);
        assert_eq!(distinct_op_sets(&props), 1);
    }

    /// Same ops from two coordinators: one distinct op-set, two proposers.
    #[test]
    fn distinct_op_sets_vs_proposers() {
        let a = NextEntry::concrete(vec![Op::remove(pid(3))], pid(0), 1);
        let b = NextEntry::concrete(vec![Op::remove(pid(3))], pid(1), 1);
        let rs = [resp(1, 0, vec![], vec![a]), resp(2, 0, vec![], vec![b])];
        let props = proposals_for_ver(&rs, 1);
        assert_eq!(props.len(), 2);
        assert_eq!(distinct_op_sets(&props), 1);
    }

    /// Responses outside the Prop. 5.1 band are ignored defensively.
    #[test]
    fn out_of_band_responses_ignored() {
        let v = view(&[0, 1, 2]);
        let me = resp(1, 5, vec![], vec![]);
        let others = [resp(2, 9, vec![], vec![])]; // impossible per Prop. 5.1
        let d = determine(&me, &others, &v, pid(0), &[]).unwrap();
        assert_eq!(d.v, 6, "fresh branch from the initiator's own version");
    }

    /// `Ver::MAX` has no successor: a fresh proposal there is not numbered,
    /// and a catch-up to it looks for no proposal beyond it.
    #[test]
    fn the_last_version_bounds_every_branch() {
        let v = view(&[0, 1, 2, 3, 4]);
        let (op, queue) = (Op::remove(pid(4)), [Op::remove(pid(0))]);
        let fresh = [resp(2, Ver::MAX, vec![], vec![])];
        let me = resp(1, Ver::MAX, vec![], vec![]);
        assert_eq!(determine(&me, &fresh, &v, pid(0), &queue), None);
        let ahead = [resp(2, Ver::MAX, vec![op], vec![])];
        let me = resp(1, Ver::MAX - 1, vec![], vec![]);
        let behind = [resp(2, Ver::MAX - 1, vec![], vec![])];
        let me_at_max = resp(1, Ver::MAX, vec![op], vec![]);
        for (me, others) in [(&me, &ahead), (&me_at_max, &behind)] {
            let d = determine(me, others, &v, pid(0), &queue).unwrap();
            assert_eq!((d.v, d.rl, d.invis), (Ver::MAX, vec![op], queue.to_vec()));
        }
    }

    /// A catch-up that would install nothing, and a detectable proposal
    /// of no operations, decide nothing.
    #[test]
    fn an_empty_rl_is_never_decided() {
        let v = view(&[0, 1, 2, 3, 4]);
        let me = resp(1, 3, vec![], vec![]);
        let ahead = [resp(2, 4, vec![], vec![])];
        assert_eq!(determine(&me, &ahead, &v, pid(0), &[]), None);
        let empty = NextEntry::concrete(vec![], pid(0), 4);
        let fresh = [resp(2, 3, vec![], vec![empty])];
        assert_eq!(determine(&me, &fresh, &v, pid(0), &[]), None);
    }

    #[test]
    #[should_panic(expected = "at least one proposal")]
    fn get_stable_requires_proposals() {
        let _ = get_stable(&[], &view(&[0]));
    }
}

#[cfg(test)]
mod catch_up_tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// L and S can coexist after two partial commits (Prop. 5.1 permits a
    /// ±1 band around the initiator): the proposal must cover the gap from
    /// the slowest respondent, or it can never acknowledge again.
    #[test]
    fn proposal_covers_slowest_respondent() {
        let view = View::new((0..6).map(pid).collect());
        let op1 = Op::remove(pid(0));
        let op2 = Op::remove(pid(1));
        let me = PhaseOneResp {
            from: pid(2),
            ver: 1,
            seq: vec![op1],
            next: vec![],
        };
        let ahead = PhaseOneResp {
            from: pid(3),
            ver: 2,
            seq: vec![op1, op2],
            next: vec![],
        };
        let behind = PhaseOneResp {
            from: pid(4),
            ver: 0,
            seq: vec![],
            next: vec![],
        };
        let d = determine(&me, &[ahead, behind], &view, pid(0), &[]).unwrap();
        assert_eq!(d.v, 2);
        assert_eq!(
            d.rl,
            vec![op1, op2],
            "must start from the slowest respondent"
        );
    }

    /// Same with no one ahead: the initiator re-proposes its own suffix
    /// from the slowest respondent.
    #[test]
    fn behind_branch_covers_multiple_missing_ops() {
        let view = View::new((0..6).map(pid).collect());
        let op1 = Op::remove(pid(0));
        let me = PhaseOneResp {
            from: pid(2),
            ver: 1,
            seq: vec![op1],
            next: vec![],
        };
        let behind = PhaseOneResp {
            from: pid(4),
            ver: 0,
            seq: vec![],
            next: vec![],
        };
        let d = determine(&me, &[behind], &view, pid(0), &[]).unwrap();
        assert_eq!(d.v, 1);
        assert_eq!(d.rl, vec![op1]);
    }

    /// GetNext yields nothing when the whole queue conflicts with RL.
    #[test]
    fn get_next_can_be_empty() {
        let view = View::new((0..4).map(pid).collect());
        let me = PhaseOneResp {
            from: pid(1),
            ver: 0,
            seq: vec![],
            next: vec![],
        };
        let d = determine(&me, &[], &view, pid(0), &[Op::remove(pid(0))]).unwrap();
        assert_eq!(d.rl, vec![Op::remove(pid(0))]);
        assert!(d.invis.is_empty(), "queue head conflicts with RL");
    }
}
