//! The GMP specification (§2.3) as executable checks over recorded runs.
//!
//! Each check corresponds to one clause of the paper's problem definition.
//! GMP-5 and convergence are *liveness* properties: they are meaningful only
//! on quiescent runs (run the simulation long enough for the protocol to
//! settle before checking).

use crate::analysis::{analyze, RunAnalysis};
use gmp_sim::Trace;
use gmp_types::{OpKind, ProcessId, Ver};
use std::collections::BTreeSet;
use std::fmt;

/// A violation of the GMP specification found in a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// GMP-0: initial local views disagree.
    Gmp0 {
        /// A process whose initial view differs from the first one seen.
        pid: ProcessId,
    },
    /// GMP-1: a process removed another without a preceding `faulty` event.
    Gmp1 {
        /// The remover.
        pid: ProcessId,
        /// The removed process.
        target: ProcessId,
        /// The version produced by the unjustified removal.
        ver: Ver,
    },
    /// GMP-2: two different memberships exist for the same version.
    Gmp2 {
        /// The version with conflicting memberships.
        ver: Ver,
        /// One membership.
        a: Vec<ProcessId>,
        /// The other membership.
        b: Vec<ProcessId>,
    },
    /// GMP-3: a process skipped a version (its local view sequence is not
    /// consecutive).
    Gmp3 {
        /// The process with the gap.
        pid: ProcessId,
        /// The version it held before the gap.
        from: Ver,
        /// The version it jumped to.
        to: Ver,
    },
    /// GMP-4: a removed process was re-instated into a local view.
    Gmp4 {
        /// The process whose view re-admitted someone.
        pid: ProcessId,
        /// The re-instated process.
        returned: ProcessId,
        /// The version at which it returned.
        ver: Ver,
    },
    /// GMP-5: a suspicion never led to either party leaving the system view
    /// (checked on quiescent runs only).
    Gmp5 {
        /// The believer.
        observer: ProcessId,
        /// The suspect that was never dealt with.
        suspect: ProcessId,
    },
    /// Functional processes ended the run with different views.
    Diverged {
        /// First process.
        a: ProcessId,
        /// Second process.
        b: ProcessId,
        /// `a`'s final membership.
        view_a: Vec<ProcessId>,
        /// `b`'s final membership.
        view_b: Vec<ProcessId>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Gmp0 { pid } => write!(f, "GMP-0: {pid} has a different initial view"),
            Violation::Gmp1 { pid, target, ver } => {
                write!(
                    f,
                    "GMP-1: {pid} removed {target} (v{ver}) without believing it faulty"
                )
            }
            Violation::Gmp2 { ver, a, b } => {
                write!(f, "GMP-2: version {ver} has two memberships {a:?} vs {b:?}")
            }
            Violation::Gmp3 { pid, from, to } => {
                write!(f, "GMP-3: {pid} skipped from v{from} to v{to}")
            }
            Violation::Gmp4 { pid, returned, ver } => {
                write!(f, "GMP-4: {pid} re-instated {returned} at v{ver}")
            }
            Violation::Gmp5 { observer, suspect } => {
                write!(
                    f,
                    "GMP-5: {observer} suspected {suspect} but neither left the view"
                )
            }
            Violation::Diverged {
                a,
                b,
                view_a,
                view_b,
            } => {
                write!(
                    f,
                    "divergence: {a} ended with {view_a:?}, {b} with {view_b:?}"
                )
            }
        }
    }
}

/// Outcome of checking a run against (part of) the GMP specification.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All violations found, in no particular order.
    pub violations: Vec<Violation>,
}

impl Report {
    /// True when no violations were found.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable message if any violation was found; for use
    /// in tests.
    ///
    /// # Panics
    ///
    /// Panics when the report contains violations.
    pub fn assert_ok(&self) {
        if !self.is_ok() {
            let mut msg = String::from("GMP violations found:\n");
            for v in &self.violations {
                msg.push_str(&format!("  - {v}\n"));
            }
            panic!("{msg}");
        }
    }
}

/// GMP-0: every process that installs version 0 installs the same view
/// (`Proc = Sys(c₀, Proc)`).
pub fn check_gmp0(a: &RunAnalysis) -> Vec<Violation> {
    let mut first: Option<&[ProcessId]> = None;
    let mut out = Vec::new();
    for (pid, views) in &a.views {
        if let Some(v0) = views.iter().find(|v| v.ver == 0) {
            match first {
                None => first = Some(&v0.members),
                Some(expected) => {
                    if *v0.members != *expected {
                        out.push(Violation::Gmp0 { pid: *pid });
                    }
                }
            }
        }
    }
    out
}

/// GMP-1: `q ∉ Memb(p) ⇒ faulty_p(q)` — every removal applied by `p` is
/// preceded (in `p`'s history) by `faulty_p(target)`.
pub fn check_gmp1(a: &RunAnalysis) -> Vec<Violation> {
    let mut out = Vec::new();
    for rec in &a.applied {
        if rec.op.kind != OpKind::Remove {
            continue;
        }
        let justified = a
            .faulty
            .iter()
            .any(|f| f.observer == rec.pid && f.suspect == rec.op.target && f.event < rec.event);
        if !justified {
            out.push(Violation::Gmp1 {
                pid: rec.pid,
                target: rec.op.target,
                ver: rec.ver,
            });
        }
    }
    out
}

/// GMP-2: system views are unique — all processes installing version `x`
/// install the same membership.
pub fn check_gmp2(a: &RunAnalysis) -> Vec<Violation> {
    let mut out = Vec::new();
    let max_ver = a
        .views
        .values()
        .flat_map(|vs| vs.iter().map(|v| v.ver))
        .max()
        .unwrap_or(0);
    for x in 0..=max_ver {
        let insts = a.memberships_of_ver(x);
        for w in insts.windows(2) {
            if w[0].members != w[1].members {
                out.push(Violation::Gmp2 {
                    ver: x,
                    a: w[0].members.to_vec(),
                    b: w[1].members.to_vec(),
                });
                break;
            }
        }
    }
    out
}

/// GMP-3: every process sees a consecutive sequence of local views (crashed
/// processes see a prefix; joiners a suffix — both allowed).
pub fn check_gmp3(a: &RunAnalysis) -> Vec<Violation> {
    let mut out = Vec::new();
    for (pid, views) in &a.views {
        for w in views.windows(2) {
            if w[1].ver != w[0].ver + 1 {
                out.push(Violation::Gmp3 {
                    pid: *pid,
                    from: w[0].ver,
                    to: w[1].ver,
                });
            }
        }
    }
    out
}

/// GMP-4: `q ∉ Memb(p) ⇒ □(q ∉ Memb(p))` — once a process disappears from
/// `p`'s local view it never returns.
///
/// Each view's members are probed against a sorted copy of the next
/// view's, so a history of `k` views of `n` members costs
/// O(k · n log n), not O(k · n²).
pub fn check_gmp4(a: &RunAnalysis) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut sorted: Vec<ProcessId> = Vec::new();
    for (pid, views) in &a.views {
        let mut removed: BTreeSet<ProcessId> = BTreeSet::new();
        let mut prev: Option<&[ProcessId]> = None;
        for v in views {
            if let Some(prev_members) = prev {
                sorted.clear();
                sorted.extend_from_slice(&v.members);
                sorted.sort_unstable();
                let gone = prev_members
                    .iter()
                    .filter(|m| sorted.binary_search(m).is_err());
                removed.extend(gone);
            }
            for m in v.members.iter() {
                if removed.contains(m) {
                    out.push(Violation::Gmp4 {
                        pid: *pid,
                        returned: *m,
                        ver: v.ver,
                    });
                }
            }
            prev = Some(&v.members);
        }
    }
    out
}

/// GMP-5 (liveness; quiescent runs only): for every `faulty_p(q)` with `p`
/// functional, eventually `q` or `p` is out of the system view.
pub fn check_gmp5(a: &RunAnalysis) -> Vec<Violation> {
    let Some(final_view) = a.final_system_view() else {
        return Vec::new();
    };
    let functional = a.functional();
    let mut out = Vec::new();
    let mut seen: BTreeSet<(ProcessId, ProcessId)> = BTreeSet::new();
    for f in &a.faulty {
        if !seen.insert((f.observer, f.suspect)) {
            continue;
        }
        if !functional.contains(&f.observer) {
            continue; // detections by failed processes are finessed (§2.3)
        }
        let suspect_out = !final_view.members.contains(&f.suspect);
        let observer_out = !final_view.members.contains(&f.observer);
        if !suspect_out && !observer_out {
            out.push(Violation::Gmp5 {
                observer: f.observer,
                suspect: f.suspect,
            });
        }
    }
    out
}

/// Convergence ("1-copy behaviour", §2.3): all functional processes that
/// ever installed a view end the run with the *same* final view at the
/// maximum version.
pub fn check_convergence(a: &RunAnalysis) -> Vec<Violation> {
    let functional = a.functional();
    let mut out = Vec::new();
    let finals: Vec<(ProcessId, &crate::analysis::ViewRecord)> = functional
        .iter()
        .filter_map(|p| a.final_view_of(*p).map(|v| (*p, v)))
        .collect();
    for w in finals.windows(2) {
        let (pa, va) = &w[0];
        let (pb, vb) = &w[1];
        if va.members != vb.members {
            out.push(Violation::Diverged {
                a: *pa,
                b: *pb,
                view_a: va.members.to_vec(),
                view_b: vb.members.to_vec(),
            });
        }
    }
    out
}

/// Runs the *safety* checks (GMP-0…GMP-4): valid on any run, quiescent or
/// not.
pub fn check_safety(trace: &Trace) -> Report {
    let a = analyze(trace);
    let mut violations = Vec::new();
    violations.extend(check_gmp0(&a));
    violations.extend(check_gmp1(&a));
    violations.extend(check_gmp2(&a));
    violations.extend(check_gmp3(&a));
    violations.extend(check_gmp4(&a));
    Report { violations }
}

/// Runs the full specification including the liveness clauses (GMP-5,
/// convergence); only meaningful on quiescent runs.
pub fn check_all(trace: &Trace) -> Report {
    let a = analyze(trace);
    let mut violations = Vec::new();
    violations.extend(check_gmp0(&a));
    violations.extend(check_gmp1(&a));
    violations.extend(check_gmp2(&a));
    violations.extend(check_gmp3(&a));
    violations.extend(check_gmp4(&a));
    violations.extend(check_gmp5(&a));
    violations.extend(check_convergence(&a));
    Report { violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{FaultyRecord, OpRecord, ViewRecord};
    use gmp_types::Op;
    use proptest::prelude::*;

    fn views(pid: u32, specs: &[(Ver, &[u32])]) -> (ProcessId, Vec<ViewRecord>) {
        (
            ProcessId(pid),
            specs
                .iter()
                .enumerate()
                .map(|(i, (ver, ms))| ViewRecord {
                    ver: *ver,
                    members: ms.iter().map(|&m| ProcessId(m)).collect(),
                    mgr: ProcessId(0),
                    event: i,
                })
                .collect(),
        )
    }

    fn base() -> RunAnalysis {
        let mut a = RunAnalysis {
            n: 3,
            ..Default::default()
        };
        let (p, v) = views(0, &[(0, &[0, 1, 2]), (1, &[0, 1])]);
        a.views.insert(p, v);
        let (p, v) = views(1, &[(0, &[0, 1, 2]), (1, &[0, 1])]);
        a.views.insert(p, v);
        a.crashed.insert(ProcessId(2));
        a.faulty.push(FaultyRecord {
            observer: ProcessId(0),
            suspect: ProcessId(2),
            event: 0,
        });
        a.faulty.push(FaultyRecord {
            observer: ProcessId(1),
            suspect: ProcessId(2),
            event: 0,
        });
        a.applied.push(OpRecord {
            pid: ProcessId(0),
            op: Op::remove(ProcessId(2)),
            ver: 1,
            event: 1,
        });
        a
    }

    #[test]
    fn clean_run_passes() {
        let a = base();
        assert!(check_gmp0(&a).is_empty());
        assert!(check_gmp1(&a).is_empty());
        assert!(check_gmp2(&a).is_empty());
        assert!(check_gmp3(&a).is_empty());
        assert!(check_gmp4(&a).is_empty());
        assert!(check_gmp5(&a).is_empty());
        assert!(check_convergence(&a).is_empty());
    }

    #[test]
    fn gmp0_detects_disagreeing_initial_views() {
        let mut a = base();
        let (p, v) = views(2, &[(0, &[0, 2])]);
        a.views.insert(p, v);
        assert_eq!(check_gmp0(&a).len(), 1);
    }

    #[test]
    fn gmp1_detects_capricious_removal() {
        let mut a = base();
        a.faulty.clear();
        let v = check_gmp1(&a);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Gmp1 {
                target: ProcessId(2),
                ..
            }
        ));
    }

    #[test]
    fn gmp1_requires_belief_before_removal() {
        let mut a = base();
        a.faulty.clear();
        // Belief recorded after the removal: still a violation.
        a.faulty.push(FaultyRecord {
            observer: ProcessId(0),
            suspect: ProcessId(2),
            event: 9,
        });
        assert_eq!(check_gmp1(&a).len(), 1);
    }

    #[test]
    fn gmp2_detects_conflicting_version() {
        let mut a = base();
        let (p, v) = views(2, &[(1, &[0, 2])]); // different membership for v1
        a.views.insert(p, v);
        assert_eq!(check_gmp2(&a).len(), 1);
    }

    #[test]
    fn gmp3_detects_skipped_version() {
        let mut a = base();
        let (p, v) = views(2, &[(0, &[0, 1, 2]), (2, &[0])]);
        a.views.insert(p, v);
        assert_eq!(check_gmp3(&a).len(), 1);
    }

    #[test]
    fn gmp4_detects_reinstatement() {
        let mut a = base();
        let (p, v) = views(2, &[(0, &[0, 1, 2]), (1, &[0, 1]), (2, &[0, 1, 2])]);
        a.views.insert(p, v);
        let vio = check_gmp4(&a);
        assert_eq!(vio.len(), 1);
        assert!(matches!(
            vio[0],
            Violation::Gmp4 {
                returned: ProcessId(2),
                ..
            }
        ));
    }

    /// The reference GMP-4 verdict: every member of each view probed
    /// against the next view's list by a linear scan.
    fn check_gmp4_quadratic(a: &RunAnalysis) -> Vec<Violation> {
        let mut out = Vec::new();
        for (pid, views) in &a.views {
            let mut removed: BTreeSet<ProcessId> = BTreeSet::new();
            let mut prev: Option<&[ProcessId]> = None;
            for v in views {
                if let Some(prev_members) = prev {
                    for m in prev_members {
                        if !v.members.contains(m) {
                            removed.insert(*m);
                        }
                    }
                }
                for m in v.members.iter() {
                    if removed.contains(m) {
                        out.push(Violation::Gmp4 {
                            pid: *pid,
                            returned: *m,
                            ver: v.ver,
                        });
                    }
                }
                prev = Some(&v.members);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The sorted probe gives the quadratic scan's violations, in the
        /// same order, on histories of removals and adds with returns
        /// planted (a removed member put back) and steps that change
        /// nothing.
        #[test]
        fn gmp4_agrees_with_the_quadratic_scan(
            histories in proptest::collection::vec(
                (
                    proptest::collection::btree_set(0u32..12, 1..10),
                    proptest::collection::vec(
                        (0u32..12, 0u8..4),
                        0..16,
                    ),
                ),
                1..4,
            ),
        ) {
            let mut a = RunAnalysis::default();
            let mut planted = false;
            for (pid, (initial, steps)) in (0u32..).zip(histories) {
                let mut members: Vec<ProcessId> = initial.into_iter().map(ProcessId).collect();
                let mut gone: Vec<ProcessId> = Vec::new();
                let record = |ver, members: &[ProcessId]| ViewRecord {
                    ver,
                    members: members.into(),
                    mgr: ProcessId(0),
                    event: 0,
                };
                let mut records = vec![record(0, &members)];
                for (ver, (id, kind)) in (1..).zip(steps) {
                    let p = ProcessId(id);
                    match kind {
                        // Remove `p`, if present.
                        0 | 1 => {
                            if let Some(i) = members.iter().position(|&m| m == p) {
                                gone.push(members.remove(i));
                            }
                        }
                        // Add `p` at the junior end, if absent.
                        2 => {
                            if !members.contains(&p) {
                                members.push(p);
                            }
                        }
                        // Plant a return: put a removed member back.
                        _ => {
                            let back = gone.get(id as usize % gone.len().max(1));
                            if let Some(&back) = back.filter(|b| !members.contains(b)) {
                                members.push(back);
                                planted = true;
                            }
                        }
                    }
                    records.push(record(ver, &members));
                }
                a.views.insert(ProcessId(pid), records);
            }
            let want = check_gmp4_quadratic(&a);
            prop_assert!(!planted || !want.is_empty(), "a planted return went unseen");
            prop_assert_eq!(check_gmp4(&a), want);
        }
    }

    #[test]
    fn gmp5_detects_undealt_suspicion() {
        let mut a = base();
        // p0 suspects p1, but both remain in the final view {0, 1}.
        a.faulty.push(FaultyRecord {
            observer: ProcessId(0),
            suspect: ProcessId(1),
            event: 5,
        });
        let v = check_gmp5(&a);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Gmp5 {
                suspect: ProcessId(1),
                ..
            }
        ));
    }

    #[test]
    fn gmp5_ignores_failed_observers() {
        let mut a = base();
        // The crashed p2 suspected p0: finessed by the spec.
        a.faulty.push(FaultyRecord {
            observer: ProcessId(2),
            suspect: ProcessId(0),
            event: 5,
        });
        assert!(check_gmp5(&a).is_empty());
    }

    #[test]
    fn convergence_detects_divergence() {
        let mut a = base();
        a.views.get_mut(&ProcessId(1)).unwrap().push(ViewRecord {
            ver: 2,
            members: vec![ProcessId(1)].into(),
            mgr: ProcessId(1),
            event: 7,
        });
        // Now p0 ends with {0,1} but p1 ends with {1}.
        assert_eq!(check_convergence(&a).len(), 1);
    }

    #[test]
    fn report_assert_ok_panics_with_details() {
        let r = Report {
            violations: vec![Violation::Gmp0 { pid: ProcessId(1) }],
        };
        let err = std::panic::catch_unwind(|| r.assert_ok()).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("GMP-0"));
    }

    #[test]
    fn violations_display() {
        let vs = [
            Violation::Gmp0 { pid: ProcessId(1) },
            Violation::Gmp1 {
                pid: ProcessId(0),
                target: ProcessId(1),
                ver: 1,
            },
            Violation::Gmp2 {
                ver: 1,
                a: vec![],
                b: vec![],
            },
            Violation::Gmp3 {
                pid: ProcessId(0),
                from: 1,
                to: 3,
            },
            Violation::Gmp4 {
                pid: ProcessId(0),
                returned: ProcessId(1),
                ver: 2,
            },
            Violation::Gmp5 {
                observer: ProcessId(0),
                suspect: ProcessId(1),
            },
            Violation::Diverged {
                a: ProcessId(0),
                b: ProcessId(1),
                view_a: vec![],
                view_b: vec![],
            },
        ];
        for v in &vs {
            assert!(!v.to_string().is_empty());
        }
    }
}
