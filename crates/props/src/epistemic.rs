//! Executable form of the paper's epistemic analysis (Appendix).
//!
//! The appendix phrases GMP in terms of process knowledge:
//!
//! * **Equation 4** — when `p` receives the commit `!x` (installs version
//!   `x`), it knows that `Sys^{x-1}` *was* a defined system view:
//!   `(ver(p) = x) ⇒ K_p ◇̄ IsSysView(x−1)`;
//! * the **knowledge ladder** — `IsSysView(x) ⇒ (E◇̄)^y IsSysView(x−y)`:
//!   deeper past views are known at correspondingly deeper "everyone knows"
//!   levels.
//!
//! We evaluate knowledge under the standard full-information reading: `p`
//! knows a fact at event `e` if the fact is determined by events in `e`'s
//! causal past. Installation events carry vector clocks, so "does `p` know
//! `IsSysView(w)` when installing `x`" becomes "is some installation of `w`
//! in the causal past of `p`'s installation of `x`" — the FIFO-channel
//! argument the appendix makes informally.

use crate::analysis::analyze;
use gmp_sim::Trace;
use gmp_types::{ProcessId, Ver};

/// Result of the Equation 4 check for one installation event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HindsightRecord {
    /// The process installing the view.
    pub pid: ProcessId,
    /// The version installed.
    pub ver: Ver,
    /// Whether an installation of `ver − 1` lies in the causal past.
    pub knows_previous: bool,
}

/// Checks Equation 4 on every installation with `ver ≥ 2` in the run:
/// installing `x` implies causally knowing that `x−1` was installed
/// somewhere.
///
/// Version 1 installations are exempt: `Sys^0` is the initial view, which
/// is commonly known by assumption (GMP-0) rather than through messages.
pub fn check_hindsight(trace: &Trace) -> Vec<HindsightRecord> {
    let a = analyze(trace);
    let log = trace.to_event_log();
    let mut out = Vec::new();
    for (&pid, views) in &a.views {
        for v in views {
            if v.ver < 2 {
                continue;
            }
            let prev_installed_in_past = a
                .views
                .values()
                .flat_map(|vs| vs.iter())
                .filter(|w| w.ver == v.ver - 1)
                .any(|w| log.in_causal_past(w.event, v.event));
            out.push(HindsightRecord {
                pid,
                ver: v.ver,
                knows_previous: prev_installed_in_past,
            });
        }
    }
    out
}

/// True when Equation 4 holds at every checked installation of the run.
pub fn hindsight_holds(trace: &Trace) -> bool {
    check_hindsight(trace).iter().all(|r| r.knows_previous)
}

/// One row of the knowledge-ladder table (experiment A1): for version `x`,
/// the maximum depth `y` such that every member installing `x` causally
/// knows `IsSysView(x−y)` at its installation event — and transitively all
/// shallower depths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LadderRow {
    /// The version whose installations are examined.
    pub ver: Ver,
    /// Number of processes that installed this version.
    pub installers: usize,
    /// Maximum uniformly-known depth (`x` itself means full history).
    pub max_depth: u64,
}

/// Computes the knowledge ladder `IsSysView(x) ⇒ (E◇̄)^y IsSysView(x−y)`
/// over a recorded run (see module docs for the causal-cone reading).
pub fn knowledge_ladder(trace: &Trace) -> Vec<LadderRow> {
    let a = analyze(trace);
    let log = trace.to_event_log();
    let max_ver = a
        .views
        .values()
        .flat_map(|vs| vs.iter().map(|v| v.ver))
        .max()
        .unwrap_or(0);
    let mut rows = Vec::new();
    for x in 1..=max_ver {
        let installs: Vec<_> = a.memberships_of_ver(x).into_iter().collect();
        if installs.is_empty() {
            continue;
        }
        let mut depth = 0;
        'depth: for y in 1..=x {
            let w = x - y;
            // Every installer of x must causally see some installation of w
            // (or hold w itself in its own history: a process's own past
            // views are trivially known).
            for inst in &installs {
                let known = a
                    .views
                    .values()
                    .flat_map(|vs| vs.iter())
                    .filter(|r| r.ver == w)
                    .any(|r| log.in_causal_past(r.event, inst.event));
                if !known {
                    break 'depth;
                }
            }
            depth = y;
        }
        rows.push(LadderRow {
            ver: x,
            installers: installs.len(),
            max_depth: depth,
        });
    }
    rows
}

/// Pretty-prints the ladder as the A1 experiment table.
pub fn render_ladder(rows: &[LadderRow]) -> String {
    let mut out = String::from("ver  installers  max-known-depth\n");
    for r in rows {
        out.push_str(&format!(
            "{:<4} {:<11} {}\n",
            r.ver, r.installers, r.max_depth
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // End-to-end epistemic checks against real protocol runs live in the
    // integration test suite (tests/epistemic.rs at the workspace root);
    // here we only exercise the empty-trace edges.
    #[test]
    fn empty_trace_is_trivially_fine() {
        let trace = Trace {
            n: 2,
            events: Default::default(),
        };
        assert!(check_hindsight(&trace).is_empty());
        assert!(hindsight_holds(&trace));
        assert!(knowledge_ladder(&trace).is_empty());
        assert_eq!(render_ladder(&[]).lines().count(), 1);
    }

    #[test]
    fn render_has_rows() {
        let rows = vec![LadderRow {
            ver: 1,
            installers: 3,
            max_depth: 1,
        }];
        let s = render_ladder(&rows);
        assert!(s.contains("1"));
        assert_eq!(s.lines().count(), 2);
    }
}
