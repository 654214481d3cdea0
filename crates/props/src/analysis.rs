//! Extraction of membership-relevant events from a recorded run.

use gmp_sim::{Trace, TraceKind};
use gmp_types::{Note, Op, ProcessId, Ver};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One installed local view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewRecord {
    /// The version installed.
    pub ver: Ver,
    /// Seniority-ordered membership: the note's list, shared.
    pub members: Arc<[ProcessId]>,
    /// The coordinator from the installer's perspective.
    pub mgr: ProcessId,
    /// Global index of the `ViewInstalled` event in the trace.
    pub event: usize,
}

/// One `faulty_p(q)` event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultyRecord {
    /// The believer `p`.
    pub observer: ProcessId,
    /// The suspect `q`.
    pub suspect: ProcessId,
    /// Global index of the event in the trace.
    pub event: usize,
}

/// One applied membership operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// The applying process.
    pub pid: ProcessId,
    /// The operation.
    pub op: Op,
    /// The version the application produced.
    pub ver: Ver,
    /// Global index of the event in the trace.
    pub event: usize,
}

/// Membership-relevant events of a run, grouped for the GMP checkers.
#[derive(Clone, Debug, Default)]
pub struct RunAnalysis {
    /// Number of processes in the run.
    pub n: usize,
    /// Per-process installed views, in history order.
    pub views: BTreeMap<ProcessId, Vec<ViewRecord>>,
    /// All `faulty_p(q)` events, in trace order.
    pub faulty: Vec<FaultyRecord>,
    /// All applied operations, in trace order.
    pub applied: Vec<OpRecord>,
    /// Processes that crashed (fault injection).
    pub crashed: BTreeSet<ProcessId>,
    /// Processes that executed `quit` themselves.
    pub quit: BTreeSet<ProcessId>,
}

impl RunAnalysis {
    /// Processes that neither crashed nor quit.
    pub fn functional(&self) -> BTreeSet<ProcessId> {
        (0..self.n as u32)
            .map(ProcessId)
            .filter(|p| !self.crashed.contains(p) && !self.quit.contains(p))
            .collect()
    }

    /// The highest version installed anywhere, with its membership — the
    /// final system view of a quiescent run.
    pub fn final_system_view(&self) -> Option<&ViewRecord> {
        self.views
            .values()
            .flat_map(|vs| vs.iter())
            .max_by_key(|v| (v.ver, v.event))
    }

    /// The last view installed by one process.
    pub fn final_view_of(&self, p: ProcessId) -> Option<&ViewRecord> {
        self.views.get(&p).and_then(|vs| vs.last())
    }

    /// All distinct memberships recorded for a version.
    pub fn memberships_of_ver(&self, x: Ver) -> Vec<&ViewRecord> {
        self.views
            .values()
            .flat_map(|vs| vs.iter())
            .filter(|v| v.ver == x)
            .collect()
    }
}

/// Scans a trace into a [`RunAnalysis`].
pub fn analyze(trace: &Trace) -> RunAnalysis {
    let mut a = RunAnalysis {
        n: trace.n,
        ..RunAnalysis::default()
    };
    for (idx, ev) in trace.events.iter().enumerate() {
        match &ev.kind {
            TraceKind::Crash => {
                a.crashed.insert(ev.pid);
            }
            TraceKind::Quit => {
                a.quit.insert(ev.pid);
            }
            TraceKind::Note(note) => match &**note {
                Note::ViewInstalled { ver, members, mgr } => {
                    a.views.entry(ev.pid).or_default().push(ViewRecord {
                        ver: *ver,
                        members: members.clone(),
                        mgr: *mgr,
                        event: idx,
                    });
                }
                Note::Faulty { suspect, .. } => {
                    a.faulty.push(FaultyRecord {
                        observer: ev.pid,
                        suspect: *suspect,
                        event: idx,
                    });
                }
                Note::OpApplied { op, ver } => {
                    a.applied.push(OpRecord {
                        pid: ev.pid,
                        op: *op,
                        ver: *ver,
                        event: idx,
                    });
                }
                _ => {}
            },
            _ => {}
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmp_sim::TraceEvent;
    use gmp_types::note::FaultySource;

    #[test]
    fn analysis_collects_records() {
        let mut t = Trace {
            n: 3,
            events: Default::default(),
        };
        for note in [
            Note::ViewInstalled {
                ver: 0,
                members: vec![ProcessId(0), ProcessId(1)].into(),
                mgr: ProcessId(0),
            },
            Note::Faulty {
                suspect: ProcessId(1),
                source: FaultySource::Observation,
            },
            Note::OpApplied {
                op: Op::remove(ProcessId(1)),
                ver: 1,
            },
            Note::ViewInstalled {
                ver: 1,
                members: vec![ProcessId(0)].into(),
                mgr: ProcessId(0),
            },
        ] {
            t.events.push_note(0, ProcessId(0), note);
        }
        t.events.push(TraceEvent {
            time: 5,
            pid: ProcessId(1),
            kind: TraceKind::Crash,
        });

        let a = analyze(&t);
        assert_eq!(a.n, 3);
        assert_eq!(a.views[&ProcessId(0)].len(), 2);
        assert_eq!(a.faulty.len(), 1);
        assert_eq!(a.applied.len(), 1);
        assert!(a.crashed.contains(&ProcessId(1)));
        assert_eq!(
            a.functional(),
            [ProcessId(0), ProcessId(2)].into_iter().collect()
        );
        assert_eq!(a.final_system_view().unwrap().ver, 1);
        assert_eq!(a.memberships_of_ver(1).len(), 1);
        assert_eq!(a.final_view_of(ProcessId(0)).unwrap().ver, 1);
        assert!(a.final_view_of(ProcessId(2)).is_none());
    }
}
