//! Consistent cuts over an event log.
//!
//! A *consistent cut* is a prefix of each process history, closed under
//! happens-before (§2.1). We represent a cut by the number of events taken
//! from each process history, and validate closure using the vector clock
//! of each event (for a simulated run, rebuilt by `Trace::to_event_log`).

use crate::Stamp;
use gmp_types::ProcessId;

/// Global index of an event in a recorded run (position in the trace).
pub type EventIndex = usize;

/// An event as seen by the cut machinery: who executed it and its vector
/// timestamp.
///
/// The timestamp is a [`Stamp`] — an `Arc`-shared snapshot — so events
/// whose clock did not advance share one vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoggedEvent {
    /// The process that executed the event.
    pub pid: ProcessId,
    /// Vector timestamp of the event.
    pub vc: Stamp,
}

/// An ordered log of stamped events, grouped per process, supporting
/// happens-before queries and consistent-cut validation.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<LoggedEvent>,
    /// Per-process list of global indices, in history order.
    histories: Vec<Vec<EventIndex>>,
}

impl EventLog {
    /// Builds a log for `n` processes.
    pub fn new(n: usize) -> Self {
        EventLog {
            events: Vec::new(),
            histories: vec![Vec::new(); n],
        }
    }

    /// Appends an event (events must be appended in a causally consistent
    /// total order, e.g. simulation order).
    ///
    /// # Panics
    ///
    /// Panics if the event's process index is out of range.
    pub fn push(&mut self, ev: LoggedEvent) -> EventIndex {
        let idx = self.events.len();
        let p = ev.pid.index();
        assert!(p < self.histories.len(), "process index out of range");
        self.histories[p].push(idx);
        self.events.push(ev);
        idx
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.histories.len()
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event at a global index.
    pub fn event(&self, idx: EventIndex) -> &LoggedEvent {
        &self.events[idx]
    }

    /// The history (global indices) of one process.
    pub fn history(&self, p: ProcessId) -> &[EventIndex] {
        &self.histories[p.index()]
    }

    /// Happens-before between two logged events.
    pub fn happens_before(&self, a: EventIndex, b: EventIndex) -> bool {
        self.events[a].vc.happened_before(&self.events[b].vc)
    }

    /// True when `a` is in the causal past of `b` (i.e. `a → b` or `a = b`).
    ///
    /// This is the basis of the epistemic analysis: with a full-information
    /// interpretation, process `p` *knows* at event `e` every fact determined
    /// by events in `e`'s causal past.
    pub fn in_causal_past(&self, a: EventIndex, b: EventIndex) -> bool {
        a == b || self.happens_before(a, b)
    }

    /// The cut induced by taking, at every process, exactly the events in
    /// the causal past of `e` (the least consistent cut containing `e`).
    pub fn past_cut(&self, e: EventIndex) -> Cut {
        let mut counts = vec![0usize; self.processes()];
        for (p, hist) in self.histories.iter().enumerate() {
            // Histories are causally ordered, so the past is a prefix.
            let mut k = 0;
            for &idx in hist {
                if self.in_causal_past(idx, e) {
                    k += 1;
                } else {
                    break;
                }
            }
            counts[p] = k;
        }
        Cut { counts }
    }

    /// Checks that a cut is consistent: for every event inside the cut, all
    /// events in its causal past are inside too.
    pub fn is_consistent(&self, cut: &Cut) -> bool {
        if cut.counts.len() != self.processes() {
            return false;
        }
        for (p, hist) in self.histories.iter().enumerate() {
            if cut.counts[p] > hist.len() {
                return false;
            }
        }
        // Frontier check: for each included event e, every event e' with
        // e' -> e must be included. It suffices to check the cut frontier
        // against every excluded event.
        for (p, hist) in self.histories.iter().enumerate() {
            let taken = cut.counts[p];
            if taken == 0 {
                continue;
            }
            let frontier = hist[taken - 1];
            for (q, qhist) in self.histories.iter().enumerate() {
                let qtaken = cut.counts[q];
                for &excluded in &qhist[qtaken..] {
                    if self.happens_before(excluded, frontier) {
                        return false;
                    }
                }
            }
            let _ = p;
        }
        true
    }
}

/// A cut: a per-process count of events taken from each history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    counts: Vec<usize>,
}

impl Cut {
    /// A cut taking `counts[p]` events from process `p`'s history.
    pub fn new(counts: Vec<usize>) -> Self {
        Cut { counts }
    }

    /// Number of events taken from `p`'s history.
    pub fn taken(&self, p: ProcessId) -> usize {
        self.counts[p.index()]
    }

    /// `self ≤ other`: every history prefix of `self` is a prefix of the
    /// corresponding prefix in `other` (the paper's `c < c'`).
    pub fn le(&self, other: &Cut) -> bool {
        self.counts.len() == other.counts.len()
            && self.counts.iter().zip(&other.counts).all(|(a, b)| a <= b)
    }

    /// The paper's `c << c'`: every prefix strictly shorter.
    pub fn lt_strict(&self, other: &Cut) -> bool {
        self.counts.len() == other.counts.len()
            && self.counts.iter().zip(&other.counts).all(|(a, b)| a < b)
    }

    /// True when the given global event index is inside the cut.
    pub fn contains(&self, log: &EventLog, e: EventIndex) -> bool {
        let ev = log.event(e);
        let hist = log.history(ev.pid);
        let pos = hist
            .iter()
            .position(|&i| i == e)
            .expect("event not in its history");
        pos < self.taken(ev.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorClock;

    /// Builds the classic two-process message scenario:
    /// p0: e0 (send) ; p1: e1 (local), e2 (recv of e0).
    fn sample_log() -> EventLog {
        let mut log = EventLog::new(2);
        let mut vc_a = VectorClock::new(2);
        let mut vc_b = VectorClock::new(2);
        vc_a.tick(0); // e0 = send at p0
        log.push(LoggedEvent {
            pid: ProcessId(0),
            vc: vc_a.clone().into(),
        });
        vc_b.tick(1); // e1 = local at p1
        log.push(LoggedEvent {
            pid: ProcessId(1),
            vc: vc_b.clone().into(),
        });
        vc_b.observe(&vc_a);
        vc_b.tick(1); // e2 = receive at p1
        log.push(LoggedEvent {
            pid: ProcessId(1),
            vc: vc_b.into(),
        });
        log
    }

    #[test]
    fn happens_before_queries() {
        let log = sample_log();
        assert!(log.happens_before(0, 2));
        assert!(!log.happens_before(2, 0));
        assert!(!log.happens_before(0, 1));
        assert!(log.in_causal_past(0, 0));
    }

    #[test]
    fn past_cut_is_consistent_and_minimal() {
        let log = sample_log();
        let cut = log.past_cut(2);
        assert!(log.is_consistent(&cut));
        assert_eq!(cut.taken(ProcessId(0)), 1);
        assert_eq!(cut.taken(ProcessId(1)), 2);
        assert!(cut.contains(&log, 0));
        assert!(cut.contains(&log, 2));
    }

    #[test]
    fn inconsistent_cut_detected() {
        let log = sample_log();
        // Take the receive (e2) but not the send (e0): not closed under ->.
        let cut = Cut::new(vec![0, 2]);
        assert!(!log.is_consistent(&cut));
        // Take only the send: consistent.
        let cut2 = Cut::new(vec![1, 0]);
        assert!(log.is_consistent(&cut2));
    }

    #[test]
    fn cut_ordering() {
        let a = Cut::new(vec![1, 0]);
        let b = Cut::new(vec![1, 2]);
        let c = Cut::new(vec![2, 2]);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(!a.lt_strict(&b)); // first component not strictly smaller
        assert!(a.lt_strict(&c));
    }
}
