//! The stamped events of a recorded run, and happens-before between them.
//!
//! Each event carries its vector clock (for a simulated run, rebuilt by
//! `Trace::to_event_log`), so comparing two events' clocks answers
//! whether one lies in the causal past of the other.

use crate::Stamp;
use gmp_types::ProcessId;

/// An event of the log: who executed it and its vector timestamp.
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

/// An ordered log of stamped events, indexed by their position in the run,
/// supporting happens-before queries.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<LoggedEvent>,
    processes: usize,
}

impl EventLog {
    /// Builds a log for `n` processes.
    pub fn new(n: usize) -> Self {
        EventLog {
            events: Vec::new(),
            processes: n,
        }
    }

    /// Appends an event (events must be appended in a causally consistent
    /// total order, e.g. simulation order) and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the event's process index is out of range.
    pub fn push(&mut self, ev: LoggedEvent) -> usize {
        assert!(
            ev.pid.index() < self.processes,
            "process index out of range"
        );
        self.events.push(ev);
        self.events.len() - 1
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.processes
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event at an index.
    pub fn event(&self, idx: usize) -> &LoggedEvent {
        &self.events[idx]
    }

    /// Happens-before between two logged events.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        self.events[a].vc.happened_before(&self.events[b].vc)
    }

    /// True when `a` is in the causal past of `b` (i.e. `a → b` or `a = b`).
    ///
    /// This is the basis of the epistemic analysis: with a full-information
    /// interpretation, process `p` *knows* at event `e` every fact determined
    /// by events in `e`'s causal past.
    pub fn in_causal_past(&self, a: usize, b: usize) -> bool {
        a == b || self.happens_before(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CowClock;

    /// Builds the classic two-process message scenario:
    /// p0: e0 (send) ; p1: e1 (local), e2 (recv of e0).
    fn sample_log() -> EventLog {
        let mut log = EventLog::new(2);
        let (mut a, mut b) = (CowClock::new(2), CowClock::new(2));
        a.tick(0); // e0 = send at p0
        log.push(LoggedEvent {
            pid: ProcessId(0),
            vc: a.stamp(),
        });
        b.tick(1); // e1 = local at p1
        log.push(LoggedEvent {
            pid: ProcessId(1),
            vc: b.stamp(),
        });
        b.observe(&a.stamp());
        b.tick(1); // e2 = receive at p1
        log.push(LoggedEvent {
            pid: ProcessId(1),
            vc: b.stamp(),
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
}
