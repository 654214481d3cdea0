//! Recorded runs: every event of every process history, with its Lamport
//! stamp. Vector stamps are a function of the recorded `Send`/`Recv` edges
//! and are rebuilt on demand by [`Trace::to_event_log`].

use crate::hash::IntMap;
use crate::Time;
use gmp_causality::{CowClock, EventLog, LoggedEvent, Stamp};
use gmp_types::{Note, ProcessId};
use std::cell::RefCell;

/// Largest event buffer, in bytes of capacity, that a dropped [`Trace`]
/// parks for reuse; a one-off giant run's buffer goes back to the
/// allocator instead of staying pinned to its thread.
const SPARE_MAX_BYTES: usize = 64 << 20;

thread_local! {
    /// The cleared event buffer of the largest `Trace` dropped on this
    /// thread so far (up to [`SPARE_MAX_BYTES`]); [`Trace::new`] takes it,
    /// so the second and every later run on a thread — a seed sweep, a
    /// pool worker, a proptest case — appends into warm capacity instead
    /// of re-growing a multi-megabyte `Vec` from empty. One slot, replaced
    /// only by a larger buffer; per thread, so parallel sweeps share
    /// nothing. Contents never survive: only capacity is recycled.
    static SPARE: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

/// What happened at one event of a process history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// The unique initial event `start_p` (§2.1).
    Start,
    /// A message send `send(p, to, m)`.
    Send {
        /// Receiver.
        to: ProcessId,
        /// Unique id matching the corresponding `Recv`, if delivered.
        msg_id: u64,
        /// Message kind tag.
        tag: &'static str,
    },
    /// A message reception `recv(from, p, m)`.
    Recv {
        /// Sender.
        from: ProcessId,
        /// Unique id matching the corresponding `Send`.
        msg_id: u64,
        /// Message kind tag.
        tag: &'static str,
    },
    /// A local timer fired.
    Timer {
        /// The tag passed to `set_timer`.
        tag: u64,
    },
    /// The crash event `quit_p` injected by the experiment (§2.1: crashes
    /// are permanent; recovery is modeled as a new process instance).
    Crash,
    /// The process executed `quit` itself (excluded, or lost a majority).
    Quit,
    /// A semantic protocol annotation.
    Note(Note),
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub time: Time,
    /// The process that executed the event.
    pub pid: ProcessId,
    /// Lamport timestamp, recorded by the engine.
    pub lamport: u64,
    /// The event itself.
    pub kind: TraceKind,
}

/// A recorded run: the n-tuple of process histories (§2.1), flattened in
/// simulation order (which is a linearization consistent with
/// happens-before).
///
/// Dropping a trace lends the *capacity* of `events` to the next run the
/// engine starts on the same thread; a clone owns an ordinary buffer.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Number of processes in the run.
    pub n: usize,
    /// All events, in simulation order.
    pub events: Vec<TraceEvent>,
}

impl Drop for Trace {
    /// Parks the event buffer in the thread's spare slot (see `SPARE`).
    fn drop(&mut self) {
        let bytes = self.events.capacity() * std::mem::size_of::<TraceEvent>();
        // `try_with`: a trace dropped while its thread's locals are being
        // torn down simply frees its buffer.
        let _ = SPARE.try_with(|spare| {
            let mut parked = spare.borrow_mut();
            if self.events.capacity() > parked.capacity() && bytes <= SPARE_MAX_BYTES {
                self.events.clear();
                std::mem::swap(&mut *parked, &mut self.events);
            }
        });
    }
}

impl Trace {
    pub(crate) fn new(n: usize) -> Self {
        Trace {
            n,
            events: SPARE.take(),
        }
    }

    /// Iterator over all semantic notes, with their event metadata.
    pub fn notes(&self) -> impl Iterator<Item = (&TraceEvent, &Note)> {
        self.events.iter().filter_map(|e| match &e.kind {
            TraceKind::Note(n) => Some((e, n)),
            _ => None,
        })
    }

    /// Iterator over the events of one process, in history order.
    pub fn history(&self, pid: ProcessId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.pid == pid)
    }

    /// Converts the run into an [`EventLog`] for happens-before and
    /// consistent-cut queries. Event indices in the log coincide with
    /// indices into [`Trace::events`].
    ///
    /// The vector stamps are rebuilt here, in one pass in simulation order:
    /// every event ticks its process's clock, except a `Note`, which shares
    /// the process's current stamp; a `Recv` first observes the stamp of
    /// the `Send` carrying its `msg_id`. Θ(n) time and memory per
    /// clock-advancing event — paid by the caller that asks for
    /// happens-before, not by every run.
    ///
    /// # Panics
    ///
    /// Panics if a `Recv` names a `msg_id` that no earlier, still
    /// unreceived `Send` carried: such a trace is malformed.
    pub fn to_event_log(&self) -> EventLog {
        let mut log = EventLog::new(self.n);
        let mut clocks = vec![CowClock::new(self.n); self.n];
        // `msg_id`s are the engine's own counter: no crafted collisions.
        let mut in_flight: IntMap<u64, Stamp> = IntMap::default();
        for ev in &self.events {
            let p = ev.pid.index();
            let clock = &mut clocks[p];
            match &ev.kind {
                TraceKind::Note(_) => {}
                TraceKind::Recv { msg_id, .. } => {
                    // A message is received at most once: forget its stamp.
                    let sent = in_flight.remove(msg_id).unwrap_or_else(|| {
                        panic!("malformed trace: recv of msg_id {msg_id} has no earlier send")
                    });
                    clock.observe(&sent);
                    clock.tick(p);
                }
                _ => clock.tick(p),
            }
            let vc = clock.stamp();
            if let TraceKind::Send { msg_id, .. } = ev.kind {
                in_flight.insert(msg_id, vc.clone());
            }
            log.push(LoggedEvent { pid: ev.pid, vc });
        }
        log
    }

    /// Renders a human-readable timeline of selected events (used by the
    /// figure-regeneration harness).
    pub fn render<F>(&self, mut select: F) -> String
    where
        F: FnMut(&TraceEvent) -> bool,
    {
        let mut out = String::new();
        for ev in self.events.iter().filter(|e| select(e)) {
            let line = match &ev.kind {
                TraceKind::Start => format!("t={:<6} {}  start", ev.time, ev.pid),
                TraceKind::Send { to, tag, .. } => {
                    format!("t={:<6} {}  send {} -> {}", ev.time, ev.pid, tag, to)
                }
                TraceKind::Recv { from, tag, .. } => {
                    format!("t={:<6} {}  recv {} <- {}", ev.time, ev.pid, tag, from)
                }
                TraceKind::Timer { tag } => format!("t={:<6} {}  timer {}", ev.time, ev.pid, tag),
                TraceKind::Crash => format!("t={:<6} {}  CRASH", ev.time, ev.pid),
                TraceKind::Quit => format!("t={:<6} {}  QUIT", ev.time, ev.pid),
                TraceKind::Note(n) => format!("t={:<6} {}  {}", ev.time, ev.pid, n),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pid: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            time: 0,
            pid: ProcessId(pid),
            lamport: 1,
            kind,
        }
    }

    fn send(to: u32, msg_id: u64) -> TraceKind {
        TraceKind::Send {
            to: ProcessId(to),
            msg_id,
            tag: "x",
        }
    }

    fn recv(from: u32, msg_id: u64) -> TraceKind {
        TraceKind::Recv {
            from: ProcessId(from),
            msg_id,
            tag: "x",
        }
    }

    #[test]
    fn a_dropped_trace_lends_its_cleared_buffer_to_the_next_one() {
        // (Each test runs on its own thread: the spare starts empty.)
        let mut big = Trace::new(2);
        assert_eq!(big.events.capacity(), 0, "nothing parked yet");
        big.events.resize(1_000, ev(0, TraceKind::Start));
        let (cap, copy) = (big.events.capacity(), big.clone());
        drop(big);
        assert_eq!(copy.events.len(), 1_000, "a clone owns its events");

        let mut small = Trace::new(3);
        assert_eq!((small.n, small.events.len()), (3, 0), "only capacity");
        assert_eq!(small.events.capacity(), cap);
        small.events.push(ev(1, TraceKind::Crash));
        drop(small);
        // One slot, replaced only by a larger buffer: dropping an empty or
        // a smaller trace keeps the parked one.
        drop(Trace::default());
        drop(Trace {
            n: 1,
            events: Vec::with_capacity(cap / 2),
        });
        assert_eq!(Trace::new(1).events.capacity(), cap);
        drop(copy);
    }

    #[test]
    fn a_buffer_above_the_retention_cap_goes_back_to_the_allocator() {
        let over = SPARE_MAX_BYTES / std::mem::size_of::<TraceEvent>() + 1;
        drop(Trace {
            n: 1,
            // Capacity only: the pages are never touched.
            events: Vec::with_capacity(over),
        });
        assert_eq!(Trace::new(1).events.capacity(), 0, "not parked");
    }

    #[test]
    fn notes_filtering() {
        let mut t = Trace::new(2);
        t.events.push(ev(0, TraceKind::Start));
        t.events
            .push(ev(0, TraceKind::Note(Note::Custom("x".into()))));
        t.events.push(ev(1, TraceKind::Start));
        assert_eq!(t.notes().count(), 1);
        assert_eq!(t.history(ProcessId(0)).count(), 2);
    }

    #[test]
    fn render_selected() {
        let mut t = Trace::new(1);
        t.events.push(ev(0, TraceKind::Start));
        t.events.push(ev(0, send(1, 1)));
        let s = t.render(|e| matches!(e.kind, TraceKind::Send { .. }));
        assert!(s.contains("send x -> p1"));
        assert!(!s.contains("start"));
    }

    #[test]
    fn event_log_roundtrip() {
        let mut t = Trace::new(2);
        t.events.push(ev(0, TraceKind::Start));
        t.events.push(ev(1, TraceKind::Start));
        let log = t.to_event_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.processes(), 2);
    }

    /// A hand-computed run: p0 → p1 → p2 relay, a note at p0, a timer at
    /// p2, and a send (id 3) that is never received.
    #[test]
    fn rebuilt_stamps_match_hand_computed_vectors_and_notes_share_storage() {
        let mut t = Trace::new(3);
        let expected: Vec<(TraceEvent, [u64; 3])> = vec![
            (ev(0, TraceKind::Start), [1, 0, 0]),
            (ev(1, TraceKind::Start), [0, 1, 0]),
            (ev(2, TraceKind::Start), [0, 0, 1]),
            (ev(0, send(1, 1)), [2, 0, 0]),
            (ev(0, TraceKind::Note(Note::Custom("n".into()))), [2, 0, 0]),
            (ev(2, TraceKind::Timer { tag: 7 }), [0, 0, 2]),
            (ev(1, recv(0, 1)), [2, 2, 0]),
            (ev(1, send(2, 2)), [2, 3, 0]),
            (ev(0, send(2, 3)), [3, 0, 0]),
            (ev(2, recv(1, 2)), [2, 3, 3]),
            (ev(2, TraceKind::Crash), [2, 3, 4]),
        ];
        t.events.extend(expected.iter().map(|(e, _)| e.clone()));
        let log = t.to_event_log();
        assert_eq!(log.len(), expected.len());
        for (i, (e, want)) in expected.iter().enumerate() {
            assert_eq!(log.event(i).pid, e.pid, "event {i}");
            assert_eq!(log.event(i).vc.as_slice(), want, "event {i}: {:?}", e.kind);
        }
        // send(1) → recv(1) → send(2) → recv(2); the unreceived send(3) is
        // concurrent with everything off p0.
        assert!(log.happens_before(3, 6) && log.happens_before(3, 9));
        assert!(!log.happens_before(8, 10) && !log.happens_before(10, 8));
        // The note shares p0's current stamp; the next tick copies away.
        let stamp = |i: usize| &log.event(i).vc;
        assert!(stamp(4).shares_storage_with(stamp(3)));
        assert!(!stamp(8).shares_storage_with(stamp(3)));
    }

    #[test]
    #[should_panic(expected = "recv of msg_id 9 has no earlier send")]
    fn a_recv_without_a_send_is_a_malformed_trace() {
        let mut t = Trace::new(2);
        t.events.push(ev(0, send(1, 1)));
        t.events.push(ev(1, recv(0, 9)));
        t.to_event_log();
    }
}
