//! Recorded runs: every event of every process history, and nothing the
//! run can rebuild. Message ids, receive tags, Lamport stamps
//! ([`Trace::lamports`]) and vector stamps ([`Trace::to_event_log`]) are
//! functions of the recorded `Send`/`Recv` edges, so a [`TraceEvent`] is
//! 40 B and the engine never stamps.

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
    /// proptest case — appends into warm capacity instead of re-growing a
    /// multi-megabyte `Vec` from empty. One slot, replaced only by a
    /// larger buffer; per thread, so runs on different threads share
    /// nothing. Contents never survive: only capacity is recycled.
    static SPARE: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

/// What happened at one event of a process history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// The unique initial event `start_p` (§2.1).
    Start,
    /// A message send `send(p, to, m)`. Its message id is implicit: the
    /// k-th `Send` of a trace carries id k.
    Send {
        /// Receiver.
        to: ProcessId,
        /// Message kind tag.
        tag: &'static str,
    },
    /// A message reception `recv(from, p, m)`. Its tag is its `Send`'s
    /// ([`Trace::message_tag`]).
    Recv {
        /// Sender.
        from: ProcessId,
        /// Id of the corresponding `Send`.
        msg_id: u64,
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
    /// A semantic protocol annotation, boxed so the rare large note does
    /// not widen every record.
    Note(Box<Note>),
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub time: Time,
    /// The process that executed the event.
    pub pid: ProcessId,
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

/// The entry of message `msg_id` in a table with one entry per `Send`, in
/// trace order (message ids are 1-based send ranks).
///
/// # Panics
///
/// Panics if no earlier `Send` carried `msg_id`.
fn send_entry<T>(table: &mut [T], msg_id: u64) -> &mut T {
    msg_id
        .checked_sub(1)
        .and_then(|i| table.get_mut(usize::try_from(i).ok()?))
        .unwrap_or_else(|| malformed(msg_id))
}

fn malformed(msg_id: u64) -> ! {
    panic!("malformed trace: recv of msg_id {msg_id} has no earlier send")
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
            TraceKind::Note(n) => Some((e, &**n)),
            _ => None,
        })
    }

    /// Iterator over the events of one process, in history order.
    pub fn history(&self, pid: ProcessId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.pid == pid)
    }

    /// The tag of message `msg_id`: the one its `Send` recorded. A scan of
    /// the trace; [`Trace::render`] derives every receive tag in one pass.
    ///
    /// # Panics
    ///
    /// Panics if the trace has fewer than `msg_id` sends.
    pub fn message_tag(&self, msg_id: u64) -> &'static str {
        let mut sends = self.events.iter().filter_map(|e| match e.kind {
            TraceKind::Send { tag, .. } => Some(tag),
            _ => None,
        });
        msg_id
            .checked_sub(1)
            .and_then(|i| sends.nth(usize::try_from(i).ok()?))
            .unwrap_or_else(|| panic!("no send carried msg_id {msg_id}"))
    }

    /// The Lamport stamp of every event, indexed like [`Trace::events`].
    /// One pass in simulation order with one `u64` clock per process,
    /// O(1) per event: `Start`, `Send`, `Timer`, `Crash` and `Quit` tick
    /// it, a `Recv` merges the stamp of its `Send` (`max(own, send) + 1`),
    /// and a `Note` shares the process's current value.
    ///
    /// # Panics
    ///
    /// Panics if a `Recv` names a `msg_id` that no earlier, still
    /// unreceived `Send` carried: such a trace is malformed.
    pub fn lamports(&self) -> Vec<u64> {
        let mut clocks = vec![0u64; self.n];
        // One entry per send; 0 once received (every send ticks, so a
        // live entry is at least 1).
        let mut sends: Vec<u64> = Vec::new();
        self.events
            .iter()
            .map(|ev| {
                let clock = &mut clocks[ev.pid.index()];
                *clock = match ev.kind {
                    TraceKind::Note(_) => *clock,
                    TraceKind::Recv { msg_id, .. } => {
                        match std::mem::take(send_entry(&mut sends, msg_id)) {
                            0 => malformed(msg_id),
                            sent => (*clock).max(sent) + 1,
                        }
                    }
                    _ => *clock + 1,
                };
                if let TraceKind::Send { .. } = ev.kind {
                    sends.push(*clock);
                }
                *clock
            })
            .collect()
    }

    /// Converts the run into an [`EventLog`] for happens-before queries.
    /// Event indices in the log coincide with indices into
    /// [`Trace::events`].
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
        // One entry per send, taken when the message is received: a
        // message is received at most once.
        let mut sends: Vec<Option<Stamp>> = Vec::new();
        for ev in &self.events {
            let p = ev.pid.index();
            let clock = &mut clocks[p];
            match ev.kind {
                TraceKind::Note(_) => {}
                TraceKind::Recv { msg_id, .. } => {
                    let sent = send_entry(&mut sends, msg_id)
                        .take()
                        .unwrap_or_else(|| malformed(msg_id));
                    clock.observe(&sent);
                    clock.tick(p);
                }
                _ => clock.tick(p),
            }
            let vc = clock.stamp();
            if let TraceKind::Send { .. } = ev.kind {
                sends.push(Some(vc.clone()));
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
        // Every send's tag, so a receive can name it.
        let mut tags: Vec<&'static str> = Vec::new();
        for ev in &self.events {
            if let TraceKind::Send { tag, .. } = ev.kind {
                tags.push(tag);
            }
            if !select(ev) {
                continue;
            }
            let line = match &ev.kind {
                TraceKind::Start => format!("t={:<6} {}  start", ev.time, ev.pid),
                TraceKind::Send { to, tag } => {
                    format!("t={:<6} {}  send {} -> {}", ev.time, ev.pid, tag, to)
                }
                TraceKind::Recv { from, msg_id } => {
                    let tag = send_entry(&mut tags, *msg_id);
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
            kind,
        }
    }

    fn send(to: u32) -> TraceKind {
        TraceKind::Send {
            to: ProcessId(to),
            tag: "x",
        }
    }

    fn recv(from: u32, msg_id: u64) -> TraceKind {
        TraceKind::Recv {
            from: ProcessId(from),
            msg_id,
        }
    }

    fn note(text: &str) -> TraceKind {
        TraceKind::Note(Box::new(Note::Custom(text.into())))
    }

    /// The record is written once per event and is the largest per-event
    /// byte stream of a run: it keeps only what the run cannot rebuild.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_trace_event_is_at_most_40_bytes() {
        let size = std::mem::size_of::<TraceEvent>();
        assert!(size <= 40, "TraceEvent is {size} B");
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
        t.events.push(ev(0, note("x")));
        t.events.push(ev(1, TraceKind::Start));
        assert_eq!(t.notes().count(), 1);
        assert_eq!(t.history(ProcessId(0)).count(), 2);
    }

    /// A receive is rendered with the tag of its send, which only the
    /// send records.
    #[test]
    fn render_selected() {
        let mut t = Trace::new(2);
        t.events.push(ev(0, TraceKind::Start));
        t.events.push(ev(0, send(1)));
        t.events.push(ev(
            0,
            TraceKind::Send {
                to: ProcessId(1),
                tag: "ping",
            },
        ));
        t.events.push(ev(1, recv(0, 2)));
        t.events.push(ev(1, recv(0, 1)));
        let s = t.render(|e| !matches!(e.kind, TraceKind::Start));
        assert_eq!(
            s,
            "t=0      p0  send x -> p1\n\
             t=0      p0  send ping -> p1\n\
             t=0      p1  recv ping <- p0\n\
             t=0      p1  recv x <- p0\n"
        );
        assert_eq!((t.message_tag(1), t.message_tag(2)), ("x", "ping"));
    }

    #[test]
    fn event_log_roundtrip() {
        let mut t = Trace::new(2);
        t.events.push(ev(0, TraceKind::Start));
        t.events.push(ev(1, TraceKind::Start));
        let log = t.to_event_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.processes(), 2);
        assert!(Trace::new(2).to_event_log().is_empty());
    }

    /// A hand-computed run: p0 → p1 → p2 relay, a note at p0, a timer at
    /// p2, and a send (id 3) that is never received.
    #[test]
    fn rebuilt_stamps_match_hand_computed_vectors_and_notes_share_storage() {
        let mut t = Trace::new(3);
        let expected: Vec<(TraceEvent, u64, [u64; 3])> = vec![
            (ev(0, TraceKind::Start), 1, [1, 0, 0]),
            (ev(1, TraceKind::Start), 1, [0, 1, 0]),
            (ev(2, TraceKind::Start), 1, [0, 0, 1]),
            (ev(0, send(1)), 2, [2, 0, 0]),
            (ev(0, note("n")), 2, [2, 0, 0]),
            (ev(2, TraceKind::Timer { tag: 7 }), 2, [0, 0, 2]),
            (ev(1, recv(0, 1)), 3, [2, 2, 0]),
            (ev(1, send(2)), 4, [2, 3, 0]),
            (ev(0, send(2)), 3, [3, 0, 0]),
            (ev(2, recv(1, 2)), 5, [2, 3, 3]),
            (ev(2, TraceKind::Crash), 6, [2, 3, 4]),
        ];
        t.events.extend(expected.iter().map(|(e, _, _)| e.clone()));
        let log = t.to_event_log();
        let lamports = t.lamports();
        assert_eq!(log.len(), expected.len());
        assert_eq!(lamports.len(), expected.len());
        for (i, (e, lamport, vc)) in expected.iter().enumerate() {
            assert_eq!(log.event(i).pid, e.pid, "event {i}");
            assert_eq!(log.event(i).vc.as_slice(), vc, "event {i}: {:?}", e.kind);
            assert_eq!(lamports[i], *lamport, "event {i}: {:?}", e.kind);
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

    fn recv_without_send() -> Trace {
        let mut t = Trace::new(2);
        t.events.push(ev(0, send(1)));
        t.events.push(ev(1, recv(0, 9)));
        t
    }

    fn received_twice() -> Trace {
        let mut t = Trace::new(2);
        t.events.push(ev(0, send(1)));
        t.events.push(ev(1, recv(0, 1)));
        t.events.push(ev(1, recv(0, 1)));
        t
    }

    #[test]
    #[should_panic(expected = "recv of msg_id 9 has no earlier send")]
    fn a_recv_without_a_send_is_a_malformed_trace() {
        recv_without_send().to_event_log();
    }

    #[test]
    #[should_panic(expected = "recv of msg_id 9 has no earlier send")]
    fn lamports_reject_a_recv_without_a_send() {
        recv_without_send().lamports();
    }

    #[test]
    #[should_panic(expected = "recv of msg_id 1 has no earlier send")]
    fn a_message_received_twice_is_a_malformed_trace() {
        received_twice().to_event_log();
    }

    #[test]
    #[should_panic(expected = "recv of msg_id 1 has no earlier send")]
    fn lamports_reject_a_message_received_twice() {
        received_twice().lamports();
    }

    #[test]
    #[should_panic(expected = "recv of msg_id 0 has no earlier send")]
    fn message_ids_start_at_one() {
        let mut t = recv_without_send();
        t.events[1] = ev(1, recv(0, 0));
        t.lamports();
    }
}
