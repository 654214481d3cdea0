//! Recorded runs: every event of every process history, and nothing the
//! run can rebuild. Message ids, receive tags, Lamport stamps
//! ([`Trace::lamports`]) and vector stamps ([`Trace::to_event_log`]) are
//! functions of the recorded `Send`/`Recv` edges, so the engine never
//! stamps, and each event is stored as one 12-byte record that
//! [`Events`] decodes into a [`TraceEvent`] on every read. Its time is
//! shared with every neighbour at the same time: one side-table entry per
//! run of equal times.

use crate::Time;
use gmp_causality::{CowClock, EventLog, LoggedEvent, Stamp};
use gmp_types::{Note, ProcessId};
use std::cell::RefCell;
use std::fmt;

/// Largest event buffer, in bytes of capacity, that a dropped [`Trace`]
/// parks for reuse; a one-off giant run's buffer goes back to the
/// allocator instead of staying pinned to its thread.
const SPARE_MAX_BYTES: usize = 64 << 20;

thread_local! {
    /// The cleared record buffer of the largest `Trace` dropped on this
    /// thread so far (up to [`SPARE_MAX_BYTES`]); [`Trace::new`] takes it,
    /// so the second and every later run on a thread — a seed sweep, a
    /// proptest case — appends into warm capacity instead of re-growing a
    /// multi-megabyte `Vec` from empty. One slot, replaced only by a
    /// larger buffer; per thread, so runs on different threads share
    /// nothing. Contents never survive: only capacity is recycled.
    static SPARE: RefCell<Vec<Record>> = const { RefCell::new(Vec::new()) };
}

/// What happened at one event of a process history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind<'a> {
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
    /// A semantic protocol annotation, borrowed from the trace's side
    /// table of notes.
    Note(&'a Note),
}

/// One recorded event, as [`Events`] decodes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent<'a> {
    /// Simulated time of the event.
    pub time: Time,
    /// The process that executed the event.
    pub pid: ProcessId,
    /// The event itself.
    pub kind: TraceKind<'a>,
}

/// Number of processes a run may have: a `Recv` packs its sender's id
/// into [`PAYLOAD_BITS`] bits of its record.
pub(crate) const MAX_PROCESSES: usize = 1 << PAYLOAD_BITS;

/// The low bits of a record's `word` name its kind; the rest are its
/// payload.
const KIND_BITS: u32 = 3;
const PAYLOAD_BITS: u32 = 32 - KIND_BITS;
const KIND_MASK: u32 = (1 << KIND_BITS) - 1;

const START: u32 = 0;
const SEND: u32 = 1;
const RECV: u32 = 2;
const TIMER: u32 = 3;
const CRASH: u32 = 4;
const QUIT: u32 = 5;
const NOTE: u32 = 6;
/// An event whose `arg` does not fit in 32 bits: its record's `arg` indexes
/// [`Events::wide`], which holds the event's own `word` and its `arg`.
const WIDE: u32 = 7;

/// One stored event: what a [`TraceEvent`] is before it is decoded, less
/// its time (see [`Events::times`]). `word` is the kind in its low
/// [`KIND_BITS`] bits over a payload — a `Send`'s index into [`Tags`], a
/// `Recv`'s sender — and `arg` is a `Send`'s receiver, a `Recv`'s message
/// id, a `Timer`'s tag or a `Note`'s index into [`Events::notes`]. An
/// `arg` of 2³² or more — a message id or a timer tag that large — is
/// stored as a [`WIDE`] record instead. Plain data: clearing a buffer of
/// them drops nothing.
#[derive(Clone, Copy, Debug)]
struct Record {
    arg: u32,
    pid: u32,
    word: u32,
}

/// Packs `kind` and `payload` into a record's `word`.
///
/// # Panics
///
/// Panics if `payload` does not fit in [`PAYLOAD_BITS`] bits.
#[inline]
fn word(kind: u32, payload: u32) -> u32 {
    assert!(
        payload >> PAYLOAD_BITS == 0,
        "trace payload {payload} exceeds {PAYLOAD_BITS} bits"
    );
    kind | payload << KIND_BITS
}

/// Every distinct message tag of a run, once, in first-send order: a
/// `Send` record stores its tag's index here, and [`Stats`](crate::Stats)
/// counts the send at the same index. Tags are string literals, so each
/// is found by its address: first in a one-entry cache of the last tag
/// looked up (a heartbeat round repeats one tag), then by a scan of the
/// list (no protocol here has more than two dozen tags). The same text at
/// a second address (another codegen unit's copy of the literal) takes a
/// second entry, and decodes to that copy.
#[derive(Clone, Debug, Default)]
struct Tags {
    /// The tags, in first-send order.
    list: Vec<&'static str>,
    /// The last tag looked up, and its index.
    last: Option<(&'static str, u32)>,
}

impl Tags {
    /// The index of `tag`, added on first sight.
    #[inline]
    fn index(&mut self, tag: &'static str) -> u32 {
        match self.last {
            Some((last, k)) if std::ptr::eq(last, tag) => k,
            _ => {
                let k = self.scan(tag);
                self.last = Some((tag, k));
                k
            }
        }
    }

    /// [`Tags::index`] past the cache, kept out of line so the engine's
    /// send path inlines only the cache check.
    #[inline(never)]
    fn scan(&mut self, tag: &'static str) -> u32 {
        let k = self.list.iter().position(|&t| std::ptr::eq(t, tag));
        let k = k.unwrap_or_else(|| {
            self.list.push(tag);
            self.list.len() - 1
        });
        k as u32
    }
}

/// The events of a run, in simulation order: one 12-byte record each, with
/// times, notes, message tags and wide arguments held once in side tables.
/// [`Events::iter`] and [`Events::get`] decode records into
/// [`TraceEvent`]s, whose notes borrow from here.
#[derive(Clone, Default)]
pub struct Events {
    records: Vec<Record>,
    /// The time of every record, one `(first record index, time)` entry
    /// per run of equal times: record `i` has the time of the last entry
    /// whose first index is at most `i`. The engine's clock only moves
    /// forward, so this grows once per tick that has events, not once per
    /// event; an out-of-order time pushed by hand opens a run of its own.
    times: Vec<(usize, Time)>,
    /// Every note, with the index of its record.
    notes: Vec<(usize, Note)>,
    /// The `(word, arg)` of every [`WIDE`] record, in record order.
    wide: Vec<(u32, u64)>,
    tags: Tags,
}

impl Events {
    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Event `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<TraceEvent<'_>> {
        self.records
            .get(i)
            .map(|&r| self.decode(r, self.time_of(i)))
    }

    /// All events, in simulation order. The times are walked with a
    /// cursor alongside the records.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent<'_>> {
        let mut runs = self.times.iter().peekable();
        let mut time = 0;
        self.records.iter().enumerate().map(move |(i, &r)| {
            if let Some(&(_, t)) = runs.next_if(|&&(first, _)| first == i) {
                time = t;
            }
            self.decode(r, time)
        })
    }

    /// The time of record `i`: a binary search of [`Events::times`].
    fn time_of(&self, i: usize) -> Time {
        let run = self.times.partition_point(|&(first, _)| first <= i);
        self.times[run - 1].1
    }

    /// Appends `event`; a `Note` is copied into the side table (the engine
    /// hands its owned notes to [`Events::push_note`] instead).
    ///
    /// # Panics
    ///
    /// Panics if a `Recv`'s sender id is 2²⁹ or more, or if
    /// the trace already holds that many distinct tags. Message ids and
    /// timer tags take any `u64`.
    // Always inlined: the engine's call sites pass a known kind, so the
    // match folds away instead of dispatching through a jump table on
    // every event.
    #[inline(always)]
    pub fn push(&mut self, event: TraceEvent<'_>) {
        let (word, arg) = match event.kind {
            TraceKind::Start => (START, 0),
            TraceKind::Send { to, tag } => {
                self.push_send(event.time, event.pid, to, tag);
                return;
            }
            TraceKind::Recv { from, msg_id } => (word(RECV, from.0), msg_id),
            TraceKind::Timer { tag } => (TIMER, tag),
            TraceKind::Crash => (CRASH, 0),
            TraceKind::Quit => (QUIT, 0),
            TraceKind::Note(note) => return self.push_note(event.time, event.pid, note.clone()),
        };
        self.append(event.time, event.pid, word, arg);
    }

    /// Appends `pid`'s send of a `tag` message to `to` at `time`, and
    /// returns the tag's index: the one [`Stats`](crate::Stats) counts it
    /// at.
    #[inline]
    pub(crate) fn push_send(
        &mut self,
        time: Time,
        pid: ProcessId,
        to: ProcessId,
        tag: &'static str,
    ) -> u32 {
        let k = self.tags.index(tag);
        self.append(time, pid, word(SEND, k), u64::from(to.0));
        k
    }

    /// Appends `note` as `pid`'s event at `time`.
    #[inline(never)]
    pub fn push_note(&mut self, time: Time, pid: ProcessId, note: Note) {
        self.notes.push((self.records.len(), note));
        self.append(time, pid, NOTE, (self.notes.len() - 1) as u64);
    }

    #[inline(always)]
    fn append(&mut self, time: Time, pid: ProcessId, word: u32, arg: u64) {
        if self.times.last().is_none_or(|&(_, t)| t != time) {
            self.times.push((self.records.len(), time));
        }
        let (word, arg) = match u32::try_from(arg) {
            Ok(arg) => (word, arg),
            Err(_) => (WIDE, self.push_wide(word, arg)),
        };
        self.records.push(Record {
            arg,
            pid: pid.0,
            word,
        });
    }

    /// Stores the `word` and `arg` of an event whose `arg` needs more than
    /// 32 bits, and returns their index for its [`WIDE`] record.
    #[cold]
    #[inline(never)]
    fn push_wide(&mut self, word: u32, arg: u64) -> u32 {
        self.wide.push((word, arg));
        u32::try_from(self.wide.len() - 1).expect("fewer than 2³² wide events")
    }

    #[inline]
    fn decode(&self, r: Record, time: Time) -> TraceEvent<'_> {
        let (word, arg) = match r.word {
            WIDE => self.wide[r.arg as usize],
            word => (word, u64::from(r.arg)),
        };
        let payload = word >> KIND_BITS;
        let kind = match word & KIND_MASK {
            START => TraceKind::Start,
            SEND => TraceKind::Send {
                to: ProcessId(arg as u32),
                tag: self.tags.list[payload as usize],
            },
            RECV => TraceKind::Recv {
                from: ProcessId(payload),
                msg_id: arg,
            },
            TIMER => TraceKind::Timer { tag: arg },
            CRASH => TraceKind::Crash,
            QUIT => TraceKind::Quit,
            _ => TraceKind::Note(&self.notes[arg as usize].1),
        };
        TraceEvent {
            time,
            pid: ProcessId(r.pid),
            kind,
        }
    }
}

impl fmt::Debug for Events {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A recorded run: the n-tuple of process histories (§2.1), flattened in
/// simulation order (which is a linearization consistent with
/// happens-before).
///
/// Dropping a trace lends the *capacity* of its record buffer to the next
/// run the engine starts on the same thread; a clone owns an ordinary
/// buffer.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Number of processes in the run.
    pub n: usize,
    /// All events, in simulation order.
    pub events: Events,
}

impl Drop for Trace {
    /// Parks the record buffer in the thread's spare slot (see `SPARE`).
    fn drop(&mut self) {
        let records = &mut self.events.records;
        let bytes = records.capacity() * std::mem::size_of::<Record>();
        // `try_with`: a trace dropped while its thread's locals are being
        // torn down simply frees its buffer.
        let _ = SPARE.try_with(|spare| {
            let mut parked = spare.borrow_mut();
            if records.capacity() > parked.capacity() && bytes <= SPARE_MAX_BYTES {
                records.clear();
                std::mem::swap(&mut *parked, records);
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
            events: Events {
                records: SPARE.take(),
                ..Events::default()
            },
        }
    }

    /// Iterator over all semantic notes, with their event metadata: a
    /// walk of the side table of notes, not of every event.
    pub fn notes(&self) -> impl Iterator<Item = (TraceEvent<'_>, &Note)> {
        let events = &self.events;
        events
            .notes
            .iter()
            .map(|&(i, ref note)| (events.decode(events.records[i], events.time_of(i)), note))
    }

    /// Iterator over the events of one process, in history order.
    pub fn history(&self, pid: ProcessId) -> impl Iterator<Item = TraceEvent<'_>> {
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
        for ev in self.events.iter() {
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
        for ev in self.events.iter() {
            if let TraceKind::Send { tag, .. } = ev.kind {
                tags.push(tag);
            }
            if !select(&ev) {
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
    use proptest::prelude::*;

    fn ev(pid: u32, kind: TraceKind<'_>) -> TraceEvent<'_> {
        TraceEvent {
            time: 0,
            pid: ProcessId(pid),
            kind,
        }
    }

    fn send(to: u32) -> TraceKind<'static> {
        TraceKind::Send {
            to: ProcessId(to),
            tag: "x",
        }
    }

    fn recv(from: u32, msg_id: u64) -> TraceKind<'static> {
        TraceKind::Recv {
            from: ProcessId(from),
            msg_id,
        }
    }

    fn trace(n: usize, events: &[TraceEvent<'_>]) -> Trace {
        let mut t = Trace::new(n);
        for &e in events {
            t.events.push(e);
        }
        t
    }

    /// The record is written once per event and is the largest per-event
    /// byte stream of a run: it keeps only what the run cannot rebuild,
    /// and clearing a buffer of them is O(1).
    #[test]
    fn a_trace_record_is_at_most_12_bytes_and_needs_no_drop() {
        let size = std::mem::size_of::<Record>();
        assert!(size <= 12, "Record is {size} B");
        assert!(!std::mem::needs_drop::<Record>());
    }

    /// A sender id needs [`PAYLOAD_BITS`] bits; one beyond is refused
    /// rather than folded onto another process or kind.
    #[test]
    #[should_panic(expected = "exceeds 29 bits")]
    fn the_encoder_rejects_a_sender_beyond_its_bound() {
        let mut events = Events::default();
        let largest = MAX_PROCESSES as u32 - 1;
        events.push(ev(0, recv(largest, u64::MAX)));
        assert_eq!(events.get(0).map(|e| e.kind), Some(recv(largest, u64::MAX)));
        events.push(ev(0, recv(largest + 1, 1)));
    }

    #[test]
    fn a_dropped_trace_lends_its_cleared_buffer_to_the_next_one() {
        // (Each test runs on its own thread: the spare starts empty.)
        let mut big = Trace::new(2);
        assert_eq!(big.events.records.capacity(), 0, "nothing parked yet");
        for _ in 0..1_000 {
            big.events.push(ev(0, TraceKind::Start));
        }
        let (cap, copy) = (big.events.records.capacity(), big.clone());
        drop(big);
        assert_eq!(copy.events.len(), 1_000, "a clone owns its events");

        let mut small = Trace::new(3);
        assert_eq!((small.n, small.events.len()), (3, 0), "only capacity");
        assert_eq!(small.events.records.capacity(), cap);
        small.events.push(ev(1, TraceKind::Crash));
        drop(small);
        // One slot, replaced only by a larger buffer: dropping an empty or
        // a smaller trace keeps the parked one.
        drop(Trace::default());
        let mut half = Trace::default();
        half.events.records.reserve_exact(cap / 2);
        drop(half);
        assert_eq!(Trace::new(1).events.records.capacity(), cap);
        drop(copy);
    }

    #[test]
    fn a_buffer_above_the_retention_cap_goes_back_to_the_allocator() {
        let over = SPARE_MAX_BYTES / std::mem::size_of::<Record>() + 1;
        let mut t = Trace::default();
        // Capacity only: the pages are never touched.
        t.events.records.reserve_exact(over);
        drop(t);
        assert_eq!(Trace::new(1).events.records.capacity(), 0, "not parked");
    }

    #[test]
    fn notes_filtering() {
        let x = Note::Custom("x".into());
        let t = trace(
            2,
            &[
                ev(0, TraceKind::Start),
                ev(0, TraceKind::Note(&x)),
                ev(1, TraceKind::Start),
            ],
        );
        assert_eq!(t.notes().count(), 1);
        assert_eq!(t.history(ProcessId(0)).count(), 2);
    }

    /// A receive is rendered with the tag of its send, which only the
    /// send records.
    #[test]
    fn render_selected() {
        let ping = TraceKind::Send {
            to: ProcessId(1),
            tag: "ping",
        };
        let t = trace(
            2,
            &[
                ev(0, TraceKind::Start),
                ev(0, send(1)),
                ev(0, ping),
                ev(1, recv(0, 2)),
                ev(1, recv(0, 1)),
            ],
        );
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
        let t = trace(2, &[ev(0, TraceKind::Start), ev(1, TraceKind::Start)]);
        let log = t.to_event_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.processes(), 2);
        assert!(Trace::new(2).to_event_log().is_empty());
    }

    /// A hand-computed run: p0 → p1 → p2 relay, a note at p0, a timer at
    /// p2, and a send (id 3) that is never received.
    #[test]
    fn rebuilt_stamps_match_hand_computed_vectors_and_notes_share_storage() {
        let n = Note::Custom("n".into());
        let expected: Vec<(TraceEvent, u64, [u64; 3])> = vec![
            (ev(0, TraceKind::Start), 1, [1, 0, 0]),
            (ev(1, TraceKind::Start), 1, [0, 1, 0]),
            (ev(2, TraceKind::Start), 1, [0, 0, 1]),
            (ev(0, send(1)), 2, [2, 0, 0]),
            (ev(0, TraceKind::Note(&n)), 2, [2, 0, 0]),
            (ev(2, TraceKind::Timer { tag: 7 }), 2, [0, 0, 2]),
            (ev(1, recv(0, 1)), 3, [2, 2, 0]),
            (ev(1, send(2)), 4, [2, 3, 0]),
            (ev(0, send(2)), 3, [3, 0, 0]),
            (ev(2, recv(1, 2)), 5, [2, 3, 3]),
            (ev(2, TraceKind::Crash), 6, [2, 3, 4]),
        ];
        let events: Vec<TraceEvent> = expected.iter().map(|(e, _, _)| *e).collect();
        let t = trace(3, &events);
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
        trace(2, &[ev(0, send(1)), ev(1, recv(0, 9))])
    }

    fn received_twice() -> Trace {
        trace(2, &[ev(0, send(1)), ev(1, recv(0, 1)), ev(1, recv(0, 1))])
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
        trace(2, &[ev(0, send(1)), ev(1, recv(0, 0))]).lamports();
    }

    /// A `u64` drawn from the edges — of the range and of a record's
    /// 32-bit `arg` — as often as from the middle.
    fn wide() -> impl Strategy<Value = u64> {
        (0u8..7, 0u32..=u32::MAX, 0u32..=u32::MAX).prop_map(|(pick, hi, lo)| match pick {
            0 => 0,
            1 => u64::MAX,
            2 => u64::from(u32::MAX),
            3 => 1 << 32,
            4 => u64::from(lo),
            _ => u64::from(hi) << 32 | u64::from(lo),
        })
    }

    /// The next event's time after `prev`: mostly the same or a little
    /// later, as the engine records them, but also earlier, or anywhere.
    fn next_time(prev: Time, (pick, x): (u8, u64)) -> Time {
        match pick {
            0 | 1 => prev,
            2 => prev.saturating_add(x % 8),
            3 => prev.saturating_sub(x % 8),
            _ => x,
        }
    }

    /// A pid drawn from the edges of the range a record packs.
    fn pid(largest: u32) -> impl Strategy<Value = ProcessId> {
        (0u8..3, 0u32..=largest).prop_map(move |(pick, p)| {
            ProcessId(match pick {
                0 => 0,
                1 => largest,
                _ => p,
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever is pushed comes back, event for event, through
        /// `iter()`, `get(i)` and `notes()`: every kind, timer tags and
        /// message ids over all of `u64` (on both sides of 2³², where a
        /// record's `arg` overflows into the wide table), times in runs,
        /// out of order and up to `u64::MAX`, the largest sender a record
        /// packs, and up to 300 distinct tags (no protocol has 30), a
        /// third of them copies of another's text at a second address.
        #[test]
        fn records_decode_to_the_events_pushed(
            ops in proptest::collection::vec(
                (0u8..7, wide(), pid(u32::MAX), pid(MAX_PROCESSES as u32 - 1), 0usize..300, (0u8..5, wide())),
                0..400,
            ),
        ) {
            let texts: Vec<&'static str> = (0..200)
                .map(|i| &*Box::leak(format!("tag{i}").into_boxed_str()))
                .collect();
            // Tags 200..300 repeat the text of 0..100 from other addresses.
            let tag = |k: usize| {
                if k < 200 {
                    texts[k]
                } else {
                    &*Box::leak(texts[k - 200].to_owned().into_boxed_str())
                }
            };
            let notes: Vec<Note> = (0..ops.len()).map(|i| Note::Custom(format!("n{i}"))).collect();
            let mut want: Vec<TraceEvent> = Vec::new();
            let mut time = 0;
            for (i, &(kind, x, p, q, k, t)) in ops.iter().enumerate() {
                let kind = match kind {
                    0 => TraceKind::Start,
                    1 => TraceKind::Send { to: p, tag: tag(k) },
                    2 => TraceKind::Recv { from: q, msg_id: x },
                    3 => TraceKind::Timer { tag: x },
                    4 => TraceKind::Crash,
                    5 => TraceKind::Quit,
                    _ => TraceKind::Note(&notes[i]),
                };
                time = next_time(time, t);
                want.push(TraceEvent { time, pid: p, kind });
            }
            let mut t = Trace::new(1);
            for (i, &e) in want.iter().enumerate() {
                match e.kind {
                    // The engine's path for notes: handed over, not copied.
                    TraceKind::Note(note) if i % 2 == 0 => {
                        t.events.push_note(e.time, e.pid, note.clone())
                    }
                    _ => t.events.push(e),
                }
            }
            prop_assert_eq!(t.events.len(), want.len());
            prop_assert_eq!(&t.events.iter().collect::<Vec<_>>(), &want);
            for (i, e) in want.iter().enumerate() {
                prop_assert_eq!(t.events.get(i), Some(*e));
                prop_assert_eq!(t.events.get(i), t.events.iter().nth(i));
            }
            prop_assert_eq!(t.events.get(want.len()), None);
            // A decoded tag is the very `&'static str` that was sent.
            for (got, e) in t.events.iter().zip(&want) {
                if let (TraceKind::Send { tag: a, .. }, TraceKind::Send { tag: b, .. }) = (got.kind, e.kind) {
                    prop_assert!(std::ptr::eq(a, b));
                }
            }
            let want_notes: Vec<(TraceEvent, &Note)> = want
                .iter()
                .filter_map(|&e| match e.kind {
                    TraceKind::Note(note) => Some((e, note)),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(t.notes().collect::<Vec<_>>(), want_notes);
        }
    }
}
