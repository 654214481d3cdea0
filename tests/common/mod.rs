//! Shared by the golden-fingerprint suites (`determinism`, `topology`):
//! one serialization of a stamped trace and one hash of it, so both pin
//! the same bytes.

use gmp::sim::{Trace, TraceKind};
use gmp::types::{Note, ProcessId};

/// The event kinds as a trace once recorded them, with every message id
/// and receive tag stored: its `Debug` output is the fingerprint's `kind=`
/// field, so fingerprints pinned then still pin the compact trace now.
#[allow(dead_code)] // Fields are read only through `Debug`.
#[derive(Debug)]
enum StoredKind<'a> {
    Start,
    Send {
        to: ProcessId,
        msg_id: u64,
        tag: &'static str,
    },
    Recv {
        from: ProcessId,
        msg_id: u64,
        tag: &'static str,
    },
    Timer {
        tag: u64,
    },
    Crash,
    Quit,
    Note(&'a Note),
}

/// Serializes every recorded event together with its causal stamps — the
/// Lamport stamp rebuilt by [`Trace::lamports`] and the vector stamp
/// rebuilt by [`Trace::to_event_log`] — and the message id and tag each
/// `Send` and `Recv` implies, so two fingerprints are equal iff the traces
/// are identical.
pub fn fingerprint(trace: &Trace) -> Vec<String> {
    let log = trace.to_event_log();
    let lamports = trace.lamports();
    // The tag of every send so far: the k-th send is message k.
    let mut tags: Vec<&'static str> = Vec::new();
    trace
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let kind = match &e.kind {
                TraceKind::Start => StoredKind::Start,
                &TraceKind::Send { to, tag } => {
                    tags.push(tag);
                    StoredKind::Send {
                        to,
                        msg_id: tags.len() as u64,
                        tag,
                    }
                }
                &TraceKind::Recv { from, msg_id } => StoredKind::Recv {
                    from,
                    msg_id,
                    tag: tags[msg_id as usize - 1],
                },
                &TraceKind::Timer { tag } => StoredKind::Timer { tag },
                TraceKind::Crash => StoredKind::Crash,
                TraceKind::Quit => StoredKind::Quit,
                TraceKind::Note(note) => StoredKind::Note(note),
            };
            format!(
                "t={} pid={} lamport={} vc={:?} kind={:?}",
                e.time,
                e.pid,
                lamports[i],
                log.event(i).vc.as_slice(),
                kind
            )
        })
        .collect()
}

/// FNV-1a over the serialized fingerprint, for compact golden pinning.
pub fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
