//! Shared by the golden-fingerprint suites (`determinism`, `sharding`,
//! `topology`): one serialization of a stamped trace and one hash of it,
//! so all three pin the same bytes.

use gmp::sim::Trace;

/// Serializes every recorded event together with its causal stamps — the
/// engine-recorded Lamport stamp and the vector stamp rebuilt by
/// [`Trace::to_event_log`] — so two fingerprints are equal iff the traces
/// are byte-identical.
pub fn fingerprint(trace: &Trace) -> Vec<String> {
    let log = trace.to_event_log();
    trace
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            format!(
                "t={} pid={} lamport={} vc={:?} kind={:?}",
                e.time,
                e.pid,
                e.lamport,
                log.event(i).vc.as_slice(),
                e.kind
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
