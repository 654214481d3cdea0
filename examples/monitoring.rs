//! The motivating application (§1): a mutual-monitoring service.
//!
//! ```text
//! cargo run --example monitoring
//! ```
//!
//! A set of servers "monitor one another": each server's picture of who is
//! up *is* its membership view. Because accurate crash detection is
//! impossible in an asynchronous system, raw suspicions are inconsistent —
//! one server may time out on a peer that another still hears from. The
//! membership protocol turns those inconsistent suspicions into a single
//! agreed fail-stop history: every server reports the same sequence of
//! "server X went down" events, in the same order.

use gmp::protocol::cluster;
use gmp::types::{Note, OpKind, ProcessId};

fn main() {
    let mut sim = cluster(6, 31);

    // Three servers die over time, the second while the first exclusion
    // may still be in flight.
    sim.crash_at(ProcessId(2), 600);
    sim.crash_at(ProcessId(5), 700);
    sim.crash_at(ProcessId(1), 2_500);

    sim.run_until(20_000);

    // Each surviving server derives its DOWN feed from its own local view
    // transitions — no extra agreement needed.
    let mut feeds: std::collections::BTreeMap<ProcessId, Vec<(u64, ProcessId)>> =
        Default::default();
    for (ev, note) in sim.trace().notes() {
        if let Note::OpApplied { op, ver } = note {
            if op.kind == OpKind::Remove {
                feeds.entry(ev.pid).or_default().push((*ver, op.target));
            }
        }
    }

    println!("per-server failure feeds (version, failed server):");
    for (server, feed) in &feeds {
        let items: Vec<String> = feed.iter().map(|(v, t)| format!("v{v}:{t} DOWN")).collect();
        println!("  {}: {}", server, items.join("  "));
    }

    // The point: every functional server reports the *same* fail-stop
    // history, even though their raw timeout observations differed.
    let survivors = sim.living();
    let reference = feeds[&survivors[0]].clone();
    for s in &survivors {
        assert_eq!(
            feeds[s], reference,
            "server {s} reports a different failure history"
        );
    }
    println!(
        "\nall {} surviving servers agree on the failure history: {:?}",
        survivors.len(),
        reference
            .iter()
            .map(|(v, t)| format!("v{v}:{t}"))
            .collect::<Vec<_>>()
    );
}
