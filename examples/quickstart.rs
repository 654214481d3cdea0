//! Quickstart: a five-member process group that survives a crash.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a group of five simulated processes (p0 is the initial
//! coordinator), crashes one member, and prints every view transition the
//! survivors agree on — then verifies the run against the paper's GMP
//! specification.

use gmp::props::check_all;
use gmp::protocol::cluster;
use gmp::types::{Note, ProcessId};

fn main() {
    // A deterministic five-member group: same seed, same run, every time.
    let mut sim = cluster(5, 2024);

    // Fail one member at t=500. In the model crashes are permanent; a
    // restarted process would come back as a brand-new member.
    sim.crash_at(ProcessId(3), 500);

    sim.run_until(10_000);

    println!("view transitions observed by each process:");
    for (ev, note) in sim.trace().notes() {
        if let Note::ViewInstalled { ver, members, mgr } = note {
            let members: Vec<String> = members.iter().map(|m| m.to_string()).collect();
            println!(
                "  t={:<5} {}  installed v{} (mgr {}): {{{}}}",
                ev.time,
                ev.pid,
                ver,
                mgr,
                members.join(", ")
            );
        }
    }

    println!("\nfinal state:");
    for p in sim.living() {
        let m = sim.node(p);
        println!("  {} -> version {}, view {}", p, m.ver(), m.view());
    }

    // The membership service doubles as a fail-stop failure detector:
    // "p3 failed" is exactly "p3 left the agreed membership".
    let survivor = sim.node(ProcessId(0));
    assert!(!survivor.view().contains(ProcessId(3)));
    assert_eq!(survivor.ver(), 1);

    // And the whole run satisfies GMP-0..GMP-5 plus convergence.
    check_all(sim.trace()).assert_ok();
    println!("\nGMP-0..GMP-5 + convergence: OK");
}
