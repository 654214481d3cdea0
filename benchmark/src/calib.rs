//! Host-speed calibration.
//!
//! The reference host is a 2-vCPU VM on shared hardware: between identical
//! runs the same binary's CPU time moves by 5–20 % for seconds to minutes
//! at a stretch (neighbours contending for cache and memory bandwidth),
//! which no amount of repetition inside one run averages away. A fixed
//! kernel that depends on nothing in the measured crates is therefore run
//! at intervals between the seeds, in a child process so that neither its
//! allocations nor its cache footprint touch the measured one, and
//! host-time metrics are reported at the speed the kernel observed:
//! `seconds × KERNEL_REF_S / kernel seconds`. README, "CPU time", has the
//! measurements behind this.

use crate::clock::cpu_now;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::process::Command;

/// CPU seconds [`kernel`] takes on the reference host when it is quiet:
/// the scale that makes normalized seconds read as reference-host seconds.
pub const KERNEL_REF_S: f64 = 0.082;

/// Calibration slots per repetition.
pub const SLOTS: u64 = 8;

/// The calibration kernel; returns the CPU seconds it took. Two halves:
/// a cache-resident mix of heap, map and small-allocation work (the event
/// queue and the cheap handlers), then a `BTreeMap` of 150 k entries built
/// and churned with lookups, inserts and removals (~10 MB of pointer-heavy
/// state, like a trace and the replicas' maps). On the reference host this
/// mix tracked the workloads' slow-downs best of those tried (correlation
/// 0.5–0.75 per second-long window; a streaming kernel managed 0.25–0.37).
pub fn kernel() -> f64 {
    let start = cpu_now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;

    let mut heap = BinaryHeap::new();
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut small: Vec<Vec<u64>> = Vec::new();
    for i in 0..100_000u64 {
        let r = step();
        heap.push(Reverse((r >> 40, i)));
        if heap.len() > 4096 {
            acc += heap.pop().map_or(0, |Reverse((_, i))| i);
        }
        *counts.entry(r & 1023).or_insert(0) += 1;
        if i % 4 == 0 {
            small.push(vec![r; 128]);
            if small.len() > 4096 {
                small.clear();
            }
        }
    }

    let mut big: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    for _ in 0..150_000 {
        let r = step();
        big.insert(r, [r; 4]);
    }
    for _ in 0..120_000 {
        let r = step();
        let hit = big.range(r..).next().map(|(&k, v)| (k, v[0]));
        if let Some((k, v)) = hit {
            acc ^= k ^ v;
            match r & 3 {
                0 => drop(big.insert(r, [r; 4])),
                1 => drop(big.remove(&k)),
                _ => {}
            }
        }
    }
    black_box((acc, counts.len(), small.len(), big.len()));
    cpu_now() - start
}

/// Runs [`kernel`] in a child process (`exe --calibrate`, which prints the
/// seconds) and waits for it.
pub fn kernel_in_child(exe: &std::path::Path) -> Result<f64, String> {
    let out = Command::new(exe)
        .arg("--calibrate")
        .output()
        .map_err(|e| format!("cannot run {} --calibrate: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .ok()
        .filter(|s: &f64| out.status.success() && s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("calibration child printed {text:?}"))
}
