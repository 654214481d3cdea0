//! Host-time and memory probes.
//!
//! Host-time metrics are process CPU time (user + sys), not wall-clock:
//! every workload drives the single-threaded `Sim::run_until`, so on a
//! quiet host the two agree, and on a shared one CPU time is what repeats
//! (a descheduled process accrues wall time but no CPU time).

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CLOCK_PROCESS_CPUTIME_ID and /proc: 64-bit Linux only");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` (Linux).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + sys) this process has consumed so far.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (layout above is
    // the 64-bit Linux ABI, enforced by the `compile_error!` gate), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A stopwatch over both clocks: CPU time is the metric, wall time is kept
/// to expose a disturbed host (`bench.wall_over_cpu`).
pub struct Stopwatch {
    cpu: f64,
    wall: Instant,
}

/// What a [`Stopwatch`] read: when it was started, seconds on each clock.
#[derive(Clone, Copy, Debug)]
pub struct Elapsed {
    /// When the stopwatch was started.
    pub started: Instant,
    /// Process CPU seconds (user + sys).
    pub cpu: f64,
    /// Wall-clock seconds.
    pub wall: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            cpu: cpu_now(),
            wall: Instant::now(),
        }
    }

    /// Seconds since [`start`](Self::start).
    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            started: self.wall,
            cpu: cpu_now() - self.cpu,
            wall: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Reads a `kB` field of `/proc/self/status` in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
        * 1024
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

/// Current resident set size of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}
