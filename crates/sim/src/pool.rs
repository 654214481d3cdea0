//! A dependency-free scoped-thread worker pool for embarrassingly
//! parallel, *order-preserving* fan-out.
//!
//! Seed sweeps (`gmp-bench`'s E8 and E9) are the motivating workload:
//! every run is a pure function of its seed, so runs can execute on any
//! thread in any order — but the *result vector* must come back
//! seed-ordered and byte-identical to the sequential path, or the
//! determinism contract (`tests/determinism.rs`) breaks. [`run_indexed`]
//! provides exactly that shape: tasks are claimed work-stealing style off a
//! shared atomic cursor (so a slow task never stalls the queue behind it),
//! each worker tags its results with their index, and the caller reassembles
//! them into index order before returning.
//!
//! Threads are plain [`std::thread::scope`] workers — no channels, no
//! external crates, no shared mutable state beyond one `AtomicUsize` — so
//! the pool is as deterministic as the tasks it runs.
//!
//! # Example
//!
//! ```
//! use gmp_sim::pool::run_indexed;
//! use std::num::NonZeroUsize;
//!
//! let jobs = NonZeroUsize::new(4).unwrap();
//! let squares = run_indexed(jobs, 10, |i| (i as u64) * (i as u64));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads to use when the caller does not say:
/// [`std::thread::available_parallelism`], or 1 if the platform cannot
/// tell.
pub fn available_jobs() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Runs `task(0) .. task(count - 1)` on up to `jobs` scoped worker
/// threads and returns the results **in index order**, exactly as the
/// sequential `(0..count).map(task).collect()` would.
///
/// Scheduling is work-stealing over an atomic cursor: each worker claims
/// the next unclaimed index, so an expensive task occupies one thread
/// while the others drain the rest of the range. Which thread runs which
/// index is nondeterministic; the returned vector is not — every index's
/// result lands in its own slot regardless of completion order.
///
/// With `jobs == 1` (or `count <= 1`) no threads are spawned and the
/// tasks run inline on the caller's thread.
///
/// # Panics
///
/// If a task panics, the panic is propagated to the caller. The
/// panicking worker poisons the cursor first (claims jump past `count`),
/// so the other workers stop after at most the one task each already has
/// in flight — a panic early in a long sweep does not run the sweep to
/// completion before surfacing.
pub fn run_indexed<T, F>(jobs: NonZeroUsize, count: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.get().min(count);
    if workers <= 1 {
        return (0..count).map(task).collect();
    }

    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let task = &task;
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i))) {
                            Ok(value) => local.push((i, value)),
                            Err(panic) => {
                                // Poison the cursor so the other workers
                                // claim nothing further, then re-raise on
                                // this thread; the caller's join sees it.
                                cursor.store(count, Ordering::Relaxed);
                                std::panic::resume_unwind(panic);
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    // Reassemble into index order: completion order is nondeterministic,
    // slot assignment is not.
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    for (i, value) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("index {i} never ran")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn jobs(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("non-zero jobs")
    }

    #[test]
    fn results_come_back_in_index_order() {
        for j in [1, 2, 3, 8] {
            let out = run_indexed(jobs(j), 100, |i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>(), "jobs={j}");
        }
    }

    #[test]
    fn output_is_independent_of_job_count() {
        let sequential = run_indexed(jobs(1), 37, |i| format!("r{i}"));
        for j in [2, 4, 7, 16] {
            assert_eq!(run_indexed(jobs(j), 37, |i| format!("r{i}")), sequential);
        }
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        assert_eq!(run_indexed(jobs(8), 3, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(jobs(8), 1, |i| i), vec![0]);
    }

    #[test]
    fn zero_tasks_yield_an_empty_vector() {
        let out: Vec<usize> = run_indexed(jobs(4), 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        const COUNT: usize = 200;
        let calls: Vec<AtomicU64> = (0..COUNT).map(|_| AtomicU64::new(0)).collect();
        let out = run_indexed(jobs(6), COUNT, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), COUNT);
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "index {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn task_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(jobs(4), 16, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
                i
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn panic_poisons_the_cursor_so_the_sweep_aborts_early() {
        const COUNT: usize = 64;
        let executed = AtomicU64::new(0);
        let result = std::panic::catch_unwind(|| {
            run_indexed(jobs(4), COUNT, |i| {
                if i == 0 {
                    panic!("first task exploded");
                }
                // Slow enough that the poison (stored immediately after
                // the very first claimed task panics) provably lands while
                // most of the range is still unclaimed.
                std::thread::sleep(std::time::Duration::from_millis(1));
                executed.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
        let ran = executed.load(Ordering::Relaxed);
        assert!(
            ran < COUNT as u64 / 2,
            "sweep ran {ran} of {COUNT} tasks after an index-0 panic"
        );
    }

    #[test]
    fn available_jobs_is_at_least_one() {
        assert!(available_jobs().get() >= 1);
    }
}
