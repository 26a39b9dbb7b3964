//! # aero-exec — deterministic parallel execution for experiment sweeps
//!
//! Every sweep in this repository (figure/table harnesses, population
//! studies, the lifetime study) decomposes into independent, individually
//! seeded jobs. This crate runs such job lists across a scoped worker pool
//! ([`par_map`]) while keeping the results in **stable input order**, so a
//! sweep's output is bit-identical whether it runs on 1 thread or N.
//!
//! Design constraints:
//!
//! * **No external dependencies** — only [`std::thread::scope`]. Workers
//!   borrow the job closure; nothing is leaked or detached.
//! * **Determinism** — results are written into the slot of their input
//!   index, never in completion order. Jobs must not share mutable state
//!   (the `Fn(I) -> O + Sync` bound enforces this at compile time); any
//!   randomness must be derived from per-job seeds.
//! * **Panic propagation** — a panicking job panics the calling thread once
//!   all workers have been joined, exactly like a sequential loop would.
//!
//! The worker count comes from, in priority order: a process-local
//! [`override_threads`] guard (used by tests to pin the count), the
//! `AERO_THREADS` environment variable, and
//! [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Process-wide thread-count override (0 = no override). Set only through
/// [`override_threads`], which restores the previous value on drop.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Parses a thread-count string: a positive integer, anything else is
/// rejected.
fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The machine's available parallelism, defaulting to 1 when unknown.
fn hardware_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Number of worker threads sweeps will use: the [`override_threads`] guard
/// if one is active, else `AERO_THREADS` if set to a positive integer, else
/// the machine's available parallelism.
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    env::var("AERO_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_threads)
        .unwrap_or_else(hardware_threads)
}

/// RAII guard that pins [`thread_count`] to a fixed value for its lifetime.
///
/// The override is process-global: guards from concurrently running tests
/// would trample each other, so callers that use this in tests should keep
/// all overriding code within a single `#[test]` function (or serialize
/// access themselves).
#[derive(Debug)]
pub struct ThreadOverride {
    previous: usize,
}

/// Pins [`thread_count`] to `threads` until the returned guard is dropped.
///
/// # Panics
///
/// Panics if `threads` is 0.
#[must_use = "the override ends when the guard is dropped"]
pub fn override_threads(threads: usize) -> ThreadOverride {
    assert!(threads >= 1, "thread override must be at least 1");
    ThreadOverride {
        previous: THREAD_OVERRIDE.swap(threads, Ordering::SeqCst),
    }
}

impl Drop for ThreadOverride {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.previous, Ordering::SeqCst);
    }
}

/// Maps `job` over `items` on a scoped worker pool, returning the results in
/// input order.
///
/// Uses [`thread_count`] workers (capped at the number of items). With one
/// worker — or one item — it degenerates to a plain sequential loop on the
/// calling thread, which is what makes `AERO_THREADS=1` a bit-identical
/// reference for any other thread count.
///
/// Workers pull jobs from a shared queue, so uneven job costs balance
/// automatically; each result is stored at its item's index regardless of
/// completion order.
///
/// # Panics
///
/// Panics if any job panics (after all workers have been joined).
pub fn par_map<I, O, F>(items: Vec<I>, job: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let len = items.len();
    let workers = thread_count().min(len);
    if workers <= 1 {
        return items.into_iter().map(job).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Vec<Mutex<Option<O>>> = (0..len).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Take the next job while holding the queue lock, then run it
                // unlocked. A panicking job poisons nothing it doesn't own:
                // the queue lock is already released, and the job's result
                // slot is only locked for the store.
                let next = queue.lock().expect("job queue poisoned").next();
                let Some((index, item)) = next else {
                    break;
                };
                let output = job(item);
                *results[index].lock().expect("result slot poisoned") = Some(output);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job stores its result before the pool joins")
        })
        .collect()
}

/// Maps a fallible `job` over `items` on the worker pool, returning the
/// results in input order — or, if any job failed, the error of the
/// **lowest-indexed** failing item.
///
/// Every job runs to completion regardless of other jobs' failures (there
/// is no early cancellation), which is what makes the returned error
/// deterministic: it never depends on scheduling order or thread count.
/// Used by fuzz-seed sweeps, where each seed is an independent
/// `Result`-returning scenario and the reported failure must be the same
/// on 1 thread and N.
///
/// # Panics
///
/// Panics if any job panics, exactly like [`par_map`].
pub fn par_try_map<I, O, E, F>(items: Vec<I>, job: F) -> Result<Vec<O>, E>
where
    I: Send,
    O: Send,
    E: Send,
    F: Fn(I) -> Result<O, E> + Sync,
{
    par_map(items, job).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    /// All thread-count manipulation lives in this single test: the override
    /// is process-global, unit tests of this crate share one process, and
    /// two tests toggling the override concurrently would race.
    #[test]
    fn override_guards_and_ordering_across_thread_counts() {
        // Nested guards restore the previous value on drop.
        let outer = override_threads(3);
        {
            let inner = override_threads(7);
            assert_eq!(thread_count(), 7);
            drop(inner);
        }
        assert_eq!(thread_count(), 3);
        drop(outer);

        // Results keep input order at every worker count.
        let items: Vec<u64> = (0..257).collect();
        let sequential: Vec<u64> = items.iter().map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 5, 16] {
            let guard = override_threads(threads);
            assert_eq!(thread_count(), threads);
            let parallel = par_map(items.clone(), |i| i * 3 + 1);
            assert_eq!(parallel, sequential, "threads = {threads}");
            drop(guard);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let n = 100u64;
        let out = par_map((0..n).collect(), |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(counter.load(Ordering::SeqCst), n);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map((0..64).collect::<Vec<u32>>(), |i| {
                assert!(i != 13, "unlucky job");
                i
            })
        }));
        assert!(result.is_err(), "a panicking job must panic par_map");
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = par_map(Vec::new(), |i: u32| i);
        assert!(empty.is_empty());
        assert_eq!(par_map(vec![41], |i| i + 1), vec![42]);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        // Jobs 7 and 23 both fail; the reported error must be 7's,
        // regardless of completion order.
        let result: Result<Vec<u32>, String> = par_try_map((0..64).collect(), |i: u32| {
            if i == 7 || i == 23 {
                Err(format!("job {i} failed"))
            } else {
                Ok(i * 2)
            }
        });
        assert_eq!(result.unwrap_err(), "job 7 failed");

        let ok: Result<Vec<u32>, String> = par_try_map((0..16).collect(), |i: u32| Ok(i + 1));
        assert_eq!(ok.unwrap(), (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn thread_string_parsing() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 8 "), Some(8));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }
}
