//! Scope-shaped parallel calls on scoped threads.
//!
//! [`WorkerPool::run(workers, f)`](WorkerPool::run) runs `f(0)` on the
//! calling thread and `f(1) .. f(workers-1)` on `workers - 1` threads of
//! one [`std::thread::scope`]. It blocks until every body has returned, so
//! bodies may borrow from the caller's frame. A body that panics does not
//! stop the others: the scope joins every thread before it unwinds, and
//! `run` then panics on the caller. Nested calls each open their own
//! scope, so they cannot deadlock.
//!
//! Each call spawns its helpers and joins them, so the thread count is the
//! call's own argument (see [`crate::parallel`]).
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use uprov_core::WorkerPool;
//!
//! let pool = WorkerPool::default();
//! let hits = AtomicUsize::new(0);
//! // Scope-shaped: blocks until all 8 bodies ran, borrows allowed.
//! pool.run(8, |_worker| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 8);
//! assert_eq!(pool.dispatches(), 8);
//! ```

// No-panic zone: the only panic `run` passes on is a body's own.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// Runs scope-shaped parallel calls and counts the bodies it ran (see the
/// [module docs](self)). Concurrent `run` calls from many threads are
/// independent of each other.
#[derive(Debug, Default)]
pub struct WorkerPool {
    dispatches: AtomicU64,
}

impl WorkerPool {
    /// The process-wide instance the parallel evaluators run on; its
    /// [`dispatches`](Self::dispatches) count every body they ran.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: WorkerPool = WorkerPool {
            dispatches: AtomicU64::new(0),
        };
        &GLOBAL
    }

    /// Worker bodies run through this instance since it was created.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Runs `f(0)` on the calling thread and `f(1) .. f(workers-1)` on
    /// scoped threads, blocking until every body has returned; `workers`
    /// below one counts as one.
    ///
    /// If any body panics, the others still run to completion and `run`
    /// panics afterwards.
    pub fn run<F>(&self, workers: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let workers = workers.max(1);
        self.dispatches.fetch_add(workers as u64, Ordering::Relaxed);
        let f = &f;
        // No `catch_unwind` needed: the scope joins every helper before it
        // returns or unwinds, and panics if a helper panicked.
        thread::scope(|s| {
            for w in 1..workers {
                s.spawn(move || f(w));
            }
            f(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn runs_every_body_exactly_once() {
        let pool = WorkerPool::default();
        let hits: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        pool.run(16, |w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "worker body {w}");
        }
        assert_eq!(pool.dispatches(), 16);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = WorkerPool::default();
        let total = AtomicU64::new(0);
        pool.run(2, |_| {
            pool.run(2, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
        assert_eq!(pool.dispatches(), 6);
    }

    #[test]
    fn worker_panic_propagates_after_all_bodies_finish() {
        let pool = WorkerPool::default();
        let completed = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |w| {
                if w == 3 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            7,
            "non-panicking bodies all ran before the propagation"
        );
        // A panicked call leaves nothing behind: the next one runs in full.
        let after = AtomicU64::new(0);
        pool.run(4, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn the_callers_own_body_runs_on_it_and_its_panic_still_joins_every_helper() {
        let pool = WorkerPool::default();
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |w| {
                seen.lock().unwrap().push((w, thread::current().id()));
                if w == 0 {
                    panic!("body 0");
                }
            });
        }));
        assert!(result.is_err(), "body 0's panic must reach the caller");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable_by_key(|&(w, _)| w);
        let ran: Vec<usize> = seen.iter().map(|&(w, _)| w).collect();
        assert_eq!(ran, [0, 1, 2, 3], "every helper finished before the panic");
        assert_eq!(seen[0].1, caller, "body 0 runs on the caller");
        assert!(seen[1..].iter().all(|&(_, id)| id != caller));
    }

    #[test]
    fn concurrent_runs_from_many_threads() {
        let pool = WorkerPool::default();
        let total = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        pool.run(4, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 20 * 4);
        assert_eq!(pool.dispatches(), 4 * 20 * 4);
    }
}
