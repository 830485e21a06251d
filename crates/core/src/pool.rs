//! A persistent worker pool: long-lived threads parked on a queue, driving
//! scope-shaped parallel work without per-call thread spawns.
//!
//! The PR 8 engine benches showed why this exists: the parallel evaluators of
//! [`crate::parallel`] are bit-identical to serial and scale on big
//! batches, but every call paid `thread::scope` spawn + join — tens of
//! microseconds on a good day — which swamped sub-millisecond queries and
//! pushed the parallel break-even far above realistic batch sizes. The pool
//! moves that cost to process startup: workers are spawned once, park on a
//! condvar-guarded queue, and a call dispatches by pushing one queue entry
//! per helper and waking them — a few hundred nanoseconds, not a syscall
//! per worker.
//!
//! # Execution model
//!
//! [`WorkerPool::run(workers, f)`](WorkerPool::run) behaves like
//! `thread::scope` with `workers` spawned closures `f(0) .. f(workers-1)`:
//! it blocks until every body has returned, and a body panic propagates to
//! the caller after the rest complete. Two properties make it cheap and
//! deadlock-free:
//!
//! * **The caller participates.** `run` executes worker bodies on the
//!   calling thread too, claiming indices from the same atomic counter as
//!   the residents. A busy (or empty, or smaller-than-`workers`) pool never
//!   blocks progress — the caller can finish the whole call alone, and
//!   nested `run` calls from inside a body are safe for the same reason.
//! * **Claim-gated bodies.** Queue entries are hints, not obligations: a
//!   resident that pops one claims indices until the counter passes
//!   `workers`, then walks away. Stale entries popped after a call
//!   completed claim nothing and touch nothing.
//!
//! # Safety
//!
//! `run` smuggles the borrowed closure to resident threads by erasing its
//! lifetime (the same obligation `thread::scope` discharges structurally).
//! The erased pointer is dereferenced only after a successful index claim
//! (`claim < workers`), and `run` does not return until every claimed body
//! has finished — so no dereference can outlive the closure or the borrows
//! it captures. See the safety comments on `RunCtx`.
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use uprov_core::WorkerPool;
//!
//! let pool = WorkerPool::new(2);
//! let hits = AtomicUsize::new(0);
//! // Scope-shaped: blocks until all 8 bodies ran, borrows allowed.
//! pool.run(8, |_worker| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 8);
//! ```

// No-panic zone: a panicking resident would strand the latch.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![expect(
    unsafe_code,
    reason = "`run` erases the borrowed closure's lifetime to hand it to resident threads; the claim/latch protocol on `RunCtx` keeps every dereference inside the call"
)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// One in-flight [`WorkerPool::run`] call, shared between the caller and
/// any residents that pop its queue entries.
///
/// `body` is the caller's closure with its lifetime erased. The soundness
/// argument, in full:
///
/// * `body` is dereferenced only after `next.fetch_add` returns an index
///   `< workers` (a *claim*). The counter is monotonic, so once it has
///   passed `workers`, no later pop of a stale queue entry can ever claim —
///   stale entries keep the `RunCtx` alive (they hold an `Arc`), but never
///   touch `body`.
/// * Every claim increments nothing else until its body returns, at which
///   point it decrements `remaining` (initialized to `workers`). `run`
///   blocks until `remaining == 0`, i.e. until after the last dereference
///   of `body`, before letting the closure (and the borrows it captures)
///   die.
struct RunCtx {
    body: *const (dyn Fn(usize) + Sync),
    workers: usize,
    next: AtomicUsize,
    done: Mutex<DoneState>,
    all_done: Condvar,
}

// SAFETY: `body` crosses threads by design; the claim/latch protocol above
// guarantees every dereference happens while the closure is alive, and
// `dyn Fn(usize) + Sync` makes concurrent calls from several threads sound.
unsafe impl Send for RunCtx {}
// SAFETY: through a shared `&RunCtx` workers call `body`, a `dyn Fn(usize) +
// Sync` that several threads may call at once while the latch keeps it alive;
// every other field (`workers`, the atomic, mutex and condvar) is `Sync`.
unsafe impl Sync for RunCtx {}

struct DoneState {
    remaining: usize,
    panicked: bool,
}

struct Queue {
    tasks: VecDeque<Arc<RunCtx>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    task_ready: Condvar,
    dispatches: AtomicU64,
}

/// A fixed set of resident worker threads executing scope-shaped parallel
/// calls (see the [module docs](self) for the execution model).
///
/// The pool is `Sync`: concurrent `run` calls from many threads interleave
/// freely, each driven by its own caller with residents helping whichever
/// call's entries they pop. Dropping the pool wakes and joins the
/// residents after they drain any queued work.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `residents` parked worker threads.
    ///
    /// `residents == 0` is allowed and useful in tests: every `run` call
    /// then executes entirely on the calling thread, same semantics, no
    /// concurrency.
    pub fn new(residents: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            task_ready: Condvar::new(),
            dispatches: AtomicU64::new(0),
        });
        let handles = (0..residents)
            .map(|i| {
                let shared = Arc::clone(&shared);
                #[expect(
                    clippy::expect_used,
                    reason = "spawn fails only on OS thread exhaustion while constructing the pool; there is no degraded mode to fall back to"
                )]
                std::thread::Builder::new()
                    .name(format!("uprov-pool-{i}"))
                    .spawn(move || resident_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The process-wide pool used by the parallel evaluators.
    ///
    /// Sized on first use to `UPROV_POOL_THREADS` if set, else to available
    /// parallelism minus one (the caller of every `run` is itself a
    /// worker), with a floor of one resident so cross-thread execution is
    /// exercised even on single-core machines.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let available = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            let residents = match std::env::var("UPROV_POOL_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
            {
                Some(n) => n,
                None => available.saturating_sub(1).max(1),
            };
            WorkerPool::new(residents)
        })
    }

    /// Number of resident threads (the caller of a `run` adds one more).
    pub fn residents(&self) -> usize {
        self.handles.len()
    }

    /// Total worker-body claims served since the pool was created, by
    /// residents and callers alike. Tests use this to prove work actually
    /// flowed through the pool.
    pub fn dispatches(&self) -> u64 {
        self.shared.dispatches.load(Ordering::Relaxed)
    }

    /// Runs `f(0) .. f(workers-1)` across the calling thread plus up to
    /// `workers - 1` residents, blocking until every body has returned —
    /// the drop-in replacement for a `thread::scope` spawning `workers`
    /// closures.
    ///
    /// If any body panics, the panic is captured, the remaining bodies
    /// still run to completion, and `run` panics afterwards (mirroring the
    /// scoped harness, which joined every worker before unwinding).
    pub fn run<F>(&self, workers: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let workers = workers.max(1);
        let wide: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erase the closure's lifetime for the trip through the
        // queue. `RunCtx` documents why no dereference outlives `f`: every
        // dereference is claim-gated, and the latch below keeps this frame
        // (and thus `f`) alive until the last claimed body finished.
        let body: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(wide) };
        let ctx = Arc::new(RunCtx {
            body,
            workers,
            next: AtomicUsize::new(0),
            done: Mutex::new(DoneState {
                remaining: workers,
                panicked: false,
            }),
            all_done: Condvar::new(),
        });

        // Every lock below recovers from poisoning instead of unwrapping:
        // each critical section leaves the queue/latch consistent at every
        // panic point (worker-body panics are caught before the latch
        // update), so a poisoned guard's data is still valid.
        let helpers = (workers - 1).min(self.residents());
        if helpers > 0 {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for _ in 0..helpers {
                queue.tasks.push_back(Arc::clone(&ctx));
            }
            drop(queue);
            if helpers == 1 {
                self.shared.task_ready.notify_one();
            } else {
                self.shared.task_ready.notify_all();
            }
        }

        // The caller is worker number one: claim and execute until the
        // counter runs dry, then wait for residents to finish their claims.
        claim_and_execute(&self.shared, &ctx);
        let mut done = ctx.done.lock().unwrap_or_else(PoisonError::into_inner);
        while done.remaining > 0 {
            done = ctx
                .all_done
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let panicked = done.panicked;
        drop(done);
        if panicked {
            #[expect(
                clippy::panic,
                reason = "deliberate propagation: a worker body panicked and the scoped-harness contract is to re-panic on the calling thread after every body finished"
            )]
            {
                panic!("evaluation worker panicked");
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queue.shutdown = true;
        }
        self.shared.task_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn resident_loop(shared: &Shared) {
    loop {
        let ctx = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(ctx) = queue.tasks.pop_front() {
                    break ctx;
                }
                // Drain-then-exit ordering: queued work is always taken
                // before the shutdown flag is honored.
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .task_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        claim_and_execute(shared, &ctx);
    }
}

/// Claims worker indices off `ctx` and runs the body for each, recording
/// completion (and any panic) in the latch. Shared by residents and the
/// calling thread — the symmetry is what makes the pool deadlock-free.
fn claim_and_execute(shared: &Shared, ctx: &RunCtx) {
    loop {
        let claim = ctx.next.fetch_add(1, Ordering::AcqRel);
        if claim >= ctx.workers {
            return;
        }
        shared.dispatches.fetch_add(1, Ordering::Relaxed);
        // SAFETY: claim-gated — see `RunCtx`. The claim succeeded, so the
        // originating `run` frame is still blocked on the latch and the
        // closure is alive.
        let body = unsafe { &*ctx.body };
        let ok = catch_unwind(AssertUnwindSafe(|| body(claim))).is_ok();
        let mut done = ctx.done.lock().unwrap_or_else(PoisonError::into_inner);
        done.remaining -= 1;
        if !ok {
            done.panicked = true;
        }
        if done.remaining == 0 {
            ctx.all_done.notify_all();
        }
    }
}

const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<WorkerPool>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_body_exactly_once() {
        let pool = WorkerPool::new(3);
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
    fn zero_resident_pool_runs_on_caller() {
        let pool = WorkerPool::new(0);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        pool.run(4, |w| {
            seen.lock().unwrap().push((w, std::thread::current().id()));
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|&(_, id)| id == caller));
    }

    #[test]
    fn repeated_calls_reuse_residents() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200);
        assert_eq!(pool.dispatches(), 200);
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = WorkerPool::new(1);
        let total = AtomicU64::new(0);
        pool.run(2, |_| {
            pool.run(2, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn worker_panic_propagates_after_all_bodies_finish() {
        let pool = WorkerPool::new(2);
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
        // The pool survives a panicked call and serves the next one.
        let after = AtomicU64::new(0);
        pool.run(4, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_runs_from_many_threads() {
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
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
    }
}
