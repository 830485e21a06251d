//! Sharded parallel evaluation over the hash-consed arena.
//!
//! Concrete evaluation of update provenance is a pure fold over an
//! immutable expression DAG, once per valuation and per root — the
//! "embarrassingly parallel" shape the ROADMAP's top open item named. The
//! two batch evaluators of [`crate::structure`] shard along exactly those
//! two axes:
//!
//! * [`par_eval_many_in`] — one root, many valuations
//!   ([`eval_many_in`] sharded **by
//!   valuation**): the reachable sub-DAG is topologically sorted once, the
//!   valuation batch is split into chunks, and each worker replays the
//!   shared schedule into its own memo.
//! * [`par_eval_roots_in`] — many roots, one valuation
//!   ([`eval_roots_in`] sharded **by
//!   root**): the root list is split into chunks and each worker evaluates
//!   its chunks with its own memo, sharing sub-DAG work *within* a worker
//!   (across all chunks it claims) though not across workers.
//!
//! # Why sharing is sound
//!
//! Evaluation never mutates the arena: workers hold `&ExprArena` (the
//! arena is `Sync` — plain `Vec` + `HashMap` with no interior mutability)
//! plus a private [`DenseMemo`] each, and
//! [`UpdateStructure`] is declared `Sync` with a `Send + Sync` carrier, so
//! the sharing is **compiler-checked**: a structure with interior
//! mutability that is not thread-safe simply does not implement the trait.
//! The `const` assertion at the bottom of this module pins the
//! `ExprArena: Sync` half permanently.
//!
//! # Determinism
//!
//! Each output slot is a pure function of `(arena, root, structure,
//! valuation)` — workers never exchange intermediate values — and chunk
//! results are merged back **in input order**, so both entry points are
//! bit-identical to their serial counterparts for every thread count and
//! shard size (property-tested in `tests/par.rs`).
//!
//! # Threads
//!
//! The build environment is offline (no rayon), so each call runs its
//! workers through [`WorkerPool::run`]: the calling thread plus scoped
//! threads spawned for the call and joined before it returns. Work is
//! distributed by an atomic chunk counter (a few chunks per worker), so a
//! heavy chunk does not serialize the batch behind one worker. Every entry
//! point takes a `threads` argument: an explicit count is honored as given
//! (including oversubscription, which is how small machines exercise the
//! sharded path), and `0` means [`std::thread::available_parallelism`].
//!
//! ```
//! use uprov_core::{par_eval_roots_in, AtomTable, ExprArena, MemoPool, Valuation};
//! use uprov_structures::Bool;
//!
//! let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
//! let p = t.fresh_txn();
//! let pa = ar.atom(p);
//! let roots: Vec<_> = (0..64)
//!     .map(|_| {
//!         let x = ar.atom(t.fresh_tuple());
//!         ar.dot_m(x, pa)
//!     })
//!     .collect();
//!
//! let pool = MemoPool::new();
//! let val = Valuation::constant(true).with(p, false);
//! let out = par_eval_roots_in(&ar, &roots, &Bool, &val, &pool, 4);
//! assert_eq!(out, vec![false; 64], "aborting p kills every tuple");
//! assert!(pool.pooled() >= 1, "worker memos returned to the pool");
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::arena::{DenseMemo, ExprArena, NodeId};
use crate::pool::WorkerPool;
use crate::structure::{
    eval_fill, eval_many_in, eval_one_ordered, eval_roots_in, UpdateStructure, Valuation,
};

/// Chunks handed out per worker (per [`par_eval_many_in`] /
/// [`par_eval_roots_in`] call). More than one so the atomic work queue can
/// rebalance when shards carry uneven DAG weight; small enough that the
/// per-chunk bookkeeping stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// A pool of generation-stamped [`DenseMemo`] buffers, one handed to each
/// worker thread of the parallel evaluators (and reusable by any serial
/// `*_in` entry point).
///
/// The parallel evaluators need one memo *per worker* — that is the whole
/// sharding contract: workers share the read-only arena and nothing else.
/// Allocating those buffers per call would repeat exactly the per-query
/// reallocation the `*_in` pooling convention exists to avoid, so the pool
/// keeps released memos (with their grown slot vectors and generation
/// stamps intact) and hands them back out on the next call: a worker's
/// first `reset` is then O(1) instead of O(arena prefix).
///
/// Lifecycle per parallel call: each worker [`acquire`](MemoPool::acquire)s
/// a memo (popping a pooled one or creating a fresh one), resets it to its
/// own generation, and [`release`](MemoPool::release)s it on the way out —
/// so the pool's high-water size is the largest worker count it has served.
/// Generation stamping makes cross-call reuse safe exactly as for the
/// serial pools: stale slots from another worker's (or another arena's)
/// generation are invisible.
#[derive(Debug, Default)]
pub struct MemoPool<T> {
    memos: Mutex<Vec<DenseMemo<T>>>,
}

impl<T> MemoPool<T> {
    /// An empty pool; memos are created on demand and kept on release.
    pub fn new() -> Self {
        MemoPool {
            memos: Mutex::new(Vec::new()),
        }
    }

    /// Takes a memo out of the pool, or creates a fresh one if the pool is
    /// dry (first call, or more workers than ever before).
    pub fn acquire(&self) -> DenseMemo<T> {
        self.memos
            .lock()
            .expect("memo pool lock poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a memo to the pool for the next acquire.
    pub fn release(&self, memo: DenseMemo<T>) {
        self.memos
            .lock()
            .expect("memo pool lock poisoned")
            .push(memo);
    }

    /// Number of memos currently parked in the pool (its high-water mark is
    /// the largest worker count served so far).
    pub fn pooled(&self) -> usize {
        self.memos.lock().expect("memo pool lock poisoned").len()
    }
}

/// The one place a thread count is interpreted: `0` means
/// [`std::thread::available_parallelism`], anything else is taken as given.
fn auto_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// [`eval_many_in`] sharded **by valuation** across `threads` workers
/// (`0` = available parallelism).
///
/// The reachable sub-DAG of `root` is topologically sorted once and shared
/// read-only; the valuation batch is split into chunks which workers claim
/// from an atomic counter, each replaying the schedule into its own pooled
/// memo. Results are merged in `valuations` order, so the output is
/// bit-identical to the serial path for every thread count (including
/// `threads == 1`, which runs serially without spawning).
///
/// ```
/// use uprov_core::{
///     eval_many_in, par_eval_many_in, AtomTable, DenseMemo, ExprArena, MemoPool, Valuation,
/// };
/// use uprov_structures::Bool;
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let x = ar.atom(t.fresh_tuple());
/// let txns: Vec<_> = (0..32).map(|_| t.fresh_txn()).collect();
/// let root = txns.iter().fold(x, |acc, &p| {
///     let pa = ar.atom(p);
///     let dot = ar.dot_m(acc, pa);
///     ar.plus_m(acc, dot)
/// });
///
/// // Abort each transaction in turn — the paper-experiment batch shape.
/// let vals: Vec<_> = txns
///     .iter()
///     .map(|&p| Valuation::constant(true).with(p, false))
///     .collect();
/// let pool = MemoPool::new();
/// let par = par_eval_many_in(&ar, root, &Bool, &vals, &pool, 4);
/// assert_eq!(par, eval_many_in(&ar, root, &Bool, &vals, &mut DenseMemo::new()));
/// ```
pub fn par_eval_many_in<S: UpdateStructure>(
    arena: &ExprArena,
    root: NodeId,
    s: &S,
    valuations: &[Valuation<S::Value>],
    pool: &MemoPool<S::Value>,
    threads: usize,
) -> Vec<S::Value> {
    let threads = auto_threads(threads).clamp(1, valuations.len().max(1));
    if threads == 1 {
        let mut memo = pool.acquire();
        let out = eval_many_in(arena, root, s, valuations, &mut memo);
        pool.release(memo);
        return out;
    }
    let order = arena.topo_order_roots(&[root]);
    let chunk_size = valuations
        .len()
        .div_ceil(threads * CHUNKS_PER_THREAD)
        .max(1);
    let chunks: Vec<&[Valuation<S::Value>]> = valuations.chunks(chunk_size).collect();
    let worker = |memo: &mut DenseMemo<S::Value>, chunk: &[Valuation<S::Value>]| {
        chunk
            .iter()
            .map(|val| eval_one_ordered(arena, &order, root, s, val, memo))
            .collect::<Vec<S::Value>>()
    };
    run_sharded(&chunks, pool, threads, root.index() + 1, worker)
}

/// [`eval_roots_in`] sharded **by root** across `threads` workers
/// (`0` = available parallelism).
///
/// Roots are split into chunks which workers claim from an atomic counter;
/// each worker evaluates its chunks into its own pooled memo, so sub-DAGs
/// shared between roots that land on the *same* worker are still computed
/// once (the memo persists across that worker's chunks), while roots on
/// different workers recompute shared structure independently — the
/// classic parallel-evaluation trade. Results are merged in `roots` order:
/// bit-identical to the serial path for every thread count and shard size.
pub fn par_eval_roots_in<S: UpdateStructure>(
    arena: &ExprArena,
    roots: &[NodeId],
    s: &S,
    val: &Valuation<S::Value>,
    pool: &MemoPool<S::Value>,
    threads: usize,
) -> Vec<S::Value> {
    let threads = auto_threads(threads).clamp(1, roots.len().max(1));
    if threads == 1 {
        let mut memo = pool.acquire();
        let out = eval_roots_in(arena, roots, s, val, &mut memo);
        pool.release(memo);
        return out;
    }
    let memo_len = roots.iter().map(|r| r.index() + 1).max().unwrap_or(0);
    let chunk_size = roots.len().div_ceil(threads * CHUNKS_PER_THREAD).max(1);
    let chunks: Vec<&[NodeId]> = roots.chunks(chunk_size).collect();
    let worker = |memo: &mut DenseMemo<S::Value>, chunk: &[NodeId]| {
        chunk
            .iter()
            .map(|&root| {
                if !memo.contains(root) {
                    eval_fill(arena, root, s, val, memo);
                }
                memo.get(root).cloned().expect("root computed")
            })
            .collect::<Vec<S::Value>>()
    };
    run_sharded(&chunks, pool, threads, memo_len, worker)
}

/// The shared harness behind the parallel evaluators: run `threads`
/// worker bodies through [`WorkerPool::global`] (the caller is one of the
/// workers). Each body acquires one memo from the caller's [`MemoPool`] —
/// so memo buffers are reused across calls — resets it to `memo_len`,
/// claims chunk indices from an atomic
/// counter and deposits `work`'s output into claim-once slots, which are
/// stitched back together in input order — the determinism half of the
/// module contract.
fn run_sharded<I, T, V, F>(
    chunks: &[&[I]],
    pool: &MemoPool<T>,
    threads: usize,
    memo_len: usize,
    work: F,
) -> Vec<V>
where
    I: Sync,
    T: Send,
    V: Send + Sync,
    F: Fn(&mut DenseMemo<T>, &[I]) -> Vec<V> + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Vec<V>>> = (0..chunks.len()).map(|_| OnceLock::new()).collect();
    WorkerPool::global().run(threads, |_worker| {
        let mut memo = pool.acquire();
        memo.reset(memo_len);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&chunk) = chunks.get(i) else {
                break;
            };
            if slots[i].set(work(&mut memo, chunk)).is_err() {
                unreachable!("chunk index claimed twice");
            }
        }
        pool.release(memo);
    });
    slots
        .into_iter()
        .flat_map(|slot| {
            slot.into_inner()
                .expect("every chunk claimed by some worker")
        })
        .collect()
}

// The compile-time half of the read-only-evaluation proof: the arena must
// stay shareable across threads. If `ExprArena` ever grows interior
// mutability (a lazily-filled side table, a cell-based cache), this line —
// not a data race in production — is what fails.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<ExprArena>();
    assert_sync::<MemoPool<u64>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_pool_recycles_buffers() {
        let mut ar = ExprArena::new();
        let mut table = crate::atom::AtomTable::new();
        let id = ar.atom(table.fresh_tuple());
        let pool: MemoPool<u32> = MemoPool::new();
        assert_eq!(pool.pooled(), 0);
        let mut memo = pool.acquire();
        memo.reset(128);
        memo.set(id, 99);
        pool.release(memo);
        assert_eq!(pool.pooled(), 1);
        // Reacquired memo keeps its grown capacity; the stale value is
        // invisible after the next reset (generation stamping).
        let mut memo = pool.acquire();
        assert_eq!(pool.pooled(), 0);
        assert_eq!(memo.len(), 128);
        memo.reset(4);
        assert!(memo.get(id).is_none());
    }

    #[test]
    fn zero_threads_means_available_parallelism_and_counts_pass_through() {
        assert_eq!(auto_threads(5), 5);
        assert_eq!(auto_threads(1), 1);
        assert!(auto_threads(0) >= 1, "auto resolves to at least one");
    }
}
