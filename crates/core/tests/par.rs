//! Randomized bit-identity tests for the parallel evaluators.
//!
//! The contract of `uprov_core::parallel` is that sharded evaluation is
//! **bit-identical** to the serial paths for every thread count and shard
//! size — including degenerate ones (1 thread, more shards/threads than
//! work, empty batches). Like `tests/prop.rs`, these use the in-repo
//! deterministic xorshift harness (the real `proptest` is unavailable
//! offline; see ROADMAP.md), with the failing seed printed for
//! reproduction.

mod common;

use common::{eval, random_dag, random_valuation};
use uprov_core::{
    eval_many_in, eval_roots_in, par_eval_many_in, par_eval_roots_in, AtomTable, DenseMemo,
    ExprArena, MemoPool, NodeId, Valuation,
};
use uprov_structures::{Bool, Worlds};

// The repo-standard seeded xorshift64* harness.
use benchkit::TestRng as Rng;

/// Thread counts exercised per case: serial fallback, genuine concurrency,
/// and oversubscription (more threads than shards — and than cores, on
/// small machines — so the clamping and merge logic is hit from both
/// sides).
const THREADS: [usize; 4] = [1, 2, 3, 9];

const CASES: u64 = 120;

#[test]
fn prop_par_eval_roots_bit_identical_to_serial() {
    let pool: MemoPool<bool> = MemoPool::new();
    let wpool: MemoPool<u64> = MemoPool::new();
    let mut serial_memo: DenseMemo<bool> = DenseMemo::new();
    let mut wserial_memo: DenseMemo<u64> = DenseMemo::new();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 48_611 + 7);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let mut atoms = Vec::new();
        // 0..=12 roots (repeats and ZERO included): with up to 9 threads
        // this covers #shards > #roots and the empty batch.
        let mut roots: Vec<NodeId> = Vec::new();
        for _ in 0..rng.below(13) {
            if rng.below(5) == 0 && !roots.is_empty() {
                roots.push(roots[rng.below(roots.len())]); // repeated root
            } else if rng.below(7) == 0 {
                roots.push(ExprArena::ZERO);
            } else {
                let ops = 8 + rng.below(30);
                let dag = random_dag(&mut rng, &mut table, &mut ar, ops);
                atoms.extend(dag.atoms);
                roots.push(dag.root);
            }
        }
        let val = random_valuation(&mut rng, &atoms, Rng::coin);
        let wval = random_valuation(&mut rng, &atoms, Rng::next_u64);
        let serial = eval_roots_in(&ar, &roots, &Bool, &val, &mut serial_memo);
        let wserial = eval_roots_in(&ar, &roots, &Worlds, &wval, &mut wserial_memo);
        for threads in THREADS {
            assert_eq!(
                par_eval_roots_in(&ar, &roots, &Bool, &val, &pool, threads),
                serial,
                "seed {seed}: Bool roots diverged at {threads} threads"
            );
            assert_eq!(
                par_eval_roots_in(&ar, &roots, &Worlds, &wval, &wpool, threads),
                wserial,
                "seed {seed}: Worlds roots diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn prop_par_eval_many_bit_identical_to_serial() {
    let pool: MemoPool<bool> = MemoPool::new();
    let wpool: MemoPool<u64> = MemoPool::new();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 104_651 + 13);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let ops = 10 + rng.below(40);
        let dag = random_dag(&mut rng, &mut table, &mut ar, ops);
        let (root, atoms) = (dag.root, dag.atoms);
        // 0..=10 valuations: with up to 9 threads this covers
        // #shards > #valuations and the empty batch.
        let n_vals = rng.below(11);
        let vals: Vec<Valuation<bool>> = (0..n_vals)
            .map(|_| random_valuation(&mut rng, &atoms, Rng::coin))
            .collect();
        let wvals: Vec<Valuation<u64>> = (0..n_vals)
            .map(|_| random_valuation(&mut rng, &atoms, Rng::next_u64))
            .collect();
        let serial = eval_many_in(&ar, root, &Bool, &vals, &mut DenseMemo::new());
        let wserial = eval_many_in(&ar, root, &Worlds, &wvals, &mut DenseMemo::new());
        for threads in THREADS {
            assert_eq!(
                par_eval_many_in(&ar, root, &Bool, &vals, &pool, threads),
                serial,
                "seed {seed}: Bool valuations diverged at {threads} threads"
            );
            assert_eq!(
                par_eval_many_in(&ar, root, &Worlds, &wvals, &wpool, threads),
                wserial,
                "seed {seed}: Worlds valuations diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn pooled_workers_interleaved_across_arenas_never_serve_stale_hits() {
    // One MemoPool alternating between two arenas of very different sizes:
    // worker memos released by a big-arena query are reacquired by the
    // small-arena query (colliding NodeId index spaces) — generation
    // stamping, not leftover slots, must decide visibility, exactly as in
    // the serial pooling regression in tests/prop.rs.
    let mut big_t = AtomTable::new();
    let mut big = ExprArena::new();
    let mut chain = big.atom(big_t.fresh_tuple());
    let mut big_roots = Vec::new();
    for _ in 0..400 {
        let p = big.atom(big_t.fresh_txn());
        chain = big.minus(chain, p);
        big_roots.push(chain);
    }
    let mut small_t = AtomTable::new();
    let mut small = ExprArena::new();
    let sp = small_t.fresh_txn();
    let sxa = small.atom(small_t.fresh_tuple());
    let spa = small.atom(sp);
    let sdot = small.dot_m(sxa, spa);
    let sroot = small.plus_i(sdot, spa);

    let all_true: Valuation<bool> = Valuation::constant(true);
    let small_val = Valuation::constant(true).with(sp, false);
    let pool: MemoPool<bool> = MemoPool::new();
    for round in 0..20 {
        let r = big_roots[(round * 13) % big_roots.len()];
        let expect = eval(&big, r, &Bool, &all_true);
        assert_eq!(
            par_eval_roots_in(&big, &[r; 8], &Bool, &all_true, &pool, 3),
            vec![expect; 8],
            "round {round}: big arena diverged"
        );
        let small_expect = eval(&small, sroot, &Bool, &small_val);
        assert_eq!(
            par_eval_roots_in(&small, &[sroot; 8], &Bool, &small_val, &pool, 3),
            vec![small_expect; 8],
            "round {round}: small arena served a stale hit"
        );
    }
    assert!(pool.pooled() >= 1, "memos returned to the pool");
}
