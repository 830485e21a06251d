//! Pool-reuse property tests: the persistent-worker-pool harness is a
//! pure transport.
//!
//! The contract: `par_eval_many_in` / `par_eval_roots_in`, dispatched
//! onto the resident
//! [`uprov_core::WorkerPool`], are **bit-identical** to the serial
//! evaluators for every thread count, across repeated calls on the same
//! process-wide pool (memo buffers and parked workers are reused between
//! calls — the whole point of the pool), under all five catalogue
//! structures. Same deterministic xorshift harness as `tests/par.rs`;
//! failing seeds print a repro line.

use std::collections::BTreeSet;

mod common;

use common::{random_dag, random_valuation, reference_eval};
use uprov_core::{
    eval_many, eval_roots_in, par_eval_many_in, par_eval_roots_in, AtomTable, DenseMemo, ExprArena,
    MemoPool, NodeId, UpdateStructure, Valuation, WorkerPool,
};
use uprov_structures::{Bool, Clearance, Trust, Witnesses, Worlds};

// The repo-standard seeded xorshift64* harness.
use benchkit::TestRng as Rng;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One structure's sweep: random DAG, random valuations, then for every
/// thread count assert serial == pooled on the many-valuations and
/// many-roots paths — repeatedly, so one
/// process-wide pool serves many calls back to back.
fn sweep<S, F>(structure: &S, seed: u64, mut sample: F)
where
    S: UpdateStructure,
    S::Value: std::fmt::Debug + PartialEq,
    F: FnMut(&mut Rng) -> S::Value,
{
    let mut rng = Rng::new(seed);
    let pool = MemoPool::new();
    for case in 0..12 {
        let mut table = AtomTable::new();
        let ops = 3 + rng.below(30);
        let mut arena = ExprArena::new();
        let dag = random_dag(&mut rng, &mut table, &mut arena, ops);
        let root = dag.root;
        // A spread of roots into the shared DAG (sub-nodes included), so
        // the many-roots path has real sharing to exploit.
        let roots: Vec<NodeId> = (0..=root.index())
            .map(NodeId::from_index)
            .filter(|_| rng.coin())
            .chain([root])
            .collect();
        let valuations: Vec<Valuation<S::Value>> = (0..1 + rng.below(9))
            .map(|_| random_valuation(&mut rng, &dag.atoms, &mut sample))
            .collect();
        let repro = format!("seed={seed} case={case}");

        let serial_many = eval_many(&arena, root, structure, &valuations);
        let mut memo = DenseMemo::new();
        let serial_roots = eval_roots_in(&arena, &roots, structure, &valuations[0], &mut memo);

        for threads in THREADS {
            let pooled = par_eval_many_in(&arena, root, structure, &valuations, &pool, threads);
            assert_eq!(pooled, serial_many, "{repro} t={threads}: pooled many");

            let pooled =
                par_eval_roots_in(&arena, &roots, structure, &valuations[0], &pool, threads);
            assert_eq!(pooled, serial_roots, "{repro} t={threads}: pooled roots");
        }

        // Spot-check one root against the op-list reference evaluator.
        assert_eq!(
            serial_many[0],
            reference_eval(&dag, structure, &valuations[0]),
            "{repro}: eval_many[0] vs the reference"
        );
    }
}

#[test]
fn pooled_eval_is_bit_identical_under_bool() {
    sweep(&Bool, 0xB001_0001, |r| r.coin());
}

#[test]
fn pooled_eval_is_bit_identical_under_worlds() {
    sweep(&Worlds, 0x0301_21D5_0002, |r| r.next_u64());
}

#[test]
fn pooled_eval_is_bit_identical_under_clearance() {
    sweep(&Clearance, 0xC1EA_0003, |r| r.next_u64() as u16);
}

#[test]
fn pooled_eval_is_bit_identical_under_trust() {
    sweep(&Trust, 0x7121_0004, |r| r.next_u64() as u32);
}

#[test]
fn pooled_eval_is_bit_identical_under_witnesses() {
    sweep(&Witnesses, 0x3177_0005, |r| {
        let mask = r.next_u64();
        (0..16)
            .filter(|k| mask >> k & 1 == 1)
            .collect::<BTreeSet<u32>>()
    });
}

/// Repeated calls on one explicit pool actually *reuse* it: the resident
/// worker count is fixed, and dispatch bookkeeping advances — evidence
/// the calls went through the pool rather than spawning fresh threads.
#[test]
fn repeated_calls_ride_one_resident_pool() {
    let pool = WorkerPool::global();
    let residents_before = pool.residents();
    let dispatches_before = pool.dispatches();

    let mut rng = Rng::new(42);
    let mut table = AtomTable::new();
    let mut arena = ExprArena::new();
    let dag = random_dag(&mut rng, &mut table, &mut arena, 24);
    let (root, atoms) = (dag.root, dag.atoms);
    let valuations: Vec<Valuation<u64>> = (0..16)
        .map(|_| random_valuation(&mut rng, &atoms, Rng::next_u64))
        .collect();
    let memo_pool = MemoPool::new();
    let expect = eval_many(&arena, root, &Worlds, &valuations);
    for _ in 0..10 {
        let got = par_eval_many_in(&arena, root, &Worlds, &valuations, &memo_pool, 4);
        assert_eq!(got, expect);
    }

    assert_eq!(
        pool.residents(),
        residents_before,
        "no new residents may appear: the pool is the process-wide one"
    );
    if residents_before > 0 {
        assert!(
            pool.dispatches() > dispatches_before,
            "multi-threaded eval must dispatch through the resident pool"
        );
    }
}
