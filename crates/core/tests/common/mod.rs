//! Shared by the property suites (`prop`, `par`, `pool`): one random-DAG
//! generator that interns straight into an [`ExprArena`], and a reference
//! evaluator that replays the generator's op list under any structure.
//!
//! The reference evaluator shares no code with `eval_arena`: it calls the
//! structure's operations in op order, with no arena, no memo and no
//! syntactic zero axioms. For a structure that satisfies the zero axioms
//! (every catalogue structure does) it must agree with the arena, whose
//! smart constructors applied those axioms while interning.

// Each suite uses a subset of the helpers.
#![allow(dead_code)]

use benchkit::TestRng as Rng;
use uprov_core::{Atom, AtomTable, ExprArena, NodeId, UpdateStructure, Valuation};

/// One generator step over earlier pool slots: slot 0 is `0`, slots 1–4
/// the atoms, slot 5 + i the result of op i.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    PlusI(usize, usize),
    Minus(usize, usize),
    PlusM(usize, usize),
    DotM(usize, usize),
    Sum(usize, usize, usize),
}

/// A generated DAG: its root (the last slot), its atoms and the ops that
/// built it.
pub struct RandomDag {
    pub root: NodeId,
    pub atoms: Vec<Atom>,
    pub ops: Vec<Op>,
}

/// Builds a random shared DAG bottom-up in `ar`: starts from a pool of four
/// atoms (plus `0`) and repeatedly combines random pool entries with random
/// operators, pushing results back into the pool so later nodes share
/// earlier ones — exactly the shape hash-consing must handle (including
/// repeated, structurally identical combinations).
pub fn random_dag(
    rng: &mut Rng,
    table: &mut AtomTable,
    ar: &mut ExprArena,
    n_ops: usize,
) -> RandomDag {
    let mut atoms = Vec::new();
    let mut pool = vec![ExprArena::ZERO];
    for _ in 0..4 {
        let a = if rng.coin() {
            table.fresh_tuple()
        } else {
            table.fresh_txn()
        };
        atoms.push(a);
        pool.push(ar.atom(a));
    }
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let (a, b) = (rng.below(pool.len()), rng.below(pool.len()));
        let op = match rng.below(6) {
            0 => Op::PlusI(a, b),
            1 => Op::Minus(a, b),
            2 => Op::PlusM(a, b),
            3 => Op::DotM(a, b),
            _ => Op::Sum(a, b, rng.below(pool.len())),
        };
        let id = match op {
            Op::PlusI(a, b) => ar.plus_i(pool[a], pool[b]),
            Op::Minus(a, b) => ar.minus(pool[a], pool[b]),
            Op::PlusM(a, b) => ar.plus_m(pool[a], pool[b]),
            Op::DotM(a, b) => ar.dot_m(pool[a], pool[b]),
            Op::Sum(a, b, c) => ar.sum([pool[a], pool[b], pool[c]]),
        };
        ops.push(op);
        pool.push(id);
    }
    RandomDag {
        root: *pool.last().expect("non-empty pool"),
        atoms,
        ops,
    }
}

/// The value of `dag.root` under `s` and `val`, by replaying `dag.ops`.
pub fn reference_eval<S: UpdateStructure>(
    dag: &RandomDag,
    s: &S,
    val: &Valuation<S::Value>,
) -> S::Value {
    let mut slots = vec![s.zero()];
    slots.extend(dag.atoms.iter().map(|&a| val.get(a).clone()));
    for &op in &dag.ops {
        let v = match op {
            Op::PlusI(a, b) => s.plus_i(&slots[a], &slots[b]),
            Op::Minus(a, b) => s.minus(&slots[a], &slots[b]),
            Op::PlusM(a, b) => s.plus_m(&slots[a], &slots[b]),
            Op::DotM(a, b) => s.dot_m(&slots[a], &slots[b]),
            Op::Sum(a, b, c) => s.sum([&slots[a], &slots[b], &slots[c]]),
        };
        slots.push(v);
    }
    slots.pop().expect("non-empty pool")
}

/// A valuation with a sampled default and a sampled override for about
/// half of `atoms`.
pub fn random_valuation<V: Clone>(
    rng: &mut Rng,
    atoms: &[Atom],
    mut sample: impl FnMut(&mut Rng) -> V,
) -> Valuation<V> {
    let mut val = Valuation::constant(sample(rng));
    for &a in atoms {
        if rng.coin() {
            let v = sample(rng);
            val.set(a, v);
        }
    }
    val
}
