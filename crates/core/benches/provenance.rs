//! Provenance hot-path benchmarks over the hash-consed arena.
//!
//! Run with `cargo bench -p uprov-core`; the report goes to stderr.
//!
//! Workloads mirror the paper's experiments (Sections 5–6):
//!
//! * **pingpong** — the Proposition 5.1 modification chain whose logical
//!   size is exponential but whose DAG is linear,
//! * **widesum** — a single `Σ` with a large fan-in (many tuples updated
//!   into one),
//! * **eval_many** — "abort each transaction in turn and re-evaluate", the
//!   repeated-valuation workload,
//! * **deep100k** — a depth-100 000 chain; completing at all demonstrates
//!   the iterative evaluator cannot overflow the stack,
//! * **nf / equiv** — Figure-3 normalization of the ping-pong chain and of
//!   the 100k chain, plus AC-permuted spine equivalence (the
//!   canonicalization workload of the rewrite engine),
//! * **eval_smallroot** — a small root interned late into a 200k-node
//!   arena, evaluated with and without a pooled [`DenseMemo`].

use benchkit::{black_box, Harness};
use uprov_core::{
    equiv_in, eval_arena, eval_arena_in, eval_many, nf, nf_in, Atom, AtomTable, DenseMemo,
    ExprArena, NfMemo, NodeId, Valuation,
};
use uprov_structures::Bool;

/// The Proposition 5.1 ping-pong chain.
fn pingpong_arena(depth: usize, t: &mut AtomTable, ar: &mut ExprArena) -> (NodeId, Vec<Atom>) {
    let mut txns = Vec::with_capacity(depth);
    let mut e1 = ar.atom(t.fresh_tuple());
    let mut e2 = ar.atom(t.fresh_tuple());
    for _ in 0..depth {
        let p = t.fresh_txn();
        txns.push(p);
        let pa = ar.atom(p);
        let dot = ar.dot_m(e1, pa);
        let new_e2 = ar.plus_m(e2, dot);
        let new_e1 = ar.minus(e1, pa);
        e1 = new_e2;
        e2 = new_e1;
    }
    (e1, txns)
}

fn main() {
    let mut h = Harness::new("uprov-core/provenance");
    let all_true: Valuation<bool> = Valuation::constant(true);

    // --- Prop 5.1 ping-pong chain, depth 500. ---
    let depth = 500;
    let mut ar = ExprArena::new();
    let mut t2 = AtomTable::new();
    let (arena_root, txns) = pingpong_arena(depth, &mut t2, &mut ar);

    h.bench("arena/eval/pingpong500", || {
        black_box(eval_arena(black_box(&ar), arena_root, &Bool, &all_true));
    });

    // --- Construction cost of the same chain (interning is not free). ---
    h.bench("arena/build/pingpong500", || {
        let mut tt = AtomTable::new();
        let mut aa = ExprArena::new();
        black_box(pingpong_arena(depth, &mut tt, &mut aa));
    });

    // --- Wide Σ fan-in: 10 000 tuples updated into one. ---
    let fanin = 10_000;
    let mut ar_sum = ExprArena::new();
    let mut t4 = AtomTable::new();
    let leaves: Vec<NodeId> = (0..fanin).map(|_| ar_sum.atom(t4.fresh_tuple())).collect();
    let arena_sum = ar_sum.sum(leaves);

    h.bench("arena/eval/widesum10k", || {
        black_box(eval_arena(black_box(&ar_sum), arena_sum, &Bool, &all_true));
    });

    // --- Repeated valuations: abort each of 64 transactions in turn. ---
    let vals: Vec<Valuation<bool>> = txns
        .iter()
        .take(64)
        .map(|&p| Valuation::constant(true).with(p, false))
        .collect();
    h.bench("arena/eval_loop/64vals", || {
        for v in &vals {
            black_box(eval_arena(&ar, arena_root, &Bool, v));
        }
    });
    h.bench("arena/eval_many/64vals", || {
        black_box(eval_many(&ar, arena_root, &Bool, &vals));
    });
    h.compare(
        "eval_many_vs_eval_loop/64vals",
        "arena/eval_loop/64vals",
        "arena/eval_many/64vals",
    );

    // --- Figure 3 normalization: pingpong chain (deep +M spines). ---
    h.bench("arena/nf/pingpong500", || {
        black_box(nf(black_box(&mut ar), arena_root));
    });

    // --- equiv of AC-permuted +M spines (canonicalization worst case:
    //     the reversed spine re-sorts at every level on the first pass). ---
    let mut t6 = AtomTable::new();
    let mut ar_ac = ExprArena::new();
    let ac_head = ar_ac.atom(t6.fresh_tuple());
    let ac_incs: Vec<NodeId> = (0..200)
        .map(|_| {
            let x = ar_ac.atom(t6.fresh_tuple());
            let q = ar_ac.atom(t6.fresh_txn());
            ar_ac.dot_m(x, q)
        })
        .collect();
    let fwd = ac_incs.iter().fold(ac_head, |acc, &m| ar_ac.plus_m(acc, m));
    let rev = ac_incs
        .iter()
        .rev()
        .fold(ac_head, |acc, &m| ar_ac.plus_m(acc, m));
    let mut nf_pool = NfMemo::new();
    h.bench("arena/equiv/acspine200", || {
        assert!(equiv_in(black_box(&mut ar_ac), fwd, rev, &mut nf_pool));
    });

    // --- Depth-100k chain: iterative evaluation cannot overflow. ---
    let mut t5 = AtomTable::new();
    let mut ar_deep = ExprArena::new();
    let mut deep = ar_deep.atom(t5.fresh_tuple());
    for _ in 0..100_000 {
        let p = ar_deep.atom(t5.fresh_txn());
        deep = ar_deep.minus(deep, p);
    }
    h.bench("arena/eval/deep100k", || {
        black_box(eval_arena(black_box(&ar_deep), deep, &Bool, &all_true));
    });
    h.bench("arena/analyze/deep100k", || {
        black_box(ar_deep.analyze(deep));
    });
    // Normalizing the whole 200k-node chain is the no-stack-overflow
    // witness for the rewrite engine (one iterative pass per round).
    h.bench("arena/nf/deep100k", || {
        black_box(nf(black_box(&mut ar_deep), deep));
    });

    // --- Memo pooling: many small queries against one long-lived arena.
    //     The root is interned *late* into the 200k-node arena, so the
    //     dense memo spans the whole prefix; pooling reuses its allocation
    //     across calls (ROADMAP engine-layer pattern). ---
    let small_x = ar_deep.atom(t5.fresh_tuple());
    let small_p = ar_deep.atom(t5.fresh_txn());
    let small = ar_deep.dot_m(small_x, small_p);
    let mut pool: DenseMemo<bool> = DenseMemo::new();
    h.bench("arena/eval_smallroot/alloc", || {
        black_box(eval_arena(black_box(&ar_deep), small, &Bool, &all_true));
    });
    h.bench("arena/eval_smallroot/pooled", || {
        black_box(eval_arena_in(
            black_box(&ar_deep),
            small,
            &Bool,
            &all_true,
            &mut pool,
        ));
    });
    h.compare(
        "pooled_vs_alloc/eval_smallroot",
        "arena/eval_smallroot/alloc",
        "arena/eval_smallroot/pooled",
    );
    // Pooled normalization of the same late small root: the DFS rewrite
    // pass visits only the query's DAG, so this too is O(query), not
    // O(arena prefix).
    let mut nf_small_pool = NfMemo::new();
    h.bench("arena/nf_smallroot/pooled", || {
        black_box(nf_in(black_box(&mut ar_deep), small, &mut nf_small_pool));
    });

    h.finish();
}
