//! Randomized property tests for the arena's evaluators, analyses and
//! normalizer.
//!
//! The real `proptest` crate is unavailable in the offline build
//! environment, so these use a minimal deterministic in-repo harness: a
//! seeded xorshift generator producing random shared DAGs
//! (`common::random_dag`), with the seed printed on failure for
//! reproduction. Swap to real `proptest` when a network-enabled toolchain
//! is available (see ROADMAP.md).

mod common;

use common::{random_dag, random_valuation, reference_eval};
use uprov_core::{
    equiv, eval_arena, eval_arena_in, eval_many, nf, nf_in, nf_roots_incremental_in, Atom,
    AtomTable, DenseMemo, ExprArena, NfCache, NfMemo, NodeId, UpdateStructure, Valuation,
};
use uprov_structures::{Bool, Worlds};

// The repo-standard seeded xorshift64* harness, shared across the
// workspace's property suites instead of copy-pasted per file.
use benchkit::TestRng as Rng;

const CASES: u64 = 300;

#[test]
fn prop_arena_eval_agrees_with_reference_eval() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 104_729 + 3);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let dag = random_dag(&mut rng, &mut table, &mut ar, 40);
        let val = random_valuation(&mut rng, &dag.atoms, Rng::coin);
        assert_eq!(
            reference_eval(&dag, &Bool, &val),
            eval_arena(&ar, dag.root, &Bool, &val),
            "seed {seed}: arena eval diverged from the reference under Bool"
        );
        let wval = random_valuation(&mut rng, &dag.atoms, Rng::next_u64);
        assert_eq!(
            reference_eval(&dag, &Worlds, &wval),
            eval_arena(&ar, dag.root, &Worlds, &wval),
            "seed {seed}: arena eval diverged from the reference under Worlds"
        );
    }
}

#[test]
fn prop_eval_many_agrees_with_eval_arena() {
    for seed in 0..CASES / 3 {
        let mut rng = Rng::new(seed * 31_337 + 5);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let dag = random_dag(&mut rng, &mut table, &mut ar, 40);
        let (id, atoms) = (dag.root, dag.atoms);
        let vals: Vec<Valuation<bool>> = (0..8)
            .map(|_| random_valuation(&mut rng, &atoms, Rng::coin))
            .collect();
        let batched = eval_many(&ar, id, &Bool, &vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(
                batched[i],
                eval_arena(&ar, id, &Bool, v),
                "seed {seed}: eval_many[{i}] diverged"
            );
        }
    }
}

#[test]
fn prop_nf_is_idempotent() {
    // nf(nf(e)) == nf(e) for random shared DAGs.
    let mut memo = NfMemo::new();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 48_271 + 7);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let id = random_dag(&mut rng, &mut table, &mut ar, 40).root;
        let out = nf_in(&mut ar, id, &mut memo);
        assert!(out.is_normal(), "seed {seed}: nf saturated");
        let again = nf_in(&mut ar, out.id, &mut memo);
        assert_eq!(again.id, out.id, "seed {seed}: nf is not idempotent");
        assert_eq!(
            again.rounds, 1,
            "seed {seed}: a normal form reconfirms in one round"
        );
    }
}

#[test]
fn prop_nf_preserves_eval_for_every_catalogue_structure() {
    // eval(e) == eval(nf(e)): the soundness property of the directed
    // Figure 3 rule system, checked against each verified catalogue
    // structure (they satisfy the axioms, so rewriting must be invisible
    // to them).
    fn check<S: UpdateStructure + std::fmt::Debug>(
        s: &S,
        rng: &mut Rng,
        ar: &ExprArena,
        (id, n): (NodeId, NodeId),
        atoms: &[Atom],
        sample: impl FnMut(&mut Rng) -> S::Value,
        seed: u64,
    ) {
        let val = random_valuation(rng, atoms, sample);
        assert_eq!(
            eval_arena(ar, id, s, &val),
            eval_arena(ar, n, s, &val),
            "seed {seed}: nf changed evaluation under {s:?}",
        );
    }

    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2_147_483_629 + 13);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let dag = random_dag(&mut rng, &mut table, &mut ar, 40);
        let (id, atoms) = (dag.root, dag.atoms);
        let n = nf(&mut ar, id);
        for _ in 0..4 {
            check(&Bool, &mut rng, &ar, (id, n), &atoms, Rng::coin, seed);
            check(&Worlds, &mut rng, &ar, (id, n), &atoms, Rng::next_u64, seed);
        }
    }
}

#[test]
fn prop_ac_permutations_share_one_normal_form_id() {
    // Folding the same multiset of increments in any order — for +I, +M
    // and Σ alike — normalizes to the identical NodeId.
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 92_821 + 17);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let head = ar.atom(table.fresh_tuple());
        let n_incs = 2 + rng.below(6);
        let mut incs: Vec<NodeId> = (0..n_incs)
            .map(|_| {
                let leaf = ar.atom(if rng.coin() {
                    table.fresh_tuple()
                } else {
                    table.fresh_txn()
                });
                if rng.coin() {
                    let q = ar.atom(table.fresh_txn());
                    ar.dot_m(leaf, q)
                } else {
                    leaf
                }
            })
            .collect();
        let fold = |ar: &mut ExprArena, incs: &[NodeId], op: usize| match op {
            0 => incs.iter().fold(head, |acc, &m| ar.plus_i(acc, m)),
            1 => incs.iter().fold(head, |acc, &m| ar.plus_m(acc, m)),
            _ => {
                let mut terms = vec![head];
                terms.extend_from_slice(incs);
                ar.sum(terms)
            }
        };
        let op = rng.below(3);
        let e1 = fold(&mut ar, &incs, op);
        // Fisher–Yates shuffle.
        for i in (1..incs.len()).rev() {
            incs.swap(i, rng.below(i + 1));
        }
        let e2 = fold(&mut ar, &incs, op);
        assert_eq!(
            nf(&mut ar, e1),
            nf(&mut ar, e2),
            "seed {seed}: permuted increments diverged (op {op})"
        );
        assert!(equiv(&mut ar, e1, e2), "seed {seed}: equiv disagrees");
    }
}

#[test]
fn prop_eval_arena_in_pools_without_changing_results() {
    // The pooled evaluator agrees with the allocating one while reusing a
    // single buffer across queries against one growing arena.
    let mut memo = DenseMemo::new();
    for seed in 0..CASES / 3 {
        let mut rng = Rng::new(seed * 179_424_673 + 19);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let dag = random_dag(&mut rng, &mut table, &mut ar, 30);
        let (id, atoms) = (dag.root, dag.atoms);
        for _ in 0..3 {
            let val = random_valuation(&mut rng, &atoms, Rng::coin);
            assert_eq!(
                eval_arena_in(&ar, id, &Bool, &val, &mut memo),
                eval_arena(&ar, id, &Bool, &val),
                "seed {seed}: pooled eval diverged"
            );
        }
    }
}

/// Logical size and depth as an Update-Structure: a value is `(size, depth,
/// Σ terms or 0)`, `None` is `0`, and the operations apply the zero axioms
/// and flatten `Σ` as the arena's smart constructors do. Replaying a
/// generated DAG under it yields what `ExprArena::analyze` must report,
/// computed without the arena.
#[derive(Debug)]
struct TreeShape;

type Shape = Option<(u128, usize, usize)>;

fn node(a: Shape, b: Shape) -> Shape {
    let ((sa, da, _), (sb, db, _)) = (a?, b?);
    Some((sa + sb + 1, 1 + da.max(db), 0))
}

impl UpdateStructure for TreeShape {
    type Value = Shape;
    fn zero(&self) -> Shape {
        None
    }
    fn plus_i(&self, a: &Shape, b: &Shape) -> Shape {
        node(*a, *b).or(a.or(*b))
    }
    fn minus(&self, a: &Shape, b: &Shape) -> Shape {
        node(*a, *b).or(*a)
    }
    fn plus_m(&self, a: &Shape, b: &Shape) -> Shape {
        self.plus_i(a, b)
    }
    fn dot_m(&self, a: &Shape, b: &Shape) -> Shape {
        node(*a, *b)
    }
    fn plus(&self, a: &Shape, b: &Shape) -> Shape {
        // A Σ operand contributes its terms, not itself.
        let flat = |s: Shape| s.map(|(s, d, n)| if n == 0 { (s, d, 1) } else { (s - 1, d - 1, n) });
        match (flat(*a), flat(*b)) {
            (Some((sa, da, na)), Some((sb, db, nb))) => {
                Some((sa + sb + 1, 1 + da.max(db), na + nb))
            }
            _ => a.or(*b),
        }
    }
}

#[test]
fn prop_arena_stats_agree_with_legacy_stats() {
    let leaf = Valuation::constant(Some((1, 1, 0)));
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 65_537 + 11);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let dag = random_dag(&mut rng, &mut table, &mut ar, 30);
        let stats = ar.analyze(dag.root);
        let (size, depth, _) = reference_eval(&dag, &TreeShape, &leaf).unwrap_or((1, 1, 0));
        assert_eq!(stats.logical_size, size, "seed {seed}: logical_size");
        assert_eq!(stats.depth, depth, "seed {seed}: depth");
        assert_eq!(stats.dag_size, ar.topo_order(dag.root).len());
    }
}

#[test]
fn prop_nf_never_maps_a_nonzero_id_to_zero() {
    // The soundness fact behind the engine's merge-join fast path for
    // one-sided tuples: every rewrite rule rebuilds through the smart
    // constructors from non-zero operands (and `0` is never an operand of
    // an interned node), so `nf(e) == ZERO ⇔ e == ZERO`. If a rule ever
    // starts producing `0` from non-zero input, skipping raw-zero one-sided
    // tuples would no longer be the *only* zero case and the engine's fast
    // path would need revisiting — this property is its tripwire.
    let mut memo = NfMemo::new();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 87_178_291_199 + 37);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let id = random_dag(&mut rng, &mut table, &mut ar, 50).root;
        let out = nf_in(&mut ar, id, &mut memo);
        assert!(out.is_normal(), "seed {seed}: nf saturated");
        assert_eq!(
            id == ExprArena::ZERO,
            out.id == ExprArena::ZERO,
            "seed {seed}: nf changed zero-ness ({id:?} -> {:?})",
            out.id
        );
    }
}

#[test]
fn prop_nf_result_is_a_full_reduce_fixpoint() {
    // Block-once canonicalization never visits interior spine nodes and
    // runs no confirming sweep; the certificate that nothing was missed is
    // that a plain reduce-everywhere pass maps the normal form to itself.
    let mut memo = NfMemo::new();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed * 2_654_435_761 + 3);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let id = random_dag(&mut rng, &mut table, &mut ar, 60).root;
        let out = nf_in(&mut ar, id, &mut memo);
        assert!(out.is_normal(), "seed {seed}: nf saturated");
        let confirm = ar.rewrite_pass(out.id, &mut |arena, node| uprov_core::reduce(arena, node));
        assert_eq!(
            confirm, out.id,
            "seed {seed}: reduce-everywhere still fires on the normal form"
        );
    }
}

#[test]
fn prop_eval_roots_in_agrees_with_per_root_eval() {
    // Batch evaluation over many roots (the engine's whole-database query)
    // agrees with evaluating each root separately, including repeated and
    // ZERO roots.
    let mut memo = DenseMemo::new();
    for seed in 0..CASES / 3 {
        let mut rng = Rng::new(seed * 7_919 + 23);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let mut roots = vec![ExprArena::ZERO];
        let mut atoms = Vec::new();
        for _ in 0..4 {
            let dag = random_dag(&mut rng, &mut table, &mut ar, 20);
            roots.push(dag.root);
            atoms.extend(dag.atoms);
        }
        roots.push(roots[1]); // repeated root: served from the shared memo
        let val = random_valuation(&mut rng, &atoms, Rng::coin);
        let batch = uprov_core::eval_roots_in(&ar, &roots, &Bool, &val, &mut memo);
        for (i, (&r, got)) in roots.iter().zip(&batch).enumerate() {
            assert_eq!(
                *got,
                eval_arena(&ar, r, &Bool, &val),
                "seed {seed}: root {i} diverged"
            );
        }
    }
}

#[test]
fn dense_memo_reuse_across_interleaved_arenas_never_serves_stale_hits() {
    // Regression: one pooled memo alternating between two arenas of very
    // different sizes (and atoms with colliding indices but different
    // meanings) must behave exactly like fresh per-call buffers — the
    // generation stamp, not leftover slot contents, decides visibility.
    let mut big_t = AtomTable::new();
    let mut big = ExprArena::new();
    let mut chain = big.atom(big_t.fresh_tuple());
    let mut big_roots = Vec::new();
    for _ in 0..500 {
        let p = big.atom(big_t.fresh_txn());
        chain = big.minus(chain, p);
        big_roots.push(chain);
    }
    let mut small_t = AtomTable::new();
    let mut small = ExprArena::new();
    let sx = small_t.fresh_tuple();
    let sp = small_t.fresh_txn();
    let sxa = small.atom(sx);
    let spa = small.atom(sp);
    let sdot = small.dot_m(sxa, spa);
    let sroot = small.plus_i(sdot, spa);

    let all_true: Valuation<bool> = Valuation::constant(true);
    let small_val = Valuation::constant(true).with(sp, false);
    let mut memo: DenseMemo<bool> = DenseMemo::new();
    for round in 0..50 {
        // Big arena first: floods the high-water slots with `true`s.
        let r = big_roots[(round * 7) % big_roots.len()];
        assert_eq!(
            eval_arena_in(&big, r, &Bool, &all_true, &mut memo),
            eval_arena(&big, r, &Bool, &all_true),
            "round {round}: big arena diverged"
        );
        // Small arena next: its ids alias the big arena's low slots; a
        // stale hit would leak the big chain's values into this answer.
        assert_eq!(
            eval_arena_in(&small, sroot, &Bool, &small_val, &mut memo),
            eval_arena(&small, sroot, &Bool, &small_val),
            "round {round}: small arena served a stale hit"
        );
        assert!(!eval_arena_in(&small, sroot, &Bool, &small_val, &mut memo));
    }
}

#[test]
fn dense_memo_survives_arena_growth_between_queries() {
    // Regression: growing the arena between pooled queries must extend the
    // memo with *invisible* slots — new ids start unmemoized even though
    // the buffer is reused, and old ids never resurface old generations.
    let mut t = AtomTable::new();
    let mut ar = ExprArena::new();
    let a = ar.atom(t.fresh_tuple());
    let p = t.fresh_txn();
    let pa = ar.atom(p);
    let e1 = ar.dot_m(a, pa);
    let mut memo: DenseMemo<bool> = DenseMemo::new();
    let all_true: Valuation<bool> = Valuation::constant(true);
    assert!(eval_arena_in(&ar, e1, &Bool, &all_true, &mut memo));
    for step in 0..10 {
        // Grow: a fresh sub-DAG whose ids extend past the old high-water
        // mark, plus a root that also reaches the old nodes.
        let x = ar.atom(t.fresh_tuple());
        let q_atom = t.fresh_txn();
        let q = ar.atom(q_atom);
        let dot = ar.dot_m(x, q);
        let root = ar.plus_m(e1, dot);
        let val = Valuation::constant(true).with(if step % 2 == 0 { p } else { q_atom }, false);
        assert_eq!(
            eval_arena_in(&ar, root, &Bool, &val, &mut memo),
            eval_arena(&ar, root, &Bool, &val),
            "step {step}: growth leaked stale values"
        );
    }
}

#[test]
fn prop_nf_incremental_agrees_with_scratch_after_interleavings() {
    // The incremental-maintenance property: roots built in append-shaped
    // waves (each wave wraps earlier roots in fresh log-like operations)
    // and normalized through one persistent NfCache — with random batch
    // composition, random warm-up order, and occasional cache clears
    // ("invalidate everything") — must land on exactly the from-scratch
    // per-root normal forms, and normalization must preserve evaluation
    // under both catalogue structures.
    let mut memo = NfMemo::new();
    for seed in 0..CASES / 6 {
        let mut rng = Rng::new(seed * 6_700_417 + 31);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let mut cache = NfCache::new();
        let mut atoms: Vec<Atom> = Vec::new();
        let mut live: Vec<NodeId> = vec![ExprArena::ZERO];
        for wave in 0..5 {
            // "Append": either a fresh random DAG, or an extension of a
            // live root by an insert / delete / modify-shaped wrapper —
            // the dirty-root-aliasing-a-cached-spine case arises whenever
            // the wrapped root was certified in an earlier wave.
            for _ in 0..2 + rng.below(3) {
                let id = if rng.coin() || live.len() < 2 {
                    let dag = random_dag(&mut rng, &mut table, &mut ar, 15);
                    atoms.extend(dag.atoms);
                    dag.root
                } else {
                    let base = live[rng.below(live.len())];
                    let p_atom = table.fresh_txn();
                    atoms.push(p_atom);
                    let p = ar.atom(p_atom);
                    match rng.below(3) {
                        0 => ar.plus_i(base, p),
                        1 => ar.minus(base, p),
                        _ => {
                            let src = live[rng.below(live.len())];
                            let dot = ar.dot_m(src, p);
                            ar.plus_m(base, dot)
                        }
                    }
                };
                live.push(id);
            }
            if rng.below(4) == 0 {
                cache.clear(); // full invalidation: everything dirty again
            }
            // A random batch over live roots (repeats allowed).
            let batch: Vec<NodeId> = (0..1 + rng.below(live.len()))
                .map(|_| live[rng.below(live.len())])
                .collect();
            let outcomes = nf_roots_incremental_in(&mut ar, &batch, &mut cache, &mut memo);
            for (i, (&r, out)) in batch.iter().zip(&outcomes).enumerate() {
                assert!(
                    out.is_normal(),
                    "seed {seed} wave {wave}: root {i} saturated"
                );
                assert_eq!(
                    out.id,
                    nf(&mut ar, r),
                    "seed {seed} wave {wave}: incremental root {i} != scratch nf"
                );
            }
            // Evaluation is preserved through the cache cuts.
            let val = random_valuation(&mut rng, &atoms, Rng::coin);
            let wval = random_valuation(&mut rng, &atoms, Rng::next_u64);
            for (&r, out) in batch.iter().zip(&outcomes) {
                assert_eq!(
                    eval_arena(&ar, r, &Bool, &val),
                    eval_arena(&ar, out.id, &Bool, &val),
                    "seed {seed} wave {wave}: Bool evaluation changed"
                );
                assert_eq!(
                    eval_arena(&ar, r, &Worlds, &wval),
                    eval_arena(&ar, out.id, &Worlds, &wval),
                    "seed {seed} wave {wave}: Worlds evaluation changed"
                );
            }
        }
    }
}

#[test]
fn prop_nf_roots_in_agrees_with_per_root_nf() {
    // Batch normalization over many (overlapping, repeated) roots must
    // land on exactly the per-root normal forms.
    let mut memo = NfMemo::new();
    for seed in 0..CASES / 3 {
        let mut rng = Rng::new(seed * 15_485_863 + 29);
        let mut table = AtomTable::new();
        let mut ar = ExprArena::new();
        let mut roots = vec![ExprArena::ZERO];
        for _ in 0..4 {
            roots.push(random_dag(&mut rng, &mut table, &mut ar, 30).root);
        }
        roots.push(roots[1]); // repeated root
        let outcomes = uprov_core::nf_roots_in(&mut ar, &roots, &mut memo);
        assert_eq!(outcomes.len(), roots.len());
        for (i, (&r, out)) in roots.iter().zip(&outcomes).enumerate() {
            assert!(out.is_normal(), "seed {seed}: root {i} saturated");
            assert_eq!(out.id, nf(&mut ar, r), "seed {seed}: root {i} diverged");
        }
        assert_eq!(outcomes[1].id, outcomes[5].id, "repeated roots agree");
    }
}
