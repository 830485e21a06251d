//! Integration tests exercising evaluation and the axiom checker against
//! the concrete catalogue structures (these cannot live as unit tests: the
//! `uprov-core` ↔ `uprov-structures` dev-dependency cycle only unifies
//! crate instances for integration tests).

mod common;

use common::eval;
use uprov_core::{
    check_axioms, check_zero_axioms, eval_many_in, map_valuation, AtomTable, DenseMemo, ExprArena,
    StructureHomomorphism, UpdateStructure, Valuation,
};
use uprov_structures::{Bool, CountingMonus};

#[test]
fn eval_example_4_3() {
    // Tuple annotated 0 +M (p2 ·M p'); deleting the input tuple (p2 :=
    // false) must evaluate to absent.
    let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    let p2 = t.fresh_tuple();
    let pp = t.fresh_txn();
    let (p2a, ppa) = (ar.atom(p2), ar.atom(pp));
    let dot = ar.dot_m(p2a, ppa);
    let e = ar.plus_m(ExprArena::ZERO, dot);
    let all_true = Valuation::constant(true);
    assert!(eval(&ar, e, &Bool, &all_true));
    let deleted = Valuation::constant(true).with(p2, false);
    assert!(!eval(&ar, e, &Bool, &deleted));
}

#[test]
fn eval_example_4_4_transaction_abortion() {
    // Products("Kids mnt bike", "Sport", $50) has provenance
    // 0 +M (((p1 +M (p3 ·M p)) − p) ·M p'); aborting the first
    // transaction (p := false) keeps the tuple present.
    let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    let p = t.fresh_txn();
    let p1 = ar.atom(t.fresh_tuple());
    let p3 = ar.atom(t.fresh_tuple());
    let pa = ar.atom(p);
    let ppa = ar.atom(t.fresh_txn());
    let dot = ar.dot_m(p3, pa);
    let md = ar.plus_m(p1, dot);
    let inner = ar.minus(md, pa);
    let outer = ar.dot_m(inner, ppa);
    let e = ar.plus_m(ExprArena::ZERO, outer);
    let aborted = Valuation::constant(true).with(p, false);
    assert!(eval(&ar, e, &Bool, &aborted));
}

#[test]
fn sum_of_empty_is_zero() {
    let vals: [bool; 0] = [];
    assert!(!Bool.sum(vals.iter()));
}

#[test]
fn eval_memoizes_shared_nodes() {
    // A shared DAG whose tree has 2^60 leaves: evaluation must visit each
    // node once and terminate quickly.
    let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    let mut e = ar.atom(t.fresh_tuple());
    for _ in 0..60 {
        let p = ar.atom(t.fresh_txn());
        let dot = ar.dot_m(e, p);
        e = ar.plus_m(e, dot);
    }
    assert_eq!(ar.analyze(e).dag_size, 3 * 60 + 1);
    assert!(eval(&ar, e, &Bool, &Valuation::constant(true)));
}

#[test]
fn eval_many_matches_individual_evals() {
    let mut t = AtomTable::new();
    let mut ar = ExprArena::new();
    let mut e = ar.atom(t.fresh_tuple());
    let mut txns = Vec::new();
    for _ in 0..20 {
        let p = t.fresh_txn();
        txns.push(p);
        let pa = ar.atom(p);
        let dot = ar.dot_m(e, pa);
        e = ar.plus_m(e, dot);
    }
    // Abort each transaction in turn (the paper's experiment workload).
    let vals: Vec<_> = txns
        .iter()
        .map(|&p| Valuation::constant(true).with(p, false))
        .collect();
    let batched = eval_many_in(&ar, e, &Bool, &vals, &mut DenseMemo::new());
    for (val, batch) in vals.iter().zip(&batched) {
        assert_eq!(eval(&ar, e, &Bool, val), *batch);
    }
}

struct Identity;
impl StructureHomomorphism<Bool, Bool> for Identity {
    fn apply(&self, v: &bool) -> bool {
        *v
    }
}

#[test]
fn homomorphism_commutes_with_eval() {
    let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    let a = t.fresh_tuple();
    let p = t.fresh_txn();
    let (aa, pa) = (ar.atom(a), ar.atom(p));
    let e = ar.plus_i(aa, pa);
    let val = Valuation::constant(true).with(a, false);
    let mapped = map_valuation::<Bool, Bool, _>(&Identity, &val);
    assert_eq!(
        Identity.apply(&eval(&ar, e, &Bool, &val)),
        eval(&ar, e, &Bool, &mapped)
    );
}

// The catalogue-contract axiom tests (Bool passes all axioms, monus is
// rejected via axiom 10, monus passes the zero axioms) live with the
// catalogue in `uprov-structures` — not duplicated here. This file keeps
// one smoke check that the checker is reachable through the public API.
#[test]
fn axiom_checker_is_wired_through_the_public_api() {
    assert!(check_axioms(&Bool, &[false, true]).is_ok());
    assert!(check_zero_axioms(&CountingMonus, &[0, 1]).is_ok());
}
