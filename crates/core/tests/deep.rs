//! Regression tests for deep expressions: every path a user can hit with a
//! depth-100 000 update chain (the paper's long-transaction replay) must be
//! iterative — construction, traversal, pretty-printing, evaluation and
//! normalization all run with explicit stacks, never call-stack recursion.

mod common;

use common::eval;
use uprov_core::{nf_roots_in, try_equiv_in, AtomTable, ExprArena, NfMemo, NodeId, Valuation};
use uprov_structures::Bool;

const DEPTH: usize = 100_000;

/// `((x − p1) − p2) − … − pDEPTH`.
fn deep_chain(t: &mut AtomTable, ar: &mut ExprArena) -> NodeId {
    let mut e = ar.atom(t.fresh_tuple());
    for _ in 0..DEPTH {
        let p = ar.atom(t.fresh_txn());
        e = ar.minus(e, p);
    }
    e
}

#[test]
fn deep_legacy_display_does_not_overflow() {
    let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    let e = deep_chain(&mut t, &mut ar);
    let s = ar.display(e, &t).to_string();
    assert!(s.starts_with('('));
    assert!(s.ends_with(&format!("p{DEPTH}")));
    // Each level contributes " - pN" plus wrapping parens.
    assert!(s.len() > 6 * DEPTH);
}

#[test]
fn deep_legacy_atoms_and_stats_do_not_overflow() {
    let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    let e = deep_chain(&mut t, &mut ar);
    assert_eq!(ar.atoms(e).len(), DEPTH + 1);
    let stats = ar.analyze(e);
    assert_eq!(stats.depth, DEPTH + 1);
    assert_eq!(stats.logical_size, 2 * DEPTH as u128 + 1);
    assert_eq!(stats.dag_size, 2 * DEPTH + 1);
}

#[test]
fn deep_arena_import_eval_analyze_do_not_overflow() {
    let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    let id = deep_chain(&mut t, &mut ar);
    let stats = ar.analyze(id);
    assert_eq!(stats.depth, DEPTH + 1);
    assert_eq!(stats.dag_size, 2 * DEPTH + 1);
    // All txn atoms true: the tuple is deleted by the first subtraction.
    assert!(!eval(&ar, id, &Bool, &Valuation::constant(true)));
    // All txns aborted (atoms false): every subtraction is a no-op and the
    // original tuple survives.
    let mut aborted = Valuation::constant(true);
    for a in t.iter_kind(uprov_core::AtomKind::Txn) {
        aborted.set(a, false);
    }
    assert!(eval(&ar, id, &Bool, &aborted));
}

#[test]
fn deep_equiv_at_depth_100k_does_not_overflow() {
    // Two syntactically different depth-100k update chains with the same
    // effect: every layer of the first inserts then deletes by the same
    // transaction ((e +I pᵢ) − pᵢ, collapsed per level by axiom 7), the
    // second just deletes (e − pᵢ). Normalization runs on an explicit
    // stack, so neither the 2·100k-node rewrite nor the comparison may
    // touch the call stack.
    let mut t = AtomTable::new();
    let mut ar = ExprArena::new();
    let base = ar.atom(t.fresh_tuple());
    let (mut e1, mut e2, mut mid) = (base, base, base);
    for level in 0..DEPTH {
        let p = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(e1, p);
        e1 = ar.minus(ins, p);
        e2 = ar.minus(e2, p);
        if level == DEPTH / 2 {
            mid = e1;
        }
    }
    assert_ne!(e1, e2, "syntactically different");
    // One batched call, top and a node halfway down, against per-root `nf`
    // in an arena that never saw the batch (ids differ across arenas, the
    // structural hash does not).
    let mut solo = ar.clone();
    let outs = nf_roots_in(&mut ar, &[e1, mid], &mut NfMemo::new());
    assert!(outs.iter().all(|o| !o.saturated));
    assert_eq!(outs[0].id, e2, "the plain chain is the normal form");
    let want_mid = nf_roots_in(&mut solo, &[mid], &mut NfMemo::new())[0].id;
    assert_eq!(
        ar.structural_hash(outs[1].id),
        solo.structural_hash(want_mid)
    );
    let verdict = try_equiv_in(&mut ar, e1, e2, &mut NfMemo::new());
    assert_eq!(verdict, Some(true), "equivalent at depth 100k");
}

#[test]
fn deep_arena_native_chain_evaluates() {
    let mut t = AtomTable::new();
    let mut ar = ExprArena::new();
    let mut e = ar.atom(t.fresh_tuple());
    for _ in 0..DEPTH {
        let p = ar.atom(t.fresh_txn());
        let dot = ar.dot_m(e, p);
        e = ar.plus_m(e, dot);
    }
    assert!(eval(&ar, e, &Bool, &Valuation::constant(true)));
    assert_eq!(ar.analyze(e).depth, 2 * DEPTH + 1);
}
