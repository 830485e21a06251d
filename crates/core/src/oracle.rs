//! Cross-path differential oracles.
//!
//! The correctness story of this workspace rests on a small set of
//! *agreement facts* between independent execution paths: normalization
//! never changes what an expression evaluates to (the soundness of the
//! directed Figure 3 rules under any axiom-satisfying
//! [`UpdateStructure`]), and sharded parallel evaluation is bit-identical
//! to serial evaluation. The structure-catalogue tests, the core property
//! suites, and the `uprov-workload` differential fuzzing harness all
//! assert the same facts against different inputs; this module is the one
//! executable definition they share, so every caller checks *exactly* the
//! same oracle and failures are reported uniformly (which root, which
//! valuation, both values).
//!
//! The helpers return `Ok(checked)` (how many comparisons ran) so callers
//! can assert coverage, or a typed [`OracleDivergence`] naming the first
//! disagreement — its `Display` form is designed to be dropped straight
//! into a test panic message next to the generator seed that produced the
//! input.

use std::fmt;

use crate::arena::{DenseMemo, ExprArena, NodeId};
use crate::nf::{nf_roots_in, NfMemo};
use crate::parallel::{par_eval_roots_in, MemoPool};
use crate::structure::{eval_roots_in, UpdateStructure, Valuation};

/// The first disagreement an oracle found between two execution paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleDivergence {
    /// Which oracle tripped (e.g. `"nf-preserves-eval"`).
    pub oracle: &'static str,
    /// Index of the offending root in the caller's `roots` slice.
    pub root_ix: usize,
    /// The offending root id.
    pub root: NodeId,
    /// Human-readable detail: valuation / thread count and the two values.
    pub detail: String,
}

impl fmt::Display for OracleDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "oracle {} diverged at root #{} ({:?}): {}",
            self.oracle, self.root_ix, self.root, self.detail
        )
    }
}

impl std::error::Error for OracleDivergence {}

/// The eval-preservation oracle: for every root, `eval(root)` equals
/// `eval(nf(root))` under `structure`, for each of the given valuations.
///
/// This is Propositions 3.5/4.2 made executable: a structure that passes
/// [`crate::axioms::check_axioms`] cannot observe rewriting, so the
/// normalizer must be invisible to evaluation under it. Saturated
/// normalizations are still checked — a best-effort image is
/// rewrite-reachable from the input and therefore must evaluate
/// identically too.
///
/// Returns the number of `(root, valuation)` comparisons on success.
///
/// ```
/// use uprov_core::{check_nf_preserves_eval, AtomTable, ExprArena, Valuation};
/// use uprov_structures::Bool;
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let x = t.fresh_tuple();
/// let p = t.fresh_txn();
/// let (xa, pa) = (ar.atom(x), ar.atom(p));
/// let ins = ar.plus_i(xa, pa);
/// let root = ar.minus(ins, pa); // (x +I p) − p: axiom 7 fires
/// let vals = [
///     Valuation::constant(true),
///     Valuation::constant(true).with(p, false),
/// ];
/// let checked = check_nf_preserves_eval(&mut ar, &[root], &Bool, &vals).unwrap();
/// assert_eq!(checked, 2);
/// ```
pub fn check_nf_preserves_eval<S: UpdateStructure>(
    arena: &mut ExprArena,
    roots: &[NodeId],
    structure: &S,
    valuations: &[Valuation<S::Value>],
) -> Result<usize, OracleDivergence> {
    let mut nf_memo = NfMemo::new();
    let mut memo = DenseMemo::new();
    check_nf_preserves_eval_in(arena, roots, structure, valuations, &mut nf_memo, &mut memo)
}

/// [`check_nf_preserves_eval`] with caller-provided memos — the pooling
/// variant for fuzz loops that run the oracle per generated case and want
/// one normalization memo and one evaluation memo reused across cases.
pub fn check_nf_preserves_eval_in<S: UpdateStructure>(
    arena: &mut ExprArena,
    roots: &[NodeId],
    structure: &S,
    valuations: &[Valuation<S::Value>],
    nf_memo: &mut NfMemo,
    memo: &mut DenseMemo<S::Value>,
) -> Result<usize, OracleDivergence> {
    let images: Vec<NodeId> = nf_roots_in(arena, roots, nf_memo)
        .into_iter()
        .map(|out| out.id)
        .collect();
    let mut checked = 0;
    for (vix, val) in valuations.iter().enumerate() {
        let before = eval_roots_in(arena, roots, structure, val, memo);
        let after = eval_roots_in(arena, &images, structure, val, memo);
        for (ix, (b, a)) in before.iter().zip(&after).enumerate() {
            checked += 1;
            if b != a {
                return Err(OracleDivergence {
                    oracle: "nf-preserves-eval",
                    root_ix: ix,
                    root: roots[ix],
                    detail: format!(
                        "valuation #{vix}: eval(root)={b:?} but eval(nf(root))={a:?} \
                         (nf image {:?})",
                        images[ix]
                    ),
                });
            }
        }
    }
    Ok(checked)
}

/// The parallel-agreement oracle: sharded evaluation over every given
/// thread count produces exactly the serial answers, root for root.
///
/// A thread count of `0` means available parallelism, as everywhere in
/// [`crate::parallel`]; counts larger than the root count exercise the
/// worker-starvation edge.
///
/// Returns the number of `(root, thread-count)` comparisons on success.
///
/// ```
/// use uprov_core::{check_parallel_matches_serial, AtomTable, ExprArena, Valuation};
/// use uprov_structures::Bool;
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let x = ar.atom(t.fresh_tuple());
/// let p = ar.atom(t.fresh_txn());
/// let roots = [ar.plus_i(x, p), ar.dot_m(x, p)];
/// let val = Valuation::constant(true);
/// let checked =
///     check_parallel_matches_serial(&ar, &roots, &Bool, &val, &[1, 2, 8]).unwrap();
/// assert_eq!(checked, 6);
/// ```
pub fn check_parallel_matches_serial<S: UpdateStructure>(
    arena: &ExprArena,
    roots: &[NodeId],
    structure: &S,
    val: &Valuation<S::Value>,
    thread_counts: &[usize],
) -> Result<usize, OracleDivergence> {
    let serial = eval_roots_in(arena, roots, structure, val, &mut DenseMemo::new());
    let pool = MemoPool::new();
    let mut checked = 0;
    for &threads in thread_counts {
        let par = par_eval_roots_in(arena, roots, structure, val, &pool, threads);
        for (ix, (s_val, p_val)) in serial.iter().zip(&par).enumerate() {
            checked += 1;
            if s_val != p_val {
                return Err(OracleDivergence {
                    oracle: "parallel-matches-serial",
                    root_ix: ix,
                    root: roots[ix],
                    detail: format!("threads={threads}: serial={s_val:?} but parallel={p_val:?}"),
                });
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;

    // A deliberately broken "structure" that observes rewriting: minus is
    // asymmetric in a way that violates axiom 7, so nf changes its answers
    // and the oracle must catch it. (Concrete catalogue structures live
    // downstream; a local negative fixture keeps the detection path unit-
    // tested here.)
    #[derive(Debug)]
    struct BadMinus;
    impl UpdateStructure for BadMinus {
        type Value = u32;
        fn zero(&self) -> u32 {
            0
        }
        fn plus_i(&self, a: &u32, b: &u32) -> u32 {
            a + b
        }
        fn minus(&self, a: &u32, b: &u32) -> u32 {
            a.saturating_sub(*b)
        }
        fn plus_m(&self, a: &u32, b: &u32) -> u32 {
            a + b
        }
        fn dot_m(&self, a: &u32, b: &u32) -> u32 {
            a * b
        }
        fn plus(&self, a: &u32, b: &u32) -> u32 {
            a + b
        }
    }

    #[test]
    fn eval_preservation_oracle_catches_axiom_violators() {
        let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
        let a = t.fresh_tuple();
        let p = t.fresh_txn();
        let (aa, pa) = (ar.atom(a), ar.atom(p));
        let ins = ar.plus_i(aa, pa);
        let root = ar.minus(ins, pa); // axiom 7 rewrites to a − p
        let val = Valuation::constant(0u32).with(a, 1).with(p, 2);
        let err = check_nf_preserves_eval(&mut ar, &[root], &BadMinus, &[val])
            .expect_err("monus-style minus must be observable");
        assert_eq!(err.oracle, "nf-preserves-eval");
        assert_eq!(err.root_ix, 0);
        let msg = err.to_string();
        assert!(msg.contains("diverged"), "message names the failure: {msg}");
    }

    #[test]
    fn parallel_oracle_counts_comparisons() {
        let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
        let x = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let roots = [ar.plus_i(x, p), ar.minus(x, p), ExprArena::ZERO];
        let val = Valuation::constant(0u32);
        // BadMinus is a fine *evaluator* (parallel agreement is about
        // scheduling, not axioms), so it serves here too.
        let checked =
            check_parallel_matches_serial(&ar, &roots, &BadMinus, &val, &[0, 1, 2, 7]).unwrap();
        assert_eq!(checked, 12);
    }
}
