//! Cross-path differential oracles.
//!
//! The correctness story of this workspace rests on an *agreement fact*
//! between independent execution paths: normalization never changes what
//! an expression evaluates to (the soundness of the directed Figure 3
//! rules under any axiom-satisfying [`UpdateStructure`]). The
//! structure-catalogue tests, the core property suites, and the
//! `uprov-workload` differential fuzzing harness all assert it against
//! different inputs; this module is the one executable definition they
//! share, so every caller checks *exactly* the same oracle and failures
//! are reported uniformly (which root, which valuation, both values).
//!
//! The oracle returns `Ok(checked)` (how many comparisons ran) so callers
//! can assert coverage, or a typed [`OracleDivergence`] naming the first
//! disagreement — its `Display` form is designed to be dropped straight
//! into a test panic message next to the generator seed that produced the
//! input.

use std::fmt;

use crate::arena::{DenseMemo, ExprArena, NodeId};
use crate::nf::{nf_roots_in, NfMemo};
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
    /// Human-readable detail: the valuation and the two values.
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
/// The caller provides both memos, so a fuzz loop that runs the oracle per
/// generated case reuses one normalization memo and one evaluation memo
/// across cases.
///
/// ```
/// use uprov_core::{
///     check_nf_preserves_eval_in, AtomTable, DenseMemo, ExprArena, NfMemo, Valuation,
/// };
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
/// let (mut nf_memo, mut memo) = (NfMemo::new(), DenseMemo::new());
/// let checked =
///     check_nf_preserves_eval_in(&mut ar, &[root], &Bool, &vals, &mut nf_memo, &mut memo);
/// assert_eq!(checked, Ok(2));
/// ```
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
        let (mut nf_memo, mut memo) = (NfMemo::new(), DenseMemo::new());
        let err = check_nf_preserves_eval_in(
            &mut ar,
            &[root],
            &BadMinus,
            &[val],
            &mut nf_memo,
            &mut memo,
        )
        .expect_err("monus-style minus must be observable");
        assert_eq!(err.oracle, "nf-preserves-eval");
        assert_eq!(err.root_ix, 0);
        let msg = err.to_string();
        assert!(msg.contains("diverged"), "message names the failure: {msg}");
    }
}
