//! Catalogue of concrete Update-Structures (Section 4 of the paper).
//!
//! The core crate defines the abstract signature
//! ([`uprov_core::UpdateStructure`]) and the executable axiom checker
//! ([`uprov_core::check_axioms`]); this crate collects the concrete
//! instances applications evaluate provenance under. Each catalogue entry is
//! verified against the twelve equivalence axioms of Figure 3 plus the zero
//! axioms by the test-suite, so downstream users can rely on
//! Propositions 3.5/4.2 (invariance under transaction rewriting) holding for
//! every structure exported here.
//!
//! [`CountingMonus`] is deliberately **not** part of the verified catalogue:
//! it is the paper's canonical *negative* example, kept public so the
//! checker's rejection path stays exercised and documented.
//!
//! The verified entries double as **normal-form oracles**: because they
//! satisfy the axioms, evaluation under them is invariant under the
//! Figure 3 rewrite system (`uprov_core::nf`), i.e.
//! `eval(e) == eval(nf(e))` — asserted here for every catalogue structure
//! and exploited by the monus tests to show what rewriting would break on a
//! structure that fails the axioms.

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

use std::collections::BTreeSet;

use uprov_core::{BinOp, StructureHomomorphism, UpdateStructure};

// Every verified catalogue structure interprets its operators on a
// (generalized) Boolean-algebra carrier, where all four operations are
// idempotent in the right operand: `(a ⊕ b) ⊕ b = a ⊕ b` for ∨, ∧ and ∖
// alike. A counted-block entry of any multiplicity therefore folds in one
// application — the O(1)-per-distinct-increment fast path the condensed
// normal forms are built for. `CountingMonus` deliberately keeps the
// iterating default: on ℕ the multiplicity genuinely multiplies.
macro_rules! idempotent_counted_fold {
    () => {
        fn apply_bin_counted(
            &self,
            op: BinOp,
            acc: &Self::Value,
            x: &Self::Value,
            mult: u32,
        ) -> Self::Value {
            if mult == 0 {
                acc.clone()
            } else {
                self.apply_bin(op, acc, x)
            }
        }
    };
}

/// The Boolean deletion-propagation structure of Section 4.1.
///
/// The carrier is `bool` ("does the tuple exist?"); `0 = false`. Deleting an
/// input tuple assigns `false` to its atom, aborting a transaction assigns
/// `false` to the transaction's atom, and evaluation then answers whether a
/// given output tuple survives. Satisfies all axioms of Figure 3 (checked
/// exhaustively over the full carrier in the tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct Bool;

impl UpdateStructure for Bool {
    type Value = bool;
    fn zero(&self) -> bool {
        false
    }
    fn plus_i(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn minus(&self, a: &bool, b: &bool) -> bool {
        *a && !*b
    }
    fn plus_m(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn dot_m(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }
    fn plus(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
    idempotent_counted_fold!();
}

/// 64 parallel Boolean possible-worlds, packed in a `u64` bitmask.
///
/// Bit `k` answers "does the tuple exist in hypothetical scenario `k`?", so
/// one evaluation pass decides deletion propagation / transaction abortion
/// for 64 what-if scenarios at once — the batched-scenario reading of the
/// paper's experiments. Every operation acts bitwise like [`Bool`]
/// (`+I = +M = + = ∨`, `·M = ∧`, `− = ∧¬`); the Figure 3 axioms are
/// term identities of Boolean algebra, and every Boolean algebra is a
/// subdirect power of the two-element one, so they hold here bit-by-bit
/// (and are re-checked exhaustively over carrier samples in the tests).
/// [`WorldProjection`] extracts one scenario as a structure homomorphism.
#[derive(Debug, Clone, Copy, Default)]
pub struct Worlds;

impl UpdateStructure for Worlds {
    type Value = u64;
    fn zero(&self) -> u64 {
        0
    }
    fn plus_i(&self, a: &u64, b: &u64) -> u64 {
        a | b
    }
    fn minus(&self, a: &u64, b: &u64) -> u64 {
        a & !b
    }
    fn plus_m(&self, a: &u64, b: &u64) -> u64 {
        a | b
    }
    fn dot_m(&self, a: &u64, b: &u64) -> u64 {
        a & b
    }
    fn plus(&self, a: &u64, b: &u64) -> u64 {
        a | b
    }
    idempotent_counted_fold!();
}

/// Projects world `k` out of a [`Worlds`] value: a
/// [`StructureHomomorphism`] onto [`Bool`], exercising Proposition 4.2
/// (evaluation commutes with structure homomorphisms).
///
/// Indices ≥ 64 name worlds outside the carrier and project to `false`
/// (the tuple exists in no such world); this keeps `apply` total instead
/// of overflowing the shift.
#[derive(Debug, Clone, Copy)]
pub struct WorldProjection(pub u8);

impl StructureHomomorphism<Worlds, Bool> for WorldProjection {
    fn apply(&self, v: &u64) -> bool {
        v.checked_shr(u32::from(self.0)).is_some_and(|w| w & 1 == 1)
    }
}

/// Access-control compartments: a security-label structure over `u16`
/// bitmasks, in the mandatory-access-control (Bell–LaPadula category set)
/// tradition.
///
/// Bit `k` answers "is this tuple visible to compartment `k`?". Inserting
/// via several pipelines unions visibility (`+I = +M = + = ∪`), a tuple
/// derived through a modification is visible only where *both* the source
/// and the transaction's label allow (`·M = ∩`), and deletion revokes the
/// deleter's compartments (`− = ∖`, relative complement). `0` is the empty
/// label — visible to no one, i.e. absent.
///
/// Like [`Worlds`] this is a finite power of [`Bool`], so the Figure 3
/// axioms hold compartment-by-compartment; the point of carrying it in the
/// catalogue separately is the *reading* (who may see a tuple after this
/// transaction log, and how would aborting a transaction change the
/// label?) and the distinct carrier width exercised by the differential
/// harness.
///
/// A note on what canNOT work here: a total-order sensitivity *level*
/// (`min`/`max` over `{Public < Secret < TopSecret}`) is not an
/// Update-Structure — axiom 5 forces `(b − c) ·M c = 0` for all `b, c`,
/// which fails in any chain with three points (take `c = 1, b = 2` under
/// `− = `"keep `a` unless `b ≥ a`", `·M = min`: `(2 − 1) ·M 1 = 1 ≠ 0`).
/// Lattice *compartments* survive precisely because they are Boolean.
#[derive(Debug, Clone, Copy, Default)]
pub struct Clearance;

impl UpdateStructure for Clearance {
    type Value = u16;
    fn zero(&self) -> u16 {
        0
    }
    fn plus_i(&self, a: &u16, b: &u16) -> u16 {
        a | b
    }
    fn minus(&self, a: &u16, b: &u16) -> u16 {
        a & !b
    }
    fn plus_m(&self, a: &u16, b: &u16) -> u16 {
        a | b
    }
    fn dot_m(&self, a: &u16, b: &u16) -> u16 {
        a & b
    }
    fn plus(&self, a: &u16, b: &u16) -> u16 {
        a | b
    }
    idempotent_counted_fold!();
}

/// Trust/confidence tracking by **vouching source**: a `u32` bitmask whose
/// bit `k` answers "does source `k` vouch for this tuple?".
///
/// Insertion through independent pipelines accumulates vouchers
/// (`+I = +M = + = ∪`), a modified tuple is vouched for only by sources
/// standing behind both the inputs and the transaction (`·M = ∩`), and
/// deletion withdraws the deleting transaction's vouchers (`− = ∖`). A
/// tuple with no vouchers (`0`) is untrusted/absent.
///
/// Why *sets of sources* rather than a numeric confidence score: any
/// threshold- or count-valued semantics (confidence in `[0, 1]` with
/// `max`/`min`, or voucher *counts* with `+`/monus) sits on a total order
/// or on ℕ and fails the Figure 3 axioms exactly like [`CountingMonus`]
/// does — axioms 5 and 10 force the carrier to be a (generalized) Boolean
/// algebra. Tracking *which* sources vouch keeps the full information;
/// numeric scores are then downstream reads (`popcount`, weighted sums)
/// applied to evaluation *results*, or single-source projections via the
/// [`TrustedBy`] homomorphism — the same "evaluate first, then interpret"
/// discipline the paper uses for its security application.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trust;

impl UpdateStructure for Trust {
    type Value = u32;
    fn zero(&self) -> u32 {
        0
    }
    fn plus_i(&self, a: &u32, b: &u32) -> u32 {
        a | b
    }
    fn minus(&self, a: &u32, b: &u32) -> u32 {
        a & !b
    }
    fn plus_m(&self, a: &u32, b: &u32) -> u32 {
        a | b
    }
    fn dot_m(&self, a: &u32, b: &u32) -> u32 {
        a & b
    }
    fn plus(&self, a: &u32, b: &u32) -> u32 {
        a | b
    }
    idempotent_counted_fold!();
}

/// Projects "does source `k` vouch?" out of a [`Trust`] value: a
/// [`StructureHomomorphism`] onto [`Bool`]. Indices ≥ 32 name sources
/// outside the carrier and project to `false`, keeping `apply` total.
#[derive(Debug, Clone, Copy)]
pub struct TrustedBy(pub u8);

impl StructureHomomorphism<Trust, Bool> for TrustedBy {
    fn apply(&self, v: &u32) -> bool {
        v.checked_shr(u32::from(self.0)).is_some_and(|w| w & 1 == 1)
    }
}

/// Why-provenance witness sets over an **unbounded** universe: the carrier
/// is a finite set of witness ids (`BTreeSet<u32>`), each id naming one
/// minimal input-combination that explains the tuple's presence.
///
/// Alternative derivations union their witnesses (`+I = +M = + = ∪`), a
/// tuple produced by a modification is witnessed only by explanations that
/// survive both the sources and the transaction (`·M = ∩`), and deletion
/// removes the deleted witnesses (`− = ∖`). The empty set is `0`: a tuple
/// with no surviving explanation is absent — exactly the Why-provenance
/// account of deletion propagation.
///
/// Set-algebraically this is again a (generalized) Boolean algebra — the
/// axioms are the same identities as for [`Worlds`] — but unlike the
/// bitmask structures the carrier is unbounded and the values are
/// heap-allocated, so it exercises the non-`Copy`, allocation-heavy path
/// through evaluation, parallel sharding and the differential harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct Witnesses;

impl UpdateStructure for Witnesses {
    type Value = BTreeSet<u32>;
    fn zero(&self) -> BTreeSet<u32> {
        BTreeSet::new()
    }
    fn plus_i(&self, a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> BTreeSet<u32> {
        a.union(b).copied().collect()
    }
    fn minus(&self, a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> BTreeSet<u32> {
        a.difference(b).copied().collect()
    }
    fn plus_m(&self, a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> BTreeSet<u32> {
        a.union(b).copied().collect()
    }
    fn dot_m(&self, a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> BTreeSet<u32> {
        a.intersection(b).copied().collect()
    }
    fn plus(&self, a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> BTreeSet<u32> {
        a.union(b).copied().collect()
    }
    idempotent_counted_fold!();
}

/// Natural-number "counting" semantics with truncated subtraction (monus):
/// a documented **negative example**, not a legitimate Update-Structure.
///
/// The paper notes (after Theorem 4.5) that bag/counting semantics with
/// monus does *not* satisfy the Figure 3 axioms — e.g. axiom 10,
/// `(a − b) +I b = a +I b`, fails at `a = 1, b = 2` (`(1 ∸ 2) + 2 = 2` but
/// `1 + 2 = 3`) — so provenance evaluation under it is **not** invariant
/// under transaction rewriting. It does satisfy the zero axioms, which makes
/// it a useful fixture for checking that the two axiom levels are validated
/// independently.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingMonus;

impl UpdateStructure for CountingMonus {
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

#[cfg(test)]
mod tests {
    use super::*;
    use uprov_core::{
        check_axioms, check_zero_axioms, eval_roots_in, DenseMemo, ExprArena, NodeId, Valuation,
    };

    /// The value of `root` under `s` and `val`, through a fresh memo.
    fn eval<S: UpdateStructure>(
        ar: &ExprArena,
        root: NodeId,
        s: &S,
        val: &Valuation<S::Value>,
    ) -> S::Value {
        eval_roots_in(ar, &[root], s, val, &mut DenseMemo::new()).swap_remove(0)
    }

    // The catalogue contract: every exported structure (the negative example
    // aside) passes the full axiom check over a carrier sample.

    #[test]
    fn catalogue_bool_passes_all_axioms() {
        let report = check_axioms(&Bool, &[false, true]);
        assert!(report.is_ok(), "failures: {:#?}", report.failures);
        assert!(report.checked > 100);
    }

    #[test]
    fn counting_monus_is_rejected_with_axiom_10() {
        let report = check_axioms(&CountingMonus, &[0, 1, 2]);
        assert!(!report.is_ok(), "monus must be rejected");
        assert!(report.failures.iter().any(|f| f.axiom == 10));
    }

    #[test]
    fn counting_monus_satisfies_zero_axioms() {
        let report = check_zero_axioms(&CountingMonus, &[0, 1, 2, 5]);
        assert!(report.is_ok(), "failures: {:#?}", report.failures);
    }

    #[test]
    fn catalogue_worlds_passes_all_axioms() {
        let report = check_axioms(&Worlds, &[0, 1, 0b10, 0b1010, u64::MAX]);
        assert!(report.is_ok(), "failures: {:#?}", report.failures);
        assert!(report.checked > 100);
    }

    #[test]
    fn catalogue_clearance_passes_all_axioms() {
        let report = check_axioms(&Clearance, &[0, 1, 0b10, 0b110, u16::MAX]);
        assert!(report.is_ok(), "failures: {:#?}", report.failures);
        assert!(report.checked > 100);
    }

    #[test]
    fn catalogue_trust_passes_all_axioms() {
        let report = check_axioms(&Trust, &[0, 1, 0b10, 0b1011, u32::MAX]);
        assert!(report.is_ok(), "failures: {:#?}", report.failures);
        assert!(report.checked > 100);
    }

    #[test]
    fn catalogue_witnesses_passes_all_axioms() {
        let samples: Vec<BTreeSet<u32>> = [&[][..], &[1], &[2], &[1, 2], &[1, 2, 3]]
            .iter()
            .map(|ids| ids.iter().copied().collect())
            .collect();
        let report = check_axioms(&Witnesses, &samples);
        assert!(report.is_ok(), "failures: {:#?}", report.failures);
        assert!(report.checked > 100);
    }

    /// The counted-block fast path must be a pure optimization: one
    /// application equals `mult` applications on every verified structure.
    #[test]
    fn counted_fold_override_agrees_with_iterated_default() {
        const OPS: [BinOp; 4] = [BinOp::PlusI, BinOp::Minus, BinOp::PlusM, BinOp::DotM];
        const MULTS: [u32; 6] = [0, 1, 2, 3, 7, 100];
        fn iterated<S: UpdateStructure>(
            s: &S,
            op: BinOp,
            acc: &S::Value,
            x: &S::Value,
            mult: u32,
        ) -> S::Value {
            let mut v = acc.clone();
            for _ in 0..mult {
                v = s.apply_bin(op, &v, x);
            }
            v
        }
        fn check<S: UpdateStructure>(s: &S, samples: &[S::Value])
        where
            S::Value: std::fmt::Debug,
        {
            for op in OPS {
                for acc in samples {
                    for x in samples {
                        for mult in MULTS {
                            assert_eq!(
                                s.apply_bin_counted(op, acc, x, mult),
                                iterated(s, op, acc, x, mult),
                                "{op:?} acc={acc:?} x={x:?} mult={mult}",
                            );
                        }
                    }
                }
            }
        }
        check(&Bool, &[false, true]);
        check(&Worlds, &[0, 1, 0b1010, u64::MAX]);
        check(&Clearance, &[0, 1, 0b110, u16::MAX]);
        check(&Trust, &[0, 1, 0b1011, u32::MAX]);
        let sets: Vec<BTreeSet<u32>> = [&[][..], &[1], &[1, 2], &[2, 3]]
            .iter()
            .map(|ids| ids.iter().copied().collect())
            .collect();
        check(&Witnesses, &sets);
        // CountingMonus keeps the iterating default: multiplicity is real on ℕ.
        assert_eq!(CountingMonus.apply_bin_counted(BinOp::PlusI, &1, &2, 3), 7);
    }

    /// The documented impossibility: total-order min/max "trust levels" are
    /// not an Update-Structure. Axiom 5 demands `(b − c) ·M c = 0`
    /// pointwise, and any chain with ≥ 3 levels breaks it — which is why
    /// [`Trust`] tracks vouching *sets* instead of a score.
    #[test]
    fn total_order_trust_levels_are_rejected_by_axiom_5() {
        #[derive(Debug)]
        struct Levels; // 0 < 1 < 2 < …: max to combine, min to restrict
        impl UpdateStructure for Levels {
            type Value = u32;
            fn zero(&self) -> u32 {
                0
            }
            fn plus_i(&self, a: &u32, b: &u32) -> u32 {
                *a.max(b)
            }
            fn minus(&self, a: &u32, b: &u32) -> u32 {
                // Revoking at level b kills anything it dominates.
                if b >= a {
                    0
                } else {
                    *a
                }
            }
            fn plus_m(&self, a: &u32, b: &u32) -> u32 {
                *a.max(b)
            }
            fn dot_m(&self, a: &u32, b: &u32) -> u32 {
                *a.min(b)
            }
            fn plus(&self, a: &u32, b: &u32) -> u32 {
                *a.max(b)
            }
        }
        let report = check_axioms(&Levels, &[0, 1, 2]);
        assert!(!report.is_ok(), "three-point chains must be rejected");
        assert!(
            report.failures.iter().any(|f| f.axiom == 5),
            "axiom 5 is the witness: {:#?}",
            report.failures
        );
    }

    #[test]
    fn trusted_by_commutes_with_eval() {
        use uprov_core::{map_valuation, AtomTable};
        let mut t = AtomTable::new();
        let mut ar = ExprArena::new();
        let x = t.fresh_tuple();
        let p = t.fresh_txn();
        let xa = ar.atom(x);
        let pa = ar.atom(p);
        let dot = ar.dot_m(xa, pa);
        let e = ar.minus(dot, xa);
        // Sources {0, 2} vouch for x; sources {0, 1} stand behind p.
        let val: Valuation<u32> = Valuation::constant(u32::MAX).with(x, 0b101).with(p, 0b011);
        let vouchers = eval(&ar, e, &Trust, &val);
        for k in 0..3 {
            let h = TrustedBy(k);
            let projected = map_valuation::<Trust, Bool, _>(&h, &val);
            assert_eq!(
                h.apply(&vouchers),
                eval(&ar, e, &Bool, &projected),
                "source {k}: projection must commute with evaluation"
            );
        }
        assert!(!TrustedBy(32).apply(&u32::MAX));
        assert!(!TrustedBy(u8::MAX).apply(&u32::MAX));
    }

    #[test]
    fn world_projection_commutes_with_eval() {
        use uprov_core::{map_valuation, AtomTable};
        let mut t = AtomTable::new();
        let mut ar = ExprArena::new();
        let x = t.fresh_tuple();
        let p = t.fresh_txn();
        let xa = ar.atom(x);
        let pa = ar.atom(p);
        let dot = ar.dot_m(xa, pa);
        let e = ar.plus_i(dot, pa);
        // x exists in worlds {0, 2}; p ran in worlds {0, 1}.
        let val: Valuation<u64> = Valuation::constant(u64::MAX).with(x, 0b101).with(p, 0b011);
        let worlds = eval(&ar, e, &Worlds, &val);
        for k in 0..3 {
            let h = WorldProjection(k);
            let projected = map_valuation::<Worlds, Bool, _>(&h, &val);
            assert_eq!(
                h.apply(&worlds),
                eval(&ar, e, &Bool, &projected),
                "world {k}: projection must commute with evaluation"
            );
        }
        // Out-of-carrier worlds project to absent rather than overflowing.
        assert!(!WorldProjection(64).apply(&u64::MAX));
        assert!(!WorldProjection(u8::MAX).apply(&u64::MAX));
    }

    /// The catalogue contract for the rewrite engine: structures that pass
    /// `check_axioms` are evaluation oracles for `nf` — normalization never
    /// changes what an expression evaluates to.
    #[test]
    fn nf_preserves_eval_under_every_catalogue_structure() {
        use uprov_core::{nf_roots_in, AtomTable, NfMemo};

        fn check<S: UpdateStructure>(s: &S, carrier: &[S::Value]) {
            let mut t = AtomTable::new();
            let mut ar = ExprArena::new();
            let atoms = [
                t.fresh_tuple(),
                t.fresh_tuple(),
                t.fresh_txn(),
                t.fresh_txn(),
            ];
            let [a, b, p, q] = atoms.map(|at| ar.atom(at));
            // Axiom-shaped expressions: each is the left side of a Figure 3
            // axiom instance the rewriter actually fires on.
            let ins = ar.plus_i(a, p);
            let e_ax7 = ar.minus(ins, p);
            let dot = ar.dot_m(b, p);
            let md = ar.plus_m(a, dot);
            let e_ax2 = ar.minus(md, p);
            let e_ax9 = ar.plus_i(md, p);
            let del = ar.minus(b, p);
            let dead = ar.dot_m(del, p);
            let e_ax5 = ar.plus_m(a, dead);
            let sum = ar.sum([a, b]);
            let sum_dot = ar.dot_m(sum, q);
            let e_ax11 = ar.plus_m(ins, sum_dot);
            for e in [e_ax7, e_ax2, e_ax9, e_ax5, e_ax11] {
                let n = nf_roots_in(&mut ar, &[e], &mut NfMemo::new())[0].id;
                // Exhaust all carrier-sample valuations of the four atoms.
                let k = carrier.len();
                for mask in 0..k.pow(4) {
                    let mut val = Valuation::constant(carrier[0].clone());
                    let mut m = mask;
                    for &at in &atoms {
                        val.set(at, carrier[m % k].clone());
                        m /= k;
                    }
                    assert_eq!(
                        eval(&ar, e, s, &val),
                        eval(&ar, n, s, &val),
                        "nf changed evaluation"
                    );
                }
            }
        }

        check(&Bool, &[false, true]);
        check(&Worlds, &[0, 1, 0b10, 0b1010, u64::MAX]);
        check(&Clearance, &[0, 1, 0b10, 0b110, u16::MAX]);
        check(&Trust, &[0, 1, 0b10, 0b1011, u32::MAX]);
        let sets: Vec<BTreeSet<u32>> = [&[][..], &[1], &[2], &[1, 2, 3]]
            .iter()
            .map(|ids| ids.iter().copied().collect())
            .collect();
        check(&Witnesses, &sets);
    }

    /// The condensed-representation contract: normalizing into counted
    /// blocks and normalizing into fully expanded spines are the same
    /// theory. For seeded random update expressions, the counted NF, its
    /// [`ExprArena::expand_counted`] expansion and the raw expression all
    /// evaluate identically under every catalogue structure, and two
    /// expressions have equal counted NFs exactly when their expansions
    /// are equal (equivalence is representation-independent).
    #[test]
    fn counted_and_expanded_normal_forms_agree_under_every_structure() {
        use uprov_core::{nf_roots_in, AtomTable, NfMemo, Node};

        // Deterministic xorshift so failures replay.
        let mut rng_state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 33) as u32
        };

        // A build script: (kind, tuple index, txn index, repeat count).
        // Interpreted twice — forward, and with each maximal run of +I
        // steps reversed, which is an AC permutation of one block and so
        // must normalize to the same counted node.
        type Script = Vec<(u8, usize, usize, u32)>;
        fn interpret(
            ar: &mut ExprArena,
            tup: &[NodeId],
            txn: &[NodeId],
            script: &Script,
            reverse_runs: bool,
        ) -> NodeId {
            let mut cur = tup[0];
            let mut i = 0;
            while i < script.len() {
                let (kind, a, p, reps) = script[i];
                if kind == 0 {
                    let mut run = Vec::new();
                    while i < script.len() && script[i].0 == 0 {
                        run.push(script[i]);
                        i += 1;
                    }
                    if reverse_runs {
                        run.reverse();
                    }
                    for (_, _, pj, repsj) in run {
                        for _ in 0..repsj {
                            cur = ar.plus_i(cur, txn[pj]);
                        }
                    }
                    continue;
                }
                match kind {
                    1 => cur = ar.minus(cur, txn[p]),
                    _ => {
                        let dot = ar.dot_m(tup[a], txn[p]);
                        for _ in 0..reps {
                            cur = ar.plus_m(cur, dot);
                        }
                    }
                }
                i += 1;
            }
            cur
        }

        fn has_counted(ar: &ExprArena, root: NodeId) -> bool {
            ar.topo_order_roots(&[root])
                .iter()
                .any(|&id| matches!(ar.node(id), Node::Counted(..)))
        }

        fn check_eval<S: UpdateStructure>(
            s: &S,
            ar: &ExprArena,
            roots: &[NodeId],
            atoms: &[uprov_core::Atom],
            carrier: &[S::Value],
        ) where
            S::Value: PartialEq + std::fmt::Debug,
        {
            for rot in 0..carrier.len() {
                let mut val = Valuation::constant(carrier[rot].clone());
                for (i, &at) in atoms.iter().enumerate() {
                    val.set(at, carrier[(i + rot) % carrier.len()].clone());
                }
                let want = eval(ar, roots[0], s, &val);
                for &r in &roots[1..] {
                    assert_eq!(want, eval(ar, r, s, &val), "paths diverged");
                }
            }
        }

        let mut counted_seen = 0usize;
        let mut prev: Option<(NodeId, NodeId)> = None;
        for case in 0..40 {
            let mut t = AtomTable::new();
            let mut ar = ExprArena::new();
            let tup_atoms = [t.fresh_tuple(), t.fresh_tuple(), t.fresh_tuple()];
            let txn_atoms = [t.fresh_txn(), t.fresh_txn(), t.fresh_txn()];
            let tup: Vec<NodeId> = tup_atoms.iter().map(|&a| ar.atom(a)).collect();
            let txn: Vec<NodeId> = txn_atoms.iter().map(|&a| ar.atom(a)).collect();
            let script: Script = (0..10)
                .map(|_| {
                    (
                        (rng() % 3) as u8,
                        (rng() % 3) as usize,
                        (rng() % 3) as usize,
                        1 + rng() % 5,
                    )
                })
                .collect();
            let fwd = interpret(&mut ar, &tup, &txn, &script, false);
            let rev = interpret(&mut ar, &tup, &txn, &script, true);
            let nf_fwd = nf_roots_in(&mut ar, &[fwd], &mut NfMemo::new())[0].id;
            let nf_rev = nf_roots_in(&mut ar, &[rev], &mut NfMemo::new())[0].id;
            assert_eq!(
                nf_fwd, nf_rev,
                "case {case}: AC-permuted builds must share one counted NF"
            );
            if has_counted(&ar, nf_fwd) {
                counted_seen += 1;
            }
            let exp_fwd = ar.expand_counted(nf_fwd);
            let exp_rev = ar.expand_counted(nf_rev);
            assert_eq!(exp_fwd, exp_rev, "expansion must be a function of the NF");
            assert!(
                !has_counted(&ar, exp_fwd),
                "expand_counted must leave no counted node behind"
            );
            // Equivalence is representation-independent: across cases,
            // counted NFs are equal exactly when their expansions are.
            // (Distinct cases use fresh arenas, so compare within one by
            // re-normalizing the expanded form.)
            let renf = nf_roots_in(&mut ar, &[exp_fwd], &mut NfMemo::new())[0].id;
            assert_eq!(renf, nf_fwd, "expanding then re-normalizing round-trips");
            if let Some((p_nf, p_exp)) = prev {
                assert_eq!(p_nf == nf_fwd, p_exp == exp_fwd, "equivalence diverged");
            }
            prev = Some((nf_fwd, exp_fwd));

            let atoms: Vec<uprov_core::Atom> =
                tup_atoms.iter().chain(txn_atoms.iter()).copied().collect();
            let roots = [fwd, nf_fwd, exp_fwd];
            check_eval(&Bool, &ar, &roots, &atoms, &[false, true]);
            check_eval(&Worlds, &ar, &roots, &atoms, &[0, 1, 0b1010, u64::MAX]);
            check_eval(&Clearance, &ar, &roots, &atoms, &[0, 1, 0b110, u16::MAX]);
            check_eval(&Trust, &ar, &roots, &atoms, &[0, 1, 0b1011, u32::MAX]);
            let sets: Vec<BTreeSet<u32>> = [&[][..], &[1], &[1, 2], &[2, 3]]
                .iter()
                .map(|ids| ids.iter().copied().collect())
                .collect();
            check_eval(&Witnesses, &ar, &roots, &atoms, &sets);
        }
        assert!(
            counted_seen >= 10,
            "workload too tame: only {counted_seen}/40 NFs used a counted block"
        );
    }

    /// The same contract routed through the shared `uprov_core::oracle`
    /// helper the differential harness uses, so the catalogue and the
    /// fuzzer are provably checking one definition.
    #[test]
    fn core_oracles_accept_the_catalogue() {
        use uprov_core::{check_nf_preserves_eval_in, AtomTable, NfMemo};

        fn drive<S: UpdateStructure>(s: &S, carrier: &[S::Value]) {
            let mut t = AtomTable::new();
            let mut ar = ExprArena::new();
            let atoms = [t.fresh_tuple(), t.fresh_tuple(), t.fresh_txn()];
            let [a, b, p] = atoms.map(|at| ar.atom(at));
            let ins = ar.plus_i(a, p);
            let e1 = ar.minus(ins, p);
            let dot = ar.dot_m(b, p);
            let md = ar.plus_m(a, dot);
            let e2 = ar.minus(md, p);
            let e3 = ar.plus_i(md, p);
            let roots = [e1, e2, e3];
            let mut vals = Vec::new();
            for (i, x) in carrier.iter().enumerate() {
                let y = &carrier[(i + 1) % carrier.len()];
                vals.push(
                    Valuation::constant(carrier[carrier.len() - 1 - i % carrier.len()].clone())
                        .with(atoms[0], x.clone())
                        .with(atoms[2], y.clone()),
                );
            }
            let (mut nf_memo, mut memo) = (NfMemo::new(), DenseMemo::new());
            let checked =
                check_nf_preserves_eval_in(&mut ar, &roots, s, &vals, &mut nf_memo, &mut memo)
                    .unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(checked, roots.len() * vals.len());
        }

        drive(&Bool, &[false, true]);
        drive(&Worlds, &[0, 1, 0b1010, u64::MAX]);
        drive(&Clearance, &[0, 1, 0b110, u16::MAX]);
        drive(&Trust, &[0, 1, 0b1011, u32::MAX]);
        let sets: Vec<BTreeSet<u32>> = [&[][..], &[1], &[1, 2, 3]]
            .iter()
            .map(|ids| ids.iter().copied().collect())
            .collect();
        drive(&Witnesses, &sets);
    }

    /// Why the catalogue excludes monus: the rewriter identifies
    /// `(a − b) +I b` with `a +I b` (axiom 10), and monus — which fails
    /// exactly that axiom — evaluates the two sides differently. Rewriting
    /// under a structure that fails `check_axioms` would silently change
    /// answers.
    #[test]
    fn monus_breaks_rewrite_invariance_where_the_checker_says_so() {
        use uprov_core::{try_equiv_in, AtomTable, NfMemo};
        let mut t = AtomTable::new();
        let mut ar = ExprArena::new();
        let a = t.fresh_tuple();
        let b = t.fresh_txn();
        let aa = ar.atom(a);
        let ba = ar.atom(b);
        let dela = ar.minus(aa, ba);
        let e1 = ar.plus_i(dela, ba); // (a − b) +I b
        let e2 = ar.plus_i(aa, ba); // a +I b
        assert_eq!(
            try_equiv_in(&mut ar, e1, e2, &mut NfMemo::new()),
            Some(true),
            "axiom 10 identifies the two"
        );
        let val: Valuation<u32> = Valuation::constant(0).with(a, 1).with(b, 2);
        let v1 = eval(&ar, e1, &CountingMonus, &val);
        let v2 = eval(&ar, e2, &CountingMonus, &val);
        assert_eq!((v1, v2), (2, 3), "monus tells the two sides apart");
    }

    #[test]
    fn bool_deletion_propagation_example() {
        use uprov_core::AtomTable;
        let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
        let x = t.fresh_tuple();
        let p = t.fresh_txn();
        // x ·M p: present iff the source tuple exists and the txn ran.
        let (xa, pa) = (ar.atom(x), ar.atom(p));
        let e = ar.dot_m(xa, pa);
        let all = Valuation::constant(true);
        assert!(eval(&ar, e, &Bool, &all));
        assert!(!eval(&ar, e, &Bool, &all.clone().with(x, false)));
        assert!(!eval(&ar, e, &Bool, &all.with(p, false)));
    }
}
