//! Executable form of the equivalence axioms (Figure 3) and zero axioms.
//!
//! The paper derives twelve equivalence axioms for `UP[X]` from the sound
//! and complete axiomatization of set-equivalence for hyperplane
//! transactions (Karabeg–Vianu). An [`UpdateStructure`] is a legitimate
//! provenance semantics only if its operations satisfy them; this module
//! turns each axiom into a checkable law so concrete structures can be
//! validated exhaustively over small carrier samples (and by `proptest`
//! elsewhere).
//!
//! Axioms with `Σ` quantify over finite sets of expressions; we instantiate
//! them with all sub-multisets (up to a small bound) of the provided sample
//! values, which is exactly how the paper's proofs use them (the sums range
//! over tuples updated into a single tuple).

use crate::structure::UpdateStructure;

/// One entry of the Figure 3 axiom table: number, mnemonic name, and the
/// schematic equation in the paper's notation.
///
/// This table is the single source of truth shared by the two executable
/// views of the axioms:
///
/// * the **checker** ([`check_axioms`]) instantiates each equation over
///   concrete carrier samples and reports failures by axiom number, and
/// * the **rewriter** ([`crate::rewrite`]) orients each equation into a
///   directed rule over the expression arena; every
///   [`RewriteRule`](crate::rewrite::RewriteRule) names the axioms it
///   implements by number into this table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiomInfo {
    /// Axiom number as in Figure 3 (1–12).
    pub number: u8,
    /// Short mnemonic, e.g. `mod-mod-commute`.
    pub name: &'static str,
    /// The schematic equation in paper notation.
    pub equation: &'static str,
}

/// The twelve equivalence axioms of Figure 3 (`FIGURE_3[i]` is axiom
/// `i + 1`). The zero axioms of Section 3.1 are not listed here: they are
/// part of the base structure and are applied at intern time by the
/// [`ExprArena`](crate::arena::ExprArena) smart constructors.
pub const FIGURE_3: [AxiomInfo; 12] = [
    AxiomInfo {
        number: 1,
        name: "mod-mod-commute",
        equation: "(a +M (b .M c)) +M (d .M c) = (a +M (d .M c)) +M (b .M c)",
    },
    AxiomInfo {
        number: 2,
        name: "delete-absorbs-mod",
        equation: "(a +M (b .M c)) - c = a - c",
    },
    AxiomInfo {
        number: 3,
        name: "mod-partition",
        equation: "(a +M ((Σ_{e∈I} e) .M d)) +M ((Σ_i b_i) .M d) \
                   = a +M ((Σ_i (b_i +M ((Σ_{e∈S_i} e) .M d))) .M d)  [I = ⊎_i S_i]",
    },
    AxiomInfo {
        number: 4,
        name: "delete-idempotent",
        equation: "(a - b) - b = a - b",
    },
    AxiomInfo {
        number: 5,
        name: "mod-of-deleted-vanishes",
        equation: "a +M ((Σ_i (b_i - c)) .M c) = a",
    },
    AxiomInfo {
        number: 6,
        name: "insert-mod-commute",
        equation: "(a +M (b .M c)) +I c = (a +I c) +M (b .M c)",
    },
    AxiomInfo {
        number: 7,
        name: "delete-absorbs-insert",
        equation: "(a +I b) - b = a - b",
    },
    AxiomInfo {
        number: 8,
        name: "mod-of-inserted",
        equation: "a +M ((b +I c) .M c) = (a +I c) +M (b .M c)",
    },
    AxiomInfo {
        number: 9,
        name: "insert-absorbs-mod",
        equation: "(a +M (b .M c)) +I c = a +I c",
    },
    AxiomInfo {
        number: 10,
        name: "insert-absorbs-delete",
        equation: "(a - b) +I b = a +I b",
    },
    AxiomInfo {
        number: 11,
        name: "mod-sum-split",
        equation: "a +M ((Σb + Σd) .M c) = (a +M (Σb .M c)) +M (Σd .M c)",
    },
    AxiomInfo {
        number: 12,
        name: "mod-after-delete-stable",
        equation: "(a - b) +M (c .M b) = (a - b) +M (((d - b) +M (c .M b)) .M b)",
    },
];

/// Looks up a Figure 3 axiom by its number (1–12); `None` for 0 (the zero
/// axioms, which live in the smart constructors) or out-of-range numbers.
pub fn axiom_info(number: u8) -> Option<&'static AxiomInfo> {
    match number {
        1..=12 => Some(&FIGURE_3[number as usize - 1]),
        _ => None,
    }
}

/// Identifier of one axiom instance, used in failure reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiomFailure {
    /// Axiom number as in Figure 3 (1–12), or 0 for a zero axiom.
    pub axiom: u8,
    /// Human-readable description of the violated instance.
    pub detail: String,
}

/// Result of checking a structure against the full axiom set.
#[derive(Debug, Default)]
pub struct AxiomReport {
    /// Every violated instance found.
    pub failures: Vec<AxiomFailure>,
    /// Number of instances checked.
    pub checked: usize,
}

impl AxiomReport {
    /// True if the structure satisfied every checked instance.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn fail<S: UpdateStructure>(
    report: &mut AxiomReport,
    axiom: u8,
    lhs: &S::Value,
    rhs: &S::Value,
    binding: String,
) {
    let label = axiom_info(axiom).map_or("zero-axiom", |i| i.name);
    report.failures.push(AxiomFailure {
        axiom,
        detail: format!("{label}: {binding}: lhs={lhs:?} rhs={rhs:?}"),
    });
}

macro_rules! law {
    ($report:expr, $axiom:expr, $lhs:expr, $rhs:expr, $binding:expr) => {{
        $report.checked += 1;
        let (l, r) = ($lhs, $rhs);
        if l != r {
            fail::<S>($report, $axiom, &l, &r, $binding);
        }
    }};
}

/// Checks the zero axioms of Section 3.1 over the sample values.
pub fn check_zero_axioms<S: UpdateStructure>(s: &S, samples: &[S::Value]) -> AxiomReport {
    let mut report = AxiomReport::default();
    let zero = s.zero();
    for a in samples {
        // 0 op a = 0 for op ∈ {−M, −D}
        law!(
            &mut report,
            0,
            s.minus(&zero, a),
            zero.clone(),
            format!("0 - {a:?}")
        );
        // 0 op a = a for op ∈ {+M, +I}
        law!(
            &mut report,
            0,
            s.plus_m(&zero, a),
            a.clone(),
            format!("0 +M {a:?}")
        );
        law!(
            &mut report,
            0,
            s.plus_i(&zero, a),
            a.clone(),
            format!("0 +I {a:?}")
        );
        // a op 0 = a for op ∈ {+I, +M, −}
        law!(
            &mut report,
            0,
            s.plus_i(a, &zero),
            a.clone(),
            format!("{a:?} +I 0")
        );
        law!(
            &mut report,
            0,
            s.plus_m(a, &zero),
            a.clone(),
            format!("{a:?} +M 0")
        );
        law!(
            &mut report,
            0,
            s.minus(a, &zero),
            a.clone(),
            format!("{a:?} - 0")
        );
        // a ·M 0 = 0 ·M a = 0
        law!(
            &mut report,
            0,
            s.dot_m(a, &zero),
            zero.clone(),
            format!("{a:?} .M 0")
        );
        law!(
            &mut report,
            0,
            s.dot_m(&zero, a),
            zero.clone(),
            format!("0 .M {a:?}")
        );
    }
    report
}

/// Checks all twelve equivalence axioms of Figure 3 over every combination
/// of the sample values (quaternary axioms take all 4-tuples; the
/// set-quantified axioms 3, 5 and 11 are instantiated with sub-slices of the
/// samples of length ≤ 2 per summand group, and axiom 3 over all binary
/// partitions of a set of ≤ 3 elements).
///
/// ```
/// use uprov_core::check_axioms;
/// use uprov_structures::{Bool, CountingMonus};
///
/// // The Boolean structure satisfies every axiom over its full carrier…
/// assert!(check_axioms(&Bool, &[false, true]).is_ok());
///
/// // …while counting-with-monus is rejected, via axiom 10 among others:
/// // (1 ∸ 2) + 2 = 2 but 1 + 2 = 3.
/// let rejected = check_axioms(&CountingMonus, &[0, 1, 2]);
/// assert!(rejected.failures.iter().any(|f| f.axiom == 10));
/// ```
pub fn check_axioms<S: UpdateStructure>(s: &S, samples: &[S::Value]) -> AxiomReport {
    let mut report = check_zero_axioms(s, samples);
    let n = samples.len();

    // Ternary axioms.
    for a in samples {
        for b in samples {
            for c in samples {
                // Axiom 2: (a +M (b ·M c)) − c = a − c
                law!(
                    &mut report,
                    2,
                    s.minus(&s.plus_m(a, &s.dot_m(b, c)), c),
                    s.minus(a, c),
                    format!("a={a:?} b={b:?} c={c:?}")
                );
                // Axiom 6: (a +M (b·M c)) +I c = (a +I c) +M (b ·M c)
                law!(
                    &mut report,
                    6,
                    s.plus_i(&s.plus_m(a, &s.dot_m(b, c)), c),
                    s.plus_m(&s.plus_i(a, c), &s.dot_m(b, c)),
                    format!("a={a:?} b={b:?} c={c:?}")
                );
                // Axiom 8: a +M ((b +I c) ·M c) = (a +I c) +M (b ·M c)
                law!(
                    &mut report,
                    8,
                    s.plus_m(a, &s.dot_m(&s.plus_i(b, c), c)),
                    s.plus_m(&s.plus_i(a, c), &s.dot_m(b, c)),
                    format!("a={a:?} b={b:?} c={c:?}")
                );
                // Axiom 9: (a +M (b ·M c)) +I c = a +I c
                law!(
                    &mut report,
                    9,
                    s.plus_i(&s.plus_m(a, &s.dot_m(b, c)), c),
                    s.plus_i(a, c),
                    format!("a={a:?} b={b:?} c={c:?}")
                );
            }
        }
        for b in samples {
            // Axiom 4: (a − b) − b = a − b
            law!(
                &mut report,
                4,
                s.minus(&s.minus(a, b), b),
                s.minus(a, b),
                format!("a={a:?} b={b:?}")
            );
            // Axiom 7: (a +I b) − b = a − b
            law!(
                &mut report,
                7,
                s.minus(&s.plus_i(a, b), b),
                s.minus(a, b),
                format!("a={a:?} b={b:?}")
            );
            // Axiom 10: (a − b) +I b = a +I b
            law!(
                &mut report,
                10,
                s.plus_i(&s.minus(a, b), b),
                s.plus_i(a, b),
                format!("a={a:?} b={b:?}")
            );
        }
    }

    // Quaternary axioms 1 and 12.
    for a in samples {
        for b in samples {
            for c in samples {
                for d in samples {
                    // Axiom 1: (a +M (b·M c)) +M (d·M c) = (a +M (d·M c)) +M (b·M c)
                    law!(
                        &mut report,
                        1,
                        s.plus_m(&s.plus_m(a, &s.dot_m(b, c)), &s.dot_m(d, c)),
                        s.plus_m(&s.plus_m(a, &s.dot_m(d, c)), &s.dot_m(b, c)),
                        format!("a={a:?} b={b:?} c={c:?} d={d:?}")
                    );
                    // Axiom 12:
                    // (a − b) +M (c ·M b)
                    //   = (a − b) +M (((d − b) +M (c ·M b)) ·M b)
                    law!(
                        &mut report,
                        12,
                        s.plus_m(&s.minus(a, b), &s.dot_m(c, b)),
                        s.plus_m(
                            &s.minus(a, b),
                            &s.dot_m(&s.plus_m(&s.minus(d, b), &s.dot_m(c, b)), b)
                        ),
                        format!("a={a:?} b={b:?} c={c:?} d={d:?}")
                    );
                }
            }
        }
    }

    // Axiom 5: a +M ((Σ_i (b_i − c)) ·M c) = a, for multisets b of size 1..=2.
    for a in samples {
        for c in samples {
            for i in 0..n {
                let b1 = s.minus(&samples[i], c);
                law!(
                    &mut report,
                    5,
                    s.plus_m(a, &s.dot_m(&b1, c)),
                    a.clone(),
                    format!("a={a:?} c={c:?} b=[{:?}]", samples[i])
                );
                for sample_j in samples {
                    let b2 = s.minus(sample_j, c);
                    let sigma = s.plus(&b1, &b2);
                    law!(
                        &mut report,
                        5,
                        s.plus_m(a, &s.dot_m(&sigma, c)),
                        a.clone(),
                        format!("a={a:?} c={c:?} b=[{:?},{:?}]", samples[i], sample_j)
                    );
                }
            }
        }
    }

    // Axiom 11: a +M ((Σ b_i + Σ d_j) ·M c)
    //             = (a +M ((Σ b_i) ·M c)) +M ((Σ d_j) ·M c)
    for a in samples {
        for c in samples {
            for b in samples {
                for d in samples {
                    law!(
                        &mut report,
                        11,
                        s.plus_m(a, &s.dot_m(&s.plus(b, d), c)),
                        s.plus_m(&s.plus_m(a, &s.dot_m(b, c)), &s.dot_m(d, c)),
                        format!("a={a:?} b={b:?} c={c:?} d={d:?}")
                    );
                }
            }
        }
    }

    // Axiom 3: with I a set of expressions and {S_1,…,S_n} a partition of I:
    //   (a +M ((Σ_{c∈I} c) ·M d)) +M ((Σ_i b_i) ·M d)
    //     = a +M ((Σ_i (b_i +M ((Σ_{c∈S_i} c) ·M d))) ·M d)
    // Instantiated with |I| ≤ 2 split into n ∈ {1, 2} blocks.
    for a in samples.iter().take(4) {
        for d in samples.iter().take(4) {
            for i0 in samples.iter().take(4) {
                for i1 in samples.iter().take(4) {
                    for b0 in samples.iter().take(4) {
                        // n = 1: single block {i0, i1}, single b0.
                        let sigma_i = s.plus(i0, i1);
                        let lhs = s.plus_m(&s.plus_m(a, &s.dot_m(&sigma_i, d)), &s.dot_m(b0, d));
                        let rhs = s.plus_m(a, &s.dot_m(&s.plus_m(b0, &s.dot_m(&sigma_i, d)), d));
                        law!(
                            &mut report,
                            3,
                            lhs,
                            rhs,
                            format!("n=1 a={a:?} d={d:?} I=[{i0:?},{i1:?}] b0={b0:?}")
                        );
                        for b1 in samples.iter().take(4) {
                            // n = 2: partition {i0} | {i1}, summands b0, b1.
                            let lhs = s.plus_m(
                                &s.plus_m(a, &s.dot_m(&sigma_i, d)),
                                &s.dot_m(&s.plus(b0, b1), d),
                            );
                            let t0 = s.plus_m(b0, &s.dot_m(i0, d));
                            let t1 = s.plus_m(b1, &s.dot_m(i1, d));
                            let rhs = s.plus_m(a, &s.dot_m(&s.plus(&t0, &t1), d));
                            law!(
                                &mut report,
                                3,
                                lhs,
                                rhs,
                                format!(
                                    "n=2 a={a:?} d={d:?} S1=[{i0:?}] S2=[{i1:?}] b=[{b0:?},{b1:?}]"
                                )
                            );
                        }
                    }
                }
            }
        }
    }

    report
}

// Tests for the checker live in the integration suite (`tests/eval.rs`) and
// in `uprov-structures`, which exercise it against every catalogue structure
// and the monus negative example. (A dev-dependency cycle only unifies crate
// instances for integration tests, not for unit tests compiled into the
// library itself, so concrete structures cannot be used here.)
