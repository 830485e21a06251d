//! The Figure 3 equivalence axioms as a **directed rewrite system** over the
//! hash-consed [`ExprArena`].
//!
//! [`crate::axioms`] turns each axiom into a checkable *law* over a concrete
//! [`UpdateStructure`](crate::structure::UpdateStructure); this module turns
//! the same table ([`FIGURE_3`](crate::axioms::FIGURE_3)) into *syntactic*
//! rules on expressions, the
//! prerequisite for deciding equivalence of transactions (the paper inherits
//! soundness and completeness of the axiomatization from Karabeg–Vianu's
//! axiomatization of hyperplane transactions). Each [`RewriteRule`] is a
//! `NodeId → NodeId` transformation that re-interns through the smart
//! constructors, so maximal sharing is preserved and structurally converging
//! rewrites land on the same id. The saturating normalizer driving these
//! rules to a fixpoint is [`crate::nf::nf_roots_in`]; equivalence is then id
//! equality of normal forms ([`crate::nf::try_equiv_in`]).
//!
//! # Orientation of the twelve axioms
//!
//! Every axiom is oriented left→right **toward the structurally smaller or
//! more canonical side**, so rewriting terminates. Maximal `+I` and `+M`
//! blocks are kept in *counted form* ([`Node::Counted`]: one node holding
//! the head plus a sorted multiset of `(increment, multiplicity)` entries),
//! which makes commutativity/associativity of increments canonical rather
//! than a search problem and keeps block size O(distinct increments)
//! rather than O(applications). In the table below, "block" means the
//! maximal run of one operator (binary spine links and counted nodes
//! alike), and all rules act modulo that AC reading (see *AC extension*
//! below).
//!
//! | Axiom | Equation (paper notation) | Directed rule |
//! |---|---|---|
//! | 1 | `(a +M (b·Mc)) +M (d·Mc) = (a +M (d·Mc)) +M (b·Mc)` | [`AC_PLUS_M`]: sort the `+M` block (axiom 1 licenses same-`c` swaps; arbitrary swaps are the AC extension) |
//! | 2 | `(a +M (b·Mc)) − c = a − c` | [`MINUS_ABSORBS_MOD`]: under `− c`, drop every `+M` increment `(_ ·M c)` |
//! | 3 | partition axiom (see [`FIGURE_3`](crate::axioms::FIGURE_3)) | [`MOD_UNNEST`]: hoist — `a +M ((x +M (y·Mc)) ·M c) → (a +M (y·Mc)) +M (x·Mc)` (the `n = 1` instance; general partitions follow with axiom 11 and AC) |
//! | 4 | `(a − b) − b = a − b` | [`MINUS_IDEMPOTENT`]: collapse the repeated deletion |
//! | 5 | `a +M ((Σᵢ (bᵢ − c)) ·M c) = a` | [`MOD_OF_DELETED`]: drop increments `((x − c) ·M c)` (the `Σ` case first splits via axiom 11) |
//! | 6 | `(a +M (b·Mc)) +I c = (a +I c) +M (b·Mc)` | subsumed: both sides reduce to `a +I c` (left by axiom 9, right by [`MOD_AFTER_INSERT`]) |
//! | 7 | `(a +I b) − b = a − b` | [`MINUS_ABSORBS_INSERT`]: under `− b`, remove `b` from the `+I` block |
//! | 8 | `a +M ((b +I c) ·M c) = (a +I c) +M (b·Mc)` | [`MOD_OF_INSERTED`]: combined with axioms 6+9 the right side is `a +I c`, so the whole increment collapses to an insertion |
//! | 9 | `(a +M (b·Mc)) +I c = a +I c` | [`INSERT_ABSORBS_MOD`]: under a `+I` block inserting `c`, drop every head `+M` increment `(_ ·M c)` |
//! | 10 | `(a − b) +I b = a +I b` | [`INSERT_ABSORBS_DELETE`]: under a `+I` block inserting `b`, strip a head `− b` |
//! | 11 | `a +M ((Σb + Σd) ·M c) = (a +M (Σb·Mc)) +M (Σd·Mc)` | [`MOD_SPLIT_SUM`]: distribute `·M c` over `Σ`, one `+M` increment per summand |
//! | 12 | `(a − b) +M (c·Mb) = (a − b) +M (((d − b) +M (c·Mb)) ·M b)` | subsumed: the right side reduces to the left via [`MOD_UNNEST`] (axiom 3) then [`MOD_OF_DELETED`] (axiom 5) |
//!
//! Two consequences of the axioms do the heavy lifting and get rules of
//! their own:
//!
//! * **Insert absorption** ([`MOD_AFTER_INSERT`], from axioms 6 + 9):
//!   `(a +I c) +M (b ·M c) = a +I c` — a modification keyed on a query whose
//!   tuple was (re-)inserted contributes nothing new.
//! * **`Σ` is a set** ([`AC_SUM`], Section 3.1): `Σ` ranges over the *set*
//!   of tuples updated into one tuple, so its term order is canonicalized by
//!   sorting (kept as a multiset: no idempotence axiom is assumed).
//!
//! # AC extension
//!
//! Figure 3 itself only licenses commuting `+M` increments that share a
//! query annotation (axiom 1). The normal form here is slightly coarser: it
//! treats every maximal `+I` / `+M` block as a *sorted multiset* of
//! increments, i.e. it decides the theory "Figure 3 + AC of the `+I`/`+M`
//! spines + `Σ`-as-set". Every Update-Structure in the catalogue interprets
//! `+I`, `+M` and `+` commutatively and associatively, so the extension is
//! sound for evaluation (`eval(e) == eval(nf(e))` is property-tested against
//! every catalogue structure), and it is exactly the multiset reading the
//! paper's proofs use for `Σ`-quantified axioms. The zero axioms of
//! Section 3.1 need no rules at all: the smart constructors apply them at
//! intern time, so `0` never appears as an operand.
//!
//! # Termination
//!
//! Every rule either strictly shrinks the expression ([`MINUS_IDEMPOTENT`],
//! [`MINUS_ABSORBS_INSERT`], [`MINUS_ABSORBS_MOD`], [`INSERT_ABSORBS_MOD`],
//! [`INSERT_ABSORBS_DELETE`], [`MOD_AFTER_INSERT`], [`MOD_OF_DELETED`],
//! [`MOD_OF_INSERTED`]), strictly reduces the nesting of `·M`-under-`+M`
//! structure ([`MOD_UNNEST`]) or the number of `Σ` nodes under `·M`
//! increments ([`MOD_SPLIT_SUM`]) without increasing the rest, or strictly
//! reduces the number of uncondensed spine links ([`AC_PLUS_I`],
//! [`AC_PLUS_M`]) or `Σ`-term inversions ([`AC_SUM`]) while leaving the
//! multiset of increments untouched — a lexicographic measure no rule
//! increases and each rule decreases.

use crate::arena::{is_same_op_block, BinOp, ExprArena, Node, NodeId};

/// One directed rewrite rule: a top-level pattern over an arena node,
/// returning the rewritten id when the pattern matches.
///
/// Rules only inspect and rebuild the *top* of the given node (its maximal
/// operator block); sub-expressions are assumed already reduced, which is
/// what the bottom-up normalizer guarantees. `apply` must re-intern through
/// the smart constructors so its result stays canonical with respect to the
/// zero axioms.
pub struct RewriteRule {
    /// Short rule name, e.g. `minus-absorbs-insert`.
    pub name: &'static str,
    /// The Figure 3 axioms this rule implements (numbers into
    /// [`crate::axioms::FIGURE_3`]); empty for the pure AC/ordering rules.
    pub axioms: &'static [u8],
    /// Attempts the rule at `id`; `None` if the pattern does not match.
    pub apply: fn(&mut ExprArena, NodeId) -> Option<NodeId>,
}

impl std::fmt::Debug for RewriteRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewriteRule")
            .field("name", &self.name)
            .field("axioms", &self.axioms)
            .finish()
    }
}

/// Axiom 4: `(a − b) − b → a − b`.
pub static MINUS_IDEMPOTENT: RewriteRule = RewriteRule {
    name: "minus-idempotent",
    axioms: &[4],
    apply: |arena, id| {
        let Node::Bin(BinOp::Minus, a, b) = arena.node(id) else {
            return None;
        };
        matches!(arena.node(a), Node::Bin(BinOp::Minus, _, b2) if b2 == b).then_some(a)
    },
};

/// Axiom 7 (+ AC): `(a +I b) − b → a − b`, applied across the whole `+I`
/// block — every copy of `b` among the insertion increments is removed.
pub static MINUS_ABSORBS_INSERT: RewriteRule = RewriteRule {
    name: "minus-absorbs-insert",
    axioms: &[7],
    apply: |arena, id| {
        let Node::Bin(BinOp::Minus, a, b) = arena.node(id) else {
            return None;
        };
        let (head, mut incs) = block(arena, BinOp::PlusI, a);
        let before = incs.len();
        incs.retain(|&(m, _)| m != b);
        (incs.len() < before).then(|| {
            let lhs = build_block(arena, BinOp::PlusI, head, incs);
            arena.minus(lhs, b)
        })
    },
};

/// Axiom 2 (+ axiom 1 / AC): `(a +M (x ·M c)) − c → a − c`, applied across
/// the whole `+M` block — every increment modifying by the deleted query `c`
/// is absorbed by the deletion.
pub static MINUS_ABSORBS_MOD: RewriteRule = RewriteRule {
    name: "minus-absorbs-mod",
    axioms: &[2, 1],
    apply: |arena, id| {
        let Node::Bin(BinOp::Minus, a, c) = arena.node(id) else {
            return None;
        };
        let (head, mut incs) = block(arena, BinOp::PlusM, a);
        let before = incs.len();
        incs.retain(|&(m, _)| dot_query(arena, m) != Some(c));
        (incs.len() < before).then(|| {
            let lhs = build_block(arena, BinOp::PlusM, head, incs);
            arena.minus(lhs, c)
        })
    },
};

/// Axiom 10 (+ AC): `(a − b) +I b → a +I b`, with the `− b` found at the
/// head of the `+I` block and the matching `b` **anywhere** among its
/// insertion increments (AC licenses floating it down to the head). Matching
/// the whole block lets the normalizer reduce each block once at its top
/// node instead of once per spine node.
pub static INSERT_ABSORBS_DELETE: RewriteRule = RewriteRule {
    name: "insert-absorbs-delete",
    axioms: &[10],
    apply: |arena, id| {
        if !is_same_op_block(arena.node(id), BinOp::PlusI) {
            return None;
        }
        let (head, incs) = block(arena, BinOp::PlusI, id);
        let Node::Bin(BinOp::Minus, x, c) = arena.node(head) else {
            return None;
        };
        incs.iter()
            .any(|&(m, _)| m == c)
            .then(|| build_block(arena, BinOp::PlusI, x, incs))
    },
};

/// Axiom 9 (+ AC): `(a +M (x ·M c)) +I c → a +I c`, with the `+M` block
/// found at the head of the `+I` block — every `+M` increment modifying by
/// **any** query the block (re-)inserts is absorbed by that insertion (AC
/// floats the matching `+I c` down to sit just above the `+M` block). Like
/// [`INSERT_ABSORBS_DELETE`], matching the whole block supports block-once
/// reduction at the top node.
pub static INSERT_ABSORBS_MOD: RewriteRule = RewriteRule {
    name: "insert-absorbs-mod",
    axioms: &[9],
    apply: |arena, id| {
        if !is_same_op_block(arena.node(id), BinOp::PlusI) {
            return None;
        }
        let (head, i_incs) = block(arena, BinOp::PlusI, id);
        let (base, mut m_incs) = block(arena, BinOp::PlusM, head);
        let before = m_incs.len();
        m_incs.retain(|&(m, _)| match dot_query(arena, m) {
            Some(c) => !i_incs.iter().any(|&(e, _)| e == c),
            None => true,
        });
        (m_incs.len() < before).then(|| {
            let new_head = build_block(arena, BinOp::PlusM, base, m_incs);
            build_block(arena, BinOp::PlusI, new_head, i_incs)
        })
    },
};

/// Axioms 6 + 9 (+ AC): `(a +I c) +M (x ·M c) → a +I c` — a modification
/// keyed on an already-inserted query is absorbed. (Axioms 6 and 9 share
/// their left side, so their right sides are equal; this is the resulting
/// equation oriented toward the smaller side.)
pub static MOD_AFTER_INSERT: RewriteRule = RewriteRule {
    name: "mod-after-insert",
    axioms: &[6, 9],
    apply: |arena, id| {
        if !is_same_op_block(arena.node(id), BinOp::PlusM) {
            return None;
        }
        let (head, mut incs) = block(arena, BinOp::PlusM, id);
        let (_, i_incs) = block(arena, BinOp::PlusI, head);
        if i_incs.is_empty() {
            return None;
        }
        let before = incs.len();
        incs.retain(|&(m, _)| match dot_query(arena, m) {
            Some(c) => !i_incs.iter().any(|&(e, _)| e == c),
            None => true,
        });
        (incs.len() < before).then(|| build_block(arena, BinOp::PlusM, head, incs))
    },
};

/// Axiom 8 (+ 6, 9, AC): `a +M ((x +I c) ·M c) → (a +I c)` — modifying by
/// a query whose own `+I` block already inserts `c` collapses the whole
/// increment to an insertion on the block *head* (axiom 8 rewrites it to
/// `(a +I c) +M (x ·M c)`, which [`MOD_AFTER_INSERT`] then absorbs).
/// Entries of the block other than the collapsing one stay **above** the
/// new insertion: no axiom commutes `+I c` past a `+M` increment with a
/// different query annotation, and keeping the `+M` block at the surface
/// is what lets a later `− c'` still absorb its entries.
pub static MOD_OF_INSERTED: RewriteRule = RewriteRule {
    name: "mod-of-inserted",
    axioms: &[8, 6, 9],
    apply: |arena, id| {
        if !is_same_op_block(arena.node(id), BinOp::PlusM) {
            return None;
        }
        let (head, mut incs) = block(arena, BinOp::PlusM, id);
        let pos = incs.iter().position(|&(m, _)| {
            dot_query(arena, m).is_some_and(|c| {
                let Node::Bin(BinOp::DotM, e, _) = arena.node(m) else {
                    unreachable!("dot_query matched");
                };
                let (_, e_incs) = block(arena, BinOp::PlusI, e);
                e_incs.iter().any(|&(ei, _)| ei == c)
            })
        })?;
        // The whole counted entry collapses, multiplicity and all: AC
        // floats one occurrence down to the head, axiom 8 turns it into
        // `(head +I c) +M (x ·M c)`, and MOD_AFTER_INSERT absorbs the
        // leftover along with the remaining occurrences — so batching them
        // away here matches the sequential derivation. The insertion lands
        // on the *head*, below the surviving `+M` entries: hoisting it
        // above them would commute `+I c` past increments with foreign
        // query annotations, which no axiom licenses — and would bury
        // those entries where the `− c'` absorption rules above the block
        // can no longer see them.
        let (m, _) = incs.remove(pos);
        let c = dot_query(arena, m).expect("position matched");
        let new_head = arena.plus_i(head, c);
        Some(build_block(arena, BinOp::PlusM, new_head, incs))
    },
};

/// Axiom 5 (+ AC): `a +M ((x − c) ·M c) → a` — modifications sourced only
/// from tuples the same query deleted contribute nothing. The `Σ`-quantified
/// form of axiom 5 reduces to this singleton case once [`MOD_SPLIT_SUM`]
/// has split the sum.
pub static MOD_OF_DELETED: RewriteRule = RewriteRule {
    name: "mod-of-deleted",
    axioms: &[5],
    apply: |arena, id| {
        if !is_same_op_block(arena.node(id), BinOp::PlusM) {
            return None;
        }
        let (head, mut incs) = block(arena, BinOp::PlusM, id);
        let before = incs.len();
        incs.retain(|&(m, _)| {
            let Node::Bin(BinOp::DotM, e, c) = arena.node(m) else {
                return true;
            };
            !matches!(arena.node(e), Node::Bin(BinOp::Minus, _, c2) if c2 == c)
        });
        (incs.len() < before).then(|| build_block(arena, BinOp::PlusM, head, incs))
    },
};

/// Axiom 3, `n = 1` instance (+ axiom 1 / AC):
/// `a +M ((x +M (y ·M c)) ·M c) → (a +M (y ·M c)) +M (x ·M c)` — a nested
/// same-query modification inside an increment is hoisted into the outer
/// `+M` block. Together with [`MOD_SPLIT_SUM`] and the AC ordering this
/// covers the general partition form of axiom 3, and composed with
/// [`MOD_OF_DELETED`] it subsumes axiom 12.
pub static MOD_UNNEST: RewriteRule = RewriteRule {
    name: "mod-unnest",
    axioms: &[3, 1],
    apply: |arena, id| {
        if !is_same_op_block(arena.node(id), BinOp::PlusM) {
            return None;
        }
        let (head, incs) = block(arena, BinOp::PlusM, id);
        // Hoist every same-query nested increment across every entry in one
        // application — per-hoist rebuilds would re-canonicalize the whole
        // block once per nested increment. An outer entry of multiplicity
        // `k` contributes its inner `(mₑ, j)` hoists `j·k` times: each of
        // the `k` outer occurrences unnests independently.
        let mut out: Vec<(NodeId, u32)> = Vec::with_capacity(incs.len());
        let mut hoisted_any = false;
        for &(m, k) in &incs {
            let Node::Bin(BinOp::DotM, e, c) = arena.node(m) else {
                out.push((m, k));
                continue;
            };
            let (e_head, e_incs) = block(arena, BinOp::PlusM, e);
            let (hoist, keep): (Entries, Entries) = e_incs
                .into_iter()
                .partition(|&(me, _)| dot_query(arena, me) == Some(c));
            if hoist.is_empty() {
                out.push((m, k));
                continue;
            }
            hoisted_any = true;
            for (me, j) in hoist {
                out.push((me, j.saturating_mul(k)));
            }
            let e_rest = build_block(arena, BinOp::PlusM, e_head, keep);
            let dot = arena.dot_m(e_rest, c);
            out.push((dot, k));
        }
        hoisted_any.then(|| build_block(arena, BinOp::PlusM, head, out))
    },
};

/// Axiom 11: `a +M ((Σᵢ bᵢ) ·M c) → a +M (b₁ ·M c) +M … +M (bₖ ·M c)` — a
/// `·M c` over a sum splits into one `+M` increment per summand, so every
/// increment has a `Σ`-free source.
pub static MOD_SPLIT_SUM: RewriteRule = RewriteRule {
    name: "mod-split-sum",
    axioms: &[11],
    apply: |arena, id| {
        if !is_same_op_block(arena.node(id), BinOp::PlusM) {
            return None;
        }
        let (head, incs) = block(arena, BinOp::PlusM, id);
        let is_sum_dot = |arena: &ExprArena, m: NodeId| {
            matches!(arena.node(m), Node::Bin(BinOp::DotM, e, _)
                if matches!(arena.node(e), Node::Sum(_)))
        };
        if !incs.iter().any(|&(m, _)| is_sum_dot(arena, m)) {
            return None;
        }
        // Split every Σ-sourced increment in one application. `reduce`
        // saturates the rule table at the block top, so splitting one Σ per
        // application would re-decompose and re-canonicalize the whole
        // block per Σ-increment — O(block²) time *and* interned garbage on
        // log-replay spines, where every multi-source `modify` contributes
        // one. Each summand inherits the outer multiplicity: all `k`
        // occurrences of `(Σᵢ bᵢ) ·M c` split identically.
        let mut split = Vec::with_capacity(incs.len());
        for (m, k) in incs {
            if !is_sum_dot(arena, m) {
                split.push((m, k));
                continue;
            }
            let Node::Bin(BinOp::DotM, e, c) = arena.node(m) else {
                unreachable!("is_sum_dot matched");
            };
            let Node::Sum(ts) = arena.node(e) else {
                unreachable!("is_sum_dot matched");
            };
            // Copied out: `dot_m` may append to the slab `ts` borrows.
            let ts = ts.to_vec();
            for t in ts {
                let dot = arena.dot_m(t, c);
                split.push((dot, k));
            }
        }
        Some(build_block(arena, BinOp::PlusM, head, split))
    },
};

/// AC canonicalization of `+I` blocks into counted form (the AC extension;
/// Figure 3 has no `+I` permutation axiom, but every catalogue structure
/// interprets `+I` commutatively — see the module docs).
pub static AC_PLUS_I: RewriteRule = RewriteRule {
    name: "ac-plus-i",
    axioms: &[],
    apply: |arena, id| condense_block(arena, BinOp::PlusI, id),
};

/// Axiom 1 (+ AC extension): canonical counted form of `+M` blocks.
/// Axiom 1 licenses swapping increments that share a query annotation; the
/// counted multiset (sorted by [`NodeId`], coalesced into multiplicities)
/// additionally commutes unrelated increments.
pub static AC_PLUS_M: RewriteRule = RewriteRule {
    name: "ac-plus-m",
    axioms: &[1],
    apply: |arena, id| condense_block(arena, BinOp::PlusM, id),
};

/// Canonical ordering of `Σ` terms: the paper's `Σ` ranges over a *set* of
/// tuples updated into one tuple (Section 3.1), so term order is
/// meaningless; terms are kept as a sorted multiset (no idempotence is
/// assumed).
pub static AC_SUM: RewriteRule = RewriteRule {
    name: "ac-sum",
    axioms: &[],
    apply: |arena, id| {
        let Node::Sum(ts) = arena.node(id) else {
            return None;
        };
        if ts.is_sorted() {
            return None;
        }
        let mut sorted: Vec<NodeId> = ts.to_vec();
        sorted.sort_unstable();
        Some(arena.sum(sorted))
    },
};

/// The active directed rules, in application order: structural collapses
/// first, then increment splits, then AC ordering. [`reduce`] saturates
/// this table at a node; [`crate::nf::nf_roots_in`] saturates it over a whole
/// DAG.
pub fn rules() -> &'static [&'static RewriteRule] {
    static RULES: [&RewriteRule; 13] = [
        &MINUS_IDEMPOTENT,
        &MINUS_ABSORBS_INSERT,
        &MINUS_ABSORBS_MOD,
        &INSERT_ABSORBS_DELETE,
        &INSERT_ABSORBS_MOD,
        &MOD_AFTER_INSERT,
        &MOD_OF_INSERTED,
        &MOD_OF_DELETED,
        &MOD_UNNEST,
        &MOD_SPLIT_SUM,
        &AC_PLUS_I,
        &AC_PLUS_M,
        &AC_SUM,
    ];
    &RULES
}

/// Applies the first matching rule at the top of `id`, returning the
/// rewritten id and the rule that fired.
pub fn rewrite_once(arena: &mut ExprArena, id: NodeId) -> Option<(NodeId, &'static RewriteRule)> {
    for rule in rules() {
        if let Some(next) = (rule.apply)(arena, id) {
            debug_assert_ne!(next, id, "rule {} fired without progress", rule.name);
            return Some((next, *rule));
        }
    }
    None
}

/// Saturates the rule table at the top of `id`: applies rules until none
/// matches. Sub-expressions are not visited — that is the normalizer's job
/// ([`crate::nf::nf_roots_in`] calls `reduce` at each node it visits,
/// children first, and chases every reduct through the same memo).
pub fn reduce(arena: &mut ExprArena, id: NodeId) -> NodeId {
    let mut cur = id;
    while let Some((next, _)) = rewrite_once(arena, cur) {
        cur = next;
    }
    cur
}

/// Counted `(increment, multiplicity)` entries of a `+I`/`+M` block.
type Entries = Vec<(NodeId, u32)>;

/// Decomposes the maximal `op` block at `id` into `(head, counted
/// increments)`. The walk descends through both binary spine links and
/// [`Node::Counted`] blocks of the same operator — an appended
/// `Bin(op, counted_block, m)` decomposes just like a plain spine. A node
/// that is neither is its own head with no increments. Increment order is
/// irrelevant to callers ([`build_block`] re-canonicalizes), but entries of
/// a single counted node keep their sorted order.
fn block(arena: &ExprArena, op: BinOp, id: NodeId) -> (NodeId, Vec<(NodeId, u32)>) {
    let mut incs: Vec<(NodeId, u32)> = Vec::new();
    let mut cur = id;
    loop {
        match arena.node(cur) {
            Node::Bin(o, a, b) if o == op => {
                incs.push((b, 1));
                cur = a;
            }
            Node::Counted(o, h, es) if o == op => {
                incs.extend_from_slice(es);
                cur = h;
            }
            _ => break,
        }
    }
    incs.reverse();
    (cur, incs)
}

/// Rebuilds a canonical counted `op` block over `head` — sorting,
/// coalescing, and threshold dispatch all live in
/// [`ExprArena::counted`]. Increments come from existing interned nodes,
/// so they are never `0`.
fn build_block(arena: &mut ExprArena, op: BinOp, head: NodeId, incs: Vec<(NodeId, u32)>) -> NodeId {
    arena.counted(op, head, incs)
}

/// If `id` is `x ·M c`, returns `c` (the query annotation keying the
/// modification).
fn dot_query(arena: &ExprArena, id: NodeId) -> Option<NodeId> {
    match arena.node(id) {
        Node::Bin(BinOp::DotM, _, c) => Some(c),
        _ => None,
    }
}

/// Condenses a multi-increment `op` spine into counted-block form.
/// [`Node::Counted`] nodes are canonical by construction, and a
/// `Bin(op, head, m)` whose head does not continue the block is already
/// the canonical single-increment form, so the rule fires exactly when the
/// left child is itself an `op` block (a spine link left behind by an
/// append or a rule rebuild).
fn condense_block(arena: &mut ExprArena, op: BinOp, id: NodeId) -> Option<NodeId> {
    let Node::Bin(o, a, _) = arena.node(id) else {
        return None;
    };
    if o != op || !is_same_op_block(arena.node(a), op) {
        return None;
    }
    let (head, incs) = block(arena, op, id);
    // Total multiplicity is ≥ 2 here, so the rebuild is a Counted node and
    // never re-interns the matched Bin — progress is guaranteed.
    Some(build_block(arena, op, head, incs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;
    use crate::axioms::axiom_info;

    fn setup() -> (AtomTable, ExprArena) {
        (AtomTable::new(), ExprArena::new())
    }

    #[test]
    fn every_figure_3_axiom_is_accounted_for() {
        // Axioms implemented by an active rule, plus the two documented
        // subsumptions (6 via MOD_AFTER_INSERT, 12 via MOD_UNNEST +
        // MOD_OF_DELETED) must cover 1..=12.
        let mut covered: Vec<u8> = rules()
            .iter()
            .flat_map(|r| r.axioms.iter().copied())
            .collect();
        covered.push(12); // subsumed; see module docs
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered, (1..=12).collect::<Vec<u8>>());
    }

    #[test]
    fn rule_axiom_infos_resolve() {
        for rule in rules() {
            assert!(rule.axioms.iter().all(|&n| axiom_info(n).is_some()));
        }
    }

    #[test]
    fn minus_idempotent_fires() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let b = ar.atom(t.fresh_txn());
        let once = ar.minus(a, b);
        let twice = ar.minus(once, b);
        let (next, rule) = rewrite_once(&mut ar, twice).expect("axiom 4 applies");
        assert_eq!(next, once);
        assert_eq!(rule.name, "minus-idempotent");
    }

    #[test]
    fn minus_absorbs_buried_insert_increment() {
        // ((x +I b) +I c) − b → (x +I c) − b even though b is not the top
        // increment (the AC reading).
        let (mut t, mut ar) = setup();
        let x = ar.atom(t.fresh_tuple());
        let b = ar.atom(t.fresh_txn());
        let c = ar.atom(t.fresh_txn());
        let spine = ar.plus_i(x, b);
        let spine = ar.plus_i(spine, c);
        let e = ar.minus(spine, b);
        let reduced = reduce(&mut ar, e);
        let want_lhs = ar.plus_i(x, c);
        let want = ar.minus(want_lhs, b);
        assert_eq!(reduced, want);
    }

    #[test]
    fn mod_after_insert_absorbs() {
        // (a +I c) +M (x ·M c) → a +I c (axioms 6 + 9).
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let x = ar.atom(t.fresh_tuple());
        let c = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(a, c);
        let dot = ar.dot_m(x, c);
        let e = ar.plus_m(ins, dot);
        assert_eq!(reduce(&mut ar, e), ins);
    }

    #[test]
    fn mod_of_inserted_keeps_foreign_increments_at_the_surface() {
        // a +M ((x +I c) ·M c) +M (z ·M c') must collapse the inserted-
        // source entry onto the *head* — (a +I c) +M (z ·M c') — not hoist
        // `+I c` above the foreign `c'` increment: `+I c` does not commute
        // past `·M c'` increments, and burying them under the insertion
        // hides them from a later `− c'` (axiom 2), splitting one
        // equivalence class across two "normal" forms. Found by the
        // variant-transitivity fuzzer: a dead `modify D <- D; delete D`
        // pair stopped cancelling whenever the same `+M` block also
        // carried an inserted-source increment from an earlier query.
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let x = ar.atom(t.fresh_tuple());
        let z = ar.atom(t.fresh_tuple());
        let c = ar.atom(t.fresh_txn());
        let c2 = ar.atom(t.fresh_txn());
        let ins_src = ar.plus_i(x, c);
        let dot_c = ar.dot_m(ins_src, c);
        let dot_c2 = ar.dot_m(z, c2);
        let spine = ar.plus_m(a, dot_c);
        let e = ar.plus_m(spine, dot_c2);
        let reduced = reduce(&mut ar, e);
        let want_head = ar.plus_i(a, c);
        let want = ar.plus_m(want_head, dot_c2);
        assert_eq!(reduced, want);
        // …and the later `− c'` can therefore still absorb the foreign
        // increment (the full critical pair, through `nf`).
        let del = ar.minus(e, c2);
        let want_del = ar.minus(want_head, c2);
        let out = crate::nf::nf_roots_in(&mut ar, &[del], &mut crate::nf::NfMemo::new());
        assert_eq!(out[0].id, want_del);
    }

    #[test]
    fn mod_split_sum_then_dead_mod_vanishes() {
        // a +M ((Σᵢ (bᵢ − c)) ·M c) → a: the Σ splits (axiom 11) and each
        // (bᵢ − c) ·M c increment dies (axiom 5).
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let b1 = ar.atom(t.fresh_tuple());
        let b2 = ar.atom(t.fresh_tuple());
        let c = ar.atom(t.fresh_txn());
        let d1 = ar.minus(b1, c);
        let d2 = ar.minus(b2, c);
        let sigma = ar.sum([d1, d2]);
        let dot = ar.dot_m(sigma, c);
        let e = ar.plus_m(a, dot);
        assert_eq!(reduce(&mut ar, e), a, "axiom 5 via 11");
    }

    #[test]
    fn axiom_12_right_side_reduces_to_left_side() {
        // (a − b) +M (((d − b) +M (c ·M b)) ·M b) → (a − b) +M (c ·M b).
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let b = ar.atom(t.fresh_txn());
        let c = ar.atom(t.fresh_tuple());
        let d = ar.atom(t.fresh_tuple());
        let a_min = ar.minus(a, b);
        let d_min = ar.minus(d, b);
        let c_dot = ar.dot_m(c, b);
        let inner = ar.plus_m(d_min, c_dot);
        let inner_dot = ar.dot_m(inner, b);
        let rhs = ar.plus_m(a_min, inner_dot);
        let lhs = ar.plus_m(a_min, c_dot);
        assert_eq!(reduce(&mut ar, rhs), reduce(&mut ar, lhs));
    }

    #[test]
    fn ac_sorting_is_canonical() {
        let (mut t, mut ar) = setup();
        let h = ar.atom(t.fresh_tuple());
        let m1 = ar.atom(t.fresh_tuple());
        let m2 = ar.atom(t.fresh_tuple());
        let e1 = ar.plus_m(h, m1);
        let e1 = ar.plus_m(e1, m2);
        let e2 = ar.plus_m(h, m2);
        let e2 = ar.plus_m(e2, m1);
        assert_ne!(e1, e2, "different build orders intern differently");
        assert_eq!(reduce(&mut ar, e1), reduce(&mut ar, e2));
    }
}
