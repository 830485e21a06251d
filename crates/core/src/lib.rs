//! Core algebra for `UP[X]` update provenance (Bourhis, Deutch & Moskovitch,
//! SIGMOD 2020).
//!
//! Expressions live in one representation, the hash-consed
//! [`arena::ExprArena`]. Every node is interned into a contiguous,
//! topologically-ordered `Vec`, so structurally equal expressions always
//! receive the same [`arena::NodeId`], equality is O(1), sharing is maximal
//! by construction, and every pass (evaluation, size/depth analyses,
//! rewriting, printing with [`arena::ExprArena::display`]) is iterative over
//! dense vectors — no recursion, no pointer-keyed hash maps.
//!
//! Concrete semantics are given by [`structure::UpdateStructure`]s, checked
//! by the executable axiom checker ([`axioms`]); the catalogue of concrete
//! structures lives in the `uprov-structures` crate.
//!
//! The twelve equivalence axioms of Figure 3 exist in two executable forms
//! sharing one table ([`axioms::FIGURE_3`]): as checkable *laws* over a
//! concrete structure ([`axioms::check_axioms`]) and as *directed rewrite
//! rules* over the arena ([`rewrite`]). The saturating normalizer
//! [`nf::nf_roots_in`] drives the rules to a fixpoint (block-once over the
//! `+I`/`+M` spines, so long blocks normalize in O(block log block)), and
//! [`nf::try_equiv_in`] decides equivalence of provenance expressions /
//! transaction effects by comparing normal-form ids.
//!
//! Each operation has one public entry point. It takes a slice of roots
//! (one root where the operation is per-root by nature) and a memo the
//! caller owns, so many queries against one long-lived arena reuse one set
//! of allocations. The transaction-log replay engine built on these hooks
//! ([`arena::ExprArena::substitute_roots_in`], [`structure::eval_roots_in`],
//! [`nf::try_equiv_in`]) lives in the `uprov-engine` crate. See
//! `docs/PAPER_MAP.md` at the repository root for the full paper↔code
//! cross-reference.

#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod arena;
pub mod atom;
pub mod axioms;
pub mod fxhash;
pub mod nf;
pub mod oracle;
pub mod parallel;
pub mod pool;
pub mod rewrite;
pub mod structure;

pub use arena::{BinOp, DenseMemo, ExprArena, Node, NodeId, NodeList, NodeStats, NotCanonical};
pub use atom::{Atom, AtomKind, AtomTable};
pub use axioms::{
    axiom_info, check_axioms, check_zero_axioms, AxiomFailure, AxiomInfo, AxiomReport, FIGURE_3,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use nf::{
    nf_roots_in, nf_roots_incremental_in, try_equiv_in, NfCache, NfMemo, NfOutcome, MAX_ROUNDS,
};
pub use oracle::{check_nf_preserves_eval_in, check_parallel_matches_serial, OracleDivergence};
pub use parallel::{par_eval_many_in, par_eval_roots_in, MemoPool};
pub use pool::WorkerPool;
pub use rewrite::{reduce, rewrite_once, rules, RewriteRule};
pub use structure::{
    eval_many_in, eval_roots_in, map_valuation, EvalBaseline, StructureHomomorphism,
    UpdateStructure, Valuation,
};
