//! Update-Structures: concrete semantics for the abstract `UP[X]` operators.
//!
//! Section 4 of the paper represents a concrete semantics as a tuple
//! `(K, +M, ·M, −, +I, +, 0)` called an *Update-Structure*. The
//! [`UpdateStructure`] trait captures exactly that signature; evaluating a
//! symbolic expression under a structure plus a valuation of its atoms is
//! the homomorphic "specialization" of Proposition 4.2.
//!
//! Two evaluators are provided:
//!
//! * [`eval`] — the legacy evaluator over the `Arc`-based
//!   [`Expr`]: recursive, memoized through a
//!   pointer-keyed `HashMap`. Kept as the compatibility baseline (it is the
//!   "before" side of the benchkit suite in `benches/provenance.rs`).
//! * [`eval_arena`] / [`eval_many`] — the hot path over the hash-consed
//!   [`ExprArena`]: **iterative** (explicit
//!   worklist, safe on chains of any depth) with a dense `Vec<Option<V>>`
//!   memo indexed by [`NodeId`]. [`eval_many`] additionally amortizes the
//!   evaluation schedule across many valuations — the "abort each
//!   transaction in turn" workload of the paper's experiments (Section 6).
//!
//! A structure is only meaningful for this framework if it satisfies the
//! equivalence axioms of Figure 3 and the zero axioms; the executable
//! checker lives in [`crate::axioms`]. Concrete instances (Boolean deletion
//! propagation, the counting/monus negative example, …) live in the
//! `uprov-structures` crate.

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;

use crate::arena::{BinOp, DenseMemo, ExprArena, Node, NodeId};
use crate::atom::Atom;
use crate::expr::{Expr, ExprRef};

/// A concrete Update-Structure `(K, +M, ·M, −, +I, +, 0)`.
///
/// Implementations should satisfy the axioms of Figure 3 together with the
/// zero axioms of Section 3.1 (checkable with
/// [`crate::axioms::check_axioms`]); under that condition, evaluation of
/// provenance is invariant under transaction rewriting (Propositions 3.5 and
/// 4.2).
///
/// The trait is `Sync` and its carrier `Send + Sync` so that sharing a
/// structure and a valuation across the pooled worker threads of
/// [`crate::parallel`](mod@crate::parallel) is compiler-checked rather than
/// per-call-site `unsafe`. Structures are plain operation tables (usually
/// zero-sized) and carriers are plain values, so the bounds cost nothing in
/// practice.
pub trait UpdateStructure: Sync {
    /// The carrier set `K`.
    type Value: Clone + PartialEq + Debug + Send + Sync;

    /// The distinguished `0 ∈ K` (absent tuple / update that did not occur).
    fn zero(&self) -> Self::Value;

    /// `a +I b` — insertion.
    fn plus_i(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// `a − b` — deletion (and modification pre-image).
    fn minus(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// `a +M b` — modification post-image accumulation.
    fn plus_m(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// `a ·M b` — source tuple `a` rewritten by query `b`.
    fn dot_m(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// `a + b` — the disjunction `Σ` over modification sources.
    fn plus(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Whether a value denotes an absent tuple. Defaults to equality
    /// with [`zero`](UpdateStructure::zero).
    fn is_absent(&self, v: &Self::Value) -> bool {
        *v == self.zero()
    }

    /// Folds `Σ` over an iterator of values (empty `Σ` is `0`).
    fn sum<'a, I>(&self, terms: I) -> Self::Value
    where
        Self::Value: 'a,
        I: IntoIterator<Item = &'a Self::Value>,
    {
        let mut it = terms.into_iter();
        match it.next() {
            None => self.zero(),
            Some(first) => it.fold(first.clone(), |acc, t| self.plus(&acc, t)),
        }
    }

    /// Applies one binary operator by tag; used by the arena evaluators.
    fn apply_bin(&self, op: BinOp, a: &Self::Value, b: &Self::Value) -> Self::Value {
        match op {
            BinOp::PlusI => self.plus_i(a, b),
            BinOp::Minus => self.minus(a, b),
            BinOp::PlusM => self.plus_m(a, b),
            BinOp::DotM => self.dot_m(a, b),
        }
    }

    /// Applies `op` with right operand `x` onto `acc`, `mult` times — the
    /// concrete semantics of one counted-block entry
    /// ([`crate::arena::Node::Counted`]). The default iterates: the axioms
    /// promise nothing about repeated application of one increment, so the
    /// only universally sound reading is the expanded one. Structures whose
    /// `+I`/`+M` are idempotent in the right operand (`(a ⊕ b) ⊕ b =
    /// a ⊕ b` — true of every Boolean-algebra carrier in the catalogue)
    /// should override with a single application, making counted-entry
    /// folding O(1) per *distinct* increment regardless of multiplicity.
    fn apply_bin_counted(
        &self,
        op: BinOp,
        acc: &Self::Value,
        x: &Self::Value,
        mult: u32,
    ) -> Self::Value {
        let mut v = acc.clone();
        for _ in 0..mult {
            v = self.apply_bin(op, &v, x);
        }
        v
    }
}

/// An assignment of concrete values to atoms, used to specialize symbolic
/// provenance (Section 4.1: deleting a tuple assigns `false` to its atom,
/// aborting a transaction assigns `false` to the transaction's atom, …).
#[derive(Debug, Clone)]
pub struct Valuation<V> {
    map: HashMap<Atom, V>,
    default: V,
}

impl<V: Clone> Valuation<V> {
    /// A valuation that maps every atom to `default`.
    pub fn constant(default: V) -> Self {
        Valuation {
            map: HashMap::new(),
            default,
        }
    }

    /// Overrides the value of one atom.
    pub fn set(&mut self, atom: Atom, value: V) -> &mut Self {
        self.map.insert(atom, value);
        self
    }

    /// Builder-style [`set`](Valuation::set).
    pub fn with(mut self, atom: Atom, value: V) -> Self {
        self.map.insert(atom, value);
        self
    }

    /// The value assigned to `atom`.
    pub fn get(&self, atom: Atom) -> &V {
        self.map.get(&atom).unwrap_or(&self.default)
    }

    /// Number of explicitly overridden atoms.
    pub fn overridden(&self) -> usize {
        self.map.len()
    }

    /// The default value (assigned to every non-overridden atom).
    pub fn default_value(&self) -> &V {
        &self.default
    }

    /// Iterates over the explicitly overridden atoms.
    pub fn overrides(&self) -> impl Iterator<Item = (Atom, &V)> {
        self.map.iter().map(|(a, v)| (*a, v))
    }
}

/// Evaluates a legacy `Arc` expression under an Update-Structure and a
/// valuation.
///
/// Shared sub-expressions are evaluated once (pointer-memoized), so even the
/// exponential-size naive provenance of Proposition 5.1 evaluates in time
/// linear in its DAG size. This is the compatibility baseline: it recurses
/// (deep unshared chains can overflow the stack) and memoizes through a
/// pointer-keyed `HashMap`. Prefer [`eval_arena`] on hot paths.
pub fn eval<S: UpdateStructure>(
    expr: &ExprRef,
    structure: &S,
    valuation: &Valuation<S::Value>,
) -> S::Value {
    let mut memo: HashMap<*const Expr, S::Value> = HashMap::new();
    eval_memo(expr, structure, valuation, &mut memo)
}

fn eval_memo<S: UpdateStructure>(
    expr: &ExprRef,
    s: &S,
    val: &Valuation<S::Value>,
    memo: &mut HashMap<*const Expr, S::Value>,
) -> S::Value {
    let key = Arc::as_ptr(expr);
    if let Some(v) = memo.get(&key) {
        return v.clone();
    }
    let v = match &**expr {
        Expr::Zero => s.zero(),
        Expr::Atom(a) => val.get(*a).clone(),
        Expr::PlusI(a, b) => {
            let (va, vb) = (eval_memo(a, s, val, memo), eval_memo(b, s, val, memo));
            s.plus_i(&va, &vb)
        }
        Expr::Minus(a, b) => {
            let (va, vb) = (eval_memo(a, s, val, memo), eval_memo(b, s, val, memo));
            s.minus(&va, &vb)
        }
        Expr::PlusM(a, b) => {
            let (va, vb) = (eval_memo(a, s, val, memo), eval_memo(b, s, val, memo));
            s.plus_m(&va, &vb)
        }
        Expr::DotM(a, b) => {
            let (va, vb) = (eval_memo(a, s, val, memo), eval_memo(b, s, val, memo));
            s.dot_m(&va, &vb)
        }
        Expr::Sum(ts) => {
            let vals: Vec<S::Value> = ts.iter().map(|t| eval_memo(t, s, val, memo)).collect();
            s.sum(vals.iter())
        }
    };
    memo.insert(key, v.clone());
    v
}

/// Evaluates an arena node under an Update-Structure and a valuation.
///
/// Iterative worklist evaluation: no recursion (a depth-100 000 chain is
/// fine), and the memo is a dense `Vec<Option<V>>` indexed by [`NodeId`]
/// rather than a pointer-keyed hash map — each shared node is computed
/// exactly once, and lookups are array indexing.
///
/// The memo is sized by `root`'s id, i.e. by the arena *prefix*, not the
/// query's DAG. That is the right trade when the arena holds (mostly) the
/// expression being evaluated, but evaluating many small roots against one
/// long-lived arena reallocates the buffer per call — pool it with
/// [`eval_arena_in`], or batch valuations with [`eval_many`].
///
/// ```
/// use uprov_core::{eval_arena, AtomTable, ExprArena, Valuation};
/// use uprov_structures::Bool;
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let p = t.fresh_txn();
/// let x = ar.atom(t.fresh_tuple());
/// let pa = ar.atom(p);
/// let e = ar.dot_m(x, pa); // x ·M p: x's image under transaction p
///
/// assert!(eval_arena(&ar, e, &Bool, &Valuation::constant(true)));
/// // Aborting the transaction (p := false) removes the tuple.
/// let aborted = Valuation::constant(true).with(p, false);
/// assert!(!eval_arena(&ar, e, &Bool, &aborted));
/// ```
pub fn eval_arena<S: UpdateStructure>(
    arena: &ExprArena,
    root: NodeId,
    s: &S,
    val: &Valuation<S::Value>,
) -> S::Value {
    // A fresh plain vector, not a DenseMemo: a single-use memo needs no
    // generation stamps, and the hot loops below monomorphize against the
    // stamp-free storage.
    let mut memo: Vec<Option<S::Value>> = vec![None; root.index() + 1];
    eval_arena_impl(arena, root, s, val, &mut memo)
}

/// [`eval_arena`] with a caller-provided [`DenseMemo`]: the generation-
/// stamped memo is reset in O(1) per call (no reallocation, no clearing),
/// so many small queries against one long-lived arena cost O(their own
/// DAG) rather than O(arena prefix) each — the ROADMAP engine-layer
/// pattern; [`eval_many_in`] and the [`crate::nf`](mod@crate::nf)
/// normalizer use the same pooling.
pub fn eval_arena_in<S: UpdateStructure>(
    arena: &ExprArena,
    root: NodeId,
    s: &S,
    val: &Valuation<S::Value>,
    memo: &mut DenseMemo<S::Value>,
) -> S::Value {
    memo.reset(root.index() + 1);
    eval_arena_impl(arena, root, s, val, memo)
}

/// Memo storage the arena evaluators are generic over: a plain
/// `Vec<Option<V>>` (single use, zero per-access bookkeeping) or the
/// pooled, generation-stamped [`DenseMemo`]. Callers prepare the storage
/// (sized/reset for `root`) before the shared worklist loop runs.
pub(crate) trait EvalMemo<T> {
    fn get(&self, id: NodeId) -> Option<&T>;
    fn contains(&self, id: NodeId) -> bool;
    fn set(&mut self, id: NodeId, value: T);
    fn take(&mut self, id: NodeId) -> Option<T>;
}

impl<T> EvalMemo<T> for Vec<Option<T>> {
    #[inline]
    fn get(&self, id: NodeId) -> Option<&T> {
        self[id.index()].as_ref()
    }
    #[inline]
    fn contains(&self, id: NodeId) -> bool {
        self[id.index()].is_some()
    }
    #[inline]
    fn set(&mut self, id: NodeId, value: T) {
        self[id.index()] = Some(value);
    }
    #[inline]
    fn take(&mut self, id: NodeId) -> Option<T> {
        self[id.index()].take()
    }
}

impl<T> EvalMemo<T> for DenseMemo<T> {
    #[inline]
    fn get(&self, id: NodeId) -> Option<&T> {
        DenseMemo::get(self, id)
    }
    #[inline]
    fn contains(&self, id: NodeId) -> bool {
        DenseMemo::contains(self, id)
    }
    #[inline]
    fn set(&mut self, id: NodeId, value: T) {
        DenseMemo::set(self, id, value)
    }
    #[inline]
    fn take(&mut self, id: NodeId) -> Option<T> {
        DenseMemo::take(self, id)
    }
}

fn eval_arena_impl<S: UpdateStructure, M: EvalMemo<S::Value>>(
    arena: &ExprArena,
    root: NodeId,
    s: &S,
    val: &Valuation<S::Value>,
    memo: &mut M,
) -> S::Value {
    eval_fill(arena, root, s, val, memo);
    memo.take(root).expect("root computed")
}

/// Ensures `memo` holds a value for `root` (and hence its whole sub-DAG):
/// the shared iterative worklist loop behind [`eval_arena`],
/// [`eval_arena_in`], [`eval_roots_in`] and the root-sharded workers of
/// [`crate::parallel::par_eval_roots_in`].
pub(crate) fn eval_fill<S: UpdateStructure, M: EvalMemo<S::Value>>(
    arena: &ExprArena,
    root: NodeId,
    s: &S,
    val: &Valuation<S::Value>,
    memo: &mut M,
) {
    let mut stack: Vec<NodeId> = vec![root];
    while let Some(&id) = stack.last() {
        if memo.contains(id) {
            stack.pop();
            continue;
        }
        let v = match arena.node(id) {
            Node::Zero => s.zero(),
            Node::Atom(a) => val.get(a).clone(),
            Node::Bin(op, a, b) => {
                match (memo.get(a), memo.get(b)) {
                    (Some(va), Some(vb)) => s.apply_bin(op, va, vb),
                    (va, _) => {
                        // Defer: push the missing children and revisit.
                        if va.is_none() {
                            stack.push(a);
                        }
                        if !memo.contains(b) {
                            stack.push(b);
                        }
                        continue;
                    }
                }
            }
            Node::Counted(op, h, es) => {
                let mut pushed = false;
                if !memo.contains(h) {
                    stack.push(h);
                    pushed = true;
                }
                for &(e, _) in es.iter() {
                    if !memo.contains(e) {
                        stack.push(e);
                        pushed = true;
                    }
                }
                if pushed {
                    continue;
                }
                let mut acc = memo.get(h).expect("children computed").clone();
                for &(e, m) in es.iter() {
                    let ve = memo.get(e).expect("children computed");
                    acc = s.apply_bin_counted(op, &acc, ve, m);
                }
                acc
            }
            Node::Sum(ts) => {
                let mut pushed = false;
                for t in ts.iter() {
                    if !memo.contains(*t) {
                        stack.push(*t);
                        pushed = true;
                    }
                }
                if pushed {
                    continue;
                }
                s.sum(ts.iter().map(|t| memo.get(*t).expect("children computed")))
            }
        };
        memo.set(id, v);
        stack.pop();
    }
}

/// Evaluates **many roots** under one valuation, sharing the memo across
/// them: sub-DAGs common to several roots are computed once, so evaluating
/// every tuple of a replayed transaction log costs O(union DAG), not
/// O(Σ per-root DAGs). The complement of [`eval_many`]/[`eval_many_in`]
/// (one root, many valuations); the engine layer's "what does the whole
/// database look like under this valuation?" query is exactly this shape.
///
/// Results are returned in `roots` order; repeated roots are cheap (memo
/// hits).
pub fn eval_roots_in<S: UpdateStructure>(
    arena: &ExprArena,
    roots: &[NodeId],
    s: &S,
    val: &Valuation<S::Value>,
    memo: &mut DenseMemo<S::Value>,
) -> Vec<S::Value> {
    let len = roots.iter().map(|r| r.index() + 1).max().unwrap_or(0);
    memo.reset(len);
    roots
        .iter()
        .map(|&root| {
            if !memo.contains(root) {
                eval_fill(arena, root, s, val, memo);
            }
            memo.get(root).cloned().expect("root computed")
        })
        .collect()
}

/// Evaluates one arena node under **many** valuations, amortizing the
/// evaluation schedule.
///
/// The reachable sub-DAG is topologically sorted once
/// ([`ExprArena::topo_order`]); each valuation then replays the same dense
/// bottom-up schedule, overwriting a single reusable memo. This is the
/// paper-experiment workload "abort each transaction in turn and re-evaluate"
/// (Section 6), where the per-valuation cost drops to one tight loop over
/// the reachable nodes with no traversal bookkeeping at all.
///
/// ```
/// use uprov_core::{eval_many, AtomTable, ExprArena, Valuation};
/// use uprov_structures::Bool;
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let x = ar.atom(t.fresh_tuple());
/// let p1 = t.fresh_txn();
/// let p2 = t.fresh_txn();
/// let a1 = ar.atom(p1);
/// let a2 = ar.atom(p2);
/// let d1 = ar.dot_m(x, a1);
/// let e = ar.plus_m(d1, a2); // (x ·M p1) +M p2
///
/// // Abort each transaction in turn.
/// let vals = [
///     Valuation::constant(true).with(p1, false),
///     Valuation::constant(true).with(p2, false),
/// ];
/// assert_eq!(eval_many(&ar, e, &Bool, &vals), vec![true, true]);
/// ```
pub fn eval_many<S: UpdateStructure>(
    arena: &ExprArena,
    root: NodeId,
    s: &S,
    valuations: &[Valuation<S::Value>],
) -> Vec<S::Value> {
    let mut memo: Vec<Option<S::Value>> = vec![None; root.index() + 1];
    eval_many_impl(arena, root, s, valuations, &mut memo)
}

/// [`eval_many`] with a caller-provided [`DenseMemo`], pooling the dense
/// buffer across batches as well as across the valuations within one batch.
pub fn eval_many_in<S: UpdateStructure>(
    arena: &ExprArena,
    root: NodeId,
    s: &S,
    valuations: &[Valuation<S::Value>],
    memo: &mut DenseMemo<S::Value>,
) -> Vec<S::Value> {
    memo.reset(root.index() + 1);
    eval_many_impl(arena, root, s, valuations, memo)
}

fn eval_many_impl<S: UpdateStructure, M: EvalMemo<S::Value>>(
    arena: &ExprArena,
    root: NodeId,
    s: &S,
    valuations: &[Valuation<S::Value>],
    memo: &mut M,
) -> Vec<S::Value> {
    let order = arena.topo_order(root);
    valuations
        .iter()
        .map(|val| eval_one_ordered(arena, &order, root, s, val, memo))
        .collect()
}

/// Replays the shared dense evaluation schedule for one valuation: the tight
/// per-valuation loop of [`eval_many`], factored out so the
/// valuation-sharded workers of [`crate::parallel::par_eval_many_in`] can
/// reuse one precomputed `order` across threads. Every node in `order` is
/// overwritten before it is read (children precede parents), so no reset is
/// needed between valuations.
pub(crate) fn eval_one_ordered<S: UpdateStructure, M: EvalMemo<S::Value>>(
    arena: &ExprArena,
    order: &[NodeId],
    root: NodeId,
    s: &S,
    val: &Valuation<S::Value>,
    memo: &mut M,
) -> S::Value {
    replay_schedule(arena, order, s, val, memo);
    memo.get(root).cloned().expect("root computed")
}

/// The schedule-replay loop shared by [`eval_one_ordered`] and the
/// multi-root batch evaluators: after the call, `memo` holds a value for
/// every node in `order` under `val`. Every node is overwritten before it
/// is read (children precede parents in a topological schedule), so no
/// reset is needed between valuations.
pub(crate) fn replay_schedule<S: UpdateStructure, M: EvalMemo<S::Value>>(
    arena: &ExprArena,
    order: &[NodeId],
    s: &S,
    val: &Valuation<S::Value>,
    memo: &mut M,
) {
    for &id in order {
        let v = match arena.node(id) {
            Node::Zero => s.zero(),
            Node::Atom(a) => val.get(a).clone(),
            Node::Bin(op, a, b) => {
                let (va, vb) = (
                    memo.get(a).expect("topological order"),
                    memo.get(b).expect("topological order"),
                );
                s.apply_bin(op, va, vb)
            }
            Node::Counted(op, h, es) => {
                let mut acc = memo.get(h).expect("topological order").clone();
                for &(e, m) in es.iter() {
                    let ve = memo.get(e).expect("topological order");
                    acc = s.apply_bin_counted(op, &acc, ve, m);
                }
                acc
            }
            Node::Sum(ts) => s.sum(ts.iter().map(|t| memo.get(*t).expect("topological order"))),
        };
        memo.set(id, v);
    }
}

/// Evaluates **many roots under many valuations** — the coalesced-batch
/// shape of the service layer, where a burst of abort queries against the
/// same database shares one evaluation schedule.
///
/// The union sub-DAG of all `roots` is topologically sorted **once**
/// ([`ExprArena::topo_order_roots`]); each valuation then replays that
/// shared schedule into the reusable memo and reads off every root. Output
/// is one row per valuation, in `valuations` order, each row in `roots`
/// order — bit-identical to calling [`eval_roots_in`] once per valuation,
/// at a fraction of the traversal bookkeeping.
pub fn eval_roots_many_in<S: UpdateStructure>(
    arena: &ExprArena,
    roots: &[NodeId],
    s: &S,
    valuations: &[Valuation<S::Value>],
    memo: &mut DenseMemo<S::Value>,
) -> Vec<Vec<S::Value>> {
    let order = arena.topo_order_roots(roots);
    let len = roots.iter().map(|r| r.index() + 1).max().unwrap_or(0);
    memo.reset(len);
    valuations
        .iter()
        .map(|val| {
            replay_schedule(arena, &order, s, val, memo);
            roots
                .iter()
                .map(|&r| memo.get(r).cloned().expect("root computed"))
                .collect()
        })
        .collect()
}

/// A homomorphism between two Update-Structures (Definition 4.1): a value
/// mapping commuting with all six operations.
///
/// [`map_valuation`] lifts a homomorphism over a valuation;
/// Proposition 4.2 (provenance propagation commutes with homomorphisms) is
/// exercised by the test-suite: evaluating under `S1` and then applying `h`
/// equals evaluating under `S2` after mapping the valuation.
pub trait StructureHomomorphism<S1: UpdateStructure, S2: UpdateStructure> {
    /// Applies the underlying value mapping `h : K1 → K2`.
    fn apply(&self, v: &S1::Value) -> S2::Value;
}

/// Maps every value of a valuation through a homomorphism.
pub fn map_valuation<S1, S2, H>(h: &H, val: &Valuation<S1::Value>) -> Valuation<S2::Value>
where
    S1: UpdateStructure,
    S2: UpdateStructure,
    H: StructureHomomorphism<S1, S2>,
{
    let mut out = Valuation::constant(h.apply(&val.default));
    for (atom, v) in &val.map {
        out.set(*atom, h.apply(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;

    // NOTE: tests that need a concrete Update-Structure live in the
    // integration suite (`tests/eval.rs`) and in `uprov-structures` — a
    // dev-dependency cycle only unifies crate instances for integration
    // tests, not for unit tests compiled into the library itself.

    #[test]
    fn valuation_default_and_override() {
        let mut t = AtomTable::new();
        let a = t.fresh_tuple();
        let b = t.fresh_tuple();
        let val = Valuation::constant(true).with(a, false);
        assert!(!val.get(a));
        assert!(val.get(b));
        assert_eq!(val.overridden(), 1);
        assert!(*val.default_value());
        assert_eq!(val.overrides().count(), 1);
    }
}
