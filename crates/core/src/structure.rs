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
//! * [`eval_arena`] / [`eval_many`] — evaluation over the hash-consed
//!   [`ExprArena`]: **iterative** (explicit
//!   worklist, safe on chains of any depth) with a dense `Vec<Option<V>>`
//!   memo indexed by [`NodeId`]. [`eval_many`] additionally amortizes the
//!   evaluation schedule across many valuations.
//! * [`EvalBaseline`] — many roots evaluated once and kept, so each
//!   one-atom what-if re-evaluates only the atom's upward cone, stopping
//!   where values stop changing: the "abort each transaction in turn"
//!   workload of the paper's experiments (Section 6).
//!
//! A structure is only meaningful for this framework if it satisfies the
//! equivalence axioms of Figure 3 and the zero axioms; the executable
//! checker lives in [`crate::axioms`]. Concrete instances (Boolean deletion
//! propagation, the counting/monus negative example, …) live in the
//! `uprov-structures` crate.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

use crate::arena::{BinOp, DenseMemo, ExprArena, Node, NodeId};
use crate::atom::Atom;
use crate::fxhash::FxHashMap;

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

/// The one node evaluation every evaluator shares: the value of `node`
/// given its atoms' values (`atom`) and its children's (`child`).
#[inline]
fn eval_node<'v, S: UpdateStructure>(
    s: &S,
    node: Node<'_>,
    atom: impl FnOnce(Atom) -> S::Value,
    child: impl Fn(NodeId) -> &'v S::Value,
) -> S::Value
where
    S::Value: 'v,
{
    match node {
        Node::Zero => s.zero(),
        Node::Atom(a) => atom(a),
        Node::Bin(op, a, b) => s.apply_bin(op, child(a), child(b)),
        Node::Counted(op, h, es) => es.iter().fold(child(h).clone(), |acc, &(e, m)| {
            s.apply_bin_counted(op, &acc, child(e), m)
        }),
        Node::Sum(ts) => s.sum(ts.iter().map(|&t| child(t))),
    }
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
        let node = arena.node(id);
        // Defer: push the missing children and revisit.
        let pending = stack.len();
        node.for_each_child(|c| {
            if !memo.contains(c) {
                stack.push(c);
            }
        });
        if stack.len() > pending {
            continue;
        }
        let v = eval_node(
            s,
            node,
            |a| val.get(a).clone(),
            |c| memo.get(c).expect("children computed"),
        );
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
    for &id in order {
        let v = eval_node(
            s,
            arena.node(id),
            |a| val.get(a).clone(),
            |c| memo.get(c).expect("topological order"),
        );
        memo.set(id, v);
    }
    memo.get(root).cloned().expect("root computed")
}

/// Every node reachable from a set of roots evaluated once under one
/// valuation, kept so that "what if atom `a` were `v` instead?" costs only
/// the nodes above `a` whose value actually changes — the paper's "abort
/// each transaction in turn" (Section 6) answered from provenance without
/// re-evaluating the database per question.
///
/// [`new`](Self::new) is one pass over the union schedule
/// ([`ExprArena::topo_order_roots`]) that stores each node's value by its
/// position there. [`with_atom`](Self::with_atom) walks upward from the
/// atom through a parent table (built on its first call and shared by
/// every baseline over the same schedule, so one-shot evaluations never
/// pay for it), positions popping off a min-heap in topological order, and
/// stops climbing wherever a recomputed value equals the stored one.
/// [`revalue`](Self::revalue) evaluates the same schedule under another
/// structure or valuation without rebuilding it.
///
/// A baseline stays valid as long as its roots' nodes do: arenas are
/// append-only, so only a different set of roots invalidates it.
///
/// ```
/// use uprov_core::{AtomTable, EvalBaseline, ExprArena, Valuation};
/// use uprov_structures::Bool;
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let (x, p, q) = (t.fresh_tuple(), t.fresh_txn(), t.fresh_txn());
/// let (xa, pa, qa) = (ar.atom(x), ar.atom(p), ar.atom(q));
/// let y = ar.dot_m(xa, pa); // y: x rewritten by p
/// let z = ar.plus_i(xa, qa); // z: x, also inserted by q
///
/// let base = EvalBaseline::new(&ar, &[y, z], &Bool, &Valuation::constant(true));
/// assert_eq!(base.roots().collect::<Vec<_>>(), [&true, &true]);
/// // Abort p: only y changes; z stays alive through x.
/// assert_eq!(base.with_atom(&ar, &Bool, p, false), [(0, false)]);
/// // Abort q: x alone keeps z alive, so nothing changes.
/// assert!(base.with_atom(&ar, &Bool, q, false).is_empty());
/// ```
#[derive(Debug)]
pub struct EvalBaseline<V> {
    schedule: Arc<Schedule>,
    /// Node values by schedule position.
    values: Vec<V>,
}

/// The valuation-independent half of an [`EvalBaseline`], shared by every
/// baseline [`revalue`](EvalBaseline::revalue)d from it.
#[derive(Debug)]
struct Schedule {
    /// Reachable ids in ascending (hence topological) order; a node's
    /// position is its index here.
    order: Vec<NodeId>,
    /// `id.index()` → position, `u32::MAX` for ids not in `order`.
    position: Vec<u32>,
    /// Root index → position.
    roots: Vec<u32>,
    /// `(atom, position)` for every atom node of the schedule, by atom.
    atoms: Vec<(Atom, u32)>,
    /// Built by the first [`EvalBaseline::with_atom`].
    cone: OnceLock<ConeTable>,
}

/// What the upward walk needs beyond the schedule.
#[derive(Debug)]
struct ConeTable {
    /// Parents of position `p`: `parents[offsets[p]..offsets[p + 1]]`,
    /// ascending (compressed sparse rows).
    offsets: Vec<u32>,
    parents: Vec<u32>,
    /// `(position, root index)` sorted, for roots that share a node.
    roots_at: Vec<(u32, u32)>,
}

impl Schedule {
    fn new(arena: &ExprArena, roots: &[NodeId]) -> Schedule {
        let order = arena.topo_order_roots(roots);
        let len = roots.iter().map(|r| r.index() + 1).max().unwrap_or(0);
        let mut position = vec![u32::MAX; len];
        let mut atoms = Vec::new();
        for (p, &id) in order.iter().enumerate() {
            position[id.index()] = p as u32;
            if let Node::Atom(a) = arena.node(id) {
                atoms.push((a, p as u32));
            }
        }
        atoms.sort_unstable();
        Schedule {
            roots: roots.iter().map(|r| position[r.index()]).collect(),
            order,
            position,
            atoms,
            cone: OnceLock::new(),
        }
    }

    #[inline]
    fn pos(&self, id: NodeId) -> usize {
        self.position[id.index()] as usize
    }

    /// Every schedule node's value under `s` and `val`, by position.
    fn evaluate<S: UpdateStructure>(
        &self,
        arena: &ExprArena,
        s: &S,
        val: &Valuation<S::Value>,
    ) -> Vec<S::Value> {
        let mut values: Vec<S::Value> = Vec::with_capacity(self.order.len());
        for &id in &self.order {
            let v = eval_node(
                s,
                arena.node(id),
                |a| val.get(a).clone(),
                |c| &values[self.pos(c)],
            );
            values.push(v);
        }
        values
    }

    fn cone(&self, arena: &ExprArena) -> &ConeTable {
        self.cone.get_or_init(|| {
            let n = self.order.len();
            // Count each position's parents, turn the counts into range
            // ends, then fill every range back to front: walking parents
            // in descending order leaves each range ascending.
            let mut offsets = vec![0u32; n + 1];
            for &id in &self.order {
                arena.node(id).for_each_child(|c| offsets[self.pos(c)] += 1);
            }
            for p in 0..n {
                offsets[p + 1] += offsets[p];
            }
            let mut parents = vec![0u32; offsets[n] as usize];
            for (p, &id) in self.order.iter().enumerate().rev() {
                arena.node(id).for_each_child(|c| {
                    let q = self.pos(c);
                    offsets[q] -= 1;
                    parents[offsets[q] as usize] = p as u32;
                });
            }
            let mut roots_at: Vec<(u32, u32)> =
                self.roots.iter().zip(0..).map(|(&p, r)| (p, r)).collect();
            roots_at.sort_unstable();
            ConeTable {
                offsets,
                parents,
                roots_at,
            }
        })
    }

    fn heap_bytes(&self) -> usize {
        let cone = self.cone.get().map_or(0, |c| {
            (c.offsets.capacity() + c.parents.capacity()) * size_of::<u32>()
                + c.roots_at.capacity() * size_of::<(u32, u32)>()
        });
        self.order.capacity() * size_of::<NodeId>()
            + (self.position.capacity() + self.roots.capacity()) * size_of::<u32>()
            + self.atoms.capacity() * size_of::<(Atom, u32)>()
            + cone
    }
}

impl ConeTable {
    fn parents(&self, p: usize) -> &[u32] {
        &self.parents[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    fn roots_at(&self, p: u32) -> impl Iterator<Item = usize> + '_ {
        let from = self.roots_at.partition_point(|&(q, _)| q < p);
        self.roots_at[from..]
            .iter()
            .take_while(move |&&(q, _)| q == p)
            .map(|&(_, r)| r as usize)
    }
}

impl<V: Clone + PartialEq> EvalBaseline<V> {
    /// Evaluates every node reachable from `roots` under `s` and `val`.
    pub fn new<S: UpdateStructure<Value = V>>(
        arena: &ExprArena,
        roots: &[NodeId],
        s: &S,
        val: &Valuation<V>,
    ) -> Self {
        let schedule = Schedule::new(arena, roots);
        EvalBaseline {
            values: schedule.evaluate(arena, s, val),
            schedule: Arc::new(schedule),
        }
    }

    /// The same roots evaluated under another structure or valuation,
    /// sharing this baseline's schedule and parent table.
    pub fn revalue<S: UpdateStructure>(
        &self,
        arena: &ExprArena,
        s: &S,
        val: &Valuation<S::Value>,
    ) -> EvalBaseline<S::Value> {
        EvalBaseline {
            values: self.schedule.evaluate(arena, s, val),
            schedule: Arc::clone(&self.schedule),
        }
    }

    /// The roots' values, in the order [`new`](Self::new) was given them.
    pub fn roots(&self) -> impl ExactSizeIterator<Item = &V> + '_ {
        self.schedule
            .roots
            .iter()
            .map(|&p| &self.values[p as usize])
    }

    /// The roots whose value changes when `atom` takes `value` instead, as
    /// `(root index, new value)` in root order — re-evaluating only the
    /// part of the atom's upward cone whose values actually move. Empty if
    /// `atom` occurs under no root or nothing changes. `s` must be the
    /// structure the baseline was evaluated under.
    pub fn with_atom<S: UpdateStructure<Value = V>>(
        &self,
        arena: &ExprArena,
        s: &S,
        atom: Atom,
        value: V,
    ) -> Vec<(usize, V)> {
        let sched = &*self.schedule;
        let Ok(ix) = sched.atoms.binary_search_by_key(&atom, |&(a, _)| a) else {
            return Vec::new();
        };
        let cone = sched.cone(arena);
        let mut changed: FxHashMap<u32, V> = FxHashMap::default();
        let mut heap = BinaryHeap::from([Reverse(sched.atoms[ix].1)]);
        let mut last = None;
        while let Some(Reverse(p)) = heap.pop() {
            // Every push of `p` comes from a child popped before it, so
            // duplicates pop back to back.
            if last.replace(p) == Some(p) {
                continue;
            }
            // The only atom in the cone is `atom` itself: atoms have no
            // children, so none is ever pushed as a parent.
            let v = eval_node(
                s,
                arena.node(sched.order[p as usize]),
                |_| value.clone(),
                |c| {
                    let q = sched.pos(c);
                    changed.get(&(q as u32)).unwrap_or(&self.values[q])
                },
            );
            if v != self.values[p as usize] {
                changed.insert(p, v);
                heap.extend(cone.parents(p as usize).iter().map(|&q| Reverse(q)));
            }
        }
        let mut out: Vec<(usize, V)> = changed
            .iter()
            .flat_map(|(&p, v)| cone.roots_at(p).map(move |r| (r, v.clone())))
            .collect();
        out.sort_unstable_by_key(|&(r, _)| r);
        out
    }

    /// Heap bytes held by capacity: the values plus the whole shared
    /// schedule — the parent table once [`with_atom`](Self::with_atom) has
    /// built it — but not heap owned by the values themselves (a
    /// `BTreeSet` carrier's nodes).
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * size_of::<V>() + self.schedule.heap_bytes()
    }
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
        let mut val = Valuation::constant(true).with(a, false);
        assert!(!val.get(a));
        assert!(val.get(b), "an untouched atom reads the default");
        val.set(b, false);
        assert!(!val.get(b));
        val.set(a, true);
        assert!(val.get(a), "a later set overrides an earlier with");
    }
}
