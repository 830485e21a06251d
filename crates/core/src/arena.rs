//! Hash-consed expression arena: the maximally-shared DAG representation.
//!
//! The paper's central performance observation (Section 5, Proposition 5.1)
//! is that naive `UP[X]` provenance has *logical* size exponential in the
//! transaction length but stays tractable when materialized as a shared DAG.
//! This module guarantees **maximal** sharing by hash-consing: every node is
//! interned into a contiguous node vector keyed by a dense [`NodeId`], and an
//! intern table ensures structurally equal expressions always receive the
//! same id. It is the crate's only expression representation: construction,
//! analysis, rewriting, evaluation and printing ([`ExprArena::display`]) all
//! work on node ids.
//!
//! # Layout
//!
//! Each node is stored **once**, flat (see [`ExprArena`] for the fields):
//!
//! * a 16-byte `Copy` record per node — kind, operator and two or three
//!   `u32` words: the atom, the two operands, or an `(offset, len)` window
//!   into a slab;
//! * two shared append-only slabs holding the variable-arity parts: `Σ`
//!   terms and counted-block `(entry, multiplicity)` pairs;
//! * a cached 64-bit **structural hash** per node, computed once at intern
//!   time from the operator and the children's *cached hashes* (atoms from
//!   their index), so it does not depend on the order nodes were interned
//!   in ([`ExprArena::structural_hash`]);
//! * an open-addressing intern table of bare `u32` node ids (`0` marks an
//!   empty slot: node 0, the `0` constant, is never looked up), linear
//!   probing from the hash's top bits, load ≤ 3/4. Growing it re-places ids by their cached
//!   hashes: no node is ever hashed twice.
//!
//! [`ExprArena::node`] hands out a borrowed [`Node`] *view* by value; there
//! is no owned node type with boxed children.
//!
//! Consequences exploited throughout the crate:
//!
//! * structural equality is an integer comparison (`NodeId: Eq`),
//! * children are interned before parents, so the node vector is
//!   **topologically ordered** and every analysis is a single bottom-up
//!   sweep over a dense vector — no recursion, no pointer-keyed maps,
//! * evaluation memoizes into a [`DenseMemo`] indexed by `NodeId`
//!   (see [`crate::structure::eval_roots_in`] and
//!   [`crate::structure::eval_many_in`]).
//!
//! The zero axioms of Section 3.1 are applied at intern time by the smart
//! constructors ([`ExprArena::plus_i`], [`ExprArena::minus`], …), so `0`
//! never appears as an operand and `Σ` is always flat, zero-free and
//! non-trivial (length ≥ 2).

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::atom::{Atom, AtomTable};
use crate::fxhash::mix;

/// Dense handle of an interned node. Ids are assigned contiguously from 0;
/// [`ExprArena::ZERO`] is always id 0. Children always have smaller ids than
/// their parents (topological order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw arena index, for dense side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw arena index — the inverse of
    /// [`index`](NodeId::index), for deserializing snapshots and other
    /// dense side tables.
    ///
    /// Contract: `ix` must be the index of a live node in the arena the id
    /// will be used with (callers deserializing untrusted bytes must bounds
    /// check against [`ExprArena::len`] first); a dangling id panics on
    /// first dereference at best.
    ///
    /// # Panics
    ///
    /// Panics if `ix` does not fit in the dense `u32` id space.
    #[inline]
    pub fn from_index(ix: usize) -> NodeId {
        NodeId(u32::try_from(ix).expect("arena index fits NodeId's u32"))
    }
}

/// The four binary operators of the algebra (Section 3.1). `Σ` is n-ary and
/// carried by [`Node::Sum`]; `0` and atoms are leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `a +I b` — insertion.
    PlusI,
    /// `a − b` — deletion (also modification pre-image; `−D = −M`).
    Minus,
    /// `a +M b` — modification post-image accumulation.
    PlusM,
    /// `a ·M b` — tuple `a` updated by query `b`.
    DotM,
}

/// A borrowed **view** of an interned expression node, handed out by value
/// by [`ExprArena::node`]: leaves and binary nodes carry their payload,
/// `Σ` and counted blocks borrow their children from the arena's slabs.
/// Canonical by construction: no `Zero` operands, `Sum` is flat with ≥ 2
/// zero-free terms, and every `+I`/`+M` block with two or more increments
/// is a single [`Node::Counted`] node (see below) rather than a left-nested
/// spine of [`Node::Bin`]s.
///
/// Equality is structural (slices compare by content), which is exactly
/// the hash-consing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node<'a> {
    /// The distinguished `0`.
    Zero,
    /// A basic annotation from `X`.
    Atom(Atom),
    /// One of the four binary operations.
    Bin(BinOp, NodeId, NodeId),
    /// `Σ` over ≥ 2 terms.
    Sum(&'a [NodeId]),
    /// A **counted block**: `head ⊕ e₁ (×m₁) ⊕ e₂ (×m₂) ⊕ …` for
    /// `⊕ ∈ {+I, +M}` — the condensed form of a maximal increment spine,
    /// denoting the left-nested fold that applies each entry `eᵢ` as the
    /// right operand `mᵢ` times. One node per block makes NF size
    /// O(distinct increments) instead of O(applications), block merge a
    /// linear merge-join of entries, and equivalence still one id compare.
    ///
    /// Canonical invariants (enforced by [`ExprArena::counted`] and
    /// validated by [`ExprArena::from_canonical_nodes`]):
    ///
    /// * the operator is `+I` or `+M`,
    /// * the head is not `0` and not itself a same-operator node,
    /// * entries are non-empty, strictly ascending by [`NodeId`], zero-free,
    ///   with every multiplicity ≥ 1,
    /// * the total multiplicity is ≥ 2 — a single-application block stays a
    ///   plain [`Node::Bin`], so each block has exactly one representation.
    ///
    /// Entries are opaque increments: an entry may itself be a same-operator
    /// node (mirroring the spine form, where right-nested same-operator
    /// increments were never merged into the left spine).
    Counted(BinOp, NodeId, &'a [(NodeId, u32)]),
}

impl Node<'_> {
    /// Calls `f` on each child id in operand order (a repeated child once
    /// per occurrence).
    #[inline]
    pub(crate) fn for_each_child(self, mut f: impl FnMut(NodeId)) {
        match self {
            Node::Zero | Node::Atom(_) => {}
            Node::Bin(_, a, b) => {
                f(a);
                f(b);
            }
            Node::Sum(ts) => ts.iter().copied().for_each(f),
            Node::Counted(_, h, es) => {
                f(h);
                es.iter().for_each(|&(e, _)| f(e));
            }
        }
    }
}

/// True iff `node` is a `+I`/`+M` block carrying `op` — a spine [`Node::Bin`]
/// or a condensed [`Node::Counted`].
pub(crate) fn is_same_op_block(node: Node<'_>, op: BinOp) -> bool {
    matches!(node, Node::Bin(o, ..) | Node::Counted(o, ..) if o == op)
}

/// The stored form of a node: what [`Node`] is a view of. Variable-arity
/// children live in the [`NodeList`] slabs and are addressed by window.
#[derive(Debug, Clone, Copy)]
enum PackedNode {
    Zero,
    Atom(Atom),
    Bin(BinOp, NodeId, NodeId),
    /// `terms[off..off + len]`.
    Sum {
        off: u32,
        len: u32,
    },
    /// `entries[off..off + len]`.
    Counted {
        op: BinOp,
        head: NodeId,
        off: u32,
        len: u32,
    },
}

const _: () = assert!(std::mem::size_of::<PackedNode>() == 16);

/// A flat, append-only list of nodes addressed by index: the arena's node
/// storage without its intern table. Building one by [`push`](Self::push)
/// checks nothing — it is the input of
/// [`ExprArena::from_canonical_nodes`], which validates the whole list (a
/// snapshot decoder fills it straight from bytes, with no allocation per
/// node).
#[derive(Debug, Clone, Default)]
pub struct NodeList {
    nodes: Vec<PackedNode>,
    /// `Σ` terms of every sum, in node order.
    terms: Vec<NodeId>,
    /// `(entry, multiplicity)` pairs of every counted block, in node order.
    entries: Vec<(NodeId, u32)>,
}

impl NodeList {
    /// An empty list with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        NodeList {
            nodes: Vec::with_capacity(nodes),
            ..NodeList::default()
        }
    }

    /// Number of nodes pushed so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no node was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends `node` at index [`len`](Self::len), copying borrowed
    /// children into the slabs.
    ///
    /// # Panics
    ///
    /// Panics if a slab outgrows its `u32` offset space.
    pub fn push(&mut self, node: Node<'_>) {
        let window = |at: usize, len: usize| {
            let off = u32::try_from(at).expect("slab offset fits u32");
            (off, u32::try_from(len).expect("slab window fits u32"))
        };
        let packed = match node {
            Node::Zero => PackedNode::Zero,
            Node::Atom(a) => PackedNode::Atom(a),
            Node::Bin(op, a, b) => PackedNode::Bin(op, a, b),
            Node::Sum(ts) => {
                let (off, len) = window(self.terms.len(), ts.len());
                self.terms.extend_from_slice(ts);
                PackedNode::Sum { off, len }
            }
            Node::Counted(op, head, es) => {
                let (off, len) = window(self.entries.len(), es.len());
                self.entries.extend_from_slice(es);
                PackedNode::Counted { op, head, off, len }
            }
        };
        self.nodes.push(packed);
    }

    /// The view of node `ix`.
    #[inline]
    fn get(&self, ix: usize) -> Node<'_> {
        match self.nodes[ix] {
            PackedNode::Zero => Node::Zero,
            PackedNode::Atom(a) => Node::Atom(a),
            PackedNode::Bin(op, a, b) => Node::Bin(op, a, b),
            PackedNode::Sum { off, len } => {
                Node::Sum(&self.terms[off as usize..off as usize + len as usize])
            }
            PackedNode::Counted { op, head, off, len } => Node::Counted(
                op,
                head,
                &self.entries[off as usize..off as usize + len as usize],
            ),
        }
    }
}

impl<'a> FromIterator<Node<'a>> for NodeList {
    fn from_iter<I: IntoIterator<Item = Node<'a>>>(nodes: I) -> Self {
        let nodes = nodes.into_iter();
        let mut list = NodeList::with_capacity(nodes.size_hint().0);
        for node in nodes {
            list.push(node);
        }
        list
    }
}

/// A reusable dense side table indexed by [`NodeId`].
///
/// All hot passes over the arena (evaluation, normalization, substitution)
/// memoize into a dense table sized by the arena prefix they touch. *Many
/// small queries against one long-lived arena* would reallocate a fresh
/// table per call; the `*_in` entry points
/// ([`crate::structure::eval_roots_in`], [`crate::structure::eval_many_in`],
/// [`crate::nf::nf_roots_in`], [`ExprArena::substitute_roots_in`]) take the
/// caller's `DenseMemo` instead, which amortizes the allocation.
///
/// Slots are **generation-stamped**: [`DenseMemo::reset`] bumps a counter
/// instead of clearing, so (beyond one-time growth) reset is O(1) and a
/// pooled query touches only the slots its own DAG visits — evaluating a
/// small root late in a 200 000-node arena costs O(its DAG), not O(arena
/// prefix). Stale values from earlier generations linger in their slots
/// (invisible behind the stamp check) until overwritten; call
/// [`DenseMemo::new`] afresh if holding those values is a concern.
#[derive(Debug, Clone)]
pub struct DenseMemo<T> {
    slots: Vec<Option<T>>,
    stamps: Vec<u32>,
    generation: u32,
}

impl<T> Default for DenseMemo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DenseMemo<T> {
    /// An empty memo; capacity grows on first [`reset`](DenseMemo::reset).
    pub fn new() -> Self {
        DenseMemo {
            slots: Vec::new(),
            stamps: Vec::new(),
            generation: 0,
        }
    }

    /// Starts a fresh generation (logically clearing every slot) and
    /// ensures at least `len` slots exist. O(1) plus any growth; existing
    /// allocations are reused.
    pub fn reset(&mut self, len: usize) {
        if self.generation == u32::MAX {
            // Stamp wrap-around: hard-clear once every 2³² resets so an
            // ancient stamp can never alias the new generation.
            self.stamps.fill(0);
            self.slots.fill_with(|| None);
            self.generation = 0;
        }
        self.generation += 1;
        if len > self.slots.len() {
            self.slots.resize_with(len, || None);
            self.stamps.resize(len, 0);
        }
    }

    /// Number of currently addressable slots (high-water mark across
    /// resets).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the memo has no slots (before the first reset).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The memoized value for `id`, if computed this generation. Total:
    /// ids beyond the last [`reset`](DenseMemo::reset)'s length are simply
    /// not memoized.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&T> {
        if self.stamps.get(id.index()) == Some(&self.generation) {
            self.slots[id.index()].as_ref()
        } else {
            None
        }
    }

    /// True if `id` has a memoized value this generation. Total, like
    /// [`get`](DenseMemo::get).
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Memoizes `value` for `id`. An id beyond [`len`](DenseMemo::len) —
    /// a node interned after the last [`reset`](DenseMemo::reset) — grows
    /// the memo within the current generation (amortized; earlier slots
    /// keep their stamps and values).
    #[inline]
    pub fn set(&mut self, id: NodeId, value: T) {
        if id.index() >= self.slots.len() {
            self.slots.resize_with(id.index() + 1, || None);
            self.stamps.resize(id.index() + 1, 0);
        }
        self.slots[id.index()] = Some(value);
        self.stamps[id.index()] = self.generation;
    }
}

/// Size/depth statistics for one root, computed by [`ExprArena::analyze`] in
/// a single bottom-up pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStats {
    /// Tree size counting shared nodes with multiplicity (the paper's
    /// provenance-size metric, exponential for Prop 5.1 chains). Saturating.
    pub logical_size: u128,
    /// Number of distinct reachable nodes.
    pub dag_size: usize,
    /// DAG depth; a leaf has depth 1.
    pub depth: usize,
}

/// A hash-consing arena for `UP[X]` expressions.
///
/// Every node is interned: structurally equal expressions always receive
/// the same [`NodeId`], and the zero axioms of Section 3.1 are applied at
/// intern time by the smart constructors, so `0` never appears as an
/// operand.
///
/// ```
/// use uprov_core::{AtomTable, ExprArena};
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let a = ar.atom(t.fresh_tuple());
/// let p = ar.atom(t.fresh_txn());
///
/// // Interning: same structure ⇒ same id, equality is O(1).
/// let e1 = ar.plus_i(a, p);
/// let e2 = ar.plus_i(a, p);
/// assert_eq!(e1, e2);
/// assert_eq!(ar.len(), 4); // 0, a, p, a +I p — nothing duplicated
///
/// // Zero axioms fire at intern time: no new node is created.
/// let z = ExprArena::ZERO;
/// assert_eq!(ar.plus_i(a, z), a);
/// assert_eq!(ar.dot_m(a, z), z);
/// assert_eq!(ar.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ExprArena {
    list: NodeList,
    /// `hashes[i]` is node `i`'s structural hash (see [`Self::hash_of`]).
    hashes: Vec<u64>,
    /// The intern table: a power-of-two number of slots, each [`EMPTY`] or
    /// the raw id of a node, found by linear probing from [`home`] of the
    /// node's cached hash. At most 3/4 of the slots are taken.
    table: Vec<u32>,
}

/// An unoccupied intern-table slot. Id 0 is the `0` constant, which is
/// interned at construction and never looked up, so it needs no slot.
const EMPTY: u32 = 0;

/// Slots of a fresh arena's intern table.
const MIN_SLOTS: usize = 8;

/// The smallest power-of-two slot count that keeps `nodes` nodes at load
/// ≤ 3/4.
fn slots_for(nodes: usize) -> usize {
    (nodes + nodes / 3 + 1).next_power_of_two().max(MIN_SLOTS)
}

/// Where `hash`'s probe chain starts in a table of `slots` slots (a power
/// of two ≥ 2): its top bits — the well-mixed end of a multiplicative hash.
#[inline]
fn home(hash: u64, slots: usize) -> usize {
    (hash >> (64 - slots.trailing_zeros())) as usize
}

/// Puts `raw` into the first empty slot of `hash`'s probe chain. The caller
/// guarantees an empty slot exists and that no equal node is resident.
fn place(table: &mut [u32], hash: u64, raw: u32) {
    let mask = table.len() - 1;
    let mut slot = home(hash, table.len());
    while table[slot] != EMPTY {
        slot = (slot + 1) & mask;
    }
    table[slot] = raw;
}

/// Error from [`ExprArena::from_canonical_nodes`]: the node list is not a
/// canonical arena dump (the reason is inside — a zero-axiom violation, a
/// duplicate, an out-of-order child…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotCanonical(pub &'static str);

impl fmt::Display for NotCanonical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a canonical arena dump: {}", self.0)
    }
}

impl std::error::Error for NotCanonical {}

/// Same as [`ExprArena::new`] — `0` is pre-interned at id 0. (A derived
/// `Default` would skip that and violate the `ZERO`-at-id-0 invariant every
/// smart constructor relies on.)
impl Default for ExprArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ExprArena {
    /// The id of the distinguished `0`, interned at construction.
    pub const ZERO: NodeId = NodeId(0);

    /// Creates an arena containing only `0`.
    pub fn new() -> Self {
        let mut list = NodeList::default();
        list.push(Node::Zero);
        ExprArena {
            list,
            hashes: vec![0],
            table: vec![EMPTY; MIN_SLOTS],
        }
    }

    /// Rebuilds an arena from the dump of another one — `nodes` must be
    /// exactly what iterating a live arena's ids in order yields. This is
    /// the **bulk** counterpart of re-interning every node through the
    /// smart constructors, for snapshot recovery: the node storage is
    /// adopted as is and the intern table is built pre-sized, with one
    /// probe per node instead of a lookup-then-insert pair.
    ///
    /// The input is *validated*, not trusted: the result is `Ok` iff
    /// re-interning node `i`'s structure through the smart constructors
    /// would reproduce id `i` for every `i` — i.e. the list is canonical
    /// (zero axioms applied, sums flat/zero-free/non-trivial, children
    /// strictly below parents, no duplicates, `0` exactly at id 0). Any
    /// other input is rejected with the violated invariant, so ids
    /// embedded alongside a dump stay valid bit-identically or the whole
    /// load fails.
    ///
    /// Atom indices are **not** checked here (the arena does not know the
    /// atom table); callers deserializing untrusted bytes must range-check
    /// them against their `AtomTable` first.
    pub fn from_canonical_nodes(nodes: NodeList) -> Result<Self, NotCanonical> {
        Self::index(nodes, Self::hash_of)
    }

    /// [`from_canonical_nodes`](Self::from_canonical_nodes) under a given
    /// hash function (tests force collisions through it).
    fn index(
        nodes: NodeList,
        hash_of: impl Fn(&ExprArena, Node<'_>) -> u64,
    ) -> Result<Self, NotCanonical> {
        let err = |reason| Err(NotCanonical(reason));
        if !matches!(nodes.nodes.first(), Some(PackedNode::Zero)) {
            return err("node 0 must be the zero constant");
        }
        if nodes.len() > u32::MAX as usize {
            return err("more nodes than the dense u32 id space");
        }
        // Sized by the list's capacity, so headroom the caller reserved for
        // nodes interned after the load covers all three columns.
        let room = nodes.nodes.capacity();
        let mut arena = ExprArena {
            list: nodes,
            hashes: Vec::with_capacity(room),
            table: vec![EMPTY; slots_for(room)],
        };
        arena.hashes.push(0);
        for ix in 1..arena.list.len() {
            let node = arena.list.get(ix);
            let below = |id: NodeId| id.index() < ix;
            match node {
                Node::Zero => return err("zero interned beyond id 0"),
                Node::Atom(_) => {}
                Node::Bin(_, a, b) => {
                    if !below(a) || !below(b) {
                        return err("child id not below its parent");
                    }
                    if a == Self::ZERO || b == Self::ZERO {
                        // All four ops have a zero axiom: no interned node
                        // ever carries a zero operand.
                        return err("zero operand in a binary node");
                    }
                }
                Node::Sum(terms) => {
                    if terms.len() < 2 {
                        return err("sum of fewer than two terms");
                    }
                    for &t in terms {
                        if !below(t) {
                            return err("child id not below its parent");
                        }
                        if t == Self::ZERO {
                            return err("zero term in a sum");
                        }
                        if matches!(arena.node(t), Node::Sum(_)) {
                            return err("nested sum not flattened");
                        }
                    }
                }
                Node::Counted(op, head, entries) => {
                    if !matches!(op, BinOp::PlusI | BinOp::PlusM) {
                        return err("counted block under a non-increment operator");
                    }
                    if !below(head) {
                        return err("child id not below its parent");
                    }
                    if head == Self::ZERO {
                        return err("zero head in a counted block");
                    }
                    if is_same_op_block(arena.node(head), op) {
                        return err("counted head repeats the block operator");
                    }
                    if entries.is_empty() {
                        return err("counted block without entries");
                    }
                    let mut total: u64 = 0;
                    let mut prev: Option<NodeId> = None;
                    for &(e, m) in entries {
                        if !below(e) {
                            return err("child id not below its parent");
                        }
                        if e == Self::ZERO {
                            return err("zero entry in a counted block");
                        }
                        if m == 0 {
                            return err("zero multiplicity in a counted block");
                        }
                        if prev.is_some_and(|p| p >= e) {
                            return err("counted entries not strictly sorted");
                        }
                        prev = Some(e);
                        total += u64::from(m);
                    }
                    if total < 2 {
                        return err("counted block below the two-application threshold");
                    }
                }
            }
            // Children are below `ix`, so their hashes are already cached.
            let hash = hash_of(&arena, node);
            let Err(slot) = arena.probe(hash, node) else {
                return err("duplicate node defeats hash-consing");
            };
            arena.table[slot] = ix as u32;
            arena.hashes.push(hash);
        }
        Ok(arena)
    }

    /// Number of interned nodes (≥ 1: `0` is always present).
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if the arena holds no nodes. Never true for arenas created with
    /// [`ExprArena::new`], which pre-intern `0`.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Heap bytes the arena holds, by **capacity**: node records, hash
    /// column, intern table and both slabs. Divide by [`len`](Self::len)
    /// for the per-node cost: ≈ 33 B when the vectors are full, up to ≈ 60 B
    /// right after they all double (a `clone` is trimmed to the low end).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.list.nodes.capacity() * size_of::<PackedNode>()
            + self.list.terms.capacity() * size_of::<NodeId>()
            + self.list.entries.capacity() * size_of::<(NodeId, u32)>()
            + self.hashes.capacity() * size_of::<u64>()
            + self.table.capacity() * size_of::<u32>()
    }

    /// A view of the node behind `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        self.list.get(id.index())
    }

    /// The cached **structural hash** of `id`: a function of the expression
    /// alone — operator, atom indices and the children's structural hashes,
    /// with counted entries combined order-independently — never of node
    /// ids. Two arenas that interned the same expressions in different
    /// orders agree on it, so it can serve as a history-independent
    /// ordering key; equal hashes do not imply equal expressions.
    #[inline]
    pub fn structural_hash(&self, id: NodeId) -> u64 {
        self.hashes[id.index()]
    }

    /// Computes the structural hash of a node whose children are interned.
    fn hash_of(&self, node: Node<'_>) -> u64 {
        // One seed per kind (operators folded in), so `a +I b`, `a − b`
        // and an atom never start from the same state.
        const ATOM: u64 = 1;
        const SUM: u64 = 2;
        const ENTRY: u64 = 3;
        const BIN: u64 = 4;
        const COUNTED: u64 = 8;
        let h = |id: NodeId| self.hashes[id.index()];
        match node {
            Node::Zero => 0,
            Node::Atom(a) => mix(ATOM, a.index() as u64),
            Node::Bin(op, a, b) => mix(mix(BIN + op as u64, h(a)), h(b)),
            Node::Sum(ts) => ts.iter().fold(SUM, |acc, &t| mix(acc, h(t))),
            // Entries are sorted by id, which is interning history: add
            // their hashes up so the block hashes as the multiset it is.
            Node::Counted(op, head, es) => {
                let bag = es.iter().fold(0u64, |acc, &(e, m)| {
                    // Multiplicity first: folded in last it would enter
                    // the sum linearly and `(x, 1), (y, 2)` would meet
                    // `(x, 2), (y, 1)`.
                    acc.wrapping_add(mix(mix(ENTRY, u64::from(m)), h(e)))
                });
                mix(mix(COUNTED + op as u64, h(head)), bag)
            }
        }
    }

    /// Walks `hash`'s probe chain for a resident structurally equal to
    /// `node`: `Ok` with its id, or `Err` with the empty slot that ends the
    /// chain (where `node` belongs if it gets interned).
    fn probe(&self, hash: u64, node: Node<'_>) -> Result<NodeId, usize> {
        let mask = self.table.len() - 1;
        let mut slot = home(hash, self.table.len());
        loop {
            let raw = self.table[slot];
            if raw == EMPTY {
                return Err(slot);
            }
            if self.hashes[raw as usize] == hash && self.list.get(raw as usize) == node {
                return Ok(NodeId(raw));
            }
            slot = (slot + 1) & mask;
        }
    }

    fn intern(&mut self, node: Node<'_>) -> NodeId {
        let hash = self.hash_of(node);
        self.intern_hashed(node, hash)
    }

    /// [`intern`](Self::intern) under a given hash (tests force collisions
    /// through it).
    fn intern_hashed(&mut self, node: Node<'_>, hash: u64) -> NodeId {
        let slot = match self.probe(hash, node) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        assert!(self.len() < u32::MAX as usize, "arena full");
        let id = NodeId(self.len() as u32);
        self.list.push(node);
        self.hashes.push(hash);
        self.table[slot] = id.0;
        let slots = slots_for(self.len());
        if slots > self.table.len() {
            // Re-place every id by its cached hash; nothing is re-hashed.
            let mut table = vec![EMPTY; slots];
            for (raw, &hash) in self.hashes.iter().enumerate().skip(1) {
                place(&mut table, hash, raw as u32);
            }
            self.table = table;
        }
        id
    }

    /// An atom leaf.
    pub fn atom(&mut self, a: Atom) -> NodeId {
        self.intern(Node::Atom(a))
    }

    /// `a +I b`, with the zero axioms `0 +I a = a` and `a +I 0 = a` applied.
    pub fn plus_i(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (a == Self::ZERO, b == Self::ZERO) {
            (_, true) => a,
            (true, false) => b,
            _ => self.intern(Node::Bin(BinOp::PlusI, a, b)),
        }
    }

    /// `a − b`, with the zero axioms `0 − a = 0` and `a − 0 = a` applied.
    pub fn minus(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if b == Self::ZERO {
            a
        } else if a == Self::ZERO {
            Self::ZERO
        } else {
            self.intern(Node::Bin(BinOp::Minus, a, b))
        }
    }

    /// `a +M b`, with the zero axioms `0 +M a = a` and `a +M 0 = a` applied.
    pub fn plus_m(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (a == Self::ZERO, b == Self::ZERO) {
            (_, true) => a,
            (true, false) => b,
            _ => self.intern(Node::Bin(BinOp::PlusM, a, b)),
        }
    }

    /// `a ·M b`, with the zero axiom `a ·M 0 = 0 ·M a = 0` applied.
    pub fn dot_m(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if a == Self::ZERO || b == Self::ZERO {
            Self::ZERO
        } else {
            self.intern(Node::Bin(BinOp::DotM, a, b))
        }
    }

    /// Dispatches one of the four binary smart constructors.
    pub fn bin(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        match op {
            BinOp::PlusI => self.plus_i(a, b),
            BinOp::Minus => self.minus(a, b),
            BinOp::PlusM => self.plus_m(a, b),
            BinOp::DotM => self.dot_m(a, b),
        }
    }

    /// `Σ terms`: zeros are dropped, nested sums flattened, an empty sum is
    /// `0` and a singleton sum the term itself. Interned terms are already
    /// canonical, so flattening never needs to recurse.
    pub fn sum(&mut self, terms: impl IntoIterator<Item = NodeId>) -> NodeId {
        let mut flat: Vec<NodeId> = Vec::new();
        for t in terms {
            if t == Self::ZERO {
                continue;
            }
            match self.node(t) {
                Node::Sum(inner) => flat.extend_from_slice(inner),
                _ => flat.push(t),
            }
        }
        match flat.len() {
            0 => Self::ZERO,
            1 => flat[0],
            _ => self.intern(Node::Sum(&flat)),
        }
    }

    /// A canonical counted `+I`/`+M` block over `head`: the multiset
    /// `entries` of `(increment, multiplicity)` pairs applied on top of
    /// `head` with `op`, condensed into a single [`Node::Counted`] node (or
    /// collapsed to something smaller when the canonical invariants demand
    /// it). This is the block-level smart constructor the rewrite rules
    /// build through, the counted analogue of folding a sorted spine with
    /// [`bin`](ExprArena::bin).
    ///
    /// Canonicalization performed here, so callers can pass any multiset:
    ///
    /// * zero entries and zero multiplicities are dropped (`x ⊕ 0 = x`),
    /// * a same-operator head (spine [`Node::Bin`] or [`Node::Counted`]) is
    ///   unpacked and merged into the entries — blocks are maximal,
    /// * a `0` head promotes one occurrence of the smallest entry to head
    ///   (`0 ⊕ e = e`, matching what folding a sorted spine over `0` does),
    /// * entries are sorted by id and equal ids coalesced (multiplicities
    ///   add, saturating — sound for axiom-satisfying structures, whose
    ///   increment application is idempotent in the right operand),
    /// * an empty multiset is `head`, a total multiplicity of 1 interns a
    ///   plain [`Node::Bin`] (the sub-threshold canonical form).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not `+I` or `+M` — counted blocks exist only for
    /// the two increment operators.
    pub fn counted(
        &mut self,
        op: BinOp,
        head: NodeId,
        entries: impl IntoIterator<Item = (NodeId, u32)>,
    ) -> NodeId {
        assert!(
            matches!(op, BinOp::PlusI | BinOp::PlusM),
            "counted blocks exist only for +I/+M"
        );
        let mut entries: Vec<(NodeId, u32)> = entries
            .into_iter()
            .filter(|&(e, m)| e != Self::ZERO && m > 0)
            .collect();
        let mut head = head;
        loop {
            match self.node(head) {
                Node::Bin(o, a, b) if o == op => {
                    entries.push((b, 1));
                    head = a;
                }
                Node::Counted(o, h, es) if o == op => {
                    entries.extend_from_slice(es);
                    head = h;
                }
                _ if head == Self::ZERO => {
                    // `0 ⊕ e = e`: the smallest entry becomes the head (the
                    // same head a sorted-spine fold over `0` ends up with).
                    let Some(min_ix) = entries
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(e, _))| e)
                        .map(|(i, _)| i)
                    else {
                        return Self::ZERO;
                    };
                    head = entries[min_ix].0;
                    if entries[min_ix].1 == 1 {
                        entries.swap_remove(min_ix);
                    } else {
                        entries[min_ix].1 -= 1;
                    }
                    // The promoted head may itself be a same-op block:
                    // keep unpacking.
                }
                _ => break,
            }
        }
        entries.sort_unstable_by_key(|&(e, _)| e);
        let mut merged: Vec<(NodeId, u32)> = Vec::with_capacity(entries.len());
        for (e, m) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == e => last.1 = last.1.saturating_add(m),
                _ => merged.push((e, m)),
            }
        }
        let total: u64 = merged.iter().map(|&(_, m)| u64::from(m)).sum();
        match total {
            0 => head,
            1 => self.intern(Node::Bin(op, head, merged[0].0)),
            _ => self.intern(Node::Counted(op, head, &merged)),
        }
    }

    /// Rewrites `root` into the fully **expanded** spine form: every
    /// [`Node::Counted`] block is unfolded into the equivalent left-nested
    /// sorted [`Node::Bin`] spine, bottom-up. The inverse direction of the
    /// condensation the normalizer performs — used by the differential
    /// property tests (counted and expanded forms must be eval- and
    /// equivalence-identical) and by the condensed-NF guard test measuring
    /// the condensation ratio.
    ///
    /// Cost is O(total multiplicity): expanding a block whose
    /// multiplicities came from a saturating accumulation can be
    /// astronomically larger than its counted form — that asymmetry is the
    /// point of the representation.
    pub fn expand_counted(&mut self, root: NodeId) -> NodeId {
        self.rewrite_pass(root, &mut |ar, rebuilt| {
            let Node::Counted(op, head, entries) = ar.node(rebuilt) else {
                return rebuilt;
            };
            // Copy the entries out: interning the spine appends to the slab
            // they are borrowed from.
            let entries = entries.to_vec();
            let mut acc = head;
            for (e, m) in entries {
                for _ in 0..m {
                    acc = ar.bin(op, acc, e);
                }
            }
            acc
        })
    }

    /// Marks the nodes reachable from any of `roots`: `result[i]` is true
    /// iff `NodeId(i)` occurs under one of them. Sized by the largest root;
    /// iterative DFS with an explicit stack.
    fn mark(&self, roots: &[NodeId]) -> Vec<bool> {
        let len = roots.iter().map(|r| r.index() + 1).max().unwrap_or(0);
        let mut marked = vec![false; len];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut marked[id.index()], true) {
                self.node(id).for_each_child(|c| stack.push(c));
            }
        }
        marked
    }

    /// Ids reachable from **any** of `roots`, in ascending (hence
    /// topological) order: every child precedes its parents. This is the
    /// evaluation schedule [`crate::structure::eval_many_in`] replays per
    /// valuation (one root) and the union schedule behind
    /// [`crate::structure::EvalBaseline`], computed with one marking pass
    /// instead of one per root. Empty `roots` yields an empty schedule.
    /// The vector is allocated at its exact length: a schedule is kept
    /// (by [`crate::structure::EvalBaseline`]), so doubling slack would
    /// be held for its lifetime.
    pub fn topo_order_roots(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let marked = self.mark(roots);
        let mut order = Vec::with_capacity(marked.iter().filter(|&&m| m).count());
        order.extend(
            marked
                .iter()
                .enumerate()
                .filter_map(|(i, &m)| m.then_some(NodeId(i as u32))),
        );
        order
    }

    /// Computes [`NodeStats`] for `root` in one bottom-up sweep over the
    /// topologically ordered node vector (plus one reachability marking).
    pub fn analyze(&self, root: NodeId) -> NodeStats {
        let reachable = self.mark(&[root]);
        let n = root.index() + 1;
        let mut logical = vec![0u128; n];
        let mut depth = vec![0usize; n];
        let mut dag_size = 0usize;
        for i in 0..n {
            if !reachable[i] {
                continue;
            }
            dag_size += 1;
            let (l, d) = match self.list.get(i) {
                Node::Zero | Node::Atom(_) => (1, 1),
                Node::Bin(_, a, b) => (
                    logical[a.index()]
                        .saturating_add(logical[b.index()])
                        .saturating_add(1),
                    1 + depth[a.index()].max(depth[b.index()]),
                ),
                Node::Sum(ts) => (
                    ts.iter()
                        .fold(1u128, |acc, t| acc.saturating_add(logical[t.index()])),
                    1 + ts.iter().map(|t| depth[t.index()]).max().unwrap_or(0),
                ),
                // A counted block's logical size is its expansion's: each of
                // the mᵢ applications of entry eᵢ adds one operator node
                // plus one copy of eᵢ's tree.
                Node::Counted(_, h, es) => (
                    es.iter().fold(logical[h.index()], |acc, &(e, m)| {
                        acc.saturating_add(
                            logical[e.index()]
                                .saturating_add(1)
                                .saturating_mul(u128::from(m)),
                        )
                    }),
                    1 + depth[h.index()]
                        .max(es.iter().map(|&(e, _)| depth[e.index()]).max().unwrap_or(0)),
                ),
            };
            logical[i] = l;
            depth[i] = d;
        }
        NodeStats {
            logical_size: logical[root.index()],
            dag_size,
            depth: depth[root.index()],
        }
    }

    /// One bottom-up rewrite pass over the reachable sub-DAG of `root`: the
    /// hook behind [`expand_counted`](ExprArena::expand_counted), and the
    /// reduce-everywhere sweep tests confirm normal forms with. It shares
    /// its worklist loop with
    /// [`substitute_roots_in`](ExprArena::substitute_roots_in).
    ///
    /// Nodes are visited bottom-up (children before parents), discovered by
    /// an explicit-stack DFS over the sub-DAG of `root` — only reachable
    /// nodes are touched, so a pass over a small root in a huge arena costs
    /// O(its DAG), not O(arena prefix). For each visited node a *rebuilt*
    /// id is computed by replacing its children with their already-computed
    /// images and re-interning through the smart constructors — so the zero
    /// axioms of Section 3.1 re-fire whenever a child's image became `0`,
    /// and maximal sharing is preserved (structurally converging rewrites
    /// land on the same id). `step` then maps the rebuilt id to the node's
    /// final image (returning its argument for "no change"). Returns
    /// `root`'s image.
    ///
    /// Iterative (no recursion — a depth-100 000 chain is fine) and memoized
    /// into a dense buffer.
    pub fn rewrite_pass(
        &mut self,
        root: NodeId,
        step: &mut dyn FnMut(&mut ExprArena, NodeId) -> NodeId,
    ) -> NodeId {
        let mut memo = DenseMemo::new();
        memo.reset(root.index() + 1);
        self.rewrite_fill(root, &mut memo, &mut |arena, _orig, rebuilt| {
            step(arena, rebuilt)
        });
        memo.get(root).copied().expect("root computed")
    }

    /// The worklist loop behind the rewrite passes: ensures `memo` maps
    /// `root` (and its whole sub-DAG) to images, without resetting the memo
    /// first — so multi-root drivers
    /// ([`substitute_roots_in`](ExprArena::substitute_roots_in)) can share
    /// one generation across roots. `step` receives the original id and the
    /// rebuilt one. Images may be newly interned ids.
    fn rewrite_fill(
        &mut self,
        root: NodeId,
        memo: &mut DenseMemo<NodeId>,
        step: &mut dyn FnMut(&mut ExprArena, NodeId, NodeId) -> NodeId,
    ) {
        let mut stack: Vec<NodeId> = vec![root];
        // The children of the node being visited, then their images (a
        // counted head goes first, with a multiplicity nobody reads).
        let mut kids: Vec<(NodeId, u32)> = Vec::new();
        while let Some(&id) = stack.last() {
            if memo.contains(id) {
                stack.pop();
                continue;
            }
            kids.clear();
            match self.node(id) {
                Node::Zero | Node::Atom(_) => {}
                Node::Bin(_, a, b) => kids.extend([(a, 1), (b, 1)]),
                Node::Sum(ts) => kids.extend(ts.iter().map(|&t| (t, 1))),
                Node::Counted(_, h, es) => {
                    kids.push((h, 1));
                    kids.extend_from_slice(es);
                }
            }
            // Defer: push the children without an image and revisit.
            let pending = stack.len();
            stack.extend(kids.iter().map(|k| k.0).filter(|&k| !memo.contains(k)));
            if stack.len() > pending {
                continue;
            }
            for (kid, _) in kids.iter_mut() {
                *kid = memo.get(*kid).copied().expect("children computed");
            }
            // The images are copied out of `kids`: interning appends to the
            // slabs a `Sum`/`Counted` view borrows.
            let rebuilt = match self.node(id) {
                Node::Zero | Node::Atom(_) => id,
                Node::Bin(op, ..) => self.bin(op, kids[0].0, kids[1].0),
                Node::Sum(_) => self.sum(kids.iter().map(|k| k.0)),
                // Re-canonicalize through the counted constructor: child
                // images may have become 0, merged onto one id, or turned
                // the head into a same-op block.
                Node::Counted(op, ..) => self.counted(op, kids[0].0, kids[1..].iter().copied()),
            };
            let image = step(self, id, rebuilt);
            memo.set(id, image);
            stack.pop();
        }
    }

    /// Substitutes expressions for atoms under **many roots**: every leaf
    /// whose atom is a key of `map` is replaced by the mapped id, and all
    /// ancestors are rebuilt through the smart constructors — so the zero
    /// axioms re-fire wherever a substituted `0` collapses an operand (the
    /// transaction-abort query "substitute `T ↦ 0` and simplify" of
    /// Section 4.1).
    ///
    /// The substitution is applied **once** (images are not themselves
    /// re-substituted), and unmapped structure is preserved with maximal
    /// sharing: untouched sub-DAGs keep their ids. The roots share one memo
    /// generation: sub-DAGs common to several roots are rebuilt once, so
    /// substituting a transaction abort into every tuple of a replayed log
    /// costs O(union DAG), not O(Σ per-root DAGs) — the rewrite-side
    /// analogue of [`eval_roots_in`](crate::structure::eval_roots_in).
    /// Images are returned in `roots` order.
    ///
    /// ```
    /// use std::collections::HashMap;
    /// use uprov_core::{AtomTable, DenseMemo, ExprArena};
    ///
    /// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
    /// let x = t.fresh_tuple();
    /// let p = t.fresh_txn();
    /// let xa = ar.atom(x);
    /// let pa = ar.atom(p);
    /// let ins = ar.plus_i(xa, pa);
    /// let e = ar.minus(ins, pa); // (x +I p) − p
    ///
    /// // Abort p: the insertion and the deletion both vanish.
    /// let abort = HashMap::from([(p, ExprArena::ZERO)]);
    /// assert_eq!(ar.substitute_roots_in(&[e], &abort, &mut DenseMemo::new()), [xa]);
    /// ```
    pub fn substitute_roots_in(
        &mut self,
        roots: &[NodeId],
        map: &HashMap<Atom, NodeId>,
        memo: &mut DenseMemo<NodeId>,
    ) -> Vec<NodeId> {
        let len = roots.iter().map(|r| r.index() + 1).max().unwrap_or(0);
        memo.reset(len);
        // Match on the ORIGINAL node: a parent that zero-collapses onto an
        // atom image must not have the map applied a second time (the
        // documented applied-once contract).
        let mut step = |arena: &mut ExprArena, orig: NodeId, rebuilt: NodeId| match arena.node(orig)
        {
            Node::Atom(a) => map.get(&a).copied().unwrap_or(rebuilt),
            _ => rebuilt,
        };
        roots
            .iter()
            .map(|&root| {
                if !memo.contains(root) {
                    self.rewrite_fill(root, memo, &mut step);
                }
                memo.get(root).copied().expect("root computed")
            })
            .collect()
    }

    /// Atoms occurring under `root`, deduplicated, in first-occurrence
    /// (preorder, left-to-right) order — the order [`display`](Self::display)
    /// prints them in.
    pub fn atoms(&self, root: NodeId) -> Vec<Atom> {
        let mut out = Vec::new();
        let mut visited = vec![false; root.index() + 1];
        let mut seen_atoms: HashSet<Atom> = HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut visited[id.index()], true) {
                continue;
            }
            match self.node(id) {
                Node::Zero => {}
                Node::Atom(a) => {
                    if seen_atoms.insert(a) {
                        out.push(a);
                    }
                }
                Node::Bin(_, a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                Node::Sum(ts) => stack.extend(ts.iter().rev()),
                // Expanded-spine preorder: head first, then entries
                // left-to-right (multiplicity does not affect first
                // occurrence).
                Node::Counted(_, h, es) => {
                    stack.extend(es.iter().rev().map(|&(e, _)| e));
                    stack.push(h);
                }
            }
        }
        out
    }

    /// `root` printed in the paper's notation, atom names resolved through
    /// `table`: `(p1 +M (p3 .M p)) - p` for Example 3.2.
    ///
    /// Every operand that is not a leaf is parenthesised, `Σ` terms are
    /// joined by ` + `, and a [`Node::Counted`] block prints as its expanded
    /// left-nested spine — entries in order, each repeated by its
    /// multiplicity — so the text does not depend on whether a block was
    /// condensed. Shared nodes print once per occurrence: the output has
    /// the expression's logical size. Printing runs on an explicit stack,
    /// so chains of any depth print without recursion.
    pub fn display<'a>(&'a self, root: NodeId, table: &'a AtomTable) -> DisplayNode<'a> {
        DisplayNode {
            arena: self,
            root,
            table,
        }
    }
}

/// The printer behind [`ExprArena::display`].
pub struct DisplayNode<'a> {
    arena: &'a ExprArena,
    root: NodeId,
    table: &'a AtomTable,
}

/// One pending piece of [`DisplayNode`] output.
enum Frame<'a> {
    /// A node; `true` if it is an operand and needs parentheses.
    Node(NodeId, bool),
    Lit(&'static str),
    /// The rest of a counted block's spine: application number `rep` of
    /// `entries[0]`, then the applications of the later entries.
    Spine(BinOp, &'a [(NodeId, u32)], u32),
}

fn op_text(op: BinOp) -> &'static str {
    match op {
        BinOp::PlusI => " +I ",
        BinOp::Minus => " - ",
        BinOp::PlusM => " +M ",
        BinOp::DotM => " .M ",
    }
}

impl fmt::Display for DisplayNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut stack = vec![Frame::Node(self.root, false)];
        while let Some(frame) = stack.pop() {
            let (id, parens) = match frame {
                Frame::Node(id, parens) => (id, parens),
                Frame::Lit(s) => {
                    f.write_str(s)?;
                    continue;
                }
                Frame::Spine(op, entries, rep) => {
                    // " op x" closes one spine level; the next application
                    // (if any) follows after that level's ")".
                    let (x, mult) = entries[0];
                    f.write_str(op_text(op))?;
                    if rep + 1 < mult {
                        stack.push(Frame::Spine(op, entries, rep + 1));
                        stack.push(Frame::Lit(")"));
                    } else if entries.len() > 1 {
                        stack.push(Frame::Spine(op, &entries[1..], 0));
                        stack.push(Frame::Lit(")"));
                    }
                    stack.push(Frame::Node(x, true));
                    continue;
                }
            };
            let node = self.arena.node(id);
            if parens && !matches!(node, Node::Zero | Node::Atom(_)) {
                f.write_str("(")?;
                stack.push(Frame::Lit(")"));
            }
            match node {
                Node::Zero => f.write_str("0")?,
                Node::Atom(a) => f.write_str(self.table.name(a))?,
                Node::Bin(op, a, b) => {
                    stack.push(Frame::Node(b, true));
                    stack.push(Frame::Lit(op_text(op)));
                    stack.push(Frame::Node(a, true));
                }
                Node::Sum(ts) => {
                    for (i, &t) in ts.iter().enumerate().rev() {
                        stack.push(Frame::Node(t, true));
                        if i > 0 {
                            stack.push(Frame::Lit(" + "));
                        }
                    }
                }
                Node::Counted(op, head, entries) => {
                    // The spine's N applications nest N − 1 parenthesised
                    // levels around the head.
                    let total: u64 = entries.iter().map(|&(_, m)| u64::from(m)).sum();
                    for _ in 1..total {
                        f.write_str("(")?;
                    }
                    stack.push(Frame::Spine(op, entries, 0));
                    stack.push(Frame::Node(head, true));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomKind;

    fn setup() -> (AtomTable, ExprArena) {
        (AtomTable::new(), ExprArena::new())
    }

    #[test]
    fn hash_consing_dedups_structural_equality() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let e1 = ar.plus_i(a, p);
        let e2 = ar.plus_i(a, p);
        assert_eq!(e1, e2, "same structure ⇒ same id");
        assert_eq!(ar.len(), 4, "0, a, p, a +I p");
    }

    #[test]
    fn zero_axioms_applied_at_intern_time() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let z = ExprArena::ZERO;
        assert_eq!(ar.plus_i(z, a), a);
        assert_eq!(ar.plus_i(a, z), a);
        assert_eq!(ar.minus(z, a), z);
        assert_eq!(ar.minus(a, z), a);
        assert_eq!(ar.plus_m(z, a), a);
        assert_eq!(ar.plus_m(a, z), a);
        assert_eq!(ar.dot_m(a, z), z);
        assert_eq!(ar.dot_m(z, a), z);
        assert_eq!(ar.len(), 2, "no new nodes were interned");
    }

    #[test]
    fn sum_canonicalization() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let b = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        assert_eq!(ar.sum([]), ExprArena::ZERO);
        assert_eq!(ar.sum([a, ExprArena::ZERO]), a, "singleton collapses");
        let inner = ar.sum([a, b]);
        let s = ar.sum([inner, p, ExprArena::ZERO]);
        match ar.node(s) {
            Node::Sum(ts) => assert_eq!(ts.len(), 3, "nested sum flattened, zero dropped"),
            other => panic!("expected sum, got {other:?}"),
        }
    }

    #[test]
    fn stats_match_legacy_on_shared_example() {
        // a +M (a ·M p): logical 5 (a counted twice), dag 4, depth 3.
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let dot = ar.dot_m(a, p);
        let e = ar.plus_m(a, dot);
        let stats = ar.analyze(e);
        assert_eq!(stats.logical_size, 5);
        assert_eq!(stats.dag_size, 4);
        assert_eq!(stats.depth, 3);
    }

    #[test]
    fn pingpong_logical_size_saturates_dag_stays_linear() {
        let (mut t, mut ar) = setup();
        let mut e1 = ar.atom(t.fresh_tuple());
        let mut e2 = ar.atom(t.fresh_tuple());
        for _ in 0..200 {
            let p = ar.atom(t.fresh_txn());
            let dot = ar.dot_m(e1, p);
            let new_e2 = ar.plus_m(e2, dot);
            let new_e1 = ar.minus(e1, p);
            e1 = new_e2;
            e2 = new_e1;
        }
        let stats = ar.analyze(e1);
        assert_eq!(stats.logical_size, u128::MAX, "saturated ⇒ astronomical");
        assert!(stats.dag_size < 2000, "but the DAG stays linear");
    }

    #[test]
    fn atoms_first_occurrence_order_matches_legacy() {
        let (mut t, mut ar) = setup();
        let a = t.fresh_tuple();
        let b = t.fresh_tuple();
        let p = t.fresh_txn();
        let (aa, ba, pa) = (ar.atom(a), ar.atom(b), ar.atom(p));
        // a +M ((a + b) ·M p): preorder, left to right, duplicates dropped.
        let sum = ar.sum([aa, ba]);
        let dot = ar.dot_m(sum, pa);
        let id = ar.plus_m(aa, dot);
        assert_eq!(ar.atoms(id), vec![a, b, p]);
    }

    /// Atoms named `names` (their kind does not matter to printing),
    /// interned into `ar`, with their table.
    fn named<const N: usize>(ar: &mut ExprArena, names: [&str; N]) -> (AtomTable, [NodeId; N]) {
        let mut t = AtomTable::new();
        let ids = names.map(|name| ar.atom(t.named(name, AtomKind::Tuple)));
        (t, ids)
    }

    #[test]
    fn display_matches_paper_notation() {
        let mut ar = ExprArena::new();
        let (t, [p1, p3, p]) = named(&mut ar, ["p1", "p3", "p"]);
        // (p1 +M (p3 ·M p)) − p, from Example 3.2.
        let dot = ar.dot_m(p3, p);
        let md = ar.plus_m(p1, dot);
        let e = ar.minus(md, p);
        assert_eq!(ar.display(e, &t).to_string(), "(p1 +M (p3 .M p)) - p");
        assert_eq!(ar.display(ExprArena::ZERO, &t).to_string(), "0");
        assert_eq!(ar.display(p, &t).to_string(), "p");
    }

    #[test]
    fn display_sum_terms_in_order() {
        let mut ar = ExprArena::new();
        let (t, [a, b, p]) = named(&mut ar, ["a", "b", "p"]);
        let sum = ar.sum([a, b]);
        let e = ar.dot_m(sum, p);
        assert_eq!(ar.display(e, &t).to_string(), "(a + b) .M p");
        // A Σ as the right operand, with a non-leaf term.
        let ap = ar.dot_m(a, p);
        let sum = ar.sum([ap, b]);
        let e = ar.plus_m(a, sum);
        assert_eq!(ar.display(e, &t).to_string(), "a +M ((a .M p) + b)");
    }

    #[test]
    fn display_prints_a_counted_block_as_its_expanded_spine() {
        let mut ar = ExprArena::new();
        let (t, [h, x, y, p]) = named(&mut ar, ["h", "x", "y", "p"]);
        let yp = ar.dot_m(y, p);
        let block = ar.counted(BinOp::PlusM, h, [(x, 2), (yp, 1)]);
        assert!(matches!(ar.node(block), Node::Counted(..)));
        let spine = "((h +M x) +M x) +M (y .M p)";
        assert_eq!(ar.display(block, &t).to_string(), spine);
        let e = ar.minus(block, p);
        assert_eq!(ar.display(e, &t).to_string(), format!("({spine}) - p"));
        // The same text as the spine it condenses.
        let expanded = ar.expand_counted(e);
        assert_ne!(expanded, e);
        assert_eq!(
            ar.display(expanded, &t).to_string(),
            ar.display(e, &t).to_string()
        );
    }

    #[test]
    fn dense_memo_generations_isolate_resets() {
        let mut memo: DenseMemo<u32> = DenseMemo::new();
        memo.reset(4);
        let id = NodeId(2);
        assert!(memo.get(id).is_none());
        memo.set(id, 7);
        assert_eq!(memo.get(id), Some(&7));
        assert!(memo.contains(id));
        // A reset invalidates without clearing storage.
        memo.reset(2);
        assert!(memo.get(id).is_none(), "stale generation is invisible");
        assert!(!memo.contains(id));
        assert_eq!(memo.len(), 4, "high-water mark is kept");
        memo.set(id, 9);
        assert_eq!(memo.get(id), Some(&9));
        // Query methods are total beyond the reserved length.
        let far = NodeId(1_000);
        assert!(memo.get(far).is_none());
        assert!(!memo.contains(far));
        let fresh: DenseMemo<u32> = DenseMemo::new();
        assert!(fresh.get(far).is_none(), "unreset memo answers None");
    }

    #[test]
    fn substitute_rebuilds_and_refires_zero_axioms() {
        let (mut t, mut ar) = setup();
        let mut memo = DenseMemo::new();
        let x = t.fresh_tuple();
        let p = t.fresh_txn();
        let q = t.fresh_txn();
        let xa = ar.atom(x);
        let pa = ar.atom(p);
        let qa = ar.atom(q);
        let dot = ar.dot_m(xa, pa);
        let md = ar.plus_m(xa, dot);
        let e = ar.minus(md, qa); // (x +M (x ·M p)) − q
                                  // Abort p: the ·M p increment collapses to 0 and the +M drops it.
        let aborted =
            ar.substitute_roots_in(&[e], &HashMap::from([(p, ExprArena::ZERO)]), &mut memo)[0];
        let want = ar.minus(xa, qa);
        assert_eq!(aborted, want);
        // Unmapped roots are untouched (same id, maximal sharing kept).
        assert_eq!(
            ar.substitute_roots_in(&[e], &HashMap::new(), &mut memo),
            [e]
        );
        // Applied once: a parent that zero-collapses onto a mapped atom's
        // image is NOT re-substituted. (x +M (x ·M p)) with {x↦q, p↦0}:
        // the dot dies, the +M collapses onto x's image q — and q, though
        // an atom, must not be chased further even if it were mapped.
        let s = t.fresh_tuple();
        let sa = ar.atom(s);
        let chained = HashMap::from([(x, qa), (q, sa), (p, ExprArena::ZERO)]);
        let chained = ar.substitute_roots_in(&[e], &chained, &mut memo)[0];
        let want_once = ar.minus(qa, sa);
        assert_eq!(
            chained, want_once,
            "x↦q applied once; q's own mapping must not fire on the image"
        );
        // Substituting a non-zero expression works too, applied once.
        let swapped = ar.substitute_roots_in(&[e], &HashMap::from([(x, qa)]), &mut memo)[0];
        let qdot = ar.dot_m(qa, pa);
        let qmd = ar.plus_m(qa, qdot);
        let want2 = ar.minus(qmd, qa);
        assert_eq!(swapped, want2);
    }

    #[test]
    fn substitute_roots_shares_work_and_agrees_with_per_root() {
        let (mut t, mut ar) = setup();
        let x = t.fresh_tuple();
        let p = t.fresh_txn();
        let xa = ar.atom(x);
        let pa = ar.atom(p);
        let shared = ar.dot_m(xa, pa);
        let r1 = ar.plus_m(xa, shared);
        let r2 = ar.minus(shared, pa);
        let map = HashMap::from([(p, ExprArena::ZERO)]);
        let mut memo = DenseMemo::new();
        let batch = ar.substitute_roots_in(&[r1, r2, r1, ExprArena::ZERO], &map, &mut memo);
        let per_root: Vec<NodeId> = [r1, r2, r1, ExprArena::ZERO]
            .iter()
            .map(|&r| ar.substitute_roots_in(&[r], &map, &mut DenseMemo::new())[0])
            .collect();
        assert_eq!(batch, per_root);
        assert_eq!(batch[0], xa, "x +M (x ·M 0) collapses to x");
        assert_eq!(batch[1], ExprArena::ZERO, "(x ·M 0) − 0 collapses to 0");
        assert_eq!(batch[0], batch[2], "repeated roots served from the memo");
    }

    #[test]
    fn from_canonical_nodes_round_trips_a_live_arena() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let b = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let dot = ar.dot_m(a, p);
        let md = ar.plus_m(a, dot);
        let s = ar.sum([md, b]);
        let e = ar.minus(s, p);
        let dump: NodeList = (0..ar.len())
            .map(|i| ar.node(NodeId::from_index(i)))
            .collect();
        let mut back = ExprArena::from_canonical_nodes(dump).expect("live dump is canonical");
        assert_eq!(back.len(), ar.len());
        // Ids are bit-identical and future interning agrees: re-building
        // the same structure lands on the same ids, a new node extends.
        assert_eq!(back.minus(s, p), e);
        assert_eq!(back.sum([md, b]), s);
        let fresh = back.plus_i(a, b);
        assert_eq!(fresh.index(), ar.len(), "new nodes continue the id space");
    }

    #[test]
    fn from_canonical_nodes_rejects_every_invariant_violation() {
        let atom0 = Node::Atom(Atom::from_index(0));
        let atom1 = Node::Atom(Atom::from_index(1));
        let id = NodeId::from_index;
        let load =
            |nodes: &[Node]| ExprArena::from_canonical_nodes(nodes.iter().copied().collect());
        for (nodes, why) in [
            (vec![], "empty"),
            (vec![atom0], "missing zero"),
            (vec![Node::Zero, Node::Zero], "second zero"),
            (vec![Node::Zero, atom0, atom0], "duplicate"),
            (
                vec![Node::Zero, Node::Bin(BinOp::PlusI, id(1), id(1))],
                "self child",
            ),
            (
                vec![Node::Zero, atom0, Node::Bin(BinOp::Minus, id(1), id(0))],
                "zero operand",
            ),
            (
                vec![Node::Zero, atom0, Node::Sum(&[id(1)])],
                "singleton sum",
            ),
            (
                vec![Node::Zero, atom0, Node::Sum(&[id(1), id(0)])],
                "zero term",
            ),
            (
                vec![
                    Node::Zero,
                    atom0,
                    atom1,
                    Node::Sum(&[id(1), id(2)]),
                    Node::Sum(&[id(3), id(1)]),
                ],
                "nested sum",
            ),
        ] {
            assert!(load(&nodes).is_err(), "{why} must be rejected");
        }
        // The smallest valid dumps load.
        assert_eq!(load(&[Node::Zero]).expect("zero-only").len(), 1);
        let ok = load(&[Node::Zero, atom0, atom1, Node::Sum(&[id(1), id(2), id(1)])])
            .expect("repeated terms inside one sum are canonical");
        assert_eq!(ok.len(), 4);
    }

    /// Every node forced under ONE hash whose home is the last slot: the
    /// table is a single probe chain that wraps around the end of the slot
    /// array, and only structural comparison tells residents apart.
    #[test]
    fn equal_hashes_chain_wrap_around_and_still_dedup() {
        const H: u64 = u64::MAX;
        let mut ar = ExprArena::new();
        let atoms: Vec<NodeId> = (0..40)
            .map(|i| ar.intern_hashed(Node::Atom(Atom::from_index(i)), H))
            .collect();
        let want: Vec<NodeId> = (1..=40).map(NodeId::from_index).collect();
        assert_eq!(atoms, want, "distinct nodes under one hash get fresh ids");
        assert!(
            ar.table.len() >= 64,
            "8 → 16 → 32 → 64 slots: three growths"
        );
        assert_eq!(home(H, ar.table.len()), ar.table.len() - 1);
        assert_ne!(ar.table[ar.table.len() - 1], EMPTY);
        assert_ne!(ar.table[0], EMPTY, "the chain wrapped to slot 0");
        for (i, &a) in atoms.iter().enumerate() {
            let again = ar.intern_hashed(Node::Atom(Atom::from_index(i)), H);
            assert_eq!(again, a, "found again after the growths");
        }
        // Slab-backed kinds in the same chain: windows differ, contents
        // decide.
        let ab = ar.intern_hashed(Node::Sum(&[atoms[0], atoms[1]]), H);
        let ba = ar.intern_hashed(Node::Sum(&[atoms[1], atoms[0]]), H);
        let c1 = ar.intern_hashed(Node::Counted(BinOp::PlusI, atoms[0], &[(atoms[1], 2)]), H);
        let c2 = ar.intern_hashed(Node::Counted(BinOp::PlusI, atoms[0], &[(atoms[1], 3)]), H);
        let c3 = ar.intern_hashed(Node::Counted(BinOp::PlusM, atoms[0], &[(atoms[1], 2)]), H);
        let fresh = [ab, ba, c1, c2, c3];
        let want: Vec<NodeId> = (41..=45).map(NodeId::from_index).collect();
        assert_eq!(fresh.to_vec(), want);
        assert_eq!(ar.intern_hashed(Node::Sum(&[atoms[0], atoms[1]]), H), ab);
        assert_eq!(
            ar.intern_hashed(Node::Counted(BinOp::PlusI, atoms[0], &[(atoms[1], 3)]), H),
            c2
        );
        assert_eq!(ar.len(), 46);

        // The bulk constructor under the same degenerate hash: colliding
        // but distinct nodes load, and ids keep interning identically...
        let dump = |ar: &ExprArena| -> NodeList {
            (0..ar.len())
                .map(|i| ar.node(NodeId::from_index(i)))
                .collect()
        };
        let mut back =
            ExprArena::index(dump(&ar), |_, _| H).expect("collisions are not duplicates");
        assert_eq!(back.len(), ar.len());
        assert_eq!(back.intern_hashed(Node::Sum(&[atoms[1], atoms[0]]), H), ba);
        assert_eq!(
            back.intern_hashed(Node::Atom(Atom::from_index(99)), H)
                .index(),
            46
        );
        // ...while a true duplicate is found at the far end of the chain,
        // whether it is a leaf or slab-backed.
        for dup in [
            Node::Atom(Atom::from_index(0)),
            Node::Sum(&[atoms[0], atoms[1]]),
            Node::Counted(BinOp::PlusI, atoms[0], &[(atoms[1], 2)]),
        ] {
            let mut list = dump(&ar);
            list.push(dup);
            assert_eq!(
                ExprArena::index(list, |_, _| H).unwrap_err(),
                NotCanonical("duplicate node defeats hash-consing"),
                "{dup:?}"
            );
            let mut list = dump(&ar);
            list.push(dup);
            assert!(ExprArena::from_canonical_nodes(list).is_err(), "{dup:?}");
        }
    }

    #[test]
    fn topo_order_children_precede_parents() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let dot = ar.dot_m(a, p);
        let root = ar.plus_m(a, dot);
        let order = ar.topo_order_roots(&[root]);
        assert_eq!(*order.last().expect("non-empty"), root);
        for (pos, id) in order.iter().enumerate() {
            if let Node::Bin(_, x, y) = ar.node(*id) {
                assert!(order[..pos].contains(&x) && order[..pos].contains(&y));
            }
        }
    }
}
