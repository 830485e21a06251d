//! Transaction-log replay engine for `UP[X]` update provenance.
//!
//! This crate is the ROADMAP "engine layer" end-to-end: parse a textual
//! update log ([`UpdateLog`], module [`log`]), replay it into per-tuple
//! provenance expressions built **incrementally** in a long-lived
//! hash-consed [`ExprArena`] ([`Engine::replay`], extended in place by
//! [`Engine::append`]), then answer the queries the paper's framework
//! exists for:
//!
//! * **Transaction abortion** (Example 3.2 / Section 4.1): "what does the
//!   database look like if transaction `T` aborts?" — symbolically, by
//!   substituting `T ↦ 0` and re-normalizing ([`Engine::abort_symbolic`]);
//!   or concretely under any Update-Structure, by evaluating every tuple
//!   under the valuation `T ↦ 0` ([`Engine::abort_eval`]).
//! * **Deletion propagation** (Section 4.1): which tuples disappear when a
//!   base tuple is deleted — symbolically ([`Engine::delete_base_symbolic`])
//!   or by evaluation ([`Engine::delete_base_eval`]).
//! * **Log equivalence** (Section 3 / Figure 3): are two logs equivalent —
//!   per tuple, by normal-form id comparison in the shared arena
//!   ([`Engine::equivalent`], normalized through
//!   [`uprov_core::nf_roots_incremental_in`]; a pair whose normalization
//!   saturated surfaces as *undecided* rather than a false
//!   "inequivalent").
//!
//! Replay is pure interning — O(1) amortized per update, no rewriting —
//! so logs with hundreds of thousands of updates build in milliseconds;
//! normalization and substitution reuse one pooled [`DenseMemo`],
//! evaluation answers whole-database queries in one O(union DAG)
//! [`uprov_core::eval_roots_in`] sweep, and the block-once normalizer
//! keeps the long `+I`/`+M` spines such logs produce near-linear to
//! canonicalize.
//!
//! # Incremental re-normalization
//!
//! The paper frames provenance as *incrementally maintained* state over an
//! update log, and the engine's normal forms are maintained the same way:
//! the engine keeps a persistent [`NfCache`] of certified normal forms
//! (valid forever — the arena is append-only, so `nf` is a pure function
//! of the id), every [`ReplayState`] flags the tuples an append **dirtied**
//! and keeps the certified normal form of each clean one, and the NF-backed
//! queries ([`Engine::equivalent`], [`Engine::abort_symbolic`],
//! [`Engine::delete_base_symbolic`]) go through
//! [`uprov_core::nf_roots_incremental_in`]: clean roots are O(1) cache
//! hits, dirty roots re-normalize with *cache cuts* that stop at certified
//! sub-DAGs — so an append-then-query cycle on a 10 000-update log costs
//! O(delta), not O(log). See `docs/ARCHITECTURE.md` for the cache
//! lifecycle and the invalidation state machine; the append-then-query
//! guard in `tests/guards.rs` holds the speedup at ≥ 10×.
//!
//! ```
//! use uprov_engine::{Engine, UpdateLog};
//!
//! let mut engine = Engine::new();
//! let log: UpdateLog = "\
//!     base inventory
//!     begin t1
//!     insert order1
//!     modify inventory <- order1 inventory
//!     commit
//! ".parse().unwrap();
//! let mut state = engine.replay(&log).unwrap();
//!
//! // Certify once: every tuple's normal form goes on record.
//! let cert = engine.certify(&mut state);
//! assert_eq!(cert.certified, 2);
//! assert_eq!(state.dirty_count(), 0);
//!
//! // Append one transaction: only the touched tuple is invalidated.
//! let delta: UpdateLog = "begin t2\ninsert order2\ncommit\n".parse().unwrap();
//! engine.append(&mut state, &delta).unwrap();
//! assert_eq!(state.dirty_tuples().collect::<Vec<_>>(), ["order2"]);
//! assert!(state.certified_nf("inventory").is_some(), "untouched: still certified");
//!
//! // NF-backed queries are now O(delta): clean tuples are cache hits,
//! // only order2's (tiny) provenance has to normalize.
//! let misses_before = engine.nf_cache().misses();
//! let view = engine.abort_symbolic(&state, "t2").unwrap();
//! assert!(view.iter().all(|t| !t.saturated));
//! assert!(engine.nf_cache().misses() - misses_before <= 1);
//! ```
//!
//! # Concrete evaluation and what-ifs
//!
//! Concrete evaluation never touches the engine's caches — it is a pure
//! fold over the read-only arena — so every concrete query takes `&self`.
//! [`Engine::eval_tuples`], [`Engine::abort_eval`] and
//! [`Engine::delete_base_eval`] answer one valuation in one sweep over
//! the whole database. [`Engine::what_if`] evaluates the database once and
//! keeps every node's value, so each "what if this one atom were `0`?"
//! after it re-evaluates only the nodes above that atom whose value
//! changes. This is the README "What-if reads" example:
//!
//! ```
//! use uprov_core::Valuation;
//! use uprov_engine::{Engine, UpdateLog};
//! use uprov_structures::Bool;
//!
//! let mut engine = Engine::new();
//! let log: UpdateLog = "\
//!     base x
//!     begin t1
//!     insert y
//!     modify z <- x y
//!     commit
//! ".parse().unwrap();
//! let state = engine.replay(&log).unwrap();
//!
//! // "Abort each transaction in turn": evaluate once, then ask.
//! let all = Valuation::constant(true);
//! let what_if = engine.what_if(&state, &Bool, &all);
//! assert_eq!(what_if.rows(), engine.eval_tuples(&state, &Bool, &all));
//! let t1 = state.txn_atom("t1").unwrap();
//! assert_eq!(
//!     what_if.zeroed(t1),
//!     engine.abort_eval(&state, "t1", &Bool, true).unwrap()
//! );
//! ```
//!
//! ```
//! use uprov_engine::{Engine, UpdateLog};
//! use uprov_structures::Bool;
//!
//! let log: UpdateLog = "\
//!     base x
//!     begin t1
//!     insert y
//!     modify z <- x y
//!     commit
//!     begin t2
//!     delete y
//!     commit
//! ".parse().unwrap();
//!
//! let mut engine = Engine::new();
//! let replayed = engine.replay(&log).unwrap();
//!
//! // If t1 aborts, its insert and its modification never happened:
//! // y and z vanish, and x (consumed by the modify) is restored.
//! let after = engine.abort_eval(&replayed, "t1", &Bool, true).unwrap();
//! let alive: Vec<&str> = after
//!     .iter()
//!     .filter(|(_, v)| *v)
//!     .map(|(name, _)| *name)
//!     .collect();
//! assert_eq!(alive, ["x"]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod log;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use uprov_core::{
    eval_roots_in, nf_roots_in, nf_roots_incremental_in, Atom, AtomKind, AtomTable, DenseMemo,
    EvalBaseline, ExprArena, FxHashMap, NfCache, NfMemo, NfOutcome, NodeId, UpdateStructure,
    Valuation,
};

pub use crate::log::{Op, ParseError, Txn, UpdateLog};

/// A replay failure. [`Engine::replay`] and [`Engine::append`] are atomic:
/// on `Err` the target state **and** the engine's atom table are unchanged
/// (validation peeks at kinds without interning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// One name is used both as a tuple and as a transaction — atoms are
    /// kind-tagged, so the log is ambiguous.
    NameKindClash {
        /// The clashing name.
        name: String,
    },
    /// An appended log declares `base` for a tuple the state already
    /// tracks — accepting it would retroactively rewrite history.
    LateBase {
        /// The re-declared tuple.
        name: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::NameKindClash { name } => {
                write!(f, "`{name}` is used both as a tuple and as a transaction")
            }
            ReplayError::LateBase { name } => {
                write!(
                    f,
                    "`base {name}` re-declares a tuple the state already tracks"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// A query failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The named transaction does not occur in the replayed log.
    UnknownTxn {
        /// The unmatched name.
        name: String,
    },
    /// The named tuple does not occur in the replayed log.
    UnknownTuple {
        /// The unmatched name.
        name: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTxn { name } => write!(f, "unknown transaction `{name}`"),
            QueryError::UnknownTuple { name } => write!(f, "unknown tuple `{name}`"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The provenance state of one replayed log: every touched tuple's current
/// symbolic provenance, the atoms behind base tuples and transactions, and
/// the incremental-normalization bookkeeping — which tuples are **dirty**
/// (touched since the last [`Engine::certify`]) and the certified normal
/// form of each clean one.
///
/// Produced by [`Engine::replay`] and extended in place by
/// [`Engine::append`]; all ids live in that engine's arena, so several
/// `ReplayState`s (e.g. the two sides of an equivalence query) share
/// sub-DAGs maximally.
///
/// Tuples live in one table: each name gets a dense id the first time the
/// state sees it, and the root, certified normal form and dirty flag are
/// columns indexed by that id, so an update hashes each name it touches
/// once and then works by id. The table also keeps the ids in sorted name
/// order; every iterator here, and every snapshot, walks that order.
///
/// The maintenance state machine per tuple (see `docs/ARCHITECTURE.md`):
/// replay/append **touch** a tuple, which marks it dirty and drops its
/// certified entry; [`Engine::certify`] normalizes the dirty tuples and
/// moves each certified one back to clean. Queries never change the
/// bookkeeping — they read through the engine's [`NfCache`], which
/// self-invalidates because a touched tuple's *root id* changed.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    tuples: TupleTable,
    base_atoms: BTreeMap<String, Atom>,
    txn_atoms: BTreeMap<String, Atom>,
    updates: usize,
}

/// One tuple's entry in a [`TupleTable`].
#[derive(Debug, Clone)]
struct Slot {
    name: Arc<str>,
    root: NodeId,
    nf: Option<NodeId>,
    dirty: bool,
}

/// The tuples of a [`ReplayState`], by dense `u32` id.
///
/// Invariants: `slots` and `index` describe the same ids, each name
/// allocated once and shared by its slot and `index`; between appends,
/// `order` holds every id exactly once, sorted by name (byte order);
/// `dirty` and `certified` count the slots with the flag set and with a
/// normal form on record.
#[derive(Debug, Clone, Default)]
struct TupleTable {
    slots: Vec<Slot>,
    // SipHash (std's default), not `uprov_core::FxHashMap`: tuple names come
    // from client logs, and a fixed hash would let them choose collisions.
    index: HashMap<Arc<str>, u32>,
    order: Vec<u32>,
    dirty: usize,
    certified: usize,
}

impl TupleTable {
    fn id(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    fn name(&self, id: u32) -> &str {
        &self.slots[id as usize].name
    }

    fn slot(&self, id: u32) -> &Slot {
        &self.slots[id as usize]
    }

    fn get(&self, name: &str) -> Option<&Slot> {
        self.id(name).map(|id| self.slot(id))
    }

    /// The id of `name`, allocating a fresh one (root `0`, clean, not
    /// certified) on first sight. A fresh id is not in `order` until
    /// [`TupleTable::merge_new`] runs.
    fn resolve(&mut self, name: &str) -> u32 {
        match self.id(name) {
            Some(id) => id,
            None => self.push(Slot {
                name: Arc::from(name),
                root: ExprArena::ZERO,
                nf: None,
                dirty: false,
            }),
        }
    }

    /// Adds the slot of an untracked name under the next id.
    fn push(&mut self, slot: Slot) -> u32 {
        let id = u32::try_from(self.slots.len()).expect("fewer than 2^32 tuples");
        self.index.insert(Arc::clone(&slot.name), id);
        self.dirty += usize::from(slot.dirty);
        self.certified += usize::from(slot.nf.is_some());
        self.slots.push(slot);
        id
    }

    /// Records a new provenance root for tuple `id`, dropping its
    /// certified normal form and marking it dirty.
    fn touch(&mut self, id: u32, root: NodeId) {
        let slot = &mut self.slots[id as usize];
        slot.root = root;
        if slot.nf.take().is_some() {
            self.certified -= 1;
        }
        if !slot.dirty {
            slot.dirty = true;
            self.dirty += 1;
        }
    }

    /// Records `nf` as tuple `id`'s certified normal form and marks it
    /// clean.
    fn certify(&mut self, id: u32, nf: NodeId) {
        let slot = &mut self.slots[id as usize];
        if slot.nf.replace(nf).is_none() {
            self.certified += 1;
        }
        if slot.dirty {
            slot.dirty = false;
            self.dirty -= 1;
        }
    }

    /// Merges the ids allocated since the last merge into `order`: sorts
    /// only the new names, then places each by binary search while moving
    /// every old id at most once — O(old + new · log old), no re-sort.
    fn merge_new(&mut self) {
        let old = self.order.len();
        if self.slots.len() == old {
            return;
        }
        let slots = &self.slots;
        let name = |id: u32| &*slots[id as usize].name;
        let mut fresh: Vec<u32> = (old..slots.len()).map(|i| i as u32).collect();
        fresh.sort_unstable_by(|&a, &b| name(a).cmp(name(b)));
        let order = &mut self.order;
        order.resize(slots.len(), 0);
        // Largest new name first: the old ids above new name `j` move up
        // by `j + 1`, the number of new names below them.
        let mut end = old;
        for (j, &id) in fresh.iter().enumerate().rev() {
            let pos = order[..end].partition_point(|&o| name(o) < name(id));
            order.copy_within(pos..end, pos + j + 1);
            order[pos + j] = id;
            end = pos;
        }
    }

    /// `(name, slot)` in sorted name order.
    fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Slot)> {
        self.order.iter().map(|&id| (self.name(id), self.slot(id)))
    }

    /// Dirty ids in sorted name order.
    fn dirty_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().copied().filter(|&id| self.slot(id).dirty)
    }
}

impl ReplayState {
    /// The current provenance of `tuple` ([`ExprArena::ZERO`] for tuples
    /// the log never touched and never declared).
    ///
    /// ```
    /// use uprov_engine::Engine;
    /// use uprov_core::ExprArena;
    ///
    /// let mut engine = Engine::new();
    /// let state = engine
    ///     .replay(&"begin t\ninsert x\ncommit\n".parse().unwrap())
    ///     .unwrap();
    /// assert_ne!(state.provenance("x"), ExprArena::ZERO);
    /// assert_eq!(state.provenance("never-mentioned"), ExprArena::ZERO);
    /// ```
    pub fn provenance(&self, tuple: &str) -> NodeId {
        self.tuples.get(tuple).map_or(ExprArena::ZERO, |s| s.root)
    }

    /// Tuple names with recorded provenance, in sorted order.
    pub fn tuple_names(&self) -> impl ExactSizeIterator<Item = &str> {
        self.tuples.iter().map(|(n, _)| n)
    }

    /// `(name, provenance)` pairs in sorted name order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = (&str, NodeId)> {
        self.tuples.iter().map(|(n, s)| (n, s.root))
    }

    /// The annotation atom of a replayed transaction.
    pub fn txn_atom(&self, name: &str) -> Option<Atom> {
        self.txn_atoms.get(name).copied()
    }

    /// The annotation atom of a declared base tuple.
    pub fn base_atom(&self, name: &str) -> Option<Atom> {
        self.base_atoms.get(name).copied()
    }

    /// `(name, atom)` pairs of every committed transaction, in sorted name
    /// order — the service layer walks these to build whole-log valuations.
    pub fn txn_atoms(&self) -> impl Iterator<Item = (&str, Atom)> {
        self.txn_atoms.iter().map(|(n, &a)| (n.as_str(), a))
    }

    /// `(name, atom)` pairs of every declared base tuple, in sorted name
    /// order.
    pub fn base_atoms(&self) -> impl Iterator<Item = (&str, Atom)> {
        self.base_atoms.iter().map(|(n, &a)| (n.as_str(), a))
    }

    /// Number of updates replayed into this state.
    pub fn update_count(&self) -> usize {
        self.updates
    }

    /// Tuples touched since the last [`Engine::certify`] (all of them
    /// right after a [`Engine::replay`]), in sorted order.
    ///
    /// ```
    /// use uprov_engine::Engine;
    ///
    /// let mut engine = Engine::new();
    /// let mut state = engine
    ///     .replay(&"base x\nbegin t\ninsert y\ncommit\n".parse().unwrap())
    ///     .unwrap();
    /// assert_eq!(state.dirty_tuples().collect::<Vec<_>>(), ["x", "y"]);
    /// engine.certify(&mut state);
    /// assert_eq!(state.dirty_count(), 0);
    /// ```
    pub fn dirty_tuples(&self) -> impl Iterator<Item = &str> {
        self.tuples.dirty_ids().map(|id| self.tuples.name(id))
    }

    /// Number of dirty tuples (see [`ReplayState::dirty_tuples`]).
    pub fn dirty_count(&self) -> usize {
        self.tuples.dirty
    }

    /// True if `tuple` was touched since the last [`Engine::certify`].
    pub fn is_dirty(&self, tuple: &str) -> bool {
        self.tuples.get(tuple).is_some_and(|s| s.dirty)
    }

    /// The certified normal form of `tuple`'s current provenance, if the
    /// tuple is clean (certified and untouched since). Dirty or
    /// never-certified tuples report `None`; run [`Engine::certify`] to
    /// (re)populate.
    ///
    /// ```
    /// use uprov_engine::Engine;
    ///
    /// let mut engine = Engine::new();
    /// let mut state = engine
    ///     .replay(&"begin t\ninsert x\ndelete x\ncommit\n".parse().unwrap())
    ///     .unwrap();
    /// assert_eq!(state.certified_nf("x"), None, "dirty after replay");
    /// engine.certify(&mut state);
    /// let nf = state.certified_nf("x").expect("certified");
    /// // x was inserted then deleted by the same txn: t − t is its own NF.
    /// assert_eq!(engine.render(nf), "t - t");
    /// ```
    pub fn certified_nf(&self, tuple: &str) -> Option<NodeId> {
        self.tuples.get(tuple).and_then(|s| s.nf)
    }

    /// Number of tuples with a certified normal form on record.
    pub fn certified_count(&self) -> usize {
        self.tuples.certified
    }

    /// Exports the full state as plain serializable data — every section
    /// in sorted name order, so exports are deterministic and a re-import
    /// takes the tuple order as given. The storage layer's snapshot format
    /// is built on this.
    pub fn to_snapshot(&self) -> StateSnapshot {
        // One walk of the table; each vector allocated at its exact length.
        let mut snap = StateSnapshot {
            tuples: Vec::with_capacity(self.tuples.order.len()),
            base_atoms: self
                .base_atoms
                .iter()
                .map(|(n, &a)| (n.clone(), a))
                .collect(),
            txn_atoms: self
                .txn_atoms
                .iter()
                .map(|(n, &a)| (n.clone(), a))
                .collect(),
            updates: self.updates as u64,
            certified: Vec::with_capacity(self.tuples.certified),
            dirty: Vec::with_capacity(self.tuples.dirty),
        };
        for (name, slot) in self.tuples.iter() {
            snap.tuples.push((name.to_owned(), slot.root));
            if let Some(nf) = slot.nf {
                snap.certified.push((name.to_owned(), nf));
            }
            if slot.dirty {
                snap.dirty.push(name.to_owned());
            }
        }
        snap
    }

    /// Rebuilds a state from a [`StateSnapshot`] — the inverse of
    /// [`ReplayState::to_snapshot`].
    ///
    /// Contract: the snapshot must describe a state of the engine the
    /// result will be used with, exactly as
    /// [`to_snapshot`](ReplayState::to_snapshot) exported it — every
    /// [`NodeId`] live in its arena, every [`Atom`] live in its table with
    /// the right kind, tuple and dirty names strictly sorted, and every
    /// certified or dirty name a tracked tuple that is not both. The
    /// storage layer enforces this with checksums plus range and order
    /// validation before calling in; a fabricated snapshot yields a state
    /// whose queries are garbage (or panic on a dangling id).
    pub fn from_snapshot(snap: StateSnapshot) -> ReplayState {
        let n = snap.tuples.len();
        let mut tuples = TupleTable {
            slots: Vec::with_capacity(n),
            index: HashMap::with_capacity(n),
            ..TupleTable::default()
        };
        // Tuples arrive in sorted order, so ids follow it; the certified
        // and dirty names are sorted subsets, placed by one merge-walk.
        let mut certified = snap.certified.into_iter().peekable();
        let mut dirty = snap.dirty.into_iter().peekable();
        for (name, root) in snap.tuples {
            tuples.push(Slot {
                nf: certified.next_if(|(c, _)| *c == name).map(|(_, nf)| nf),
                dirty: dirty.next_if(|d| *d == name).is_some(),
                name: Arc::from(name),
                root,
            });
        }
        tuples.order = (0..tuples.slots.len() as u32).collect();
        ReplayState {
            tuples,
            base_atoms: snap.base_atoms.into_iter().collect(),
            txn_atoms: snap.txn_atoms.into_iter().collect(),
            updates: snap.updates as usize,
        }
    }
}

/// A plain-data image of one [`ReplayState`]: what
/// [`ReplayState::to_snapshot`] exports and
/// [`ReplayState::from_snapshot`] rebuilds. All vectors are in sorted
/// name order. This is the serialization boundary — the engine defines
/// *what* durable state is, the storage layer defines the bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateSnapshot {
    /// `(tuple name, provenance root)` for every tracked tuple.
    pub tuples: Vec<(String, NodeId)>,
    /// `(tuple name, atom)` for every declared base tuple.
    pub base_atoms: Vec<(String, Atom)>,
    /// `(transaction name, annotation atom)` for every replayed txn.
    pub txn_atoms: Vec<(String, Atom)>,
    /// Number of updates replayed into the state.
    pub updates: u64,
    /// `(tuple name, certified normal form)` for every clean tuple.
    pub certified: Vec<(String, NodeId)>,
    /// Names of the dirty tuples.
    pub dirty: Vec<String>,
}

/// One whole-database concrete answer: `(tuple name, value)` for every
/// tracked tuple, in sorted name order — what [`Engine::eval_tuples`]
/// returns.
pub type TupleRows<'s, V> = Vec<(&'s str, V)>;

/// The whole database evaluated once under one structure and valuation,
/// ready for one-atom what-ifs: [`Engine::what_if`]'s answer.
/// [`zeroed`](WhatIf::zeroed) equals [`Engine::abort_eval`] /
/// [`Engine::delete_base_eval`] under the same valuation, at the cost of
/// the nodes whose value the zeroed atom changes.
#[derive(Debug)]
pub struct WhatIf<'a, S: UpdateStructure> {
    arena: &'a ExprArena,
    structure: &'a S,
    /// Tuple names in sorted order; root `i` of `baseline` is `names[i]`.
    pub names: Vec<&'a str>,
    /// Every tuple's provenance evaluated under the valuation.
    pub baseline: EvalBaseline<S::Value>,
}

impl<'a, S: UpdateStructure> WhatIf<'a, S> {
    /// The database under the valuation itself, as [`Engine::eval_tuples`]
    /// answers it.
    pub fn rows(&self) -> TupleRows<'a, S::Value> {
        self.names
            .iter()
            .copied()
            .zip(self.baseline.roots().cloned())
            .collect()
    }

    /// The database with `atom` mapped to `0`: [`rows`](Self::rows) with
    /// the tuples the atom's cone reaches re-evaluated.
    pub fn zeroed(&self, atom: Atom) -> TupleRows<'a, S::Value> {
        let mut rows = self.rows();
        let zero = self.structure.zero();
        for (i, v) in self
            .baseline
            .with_atom(self.arena, self.structure, atom, zero)
        {
            rows[i].1 = v;
        }
        rows
    }
}

/// Per-tuple answer of a symbolic abort or deletion-propagation query: the
/// tuple's provenance with the aborted transaction (or deleted base tuple)
/// zeroed out and re-normalized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicTuple {
    /// The tuple's name.
    pub name: String,
    /// Normalized provenance after the substitution. [`ExprArena::ZERO`]
    /// means the tuple is *certainly* absent in every structure.
    pub provenance: NodeId,
    /// True if normalization exhausted its budget (the id is then
    /// best-effort; see [`uprov_core::NfOutcome`]).
    pub saturated: bool,
}

/// The verdict of a log-equivalence query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Equivalence {
    /// Tuples whose provenance normal forms differ — witnesses of
    /// inequivalence.
    pub differing: Vec<String>,
    /// Tuples where normalization saturated with differing best-effort ids,
    /// so neither equivalence nor inequivalence was proven (never populated
    /// for the terminating Figure 3 system; surfaced rather than silently
    /// mis-reported).
    pub undecided: Vec<String>,
}

impl Equivalence {
    /// True iff every tuple's provenance was proven equivalent.
    ///
    /// ```
    /// use uprov_engine::Equivalence;
    ///
    /// let clean = Equivalence { differing: vec![], undecided: vec![] };
    /// assert!(clean.is_equivalent());
    /// let witnessed = Equivalence { differing: vec!["x".into()], undecided: vec![] };
    /// assert!(!witnessed.is_equivalent());
    /// ```
    pub fn is_equivalent(&self) -> bool {
        self.differing.is_empty() && self.undecided.is_empty()
    }
}

/// Summary of one [`Engine::certify`] sweep over a state's dirty set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certification {
    /// Tuples whose normal form was certified and recorded this sweep.
    pub certified: usize,
    /// Tuples whose normalization exhausted its budget — left dirty
    /// and unrecorded (a best-effort id must never enter the cache).
    pub saturated: Vec<String>,
}

/// What the already-accepted logs of a batch under validation will have
/// added once they are applied — the part of "the state after the earlier
/// logs" that validation asks about, kept beside the committed state
/// instead of being written into it.
#[derive(Default)]
struct Overlay<'l> {
    /// Names the apply pass interns into the atom table: base tuples (as
    /// `Tuple`) and transactions (as `Txn`). Other tuple names never get
    /// an atom, so they cannot clash with a later log's kinds.
    atoms: HashMap<&'l str, AtomKind>,
    /// Tuple names the apply pass starts tracking — every `Tuple`-kinded
    /// name of an accepted log; a later `base` line for one is late.
    tuples: HashSet<&'l str>,
}

impl<'l> Overlay<'l> {
    /// Merges an accepted log, given the kinds [`Engine::validate_over`]
    /// saw it assign (one kind per name, or it would have been rejected).
    fn accept(&mut self, log: &'l UpdateLog, kinds: HashMap<&'l str, AtomKind>) {
        for (name, kind) in kinds {
            match kind {
                AtomKind::Tuple => {
                    self.tuples.insert(name);
                }
                AtomKind::Txn => {
                    self.atoms.insert(name, kind);
                }
            }
        }
        for b in &log.base {
            self.atoms.insert(b, AtomKind::Tuple);
        }
    }
}

/// The replay engine: a long-lived [`AtomTable`] + [`ExprArena`] plus
/// pooled memo buffers and the persistent normal-form cache, shared across
/// every log replayed through it.
///
/// Replaying several logs through one engine puts their provenance in one
/// arena — the precondition for O(1) cross-log equivalence comparison,
/// maximal structure sharing, and normal-form cache hits across logs.
#[derive(Debug, Default)]
pub struct Engine {
    atoms: AtomTable,
    arena: ExprArena,
    nf_memo: NfMemo,
    nf_cache: NfCache,
    subst_memo: DenseMemo<NodeId>,
    // Persistent `(zeroed atom, root) ↦ substituted root` map: like normal
    // forms, substitution images are pure functions of the id in an
    // append-only arena, so repeated symbolic queries skip the O(union DAG)
    // substitution sweep for every root the cache has seen. Each image
    // carries its epoch, read from the `NfCache`'s clock, so the budget
    // valve ages both caches alike.
    subst_cache: FxHashMap<(Atom, NodeId), (NodeId, u64)>,
    // When set, the combined entry count of `nf_cache` + `subst_cache` is
    // pulled back under this budget at every safe point (end of
    // certify/query) by dropping the oldest epochs of both caches.
    cache_budget: Option<usize>,
}

impl Engine {
    /// An empty engine.
    ///
    /// ```
    /// use uprov_engine::Engine;
    ///
    /// let engine = Engine::new();
    /// assert!(engine.nf_cache().is_empty());
    /// ```
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds an engine around a deserialized atom table and arena —
    /// the restore path of the storage layer's snapshot format. Memo
    /// buffers and both caches start empty (they are volatile query
    /// state; the storage layer re-seeds certified normal forms through
    /// [`Engine::nf_cache_mut`] afterwards).
    ///
    /// Contract: `arena` and `atoms` must be mutually consistent — every
    /// [`uprov_core::Node::Atom`] in the arena refers to a live atom in
    /// the table. Snapshot decoding validates this before calling in.
    pub fn from_parts(atoms: AtomTable, arena: ExprArena) -> Engine {
        Engine {
            atoms,
            arena,
            ..Engine::default()
        }
    }

    /// The atom table (e.g. for pretty-printing exported provenance).
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// Mutable access to the normal-form cache, for re-seeding certified
    /// entries on snapshot restore. The
    /// [`NfCache::insert_certified`] contract applies unchanged: every
    /// inserted pair must be a true certified normal form *in this
    /// engine's arena* — a wrong entry silently poisons every later
    /// incremental query that cuts at it.
    pub fn nf_cache_mut(&mut self) -> &mut NfCache {
        &mut self.nf_cache
    }

    /// The expression arena holding every replayed log's provenance.
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// The persistent normal-form cache backing the incremental queries.
    /// Entries are keyed by arena id and stay valid for the engine's
    /// lifetime; [`NfCache::hits`]/[`NfCache::misses`] expose how much
    /// re-normalization the cache is absorbing.
    pub fn nf_cache(&self) -> &NfCache {
        &self.nf_cache
    }

    /// Caps the combined size of the normal-form and substitution caches:
    /// whenever the entry count exceeds `entries` at a safe point (the end
    /// of [`Engine::certify`] or of any cached query), the **oldest
    /// epochs** of both caches are dropped until the budget holds again.
    /// Every safe point closes one epoch, and an entry's epoch is the last
    /// one that inserted or hit it, so eviction is least-recently-used at
    /// epoch granularity. The entries the *current* query just produced or
    /// touched are never dropped (the budget may therefore briefly
    /// overshoot by one query's working set when the budget is smaller
    /// than a single query needs). `Some(0)` empties both caches of
    /// everything older.
    ///
    /// Eviction is always safe — both caches hold pure facts about arena
    /// ids, and a dropped fact is recomputed on next use — so the only cost
    /// of a tight budget is re-normalization work. `None` (the default)
    /// disables the valve; setting a budget enforces it immediately.
    ///
    /// ```
    /// use uprov_engine::Engine;
    ///
    /// let mut engine = Engine::new();
    /// engine.set_cache_budget(Some(10_000));
    /// assert_eq!(engine.cache_budget(), Some(10_000));
    /// ```
    pub fn set_cache_budget(&mut self, entries: Option<usize>) {
        self.cache_budget = entries;
        self.enforce_cache_budget();
    }

    /// The configured cache budget (see [`Engine::set_cache_budget`]).
    pub fn cache_budget(&self) -> Option<usize> {
        self.cache_budget
    }

    /// Combined entry count of the normal-form and substitution caches —
    /// the quantity [`Engine::set_cache_budget`] bounds.
    pub fn cached_entries(&self) -> usize {
        self.nf_cache.len() + self.subst_cache.len()
    }

    /// The safe-point hook: when over budget, keeps the newest whole
    /// epochs of both caches that fit and drops the rest in one sweep, then
    /// opens a new epoch for whatever the next query inserts. Called at the
    /// end of `certify`, of every cached query path, and of
    /// [`Engine::set_cache_budget`].
    fn enforce_cache_budget(&mut self) {
        if let Some(budget) = self.cache_budget.filter(|&b| self.cached_entries() > b) {
            let now = self.nf_cache.epoch();
            let mut per_epoch: BTreeMap<u64, usize> = BTreeMap::new();
            let subst_tags = self.subst_cache.values().map(|&(_, tag)| tag);
            for tag in self.nf_cache.entry_epochs().chain(subst_tags) {
                *per_epoch.entry(tag).or_default() += 1;
            }
            // The current epoch always stays, even over budget: dropping
            // what this query just produced would make the *next* identical
            // query recompute everything.
            let (mut kept, mut oldest_kept) = (0, now);
            for (&tag, &n) in per_epoch.iter().rev() {
                kept += n;
                if tag < now && kept > budget {
                    break;
                }
                oldest_kept = tag;
            }
            self.nf_cache.evict_before(oldest_kept);
            self.subst_cache
                .retain(|_, &mut (_, tag)| tag >= oldest_kept);
        }
        self.nf_cache.advance_epoch();
    }

    /// Renders a provenance id in the paper's notation
    /// ([`ExprArena::display`]).
    ///
    /// ```
    /// use uprov_engine::Engine;
    ///
    /// let mut engine = Engine::new();
    /// let state = engine
    ///     .replay(&"base x\nbegin t\nmodify y <- x\ncommit\n".parse().unwrap())
    ///     .unwrap();
    /// assert_eq!(engine.render(state.provenance("y")), "x .M t");
    /// ```
    pub fn render(&self, id: NodeId) -> String {
        self.arena.display(id, &self.atoms).to_string()
    }

    fn tuple_atom(&mut self, name: &str) -> Result<Atom, ReplayError> {
        self.kinded_atom(name, AtomKind::Tuple)
    }

    fn kinded_atom(&mut self, name: &str, kind: AtomKind) -> Result<Atom, ReplayError> {
        match self.atoms.lookup(name) {
            Some(a) if self.atoms.kind(a) != kind => Err(ReplayError::NameKindClash {
                name: name.to_owned(),
            }),
            Some(a) => Ok(a),
            None => Ok(self.atoms.named(name, kind)),
        }
    }

    /// Read-only kind check: like [`Engine::kinded_atom`] but never interns
    /// — the validation pass of [`Engine::append`] uses it so a rejected
    /// log leaves the atom table exactly as it was (otherwise a name from a
    /// failed append would be pinned to a kind forever and could make a
    /// later, entirely valid log clash spuriously).
    fn check_kind(&self, name: &str, kind: AtomKind) -> Result<(), ReplayError> {
        match self.atoms.lookup(name) {
            Some(a) if self.atoms.kind(a) != kind => Err(ReplayError::NameKindClash {
                name: name.to_owned(),
            }),
            _ => Ok(()),
        }
    }

    /// Replays a log into per-tuple provenance, interning incrementally
    /// into the engine's arena. Every touched tuple starts **dirty**; run
    /// [`Engine::certify`] to populate the state's normal-form map, and
    /// [`Engine::append`] to extend the state with further transactions.
    ///
    /// Semantics per update by transaction `T` (annotation atom `p`):
    ///
    /// * `insert x` — `prov(x) ← prov(x) +I p`,
    /// * `delete x` — `prov(x) ← prov(x) − p`,
    /// * `modify t <- s…` — snapshot the sources, then
    ///   `prov(t) ← prov(t) +M ((Σ prov(sᵢ)) ·M p)` and every source
    ///   `s ≠ t` is consumed: `prov(s) ← prov(s) − p`.
    ///
    /// Base tuples start as their own atom; all other tuples start at `0`,
    /// so the zero axioms prune no-op updates (deleting an absent tuple,
    /// modifying from absent sources) at intern time.
    pub fn replay(&mut self, log: &UpdateLog) -> Result<ReplayState, ReplayError> {
        let mut state = ReplayState::default();
        self.append(&mut state, log)?;
        Ok(state)
    }

    /// Appends a log to an existing state in place — the maintenance
    /// counterpart of [`Engine::replay`]: only the tuples the appended
    /// transactions touch are invalidated (marked dirty, certified entry
    /// dropped); everything else keeps its certified normal form, so the
    /// next NF-backed query re-normalizes O(delta) roots instead of the
    /// whole database.
    ///
    /// Re-using a transaction name continues the *same* transaction (same
    /// annotation atom), matching the textual format's semantics. `base`
    /// lines may declare **new** tuples only; re-declaring a tracked tuple
    /// is a [`ReplayError::LateBase`]. The append is atomic: on `Err`
    /// neither the state nor the engine's atom table changes. Returns the
    /// number of updates applied.
    ///
    /// ```
    /// use uprov_engine::{Engine, UpdateLog};
    ///
    /// let mut engine = Engine::new();
    /// let log: UpdateLog = "base x\nbegin t1\ninsert y\ncommit\n".parse().unwrap();
    /// let mut state = engine.replay(&log).unwrap();
    /// engine.certify(&mut state);
    ///
    /// let delta: UpdateLog = "begin t2\ndelete y\ncommit\n".parse().unwrap();
    /// assert_eq!(engine.append(&mut state, &delta).unwrap(), 1);
    /// assert!(state.is_dirty("y"), "touched by the append");
    /// assert!(!state.is_dirty("x"), "untouched: certified NF survives");
    /// assert_eq!(state.update_count(), 2);
    /// ```
    pub fn append(
        &mut self,
        state: &mut ReplayState,
        log: &UpdateLog,
    ) -> Result<usize, ReplayError> {
        self.validate_append(state, log)?;
        // Apply pass: infallible (all atoms validated above). Each op
        // resolves its tuple names to ids once, then works by id.
        let before = state.updates;
        let tuples = &mut state.tuples;
        for b in &log.base {
            let atom = self.tuple_atom(b).expect("validated");
            state.base_atoms.insert(b.clone(), atom);
            let root = self.arena.atom(atom);
            let id = tuples.resolve(b);
            tuples.touch(id, root);
        }
        let mut src_ids: Vec<u32> = Vec::new();
        for txn in &log.txns {
            let p = self
                .kinded_atom(&txn.name, AtomKind::Txn)
                .expect("validated");
            state.txn_atoms.insert(txn.name.clone(), p);
            let pa = self.arena.atom(p);
            for op in &txn.ops {
                state.updates += 1;
                match op {
                    Op::Insert { tuple } => {
                        let id = tuples.resolve(tuple);
                        let next = self.arena.plus_i(tuples.slot(id).root, pa);
                        tuples.touch(id, next);
                    }
                    Op::Delete { tuple } => {
                        let id = tuples.resolve(tuple);
                        let next = self.arena.minus(tuples.slot(id).root, pa);
                        tuples.touch(id, next);
                    }
                    Op::Modify { target, sources } => {
                        // Snapshot source provenance before any mutation of
                        // this op takes effect.
                        src_ids.clear();
                        src_ids.extend(sources.iter().map(|s| tuples.resolve(s)));
                        let srcs: Vec<NodeId> =
                            src_ids.iter().map(|&id| tuples.slot(id).root).collect();
                        let sigma = self.arena.sum(srcs);
                        let dot = self.arena.dot_m(sigma, pa);
                        let target = tuples.resolve(target);
                        let old_target = tuples.slot(target).root;
                        for &s in &src_ids {
                            if s == target {
                                continue;
                            }
                            // Consume the source. Unseen sources are absent
                            // (0), so the zero axiom records them as ZERO —
                            // present in the state for queries to report.
                            let next = self.arena.minus(tuples.slot(s).root, pa);
                            tuples.touch(s, next);
                        }
                        let next = self.arena.plus_m(old_target, dot);
                        tuples.touch(target, next);
                    }
                }
            }
        }
        tuples.merge_new();
        Ok(state.updates - before)
    }

    /// The validation pass of [`Engine::append`], exposed so callers that
    /// must do work *between* validation and application — a write-ahead
    /// log, most importantly, which has to persist the delta before the
    /// engine applies it — can establish up front that the apply pass
    /// cannot fail. A log this method accepts is guaranteed to apply: the
    /// subsequent [`Engine::append`] returns `Ok` provided neither the
    /// state nor the engine changed in between.
    ///
    /// Checks every name resolves to a consistently kinded atom and no
    /// base tuple is re-declared, without mutating the state or the atom
    /// table (kind checks peek, they never intern), so a rejected log
    /// leaves both exactly as they were.
    pub fn validate_append(&self, state: &ReplayState, log: &UpdateLog) -> Result<(), ReplayError> {
        self.validate_over(state, &Overlay::default(), log)
            .map(drop)
    }

    /// [`Engine::validate_append`] for a batch that will be applied in
    /// order: verdict *i* is what `validate_append` would answer had every
    /// earlier **accepted** log of the batch already been appended (a
    /// rejected log contributes nothing). Pure — neither the state, the
    /// atom table nor the arena is touched — so a write-ahead log can
    /// validate a whole group commit, persist it, and only then apply the
    /// accepted logs with [`Engine::append`], each guaranteed to succeed.
    ///
    /// ```
    /// use uprov_engine::{Engine, ReplayError, ReplayState, UpdateLog};
    ///
    /// let engine = Engine::new();
    /// let logs: Vec<UpdateLog> = ["base a\n", "base a\n", "begin t\ninsert a\ncommit\n"]
    ///     .iter()
    ///     .map(|s| s.parse().unwrap())
    ///     .collect();
    /// let verdicts = engine.validate_batch(&ReplayState::default(), &logs);
    /// assert!(verdicts[0].is_ok());
    /// // The second log re-declares what the first one (same batch) declared.
    /// assert!(matches!(&verdicts[1], Err(ReplayError::LateBase { name }) if name == "a"));
    /// assert!(verdicts[2].is_ok());
    /// assert!(engine.atoms().is_empty(), "validation interns nothing");
    /// ```
    pub fn validate_batch(
        &self,
        state: &ReplayState,
        logs: &[UpdateLog],
    ) -> Vec<Result<(), ReplayError>> {
        let mut overlay = Overlay::default();
        logs.iter()
            .enumerate()
            .map(|(i, log)| {
                let kinds = self.validate_over(state, &overlay, log)?;
                // The last log has no successor to show anything to — and
                // the batch of one is the common case.
                if i + 1 < logs.len() {
                    overlay.accept(log, kinds);
                }
                Ok(())
            })
            .collect()
    }

    /// Validates one log against the committed state plus `overlay` (what
    /// the batch's earlier accepted logs will add). Returns the kinds the
    /// log itself assigns, for [`Overlay::accept`].
    fn validate_over<'l>(
        &self,
        state: &ReplayState,
        overlay: &Overlay<'l>,
        log: &'l UpdateLog,
    ) -> Result<HashMap<&'l str, AtomKind>, ReplayError> {
        // `pending` tracks the kinds this log itself assigns, catching
        // clashes internal to the log (two uses of one fresh name under
        // different kinds) that the table alone cannot see.
        let mut pending: HashMap<&str, AtomKind> = HashMap::new();
        let mut check = |name: &'l str, kind: AtomKind| -> Result<(), ReplayError> {
            self.check_kind(name, kind)?;
            let differs = |seen: Option<AtomKind>| seen.is_some_and(|k| k != kind);
            if differs(overlay.atoms.get(name).copied()) || differs(pending.insert(name, kind)) {
                return Err(ReplayError::NameKindClash {
                    name: name.to_owned(),
                });
            }
            Ok(())
        };
        for b in &log.base {
            if state.tuples.id(b).is_some() || overlay.tuples.contains(b.as_str()) {
                return Err(ReplayError::LateBase { name: b.clone() });
            }
            check(b, AtomKind::Tuple)?;
        }
        for txn in &log.txns {
            check(&txn.name, AtomKind::Txn)?;
            for op in &txn.ops {
                match op {
                    Op::Insert { tuple } | Op::Delete { tuple } => {
                        check(tuple, AtomKind::Tuple)?;
                    }
                    Op::Modify { target, sources } => {
                        check(target, AtomKind::Tuple)?;
                        for s in sources {
                            check(s, AtomKind::Tuple)?;
                        }
                    }
                }
            }
        }
        Ok(pending)
    }

    /// Normalizes every dirty tuple of `state` (incrementally — certified
    /// sub-DAGs are cut, clean tuples are not revisited at all) in sorted
    /// name order, records each certified normal form in the state's tuple
    /// table and marks the tuple clean. Tuples whose normalization saturated stay dirty and
    /// are reported in [`Certification::saturated`] instead of being
    /// recorded with a best-effort id.
    ///
    /// Certification is a *maintenance* operation: queries work without it
    /// (they warm the same engine-level cache), but a certify after each
    /// append batch keeps [`ReplayState::certified_nf`] total and makes the
    /// first post-append query O(delta) too.
    ///
    /// ```
    /// use uprov_engine::{Engine, UpdateLog};
    ///
    /// let mut engine = Engine::new();
    /// let log: UpdateLog = "base x\nbegin t\ninsert y\ninsert y\ncommit\n".parse().unwrap();
    /// let mut state = engine.replay(&log).unwrap();
    /// let cert = engine.certify(&mut state);
    /// assert_eq!(cert.certified, 2);
    /// assert!(cert.saturated.is_empty());
    /// // (y +I t) +I t certifies to its canonical spine, x to itself.
    /// assert_eq!(state.certified_nf("x"), Some(state.provenance("x")));
    /// ```
    pub fn certify(&mut self, state: &mut ReplayState) -> Certification {
        let dirty: Vec<u32> = state.tuples.dirty_ids().collect();
        let roots: Vec<NodeId> = dirty.iter().map(|&id| state.tuples.slot(id).root).collect();
        let outcomes = nf_roots_incremental_in(
            &mut self.arena,
            &roots,
            &mut self.nf_cache,
            &mut self.nf_memo,
        );
        let mut cert = Certification {
            certified: 0,
            saturated: Vec::new(),
        };
        for (id, out) in dirty.into_iter().zip(outcomes) {
            if out.saturated {
                cert.saturated.push(state.tuples.name(id).to_owned());
            } else {
                state.tuples.certify(id, out.id);
                cert.certified += 1;
            }
        }
        self.enforce_cache_budget();
        cert
    }

    /// The one path behind the symbolic queries: substitute each `zeroed`
    /// atom `↦ 0` into every tuple, then normalize all images in one
    /// incremental call. Substitution images and normal forms are pure
    /// functions of the id, so both are cached and a repeated query against
    /// an appended log does O(delta) work. One view per atom, in order.
    fn symbolic_zeroed_many(
        &mut self,
        state: &ReplayState,
        zeroed: &[Atom],
    ) -> Vec<Vec<SymbolicTuple>> {
        let (names, roots): (Vec<&str>, Vec<NodeId>) = state.tuples().unzip();
        if names.is_empty() {
            return vec![Vec::new(); zeroed.len()];
        }
        let mut images: Vec<NodeId> = Vec::with_capacity(roots.len() * zeroed.len());
        let epoch = self.nf_cache.epoch();
        for &z in zeroed {
            let map = HashMap::from([(z, ExprArena::ZERO)]);
            let base = images.len();
            // One probe per root; a hit is re-tagged with the current
            // epoch, so a repeated query's working set outlives budget
            // eviction.
            let mut miss_ix: Vec<usize> = Vec::new();
            let mut misses: Vec<NodeId> = Vec::new();
            for (i, &r) in roots.iter().enumerate() {
                match self.subst_cache.get_mut(&(z, r)) {
                    Some((img, tag)) => {
                        *tag = epoch;
                        images.push(*img);
                    }
                    None => {
                        miss_ix.push(i);
                        misses.push(r);
                        images.push(r); // placeholder, overwritten below
                    }
                }
            }
            if !misses.is_empty() {
                let substituted =
                    self.arena
                        .substitute_roots_in(&misses, &map, &mut self.subst_memo);
                for ((&ix, &r), img) in miss_ix.iter().zip(&misses).zip(substituted) {
                    self.subst_cache.insert((z, r), (img, epoch));
                    images[base + ix] = img;
                }
            }
        }
        let outcomes = nf_roots_incremental_in(
            &mut self.arena,
            &images,
            &mut self.nf_cache,
            &mut self.nf_memo,
        );
        self.enforce_cache_budget();
        outcomes
            .chunks_exact(names.len())
            .map(|view| Self::symbolic_view(&names, view))
            .collect()
    }

    /// One symbolic view: each tuple name with its normalization outcome.
    fn symbolic_view(names: &[&str], outcomes: &[NfOutcome]) -> Vec<SymbolicTuple> {
        names
            .iter()
            .zip(outcomes)
            .map(|(name, nf)| SymbolicTuple {
                name: (*name).to_owned(),
                provenance: nf.id,
                saturated: nf.saturated,
            })
            .collect()
    }

    /// The symbolic abort query: substitutes `txn ↦ 0` into every tuple's
    /// provenance and re-normalizes — "the database if `txn` aborts", as
    /// expressions over the surviving annotations (Section 4.1's
    /// specialization, kept symbolic). Normalization is incremental:
    /// repeated queries against a growing log re-normalize only the tuples
    /// whose provenance changed since the cache last saw them.
    ///
    /// A [`SymbolicTuple::provenance`] of [`ExprArena::ZERO`] proves the
    /// tuple absent under *every* Update-Structure; evaluate under a
    /// concrete structure ([`Engine::abort_eval`]) for the per-structure
    /// answer.
    ///
    /// ```
    /// use uprov_engine::{Engine, UpdateLog};
    /// use uprov_core::ExprArena;
    ///
    /// let mut engine = Engine::new();
    /// let log: UpdateLog = "base x\nbegin t\nmodify y <- x\ncommit\n".parse().unwrap();
    /// let state = engine.replay(&log).unwrap();
    /// let view = engine.abort_symbolic(&state, "t").unwrap();
    /// for tuple in &view {
    ///     match tuple.name.as_str() {
    ///         "x" => assert_eq!(engine.render(tuple.provenance), "x"),
    ///         "y" => assert_eq!(tuple.provenance, ExprArena::ZERO),
    ///         _ => unreachable!(),
    ///     }
    /// }
    /// ```
    pub fn abort_symbolic(
        &mut self,
        state: &ReplayState,
        txn: &str,
    ) -> Result<Vec<SymbolicTuple>, QueryError> {
        Ok(self.abort_symbolic_batch(state, &[txn])?.remove(0))
    }

    /// [`Engine::abort_symbolic`] bypassing the normal-form cache: every
    /// substituted root is normalized from scratch. This is the validation
    /// and benchmarking baseline for the incremental path (the two must
    /// agree id-for-id; the append-then-query guard in `tests/guards.rs`
    /// holds the speedup) —
    /// production callers want [`Engine::abort_symbolic`].
    pub fn abort_symbolic_uncached(
        &mut self,
        state: &ReplayState,
        txn: &str,
    ) -> Result<Vec<SymbolicTuple>, QueryError> {
        let p = state.txn_atom(txn).ok_or_else(|| QueryError::UnknownTxn {
            name: txn.to_owned(),
        })?;
        let (names, roots): (Vec<&str>, Vec<NodeId>) = state.tuples().unzip();
        let map = HashMap::from([(p, ExprArena::ZERO)]);
        let images = self
            .arena
            .substitute_roots_in(&roots, &map, &mut self.subst_memo);
        let outcomes = nf_roots_in(&mut self.arena, &images, &mut self.nf_memo);
        Ok(Self::symbolic_view(&names, &outcomes))
    }

    /// [`Engine::abort_symbolic`] for a coalesced burst of transactions:
    /// one substitution-cache sweep per transaction, one shared incremental
    /// normalization batch across all of them. Returns one symbolic view
    /// per transaction, in `txns` order ([`Engine::abort_symbolic`] is the
    /// batch of one) — the service layer's writer turns a queue of
    /// concurrent abort requests into exactly this call.
    ///
    /// Name resolution is all-or-nothing: any unknown transaction fails
    /// the whole batch before any work happens.
    pub fn abort_symbolic_batch(
        &mut self,
        state: &ReplayState,
        txns: &[&str],
    ) -> Result<Vec<Vec<SymbolicTuple>>, QueryError> {
        let atoms = txns
            .iter()
            .map(|&txn| {
                state.txn_atom(txn).ok_or_else(|| QueryError::UnknownTxn {
                    name: txn.to_owned(),
                })
            })
            .collect::<Result<Vec<Atom>, QueryError>>()?;
        Ok(self.symbolic_zeroed_many(state, &atoms))
    }

    /// The symbolic deletion-propagation query: substitutes the base
    /// tuple's atom `↦ 0` into every tuple's provenance and re-normalizes
    /// (incrementally, like [`Engine::abort_symbolic`]) — "the database if
    /// `tuple` had never been in the initial database", as expressions
    /// over the surviving annotations. [`ExprArena::ZERO`] proves a tuple
    /// certainly deleted with it; [`Engine::delete_base_eval`] is the
    /// per-structure counterpart.
    ///
    /// ```
    /// use uprov_engine::{Engine, UpdateLog};
    /// use uprov_core::ExprArena;
    ///
    /// let mut engine = Engine::new();
    /// let log: UpdateLog = "base x\nbegin t\nmodify y <- x\ncommit\n".parse().unwrap();
    /// let state = engine.replay(&log).unwrap();
    /// let view = engine.delete_base_symbolic(&state, "x").unwrap();
    /// // y was derived solely from x: deleting x certainly deletes y.
    /// let y = view.iter().find(|t| t.name == "y").unwrap();
    /// assert_eq!(y.provenance, ExprArena::ZERO);
    /// ```
    pub fn delete_base_symbolic(
        &mut self,
        state: &ReplayState,
        tuple: &str,
    ) -> Result<Vec<SymbolicTuple>, QueryError> {
        let a = state
            .base_atom(tuple)
            .ok_or_else(|| QueryError::UnknownTuple {
                name: tuple.to_owned(),
            })?;
        Ok(self.symbolic_zeroed_many(state, &[a]).remove(0))
    }

    /// Evaluates every tuple under `structure` and an explicit valuation —
    /// the raw "what does the database look like?" query. One
    /// [`eval_roots_in`] sweep: shared sub-DAGs are computed once across
    /// all tuples. Takes `&self`, like every concrete evaluation: it only
    /// reads the arena. For many one-atom what-ifs under one valuation, see
    /// [`Engine::what_if`].
    ///
    /// ```
    /// use uprov_engine::Engine;
    /// use uprov_core::Valuation;
    /// use uprov_structures::Bool;
    ///
    /// let mut engine = Engine::new();
    /// let state = engine
    ///     .replay(&"base x\nbegin t\ndelete x\ncommit\n".parse().unwrap())
    ///     .unwrap();
    /// let rows = engine.eval_tuples(&state, &Bool, &Valuation::constant(true));
    /// assert_eq!(rows, [("x", false)], "x was deleted");
    /// ```
    pub fn eval_tuples<'s, S: UpdateStructure>(
        &self,
        state: &'s ReplayState,
        structure: &S,
        valuation: &Valuation<S::Value>,
    ) -> TupleRows<'s, S::Value> {
        let (names, roots): (Vec<&str>, Vec<NodeId>) = state.tuples().unzip();
        let values = eval_roots_in(
            &self.arena,
            &roots,
            structure,
            valuation,
            &mut DenseMemo::new(),
        );
        names.into_iter().zip(values).collect()
    }

    /// The concrete abort query: every tuple's value under `structure`
    /// when `txn` aborts (its atom maps to `0`) and everything else takes
    /// `present`.
    ///
    /// ```
    /// use uprov_engine::Engine;
    /// use uprov_structures::Bool;
    ///
    /// let mut engine = Engine::new();
    /// let state = engine
    ///     .replay(&"begin t\ninsert x\ncommit\n".parse().unwrap())
    ///     .unwrap();
    /// let rows = engine.abort_eval(&state, "t", &Bool, true).unwrap();
    /// assert_eq!(rows, [("x", false)], "x exists only through t");
    /// ```
    pub fn abort_eval<'s, S: UpdateStructure>(
        &self,
        state: &'s ReplayState,
        txn: &str,
        structure: &S,
        present: S::Value,
    ) -> Result<TupleRows<'s, S::Value>, QueryError> {
        let p = state.txn_atom(txn).ok_or_else(|| QueryError::UnknownTxn {
            name: txn.to_owned(),
        })?;
        let val = Valuation::constant(present).with(p, structure.zero());
        Ok(self.eval_tuples(state, structure, &val))
    }

    /// The deletion-propagation query: every tuple's value under
    /// `structure` when the base tuple `tuple` is deleted from the initial
    /// database (its atom maps to `0`) and everything else takes `present`.
    ///
    /// ```
    /// use uprov_engine::Engine;
    /// use uprov_structures::Bool;
    ///
    /// let mut engine = Engine::new();
    /// let state = engine
    ///     .replay(&"base x\nbegin t\nmodify y <- x\ncommit\n".parse().unwrap())
    ///     .unwrap();
    /// let rows = engine.delete_base_eval(&state, "x", &Bool, true).unwrap();
    /// assert!(rows.iter().all(|(_, alive)| !alive), "y dies with x");
    /// ```
    pub fn delete_base_eval<'s, S: UpdateStructure>(
        &self,
        state: &'s ReplayState,
        tuple: &str,
        structure: &S,
        present: S::Value,
    ) -> Result<TupleRows<'s, S::Value>, QueryError> {
        let a = state
            .base_atom(tuple)
            .ok_or_else(|| QueryError::UnknownTuple {
                name: tuple.to_owned(),
            })?;
        let val = Valuation::constant(present).with(a, structure.zero());
        Ok(self.eval_tuples(state, structure, &val))
    }

    /// Evaluates every tuple under `structure` and `valuation` once and
    /// keeps the result, so that each one-atom what-if after it — abort a
    /// transaction, delete a base tuple — re-evaluates only that atom's
    /// upward cone ([`EvalBaseline`]). See [`WhatIf`].
    pub fn what_if<'a, S: UpdateStructure>(
        &'a self,
        state: &'a ReplayState,
        structure: &'a S,
        valuation: &Valuation<S::Value>,
    ) -> WhatIf<'a, S> {
        let (names, roots): (Vec<&str>, Vec<NodeId>) = state.tuples().unzip();
        WhatIf {
            arena: &self.arena,
            structure,
            baseline: EvalBaseline::new(&self.arena, &roots, structure, valuation),
            names,
        }
    }

    /// Decides whether two replayed logs are equivalent: for every tuple
    /// either log touches, the two provenance expressions must share a
    /// normal form ("Figure 3 + AC spines + `Σ`-as-set"; see
    /// [`uprov_core::nf`](mod@uprov_core::nf)). Both states must come from
    /// this engine, so the comparison happens inside one arena.
    ///
    /// Two layers keep repeated queries O(delta): tuples whose roots are
    /// *identical* ids are proven equivalent by hash-consing alone, and the
    /// rest normalize through the incremental NF cache, so only provenance
    /// the cache has never certified does any rewriting.
    ///
    /// Normalizer saturation is surfaced per tuple in
    /// [`Equivalence::undecided`] instead of being folded into a false
    /// "inequivalent".
    ///
    /// ```
    /// use uprov_engine::{Engine, UpdateLog};
    ///
    /// // Two commuting inserts into one base tuple, in the two orders.
    /// let fwd: UpdateLog = "base x\nbegin a\ninsert x\ncommit\nbegin b\ninsert x\ncommit\n"
    ///     .parse().unwrap();
    /// let rev: UpdateLog = "base x\nbegin b\ninsert x\ncommit\nbegin a\ninsert x\ncommit\n"
    ///     .parse().unwrap();
    /// let mut engine = Engine::new();
    /// let s1 = engine.replay(&fwd).unwrap();
    /// let s2 = engine.replay(&rev).unwrap();
    /// assert!(engine.equivalent(&s1, &s2).is_equivalent());
    /// ```
    pub fn equivalent(&mut self, a: &ReplayState, b: &ReplayState) -> Equivalence {
        self.equivalent_many(a, &[b]).remove(0)
    }

    /// [`Engine::equivalent`] for a coalesced burst of right-hand states:
    /// the differing-candidate pairs of **all** `(a, bᵢ)` comparisons
    /// funnel into one incremental normalization batch, so provenance
    /// shared across the comparisons (the common prefix of the logs)
    /// certifies once. One verdict per `bs` entry, in order;
    /// [`Engine::equivalent`] is the batch of one.
    pub fn equivalent_many(&mut self, a: &ReplayState, bs: &[&ReplayState]) -> Vec<Equivalence> {
        let name_sets: Vec<Vec<&str>> = bs
            .iter()
            .map(|b| Self::differing_candidates(a, b))
            .collect();
        let mut roots: Vec<NodeId> = Vec::new();
        for (b, names) in bs.iter().zip(&name_sets) {
            for name in names {
                roots.push(a.provenance(name));
                roots.push(b.provenance(name));
            }
        }
        let outcomes = nf_roots_incremental_in(
            &mut self.arena,
            &roots,
            &mut self.nf_cache,
            &mut self.nf_memo,
        );
        self.enforce_cache_budget();
        let mut rest = outcomes.as_slice();
        name_sets
            .iter()
            .map(|names| {
                let (pairs, tail) = rest.split_at(2 * names.len());
                rest = tail;
                Self::verdict(names, pairs)
            })
            .collect()
    }

    /// The merge-join behind the equivalence queries: tuple names whose
    /// provenance ids differ between the two states. Identical ids are
    /// already proven equivalent (hash-consing), so only genuinely
    /// differing pairs enter the normalization batch — one linear pass
    /// over the two sorted tuple maps, so comparing a state against an
    /// appended successor costs O(#tuples) comparisons plus normalization
    /// of the delta only. A tuple present on one side only still matches
    /// if its provenance is `0` (absent is `0`).
    fn differing_candidates<'n>(a: &'n ReplayState, b: &'n ReplayState) -> Vec<&'n str> {
        let mut names: Vec<&str> = Vec::new();
        let mut ia = a.tuples().peekable();
        let mut ib = b.tuples().peekable();
        loop {
            match (ia.peek(), ib.peek()) {
                (Some(&(ka, va)), Some(&(kb, vb))) => match ka.cmp(kb) {
                    std::cmp::Ordering::Equal => {
                        if va != vb {
                            names.push(ka);
                        }
                        ia.next();
                        ib.next();
                    }
                    std::cmp::Ordering::Less => {
                        if va != ExprArena::ZERO {
                            names.push(ka);
                        }
                        ia.next();
                    }
                    std::cmp::Ordering::Greater => {
                        if vb != ExprArena::ZERO {
                            names.push(kb);
                        }
                        ib.next();
                    }
                },
                (Some(&(ka, va)), None) => {
                    if va != ExprArena::ZERO {
                        names.push(ka);
                    }
                    ia.next();
                }
                (None, Some(&(kb, vb))) => {
                    if vb != ExprArena::ZERO {
                        names.push(kb);
                    }
                    ib.next();
                }
                (None, None) => break,
            }
        }
        names
    }

    /// [`Engine::equivalent`] bypassing both fast paths: every tuple of
    /// both states is normalized from scratch — no identical-id
    /// short-circuit, no normal-form cache. This is the "re-normalize the
    /// whole database" baseline the incremental path is validated and
    /// benchmarked against; production callers want [`Engine::equivalent`].
    pub fn equivalent_uncached(&mut self, a: &ReplayState, b: &ReplayState) -> Equivalence {
        let names: Vec<&str> = a
            .tuple_names()
            .chain(b.tuple_names().filter(|k| a.tuples.id(k).is_none()))
            .collect();
        let mut roots = Vec::with_capacity(names.len() * 2);
        for name in &names {
            roots.push(a.provenance(name));
            roots.push(b.provenance(name));
        }
        let outcomes = nf_roots_in(&mut self.arena, &roots, &mut self.nf_memo);
        Self::verdict(&names, &outcomes)
    }

    /// The verdict from each name's two normal forms, `a`'s then `b`'s.
    fn verdict(names: &[&str], outcomes: &[NfOutcome]) -> Equivalence {
        let mut verdict = Equivalence {
            differing: Vec::new(),
            undecided: Vec::new(),
        };
        for (name, pair) in names.iter().zip(outcomes.chunks_exact(2)) {
            let (na, nb) = (&pair[0], &pair[1]);
            if na.id == nb.id {
                // Equal ids prove equivalence even under saturation: every
                // intermediate image is rewrite-reachable from its input.
            } else if na.saturated || nb.saturated {
                verdict.undecided.push((*name).to_owned());
            } else {
                verdict.differing.push((*name).to_owned());
            }
        }
        verdict.differing.sort_unstable();
        verdict.undecided.sort_unstable();
        verdict
    }
}
