//! Normal forms for `UP[X]` expressions, and equivalence via normal-form
//! comparison.
//!
//! [`nf_roots_in`] drives the directed Figure 3 rules of [`crate::rewrite`]
//! to a fixpoint by **memoized innermost normalization**: to normalize a
//! node, normalize its children, rebuild it over their images through the
//! smart constructors, and saturate the rule table at its top
//! ([`crate::rewrite::reduce`]); if that produced a different node — a
//! *reduct*, below whose top a rule may have built fresh, reducible nodes —
//! normalize the reduct too (same memo) and take its image. A node's image
//! is final the first time it is written into the dense
//! [`DenseMemo`]`<NodeId>`, every node is visited once, and there is no
//! confirming sweep. The loop runs on an explicit stack — no recursion
//! anywhere, so a depth-100 000 update chain normalizes without touching
//! the call stack. Termination of the rule system itself is argued in the
//! [`crate::rewrite`] module docs.
//!
//! # Block-once canonicalization
//!
//! Every rule decomposes the maximal `+I`/`+M` block below the node it
//! fires at, so running the per-node reduction at *every* spine node makes
//! one very long unsorted block cost O(block²). Instead, a `+I`/`+M` node
//! is only ever visited **as a block top** — a root, a `−`/`·M` operand, a
//! `Σ` term, a block head, an increment: the visit walks the maximal
//! same-operator spine below it, demands images for the head and the
//! increments only, builds the block with one [`ExprArena::counted`] call
//! and reduces it once — O(block log block), the log from sorting into
//! canonical form. The spine nodes in between are neither rebuilt nor
//! interned. This is sound because every rule matches on the block *head*
//! or on *individual increments*, both shared between a block and its
//! prefixes, so any redex visible at an interior node is also visible at
//! the top (the whole-block matching of
//! [`crate::rewrite::INSERT_ABSORBS_DELETE`] and
//! [`crate::rewrite::INSERT_ABSORBS_MOD`] exists for exactly this reason).
//! A spine node that some other context uses as a top (a `·M` source, a
//! `Σ` term, another root) gets a visit of its own; the walk from a longer
//! block stops at a spine node that already has an image and continues
//! inside that image. Long log-replay spines (10k sequential inserts to
//! one tuple) therefore normalize in near-linear time; the acspine scaling
//! guard in `crates/engine/tests/guards.rs` (run in release by CI) is the
//! regression guard.
//!
//! Because every rewrite re-interns through the hash-consing smart
//! constructors, normal forms inherit the arena's guarantees: two
//! expressions equivalent under "Figure 3 + AC of the `+I`/`+M` spines +
//! `Σ`-as-set" (see [`crate::rewrite`] for the exact theory decided)
//! normalize to the **same [`NodeId`]**, so [`try_equiv_in`] is one
//! normalization of both sides and one integer comparison. By
//! Propositions 3.5/4.2, evaluation under any axiom-satisfying
//! Update-Structure is invariant under these rewrites: `eval(e) ==
//! eval(nf(e))` is property-tested for every catalogue structure.
//!
//! # Incremental re-normalization
//!
//! Normal forms are pure functions of the [`NodeId`] (the arena is
//! append-only), so certified results can be cached forever in an
//! [`NfCache`] and reused across queries. [`nf_roots_incremental_in`]
//! serves cached roots in O(1) and normalizes the remaining *dirty* roots
//! with **cache cuts**: a visited node whose normal form is certified is
//! mapped straight to its image and not descended — so after a log append,
//! re-normalizing a touched tuple costs O(the delta region around the
//! append), not O(its whole provenance DAG). The transaction-log engine builds its per-tuple
//! dirty-set maintenance on exactly this hook (see
//! `docs/ARCHITECTURE.md` at the repository root).
//!
//! # Saturation is surfaced, not swallowed
//!
//! The budget ([`MAX_ROUNDS`]: how many reducts in a row one node's
//! normalization may follow) is a backstop against a (theoretically
//! excluded) rule cycle. [`nf_roots_in`] reports hitting it
//! through [`NfOutcome::saturated`] instead of silently returning a
//! best-effort id: a saturated result is still *sound* (reachable from the
//! input by valid rewrites) but may not be fully normal, so comparing two
//! saturated ids cannot prove **in**equivalence. [`try_equiv_in`] returns
//! `None` in that case, and every caller decides what "undecided" means.
//!
//! # Example
//!
//! The README's worked example: two syntactically different abort effects
//! collapse to one id.
//!
//! ```
//! use uprov_core::{nf_roots_in, try_equiv_in, AtomTable, ExprArena, NfMemo};
//!
//! let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
//! let a = ar.atom(t.fresh_tuple());
//! let b = ar.atom(t.fresh_tuple());
//! let p = ar.atom(t.fresh_txn());
//!
//! // e1 = (a +I p) − p      insert by p, then delete by p        (axiom 7)
//! // e2 = (a +M (b ·M p)) − p   modify by p, then delete by p    (axiom 2)
//! let ins = ar.plus_i(a, p);
//! let e1 = ar.minus(ins, p);
//! let dot = ar.dot_m(b, p);
//! let md = ar.plus_m(a, dot);
//! let e2 = ar.minus(md, p);
//!
//! let mut memo = NfMemo::new();
//! let want = ar.minus(a, p);              // both leave just  a − p
//! let out = nf_roots_in(&mut ar, &[e1, e2], &mut memo);
//! assert_eq!([out[0].id, out[1].id], [want, want]);  // identical NodeId
//! assert_eq!(try_equiv_in(&mut ar, e1, e2, &mut memo), Some(true));
//! ```

use crate::arena::{is_same_op_block, BinOp, DenseMemo, ExprArena, Node, NodeId};
use crate::fxhash::FxHashMap;
use crate::rewrite::reduce;

/// Budget for [`nf_roots_in`]: how many times in a row the reduct of one
/// node may itself turn out reducible once its children are normalized. In
/// practice chains of two or three occur; the cap is a loud backstop
/// against a (theoretically excluded, see the termination argument in
/// [`crate::rewrite`]) rule cycle. Exhausting it is reported through
/// [`NfOutcome::saturated`]; the returned id stays *sound* — reachable from
/// the input by valid rewrites — it may just not be fully normal.
pub const MAX_ROUNDS: u32 = 64;

/// The result of a normalization: the (possibly best-effort) image id plus
/// how the fixpoint search ended.
///
/// `saturated == false` means `id` is the true normal form.
/// `saturated == true` means the budget ran out somewhere in the call; `id`
/// is rewrite-reachable from the input but not certified normal, so id
/// comparison against it can prove equivalence (ids equal) but never
/// inequivalence — see [`try_equiv_in`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NfOutcome {
    /// The root's image.
    pub id: NodeId,
    /// How the image was reached: `0` — served from an [`NfCache`] without
    /// normalizing, `1` — the root is its own normal form, `2` — the root
    /// was rewritten. A saturated outcome reports the memo's budget.
    pub rounds: u32,
    /// True iff the budget was exhausted before the call finished.
    pub saturated: bool,
}

/// Pooled scratch state for the normalizer: the node ↦ image memo,
/// reusable across many normalizations against one long-lived arena.
///
/// It resets in O(1) per use (growth aside), so a pooled normalization of a
/// small root late in a huge arena costs O(its DAG) — the same contract as
/// [`eval_roots_in`](crate::structure::eval_roots_in).
///
/// The memo also carries the **budget** every normalization through it
/// runs under: [`MAX_ROUNDS`] by default, or whatever
/// [`NfMemo::with_max_rounds`] set — the budget belongs to the scratch
/// state, so it survives across calls like the buffer does.
#[derive(Debug)]
pub struct NfMemo {
    map: DenseMemo<NodeId>,
    max_rounds: u32,
}

impl Default for NfMemo {
    fn default() -> Self {
        Self::with_max_rounds(MAX_ROUNDS)
    }
}

impl NfMemo {
    /// Empty scratch state under the default [`MAX_ROUNDS`] budget; the
    /// buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty scratch state whose normalizations follow at most `max_rounds`
    /// reducts of any one node before giving up on the whole call. `0` runs
    /// nothing at all and reports `saturated` with the untouched root —
    /// useful for testing saturation handling; real callers want
    /// [`NfMemo::new`].
    pub fn with_max_rounds(max_rounds: u32) -> Self {
        NfMemo {
            map: DenseMemo::default(),
            max_rounds,
        }
    }
}

/// Normalizes **many roots** under the directed Figure 3 rule system
/// through one caller-provided [`NfMemo`].
///
/// Saturating and innermost: children before parents, each node once,
/// dense memo, no recursion — chains 100 000 deep are fine; each maximal
/// `+I`/`+M` block is canonicalized once at its top node (see the module
/// docs). Sub-DAGs common to several roots normalize once, so normalizing
/// every tuple of a replayed transaction log costs O(union DAG) rather than
/// O(Σ per-root DAGs) — the normalizer-side analogue of
/// [`eval_roots_in`](crate::structure::eval_roots_in) and
/// [`ExprArena::substitute_roots_in`]. Outcomes are returned in `roots`
/// order; repeated roots are cheap (memo hits). An exhausted budget marks
/// **every** outcome of the call saturated: check
/// [`NfOutcome::saturated`] instead of trusting the id blindly.
///
/// ```
/// use uprov_core::{nf_roots_in, AtomTable, ExprArena, NfMemo};
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let a = ar.atom(t.fresh_tuple());
/// let x = ar.atom(t.fresh_tuple());
/// let p = ar.atom(t.fresh_txn());
///
/// // a +M ((x − p) ·M p) — a modification sourced only from a tuple the
/// // same transaction deleted — vanishes entirely (axiom 5).
/// let del = ar.minus(x, p);
/// let dot = ar.dot_m(del, p);
/// let e = ar.plus_m(a, dot);
/// let mut memo = NfMemo::new();
/// let out = nf_roots_in(&mut ar, &[e, a], &mut memo);
/// assert_eq!((out[0].id, out[0].saturated), (a, false));
/// // Normal forms are interned ids: normalization is idempotent.
/// assert_eq!(out[1].id, a);
/// ```
pub fn nf_roots_in(arena: &mut ExprArena, roots: &[NodeId], memo: &mut NfMemo) -> Vec<NfOutcome> {
    nf_roots_driver(arena, roots, None, memo)
}

/// A persistent cache of **certified** normal forms, keyed by arena id.
///
/// The arena is append-only and ids are immutable, so `nf` is a pure
/// function of the [`NodeId`]: an entry `root ↦ n` certified once stays
/// valid for the lifetime of the arena, across any number of later interns
/// — there is nothing to invalidate at this layer. (Invalidation lives one
/// level up: a *tuple* whose provenance root changes simply stops hitting
/// its old entry, which is exactly how the engine's dirty-tuple tracking
/// works.)
///
/// Entries are inserted by [`nf_roots_incremental_in`] only for
/// **non-saturated** outcomes, and both `root ↦ n` and `n ↦ n` are
/// recorded (normal forms are fixpoints), so a cached region can be cut at
/// either the original root or its image. [`NfCache::insert_certified`] is
/// public for callers that certify through other paths; its contract is
/// that the value really is the certified normal form of the key *in the
/// same arena* — a wrong entry poisons every later query that cuts at it.
///
/// Every entry carries the **epoch** it was last inserted or hit in. The
/// cache owns the engine's one epoch counter: the engine advances it at
/// every certify/query safe point, tags its substitution cache from the
/// same clock, and its budget valve drops whole epochs, oldest first
/// ([`evict_before`](NfCache::evict_before)).
///
/// ```
/// use uprov_core::{nf_roots_in, nf_roots_incremental_in, AtomTable, ExprArena, NfCache, NfMemo};
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let (mut cache, mut memo) = (NfCache::new(), NfMemo::new());
/// let a = ar.atom(t.fresh_tuple());
/// let p = ar.atom(t.fresh_txn());
/// let ins = ar.plus_i(a, p);
/// let e = ar.minus(ins, p); // (a +I p) − p  →  a − p
///
/// let first = nf_roots_incremental_in(&mut ar, &[e], &mut cache, &mut memo);
/// let again = nf_roots_incremental_in(&mut ar, &[e], &mut cache, &mut memo);
/// assert_eq!(first[0].id, again[0].id);
/// assert_eq!(again[0].rounds, 0, "second query is a pure cache hit");
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NfCache {
    map: FxHashMap<NodeId, (NodeId, u64)>,
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl NfCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The certified normal form of `id`, if one is recorded.
    #[inline]
    pub fn lookup(&self, id: NodeId) -> Option<NodeId> {
        self.map.get(&id).map(|&(nf, _)| nf)
    }

    /// True if `id` has a certified normal form recorded.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.map.contains_key(&id)
    }

    /// [`lookup`](NfCache::lookup) that also re-tags a hit with the current
    /// epoch: a root that keeps being queried stays in the newest epoch, so
    /// budget eviction drops equally old cold entries first.
    /// [`nf_roots_incremental_in`] uses this for its root-level hits; cut
    /// lookups inside the normalization stay read-only.
    #[inline]
    pub fn lookup_refresh(&mut self, id: NodeId) -> Option<NodeId> {
        let (nf, tag) = self.map.get_mut(&id)?;
        *tag = self.epoch;
        Some(*nf)
    }

    /// Iterates over every certified `root ↦ nf` entry (including the
    /// `nf ↦ nf` fixpoints), in no particular order — the export hook for
    /// engine snapshots. Every pair satisfies the
    /// [`insert_certified`](NfCache::insert_certified) contract, so a
    /// faithful re-import into a cache over the same (or an id-identically
    /// rebuilt) arena is sound.
    pub fn iter_certified(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.map.iter().map(|(&k, &(v, _))| (k, v))
    }

    /// Records `nf` as the certified normal form of `root` (and of itself:
    /// normal forms are fixpoints, so `nf ↦ nf` is recorded too), both
    /// tagged with the current [`epoch`](NfCache::epoch).
    ///
    /// Contract: `nf` must be the true, certified (non-saturated) normal
    /// form of `root` in the arena this cache is used with. Violating it
    /// silently corrupts later incremental normalizations.
    pub fn insert_certified(&mut self, root: NodeId, nf: NodeId) {
        self.map.insert(root, (nf, self.epoch));
        self.map.insert(nf, (nf, self.epoch));
    }

    /// The current epoch: the tag inserts and refreshing hits write.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Starts a new epoch (the engine advances once per certify/query safe
    /// point). Purely bookkeeping — entries stay valid regardless of epoch.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The epoch tag of every entry, in no particular order: what the
    /// engine's valve counts to find how many whole epochs fit its budget.
    pub fn entry_epochs(&self) -> impl Iterator<Item = u64> + '_ {
        self.map.values().map(|&(_, tag)| tag)
    }

    /// Drops every entry tagged with an epoch older than `epoch` and
    /// returns how many went. Always safe: a dropped fact is simply
    /// recomputed on next use.
    pub fn evict_before(&mut self, epoch: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|_, &mut (_, tag)| tag >= epoch);
        before - self.map.len()
    }

    /// Number of recorded entries (including the `nf ↦ nf` fixpoints).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entry is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Root-level cache hits served so far (cuts inside dirty roots are not
    /// counted — they are visible as the `rounds == 0` fast path only at
    /// the root level).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Root-level cache misses (roots that had to be normalized).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every entry (and the hit/miss counters; the epoch keeps
    /// running). The cache never *needs* clearing for correctness.
    pub fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

/// [`nf_roots_in`] with a persistent [`NfCache`]: roots whose normal form
/// is already certified are served in O(1) without normalizing anything
/// (`rounds == 0` in their [`NfOutcome`]), and the remaining **dirty**
/// roots are normalized as one batch that *cuts* at any sub-DAG with a
/// cached normal form — the visit maps it to its certified image like a
/// leaf, so re-normalizing a log append costs O(delta region), not O(whole
/// provenance DAG).
///
/// Soundness of the cuts: a cached image is a certified normal form, and
/// normality is a property of the expression alone — a node strictly
/// inside a certified region admits no redex in any context, while redexes
/// *spanning* the boundary are rooted at nodes at-or-above the cut, which
/// are still visited and reduced with full visibility into the cached
/// structure (rules match on real nodes, not on the cut).
///
/// Newly certified outcomes are inserted into the cache; saturated ones are
/// **not** (their ids are best-effort, see [`NfOutcome::saturated`]) and
/// keep reporting saturation on every retry until a larger budget resolves
/// them.
pub fn nf_roots_incremental_in(
    arena: &mut ExprArena,
    roots: &[NodeId],
    cache: &mut NfCache,
    memo: &mut NfMemo,
) -> Vec<NfOutcome> {
    // Refreshing lookup: a hot root migrates to the current epoch on every
    // hit, so budget eviction drops cold entries first.
    let cached: Vec<Option<NodeId>> = roots.iter().map(|&r| cache.lookup_refresh(r)).collect();
    let dirty: Vec<NodeId> = (roots.iter().zip(&cached))
        .filter_map(|(&r, hit)| hit.is_none().then_some(r))
        .collect();
    cache.misses += dirty.len() as u64;
    cache.hits += (roots.len() - dirty.len()) as u64;
    let mut computed = nf_roots_driver(arena, &dirty, Some(cache), memo).into_iter();
    let outcome = |(&root, hit): (&NodeId, Option<NodeId>)| match hit {
        Some(id) => NfOutcome {
            id,
            rounds: 0,
            saturated: false,
        },
        None => {
            let out = computed.next().expect("one outcome per dirty root");
            if !out.saturated {
                cache.insert_certified(root, out.id);
            }
            out
        }
    };
    roots.iter().zip(cached).map(outcome).collect()
}

/// One pending normalization on [`nf_roots_driver`]'s explicit stack: the
/// image of `orig` will be the normal form of `cur` — `orig` itself, or
/// the last of `hops` reducts ([`reduce`] results) followed from it.
#[derive(Clone, Copy)]
struct Frame {
    orig: NodeId,
    cur: NodeId,
    hops: u32,
}

/// The one normalization loop behind [`nf_roots_in`] (no cache) and
/// [`nf_roots_incremental_in`] (cache cuts enabled): memoized innermost
/// normalization on an explicit stack, under the memo's budget. `cache` is
/// only read; entries are never inserted here.
fn nf_roots_driver(
    arena: &mut ExprArena,
    roots: &[NodeId],
    cache: Option<&NfCache>,
    memo: &mut NfMemo,
) -> Vec<NfOutcome> {
    let budget = memo.max_rounds;
    let map = &mut memo.map;
    // Reducts are interned during the call, beyond this length: `set`
    // grows the memo for them.
    map.reset(roots.iter().map(|r| r.index() + 1).max().unwrap_or(0));
    let visit = |id| Frame {
        orig: id,
        cur: id,
        hops: 0,
    };
    let mut stack: Vec<Frame> = roots.iter().rev().map(|&r| visit(r)).collect();
    // The children of the node being visited, then their images.
    let mut kids: Vec<(NodeId, u32)> = Vec::new();
    // Budget 0 runs nothing: every root stays as it is, uncertified.
    let mut saturated = budget == 0;
    while !saturated {
        let Some(&Frame { orig, cur, hops }) = stack.last() else {
            break;
        };
        // Mapped through another parent, a reduct that is already normal,
        // or a certified sub-DAG: cut, never descended.
        let known = (map.get(orig).or(map.get(cur)).copied()).or_else(|| cache?.lookup(cur));
        if let Some(image) = known {
            map.set(orig, image);
            stack.pop();
            continue;
        }
        kids.clear();
        match arena.node(cur) {
            Node::Zero | Node::Atom(_) => {}
            Node::Bin(BinOp::Minus | BinOp::DotM, a, b) => kids.extend([(a, 1), (b, 1)]),
            Node::Sum(ts) => kids.extend(ts.iter().map(|&t| (t, 1))),
            // A `+I`/`+M` block reached as a top: only its increments and
            // its head are demanded, the spine nodes in between are
            // neither rebuilt nor interned. Top-most increment first, head
            // last: the stack pops the block bottom-up, so a prefix that
            // some increment uses as a top of its own is mapped before the
            // prefixes above it walk down to it.
            Node::Bin(op, ..) | Node::Counted(op, ..) => {
                let head = block_below(arena, op, cur, &mut kids, |n| {
                    map.contains(n) || cache.is_some_and(|c| c.contains(n))
                });
                kids.push((head, 1));
            }
        }
        // Children first: push the ones without an image and come back.
        let frame = stack.len() - 1;
        stack.extend(
            kids.iter()
                .filter(|k| !map.contains(k.0))
                .map(|k| visit(k.0)),
        );
        if stack.len() > frame + 1 {
            continue;
        }
        let mut moved = false;
        for (kid, _) in kids.iter_mut() {
            let image = map.get(*kid).copied().expect("demanded above");
            moved |= image != *kid;
            *kid = image;
        }
        // Rebuilding copies the images out of `kids`: the constructors
        // append to the slabs a `Sum`/`Counted` view borrows.
        let rebuilt = match arena.node(cur) {
            _ if !moved && is_canonical(arena, cur) => cur,
            Node::Bin(op @ (BinOp::Minus | BinOp::DotM), ..) => arena.bin(op, kids[0].0, kids[1].0),
            Node::Sum(_) => arena.sum(kids.iter().map(|k| k.0)),
            Node::Bin(op, ..) | Node::Counted(op, ..) => {
                let (head, _) = kids.pop().expect("pushed last");
                arena.counted(op, head, kids.iter().copied())
            }
            Node::Zero | Node::Atom(_) => unreachable!("a leaf has no child to move"),
        };
        // Every child of `rebuilt` is a normal form; what is left is its
        // top — unless it was mapped earlier, is a leaf (no rule matches
        // one), or is a reduct that rebuilt to itself (it came out of
        // `reduce`).
        let mapped = map.get(rebuilt).copied();
        let settled = matches!(arena.node(rebuilt), Node::Zero | Node::Atom(_))
            || (rebuilt == cur && cur != orig);
        let next = match mapped {
            Some(image) => image,
            None if settled => rebuilt,
            None => reduce(arena, rebuilt),
        };
        if mapped.is_some() || next == rebuilt {
            map.set(rebuilt, next);
            map.set(cur, next);
            map.set(orig, next);
            stack.pop();
        } else if hops == budget {
            saturated = true;
        } else {
            // The rule may have built fresh, reducible nodes below its new
            // top: normalize the reduct before recording the image.
            stack[frame] = Frame {
                orig,
                cur: next,
                hops: hops + 1,
            };
        }
    }
    roots
        .iter()
        .map(|&root| {
            // After an exhausted budget the memo holds the roots that did
            // finish; the others stay as they were.
            let id = map.get(root).copied().unwrap_or(root);
            let rounds = if saturated {
                budget
            } else {
                1 + u32::from(id != root)
            };
            NfOutcome {
                id,
                rounds,
                saturated,
            }
        })
        .collect()
}

/// Walks the maximal `op` spine below the block top `id`: appends its
/// `(increment, multiplicity)` pairs to `incs`, top-most first, and returns
/// its head — the first node that does not continue the block, or the
/// first spine node that `mapped` says already has an image of its own
/// (the block then continues inside that image, and
/// [`ExprArena::counted`] merges it back in).
fn block_below(
    arena: &ExprArena,
    op: BinOp,
    id: NodeId,
    incs: &mut Vec<(NodeId, u32)>,
    mapped: impl Fn(NodeId) -> bool,
) -> NodeId {
    let mut cur = id;
    loop {
        match arena.node(cur) {
            Node::Bin(o, a, b) if o == op => {
                incs.push((b, 1));
                cur = a;
            }
            // Entries ascend by id: reversed, like the spine links, so the
            // oldest increment is the last one pushed.
            Node::Counted(o, h, es) if o == op => {
                incs.extend(es.iter().rev());
                cur = h;
            }
            _ => return cur,
        }
        if mapped(cur) {
            return cur;
        }
    }
}

/// True iff re-interning `id` over unchanged children would give `id`
/// back: everything but a `+I`/`+M` node whose left child continues the
/// block, which [`ExprArena::counted`] condenses.
fn is_canonical(arena: &ExprArena, id: NodeId) -> bool {
    match arena.node(id) {
        Node::Bin(op @ (BinOp::PlusI | BinOp::PlusM), a, _) => !is_same_op_block(arena.node(a), op),
        _ => true,
    }
}

/// Decides equivalence of two provenance expressions (or transaction
/// effects) by comparing normal forms: sound for the theory "Figure 3 + AC
/// spines + `Σ`-as-set" described in [`crate::rewrite`], and an integer
/// comparison once both sides are normalized (in one [`nf_roots_in`] call
/// through `memo`).
///
/// Three-valued: `Some(true)` / `Some(false)` when normal-form comparison
/// decides, `None` when it cannot — the normalization exhausted its budget
/// ([`NfOutcome::saturated`]) and the best-effort ids differ, which proves
/// nothing (two equivalent expressions can have distinct non-normal
/// images). Equal ids decide `true` even under saturation: every
/// intermediate image is rewrite-reachable, hence equivalent to its input.
///
/// ```
/// use uprov_core::{try_equiv_in, AtomTable, ExprArena, NfMemo};
///
/// let (mut t, mut ar) = (AtomTable::new(), ExprArena::new());
/// let a = ar.atom(t.fresh_tuple());
/// let b = ar.atom(t.fresh_tuple());
/// let p = ar.atom(t.fresh_txn());
///
/// // Two syntactically different "insert then abort-delete" effects:
/// // (a +I p) − p   vs   (a +M (b ·M p)) − p.
/// let ins = ar.plus_i(a, p);
/// let e1 = ar.minus(ins, p);
/// let dot = ar.dot_m(b, p);
/// let md = ar.plus_m(a, dot);
/// let e2 = ar.minus(md, p);
/// let mut memo = NfMemo::new();
/// assert_eq!(try_equiv_in(&mut ar, e1, e2, &mut memo), Some(true)); // both are a − p
/// assert_eq!(try_equiv_in(&mut ar, e1, a, &mut memo), Some(false));
/// ```
pub fn try_equiv_in(
    arena: &mut ExprArena,
    a: NodeId,
    b: NodeId,
    memo: &mut NfMemo,
) -> Option<bool> {
    if a == b {
        return Some(true);
    }
    let outs = nf_roots_in(arena, &[a, b], memo);
    if outs[0].id == outs[1].id {
        Some(true)
    } else if outs[0].saturated || outs[1].saturated {
        None
    } else {
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomTable;

    fn setup() -> (AtomTable, ExprArena) {
        (AtomTable::new(), ExprArena::new())
    }

    /// `root`'s certified normal form, through a fresh memo.
    fn nf(ar: &mut ExprArena, root: NodeId) -> NodeId {
        let out = nf_roots_in(ar, &[root], &mut NfMemo::new())[0];
        assert!(!out.saturated, "nf saturated");
        out.id
    }

    #[test]
    fn nf_of_atom_and_zero_is_identity() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let z = ExprArena::ZERO;
        assert_eq!(nf(&mut ar, a), a);
        assert_eq!(nf(&mut ar, z), z);
    }

    #[test]
    fn example_3_2_abort_chain_normalizes() {
        // ((p1 +M (p3 ·M p)) − p): the +M increment keyed on the deleted
        // transaction p is absorbed (axiom 2), leaving p1 − p.
        let (mut t, mut ar) = setup();
        let p1 = ar.atom(t.fresh_tuple());
        let p3 = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let dot = ar.dot_m(p3, p);
        let md = ar.plus_m(p1, dot);
        let e = ar.minus(md, p);
        let want = ar.minus(p1, p);
        assert_eq!(nf(&mut ar, e), want);
    }

    #[test]
    fn equiv_is_reflexive_and_discriminates() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let b = ar.atom(t.fresh_tuple());
        let mut memo = NfMemo::new();
        assert_eq!(try_equiv_in(&mut ar, a, a, &mut memo), Some(true));
        assert_eq!(try_equiv_in(&mut ar, a, b, &mut memo), Some(false));
    }

    #[test]
    fn ac_variants_share_one_normal_form_id() {
        let (mut t, mut ar) = setup();
        let h = ar.atom(t.fresh_tuple());
        let x = ar.atom(t.fresh_tuple());
        let y = ar.atom(t.fresh_tuple());
        let c1 = ar.atom(t.fresh_txn());
        let c2 = ar.atom(t.fresh_txn());
        let m1 = ar.dot_m(x, c1);
        let m2 = ar.dot_m(y, c2);
        let l = ar.plus_m(h, m1);
        let l = ar.plus_m(l, m2);
        let r = ar.plus_m(h, m2);
        let r = ar.plus_m(r, m1);
        assert_ne!(l, r);
        let (nl, nr) = (nf(&mut ar, l), nf(&mut ar, r));
        assert_eq!(nl, nr, "AC-equivalent spines get identical NodeIds");
    }

    #[test]
    fn nested_rule_interaction_needs_rounds() {
        // Build ((a +I p) − p′) where the minus head hides under a spine
        // the outer rule only sees once the inner ones have fired:
        // (((a +M (x ·M p)) +I p) − q) +I q.
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let x = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let q = ar.atom(t.fresh_txn());
        let dot = ar.dot_m(x, p);
        let md = ar.plus_m(a, dot);
        let ins = ar.plus_i(md, p); // → a +I p (axiom 9)
        let del = ar.minus(ins, q);
        let e = ar.plus_i(del, q); // → (a +I p) +I q (axiom 10)
        let ip = ar.plus_i(a, p);
        let want = ar.plus_i(ip, q);
        assert_eq!(nf(&mut ar, e), nf(&mut ar, want));
    }

    #[test]
    fn nf_in_reuses_memo_across_roots() {
        let (mut t, mut ar) = setup();
        let mut memo = NfMemo::new();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(a, p);
        let e1 = ar.minus(ins, p);
        let out1 = nf_roots_in(&mut ar, &[e1], &mut memo)[0];
        let want = ar.minus(a, p);
        assert_eq!(out1.id, want);
        assert!(!out1.saturated);
        assert!(out1.rounds >= 2, "the root was rewritten");
        let e2 = ar.minus(e1, p); // (…) − p − p → a − p (axiom 4)
        assert_eq!(nf_roots_in(&mut ar, &[e2], &mut memo)[0].id, want);
    }

    #[test]
    fn long_unsorted_block_normalizes_to_one_counted_node() {
        // Fold 64 ·M increments over a head in both build orders; the
        // normal form must be one counted block over the sorted increment
        // multiset (found block-once), identical for both orders.
        let (mut t, mut ar) = setup();
        let h = ar.atom(t.fresh_tuple());
        let incs: Vec<NodeId> = (0..64)
            .map(|_| {
                let x = ar.atom(t.fresh_tuple());
                let q = ar.atom(t.fresh_txn());
                ar.dot_m(x, q)
            })
            .collect();
        let fwd = incs.iter().fold(h, |acc, &m| ar.plus_m(acc, m));
        let rev = incs.iter().rev().fold(h, |acc, &m| ar.plus_m(acc, m));
        assert_ne!(fwd, rev);
        let n = nf(&mut ar, rev);
        assert_eq!(nf(&mut ar, fwd), n, "build order is erased");
        assert_eq!(nf(&mut ar, n), n, "nf is idempotent");
        match ar.node(n) {
            Node::Counted(BinOp::PlusM, head, es) => {
                assert_eq!(head, h);
                assert_eq!(es.len(), 64);
                assert!(es.iter().all(|&(_, m)| m == 1));
            }
            other => panic!("expected a counted +M block, got {other:?}"),
        }
    }

    #[test]
    fn repeated_increments_coalesce_into_multiplicities() {
        // The same transaction inserting one tuple 100 times normalizes to
        // a single counted entry with multiplicity 100 — O(distinct atoms)
        // nodes, not O(applications).
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let spine = (0..100).fold(a, |acc, _| ar.plus_i(acc, p));
        let n = nf(&mut ar, spine);
        match ar.node(n) {
            Node::Counted(BinOp::PlusI, head, es) => {
                assert_eq!(head, a);
                assert_eq!(es, &[(p, 100)]);
            }
            other => panic!("expected a counted +I block, got {other:?}"),
        }
    }

    #[test]
    fn insert_absorption_matches_buried_increments() {
        // ((x − c) +I c) +I d and ((x − c) +I d) +I c must agree: the
        // deletion is stripped whichever position the matching insert holds
        // (whole-block matching, required for block-once reduction).
        let (mut t, mut ar) = setup();
        let x = ar.atom(t.fresh_tuple());
        let c = ar.atom(t.fresh_txn());
        let d = ar.atom(t.fresh_txn());
        let del = ar.minus(x, c);
        let e1 = ar.plus_i(del, c);
        let e1 = ar.plus_i(e1, d);
        let e2 = ar.plus_i(del, d);
        let e2 = ar.plus_i(e2, c);
        let xi = ar.plus_i(x, c);
        let want = ar.plus_i(xi, d);
        assert_eq!(nf(&mut ar, e1), nf(&mut ar, want));
        assert_eq!(nf(&mut ar, e2), nf(&mut ar, want));
        // Same for +M absorption under a later insert (axiom 9, buried).
        let y = ar.atom(t.fresh_tuple());
        let dot = ar.dot_m(y, c);
        let md = ar.plus_m(x, dot);
        let f = ar.plus_i(md, c);
        let f = ar.plus_i(f, d);
        assert_eq!(nf(&mut ar, f), nf(&mut ar, want));
    }

    #[test]
    fn nf_roots_certifies_a_root_that_is_interior_to_another_root() {
        // n2 is both a batch root AND an interior spine node of top's +M
        // block: top's visit walks straight through n2 without mapping it,
        // so n2 must get a visit of its own as a root — otherwise the
        // unsorted spine leaks out as a "normal form".
        let (mut t, mut ar) = setup();
        let h = ar.atom(t.fresh_tuple());
        let mk = |ar: &mut ExprArena, t: &mut AtomTable| {
            let x = ar.atom(t.fresh_tuple());
            let q = ar.atom(t.fresh_txn());
            ar.dot_m(x, q)
        };
        let m1 = mk(&mut ar, &mut t);
        let m2 = mk(&mut ar, &mut t);
        let m0 = mk(&mut ar, &mut t);
        assert!(m1 < m2, "fold order below is deliberately unsorted");
        let n1 = ar.plus_m(h, m2);
        let n2 = ar.plus_m(n1, m1); // unsorted: m2 folded before m1
        let top = ar.plus_m(n2, m0);
        let mut memo = NfMemo::new();
        let outs = nf_roots_in(&mut ar, &[top, n2], &mut memo);
        assert!(outs.iter().all(|o| !o.saturated));
        assert_eq!(outs[0].id, nf(&mut ar, top), "batch top == per-root nf");
        assert_eq!(
            outs[1].id,
            nf(&mut ar, n2),
            "batch interior-root == per-root nf"
        );
        assert_ne!(
            outs[1].id, n2,
            "the unsorted spine is not its own normal form"
        );
    }

    #[test]
    fn nf_roots_does_not_certify_under_a_siblings_interior_marks() {
        // N is an unsorted +M spine; root A = N +M m3 has N as an interior
        // node, and root B = N − q has it as a block top — B must still
        // come out with N sorted although A's visit walked through N
        // without mapping it.
        let (mut t, mut ar) = setup();
        let h = ar.atom(t.fresh_tuple());
        let mk = |ar: &mut ExprArena, t: &mut AtomTable| {
            let x = ar.atom(t.fresh_tuple());
            let q = ar.atom(t.fresh_txn());
            ar.dot_m(x, q)
        };
        let m1 = mk(&mut ar, &mut t);
        let m2 = mk(&mut ar, &mut t);
        let m3 = mk(&mut ar, &mut t);
        let q = ar.atom(t.fresh_txn());
        let n1 = ar.plus_m(h, m2);
        let n = ar.plus_m(n1, m1); // unsorted: m2 folded before m1
        let a = ar.plus_m(n, m3);
        let b = ar.minus(n, q);
        let mut memo = NfMemo::new();
        let outs = nf_roots_in(&mut ar, &[a, b], &mut memo);
        assert!(outs.iter().all(|o| !o.saturated));
        assert_eq!(outs[0].id, nf(&mut ar, a), "batch A == per-root nf");
        assert_eq!(outs[1].id, nf(&mut ar, b), "batch B == per-root nf");
        assert_ne!(outs[1].id, b, "B's buried unsorted spine must normalize");
    }

    /// One `nf_roots_in` call certifies every root, and each image is the
    /// expression per-root [`nf`] reaches in a clone of the arena that
    /// never saw the batch. Ids differ across arenas; the structural hash
    /// (Σ-free fixtures only: Σ terms hash in id order) does not.
    fn batch_nf_matching_solo(ar: &mut ExprArena, roots: &[NodeId]) -> Vec<NodeId> {
        let mut solo = ar.clone();
        let outs = nf_roots_in(ar, roots, &mut NfMemo::new());
        for (&root, out) in roots.iter().zip(&outs) {
            assert!(!out.saturated);
            let want = nf(&mut solo, root);
            assert_eq!(ar.structural_hash(out.id), solo.structural_hash(want));
        }
        outs.iter().map(|o| o.id).collect()
    }

    #[test]
    fn spine_node_that_is_interior_and_a_mod_source_normalizes_in_one_call() {
        // n is an unsorted +M spine, interior to x's longer block and the
        // ·M source of another tuple's increment: x's visit never maps n,
        // y's demands it as a top.
        let (mut t, mut ar) = setup();
        let h = ar.atom(t.fresh_tuple());
        let g = ar.atom(t.fresh_tuple());
        let q = ar.atom(t.fresh_txn());
        let mut mk = |ar: &mut ExprArena| {
            let s = ar.atom(t.fresh_tuple());
            let c = ar.atom(t.fresh_txn());
            ar.dot_m(s, c)
        };
        let (m1, m2, m3) = (mk(&mut ar), mk(&mut ar), mk(&mut ar));
        let n1 = ar.plus_m(h, m2);
        let n = ar.plus_m(n1, m1); // unsorted: m2 folded before m1
        let x = ar.plus_m(n, m3);
        let src = ar.dot_m(n, q);
        let y = ar.plus_m(g, src);
        let got = batch_nf_matching_solo(&mut ar, &[x, y]);
        let sorted = ar.counted(BinOp::PlusM, h, [(m1, 1), (m2, 1)]);
        assert_eq!(got[0], ar.counted(BinOp::PlusM, sorted, [(m3, 1)]));
        let want_src = ar.dot_m(sorted, q);
        assert_eq!(got[1], ar.plus_m(g, want_src), "the ·M source is sorted");
    }

    #[test]
    fn reducts_with_fresh_reducible_nodes_normalize_in_one_call() {
        let (mut t, mut ar) = setup();
        let [a, b, w, x, y, z] = [(); 6].map(|()| ar.atom(t.fresh_tuple()));
        let [c, d] = [(); 2].map(|()| ar.atom(t.fresh_txn()));
        let zd = ar.dot_m(z, d);
        // MOD_OF_INSERTED: ((b − c) +M ((x +I c) ·M c)) +M (z ·M d) puts
        // `+I c` on the head, and the fresh head (b − c) +I c is a redex
        // of its own (axiom 10).
        let del = ar.minus(b, c);
        let ins = ar.plus_i(x, c);
        let dot = ar.dot_m(ins, c);
        let e1 = ar.plus_m(del, dot);
        let e1 = ar.plus_m(e1, zd);
        // MOD_UNNEST: a +M (((x +M (y ·M c)) +M (w ·M d)) ·M c) hoists
        // y ·M c and leaves a fresh block under a fresh ·M increment.
        let yc = ar.dot_m(y, c);
        let wd = ar.dot_m(w, d);
        let inner = ar.plus_m(x, yc);
        let inner = ar.plus_m(inner, wd);
        let nested = ar.dot_m(inner, c);
        let e2 = ar.plus_m(a, nested);
        let got = batch_nf_matching_solo(&mut ar, &[e1, e2]);
        let head = ar.plus_i(b, c);
        assert_eq!(got[0], ar.plus_m(head, zd));
        let rest = ar.plus_m(x, wd);
        let rest = ar.dot_m(rest, c);
        assert_eq!(got[1], ar.counted(BinOp::PlusM, a, [(yc, 1), (rest, 1)]));
    }

    #[test]
    fn zero_budget_saturates_without_rewriting() {
        let (mut t, mut ar) = setup();
        let mut starved = NfMemo::with_max_rounds(0);
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(a, p);
        let e = ar.minus(ins, p);
        // Twice through one memo: the budget rides the memo, so reuse
        // must not quietly fall back to the default.
        for _ in 0..2 {
            let out = nf_roots_in(&mut ar, &[e], &mut starved)[0];
            assert_eq!(
                out,
                NfOutcome {
                    id: e,
                    rounds: 0,
                    saturated: true
                }
            );
            assert!(out.saturated);
        }
        // A sufficient budget resolves the same root.
        assert!(!nf_roots_in(&mut ar, &[e], &mut NfMemo::new())[0].saturated);
    }

    #[test]
    fn incremental_hits_skip_rounds_and_agree_with_scratch() {
        let (mut t, mut ar) = setup();
        let mut memo = NfMemo::new();
        let mut cache = NfCache::new();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(a, p);
        let e = ar.minus(ins, p);
        let want = nf(&mut ar, e);
        let first = nf_roots_incremental_in(&mut ar, &[e], &mut cache, &mut memo);
        assert_eq!(first[0].id, want);
        assert!(first[0].rounds >= 2, "first query actually normalized");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Second query: pure hit, by the original root or by its image.
        let again = nf_roots_incremental_in(&mut ar, &[e, want], &mut cache, &mut memo);
        assert!(again.iter().all(|o| o.id == want && o.rounds == 0));
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn incremental_dirty_root_reuses_clean_siblings_cached_spine() {
        // Regression for the cache cuts: N is an unsorted +M spine
        // certified as a "clean sibling"; the dirty roots then alias N —
        // once as an interior node of their own +M block (A = N +M m3,
        // where the cut sits *inside* the block the top must decompose)
        // and once in a non-spine context (B = N − q). Both must land on
        // exactly the from-scratch normal forms even though nothing below N
        // is visited.
        let (mut t, mut ar) = setup();
        let h = ar.atom(t.fresh_tuple());
        let mk = |ar: &mut ExprArena, t: &mut AtomTable| {
            let x = ar.atom(t.fresh_tuple());
            let q = ar.atom(t.fresh_txn());
            ar.dot_m(x, q)
        };
        let m1 = mk(&mut ar, &mut t);
        let m2 = mk(&mut ar, &mut t);
        let m3 = mk(&mut ar, &mut t);
        let q = ar.atom(t.fresh_txn());
        let n1 = ar.plus_m(h, m2);
        let n = ar.plus_m(n1, m1); // unsorted: m2 folded before m1
        let mut memo = NfMemo::new();
        let mut cache = NfCache::new();
        // Certify the clean sibling first.
        let warm = nf_roots_incremental_in(&mut ar, &[n], &mut cache, &mut memo);
        assert!(!warm[0].saturated);
        assert_ne!(warm[0].id, n, "the unsorted spine is not normal");
        let a = ar.plus_m(n, m3);
        let b = ar.minus(n, q);
        let outs = nf_roots_incremental_in(&mut ar, &[a, b], &mut cache, &mut memo);
        assert!(outs.iter().all(|o| !o.saturated));
        assert_eq!(outs[0].id, nf(&mut ar, a), "block-interior cut == scratch");
        assert_eq!(outs[1].id, nf(&mut ar, b), "non-spine cut == scratch");
        // The freshly certified roots now hit directly.
        let again = nf_roots_incremental_in(&mut ar, &[a, b], &mut cache, &mut memo);
        assert!(again.iter().all(|o| o.rounds == 0));
    }

    #[test]
    fn incremental_cut_spanning_redex_still_fires() {
        // nf is not compositional: a context around a certified region can
        // create a redex spanning the boundary. Certify (x +I c), then
        // normalize ((x +I c) − c) incrementally: the cut maps the inner
        // insert to itself, and the minus at the top must still strip it
        // (axiom 7) — reduce sees real structure, not the cut.
        let (mut t, mut ar) = setup();
        let mut memo = NfMemo::new();
        let mut cache = NfCache::new();
        let x = ar.atom(t.fresh_tuple());
        let c = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(x, c);
        let warm = nf_roots_incremental_in(&mut ar, &[ins], &mut cache, &mut memo);
        assert_eq!(warm[0].id, ins, "x +I c is already normal");
        let e = ar.minus(ins, c);
        let out = nf_roots_incremental_in(&mut ar, &[e], &mut cache, &mut memo);
        let want = ar.minus(x, c);
        assert_eq!(out[0].id, want, "boundary redex fired through the cut");
    }

    #[test]
    fn incremental_does_not_cache_saturated_outcomes() {
        let (mut t, mut ar) = setup();
        let mut memo = NfMemo::new();
        let mut cache = NfCache::new();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(a, p);
        let e = ar.minus(ins, p);
        let mut starved = NfMemo::with_max_rounds(0);
        let out = nf_roots_incremental_in(&mut ar, &[e], &mut cache, &mut starved);
        assert!(out[0].saturated);
        assert!(
            cache.is_empty(),
            "a best-effort id must never be certified into the cache"
        );
        // A real budget resolves and certifies.
        let out = nf_roots_incremental_in(&mut ar, &[e], &mut cache, &mut memo);
        assert!(!out[0].saturated);
        assert!(cache.contains(e));
    }

    #[test]
    fn nf_cache_epochs_partition_and_evict_oldest() {
        let (mut t, mut ar) = setup();
        let a = ar.atom(t.fresh_tuple());
        let b = ar.atom(t.fresh_tuple());
        let c = ar.atom(t.fresh_tuple());
        let mut cache = NfCache::new();
        assert_eq!(cache.epoch(), 0);
        cache.insert_certified(a, a);
        cache.advance_epoch();
        cache.insert_certified(b, b);
        cache.advance_epoch();
        cache.insert_certified(c, c);
        assert_eq!(cache.len(), 3);
        let mut tags: Vec<u64> = cache.entry_epochs().collect();
        tags.sort_unstable();
        assert_eq!(tags, [0, 1, 2], "one entry per epoch");
        // Oldest epoch (a's) goes first; the current epoch (c's) is
        // protected even when everything older is gone.
        assert_eq!(cache.evict_before(1), 1);
        assert!(!cache.contains(a) && cache.contains(b) && cache.contains(c));
        assert_eq!(cache.evict_before(2), 1);
        assert!(!cache.contains(b) && cache.contains(c));
        assert_eq!(
            cache.evict_before(cache.epoch()),
            0,
            "current epoch is kept"
        );
        assert_eq!(cache.lookup(c), Some(c));
        // Dropped entries are recomputed, not wrong: re-certifying after
        // eviction restores the exact entry.
        let mut memo = NfMemo::new();
        let out = nf_roots_incremental_in(&mut ar, &[a], &mut cache, &mut memo);
        assert_eq!(out[0].id, a);
        assert!(cache.contains(a));
    }

    #[test]
    fn epoch_map_reinserted_keys_survive_their_old_band() {
        // A key inserted in epoch 0 and re-inserted in epoch 2 carries the
        // newer tag: evicting epoch 0 must not drop it.
        let (mut t, mut ar) = setup();
        let [k1, k2, k3, k4] = [(); 4].map(|()| ar.atom(t.fresh_tuple()));
        let mut cache = NfCache::new();
        cache.insert_certified(k1, k1);
        cache.insert_certified(k2, k2);
        cache.advance_epoch();
        cache.insert_certified(k3, k3);
        cache.advance_epoch();
        cache.insert_certified(k1, k1); // re-insert: moves k1 to epoch 2
        cache.advance_epoch();
        assert_eq!(cache.len(), 3);
        // Epoch 0 held {k1, k2}; only k2 still carries epoch 0.
        assert_eq!(cache.evict_before(1), 1);
        assert_eq!(cache.lookup(k1), Some(k1), "re-inserted key survives");
        assert!(!cache.contains(k2));
        assert_eq!(cache.evict_before(2), 1, "epoch 1 drops k3");
        assert_eq!(cache.evict_before(3), 1, "epoch 2 drops k1");
        assert_eq!(cache.evict_before(3), 0, "empty");
        // A key inserted and re-inserted one epoch later lives only in
        // the later epoch: the earlier one holds nothing to drop.
        cache.insert_certified(k4, k4);
        cache.advance_epoch();
        cache.insert_certified(k4, k4);
        cache.advance_epoch();
        assert_eq!(cache.evict_before(4), 0, "k4 left epoch 3");
        assert_eq!(cache.evict_before(5), 1, "and lives in epoch 4");
        assert!(cache.is_empty());
    }

    #[test]
    fn get_refresh_moves_hot_keys_out_of_the_oldest_band() {
        let (mut t, mut ar) = setup();
        let [hot, cold] = [(); 2].map(|()| ar.atom(t.fresh_tuple()));
        let mut cache = NfCache::new();
        cache.insert_certified(hot, hot);
        cache.insert_certified(cold, cold);
        cache.advance_epoch();
        // Touch the hot key in the new epoch: it moves, the cold one stays.
        assert_eq!(cache.lookup_refresh(hot), Some(hot));
        cache.advance_epoch();
        assert_eq!(cache.evict_before(1), 1, "only the cold key is dropped");
        assert!(!cache.contains(cold));
        assert_eq!(cache.lookup(hot), Some(hot), "the hot key survived epoch 0");
        // A plain lookup reads without re-tagging.
        assert_eq!(cache.lookup(hot), Some(hot));
        assert_eq!(cache.evict_before(2), 1, "untouched since epoch 1");
        // Same-epoch refreshes change nothing, and a missing key refreshes
        // nothing.
        cache.insert_certified(hot, hot);
        assert_eq!(cache.lookup_refresh(hot), Some(hot));
        assert_eq!(cache.lookup_refresh(hot), Some(hot));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup_refresh(cold), None);
    }

    #[test]
    fn incremental_root_hits_refresh_the_entrys_epoch() {
        let (mut t, mut ar) = setup();
        let mut memo = NfMemo::new();
        let mut cache = NfCache::new();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(a, p);
        let hot = ar.minus(ins, p);
        nf_roots_incremental_in(&mut ar, &[hot], &mut cache, &mut memo);
        // Age the hot entry, then hit it through the incremental path: the
        // root-level hit must re-tag it to the current epoch.
        cache.advance_epoch();
        let again = nf_roots_incremental_in(&mut ar, &[hot], &mut cache, &mut memo);
        assert_eq!(again[0].rounds, 0, "served from cache");
        cache.advance_epoch();
        // Evicting epoch 0 drops the un-refreshed `nf ↦ nf` fixpoint twin;
        // the refreshed root entry now lives in epoch 1 and survives.
        assert!(cache.evict_before(1) > 0);
        assert!(
            cache.contains(hot),
            "a root hit in the previous epoch outlives the oldest epoch"
        );
    }

    #[test]
    fn epoch_map_iter_sees_exactly_the_live_entries() {
        let (mut t, mut ar) = setup();
        let [a, b] = [(); 2].map(|()| ar.atom(t.fresh_tuple()));
        let mut cache = NfCache::new();
        cache.insert_certified(a, a);
        cache.insert_certified(b, b);
        cache.advance_epoch();
        cache.insert_certified(a, a); // re-insert: one live entry per key
        let mut live: Vec<(NodeId, NodeId)> = cache.iter_certified().collect();
        live.sort_unstable();
        assert_eq!(live, vec![(a, a), (b, b)]);
    }

    #[test]
    fn try_equiv_reports_undecided_under_saturation() {
        let (mut t, mut ar) = setup();
        let mut memo = NfMemo::new();
        let a = ar.atom(t.fresh_tuple());
        let p = ar.atom(t.fresh_txn());
        let ins = ar.plus_i(a, p);
        let e1 = ar.minus(ins, p); // normalizes to a − p …
        let e2 = ar.minus(a, p); // … which is e2 exactly.
                                 // Identical ids decide true even with no budget at all.
        let mut starved = NfMemo::with_max_rounds(0);
        assert_eq!(try_equiv_in(&mut ar, e1, e1, &mut starved), Some(true));
        // Differing best-effort ids under saturation prove nothing.
        assert_eq!(try_equiv_in(&mut ar, e1, e2, &mut starved), None);
        // With budget, the comparison decides.
        assert_eq!(try_equiv_in(&mut ar, e1, e2, &mut memo), Some(true));
        let b = ar.atom(t.fresh_tuple());
        assert_eq!(try_equiv_in(&mut ar, e1, b, &mut memo), Some(false));
    }
}
