//! The versioned, checksummed binary snapshot format: one blob holding
//! everything a restart needs — atom table, the topo-ordered arena, the
//! replay state's maps, and which tuples are certified.
//!
//! # On-disk layout
//!
//! ```text
//! "UPSNAP01"            8-byte magic
//! version: u32 LE       currently 6 (one root per tuple row)
//! payload_len: u64 LE
//! payload_crc: u32 LE   CRC-32 of the payload bytes
//! payload:              every integer a minimal LEB128 varint
//!   wal_seq                           appends already folded in
//!   atoms:   count, then per atom kind u8 + front-coded name
//!   arena:   node count, then per node (ids 1…) a tag byte — node kind in
//!            bits 0–2, operator in bits 3–4, flags above — and its fields:
//!              atom     atom index, unless bit 5: the next fresh index
//!              bin      lhs, unless bit 5: the node right below; rhs,
//!                       unless bits 6–7 name a slot of the rhs window
//!              sum      arity, terms
//!              counted  head, arity, (entry, multiplicity) pairs
//!            A child is stored as its back-distance `own id − child id`
//!            (≥ 1): most children sit a few nodes below their parent, so
//!            most take one byte. A counted block is a handful of pairs
//!            on disk however many applications it stands for.
//!   state:   updates, then one row per tuple: front-coded name and
//!            `root << 1 | certified` (a certified root is its normal
//!            form); then the base and txn atoms as ascending, gap-coded
//!            atom-table indices. Ids are arena indices.
//!   nf-cache: count, then (root, nf) pairs no certified row implies, by
//!             ascending gap-coded root
//! ```
//!
//! What decode can infer is not stored:
//! - **Fresh atoms.** An atom node whose index is the smallest one no
//!   earlier atom node holds sets tag bit 5 instead of spelling it.
//! - **Left children.** A binary node whose left child is the node right
//!   below sets tag bit 5 instead of writing back-distance 1.
//! - **Right operands** are coded against a two-slot move-to-front window
//!   of earlier binary nodes' right operands: bits 6–7 are `0` (spelled
//!   out; a miss pushes it into slot 0), `1` (slot 0) or `2` (slot 1; the
//!   hit swaps the slots).
//! - **Names** (atom table in index order, tuple rows in sorted order) are
//!   front-coded against the name before ([`put_name`], as in the WAL):
//!   shared-prefix length, suffix length, suffix bytes.
//! - **Gaps.** A list of ascending indices stores each as its distance
//!   above one past the index before it.
//! - **Cache pairs.** Decode re-seeds `root ↦ root` for every certified
//!   row, and `nf ↦ nf` for every stored pair, so those pairs are not
//!   stored.
//!
//! Decode reads any spelling it can parse, then ends by re-encoding what
//! it rebuilt: bytes that differ from that encoding (an implied field
//! spelled out, a long varint, a node no tuple reaches, a pair decode
//! re-seeds) are [`SnapshotError::Corrupt`]`("not the canonical
//! spelling")`. So [`encode`] is the one rulebook, a snapshot has exactly
//! one byte string, and re-encoding a recovered engine reproduces it.
//!
//! The arena section is the paper-structure payoff: the hash-consed arena
//! is already a topologically ordered flat node list whose ids are dense
//! indices (children before parents), so serialization is a linear dump
//! and deserialization a linear bulk rebuild
//! (`ExprArena::from_canonical_nodes`) that verifies each node would
//! re-intern at **exactly its index in the snapshot** — so every stored
//! id names the node it named when written, and any non-canonical or
//! reordered input is rejected as [`SnapshotError::Corrupt`] rather than
//! trusted. The decoded arena is the checkpoint's live set, numbered in
//! the original order: ids match the writer's only through structural
//! hashes.
//!
//! Decoding is **total** over arbitrary bytes: magic/version/CRC gate the
//! payload, and every structural read is bounds-checked ([`SnapshotError`]
//! carries the failure). Corruption of a snapshot is *not* repairable tail
//! truncation like the WAL — the snapshot is written atomically, so a bad
//! one means real media corruption and recovery refuses it loudly.

use std::fmt;

use uprov_core::{Atom, AtomKind, AtomTable, BinOp, ExprArena, Node, NodeId, NodeList};
use uprov_engine::{Engine, ReplayState, StateSnapshot};

use crate::codec::{
    put_name, put_u32, put_u64, put_var, put_var64, take_name, DecodeError, Reader,
};
use crate::crc::crc32;

/// The snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"UPSNAP01";

/// The current snapshot format version: varint integers, children as
/// back-distances, each tuple written once as one row holding one root
/// (a certified tuple's root is its normal form), and nothing written
/// that decode infers (see the module docs). Older versions are
/// **rejected**, not migrated, so there is one decoder. Version 1 could
/// not be migrated anyway: its certified-NF sections record expanded-spine
/// images that are not normal under the counted rule system, and
/// re-seeding them would poison every later incremental normalization (the
/// [`uprov_core::NfCache`] contract).
pub const SNAPSHOT_VERSION: u32 = 6;

/// Why a snapshot blob was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than the fixed header.
    TooShort,
    /// The magic is not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// A version this build does not read.
    UnsupportedVersion(u32),
    /// The header's payload length disagrees with the blob length.
    LengthMismatch,
    /// The payload bytes do not hash to the stored CRC-32.
    ChecksumMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload passed its CRC but does not spell a snapshot.
    Decode(DecodeError),
    /// The payload decodes structurally but violates a format invariant
    /// (dangling id, non-canonical node, duplicate atom…).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than its header"),
            SnapshotError::BadMagic => write!(f, "snapshot magic mismatch (not UPSNAP01)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::LengthMismatch => {
                write!(f, "snapshot payload length disagrees with blob size")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SnapshotError::Decode(e) => write!(f, "snapshot payload: {e}"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot integrity: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

/// Everything [`decode`] rebuilds from one snapshot blob.
#[derive(Debug)]
pub struct RecoveredSnapshot {
    /// The engine, arena and atom table restored, certified normal forms
    /// re-seeded into its cache.
    pub engine: Engine,
    /// The replay state at snapshot time.
    pub state: ReplayState,
    /// The WAL sequence number the snapshot covers: tail records with
    /// `seq` below this are already folded in and must be skipped.
    pub wal_seq: u64,
}

/// Bytes before the payload: magic, version, payload length, payload CRC.
const HEADER_LEN: usize = 24;

/// Node kind, the tag's bits 0–2: an atom leaf.
const NODE_ATOM: u8 = 1;
/// Node kind: a binary operation.
const NODE_BIN: u8 = 2;
/// Node kind: an n-ary sum.
const NODE_SUM: u8 = 3;
/// Node kind: a counted `+I`/`+M` block.
const NODE_COUNTED: u8 = 4;
/// The tag bits that hold the node kind.
const KIND_MASK: u8 = 0x07;
/// Where the operator of a binary node or counted block sits in its tag.
const OP_SHIFT: u8 = 3;
/// The tag bits that hold the operator.
const OP_MASK: u8 = 0x18;
/// Tag bit 5: the node's first field is implied — an atom node's index is
/// the next fresh one, a binary node's left child is the node right below.
const IMPLIED: u8 = 0x20;
/// Where a binary node's right-operand mode sits in its tag (bits 6–7).
const RHS_SHIFT: u8 = 6;
/// Right-operand mode: spelled out as a back-distance.
const RHS_EXPLICIT: u8 = 0;
/// Right-operand mode: slot 0 of the window.
const RHS_SLOT0: u8 = 1;
/// Right-operand mode: slot 1 of the window.
const RHS_SLOT1: u8 = 2;

fn op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::PlusI => 0,
        BinOp::Minus => 1,
        BinOp::PlusM => 2,
        BinOp::DotM => 3,
    }
}

/// The operator in a tag's bits 3–4.
fn op_of(tag: u8) -> BinOp {
    match (tag & OP_MASK) >> OP_SHIFT {
        0 => BinOp::PlusI,
        1 => BinOp::Minus,
        2 => BinOp::PlusM,
        _ => BinOp::DotM,
    }
}

/// The two most recent right operands of binary nodes, most recent first:
/// a binary node's right operand is coded as a hit in one of the slots or
/// spelled out. Encode and decode step it alike, so it never travels.
#[derive(Default)]
struct RhsWindow([Option<u32>; 2]);

impl RhsWindow {
    /// The right-operand mode that codes `id`, moving it to the front: a
    /// hit in slot 1 swaps the slots, a miss pushes `id` into slot 0. The
    /// slots never hold the same id twice, so the mode is unique.
    fn code(&mut self, id: u32) -> u8 {
        let [first, second] = self.0;
        if first == Some(id) {
            RHS_SLOT0
        } else if second == Some(id) {
            self.0 = [second, first];
            RHS_SLOT1
        } else {
            self.0 = [Some(id), first];
            RHS_EXPLICIT
        }
    }
}

/// The atom indices atom nodes have taken so far, and the smallest index
/// none has: the one an atom node codes with [`IMPLIED`].
struct FreshAtoms {
    seen: Vec<bool>,
    next: usize,
}

impl FreshAtoms {
    fn new(natoms: usize) -> Self {
        FreshAtoms {
            seen: vec![false; natoms],
            next: 0,
        }
    }

    /// Records an atom node holding `ix` and answers whether `ix` was the
    /// fresh index, i.e. whether the node codes it with [`IMPLIED`].
    fn code(&mut self, ix: usize) -> bool {
        let fresh = ix == self.next;
        if let Some(seen) = self.seen.get_mut(ix) {
            *seen = true;
        }
        while self.seen.get(self.next) == Some(&true) {
            self.next += 1;
        }
        fresh
    }
}

/// Writes ascending indices: the count, then each one's distance above
/// one past the index before it (the first: above zero).
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn put_ascending(p: &mut Vec<u8>, ixs: &[u32]) {
    put_var(p, ixs.len() as u32);
    let mut next = 0;
    for &ix in ixs {
        put_var(p, ix - next);
        next = ix + 1;
    }
}

/// Whether `id` is set in `flags` (an id out of range is not).
fn has(flags: &[bool], id: NodeId) -> bool {
    flags.get(id.index()) == Some(&true)
}

/// Sets `id` in `flags` (an id out of range sets nothing).
fn set(flags: &mut [bool], id: NodeId) {
    if let Some(flag) = flags.get_mut(id.index()) {
        *flag = true;
    }
}

/// Serializes the engine + state into one snapshot blob. `wal_seq` is the
/// all-time append sequence the snapshot covers (see
/// [`RecoveredSnapshot::wal_seq`]).
///
/// A checkpoint holds the database, not the query history. It writes the
/// nodes the tuple roots reach (a certified root is a normal form) and, of
/// the certified-NF cache, only the pairs keyed by a node some tuple root
/// reaches: those are the cuts recovery's certify can use. Of those, it
/// leaves out the pairs decode re-seeds on its own (see the module docs).
/// A symbolic query's or an equivalence probe's answers are keyed by
/// nodes no tuple reaches, so they never hit the disk, and neither do
/// dead rewrite intermediates. Ids are compacted order-preservingly, which
/// is sound because no live id escapes the snapshot un-remapped and the
/// WAL addresses updates by *name*, never by node id.
///
/// Total, like decode: [`decode`] runs it on whatever it rebuilt.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
pub fn encode(engine: &Engine, state: &ReplayState, wal_seq: u64) -> Vec<u8> {
    let arena = engine.arena();
    let snap = state.to_snapshot();
    let mut live = vec![false; arena.len()];
    // Zero is structural: always id 0, always kept.
    let roots = snap.tuples.iter().map(|&(_, root, _)| root);
    mark_live(arena, &mut live, roots.chain([ExprArena::ZERO]));
    // Keys whose pair decode re-seeds: every certified root, then the
    // image of every pair written.
    let mut implied = vec![false; arena.len()];
    for &(_, root, certified) in &snap.tuples {
        if certified {
            set(&mut implied, root);
        }
    }
    let mut nf_pairs: Vec<(NodeId, NodeId)> = engine
        .nf_cache()
        .iter_certified()
        .filter(|&(root, _)| has(&live, root) && !has(&implied, root))
        .collect();
    for &(root, nf) in &nf_pairs {
        if root != nf {
            set(&mut implied, nf);
        }
    }
    nf_pairs.retain(|&(root, nf)| root != nf || !has(&implied, root));
    nf_pairs.sort_unstable();
    mark_live(arena, &mut live, nf_pairs.iter().map(|&(_, nf)| nf));
    // Order-preserving compaction: children stay below parents.
    let mut remap = Vec::with_capacity(live.len());
    let mut nlive = 0u32;
    for &keep in &live {
        remap.push(nlive);
        nlive += u32::from(keep);
    }
    let remapped = |id: NodeId| remap.get(id.index()).copied().unwrap_or_default();

    // The frame header goes first into the one output buffer; its length
    // and CRC fields are patched once the payload behind it is complete.
    let mut p = Vec::new();
    p.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut p, SNAPSHOT_VERSION);
    put_u64(&mut p, 0);
    put_u32(&mut p, 0);
    debug_assert_eq!(p.len(), HEADER_LEN);
    put_var64(&mut p, wal_seq);
    // Atom table, in index order (named() re-interns at the same index).
    let atoms = engine.atoms();
    put_var(&mut p, atoms.len() as u32);
    let mut prev = "";
    for a in atoms.iter() {
        p.push(match atoms.kind(a) {
            AtomKind::Tuple => 0,
            AtomKind::Txn => 1,
        });
        put_name(&mut p, prev, atoms.name(a));
        prev = atoms.name(a);
    }
    // Live arena nodes, in compacted id order.
    put_var(&mut p, nlive);
    let mut fresh = FreshAtoms::new(atoms.len());
    let mut window = RhsWindow::default();
    for (ix, _) in live.iter().enumerate().filter(|&(_, &keep)| keep) {
        // Children as back-distances from this node's compacted id.
        let id = NodeId::from_index(ix);
        let back = |child: NodeId| remapped(id) - remapped(child);
        match arena.node(id) {
            // Zero is id 0, implied: it writes nothing.
            Node::Zero => {}
            Node::Atom(a) => {
                if fresh.code(a.index()) {
                    p.push(NODE_ATOM | IMPLIED);
                } else {
                    p.push(NODE_ATOM);
                    put_var(&mut p, a.index() as u32);
                }
            }
            Node::Bin(op, a, b) => {
                let left_below = back(a) == 1;
                let rhs = window.code(remapped(b));
                let left = if left_below { IMPLIED } else { 0 };
                p.push(NODE_BIN | op_tag(op) << OP_SHIFT | left | rhs << RHS_SHIFT);
                if !left_below {
                    put_var(&mut p, back(a));
                }
                if rhs == RHS_EXPLICIT {
                    put_var(&mut p, back(b));
                }
            }
            Node::Counted(op, h, es) => {
                p.push(NODE_COUNTED | op_tag(op) << OP_SHIFT);
                put_var(&mut p, back(h));
                put_var(&mut p, es.len() as u32);
                for &(e, m) in es.iter() {
                    put_var(&mut p, back(e));
                    put_var(&mut p, m);
                }
            }
            Node::Sum(terms) => {
                p.push(NODE_SUM);
                put_var(&mut p, terms.len() as u32);
                for &t in terms.iter() {
                    put_var(&mut p, back(t));
                }
            }
        }
    }
    debug_assert!(snap
        .base_atoms
        .iter()
        .chain(&snap.txn_atoms)
        .all(|(name, a)| atoms.name(*a) == name));
    put_state(&mut p, &snap, remapped);
    let nf_entries: Vec<(u32, u32)> = nf_pairs
        .iter()
        .map(|&(root, nf)| (remapped(root), remapped(nf)))
        .collect();
    put_nf_cache(&mut p, &nf_entries);
    // Frame it: patch the payload's length and checksum into the header.
    if let Some((header, payload)) = p.split_at_mut_checked(HEADER_LEN) {
        let len = (payload.len() as u64).to_le_bytes();
        let fields = len.into_iter().chain(crc32(payload).to_le_bytes());
        for (at, b) in header.iter_mut().skip(12).zip(fields) {
            *at = b;
        }
    }
    p
}

/// Marks every node reachable from `roots` in `live`; a node already
/// marked (or an id out of range) is not walked.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn mark_live(arena: &ExprArena, live: &mut [bool], roots: impl Iterator<Item = NodeId>) {
    let mut stack: Vec<NodeId> = roots.collect();
    while let Some(id) = stack.pop() {
        match live.get_mut(id.index()) {
            Some(seen) if !*seen => *seen = true,
            _ => continue,
        }
        match arena.node(id) {
            Node::Zero | Node::Atom(_) => {}
            Node::Bin(_, a, b) => {
                stack.push(a);
                stack.push(b);
            }
            Node::Counted(_, h, es) => {
                stack.push(h);
                stack.extend(es.iter().map(|&(e, _)| e));
            }
            Node::Sum(terms) => stack.extend_from_slice(terms),
        }
    }
}

/// Writes the replay-state section of a snapshot, every id through
/// `remap` (arena id to snapshot id). Each tuple is one row: its name
/// front-coded against the row before (a tuple inserted mid-transaction
/// is annotated with the txn's atom, so its own name lives only in the
/// replay state), then `root << 1 | certified` in one varint.
/// Base-tuple and transaction names are interned atoms, so those two
/// sections store ascending atom indices instead of spelling each name
/// out again.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn put_state(p: &mut Vec<u8>, snap: &StateSnapshot, remap: impl Fn(NodeId) -> u32) {
    put_var64(p, snap.updates);
    put_var(p, snap.tuples.len() as u32);
    let mut prev = "";
    for (name, root, certified) in &snap.tuples {
        put_name(p, prev, name);
        prev = name;
        put_var64(p, u64::from(remap(*root)) << 1 | u64::from(*certified));
    }
    for named in [&snap.base_atoms, &snap.txn_atoms] {
        let mut ixs: Vec<u32> = named.iter().map(|(_, a)| a.index() as u32).collect();
        ixs.sort_unstable();
        put_ascending(p, &ixs);
    }
}

/// Writes the certified-NF cache section: its `(root, nf)` snapshot-id
/// pairs, sorted by root, each root gap-coded as in [`put_ascending`].
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn put_nf_cache(p: &mut Vec<u8>, entries: &[(u32, u32)]) {
    put_var(p, entries.len() as u32);
    let mut next = 0;
    for &(root, nf) in entries {
        put_var(p, root - next);
        put_var(p, nf);
        next = root + 1;
    }
}

/// Reads one index [`put_ascending`] gap-coded after `next` (one past the
/// index before it) and advances `next`; `bound` is one past the largest
/// index allowed.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn take_gap(
    r: &mut Reader<'_>,
    next: &mut usize,
    bound: usize,
    what: &'static str,
    out_of_range: &'static str,
) -> Result<usize, SnapshotError> {
    let ix = next.saturating_add(r.take_var(what)? as usize);
    if ix >= bound {
        return Err(SnapshotError::Corrupt(out_of_range));
    }
    *next = ix + 1;
    Ok(ix)
}

/// Decodes the payload sections after the arena node list: the replay
/// state and the stored certified-NF pairs. Pure byte reading plus range,
/// kind and order checks, independent of the arena value.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn decode_tail(
    r: &mut Reader<'_>,
    atoms: &AtomTable,
    natoms: usize,
    nnodes: usize,
) -> Result<(StateSnapshot, Vec<(NodeId, NodeId)>), SnapshotError> {
    const OUT_OF_ARENA: &str = "node id out of arena range";
    let node_id = |r: &mut Reader<'_>, what| -> Result<NodeId, SnapshotError> {
        let raw = r.take_var(what)? as usize;
        if raw >= nnodes {
            return Err(SnapshotError::Corrupt(OUT_OF_ARENA));
        }
        Ok(NodeId::from_index(raw))
    };
    // Replay state.
    let mut snap = StateSnapshot {
        updates: r.take_var64("update count")?,
        ..StateSnapshot::default()
    };
    // Tuple names must arrive strictly sorted (byte order): the engine's
    // tuple table takes the snapshot order as its sorted order.
    let ntuples = r.take_var("tuple count")? as usize;
    let mut prev = Vec::new();
    for _ in 0..ntuples {
        let name = take_name(r, &mut prev, "tuple name")?.to_owned();
        let row = r.take_var64("tuple root")?;
        let root = match usize::try_from(row >> 1) {
            Ok(ix) if ix < nnodes => NodeId::from_index(ix),
            _ => return Err(SnapshotError::Corrupt(OUT_OF_ARENA)),
        };
        if snap.tuples.last().is_some_and(|(prev, ..)| *prev >= name) {
            return Err(SnapshotError::Corrupt("tuple names not strictly sorted"));
        }
        snap.tuples.push((name, root, row & 1 == 1));
    }
    // Base/txn names are stored as atom indices (see [`encode`]); each is
    // range- and kind-checked, then its name re-materialized from the
    // table decoded above.
    let kinded_atoms =
        |r: &mut Reader<'_>, want: AtomKind, what| -> Result<Vec<(String, Atom)>, SnapshotError> {
            let n = r.take_var(what)? as usize;
            let mut out = Vec::with_capacity(n.min(1 << 16));
            let mut next = 0;
            for _ in 0..n {
                let ix = take_gap(r, &mut next, natoms, what, "state atom out of table range")?;
                let atom = Atom::from_index(ix);
                if atoms.kind(atom) != want {
                    return Err(SnapshotError::Corrupt("state atom has the wrong kind"));
                }
                out.push((atoms.name(atom).to_owned(), atom));
            }
            Ok(out)
        };
    snap.base_atoms = kinded_atoms(r, AtomKind::Tuple, "base atom")?;
    snap.txn_atoms = kinded_atoms(r, AtomKind::Txn, "txn atom")?;
    // Engine-level NF cache: the pairs decode cannot re-seed.
    let nnf = r.take_var("nf cache count")? as usize;
    let mut nf_entries = Vec::with_capacity(nnf.min(1 << 16));
    let mut next = 0;
    for _ in 0..nnf {
        let root = take_gap(r, &mut next, nnodes, "nf cache root", OUT_OF_ARENA)?;
        let root = NodeId::from_index(root);
        let nf = node_id(r, "nf cache image")?;
        nf_entries.push((root, nf));
    }
    Ok((snap, nf_entries))
}

/// Deserializes a snapshot blob, rebuilding the engine over the
/// checkpoint's live nodes (see the module docs). Total over arbitrary
/// input.
///
/// One pass on the calling thread: the header, then the payload's CRC,
/// then the parse, then the re-encode. A checksum mismatch is therefore
/// reported ahead of any parse error: the payload bytes themselves are
/// untrustworthy.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
pub fn decode(bytes: &[u8]) -> Result<RecoveredSnapshot, SnapshotError> {
    // Header. The magic comparison and every header field go through
    // total reads: a blob shorter than its fixed header is a typed error,
    // not a slice panic.
    let magic_ok = bytes.starts_with(&SNAPSHOT_MAGIC);
    if bytes.len() < HEADER_LEN {
        return Err(if bytes.len() >= 8 && !magic_ok {
            SnapshotError::BadMagic
        } else {
            SnapshotError::TooShort
        });
    }
    if !magic_ok {
        return Err(SnapshotError::BadMagic);
    }
    let mut hdr = Reader::new(bytes.get(8..HEADER_LEN).unwrap_or_default());
    let version = hdr.take_u32("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let payload_len = hdr.take_u64("payload length")?;
    let stored = hdr.take_u32("payload checksum")?;
    if (bytes.len() - HEADER_LEN) as u64 != payload_len {
        return Err(SnapshotError::LengthMismatch);
    }
    let payload = bytes.get(HEADER_LEN..).unwrap_or_default();
    let computed = crc32(payload);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let rec = decode_payload(payload)?;
    // The parse reads any spelling; the encoder writes the one there is.
    if encode(&rec.engine, &rec.state, rec.wal_seq) != bytes {
        return Err(SnapshotError::Corrupt("not the canonical spelling"));
    }
    Ok(rec)
}

/// The parse of one payload whose CRC [`decode`] has checked.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn decode_payload(payload: &[u8]) -> Result<RecoveredSnapshot, SnapshotError> {
    let mut r = Reader::new(payload);
    let wal_seq = r.take_var64("wal sequence")?;
    // Atom table: re-intern in index order; a duplicate name would silently
    // collapse onto the earlier index and shift every later atom, so it is
    // rejected before `named` can resolve (or kind-clash on) it.
    let natoms = r.take_var("atom count")? as usize;
    let mut atoms = AtomTable::new();
    atoms.reserve(natoms.min(1 << 16));
    let mut prev = Vec::new();
    for _ in 0..natoms {
        let kind = match r.take_byte("atom kind")? {
            0 => AtomKind::Tuple,
            1 => AtomKind::Txn,
            _ => return Err(SnapshotError::Corrupt("unknown atom kind")),
        };
        let name = take_name(&mut r, &mut prev, "atom name")?.to_owned();
        atoms
            .insert_new(name, kind)
            .ok_or(SnapshotError::Corrupt("duplicate atom name"))?;
    }
    // Arena: decode the nodes straight into the arena's flat storage (two
    // scratch vectors, no allocation per node), then index it in bulk
    // through [`ExprArena::from_canonical_nodes`], which verifies it is
    // exactly what re-interning through the smart constructors would
    // reproduce — the decode-side proof that the snapshot was canonical
    // (zero-axiom-reduced, deduped, topologically ordered) and that every
    // id in it stays valid — while paying one pre-sized probe per node
    // instead of a full re-intern (the recovery hot spot at 10⁴⁺ nodes).
    let nnodes = r.take_var("node count")? as usize;
    if nnodes == 0 {
        return Err(SnapshotError::Corrupt("arena without its zero node"));
    }
    // An eighth of headroom: post-recovery appends start interning right
    // away, and a doubling realloc of a multi-10k-node vector is the single
    // largest avoidable cost of the first append after a restart.
    let mut nodes = NodeList::with_capacity((nnodes + nnodes / 8).min(1 << 20));
    nodes.push(Node::Zero);
    let mut terms: Vec<NodeId> = Vec::new();
    let mut entries: Vec<(NodeId, u32)> = Vec::new();
    let mut fresh = FreshAtoms::new(natoms);
    let mut window = RhsWindow::default();
    for ix in 1..nnodes {
        // A child is stored as its back-distance from `ix`: 1 is the node
        // right below, `ix` is Zero.
        let child = |r: &mut Reader<'_>, what| -> Result<NodeId, SnapshotError> {
            let back = r.take_var(what)? as usize;
            if back == 0 || back > ix {
                return Err(SnapshotError::Corrupt("child id not below its parent"));
            }
            Ok(NodeId::from_index(ix - back))
        };
        terms.clear();
        entries.clear();
        let tag = r.take_byte("node tag")?;
        let implied = tag & IMPLIED != 0;
        // Each kind uses only its own tag bits: any other bit pattern is
        // not a second spelling of some node.
        let node = match tag & KIND_MASK {
            NODE_ATOM if tag & !IMPLIED == NODE_ATOM => {
                let raw = if implied {
                    fresh.next
                } else {
                    r.take_var("atom node index")? as usize
                };
                if raw >= natoms {
                    return Err(SnapshotError::Corrupt("atom node out of table range"));
                }
                fresh.code(raw);
                Node::Atom(Atom::from_index(raw))
            }
            NODE_SUM if tag == NODE_SUM => {
                let nterms = r.take_var("sum arity")? as usize;
                for _ in 0..nterms {
                    terms.push(child(&mut r, "sum term")?);
                }
                Node::Sum(&terms)
            }
            NODE_BIN if tag >> RHS_SHIFT <= RHS_SLOT1 => {
                let a = if implied {
                    NodeId::from_index(ix - 1)
                } else {
                    child(&mut r, "bin lhs")?
                };
                let rhs = tag >> RHS_SHIFT;
                let b = match rhs {
                    RHS_EXPLICIT => Some(child(&mut r, "bin rhs")?.index() as u32),
                    RHS_SLOT0 => window.0[0],
                    _ => window.0[1],
                };
                let b = b.ok_or(SnapshotError::Corrupt("right operand from an empty slot"))?;
                window.code(b);
                Node::Bin(op_of(tag), a, NodeId::from_index(b as usize))
            }
            NODE_COUNTED if tag & !OP_MASK == NODE_COUNTED => {
                // Block canonicity (operator, sorted entries, nonzero
                // multiplicities, the two-application threshold) is
                // checked once, by the bulk rebuild below.
                let h = child(&mut r, "counted head")?;
                let nentries = r.take_var("counted arity")? as usize;
                for _ in 0..nentries {
                    let e = child(&mut r, "counted entry")?;
                    let m = r.take_var("counted multiplicity")?;
                    entries.push((e, m));
                }
                Node::Counted(op_of(tag), h, &entries)
            }
            _ => return Err(SnapshotError::Corrupt("unknown node tag")),
        };
        nodes.push(node);
    }
    // The arena verdict outranks tail errors: a non-canonical node list is
    // the more fundamental corruption (the tail's ids are meaningless
    // against a rejected arena).
    let arena = ExprArena::from_canonical_nodes(nodes).map_err(|e| SnapshotError::Corrupt(e.0))?;
    let (snap, nf_entries) = decode_tail(&mut r, &atoms, natoms, nnodes)?;
    let mut engine = Engine::from_parts(atoms, arena);
    let cache = engine.nf_cache_mut();
    for &(_, root, certified) in &snap.tuples {
        if certified {
            cache.insert_certified(root, root);
        }
    }
    for &(root, nf) in &nf_entries {
        cache.insert_certified(root, nf);
    }
    // An image is a normal form whatever a later pair keys at it.
    for (_, nf) in nf_entries {
        cache.insert_certified(nf, nf);
    }
    Ok(RecoveredSnapshot {
        engine,
        state: ReplayState::from_snapshot(snap),
        wal_seq,
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use uprov_engine::UpdateLog;

    fn engine_with(log: &str) -> (Engine, ReplayState) {
        let mut engine = Engine::new();
        let log: UpdateLog = log.parse().expect("valid log");
        let mut state = engine.replay(&log).expect("replays");
        engine.certify(&mut state);
        (engine, state)
    }

    #[test]
    fn snapshot_round_trips_id_identically() {
        let (engine, state) =
            engine_with("base a b\nbegin t1\ninsert c\nmodify a <- b c\ncommit\n");
        let bytes = encode(&engine, &state, 7);
        let rec = decode(&bytes).expect("round trip");
        assert_eq!(rec.wal_seq, 7);
        assert_eq!(rec.engine.atoms().len(), engine.atoms().len());
        // The decoded arena is the checkpoint's live set, so the rows
        // match the originals through structural hashes; atoms keep their
        // indices.
        let rows = |e: &Engine, s: &ReplayState| {
            let snap = s.to_snapshot();
            let hash = |root| e.arena().structural_hash(root);
            let rows = snap.tuples.into_iter();
            let rows: Vec<_> = rows.map(|(n, root, c)| (n, hash(root), c)).collect();
            (rows, snap.base_atoms, snap.txn_atoms, snap.updates)
        };
        assert_eq!(rows(&rec.engine, &rec.state), rows(&engine, &state));
        assert_eq!(rec.state.certified_count(), 3, "certified rows survive");
        // Encoding the recovered engine reproduces the exact bytes, and
        // decoding those rebuilds the recovered state id for id.
        let again = encode(&rec.engine, &rec.state, 7);
        assert_eq!(again, bytes);
        let twice = decode(&again).expect("round trip");
        assert_eq!(twice.state.to_snapshot(), rec.state.to_snapshot());
        assert_eq!(twice.engine.arena().len(), rec.engine.arena().len());
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let (engine, state) = engine_with("base a\nbegin t\ninsert b\ncommit\n");
        let bytes = encode(&engine, &state, 0);
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                decode(&bad).is_err(),
                "flip at byte {at} must not decode cleanly"
            );
        }
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
    }

    /// One node of a snapshot's arena section, as its bytes spell it.
    struct NodeBytes {
        /// The node's byte range within the blob.
        span: Range<usize>,
        /// Its own (compacted) id.
        ix: u32,
        tag: u8,
        /// The varints after the tag, in order (children as back-distances).
        fields: Vec<u32>,
        /// A binary node's right operand, an atom node's atom index.
        operand: u32,
    }

    /// A snapshot's payload cut where decode cuts it.
    struct Layout {
        /// Each atom-table name's bytes (prefix length to suffix end).
        names: Vec<Range<usize>>,
        /// Every arena node after Zero.
        nodes: Vec<NodeBytes>,
        /// The replay-state section.
        state: Range<usize>,
        /// The nf-cache section.
        nf: Range<usize>,
    }

    /// Walks `bytes` exactly as decode does, stepping the fresh-atom
    /// cursor and the right-operand window alike.
    fn layout(bytes: &[u8]) -> Layout {
        let mut r = Reader::new(&bytes[HEADER_LEN..]);
        let at = |r: &Reader<'_>| HEADER_LEN + r.pos();
        let skip_name = |r: &mut Reader<'_>| {
            r.take_var("shared").unwrap();
            let len = r.take_var("suffix length").unwrap();
            r.take(len as usize, "suffix").unwrap();
        };
        r.take_var64("wal").unwrap();
        let natoms = r.take_var("atoms").unwrap() as usize;
        let mut names = Vec::new();
        for _ in 0..natoms {
            r.take(1, "kind").unwrap();
            let from = at(&r);
            skip_name(&mut r);
            names.push(from..at(&r));
        }
        let nnodes = r.take_var("nodes").unwrap();
        let (mut fresh, mut window) = (FreshAtoms::new(natoms), RhsWindow::default());
        let mut nodes = Vec::new();
        for ix in 1..nnodes {
            let from = at(&r);
            let tag = r.take_byte("tag").unwrap();
            let mut var = || r.take_var("field").unwrap();
            let mut fields = Vec::new();
            let mut operand = 0;
            match tag & KIND_MASK {
                NODE_ATOM => {
                    operand = if tag & IMPLIED != 0 {
                        fresh.next as u32
                    } else {
                        fields.push(var());
                        fields[0]
                    };
                    fresh.code(operand as usize);
                }
                NODE_BIN => {
                    if tag & IMPLIED == 0 {
                        fields.push(var());
                    }
                    operand = match tag >> RHS_SHIFT {
                        RHS_EXPLICIT => {
                            fields.push(var());
                            ix - fields.last().unwrap()
                        }
                        RHS_SLOT0 => window.0[0].unwrap(),
                        _ => window.0[1].unwrap(),
                    };
                    window.code(operand);
                }
                NODE_SUM => {
                    let n = var();
                    fields.push(n);
                    fields.extend((0..n).map(|_| var()));
                }
                NODE_COUNTED => {
                    fields.extend([var(), var()]);
                    fields.extend((0..2 * fields[1]).map(|_| var()));
                }
                t => panic!("unexpected node kind {t}"),
            }
            nodes.push(NodeBytes {
                span: from..at(&r),
                ix,
                tag,
                fields,
                operand,
            });
        }
        let state_from = at(&r);
        r.take_var64("updates").unwrap();
        for _ in 0..r.take_var("tuples").unwrap() {
            skip_name(&mut r);
            r.take_var64("root and certified bit").unwrap();
        }
        for _ in 0..2 {
            for _ in 0..r.take_var("atom list").unwrap() {
                r.take_var("gap").unwrap();
            }
        }
        Layout {
            names,
            nodes,
            state: state_from..at(&r),
            nf: at(&r)..bytes.len(),
        }
    }

    /// The first node of `bytes` for which `pick` holds.
    fn node_where(bytes: &[u8], pick: impl Fn(&NodeBytes) -> bool) -> NodeBytes {
        let nodes = layout(bytes).nodes.into_iter();
        nodes
            .into_iter()
            .find(pick)
            .expect("the snapshot holds such a node")
    }

    /// The first node of `kind` in `bytes`.
    fn first_node(bytes: &[u8], kind: u8) -> NodeBytes {
        node_where(bytes, |n| n.tag & KIND_MASK == kind)
    }

    /// `bytes` with `span` replaced by `with`, re-framed.
    fn spliced(bytes: &[u8], span: Range<usize>, with: Vec<u8>) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out.splice(span, with);
        reframe(out)
    }

    /// `bytes` with `node` re-spelled as `tag` and `fields`, re-framed.
    fn respelled(bytes: &[u8], node: &NodeBytes, tag: u8, fields: &[u32]) -> Vec<u8> {
        let mut spelled = vec![tag];
        for &f in fields {
            put_var(&mut spelled, f);
        }
        spliced(bytes, node.span.clone(), spelled)
    }

    fn corrupt(what: &'static str) -> Result<(), SnapshotError> {
        Err(SnapshotError::Corrupt(what))
    }

    /// What decode answers for any spelling but the one encode writes.
    const OTHER_SPELLING: Result<(), SnapshotError> =
        Err(SnapshotError::Corrupt("not the canonical spelling"));

    fn decoded(blob: &[u8]) -> Result<(), SnapshotError> {
        decode(blob).map(|_| ())
    }

    #[test]
    fn corrupt_counted_blocks_are_typed_errors_not_panics() {
        // Two transactions each inserting `a` twice: a's certified NF is a
        // counted +I block with two entries, live in the snapshot through
        // its tuple row.
        let (engine, state) = engine_with(
            "base a\nbegin t1\ninsert a\ninsert a\ncommit\nbegin t2\ninsert a\ninsert a\ncommit\n",
        );
        let bytes = encode(&engine, &state, 0);
        let block = first_node(&bytes, NODE_COUNTED);
        // head, arity, then (entry, multiplicity) pairs.
        let f = &block.fields;
        assert_eq!(f[1], 2, "the test log yields a two-entry block");
        assert_eq!(f.len(), 6);
        let tag = block.tag;
        assert_eq!(respelled(&bytes, &block, tag, f), bytes, "re-spelled as is");
        let decoded = |tag: u8, fields: &[u32]| decoded(&respelled(&bytes, &block, tag, fields));
        // The two sorted (entry, multiplicity) pairs swapped, or the first
        // one twice.
        let unsorted = corrupt("counted entries not strictly sorted");
        assert_eq!(decoded(tag, &[f[0], 2, f[4], f[5], f[2], f[3]]), unsorted);
        assert_eq!(decoded(tag, &[f[0], 2, f[2], f[3], f[2], f[3]]), unsorted);
        assert_eq!(
            decoded(tag, &[f[0], 2, f[2], 0, f[4], f[5]]),
            corrupt("zero multiplicity in a counted block")
        );
        assert_eq!(
            decoded(tag, &[f[0], 1, f[2], 1]),
            corrupt("counted block below the two-application threshold")
        );
        assert_eq!(
            decoded(tag, &[f[0], 0]),
            corrupt("counted block without entries")
        );
        assert_eq!(
            decoded(op_tag(BinOp::Minus) << OP_SHIFT | NODE_COUNTED, f),
            corrupt("counted block under a non-increment operator")
        );
        // A back-distance of 0 names the node itself; one past its own
        // index names no node at all. Head and entries alike.
        let not_below = corrupt("child id not below its parent");
        for back in [0, block.ix + 1] {
            let head = [back, 2, f[2], f[3], f[4], f[5]];
            assert_eq!(decoded(tag, &head), not_below, "head {back}");
            let entry = [f[0], 2, back, f[3], f[4], f[5]];
            assert_eq!(decoded(tag, &entry), not_below, "entry {back}");
        }
    }

    /// Whether a node tag is one encode writes: each kind uses its own
    /// bits only.
    fn tag_in_use(tag: u8) -> bool {
        match tag & KIND_MASK {
            NODE_ATOM => tag & !IMPLIED == NODE_ATOM,
            NODE_BIN => tag >> RHS_SHIFT <= RHS_SLOT1,
            NODE_SUM => tag == NODE_SUM,
            NODE_COUNTED => tag & !OP_MASK == NODE_COUNTED,
            _ => false,
        }
    }

    /// A log whose snapshots hold every node kind and every binary-node
    /// spelling: atoms, a sum (the two-source modify, in the replayed
    /// state), a counted block (a inserted twice per transaction, in the
    /// certified one), left children right below and not, right operands
    /// from both slots and spelled out.
    const EVERY_KIND_LOG: &str = "base a b c\nbegin t1\ninsert a\ninsert a\nmodify b <- a c\n\
        commit\nbegin t2\ninsert a\ninsert a\ndelete c\ncommit\nbegin t3\nmodify c <- b\n\
        modify a <- c\ncommit\nbegin t4\ndelete b\ncommit\n";

    #[test]
    fn the_test_log_spells_every_node_every_way() {
        let (engine, state) = engine_with(EVERY_KIND_LOG);
        let tags_of = |engine, state| -> Vec<u8> {
            let nodes = layout(&encode(engine, state, 0)).nodes;
            nodes.iter().map(|n| n.tag).collect()
        };
        // A certified root is its normal form, and this log's normal forms
        // hold no sum: the replayed, dirty state spells one.
        let mut tags = tags_of(&engine, &state);
        let mut dirty = Engine::new();
        let replayed = dirty.replay(&EVERY_KIND_LOG.parse().unwrap()).unwrap();
        tags.extend(tags_of(&dirty, &replayed));
        let has = |mask: u8, want: u8| tags.iter().any(|&t| t & mask == want);
        for kind in [NODE_ATOM, NODE_BIN, NODE_SUM, NODE_COUNTED] {
            assert!(has(KIND_MASK, kind), "kind {kind}");
        }
        for (mask, want) in [
            (KIND_MASK | IMPLIED, NODE_BIN | IMPLIED),
            (KIND_MASK | IMPLIED, NODE_BIN),
            (0xc7, NODE_BIN | RHS_EXPLICIT << RHS_SHIFT),
            (0xc7, NODE_BIN | RHS_SLOT0 << RHS_SHIFT),
            (0xc7, NODE_BIN | RHS_SLOT1 << RHS_SHIFT),
        ] {
            assert!(has(mask, want), "no tag {want:#04x} under {mask:#04x}");
        }
        assert!(tags.iter().all(|&t| tag_in_use(t)));
    }

    #[test]
    fn every_unused_tag_bit_pattern_is_corrupt() {
        let (engine, state) = engine_with(EVERY_KIND_LOG);
        let bytes = encode(&engine, &state, 0);
        let atom = first_node(&bytes, NODE_ATOM);
        let unused: Vec<u8> = (0..=u8::MAX).filter(|&t| !tag_in_use(t)).collect();
        // Four of eight kinds unused; of the 32 tags of each kind in use,
        // atoms 30, binary nodes the 8 whose rhs mode is 3, sums 31 and
        // counted blocks 28.
        assert_eq!(unused.len(), 128 + 30 + 8 + 31 + 28);
        for tag in unused {
            let blob = respelled(&bytes, &atom, tag, &atom.fields);
            assert_eq!(decoded(&blob), corrupt("unknown node tag"), "{tag:#04x}");
        }
    }

    #[test]
    fn implied_fields_spelled_out_are_corrupt() {
        let (engine, state) = engine_with(EVERY_KIND_LOG);
        let bytes = encode(&engine, &state, 0);
        // A fresh atom index written out.
        let atom = node_where(&bytes, |n| n.tag == NODE_ATOM | IMPLIED);
        let blob = respelled(&bytes, &atom, NODE_ATOM, &[atom.operand]);
        assert_eq!(decoded(&blob), OTHER_SPELLING);
        // A left child at distance 1 written out.
        let bin = node_where(&bytes, |n| {
            n.tag & (KIND_MASK | IMPLIED) == NODE_BIN | IMPLIED
        });
        let mut fields = vec![1];
        fields.extend(&bin.fields);
        let blob = respelled(&bytes, &bin, bin.tag & !IMPLIED, &fields);
        assert_eq!(decoded(&blob), OTHER_SPELLING);
        // A right operand in either slot of the window written out.
        for slot in [RHS_SLOT0, RHS_SLOT1] {
            let bin = node_where(&bytes, |n| n.tag & 0xc7 == NODE_BIN | slot << RHS_SHIFT);
            let mut fields = bin.fields.clone();
            fields.push(bin.ix - bin.operand);
            let blob = respelled(&bytes, &bin, bin.tag & !(3 << RHS_SHIFT), &fields);
            assert_eq!(decoded(&blob), OTHER_SPELLING, "slot {slot}");
        }
        // The first binary node finds the window empty.
        let bin = first_node(&bytes, NODE_BIN);
        assert_eq!(bin.tag >> RHS_SHIFT, RHS_EXPLICIT);
        let left = &bin.fields[..bin.fields.len() - 1];
        for slot in [RHS_SLOT0, RHS_SLOT1] {
            let blob = respelled(&bytes, &bin, bin.tag | slot << RHS_SHIFT, left);
            assert_eq!(decoded(&blob), corrupt("right operand from an empty slot"));
        }
    }

    /// `bytes` with atom-table name `i` re-spelled as `shared` bytes of
    /// the name before it and `suffix`.
    fn renamed(bytes: &[u8], i: usize, shared: u32, suffix: &[u8]) -> Vec<u8> {
        let mut spelled = Vec::new();
        put_var(&mut spelled, shared);
        put_var(&mut spelled, suffix.len() as u32);
        spelled.extend_from_slice(suffix);
        spliced(bytes, layout(bytes).names[i].clone(), spelled)
    }

    #[test]
    fn names_have_one_front_coding() {
        // Atoms in index order: `ab`, `ac`, `t1`.
        let (engine, state) = engine_with("base ab ac\nbegin t1\nmodify ac <- ab\ncommit\n");
        let bytes = encode(&engine, &state, 0);
        assert_eq!(renamed(&bytes, 1, 1, b"c"), bytes, "`ac` after `ab`");
        assert_eq!(decoded(&renamed(&bytes, 1, 0, b"ac")), OTHER_SPELLING);
        let misspelled = |shared, suffix| match decoded(&renamed(&bytes, 1, shared, suffix)) {
            Err(SnapshotError::Decode(e)) => e.what,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            misspelled(3, b""),
            "name shares more than the name before it"
        );
        assert_eq!(misspelled(1, &[0xff]), "name is not UTF-8");
        // A prefix of the name before is a name of its own: `a` decodes,
        // as a duplicate of nothing.
        assert!(decoded(&renamed(&bytes, 1, 1, b"")).is_ok());
        // Front coding works on bytes, not characters: `é` and `è` share
        // their first byte, and the suffix alone is no UTF-8.
        let (engine, state) = engine_with("base é è\n");
        let bytes = encode(&engine, &state, 0);
        assert_eq!(renamed(&bytes, 1, 1, &"è".as_bytes()[1..]), bytes);
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn corrupt_payload_bytes_behind_a_valid_crc_never_panic() {
        // Every node kind; certify, then a dirty tail on c.
        let (mut engine, mut state) = engine_with(EVERY_KIND_LOG);
        let tail: UpdateLog = "begin t5\ninsert c\ncommit\n".parse().unwrap();
        engine.append(&mut state, &tail).unwrap();
        assert!(state.certified_count() > 0 && state.dirty_tuples().next().is_some());
        let bytes = encode(&engine, &state, 3);
        let (mut other, mut not_below) = (0, 0);
        for at in HEADER_LEN..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                let bad = reframe(bad);
                match decode(&bad) {
                    Err(SnapshotError::Corrupt("not the canonical spelling")) => other += 1,
                    Err(SnapshotError::Corrupt("child id not below its parent")) => not_below += 1,
                    Ok(rec) => assert!(
                        encode(&rec.engine, &rec.state, rec.wal_seq) == bad,
                        "byte {at} ^ {mask:#04x} decodes to another snapshot"
                    ),
                    _ => {}
                }
            }
        }
        assert!(other > 0, "no mutant reached the re-encode check");
        assert!(not_below > 0, "no mutant reached the back-distance check");
    }

    /// Patches the payload length and CRC of a doctored blob's header.
    fn reframe(mut b: Vec<u8>) -> Vec<u8> {
        let len = (b.len() - HEADER_LEN) as u64;
        let crc = crc32(&b[HEADER_LEN..]);
        b[12..20].copy_from_slice(&len.to_le_bytes());
        b[20..24].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// A valid, certified snapshot of `log` with its replay-state section
    /// rewritten by `edit` and re-framed with a recomputed CRC, every
    /// other section left as it was, so only the state invariants stand
    /// between it and a clean decode.
    fn with_state(log: &str, edit: impl FnOnce(&mut StateSnapshot)) -> Vec<u8> {
        let (engine, state) = engine_with(log);
        let bytes = encode(&engine, &state, 0);
        // Decoding numbers ids exactly as the snapshot does.
        let mut snap = decode(&bytes).expect("valid snapshot").state.to_snapshot();
        // Ids are already compacted: the identity remap.
        let section = |snap: &StateSnapshot| {
            let mut p = Vec::new();
            put_state(&mut p, snap, |id| id.index() as u32);
            p
        };
        let span = layout(&bytes).state;
        assert_eq!(bytes[span.clone()], section(&snap), "section located");
        edit(&mut snap);
        spliced(&bytes, span, section(&snap))
    }

    /// The snapshot `encode` writes for the state of `log` rewritten by
    /// `edit`, over the engine decoded from its checkpoint.
    fn reencoded(log: &str, edit: impl FnOnce(&mut StateSnapshot)) -> Vec<u8> {
        let (engine, state) = engine_with(log);
        let rec = decode(&encode(&engine, &state, 0)).expect("valid snapshot");
        let mut snap = rec.state.to_snapshot();
        edit(&mut snap);
        encode(&rec.engine, &ReplayState::from_snapshot(snap), 0)
    }

    const STATE_LOG: &str = "base a b\nbegin t1\ninsert c\nmodify a <- b c\ncommit\n";

    /// Clears every row's certified bit, making every tuple dirty: a
    /// valid state.
    fn all_dirty(snap: &mut StateSnapshot) {
        for (_, _, certified) in &mut snap.tuples {
            *certified = false;
        }
    }

    fn rejected(blob: Vec<u8>) -> SnapshotError {
        decode(&blob).expect_err("state invariant violated")
    }

    #[test]
    fn doctored_state_sections_decode_when_valid() {
        assert!(decode(&with_state(STATE_LOG, |_| {})).is_ok());
        let rec = decode(&reencoded(STATE_LOG, all_dirty)).expect("valid");
        assert_eq!(
            rec.state.dirty_tuples().collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        assert_eq!(rec.state.certified_count(), 0);
        // A row without its certified bit is dirty, and certify reaches
        // it; its root is already a normal form, so it stays put.
        let clear_a = |s: &mut StateSnapshot| s.tuples[0].2 = false;
        let rec = decode(&reencoded(STATE_LOG, clear_a)).expect("valid");
        let (mut engine, mut state) = (rec.engine, rec.state);
        assert_eq!(state.dirty_tuples().collect::<Vec<_>>(), ["a"]);
        assert_eq!(state.certified_count() + state.dirty_count(), 3);
        let root = state.provenance("a");
        assert_eq!(engine.certify(&mut state).certified, 1);
        assert_eq!(state.dirty_count(), 0);
        assert_eq!(state.provenance("a"), root);
        // The bit cleared in place decodes too: no node hangs on it. (The
        // engine decoded above re-seeded `a ↦ a`, so its re-encoding, with
        // `a` dirty, stores that pair.)
        let in_place = with_state(STATE_LOG, clear_a);
        let rec = decode(&in_place).expect("valid");
        assert_eq!(rec.state.dirty_tuples().collect::<Vec<_>>(), ["a"]);
        assert_ne!(in_place, reencoded(STATE_LOG, clear_a));
    }

    #[test]
    fn unsorted_or_duplicate_tuple_names_are_corrupt() {
        let want = SnapshotError::Corrupt("tuple names not strictly sorted");
        assert_eq!(
            rejected(with_state(STATE_LOG, |s| s.tuples.swap(0, 1))),
            want
        );
        assert_eq!(
            rejected(with_state(STATE_LOG, |s| s.tuples[1].0 = "a".into())),
            want
        );
    }

    #[test]
    fn state_atoms_of_the_wrong_kind_are_corrupt() {
        let want = SnapshotError::Corrupt("state atom has the wrong kind");
        assert_eq!(
            rejected(with_state(STATE_LOG, |s| s.base_atoms[1].1 = s.txn_atoms[0].1)),
            want
        );
        assert_eq!(
            rejected(with_state(STATE_LOG, |s| s.txn_atoms[0].1 = s.base_atoms[0].1)),
            want
        );
    }

    #[test]
    fn duplicate_or_unknown_kind_atoms_are_corrupt() {
        // Atoms in index order: `a`, `b`, `t1`.
        let (engine, state) = engine_with(STATE_LOG);
        let bytes = encode(&engine, &state, 0);
        assert_eq!(
            decoded(&renamed(&bytes, 1, 1, b"")),
            corrupt("duplicate atom name")
        );
        // The kind byte sits right before the name.
        let kind = layout(&bytes).names[1].start - 1;
        assert_eq!(
            decoded(&spliced(&bytes, kind..kind + 1, vec![2])),
            corrupt("unknown atom kind")
        );
    }

    #[test]
    fn an_arena_without_its_zero_node_is_corrupt() {
        let (engine, state) = engine_with(STATE_LOG);
        let bytes = encode(&engine, &state, 0);
        // The node count sits between the atom table and the first node.
        let layout = layout(&bytes);
        let count = layout.names.last().unwrap().end..layout.nodes[0].span.start;
        assert_eq!(
            decoded(&spliced(&bytes, count, vec![0])),
            corrupt("arena without its zero node")
        );
    }

    #[test]
    fn root_column_ids_are_range_checked() {
        let rec = decode(&with_state(STATE_LOG, |_| {})).expect("valid");
        let nnodes = rec.engine.arena().len();
        // The top node is a root: nothing else keeps it live.
        let snap = rec.state.to_snapshot();
        let top = snap.tuples.iter().position(|t| t.1.index() == nnodes - 1);
        let top = top.expect("a row holds the top node");
        // The column holds `root << 1 | certified`: the last node is in
        // range under either bit, one past it is not.
        let root_of_top = |ix, certified| {
            with_state(STATE_LOG, |s| {
                s.tuples[top] = (s.tuples[top].0.clone(), NodeId::from_index(ix), certified)
            })
        };
        assert!(decode(&root_of_top(nnodes - 1, true)).is_ok());
        assert!(decode(&root_of_top(nnodes - 1, false)).is_ok());
        for certified in [false, true] {
            assert_eq!(
                rejected(root_of_top(nnodes, certified)),
                SnapshotError::Corrupt("node id out of arena range")
            );
        }
    }

    /// A certified engine whose cache holds live pairs no row implies:
    /// `a`'s old root ↦ old normal form survives the append that dirties
    /// `a`, and the equivalence probe certifies `a`'s new root.
    fn certified_appended_probed() -> (Engine, ReplayState) {
        let (mut engine, mut state) = engine_with(STATE_LOG);
        let tail: UpdateLog = "begin t2\ninsert a\ncommit\n".parse().unwrap();
        engine.append(&mut state, &tail).unwrap();
        assert_eq!(state.dirty_tuples().collect::<Vec<_>>(), ["a"]);
        // The twin reads `a`'s sources the other way round: another root,
        // the same normal form.
        let log =
            "base a b\nbegin t1\ninsert c\nmodify a <- c b\ncommit\nbegin t2\ninsert a\ncommit\n";
        let twin = engine.replay(&log.parse().unwrap()).unwrap();
        let misses = engine.nf_cache().misses();
        assert!(engine.equivalent(&state, &twin).is_equivalent());
        assert!(engine.nf_cache().misses() > misses, "the probe normalized");
        (engine, state)
    }

    /// The stored cache pairs of a snapshot, as decode reads them.
    fn stored_pairs(bytes: &[u8]) -> Vec<(u32, u32)> {
        let mut r = Reader::new(&bytes[layout(bytes).nf]);
        let mut next = 0;
        let pairs = (0..r.take_var("count").unwrap())
            .map(|_| {
                let root = next + r.take_var("root gap").unwrap();
                next = root + 1;
                (root, r.take_var("nf").unwrap())
            })
            .collect();
        assert!(r.is_at_end());
        pairs
    }

    /// `bytes` with its nf-cache section holding `pairs`.
    fn with_pairs(bytes: &[u8], pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut section = Vec::new();
        put_nf_cache(&mut section, pairs);
        spliced(bytes, layout(bytes).nf, section)
    }

    #[test]
    fn live_pairs_no_row_implies_round_trip() {
        let (engine, state) = certified_appended_probed();
        let bytes = encode(&engine, &state, 4);
        let pairs = stored_pairs(&bytes);
        assert!(!pairs.is_empty(), "the probe's pairs are stored");
        let rec = decode(&bytes).expect("valid");
        assert_eq!(encode(&rec.engine, &rec.state, 4), bytes);
        // Every pair keyed inside the tuple roots' DAG survives, stored or
        // re-seeded, as a structural-hash pair.
        let mut live = vec![false; engine.arena().len()];
        mark_live(engine.arena(), &mut live, state.tuples().map(|(_, r)| r));
        let hashed = |e: &Engine, (root, nf): (NodeId, NodeId)| {
            let h = |id| e.arena().structural_hash(id);
            (h(root), h(nf))
        };
        let back: std::collections::HashSet<_> = rec
            .engine
            .nf_cache()
            .iter_certified()
            .map(|p| hashed(&rec.engine, p))
            .collect();
        let kept = engine
            .nf_cache()
            .iter_certified()
            .filter(|(r, _)| live[r.index()]);
        for pair in kept {
            assert!(back.contains(&hashed(&engine, pair)), "{pair:?} lost");
        }
        // Recovery's certify cuts at the stored pairs: nothing to do.
        let (mut engine, mut state) = (rec.engine, rec.state);
        let misses = engine.nf_cache().misses();
        engine.certify(&mut state);
        assert_eq!(engine.nf_cache().misses(), misses);
    }

    #[test]
    fn implied_or_stray_cache_pairs_are_corrupt() {
        let (mut engine, mut state) = certified_appended_probed();
        // A second probe, whose normal form no root reaches: b's
        // `(nf +I t3) − t3` normalizes to the twin's `nf − t3`.
        let mut twin = state.clone();
        let tail = |log: &str| log.parse::<UpdateLog>().unwrap();
        let tails = [
            (&mut state, "begin t3\ninsert b\ndelete b\ncommit\n"),
            (&mut twin, "begin t3\ndelete b\ncommit\n"),
        ];
        for (s, log) in tails {
            engine.append(s, &tail(log)).unwrap();
        }
        assert!(engine.equivalent(&state, &twin).is_equivalent());
        let bytes = encode(&engine, &state, 0);
        let pairs = stored_pairs(&bytes);
        assert_eq!(with_pairs(&bytes, &pairs), bytes, "section located");
        let with = |extra: (u32, u32)| {
            let mut all = pairs.clone();
            all.push(extra);
            all.sort_unstable();
            all.dedup_by_key(|p| p.0);
            decoded(&with_pairs(&bytes, &all))
        };
        // A certified row's root, mapped to itself.
        let snap = decode(&bytes).unwrap().state.to_snapshot();
        let (_, root, _) = snap.tuples.iter().find(|t| t.2).unwrap();
        let root = root.index() as u32;
        assert_eq!(with((root, root)), OTHER_SPELLING);
        // The image of a stored pair, mapped to itself or to any node.
        let &(_, image) = pairs.iter().find(|(k, v)| k != v).unwrap();
        assert_eq!(with((image, image)), OTHER_SPELLING);
        // A pair keyed at a node only a stored image reaches.
        let rec = decode(&bytes).unwrap();
        let mut live = vec![false; rec.engine.arena().len()];
        live[0] = true;
        mark_live(
            rec.engine.arena(),
            &mut live,
            rec.state.tuples().map(|(_, r)| r),
        );
        let stray = live.iter().position(|&l| !l).expect("an image-only node") as u32;
        assert_eq!(with((stray, image)), OTHER_SPELLING);
    }

    #[test]
    fn a_pair_keyed_at_another_pairs_image_is_corrupt() {
        // Dirty rows only: every node a root reaches may key a pair.
        let mut engine = Engine::new();
        let state = engine.replay(&STATE_LOG.parse().unwrap()).unwrap();
        let mut live = vec![false; engine.arena().len()];
        mark_live(engine.arena(), &mut live, state.tuples().map(|(_, r)| r));
        let ids: Vec<NodeId> = (1..live.len())
            .filter(|&ix| live[ix])
            .map(NodeId::from_index)
            .collect();
        let &[a, b, c, ..] = ids.as_slice() else {
            panic!("three live nodes")
        };
        // `a ↦ b` re-seeds `b ↦ b`, which `b ↦ c` then overwrites: the
        // encoder writes both pairs, but `b` is a normal form.
        let cache = engine.nf_cache_mut();
        cache.insert_certified(a, b);
        cache.insert_certified(b, c);
        let bytes = encode(&engine, &state, 0);
        assert_eq!(stored_pairs(&bytes).len(), 2);
        assert_eq!(decoded(&bytes), OTHER_SPELLING);
    }

    #[test]
    fn each_tuple_name_is_written_once() {
        // Inserted, never declared: the name is no atom, so only the
        // state section spells it out.
        const NAME: &str = "inserted_tuple";
        let log: UpdateLog =
            format!("base a\nbegin t\ninsert {NAME}\nmodify a <- {NAME}\ncommit\n")
                .parse()
                .unwrap();
        let mut engine = Engine::new();
        let mut state = engine.replay(&log).unwrap();
        assert!(engine
            .atoms()
            .iter()
            .all(|a| engine.atoms().name(a) != NAME));
        let occurrences = |engine: &Engine, state: &ReplayState| {
            let bytes = encode(engine, state, 0);
            bytes
                .windows(NAME.len())
                .filter(|w| *w == NAME.as_bytes())
                .count()
        };
        assert!(state.is_dirty(NAME));
        assert_eq!(occurrences(&engine, &state), 1, "dirty");
        engine.certify(&mut state);
        assert!(state.certified_nf(NAME).is_some());
        assert_eq!(occurrences(&engine, &state), 1, "certified");
    }

    #[test]
    fn header_failures_are_typed() {
        let (engine, state) = engine_with("base a\n");
        let bytes = encode(&engine, &state, 0);
        assert_eq!(decode(&[]).unwrap_err(), SnapshotError::TooShort);
        assert_eq!(
            decode(b"WRONGMAGICxxxxxxxxxxxxxxxx").unwrap_err(),
            SnapshotError::BadMagic
        );
        // Versions 1 (pre-counted-block), 2 (fixed-width integers), 3
        // (separate certified and dirty sections), 4 (every name, id and
        // implied cache pair spelled out) and 5 (a certified row's replay
        // root beside its normal form) are rejected, not migrated: there
        // is one decoder. Future versions are equally unreadable.
        for old_or_new in [1, 2, 3, 4, 5, 7] {
            let mut other = bytes.clone();
            other[8] = old_or_new;
            assert_eq!(
                decode(&other).unwrap_err(),
                SnapshotError::UnsupportedVersion(u32::from(old_or_new))
            );
        }
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            decode(&flipped).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. }
        ));
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(decode(&longer).unwrap_err(), SnapshotError::LengthMismatch);
    }
}
