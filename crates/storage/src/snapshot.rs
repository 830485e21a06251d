//! The versioned, checksummed binary snapshot format: one blob holding
//! everything a restart needs — atom table, the topo-ordered arena, the
//! replay state's maps, and the certified normal forms.
//!
//! # On-disk layout
//!
//! ```text
//! "UPSNAP01"            8-byte magic
//! version: u32 LE       currently 2 (counted-block node kind)
//! payload_len: u64 LE
//! payload_crc: u32 LE   CRC-32 of the payload bytes
//! payload:
//!   wal_seq: u64                      appends already folded in
//!   atoms:   count, then per atom kind u8 + name
//!   arena:   node count, then per node (ids 1…) a tagged encoding
//!            (atom / bin / sum / counted block — a counted block stores
//!            its operator, head id, and `(entry id, multiplicity)` pairs,
//!            so a 10k-application NF costs a handful of pairs on disk)
//!   state:   updates, tuples, base/txn atoms, certified NFs, dirty set
//!            (base/txn names as atom-table indices, ids as arena indices)
//!   nf-cache: count, then (root, nf) id pairs
//! ```
//!
//! The arena section is the paper-structure payoff: the hash-consed arena
//! is already a topologically ordered flat node list whose ids are dense
//! indices (children before parents), so serialization is a linear dump
//! and deserialization a linear bulk rebuild
//! (`ExprArena::from_canonical_nodes`) that verifies each node would
//! re-intern at **exactly its original index** — so ids in the snapshot
//! (roots, certified NFs) stay valid bit-identically and any
//! non-canonical or reordered input is rejected as
//! [`SnapshotError::Corrupt`] rather than trusted.
//!
//! Decoding is **total** over arbitrary bytes: magic/version/CRC gate the
//! payload, and every structural read is bounds-checked ([`SnapshotError`]
//! carries the failure). Corruption of a snapshot is *not* repairable tail
//! truncation like the WAL — the snapshot is written atomically, so a bad
//! one means real media corruption and recovery refuses it loudly.

use std::fmt;

use uprov_core::{Atom, AtomKind, AtomTable, BinOp, ExprArena, Node, NodeId, NodeList};
use uprov_engine::{Engine, ReplayState, StateSnapshot};

use crate::codec::{put_str, put_u32, put_u64, DecodeError, Reader};
use crate::crc::crc32;

/// The snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"UPSNAP01";

/// The current snapshot format version. Version 2 added the counted-block
/// node kind ([`Node::Counted`]) and made normal forms counted; version 1
/// snapshots are **rejected**, not migrated — their certified-NF sections
/// record expanded-spine images that are no longer normal under the
/// counted rule system, and re-seeding them would poison every later
/// incremental normalization (the [`uprov_core::NfCache`] contract).
pub const SNAPSHOT_VERSION: u32 = 2;

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

/// Node tag byte: an atom leaf.
const NODE_ATOM: u8 = 1;
/// Node tag byte: a binary operation.
const NODE_BIN: u8 = 2;
/// Node tag byte: an n-ary sum.
const NODE_SUM: u8 = 3;
/// Node tag byte: a counted `+I`/`+M` block (version 2).
const NODE_COUNTED: u8 = 4;

fn op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::PlusI => 0,
        BinOp::Minus => 1,
        BinOp::PlusM => 2,
        BinOp::DotM => 3,
    }
}

fn op_from_tag(tag: u8) -> Option<BinOp> {
    Some(match tag {
        0 => BinOp::PlusI,
        1 => BinOp::Minus,
        2 => BinOp::PlusM,
        3 => BinOp::DotM,
        _ => return None,
    })
}

/// Serializes the engine + state into one snapshot blob. `wal_seq` is the
/// all-time append sequence the snapshot covers (see
/// [`RecoveredSnapshot::wal_seq`]).
///
/// The snapshot is also the arena's garbage collector: only nodes
/// reachable from the replay state (tuple roots, certified ids) or the
/// certified-NF cache are written, with ids compacted order-preservingly —
/// dead rewrite intermediates (typically 20–25% of a long-lived arena)
/// never hit the disk, so checkpoints shrink and recovery rebuilds only
/// what the engine can ever reach again. Compaction is sound because no
/// live id escapes the snapshot un-remapped and the WAL addresses updates
/// by *name*, never by node id.
pub fn encode(engine: &Engine, state: &ReplayState, wal_seq: u64) -> Vec<u8> {
    // Live-set marking over every root the recovered engine can reach.
    let arena = engine.arena();
    let snap = state.to_snapshot();
    let mut live = vec![false; arena.len()];
    live[0] = true; // Zero is structural: always id 0, always kept.
    let mut stack: Vec<NodeId> = Vec::new();
    stack.extend(snap.tuples.iter().map(|(_, id)| *id));
    stack.extend(snap.certified.iter().map(|(_, id)| *id));
    for (root, nf) in engine.nf_cache().iter_certified() {
        stack.push(root);
        stack.push(nf);
    }
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id.index()], true) {
            continue;
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
    // Order-preserving compaction: children stay below parents.
    let mut remap = vec![0u32; arena.len()];
    let mut nlive = 0u32;
    for (ix, &keep) in live.iter().enumerate() {
        if keep {
            remap[ix] = nlive;
            nlive += 1;
        }
    }

    // The frame header goes first into the one output buffer; its length
    // and CRC fields are patched once the payload behind it is complete.
    let mut p = Vec::new();
    p.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut p, SNAPSHOT_VERSION);
    put_u64(&mut p, 0);
    put_u32(&mut p, 0);
    debug_assert_eq!(p.len(), HEADER_LEN);
    put_u64(&mut p, wal_seq);
    // Atom table, in index order (named() re-interns at the same index).
    let atoms = engine.atoms();
    put_u32(&mut p, atoms.len() as u32);
    for a in atoms.iter() {
        p.push(match atoms.kind(a) {
            AtomKind::Tuple => 0,
            AtomKind::Txn => 1,
        });
        put_str(&mut p, atoms.name(a));
    }
    // Live arena nodes, in compacted id order. Id 0 is Zero and implied.
    put_u32(&mut p, nlive);
    for (ix, _) in live.iter().enumerate().skip(1).filter(|&(_, &keep)| keep) {
        match arena.node(NodeId::from_index(ix)) {
            Node::Zero => unreachable!("Zero is interned exactly once, at id 0"),
            Node::Atom(a) => {
                p.push(NODE_ATOM);
                put_u32(&mut p, a.index() as u32);
            }
            Node::Bin(op, a, b) => {
                p.push(NODE_BIN);
                p.push(op_tag(op));
                put_u32(&mut p, remap[a.index()]);
                put_u32(&mut p, remap[b.index()]);
            }
            Node::Counted(op, h, es) => {
                p.push(NODE_COUNTED);
                p.push(op_tag(op));
                put_u32(&mut p, remap[h.index()]);
                put_u32(&mut p, es.len() as u32);
                for &(e, m) in es.iter() {
                    put_u32(&mut p, remap[e.index()]);
                    put_u32(&mut p, m);
                }
            }
            Node::Sum(terms) => {
                p.push(NODE_SUM);
                put_u32(&mut p, terms.len() as u32);
                for t in terms.iter() {
                    put_u32(&mut p, remap[t.index()]);
                }
            }
        }
    }
    debug_assert!(snap
        .base_atoms
        .iter()
        .chain(&snap.txn_atoms)
        .all(|(name, a)| atoms.name(*a) == name));
    put_state(&mut p, &snap, |id| remap[id.index()]);
    // Engine-level certified-NF cache (sorted for deterministic bytes).
    let mut nf_entries: Vec<(u32, u32)> = engine
        .nf_cache()
        .iter_certified()
        .map(|(root, nf)| (remap[root.index()], remap[nf.index()]))
        .collect();
    nf_entries.sort_unstable();
    put_u32(&mut p, nf_entries.len() as u32);
    for (root, nf) in nf_entries {
        put_u32(&mut p, root);
        put_u32(&mut p, nf);
    }
    // Frame it: patch the payload's length and checksum into the header.
    let (header, payload) = p.split_at_mut(HEADER_LEN);
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
    p
}

/// Writes the replay-state section of a snapshot, every id through
/// `remap` (arena id to snapshot id). Base-tuple and transaction names
/// are interned atoms, so those two sections store 4-byte atom indices
/// instead of spelling each name out a second time. Tuple/certified/dirty
/// names are NOT generally atoms (a tuple inserted mid-transaction is
/// annotated with the txn's atom; its own name lives only in the replay
/// state), so those sections keep inline strings.
fn put_state(p: &mut Vec<u8>, snap: &StateSnapshot, remap: impl Fn(NodeId) -> u32) {
    put_u64(p, snap.updates);
    let put_name_ids = |p: &mut Vec<u8>, pairs: &[(String, NodeId)]| {
        put_u32(p, pairs.len() as u32);
        for (name, id) in pairs {
            put_str(p, name);
            put_u32(p, remap(*id));
        }
    };
    put_name_ids(p, &snap.tuples);
    for named in [&snap.base_atoms, &snap.txn_atoms] {
        put_u32(p, named.len() as u32);
        for (_, a) in named {
            put_u32(p, a.index() as u32);
        }
    }
    put_name_ids(p, &snap.certified);
    put_u32(p, snap.dirty.len() as u32);
    for name in &snap.dirty {
        put_str(p, name);
    }
}

/// Decodes the payload sections after the arena node list: the replay
/// state and the certified-NF id pairs. Pure byte reading plus range
/// checks — independent of the arena value, so [`decode`] can run it
/// concurrently with the arena's bulk rebuild.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn decode_tail(
    r: &mut Reader<'_>,
    atoms: &AtomTable,
    natoms: usize,
    nnodes: usize,
) -> Result<(StateSnapshot, Vec<(NodeId, NodeId)>), SnapshotError> {
    let node_id = |r: &mut Reader<'_>, what| -> Result<NodeId, SnapshotError> {
        let raw = r.take_u32(what)? as usize;
        if raw >= nnodes {
            return Err(SnapshotError::Corrupt("node id out of arena range"));
        }
        Ok(NodeId::from_index(raw))
    };
    // Base/txn names are stored as atom indices (see [`encode`]); each is
    // range- and kind-checked, then its name re-materialized from the
    // table decoded above.
    let named_atom =
        |r: &mut Reader<'_>, want: AtomKind, what| -> Result<(String, Atom), SnapshotError> {
            let raw = r.take_u32(what)? as usize;
            if raw >= natoms {
                return Err(SnapshotError::Corrupt("state atom out of table range"));
            }
            let atom = Atom::from_index(raw);
            if atoms.kind(atom) != want {
                return Err(SnapshotError::Corrupt("state atom has the wrong kind"));
            }
            Ok((atoms.name(atom).to_owned(), atom))
        };
    // Replay state.
    let mut snap = StateSnapshot {
        updates: r.take_u64("update count")?,
        ..StateSnapshot::default()
    };
    // Name sections must arrive strictly sorted (byte order): the engine's
    // tuple table takes the snapshot order as its sorted order, and
    // certified/dirty names are checked against the tuples by merge-walks.
    let ntuples = r.take_u32("tuple count")? as usize;
    for _ in 0..ntuples {
        let name = r.take_str("tuple name")?;
        let id = node_id(r, "tuple root")?;
        if snap.tuples.last().is_some_and(|(prev, _)| *prev >= name) {
            return Err(SnapshotError::Corrupt("tuple names not strictly sorted"));
        }
        snap.tuples.push((name, id));
    }
    let kinded_atoms =
        |r: &mut Reader<'_>, want: AtomKind, what| -> Result<Vec<(String, Atom)>, SnapshotError> {
            let n = r.take_u32(what)? as usize;
            let mut out = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                out.push(named_atom(r, want, what)?);
            }
            Ok(out)
        };
    snap.base_atoms = kinded_atoms(r, AtomKind::Tuple, "base atom")?;
    snap.txn_atoms = kinded_atoms(r, AtomKind::Txn, "txn atom")?;
    let mut tracked = snap.tuples.iter().map(|(n, _)| n.as_str());
    let ncert = r.take_u32("certified count")? as usize;
    for _ in 0..ncert {
        let name = r.take_str("certified tuple name")?;
        let id = node_id(r, "certified nf")?;
        if snap.certified.last().is_some_and(|(prev, _)| *prev >= name) {
            return Err(SnapshotError::Corrupt(
                "certified names not strictly sorted",
            ));
        }
        if !tracked.any(|t| t == name) {
            return Err(SnapshotError::Corrupt("certified tuple is not tracked"));
        }
        snap.certified.push((name, id));
    }
    let mut tracked = snap.tuples.iter().map(|(n, _)| n.as_str());
    let mut certified = snap.certified.iter().map(|(n, _)| n.as_str()).peekable();
    let ndirty = r.take_u32("dirty count")? as usize;
    for _ in 0..ndirty {
        let name = r.take_str("dirty tuple name")?;
        if snap.dirty.last().is_some_and(|prev| *prev >= name) {
            return Err(SnapshotError::Corrupt("dirty names not strictly sorted"));
        }
        if !tracked.any(|t| t == name) {
            return Err(SnapshotError::Corrupt("dirty tuple is not tracked"));
        }
        while certified.next_if(|c| *c < name.as_str()).is_some() {}
        if certified.peek() == Some(&name.as_str()) {
            return Err(SnapshotError::Corrupt("tuple both certified and dirty"));
        }
        snap.dirty.push(name);
    }
    // Engine-level NF cache.
    let nnf = r.take_u32("nf cache count")? as usize;
    let mut nf_entries = Vec::with_capacity(nnf.min(1 << 16));
    for _ in 0..nnf {
        let root = node_id(r, "nf cache root")?;
        let nf = node_id(r, "nf cache image")?;
        nf_entries.push((root, nf));
    }
    if !r.is_at_end() {
        return Err(SnapshotError::Corrupt("trailing bytes after payload"));
    }
    Ok((snap, nf_entries))
}

/// Deserializes a snapshot blob, rebuilding the engine id-identically (see
/// the module docs). Total over arbitrary input.
///
/// The CRC pass and the structural parse read the same immutable payload,
/// so on big snapshots the checksum runs on a helper thread while this
/// thread parses — both still gate the result: a checksum mismatch is
/// reported ahead of any parse error (the payload bytes themselves are
/// untrustworthy), exactly as if the CRC had been checked first.
// Decode is a no-panic zone; encode is not (it indexes vectors it sized).
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
    const CRC_OFFLOAD: usize = 1 << 16;
    std::thread::scope(|s| {
        let crc_task =
            (payload.len() >= CRC_OFFLOAD && multicore()).then(|| s.spawn(move || crc32(payload)));
        let parsed = decode_payload(payload);
        let computed = match crc_task {
            #[expect(
                clippy::expect_used,
                reason = "join fails only if the crc closure panicked, and crc32 is a total table-driven loop; re-raising the panic is the only sound response"
            )]
            Some(task) => task.join().expect("crc pass does not panic"),
            None => crc32(payload),
        };
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        parsed
    })
}

/// True when a helper thread can actually run in parallel. On a
/// single-core host (CI containers included) an offloaded pass only adds
/// spawn + scheduling cost, so the decode stays sequential there.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn multicore() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// The post-header, post-frame-checks parse of one payload (see
/// [`decode`], which wraps it with the CRC gate).
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#[deny(clippy::indexing_slicing)]
fn decode_payload(payload: &[u8]) -> Result<RecoveredSnapshot, SnapshotError> {
    let mut r = Reader::new(payload);
    let wal_seq = r.take_u64("wal sequence")?;
    // Atom table: re-intern in index order; a duplicate name would silently
    // collapse onto the earlier index and shift every later atom, so it is
    // rejected before `named` can resolve (or kind-clash on) it.
    let natoms = r.take_u32("atom count")? as usize;
    let mut atoms = AtomTable::new();
    atoms.reserve(natoms.min(1 << 16));
    for ix in 0..natoms {
        let kind = match r.take_byte("atom kind")? {
            0 => AtomKind::Tuple,
            1 => AtomKind::Txn,
            _ => return Err(SnapshotError::Corrupt("unknown atom kind")),
        };
        let name = r.take_str("atom name")?;
        let atom = atoms
            .insert_new(name, kind)
            .ok_or(SnapshotError::Corrupt("duplicate atom name"))?;
        if atom.index() != ix {
            return Err(SnapshotError::Corrupt("atom interned out of order"));
        }
    }
    // Arena: decode the nodes straight into the arena's flat storage (two
    // scratch vectors, no allocation per node), then index it in bulk
    // through [`ExprArena::from_canonical_nodes`], which verifies it is
    // exactly what re-interning through the smart constructors would
    // reproduce — the decode-side proof that the snapshot was canonical
    // (zero-axiom-reduced, deduped, topologically ordered) and that every
    // id in it stays valid — while paying one pre-sized probe per node
    // instead of a full re-intern (the recovery hot spot at 10⁴⁺ nodes).
    let nnodes = r.take_u32("node count")? as usize;
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
    for ix in 1..nnodes {
        let child = |r: &mut Reader<'_>, what| -> Result<NodeId, SnapshotError> {
            let raw = r.take_u32(what)? as usize;
            if raw >= ix {
                return Err(SnapshotError::Corrupt("child id not below its parent"));
            }
            Ok(NodeId::from_index(raw))
        };
        terms.clear();
        entries.clear();
        let node = match r.take_byte("node tag")? {
            NODE_ATOM => {
                let raw = r.take_u32("atom node index")? as usize;
                if raw >= natoms {
                    return Err(SnapshotError::Corrupt("atom node out of table range"));
                }
                Node::Atom(Atom::from_index(raw))
            }
            NODE_BIN => {
                let op = op_from_tag(r.take_byte("binop tag")?)
                    .ok_or(SnapshotError::Corrupt("unknown binop tag"))?;
                let a = child(&mut r, "bin lhs")?;
                let b = child(&mut r, "bin rhs")?;
                Node::Bin(op, a, b)
            }
            NODE_SUM => {
                let nterms = r.take_u32("sum arity")? as usize;
                for _ in 0..nterms {
                    terms.push(child(&mut r, "sum term")?);
                }
                Node::Sum(&terms)
            }
            NODE_COUNTED => {
                let op = op_from_tag(r.take_byte("counted op tag")?)
                    .ok_or(SnapshotError::Corrupt("unknown binop tag"))?;
                if !matches!(op, BinOp::PlusI | BinOp::PlusM) {
                    return Err(SnapshotError::Corrupt(
                        "counted block under a non-increment operator",
                    ));
                }
                let h = child(&mut r, "counted head")?;
                let nentries = r.take_u32("counted arity")? as usize;
                // Entry canonicity (strict sortedness, nonzero
                // multiplicities, the ≥2-applications threshold) is checked
                // right here in the byte-reading pass: encode-side
                // compaction is order-preserving, so a canonical block
                // arrives sorted, and validating inline means the bulk
                // rebuild below never re-scans entry lists it would only
                // reject anyway.
                let mut total: u64 = 0;
                for _ in 0..nentries {
                    let e = child(&mut r, "counted entry")?;
                    let m = r.take_u32("counted multiplicity")?;
                    if m == 0 {
                        return Err(SnapshotError::Corrupt(
                            "zero multiplicity in a counted block",
                        ));
                    }
                    if entries.last().is_some_and(|&(prev, _)| prev >= e) {
                        return Err(SnapshotError::Corrupt(
                            "counted entries not strictly sorted",
                        ));
                    }
                    total += u64::from(m);
                    entries.push((e, m));
                }
                if entries.is_empty() {
                    return Err(SnapshotError::Corrupt("counted block without entries"));
                }
                if total < 2 {
                    return Err(SnapshotError::Corrupt(
                        "counted block below the two-application threshold",
                    ));
                }
                Node::Counted(op, h, &entries)
            }
            _ => return Err(SnapshotError::Corrupt("unknown node tag")),
        };
        nodes.push(node);
    }
    // The arena's bulk rebuild (validate, hash and place each node) and
    // the remaining payload sections (replay state, nf cache) touch
    // disjoint data, so on big snapshots the rebuild runs on a helper
    // thread while this thread keeps decoding — recovery's two largest
    // costs overlap instead of adding up. Small snapshots stay inline:
    // a thread spawn costs more than the rebuild it would hide.
    const OVERLAP_THRESHOLD: usize = 1 << 13;
    let (arena, tail) = if nnodes >= OVERLAP_THRESHOLD && multicore() {
        std::thread::scope(|s| {
            let rebuild = s.spawn(move || ExprArena::from_canonical_nodes(nodes));
            let tail = decode_tail(&mut r, &atoms, natoms, nnodes);
            #[expect(
                clippy::expect_used,
                reason = "join fails only if the bulk rebuild panicked; from_canonical_nodes returns typed errors, so a panic there is a bug worth crashing on"
            )]
            let arena = rebuild.join().expect("bulk arena rebuild does not panic");
            (arena, tail)
        })
    } else {
        let arena = ExprArena::from_canonical_nodes(nodes);
        (arena, decode_tail(&mut r, &atoms, natoms, nnodes))
    };
    // The arena verdict outranks tail errors: a non-canonical node list is
    // the more fundamental corruption (the tail's ids are meaningless
    // against a rejected arena).
    let arena = arena.map_err(|e| SnapshotError::Corrupt(e.0))?;
    let (snap, nf_entries) = tail?;
    let mut engine = Engine::from_parts(atoms, arena);
    for (root, nf) in nf_entries {
        engine.nf_cache_mut().insert_certified(root, nf);
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
        assert_eq!(rec.engine.arena().len(), engine.arena().len());
        assert_eq!(rec.engine.atoms().len(), engine.atoms().len());
        // Bit-identical ids: the recovered state's roots equal the originals.
        let orig: Vec<_> = state.tuples().collect();
        let back: Vec<_> = rec.state.tuples().collect();
        assert_eq!(orig, back);
        assert_eq!(state.to_snapshot(), rec.state.to_snapshot());
        // Certified NFs re-seeded: a repeat certify is all cache hits.
        assert_eq!(
            rec.state.certified_count(),
            state.certified_count(),
            "certified map survives"
        );
        // And encoding the recovered engine reproduces the exact bytes.
        assert_eq!(encode(&rec.engine, &rec.state, 7), bytes);
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

    #[test]
    fn corrupt_counted_blocks_are_typed_errors_not_panics() {
        // Two transactions each inserting `a` twice: a's certified NF is a
        // counted +I block with two entries, live in the snapshot through
        // the NF cache.
        let (engine, state) = engine_with(
            "base a\nbegin t1\ninsert a\ninsert a\ncommit\nbegin t2\ninsert a\ninsert a\ncommit\n",
        );
        let bytes = encode(&engine, &state, 0);
        // Walk the payload exactly as decode does, up to the first counted
        // node's entry section.
        let mut r = Reader::new(&bytes[24..]);
        r.take_u64("wal").unwrap();
        let natoms = r.take_u32("atoms").unwrap();
        for _ in 0..natoms {
            r.take(1, "kind").unwrap();
            r.take_str("name").unwrap();
        }
        let nnodes = r.take_u32("nodes").unwrap();
        let mut found = None;
        for _ in 1..nnodes {
            match r.take(1, "tag").unwrap()[0] {
                NODE_ATOM => {
                    r.take_u32("atom").unwrap();
                }
                NODE_BIN => {
                    r.take(1, "op").unwrap();
                    r.take_u32("lhs").unwrap();
                    r.take_u32("rhs").unwrap();
                }
                NODE_SUM => {
                    let n = r.take_u32("arity").unwrap();
                    for _ in 0..n {
                        r.take_u32("term").unwrap();
                    }
                }
                NODE_COUNTED => {
                    r.take(1, "op").unwrap();
                    r.take_u32("head").unwrap();
                    let n = r.take_u32("arity").unwrap();
                    assert!(n >= 2, "the test log yields a two-entry block");
                    found = Some(24 + r.pos());
                    break;
                }
                t => panic!("unexpected node tag {t}"),
            }
        }
        let entries_at = found.expect("snapshot holds a counted NF");
        // Swap the two sorted (id, mult) pairs: typed corruption, no panic.
        let mut swapped = bytes.clone();
        for i in 0..8 {
            swapped.swap(entries_at + i, entries_at + 8 + i);
        }
        assert_eq!(
            decode(&reframe(swapped)).unwrap_err(),
            SnapshotError::Corrupt("counted entries not strictly sorted")
        );
        // Zero out the first multiplicity.
        let mut zeroed = bytes.clone();
        zeroed[entries_at + 4..entries_at + 8].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode(&reframe(zeroed)).unwrap_err(),
            SnapshotError::Corrupt("zero multiplicity in a counted block")
        );
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
    /// rewritten by `edit` and re-framed with a recomputed CRC, so only
    /// the state invariants stand between it and a clean decode.
    fn with_state(log: &str, edit: impl FnOnce(&mut StateSnapshot)) -> Vec<u8> {
        let (engine, state) = engine_with(log);
        let bytes = encode(&engine, &state, 0);
        // Decoding numbers ids exactly as the snapshot does.
        let rec = decode(&bytes).expect("valid snapshot");
        let mut snap = rec.state.to_snapshot();
        let tail = 4 + 8 * rec.engine.nf_cache().iter_certified().count();
        // Ids are already compacted: the identity remap.
        let section = |snap: &StateSnapshot| {
            let mut p = Vec::new();
            put_state(&mut p, snap, |id| id.index() as u32);
            p
        };
        let section_bytes = section(&snap);
        let at = bytes.len() - tail - section_bytes.len();
        assert_eq!(
            bytes[at..bytes.len() - tail],
            section_bytes[..],
            "section located"
        );
        edit(&mut snap);
        let mut out = bytes[..at].to_vec();
        out.extend(section(&snap));
        out.extend_from_slice(&bytes[bytes.len() - tail..]);
        reframe(out)
    }

    const STATE_LOG: &str = "base a b\nbegin t1\ninsert c\nmodify a <- b c\ncommit\n";

    /// Moves every certified tuple to the dirty set: a valid state.
    fn all_dirty(snap: &mut StateSnapshot) {
        snap.dirty = snap.certified.drain(..).map(|(n, _)| n).collect();
    }

    fn corrupt(blob: Vec<u8>) -> SnapshotError {
        decode(&blob).expect_err("state invariant violated")
    }

    #[test]
    fn doctored_state_sections_decode_when_valid() {
        assert!(decode(&with_state(STATE_LOG, |_| {})).is_ok());
        let rec = decode(&with_state(STATE_LOG, all_dirty)).expect("valid");
        assert_eq!(
            rec.state.dirty_tuples().collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        assert_eq!(rec.state.certified_count(), 0);
    }

    #[test]
    fn unsorted_or_duplicate_tuple_names_are_corrupt() {
        let want = SnapshotError::Corrupt("tuple names not strictly sorted");
        assert_eq!(
            corrupt(with_state(STATE_LOG, |s| s.tuples.swap(0, 1))),
            want
        );
        assert_eq!(
            corrupt(with_state(STATE_LOG, |s| s.tuples[1].0 = "a".into())),
            want
        );
    }

    #[test]
    fn unsorted_or_duplicate_dirty_names_are_corrupt() {
        let want = SnapshotError::Corrupt("dirty names not strictly sorted");
        let unsorted = with_state(STATE_LOG, |s| {
            all_dirty(s);
            s.dirty.swap(1, 2);
        });
        assert_eq!(corrupt(unsorted), want);
        let duplicate = with_state(STATE_LOG, |s| {
            all_dirty(s);
            s.dirty[1] = "a".into();
        });
        assert_eq!(corrupt(duplicate), want);
        // The certified section is held to the same order.
        assert_eq!(
            corrupt(with_state(STATE_LOG, |s| s.certified.swap(0, 2))),
            SnapshotError::Corrupt("certified names not strictly sorted")
        );
    }

    #[test]
    fn certified_or_dirty_names_must_be_tracked_tuples() {
        // Before, between and after the tracked names a, b, c.
        for stray in ["A", "a0", "d"] {
            let certified = with_state(STATE_LOG, |s| {
                let nf = s.certified[0].1;
                s.certified.push((stray.into(), nf));
                s.certified.sort();
            });
            assert_eq!(
                corrupt(certified),
                SnapshotError::Corrupt("certified tuple is not tracked"),
                "{stray}"
            );
            let dirty = with_state(STATE_LOG, |s| {
                all_dirty(s);
                s.dirty.push(stray.into());
                s.dirty.sort();
            });
            assert_eq!(
                corrupt(dirty),
                SnapshotError::Corrupt("dirty tuple is not tracked"),
                "{stray}"
            );
        }
    }

    #[test]
    fn a_tuple_both_certified_and_dirty_is_corrupt() {
        for both in ["a", "b", "c"] {
            let blob = with_state(STATE_LOG, |s| s.dirty.push(both.into()));
            assert_eq!(
                corrupt(blob),
                SnapshotError::Corrupt("tuple both certified and dirty"),
                "{both}"
            );
        }
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
        // Version 1 (pre-counted-block) is rejected, not migrated — its
        // certified NFs are stale under the counted rule system. Future
        // versions are equally unreadable.
        let mut v1 = bytes.clone();
        v1[8] = 1;
        assert_eq!(
            decode(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
        let mut v3 = bytes.clone();
        v3[8] = 3;
        assert_eq!(
            decode(&v3).unwrap_err(),
            SnapshotError::UnsupportedVersion(3)
        );
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
