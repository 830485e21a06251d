//! The versioned, checksummed binary snapshot format: one blob holding
//! everything a restart needs — atom table, the topo-ordered arena, the
//! replay state's maps, and the certified normal forms.
//!
//! # On-disk layout
//!
//! ```text
//! "UPSNAP01"            8-byte magic
//! version: u32 LE       currently 4 (varint payload, one row per tuple)
//! payload_len: u64 LE
//! payload_crc: u32 LE   CRC-32 of the payload bytes
//! payload:              every integer a minimal LEB128 varint
//!   wal_seq                           appends already folded in
//!   atoms:   count, then per atom kind u8 + name
//!   arena:   node count, then per node (ids 1…) a tag byte — operator in
//!            the high nibble, node kind in the low one — and its fields:
//!              atom     atom index
//!              bin      lhs, rhs
//!              sum      arity, terms
//!              counted  head, arity, (entry, multiplicity) pairs
//!            A child is stored as its back-distance `own id − child id`
//!            (≥ 1): most children sit a few nodes below their parent, so
//!            most take one byte. A counted block is a handful of pairs
//!            on disk however many applications it stands for.
//!   state:   updates, then one row per tuple: name, root, NF column
//!            (0 = dirty, else certified NF + 1); then base/txn atoms as
//!            atom-table indices. Ids are arena indices.
//!   nf-cache: count, then (root, nf) id pairs keyed inside the tuple
//!             roots' DAG, sorted
//! ```
//!
//! Names are a varint length plus UTF-8 bytes. Every varint must be the
//! minimal encoding ([`Reader::take_var`]), so a snapshot has exactly one
//! byte string and re-encoding a recovered engine reproduces it.
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

use crate::codec::{put_u32, put_u64, put_var, put_var64, put_var_str, DecodeError, Reader};
use crate::crc::crc32;

/// The snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"UPSNAP01";

/// The current snapshot format version: varint integers, children as
/// back-distances, and each tuple written once as one row (see the module
/// docs). Older versions are **rejected**,
/// not migrated, so there is one decoder. Version 1 could not be migrated
/// anyway: its certified-NF sections record expanded-spine images that
/// are not normal under the counted rule system, and re-seeding them
/// would poison every later incremental normalization (the
/// [`uprov_core::NfCache`] contract).
pub const SNAPSHOT_VERSION: u32 = 4;

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

/// Node kind, the tag byte's low nibble: an atom leaf.
const NODE_ATOM: u8 = 1;
/// Node kind: a binary operation (operator in the high nibble).
const NODE_BIN: u8 = 2;
/// Node kind: an n-ary sum.
const NODE_SUM: u8 = 3;
/// Node kind: a counted `+I`/`+M` block (operator in the high nibble).
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
/// A checkpoint holds the database, not the query history. It writes the
/// nodes the tuple rows reach (roots and certified NFs) and, of the
/// certified-NF cache, only the pairs keyed by a node some tuple root
/// reaches: those are the cuts recovery's certify can use. A symbolic
/// query's or an equivalence probe's answers are keyed by nodes no tuple
/// reaches, so they never hit the disk, and neither do dead rewrite
/// intermediates. Ids are compacted order-preservingly, which is sound
/// because no live id escapes the snapshot un-remapped and the WAL
/// addresses updates by *name*, never by node id.
pub fn encode(engine: &Engine, state: &ReplayState, wal_seq: u64) -> Vec<u8> {
    let arena = engine.arena();
    let snap = state.to_snapshot();
    let mut live = vec![false; arena.len()];
    live[0] = true; // Zero is structural: always id 0, always kept.
    mark_live(
        arena,
        &mut live,
        snap.tuples.iter().map(|&(_, root, _)| root),
    );
    let nf_pairs: Vec<(NodeId, NodeId)> = engine
        .nf_cache()
        .iter_certified()
        .filter(|(root, _)| live[root.index()])
        .collect();
    let nfs = snap.tuples.iter().filter_map(|&(_, _, nf)| nf);
    mark_live(
        arena,
        &mut live,
        nfs.chain(nf_pairs.iter().map(|&(_, nf)| nf)),
    );
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
    put_var64(&mut p, wal_seq);
    // Atom table, in index order (named() re-interns at the same index).
    let atoms = engine.atoms();
    put_var(&mut p, atoms.len() as u32);
    for a in atoms.iter() {
        p.push(match atoms.kind(a) {
            AtomKind::Tuple => 0,
            AtomKind::Txn => 1,
        });
        put_var_str(&mut p, atoms.name(a));
    }
    // Live arena nodes, in compacted id order. Id 0 is Zero and implied.
    put_var(&mut p, nlive);
    for (ix, _) in live.iter().enumerate().skip(1).filter(|&(_, &keep)| keep) {
        // Children as back-distances from this node's compacted id.
        let own = remap[ix];
        let back = |child: NodeId| own - remap[child.index()];
        match arena.node(NodeId::from_index(ix)) {
            Node::Zero => unreachable!("Zero is interned exactly once, at id 0"),
            Node::Atom(a) => {
                p.push(NODE_ATOM);
                put_var(&mut p, a.index() as u32);
            }
            Node::Bin(op, a, b) => {
                p.push(op_tag(op) << 4 | NODE_BIN);
                put_var(&mut p, back(a));
                put_var(&mut p, back(b));
            }
            Node::Counted(op, h, es) => {
                p.push(op_tag(op) << 4 | NODE_COUNTED);
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
    put_state(&mut p, &snap, |id| remap[id.index()]);
    // Engine-level certified-NF cache (sorted for deterministic bytes).
    let mut nf_entries: Vec<(u32, u32)> = nf_pairs
        .iter()
        .map(|(root, nf)| (remap[root.index()], remap[nf.index()]))
        .collect();
    nf_entries.sort_unstable();
    put_nf_cache(&mut p, &nf_entries);
    // Frame it: patch the payload's length and checksum into the header.
    let (header, payload) = p.split_at_mut(HEADER_LEN);
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
    p
}

/// Marks every node reachable from `roots` in `live`; a node already
/// marked is not walked again.
fn mark_live(arena: &ExprArena, live: &mut [bool], roots: impl Iterator<Item = NodeId>) {
    let mut stack: Vec<NodeId> = roots.collect();
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
}

/// Writes the replay-state section of a snapshot, every id through
/// `remap` (arena id to snapshot id). Each tuple is one row: its name
/// inline (a tuple inserted mid-transaction is annotated with the txn's
/// atom, so its own name lives only in the replay state), its root, and
/// its NF column, `0` for a dirty tuple and `nf + 1` for a certified one.
/// Base-tuple and transaction names are interned atoms, so those two
/// sections store atom indices instead of spelling each name out again.
fn put_state(p: &mut Vec<u8>, snap: &StateSnapshot, remap: impl Fn(NodeId) -> u32) {
    put_var64(p, snap.updates);
    put_var(p, snap.tuples.len() as u32);
    for (name, root, nf) in &snap.tuples {
        put_var_str(p, name);
        put_var(p, remap(*root));
        put_var(p, nf.map_or(0, |nf| remap(nf) + 1));
    }
    for named in [&snap.base_atoms, &snap.txn_atoms] {
        put_var(p, named.len() as u32);
        for (_, a) in named {
            put_var(p, a.index() as u32);
        }
    }
}

/// Writes the certified-NF cache section: its `(root, nf)` snapshot-id
/// pairs, in the order given.
fn put_nf_cache(p: &mut Vec<u8>, entries: &[(u32, u32)]) {
    put_var(p, entries.len() as u32);
    for &(root, nf) in entries {
        put_var(p, root);
        put_var(p, nf);
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
        let raw = r.take_var(what)? as usize;
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
            let raw = r.take_var(what)? as usize;
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
        updates: r.take_var64("update count")?,
        ..StateSnapshot::default()
    };
    // Tuple names must arrive strictly sorted (byte order): the engine's
    // tuple table takes the snapshot order as its sorted order.
    let ntuples = r.take_var("tuple count")? as usize;
    for _ in 0..ntuples {
        let name = r.take_var_str("tuple name")?;
        let root = node_id(r, "tuple root")?;
        let nf = match r.take_var("tuple nf")? as usize {
            0 => None,
            raw if raw > nnodes => {
                return Err(SnapshotError::Corrupt("node id out of arena range"))
            }
            raw => Some(NodeId::from_index(raw - 1)),
        };
        if snap.tuples.last().is_some_and(|(prev, ..)| *prev >= name) {
            return Err(SnapshotError::Corrupt("tuple names not strictly sorted"));
        }
        snap.tuples.push((name, root, nf));
    }
    let kinded_atoms =
        |r: &mut Reader<'_>, want: AtomKind, what| -> Result<Vec<(String, Atom)>, SnapshotError> {
            let n = r.take_var(what)? as usize;
            let mut out = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                out.push(named_atom(r, want, what)?);
            }
            Ok(out)
        };
    snap.base_atoms = kinded_atoms(r, AtomKind::Tuple, "base atom")?;
    snap.txn_atoms = kinded_atoms(r, AtomKind::Txn, "txn atom")?;
    // Engine-level NF cache.
    let nnf = r.take_var("nf cache count")? as usize;
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
/// One pass on the calling thread: the header, then the payload's CRC,
/// then the parse. A checksum mismatch is therefore reported ahead of any
/// parse error: the payload bytes themselves are untrustworthy.
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
    let computed = crc32(payload);
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    decode_payload(payload)
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
    for ix in 0..natoms {
        let kind = match r.take_byte("atom kind")? {
            0 => AtomKind::Tuple,
            1 => AtomKind::Txn,
            _ => return Err(SnapshotError::Corrupt("unknown atom kind")),
        };
        let name = r.take_var_str("atom name")?;
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
        let op = |nibble| op_from_tag(nibble).ok_or(SnapshotError::Corrupt("unknown binop tag"));
        // Atoms and sums carry no operator: their high nibble is zero.
        let node = match (tag & 0x0f, tag >> 4) {
            (NODE_ATOM, 0) => {
                let raw = r.take_var("atom node index")? as usize;
                if raw >= natoms {
                    return Err(SnapshotError::Corrupt("atom node out of table range"));
                }
                Node::Atom(Atom::from_index(raw))
            }
            (NODE_SUM, 0) => {
                let nterms = r.take_var("sum arity")? as usize;
                for _ in 0..nterms {
                    terms.push(child(&mut r, "sum term")?);
                }
                Node::Sum(&terms)
            }
            (NODE_BIN, nibble) => {
                let op = op(nibble)?;
                let a = child(&mut r, "bin lhs")?;
                let b = child(&mut r, "bin rhs")?;
                Node::Bin(op, a, b)
            }
            (NODE_COUNTED, nibble) => {
                let op = op(nibble)?;
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
                Node::Counted(op, h, &entries)
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

    /// One node of a snapshot's arena section, as its bytes spell it.
    struct NodeBytes {
        /// The node's byte range within the blob.
        span: std::ops::Range<usize>,
        /// Its own (compacted) id.
        ix: u32,
        tag: u8,
        /// The varints after the tag, in order (children as back-distances).
        fields: Vec<u32>,
    }

    /// The first node of `kind` in `bytes`, walking the payload exactly as
    /// decode does.
    fn first_node(bytes: &[u8], kind: u8) -> NodeBytes {
        let mut r = Reader::new(&bytes[HEADER_LEN..]);
        r.take_var64("wal").unwrap();
        let natoms = r.take_var("atoms").unwrap();
        for _ in 0..natoms {
            r.take(1, "kind").unwrap();
            r.take_var_str("name").unwrap();
        }
        let nnodes = r.take_var("nodes").unwrap();
        for ix in 1..nnodes {
            let at = HEADER_LEN + r.pos();
            let tag = r.take_byte("tag").unwrap();
            let mut var = || r.take_var("field").unwrap();
            let mut fields = Vec::new();
            match tag & 0x0f {
                NODE_ATOM => fields.push(var()),
                NODE_BIN => fields.extend([var(), var()]),
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
            if tag & 0x0f == kind {
                let span = at..HEADER_LEN + r.pos();
                return NodeBytes {
                    span,
                    ix,
                    tag,
                    fields,
                };
            }
        }
        panic!("snapshot holds no node of kind {kind}")
    }

    /// `bytes` with `node` re-spelled as `tag` and `fields`, re-framed.
    fn respelled(bytes: &[u8], node: &NodeBytes, tag: u8, fields: &[u32]) -> Vec<u8> {
        let mut spelled = vec![tag];
        for &f in fields {
            put_var(&mut spelled, f);
        }
        let mut out = bytes.to_vec();
        out.splice(node.span.clone(), spelled);
        reframe(out)
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
        let block = first_node(&bytes, NODE_COUNTED);
        // head, arity, then (entry, multiplicity) pairs.
        let f = &block.fields;
        assert_eq!(f[1], 2, "the test log yields a two-entry block");
        assert_eq!(f.len(), 6);
        let tag = block.tag;
        assert_eq!(respelled(&bytes, &block, tag, f), bytes, "re-spelled as is");
        let decoded =
            |tag: u8, fields: &[u32]| decode(&respelled(&bytes, &block, tag, fields)).map(|_| ());
        let corrupt = |what| Err(SnapshotError::Corrupt(what));
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
            decoded(op_tag(BinOp::Minus) << 4 | NODE_COUNTED, f),
            corrupt("counted block under a non-increment operator")
        );
        assert_eq!(
            decoded(0xf0 | NODE_COUNTED, f),
            corrupt("unknown binop tag")
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
        // Leaves and sums carry no operator: a stray high nibble is not a
        // second spelling of the same node.
        let atom = first_node(&bytes, NODE_ATOM);
        assert_eq!(
            decode(&respelled(&bytes, &atom, 0x10 | NODE_ATOM, &atom.fields)).map(|_| ()),
            corrupt("unknown node tag")
        );
    }

    #[test]
    fn corrupt_payload_bytes_behind_a_valid_crc_never_panic() {
        // Atoms, a sum (the two-source modify), binary nodes and a counted
        // block (a inserted twice per transaction); certify, then a dirty
        // tail on c.
        let (mut engine, mut state) = engine_with(
            "base a b c\nbegin t1\ninsert a\ninsert a\nmodify b <- a c\ncommit\n\
             begin t2\ninsert a\ninsert a\ndelete c\ncommit\n",
        );
        let tail: UpdateLog = "begin t3\ninsert c\ncommit\n".parse().unwrap();
        engine.append(&mut state, &tail).unwrap();
        assert!(state.certified_count() > 0 && state.dirty_tuples().next().is_some());
        let bytes = encode(&engine, &state, 3);
        for kind in [NODE_ATOM, NODE_BIN, NODE_SUM, NODE_COUNTED] {
            first_node(&bytes, kind);
        }
        let (mut varint, mut not_below) = (0, 0);
        for at in HEADER_LEN..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                match decode(&reframe(bad)) {
                    Err(SnapshotError::Decode(e)) if e.what.contains("varint") => varint += 1,
                    Err(SnapshotError::Corrupt("child id not below its parent")) => not_below += 1,
                    _ => {}
                }
            }
        }
        assert!(varint > 0, "no mutant reached a varint check");
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
    /// rewritten by `edit` and re-framed with a recomputed CRC, so only
    /// the state invariants stand between it and a clean decode.
    fn with_state(log: &str, edit: impl FnOnce(&mut StateSnapshot)) -> Vec<u8> {
        let (engine, state) = engine_with(log);
        let bytes = encode(&engine, &state, 0);
        // Decoding numbers ids exactly as the snapshot does.
        let rec = decode(&bytes).expect("valid snapshot");
        let mut snap = rec.state.to_snapshot();
        // `encode` keeps the cache pairs keyed inside the tuple roots' DAG.
        let mut live = vec![false; rec.engine.arena().len()];
        live[0] = true;
        let roots = rec.state.tuples().map(|(_, root)| root);
        mark_live(rec.engine.arena(), &mut live, roots);
        let mut nf: Vec<(u32, u32)> = rec
            .engine
            .nf_cache()
            .iter_certified()
            .filter(|(root, _)| live[root.index()])
            .map(|(root, nf)| (root.index() as u32, nf.index() as u32))
            .collect();
        nf.sort_unstable();
        let mut nf_section = Vec::new();
        put_nf_cache(&mut nf_section, &nf);
        assert!(bytes.ends_with(&nf_section), "nf-cache section located");
        let tail = nf_section.len();
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

    /// Drops every row's normal form, making every tuple dirty: a valid
    /// state.
    fn all_dirty(snap: &mut StateSnapshot) {
        for (_, _, nf) in &mut snap.tuples {
            *nf = None;
        }
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
        // A row without its normal form is dirty, and certify reaches it.
        let rec = decode(&with_state(STATE_LOG, |s| s.tuples[0].2 = None)).expect("valid");
        let (mut engine, mut state) = (rec.engine, rec.state);
        assert_eq!(state.dirty_tuples().collect::<Vec<_>>(), ["a"]);
        assert_eq!(state.certified_count() + state.dirty_count(), 3);
        assert_eq!(engine.certify(&mut state).certified, 1);
        assert_eq!(state.dirty_count(), 0);
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
    fn nf_column_ids_are_range_checked() {
        let nnodes = decode(&with_state(STATE_LOG, |_| {}))
            .expect("valid")
            .engine
            .arena()
            .len();
        // The column holds `nf + 1`: the last node is in range, one past
        // it is not.
        let nf_of_a = |ix| with_state(STATE_LOG, |s| s.tuples[0].2 = Some(NodeId::from_index(ix)));
        assert!(decode(&nf_of_a(nnodes - 1)).is_ok());
        assert_eq!(
            corrupt(nf_of_a(nnodes)),
            SnapshotError::Corrupt("node id out of arena range")
        );
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
        // Versions 1 (pre-counted-block), 2 (fixed-width integers) and 3
        // (separate certified and dirty sections) are rejected, not
        // migrated: there is one decoder. Future versions are equally
        // unreadable.
        for old_or_new in [1, 2, 3, 5] {
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
