//! The zone map: which invariants are enforced where.
//!
//! Paths are workspace-relative with `/` separators. Growing a zone (or
//! allowing new `unsafe`) is a deliberate, reviewable edit to this file —
//! that is the point: the system's exactness claims ("total panic-free
//! parser", "durable before visible") are only as strong as the set of
//! files they are mechanically enforced on.

/// Regions in which the panic-freedom pass denies `unwrap`/`expect`/
/// panicking macros/direct indexing (test modules exempt; escapable per
/// site with `// lint: allow(panic, reason = "…")`). Each entry is a file
/// plus the functions the zone covers — an empty list means the whole
/// file.
///
/// The zones are exactly the paths whose claims no test can exhaustively
/// check: the total protocol parser, the session loop that frames
/// whatever bytes a peer sends, the storage decode/recovery paths, and
/// the resident worker pool's run loop. `snapshot.rs` is scoped to
/// its decode half: `encode` serializes state the process itself built
/// (its indexing is over vectors it sized), while `decode` must be total
/// over arbitrary bytes.
pub const NO_PANIC_ZONES: &[(&str, &[&str])] = &[
    ("crates/service/src/proto.rs", &[]),
    ("crates/service/src/net.rs", &[]),
    ("crates/storage/src/codec.rs", &[]),
    ("crates/storage/src/wal.rs", &[]),
    (
        "crates/storage/src/snapshot.rs",
        &["decode", "decode_payload", "decode_tail", "multicore"],
    ),
    ("crates/storage/src/durable.rs", &[]),
    ("crates/core/src/pool.rs", &[]),
];

/// Files allowed to contain `unsafe` at all. Everywhere else the unsafe
/// audit denies the keyword outright, so new unsafe code is an
/// intentional act: add the file here *and* write the `// SAFETY:`
/// comment the audit also demands.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/core/src/pool.rs"];

/// Files in which the durability-ordering pass checks that no
/// visible-state mutation happens between a WAL append and its
/// fsync-family barrier.
pub const FSYNC_ZONES: &[&str] = &[
    "crates/storage/src/durable.rs",
    "crates/service/src/service.rs",
];

/// Crates (by `crates/<dir>` name) whose public items must carry rustdoc.
pub const RUSTDOC_CRATES: &[&str] = &["engine", "service", "storage"];

/// Crates whose public functions come one per operation: shared state (a
/// thread count, a memo pool, a round budget) is an argument or rides the
/// memo it belongs to, never a name suffix.
pub const ONE_FN_CRATES: &[&str] = &["core", "engine"];

/// `pub fn` name endings denied in [`ONE_FN_CRATES`] — each once named a
/// sibling that differed from its base function only in where such state
/// came from.
pub const SIBLING_SUFFIXES: &[&str] = &["_par", "_par_in", "_scoped_in", "_budget_in", "_batch_in"];

/// Method names that count as the fsync family for the ordering pass.
/// `write_atomic` is a barrier in its own right (the backend renames over
/// the blob only after syncing the temp file).
pub const FSYNC_METHODS: &[&str] = &["sync", "sync_all", "sync_data", "write_atomic"];
