//! Durability for the update-provenance engine: versioned, checksummed
//! binary **snapshots** plus an append-only binary **WAL**, glued together
//! by [`DurableEngine`] so that every accepted append is fsynced before it
//! is visible, and a restart — or a crash at *any* byte offset —
//! recovers the exact in-memory state (same arena ids, same certified
//! normal forms) by loading the snapshot and replaying the WAL tail.
//!
//! The crate is layered bottom-up:
//!
//! | module | what it owns |
//! |---|---|
//! | [`crc`] | CRC-32 behind both formats |
//! | [`codec`] | binary primitives + the [`UpdateLog`](uprov_engine::UpdateLog) wire form |
//! | [`backend`] | the [`Storage`] trait; [`MemStorage`], [`FileStorage`] |
//! | [`wal`] | record framing and the valid-prefix [`scan`](wal::scan) |
//! | [`snapshot`] | the snapshot format, id-identical rebuild |
//! | [`durable`] | [`DurableEngine`]: write path, checkpoint, recovery |
//! | [`fault`] | [`FaultStorage`]: seeded crash/bit-flip injection |
//!
//! Corruption policy in one line: **torn tails are truncated and
//! reported, everything else is a typed error, nothing ever panics.**
//! The crash-recovery property test (`tests/crash_recovery.rs`) drives
//! [`FaultStorage`] over every interesting offset to hold the crate to
//! that line.
//!
//! # Example
//!
//! Mirrored in the README's durability section.
//!
//! ```
//! use uprov_storage::{DurableEngine, MemStorage};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Open over any Storage backend (FileStorage for a real directory).
//! let (mut db, _) = DurableEngine::open(MemStorage::new())?;
//!
//! // Appends are durable before they are visible: WAL + fsync, then apply.
//! db.append(&"base a b\nbegin t1\ninsert c\nmodify a <- b c\ncommit\n".parse()?)?;
//!
//! // Checkpoint: snapshot the engine (arena + state + certified NFs),
//! // then reset the WAL. Later appends land in the fresh WAL tail.
//! db.certify();
//! db.snapshot()?;
//! db.append(&"begin t2\ndelete b\ncommit\n".parse()?)?;
//!
//! // "Crash": drop everything but the blobs, then recover.
//! let disk = db.into_storage();
//! let (mut db, report) = DurableEngine::open(disk)?;
//! assert!(report.snapshot_loaded);
//! assert_eq!(report.wal_records_applied, 1);
//!
//! // The exact state is back: roots, certified NFs, query results.
//! let (engine, state) = db.query();
//! let view = engine.abort_symbolic(state, "t2")?;
//! assert!(view.iter().any(|t| t.name == "b"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod backend;
pub mod codec;
pub mod crc;
pub mod durable;
pub mod fault;
pub mod snapshot;
pub mod wal;

pub use backend::{FileStorage, MemStorage, Storage};
pub use durable::{
    DurableEngine, DurableError, RecoveryError, RecoveryReport, WalTruncation, SNAPSHOT_BLOB,
    WAL_BLOB,
};
pub use fault::{FaultMode, FaultStorage};
pub use snapshot::{RecoveredSnapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use wal::{BadMagic, WalRecord, WalScan, WalTail, WAL_MAGIC};
