//! [`DurableEngine`]: the engine + replay state behind a durability
//! barrier — every accepted append hits the WAL and is fsynced **before**
//! it becomes visible in memory, and a restart rebuilds the exact state
//! from snapshot + WAL tail.
//!
//! # Write path (durable-before-visible)
//!
//! There is one commit path, [`DurableEngine::append_many`]
//! ([`DurableEngine::append`] is the batch of one). It runs in this
//! order, and the order is the whole durability story:
//!
//! 1. **Validate** every log against the in-memory state plus the
//!    batch's earlier accepted logs ([`Engine::validate_batch`]) — pure,
//!    nothing is mutated, and a log that would be rejected is never
//!    written to the WAL, so replay never re-trips on it.
//! 2. **Log**: encode the accepted records, append them in one write
//!    (plus the 8-byte magic on a fresh WAL), and [`sync`](Storage::sync)
//!    once. Only when the barrier returns does the batch exist.
//! 3. **Apply** the accepted logs in memory — infallible after step 1.
//!
//! The cost of an append is that of its own delta: no step reads or
//! copies state the batch does not name. If step 2 fails, the state, the
//! atom table and the arena are exactly as they were, and the WAL may
//! hold a torn suffix; the engine remembers its last known-good length
//! and truncates back to it before the next append ever writes (the same
//! repair recovery would perform).
//!
//! # Checkpoints and recovery
//!
//! [`DurableEngine::snapshot`] atomically replaces the snapshot blob,
//! *then* resets the WAL to magic-only. A crash between the two leaves old
//! records behind — harmless, because every record carries its all-time
//! sequence number and recovery skips records the snapshot already covers
//! (the same guard absorbs a duplicated record). Recovery
//! ([`DurableEngine::open`]) is then a short state machine:
//!
//! ```text
//! read snapshot ──missing──▶ start empty (cold replay covers the WAL)
//!      │ ok (CRC + canonicity checked)          │
//!      ▼                                        ▼
//! scan WAL: valid record prefix + tail verdict (wal::scan)
//!      │ torn tail? truncate to the valid prefix, note it in the report
//!      │ zero fill past a clean end? truncate it, silently
//!      ▼
//! replay records with seq ≥ snapshot's wal_seq, in sequence
//!      │ gap or replay rejection ⇒ typed RecoveryError (refuse, loudly)
//!      ▼
//! DurableEngine + RecoveryReport
//! ```
//!
//! Corruption is never panicked on: a torn tail is repaired and reported,
//! while damage that cannot be safely repaired (bad snapshot CRC, bad WAL
//! magic, a sequence gap) is a typed [`RecoveryError`].

// No-panic zone: recovery answers damaged blobs with typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::fmt;
use std::io;

use uprov_engine::{Certification, Engine, ReplayError, ReplayState, UpdateLog};

use crate::backend::Storage;
use crate::snapshot::{self, SnapshotError};
use crate::wal::{self, BadMagic, WalTail, WAL_MAGIC};

/// Blob name of the snapshot.
pub const SNAPSHOT_BLOB: &str = "snapshot.bin";

/// Blob name of the write-ahead log.
pub const WAL_BLOB: &str = "wal.bin";

/// An error from the live write path ([`DurableEngine::append`],
/// [`DurableEngine::snapshot`]).
#[derive(Debug)]
pub enum DurableError {
    /// The storage backend failed; the in-memory state is unchanged.
    Io(io::Error),
    /// The log was rejected by validation; nothing was written.
    Replay(ReplayError),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "storage: {e}"),
            DurableError::Replay(e) => write!(f, "rejected log: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<ReplayError> for DurableError {
    fn from(e: ReplayError) -> Self {
        DurableError::Replay(e)
    }
}

/// Damage [`DurableEngine::open`] cannot safely repair.
#[derive(Debug)]
pub enum RecoveryError {
    /// The storage backend failed.
    Io(io::Error),
    /// The snapshot blob exists but is corrupt or unreadable. Snapshots
    /// are written atomically, so this is media damage, not a crash
    /// artifact — there is no safe truncation to fall back on.
    Snapshot(SnapshotError),
    /// The WAL exists but does not start with the (once-written, synced)
    /// magic: wrong file or damaged header, not a torn tail.
    WalHeader(BadMagic),
    /// A WAL record scanned clean but the engine rejected it — the WAL
    /// and snapshot disagree about history.
    Replay {
        /// Sequence number of the rejected record.
        seq: u64,
        /// Why the engine rejected it.
        error: ReplayError,
    },
    /// Record sequence numbers skipped ahead: records are missing from
    /// the middle of the WAL.
    SequenceGap {
        /// The sequence number recovery expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "storage: {e}"),
            RecoveryError::Snapshot(e) => write!(f, "snapshot: {e}"),
            RecoveryError::WalHeader(e) => write!(f, "wal: {e}"),
            RecoveryError::Replay { seq, error } => {
                write!(f, "wal record {seq} rejected on replay: {error}")
            }
            RecoveryError::SequenceGap { expected, found } => write!(
                f,
                "wal sequence gap: expected record {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<SnapshotError> for RecoveryError {
    fn from(e: SnapshotError) -> Self {
        RecoveryError::Snapshot(e)
    }
}

impl From<BadMagic> for RecoveryError {
    fn from(e: BadMagic) -> Self {
        RecoveryError::WalHeader(e)
    }
}

/// A torn WAL tail that recovery dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTruncation {
    /// WAL length found on open.
    pub from: u64,
    /// Length of the valid prefix it was truncated to.
    pub to: u64,
    /// What the scan hit at the cut point.
    pub tail: WalTail,
}

/// What [`DurableEngine::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// A snapshot was loaded (otherwise: cold replay from the WAL alone).
    pub snapshot_loaded: bool,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_applied: usize,
    /// WAL records skipped because the snapshot already covered their
    /// sequence numbers (crash-between-snapshot-and-reset leftovers, or a
    /// duplicated record).
    pub wal_records_skipped: usize,
    /// The torn tail recovery truncated, if any.
    pub truncated: Option<WalTruncation>,
}

/// An [`Engine`] + [`ReplayState`] pair whose appends are durable before
/// they are visible. See the module docs for the write path and the
/// recovery state machine; see the crate docs for a usage example.
#[derive(Debug)]
pub struct DurableEngine<S: Storage> {
    storage: S,
    engine: Engine,
    state: ReplayState,
    /// Next all-time append sequence number.
    seq: u64,
    /// Known-good WAL byte length (magic included; 0 = WAL not created).
    wal_len: u64,
    /// A failed append may have left bytes past `wal_len`; truncate before
    /// the next write.
    wal_dirty: bool,
}

impl<S: Storage> DurableEngine<S> {
    /// Opens (or freshly initializes) an engine from `storage`, running
    /// the recovery state machine in the module docs. Total over arbitrary
    /// blob contents: torn tails are repaired and reported, unrepairable
    /// damage is a typed [`RecoveryError`].
    pub fn open(mut storage: S) -> Result<(Self, RecoveryReport), RecoveryError> {
        let mut report = RecoveryReport::default();
        // 1. Snapshot, if any.
        let (mut engine, mut state, mut next_seq) = match storage.read(SNAPSHOT_BLOB)? {
            Some(bytes) => {
                let rec = snapshot::decode(&bytes)?;
                report.snapshot_loaded = true;
                (rec.engine, rec.state, rec.wal_seq)
            }
            None => (Engine::new(), ReplayState::default(), 0),
        };
        // 2. WAL scan: valid prefix + tail verdict.
        let wal_bytes = storage.read(WAL_BLOB)?.unwrap_or_default();
        let scan = wal::scan(&wal_bytes)?;
        let mut wal_len = scan.valid_len;
        if scan.valid_len < wal_bytes.len() as u64 {
            storage.truncate(WAL_BLOB, scan.valid_len)?;
            // Zero fill past a clean end is no loss, so not reported.
            if !scan.tail.is_clean() {
                report.truncated = Some(WalTruncation {
                    from: wal_bytes.len() as u64,
                    to: scan.valid_len,
                    tail: scan.tail,
                });
            }
        }
        // A WAL truncated below its magic is gone entirely; the next
        // append recreates it from scratch.
        if wal_len < WAL_MAGIC.len() as u64 {
            wal_len = 0;
        }
        // 3. Replay the tail in sequence order.
        for rec in scan.records {
            if rec.seq < next_seq {
                report.wal_records_skipped += 1;
                continue;
            }
            if rec.seq != next_seq {
                return Err(RecoveryError::SequenceGap {
                    expected: next_seq,
                    found: rec.seq,
                });
            }
            engine
                .append(&mut state, &rec.delta)
                .map_err(|error| RecoveryError::Replay {
                    seq: rec.seq,
                    error,
                })?;
            report.wal_records_applied += 1;
            next_seq += 1;
        }
        Ok((
            DurableEngine {
                storage,
                engine,
                state,
                seq: next_seq,
                wal_len,
                wal_dirty: false,
            },
            report,
        ))
    }

    /// Appends one log durably — [`DurableEngine::append_many`] with a
    /// batch of one. Returns the number of updates applied; a rejected log
    /// is [`DurableError::Replay`] and writes nothing. On `Err` the
    /// in-memory state is unchanged.
    pub fn append(&mut self, log: &UpdateLog) -> Result<usize, DurableError> {
        let mut verdicts = self.append_many(std::slice::from_ref(log))?;
        #[expect(
            clippy::expect_used,
            reason = "append_many answers one verdict per log and was handed exactly one"
        )]
        let verdict = verdicts.pop().expect("one verdict per log");
        Ok(verdict?)
    }

    /// Group commit: appends a batch of logs behind **one** fsync barrier,
    /// in the order of the module docs — validate every log, one WAL
    /// append, one fsync, apply.
    ///
    /// Validation is [`Engine::validate_batch`]: pure, and later logs see
    /// the earlier accepted ones — exactly the verdicts of calling
    /// [`DurableEngine::append`] once per log, at one barrier instead of
    /// `n`. Verdicts are per log: a rejected log gets its [`ReplayError`]
    /// and writes nothing, while the accepted ones around it proceed. The
    /// returned `Vec` is in `logs` order; `Ok` carries the number of
    /// updates the log applied.
    ///
    /// Failure atomicity is batch-wide: nothing in memory (state, atom
    /// table, arena, `seq`) is touched until `sync` has returned `Ok`, so
    /// on a storage `Err` **no** log of the batch is applied and nothing
    /// of it lingers (the possibly-torn WAL suffix is truncated before the
    /// next write). A batch is never half-visible — the property the
    /// concurrency soak test pins from the outside.
    pub fn append_many(
        &mut self,
        logs: &[UpdateLog],
    ) -> Result<Vec<Result<usize, ReplayError>>, DurableError> {
        let checked = self.engine.validate_batch(&self.state, logs);
        let mut bytes = Vec::new();
        if self.wal_len == 0 {
            bytes.extend_from_slice(&WAL_MAGIC);
        }
        let mut seq = self.seq;
        for (log, verdict) in logs.iter().zip(&checked) {
            if verdict.is_ok() {
                bytes.extend_from_slice(&wal::encode_record(seq, log));
                seq += 1;
            }
        }
        if seq > self.seq {
            // Repair any torn suffix a previously failed append left behind.
            if self.wal_dirty {
                self.storage.truncate(WAL_BLOB, self.wal_len)?;
            }
            self.wal_dirty = true;
            self.storage.append(WAL_BLOB, &bytes)?;
            self.storage.sync(WAL_BLOB)?;
            // One barrier for the whole batch: it is durable. Only now
            // does it become visible.
            self.wal_dirty = false;
            self.wal_len += bytes.len() as u64;
            self.seq = seq;
        }
        Ok(logs
            .iter()
            .zip(checked)
            .map(|(log, verdict)| {
                #[expect(
                    clippy::expect_used,
                    reason = "validate_batch accepted this log against this state plus the accepted logs before it, which have just been applied; a rejection here means the WAL now holds a record replay would refuse, and crashing beats diverging from disk"
                )]
                verdict.map(|()| {
                    self.engine
                        .append(&mut self.state, log)
                        .expect("validated before logging")
                })
            })
            .collect())
    }

    /// Checkpoints: atomically replaces the snapshot, then resets the WAL
    /// to magic-only. Crash-safe in both halves (module docs).
    pub fn snapshot(&mut self) -> Result<(), DurableError> {
        let bytes = snapshot::encode(&self.engine, &self.state, self.seq);
        self.storage.write_atomic(SNAPSHOT_BLOB, &bytes)?;
        self.storage.write_atomic(WAL_BLOB, &WAL_MAGIC)?;
        self.wal_len = WAL_MAGIC.len() as u64;
        self.wal_dirty = false;
        Ok(())
    }

    /// Certifies the dirty tuples' normal forms ([`Engine::certify`]).
    /// Purely derived data — it changes what the next [`Self::snapshot`]
    /// captures, but needs no WAL record.
    pub fn certify(&mut self) -> Certification {
        self.engine.certify(&mut self.state)
    }

    /// The replay state (tuple roots, certified NFs, dirty set).
    pub fn state(&self) -> &ReplayState {
        &self.state
    }

    /// The underlying engine, shared.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Split borrow for queries, which need `&mut Engine` alongside the
    /// state: `let (engine, state) = db.query(); engine.abort_symbolic(state, ..)`.
    pub fn query(&mut self) -> (&mut Engine, &ReplayState) {
        (&mut self.engine, &self.state)
    }

    /// Next all-time append sequence number (= appends accepted so far).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The storage backend, shared (test introspection).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Consumes the engine, returning the backend — "the disk" after a
    /// simulated shutdown, ready for a fresh [`DurableEngine::open`].
    pub fn into_storage(self) -> S {
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStorage;

    #[test]
    fn append_is_durable_before_visible() {
        let (mut db, report) = DurableEngine::open(MemStorage::new()).expect("fresh open");
        assert_eq!(report, RecoveryReport::default());
        let syncs0 = db.storage().syncs();
        db.append(&"base a\nbegin t1\ninsert b\ncommit\n".parse().unwrap())
            .expect("accepted");
        assert_eq!(db.storage().syncs(), syncs0 + 1, "one barrier per append");
        assert_eq!(db.seq(), 1);
        // Restart from the blobs alone.
        let (db2, report) = DurableEngine::open(db.into_storage()).expect("recovers");
        assert!(!report.snapshot_loaded);
        assert_eq!(report.wal_records_applied, 1);
        assert_eq!(db2.state().to_snapshot(), {
            let mut engine = Engine::new();
            let state = engine
                .replay(&"base a\nbegin t1\ninsert b\ncommit\n".parse().unwrap())
                .unwrap();
            state.to_snapshot()
        });
    }

    #[test]
    fn rejected_logs_write_nothing() {
        let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh open");
        db.append(&"base a\n".parse().unwrap()).unwrap();
        let wal_before = db.storage().blob(WAL_BLOB).unwrap().to_vec();
        // Re-declaring a tracked tuple is a validation error.
        let err = db.append(&"base a\n".parse().unwrap()).unwrap_err();
        assert!(matches!(err, DurableError::Replay(_)));
        assert_eq!(db.storage().blob(WAL_BLOB).unwrap(), &wal_before[..]);
        assert_eq!(db.seq(), 1);
    }

    #[test]
    fn append_many_matches_sequential_appends_at_one_barrier() {
        let logs: Vec<UpdateLog> = [
            "base a\nbegin t1\ninsert b\ncommit\n",
            "begin t2\nmodify c <- b\ncommit\n",
            "begin t3\ndelete a\ncommit\n",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();

        let (mut batch, _) = DurableEngine::open(MemStorage::new()).unwrap();
        let syncs0 = batch.storage().syncs();
        let verdicts = batch.append_many(&logs).expect("storage healthy");
        assert!(verdicts.iter().all(|v| v.is_ok()));
        assert_eq!(
            batch.storage().syncs(),
            syncs0 + 1,
            "one barrier for the whole batch"
        );
        assert_eq!(batch.seq(), 3);

        let (mut one_by_one, _) = DurableEngine::open(MemStorage::new()).unwrap();
        for log in &logs {
            one_by_one.append(log).unwrap();
        }
        assert_eq!(
            batch.state().to_snapshot(),
            one_by_one.state().to_snapshot()
        );
        // The WAL bytes are identical too, so recovery cannot tell the
        // two histories apart.
        assert_eq!(
            batch.storage().blob(WAL_BLOB),
            one_by_one.storage().blob(WAL_BLOB)
        );
        let (recovered, report) = DurableEngine::open(batch.into_storage()).unwrap();
        assert_eq!(report.wal_records_applied, 3);
        assert_eq!(
            recovered.state().to_snapshot(),
            one_by_one.state().to_snapshot()
        );
    }

    #[test]
    fn append_many_rejects_per_log_and_later_logs_see_earlier_ones() {
        let (mut db, _) = DurableEngine::open(MemStorage::new()).unwrap();
        let logs: Vec<UpdateLog> = [
            "base a\n",
            "base a\n", // late base: rejected, batch continues
            "begin t\ninsert a\ncommit\n",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let verdicts = db.append_many(&logs).unwrap();
        assert!(verdicts[0].is_ok());
        assert!(
            matches!(&verdicts[1], Err(ReplayError::LateBase { name }) if name == "a"),
            "the second log re-declares a tuple the first one (same batch) declared"
        );
        assert!(verdicts[2].is_ok());
        assert_eq!(db.seq(), 2, "only accepted logs take sequence numbers");
        let (recovered, report) = DurableEngine::open(db.into_storage()).unwrap();
        assert_eq!(report.wal_records_applied, 2);
        assert_eq!(recovered.seq(), 2);
    }

    #[test]
    fn append_many_of_all_rejected_logs_writes_nothing() {
        let (mut db, _) = DurableEngine::open(MemStorage::new()).unwrap();
        db.append(&"base a\n".parse().unwrap()).unwrap();
        let wal_before = db.storage().blob(WAL_BLOB).unwrap().to_vec();
        let syncs0 = db.storage().syncs();
        let logs: Vec<UpdateLog> = vec!["base a\n".parse().unwrap(), "base a\n".parse().unwrap()];
        let verdicts = db.append_many(&logs).unwrap();
        assert!(verdicts.iter().all(|v| v.is_err()));
        assert_eq!(db.storage().blob(WAL_BLOB).unwrap(), &wal_before[..]);
        assert_eq!(
            db.storage().syncs(),
            syncs0,
            "no barrier when nothing commits"
        );
        assert_eq!(db.seq(), 1);
    }

    #[test]
    fn snapshot_resets_the_wal_and_seq_skips_old_records() {
        let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh open");
        db.append(&"base a\nbegin t1\ninsert b\ncommit\n".parse().unwrap())
            .unwrap();
        db.certify();
        db.snapshot().expect("checkpoint");
        assert_eq!(db.storage().blob(WAL_BLOB).unwrap(), &WAL_MAGIC[..]);
        db.append(&"begin t2\ndelete b\ncommit\n".parse().unwrap())
            .unwrap();
        let want = db.state().to_snapshot();
        let (db2, report) = DurableEngine::open(db.into_storage()).expect("recovers");
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_records_applied, 1);
        assert_eq!(report.wal_records_skipped, 0);
        assert_eq!(db2.state().to_snapshot(), want);
    }
}
