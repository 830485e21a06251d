//! Recovery edge cases: every boundary shape a crash (or an operator with
//! `cp`) can leave the blobs in, each with its exact typed outcome —
//! plus the FileStorage end-to-end round trip.
//!
//! The adversarial *any-offset* coverage lives in `crash_recovery.rs`;
//! this suite pins the named corners the recovery state machine has
//! explicit branches for.

mod common;

use std::sync::atomic::Ordering;

use common::FlakyStorage;
use uprov_engine::{Engine, ReplayState, UpdateLog};
use uprov_storage::{
    wal, DurableEngine, FileStorage, MemStorage, RecoveryError, SnapshotError, WalTail,
    SNAPSHOT_BLOB, WAL_BLOB, WAL_MAGIC,
};

fn log(text: &str) -> UpdateLog {
    text.parse().expect("valid log text")
}

/// A reference engine that applied `logs` in order (certifying where
/// `certify_at` says), for comparing recovered state against.
fn reference(logs: &[&UpdateLog], certify_at: &[usize]) -> (Engine, ReplayState) {
    let mut engine = Engine::new();
    let mut state = ReplayState::default();
    for (i, l) in logs.iter().enumerate() {
        engine.append(&mut state, l).expect("reference applies");
        if certify_at.contains(&i) {
            engine.certify(&mut state);
        }
    }
    (engine, state)
}

#[test]
fn empty_storage_opens_fresh() {
    let (db, report) = DurableEngine::open(MemStorage::new()).expect("fresh");
    assert!(!report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 0);
    assert_eq!(report.truncated, None);
    assert_eq!(db.seq(), 0);
    assert_eq!(db.state().update_count(), 0);
}

#[test]
fn magic_only_wal_without_snapshot_is_clean() {
    let mut disk = MemStorage::new();
    disk.set_blob(WAL_BLOB, WAL_MAGIC.to_vec());
    let (db, report) = DurableEngine::open(disk).expect("clean empty WAL");
    assert!(!report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 0);
    assert_eq!(report.truncated, None);
    assert_eq!(db.seq(), 0);
}

#[test]
fn snapshot_with_no_tail_restores_exactly() {
    let base = log("base a b\nbegin t1\ninsert c\nmodify a <- b c\ncommit\n");
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
    db.append(&base).unwrap();
    db.certify();
    db.snapshot().expect("checkpoint");
    let want = db.state().to_snapshot();
    let (db2, report) = DurableEngine::open(db.into_storage()).expect("recovers");
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 0);
    assert_eq!(report.wal_records_skipped, 0);
    assert_eq!(db2.state().to_snapshot(), want);
    let (engine, state) = reference(&[&base], &[0]);
    assert_eq!(db2.state().to_snapshot(), state.to_snapshot());
    assert_eq!(db2.engine().arena().len(), engine.arena().len());
}

#[test]
fn wal_with_no_snapshot_cold_replays_everything() {
    let base = log("base a\nbegin t1\ninsert b\ncommit\n");
    let delta = log("begin t2\nmodify a <- b\ncommit\n");
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
    db.append(&base).unwrap();
    db.append(&delta).unwrap();
    let (db2, report) = DurableEngine::open(db.into_storage()).expect("cold replay");
    assert!(!report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 2);
    let (engine, state) = reference(&[&base, &delta], &[]);
    assert_eq!(db2.state().to_snapshot(), state.to_snapshot());
    assert_eq!(db2.engine().arena().len(), engine.arena().len());
    assert_eq!(db2.seq(), 2);
}

#[test]
fn duplicate_final_record_is_skipped_not_reapplied() {
    let base = log("base a\nbegin t1\ninsert b\ncommit\n");
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
    db.append(&base).unwrap();
    let want = db.state().to_snapshot();
    let mut disk = db.into_storage();
    // Duplicate the final (only) record byte-for-byte.
    let rec = wal::encode_record(0, &base);
    let mut bytes = disk.blob(WAL_BLOB).unwrap().to_vec();
    assert_eq!(bytes.len(), WAL_MAGIC.len() + rec.len());
    bytes.extend_from_slice(&rec);
    disk.set_blob(WAL_BLOB, bytes);
    let (db2, report) = DurableEngine::open(disk).expect("skips the duplicate");
    assert_eq!(report.wal_records_applied, 1);
    assert_eq!(report.wal_records_skipped, 1);
    assert_eq!(report.truncated, None, "a clean duplicate is not torn");
    assert_eq!(db2.state().to_snapshot(), want);
    assert_eq!(db2.seq(), 1, "re-applying would have double-counted");
}

#[test]
fn partial_final_record_is_truncated_and_reported() {
    let base = log("base a\nbegin t1\ninsert b\ncommit\n");
    let delta = log("begin t2\ndelete b\ncommit\n");
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
    db.append(&base).unwrap();
    let want = db.state().to_snapshot();
    db.append(&delta).unwrap();
    let mut disk = db.into_storage();
    // Tear the final record: drop its last 3 bytes.
    let bytes = disk.blob(WAL_BLOB).unwrap().to_vec();
    let full = bytes.len() as u64;
    disk.set_blob(WAL_BLOB, bytes[..bytes.len() - 3].to_vec());
    let (db2, report) = DurableEngine::open(disk).expect("repairs the tear");
    assert_eq!(report.wal_records_applied, 1, "only the intact record");
    let trunc = report.truncated.expect("tear reported");
    assert_eq!(trunc.from, full - 3);
    assert_eq!(
        trunc.to,
        (WAL_MAGIC.len() + wal::encode_record(0, &base).len()) as u64
    );
    assert!(matches!(trunc.tail, WalTail::TornPayload { .. }));
    assert_eq!(db2.state().to_snapshot(), want, "delta never happened");
    // The repaired WAL is immediately appendable again.
    let mut db2 = db2;
    db2.append(&delta).unwrap();
    let (db3, report) = DurableEngine::open(db2.into_storage()).expect("clean again");
    assert_eq!(report.wal_records_applied, 2);
    assert_eq!(report.truncated, None);
    let (_, state) = reference(&[&base, &delta], &[]);
    assert_eq!(db3.state().to_snapshot(), state.to_snapshot());
}

#[test]
fn crash_between_snapshot_and_wal_reset_skips_covered_records() {
    let base = log("base a\nbegin t1\ninsert b\ncommit\n");
    let delta = log("begin t2\nmodify a <- b\ncommit\n");
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
    db.append(&base).unwrap();
    db.append(&delta).unwrap();
    db.certify();
    let want = db.state().to_snapshot();
    let pre_reset_wal = db.storage().blob(WAL_BLOB).unwrap().to_vec();
    db.snapshot().expect("checkpoint");
    let mut disk = db.into_storage();
    // Undo the WAL reset: the crash hit after the snapshot's atomic write
    // but before the WAL was reset, leaving both old records behind.
    disk.set_blob(WAL_BLOB, pre_reset_wal);
    let (db2, report) = DurableEngine::open(disk).expect("idempotent replay");
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 0);
    assert_eq!(report.wal_records_skipped, 2);
    assert_eq!(db2.state().to_snapshot(), want);
    assert_eq!(db2.seq(), 2);
}

#[test]
fn depth_100k_chain_round_trips_through_snapshot_and_recovery() {
    // One transaction with 100 000 alternating inserts/deletes of a single
    // tuple: provenance becomes a chain 100k operators deep, the arena
    // holds ~200k nodes, and every id in the snapshot is large.
    let mut text = String::from("base seed\nbegin t\n");
    for i in 0..100_000 {
        text.push_str(if i % 2 == 0 {
            "insert x\n"
        } else {
            "delete x\n"
        });
    }
    text.push_str("commit\n");
    let big = log(&text);
    assert_eq!(big.update_count(), 100_000);
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
    db.append(&big).unwrap();
    db.snapshot().expect("checkpoint");
    let want = db.state().to_snapshot();
    let arena_len = db.engine().arena().len();
    let (db2, report) = DurableEngine::open(db.into_storage()).expect("recovers");
    assert!(report.snapshot_loaded);
    assert_eq!(db2.state().to_snapshot(), want);
    assert_eq!(db2.engine().arena().len(), arena_len);
}

#[test]
fn bad_wal_magic_is_a_typed_hard_error() {
    let mut disk = MemStorage::new();
    disk.set_blob(WAL_BLOB, b"NOTAWAL!records follow".to_vec());
    let err = DurableEngine::open(disk).expect_err("refuses");
    assert!(matches!(err, RecoveryError::WalHeader(_)), "got {err:?}");
}

#[test]
fn corrupt_snapshot_is_a_typed_hard_error_not_a_truncation() {
    let (mut db, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
    db.append(&log("base a\nbegin t1\ninsert b\ncommit\n"))
        .unwrap();
    db.certify();
    db.snapshot().expect("checkpoint");
    let mut disk = db.into_storage();
    let mut bytes = disk.blob(SNAPSHOT_BLOB).unwrap().to_vec();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    disk.set_blob(SNAPSHOT_BLOB, bytes);
    let err = DurableEngine::open(disk).expect_err("refuses");
    assert!(
        matches!(
            err,
            RecoveryError::Snapshot(SnapshotError::ChecksumMismatch { .. })
        ),
        "got {err:?}"
    );
}

#[test]
fn missing_middle_record_is_a_sequence_gap() {
    let base = log("base a\nbegin t1\ninsert b\ncommit\n");
    let delta = log("begin t2\ndelete b\ncommit\n");
    let mut disk = MemStorage::new();
    let mut bytes = WAL_MAGIC.to_vec();
    bytes.extend_from_slice(&wal::encode_record(0, &base));
    // Record 1 lost; record 2 present.
    bytes.extend_from_slice(&wal::encode_record(2, &delta));
    disk.set_blob(WAL_BLOB, bytes);
    let err = DurableEngine::open(disk).expect_err("refuses");
    assert!(
        matches!(
            err,
            RecoveryError::SequenceGap {
                expected: 1,
                found: 2
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn failed_append_leaves_state_untouched_and_the_next_append_repairs_the_wal() {
    let base = log("base a\nbegin t1\ninsert b\ncommit\n");
    let delta = log("begin t2\ndelete b\ncommit\n");
    let storage = FlakyStorage::default();
    let fail = storage.trigger();
    let (mut db, _) = DurableEngine::open(storage).expect("fresh");
    db.append(&base).unwrap();
    let want = db.state().to_snapshot();
    let clean_wal = db.storage().inner.blob(WAL_BLOB).unwrap().to_vec();
    fail.store(true, Ordering::SeqCst);
    let err = db.append(&delta).expect_err("transient failure");
    assert!(matches!(err, uprov_storage::DurableError::Io(_)));
    assert_eq!(db.state().to_snapshot(), want, "state unchanged on Err");
    assert!(
        db.storage().inner.blob(WAL_BLOB).unwrap().len() > clean_wal.len(),
        "torn bytes really are on disk"
    );
    // The retry truncates the torn suffix before writing, so the WAL ends
    // up byte-identical to a never-failed run.
    db.append(&delta).expect("retry succeeds");
    let mut ref_bytes = clean_wal.clone();
    ref_bytes.extend_from_slice(&wal::encode_record(1, &delta));
    assert_eq!(db.storage().inner.blob(WAL_BLOB).unwrap(), &ref_bytes[..]);
    let (_, state) = reference(&[&base, &delta], &[]);
    assert_eq!(db.state().to_snapshot(), state.to_snapshot());
}

/// A batch whose WAL write fails leaves nothing behind — not in the
/// state, and not in the atom table or the arena either: its names stay
/// free to be used under the other kind, and the retry writes the bytes a
/// never-failed run writes.
#[test]
fn failed_batch_pins_no_names_and_interns_no_nodes() {
    common::failed_batch_leaves_no_trace(FlakyStorage::trigger);
}

#[test]
fn file_storage_round_trips_through_a_real_directory() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("recovery_file_storage");
    let _ = std::fs::remove_dir_all(&dir);
    let base = log("base a b\nbegin t1\ninsert c\nmodify a <- b c\ncommit\n");
    let delta = log("begin t2\ndelete b\ncommit\n");
    let want = {
        let storage = FileStorage::open(&dir).expect("create dir");
        let (mut db, report) = DurableEngine::open(storage).expect("fresh");
        assert_eq!(report, Default::default());
        db.append(&base).unwrap();
        db.certify();
        db.snapshot().expect("checkpoint");
        db.append(&delta).unwrap();
        db.state().to_snapshot()
    };
    // Process "restarts": everything in-memory is gone, only files remain.
    {
        let storage = FileStorage::open(&dir).expect("reopen dir");
        let (mut db, report) = DurableEngine::open(storage).expect("recovers");
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_records_applied, 1);
        assert_eq!(report.truncated, None);
        assert_eq!(db.state().to_snapshot(), want);
        // And the recovered engine answers queries.
        let (engine, state) = db.query();
        let view = engine.abort_symbolic(state, "t2").expect("t2 is known");
        assert!(view.iter().any(|t| t.name == "b"));
    }
    // Tear the WAL on disk; the next open repairs the file itself.
    let wal_path = dir.join(WAL_BLOB);
    let bytes = std::fs::read(&wal_path).expect("wal exists");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 2]).expect("tear");
    {
        let storage = FileStorage::open(&dir).expect("reopen dir");
        let (db, report) = DurableEngine::open(storage).expect("repairs");
        let trunc = report.truncated.expect("tear reported");
        assert_eq!(trunc.from, bytes.len() as u64 - 2);
        assert_eq!(report.wal_records_applied, 0, "torn delta dropped");
        assert!(db.state().certified_count() > 0, "snapshot NFs survive");
    }
    let repaired = std::fs::read(&wal_path).expect("wal still there");
    assert_eq!(repaired, WAL_MAGIC, "truncated back to the reset point");
    let _ = std::fs::remove_dir_all(&dir);
}
