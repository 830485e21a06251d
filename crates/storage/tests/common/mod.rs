//! Test support shared by this crate's suites and, through `#[path]`, by
//! the service's: a backend that fails on demand while the engine that
//! owns it keeps running, and the failed-batch check built on it.

#![allow(dead_code, reason = "each suite uses a subset of the helpers")]

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use uprov_engine::UpdateLog;
use uprov_storage::{DurableEngine, DurableError, MemStorage, Storage, WAL_BLOB};

/// A backend whose next `append` fails after writing a garbage prefix,
/// whose next `sync` fails after the bytes were written, or whose next
/// `write_atomic` fails before replacing the blob — the
/// transient-IO-failure shape (full disk, EINTR-ish) as opposed to
/// [`uprov_storage::FaultStorage`]'s process-death model.
#[derive(Default)]
pub struct FlakyStorage {
    pub inner: MemStorage,
    fail_next_append: Arc<AtomicBool>,
    fail_next_sync: Arc<AtomicBool>,
    fail_next_write: Arc<AtomicBool>,
}

impl FlakyStorage {
    /// The arming switch: store `true` and the next `append` fails (and
    /// disarms itself). A handle, because `DurableEngine` — let alone a
    /// running service — hands out no `&mut` to its storage.
    pub fn trigger(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fail_next_append)
    }

    /// The same switch for `sync`: the next one fails (and disarms itself)
    /// with every appended byte already in the blob, unsynced.
    pub fn sync_trigger(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fail_next_sync)
    }

    /// The same switch for `write_atomic`: the next one fails (and disarms
    /// itself) and leaves the old blob in place, as an atomic replace must.
    pub fn write_trigger(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fail_next_write)
    }
}

impl Storage for FlakyStorage {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(blob)
    }
    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        if self.fail_next_write.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("injected transient write failure"));
        }
        self.inner.write_atomic(blob, bytes)
    }
    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        if self.fail_next_append.swap(false, Ordering::SeqCst) {
            // Half the bytes land before the failure surfaces.
            self.inner.append(blob, &bytes[..bytes.len() / 2])?;
            return Err(io::Error::other("injected transient append failure"));
        }
        self.inner.append(blob, bytes)
    }
    fn sync(&mut self, blob: &str) -> io::Result<()> {
        if self.fail_next_sync.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("injected transient sync failure"));
        }
        self.inner.sync(blob)
    }
    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(blob, len)
    }
    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        self.inner.len(blob)
    }
}

/// Fails one `append_many` through the switch `arm` returns, then checks
/// that memory, the WAL and a recovery from it match a never-failed run.
pub fn failed_batch_leaves_no_trace(arm: fn(&FlakyStorage) -> Arc<AtomicBool>) {
    let log = |text: &str| -> UpdateLog { text.parse().expect("valid log text") };
    let base = log("base a\nbegin t1\ninsert b\ncommit\n");
    let batch = [log("begin n\ninsert z\ncommit\n")];
    // `n` the other way round: a tuple, where the failed batch had a txn.
    let swapped = log("begin t9\ninsert n\ncommit\n");
    let storage = FlakyStorage::default();
    let fail = arm(&storage);
    let (mut db, _) = DurableEngine::open(storage).expect("fresh");
    db.append(&base).unwrap();
    let atoms = db.engine().atoms().len();
    let nodes = db.engine().arena().len();
    let want = db.state().to_snapshot();
    let wal_len = db.storage().inner.blob(WAL_BLOB).unwrap().len();

    fail.store(true, Ordering::SeqCst);
    let err = db.append_many(&batch).expect_err("transient failure");
    assert!(matches!(err, DurableError::Io(_)));
    assert!(db.storage().inner.blob(WAL_BLOB).unwrap().len() > wal_len);
    assert_eq!(db.engine().atoms().len(), atoms, "no atom interned");
    assert_eq!(db.engine().arena().len(), nodes, "no node interned");
    assert_eq!(db.state().to_snapshot(), want, "state unchanged on Err");
    assert_eq!(db.seq(), 1);

    db.append(&swapped)
        .expect("`n` was never pinned to the txn kind");
    let verdicts = db.append_many(&batch).expect("retry succeeds");
    assert_eq!(verdicts, [Ok(1)]);

    let (mut never_failed, _) = DurableEngine::open(MemStorage::new()).expect("fresh");
    for l in [&base, &swapped, &batch[0]] {
        never_failed.append(l).unwrap();
    }
    assert_eq!(
        db.storage().inner.blob(WAL_BLOB),
        never_failed.storage().blob(WAL_BLOB)
    );
    assert_eq!(db.state().to_snapshot(), never_failed.state().to_snapshot());
    assert_eq!(
        db.engine().arena().len(),
        never_failed.engine().arena().len()
    );
    let (mut recovered, _) = DurableEngine::open(db.into_storage().inner).expect("recovers");
    let nfs = |db: &mut DurableEngine<MemStorage>| {
        db.certify();
        let (engine, state) = (db.engine(), db.state());
        let nf = |name| engine.render(state.certified_nf(name).expect("certified"));
        state
            .tuples()
            .map(|(name, _)| format!("{name}: {}", nf(name)))
            .collect::<Vec<_>>()
    };
    assert_eq!(nfs(&mut recovered), nfs(&mut never_failed));
}
