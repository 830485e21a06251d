//! [`CountingStorage`]: a [`Storage`] wrapper that counts what the
//! durability layer asks of its backend and remembers how much of each
//! blob has been made durable.
//!
//! It is the source of the `backend.*` metrics (device writes, flushes,
//! flush time) and of the crash simulation behind the durability check:
//! killing a process leaves the operating system's cache intact, so the
//! benchmark itself discards every byte that was appended but never
//! synced ([`CountingStorage::crash`]) before it reopens the storage and
//! demands that every acknowledged append is still there.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use uprov_storage::Storage;

/// Length bookkeeping of one blob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BlobLen {
    /// Bytes the backend currently holds.
    len: u64,
    /// Prefix known to survive a crash.
    synced: u64,
}

/// Everything the probe has seen. Shared (behind a mutex) between the
/// wrapper, which the service owns, and the benchmark, which reads it.
#[derive(Debug, Default)]
pub struct Counts {
    /// `append` calls.
    pub appends: u64,
    /// Bytes passed to `append`.
    pub append_bytes: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// Wall time spent inside `sync`, in nanoseconds, one entry per call.
    pub sync_ns: Vec<u64>,
    /// `write_atomic` calls.
    pub atomic_writes: u64,
    /// Bytes passed to `write_atomic`.
    pub atomic_bytes: u64,
    /// Wall time spent inside `write_atomic`, one entry per call.
    pub atomic_ns: Vec<u64>,
    /// `(name, start_ns, end_ns)` of every timed call on the probe's
    /// clock — recorded only when the probe was built with
    /// [`CountingStorage::traced`], for adoption into the span tree.
    pub events: Vec<(&'static str, u64, u64)>,
    blobs: BTreeMap<String, BlobLen>,
}

impl Counts {
    /// Bytes currently held across all blobs.
    pub fn stored_bytes(&self) -> u64 {
        self.blobs.values().map(|b| b.len).sum()
    }
}

/// The counting wrapper. See the [module docs](self).
#[derive(Debug)]
pub struct CountingStorage<S: Storage> {
    inner: S,
    counts: Arc<Mutex<Counts>>,
    /// Clock for `Counts::events`; `None` when not tracing.
    epoch: Option<Instant>,
}

impl<S: Storage> CountingStorage<S> {
    /// Wraps `inner`, which must be empty (blob lengths start at zero).
    pub fn new(inner: S) -> CountingStorage<S> {
        CountingStorage {
            inner,
            counts: Arc::default(),
            epoch: None,
        }
    }

    /// [`CountingStorage::new`] that also records each timed call as an
    /// interval on the clock starting at `epoch`.
    pub fn traced(inner: S, epoch: Instant) -> CountingStorage<S> {
        CountingStorage {
            epoch: Some(epoch),
            ..CountingStorage::new(inner)
        }
    }

    /// A handle on the counters that stays valid after the wrapper moves
    /// into a `DurableEngine`.
    pub fn counts(&self) -> Arc<Mutex<Counts>> {
        Arc::clone(&self.counts)
    }

    /// Simulates power loss: truncates every blob to its last synced
    /// length and hands back the backend, as a restart would find it.
    /// Returns the number of bytes discarded alongside.
    pub fn crash(mut self) -> io::Result<(S, u64)> {
        let counts = self.counts.lock().expect("probe poisoned");
        let mut discarded = 0;
        for (name, blob) in &counts.blobs {
            if blob.synced < blob.len {
                self.inner.truncate(name, blob.synced)?;
                discarded += blob.len - blob.synced;
            }
        }
        drop(counts);
        Ok((self.inner, discarded))
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut S) -> io::Result<T>,
    ) -> (io::Result<T>, u64) {
        let start = Instant::now();
        let out = call(&mut self.inner);
        let elapsed = start.elapsed().as_nanos() as u64;
        if let Some(epoch) = self.epoch {
            let start_ns = start.duration_since(epoch).as_nanos() as u64;
            self.counts.lock().expect("probe poisoned").events.push((
                name,
                start_ns,
                start_ns + elapsed,
            ));
        }
        (out, elapsed)
    }
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(blob)
    }

    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        let (out, ns) = self.timed("backend.write_atomic", |s| s.write_atomic(blob, bytes));
        out?;
        let mut c = self.counts.lock().expect("probe poisoned");
        c.atomic_writes += 1;
        c.atomic_bytes += bytes.len() as u64;
        c.atomic_ns.push(ns);
        // Atomic replace is durable when it returns.
        let len = bytes.len() as u64;
        c.blobs
            .insert(blob.to_owned(), BlobLen { len, synced: len });
        Ok(())
    }

    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        let (out, _) = self.timed("backend.append", |s| s.append(blob, bytes));
        out?;
        let mut c = self.counts.lock().expect("probe poisoned");
        c.appends += 1;
        c.append_bytes += bytes.len() as u64;
        c.blobs.entry(blob.to_owned()).or_default().len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self, blob: &str) -> io::Result<()> {
        let (out, ns) = self.timed("backend.sync", |s| s.sync(blob));
        out?;
        let mut c = self.counts.lock().expect("probe poisoned");
        c.syncs += 1;
        c.sync_ns.push(ns);
        if let Some(b) = c.blobs.get_mut(blob) {
            b.synced = b.len;
        }
        Ok(())
    }

    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(blob, len)?;
        let mut c = self.counts.lock().expect("probe poisoned");
        if let Some(b) = c.blobs.get_mut(blob) {
            // Truncation is durable, but only happens when it shortens.
            if b.len > len {
                *b = BlobLen { len, synced: len };
            }
        }
        Ok(())
    }

    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        self.inner.len(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprov_storage::MemStorage;

    #[test]
    fn crash_discards_exactly_the_unsynced_suffix() {
        let mut s = CountingStorage::new(MemStorage::new());
        let counts = s.counts();
        s.append("wal", b"abc").unwrap();
        s.sync("wal").unwrap();
        s.append("wal", b"defg").unwrap();
        s.write_atomic("snap", b"0123456789").unwrap();
        {
            let c = counts.lock().unwrap();
            assert_eq!((c.appends, c.append_bytes, c.syncs), (2, 7, 1));
            assert_eq!((c.atomic_writes, c.atomic_bytes), (1, 10));
            assert_eq!(c.stored_bytes(), 17);
            assert_eq!(c.sync_ns.len(), 1);
            assert!(c.events.is_empty(), "untraced probes record no events");
        }
        let (inner, discarded) = s.crash().unwrap();
        assert_eq!(discarded, 4);
        assert_eq!(inner.blob("wal"), Some(&b"abc"[..]));
        assert_eq!(inner.blob("snap"), Some(&b"0123456789"[..]));
    }

    #[test]
    fn truncate_and_atomic_replace_reset_the_synced_length() {
        let mut s = CountingStorage::new(MemStorage::new());
        let counts = s.counts();
        s.append("wal", b"abcdef").unwrap();
        s.truncate("wal", 2).unwrap(); // durable: "ab" survives
        s.truncate("wal", 100).unwrap(); // no-op: nothing shortened
        s.append("wal", b"xy").unwrap();
        s.write_atomic("snap", b"M").unwrap();
        s.append("snap", b"N").unwrap();
        assert_eq!(counts.lock().unwrap().stored_bytes(), 6);
        let (inner, discarded) = s.crash().unwrap();
        assert_eq!(discarded, 3);
        assert_eq!(inner.blob("wal"), Some(&b"ab"[..]));
        assert_eq!(inner.blob("snap"), Some(&b"M"[..]));
    }

    #[test]
    fn traced_probes_record_intervals() {
        let mut s = CountingStorage::traced(MemStorage::new(), Instant::now());
        s.append("wal", b"a").unwrap();
        s.sync("wal").unwrap();
        let counts = s.counts();
        let c = counts.lock().unwrap();
        let names: Vec<_> = c.events.iter().map(|e| e.0).collect();
        assert_eq!(names, ["backend.append", "backend.sync"]);
        assert!(c.events.iter().all(|&(_, lo, hi)| lo <= hi));
    }
}
