//! Test support shared by this crate's suites and, through `#[path]`, by
//! the service's: a backend that fails on demand while the engine that
//! owns it keeps running.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use uprov_storage::{MemStorage, Storage};

/// A backend whose next `append` fails after writing a garbage prefix —
/// the transient-IO-failure shape (full disk, EINTR-ish) as opposed to
/// [`uprov_storage::FaultStorage`]'s process-death model.
#[derive(Default)]
pub struct FlakyStorage {
    pub inner: MemStorage,
    fail_next_append: Arc<AtomicBool>,
}

impl FlakyStorage {
    /// The arming switch: store `true` and the next `append` fails (and
    /// disarms itself). A handle, because `DurableEngine` — let alone a
    /// running service — hands out no `&mut` to its storage.
    pub fn trigger(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fail_next_append)
    }
}

impl Storage for FlakyStorage {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(blob)
    }
    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
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
        self.inner.sync(blob)
    }
    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(blob, len)
    }
    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        self.inner.len(blob)
    }
}
