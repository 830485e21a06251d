//! Pluggable storage backends: the [`Storage`] trait plus the two stock
//! implementations — [`MemStorage`] (tests, benches, fault injection) and
//! [`FileStorage`] (a directory of files, with real fsync).
//!
//! The trait speaks **named blobs** with exactly the operations the
//! durability layer needs: whole-blob atomic replace (snapshots), append +
//! explicit sync (the WAL), and truncate (dropping a torn WAL tail). Byte
//! durability is the backend's job; *when* to demand it (the fsync points)
//! is the [`DurableEngine`](crate::DurableEngine)'s — see the fsync
//! discipline notes in `docs/ARCHITECTURE.md`.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A named-blob storage backend.
///
/// Implementations must make [`write_atomic`](Storage::write_atomic)
/// all-or-nothing *on durable media* (readers after a crash see either the
/// old or the new bytes, never a mix) and [`sync`](Storage::sync) a real
/// durability barrier: when it returns `Ok`, previously appended bytes
/// survive a crash. [`MemStorage`] trivially satisfies both (memory has no
/// crash model of its own — the fault-injection wrapper adds one).
pub trait Storage {
    /// The blob's bytes, or `None` if it was never written.
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>>;

    /// Atomically replaces the blob with `bytes`, durably.
    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to the blob (creating it empty first if missing).
    /// Not required to be durable until [`sync`](Storage::sync) returns.
    /// A backend may preallocate: after a crash the blob can end in zero
    /// bytes past its last append ([`FileStorage`] does; the WAL scan
    /// reads them as the end of the log).
    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()>;

    /// Durability barrier for the blob's appended bytes.
    fn sync(&mut self, blob: &str) -> io::Result<()>;

    /// Truncates the blob to `len` bytes, durably. A no-op if the blob is
    /// already at most `len` bytes (or missing and `len == 0`).
    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()>;

    /// The blob's current length in bytes, or `None` if missing.
    fn len(&self, blob: &str) -> io::Result<Option<u64>>;
}

/// In-memory [`Storage`]: a map of named byte vectors. `Clone` is cheap
/// enough to model "the disk at this instant" — tests clone the storage,
/// corrupt the clone, and recover from it while the original drives on.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    blobs: HashMap<String, Vec<u8>>,
    syncs: u64,
}

impl MemStorage {
    /// An empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct read access to a blob's bytes (test introspection).
    pub fn blob(&self, name: &str) -> Option<&[u8]> {
        self.blobs.get(name).map(Vec::as_slice)
    }

    /// Replaces a blob's bytes wholesale (test corruption injection).
    pub fn set_blob(&mut self, name: &str, bytes: Vec<u8>) {
        self.blobs.insert(name.to_owned(), bytes);
    }

    /// Removes a blob entirely (test setup).
    pub fn remove_blob(&mut self, name: &str) {
        self.blobs.remove(name);
    }

    /// How many [`sync`](Storage::sync) barriers were requested — the
    /// hook for asserting the fsync discipline (e.g. one per append).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl Storage for MemStorage {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.blobs.get(blob).cloned())
    }

    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.blobs.insert(blob.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.blobs
            .entry(blob.to_owned())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, _blob: &str) -> io::Result<()> {
        self.syncs += 1;
        Ok(())
    }

    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        if let Some(bytes) = self.blobs.get_mut(blob) {
            bytes.truncate(len as usize);
        }
        Ok(())
    }

    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        Ok(self.blobs.get(blob).map(|b| b.len() as u64))
    }
}

/// The first extent [`FileStorage`] zero-fills past an appended blob's
/// end; each later one is as long as the file was before it, so the file
/// doubles.
const EXTENT: u64 = 64 * 1024;

/// File-backed [`Storage`]: each blob is a file inside one directory.
///
/// * [`write_atomic`](Storage::write_atomic) writes a temporary sibling,
///   fsyncs it, renames it over the blob, then fsyncs the directory — the
///   classic crash-safe replace.
/// * [`append`](Storage::append) writes at the blob's logical end through
///   one handle the backend keeps open, into space it has already
///   zero-filled and made durable. An append that runs past that space
///   is followed by real zeros for the next extent (64 KiB, then as long
///   as the file was) and a `sync_all`, plus a directory sync when the
///   file was empty (the append may have created it).
///   [`sync`](Storage::sync) on that blob is then `fdatasync`: it changes
///   no inode size, so the barrier commits no metadata.
/// * While the handle is open, [`read`](Storage::read) and
///   [`len`](Storage::len) report the logical bytes.
///   [`truncate`](Storage::truncate), [`write_atomic`](Storage::write_atomic)
///   and `Drop` close it, trimming the file to its logical length, so a
///   clean shutdown leaves exactly the appended bytes. After a crash the
///   file may end in zero bytes past its last append; the WAL scan reads
///   them as the end of the log.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// The blob being appended, if any.
    tail: Option<Tail>,
}

/// The open handle on the blob being appended.
#[derive(Debug)]
struct Tail {
    blob: String,
    file: fs::File,
    /// Bytes appended: the blob's logical length.
    len: u64,
    /// The file's length: zero-filled and durable past `len`.
    allocated: u64,
    /// The next extent also syncs the directory: the file was empty when
    /// opened, so it may have just been created and its name not be
    /// durable yet.
    sync_dir: bool,
}

impl Tail {
    fn open(dir: &Path, blob: &str) -> io::Result<Tail> {
        let file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(blob))?;
        let len = file.metadata()?.len();
        Ok(Tail {
            blob: blob.to_owned(),
            file,
            len,
            allocated: len,
            sync_dir: len == 0,
        })
    }

    fn append(&mut self, dir: &Path, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        if self.len > self.allocated {
            self.extend(dir)?;
        }
        Ok(())
    }

    /// The append just written ran past the allocated space: zero-fills
    /// the next extent after it and makes both durable. Real zeros, not
    /// `set_len`: a sparse hole would make the next `fdatasync` allocate
    /// blocks after all.
    fn extend(&mut self, dir: &Path) -> io::Result<()> {
        let extent = self.allocated.max(EXTENT);
        io::copy(&mut io::repeat(0).take(extent), &mut self.file)?;
        self.file.sync_all()?;
        if self.sync_dir {
            sync_dir(dir)?;
            self.sync_dir = false;
        }
        self.allocated = self.len + extent;
        Ok(())
    }

    /// Closes the handle, trimming the zero-filled space past `len`.
    fn close(self) -> io::Result<()> {
        self.file.set_len(self.len)
    }
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes a rename or a creation durable. Some platforms
    // refuse to open directories; degrade gracefully there (Linux — the
    // deployment target — accepts it).
    match fs::File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

impl FileStorage {
    /// Opens (creating if needed) the backing directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<FileStorage> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FileStorage { dir, tail: None })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, blob: &str) -> PathBuf {
        self.dir.join(blob)
    }

    /// The open handle, if it is `blob`'s.
    fn tail_of(&self, blob: &str) -> Option<&Tail> {
        self.tail.as_ref().filter(|t| t.blob == blob)
    }

    /// Closes the open handle if it is `blob`'s.
    fn close(&mut self, blob: &str) -> io::Result<()> {
        match self.tail.take() {
            Some(t) if t.blob == blob => t.close(),
            other => {
                self.tail = other;
                Ok(())
            }
        }
    }
}

impl Drop for FileStorage {
    fn drop(&mut self) {
        if let Some(t) = self.tail.take() {
            // Nothing to report to: a file left untrimmed ends in zeros,
            // which recovery drops.
            let _ = t.close();
        }
    }
}

impl Storage for FileStorage {
    fn read(&self, blob: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.path(blob)) {
            Ok(mut bytes) => {
                if let Some(t) = self.tail_of(blob) {
                    bytes.truncate(t.len as usize);
                }
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_atomic(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        self.close(blob)?;
        let tmp = self.path(&format!(".{blob}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.path(blob))?;
        sync_dir(&self.dir)
    }

    fn append(&mut self, blob: &str, bytes: &[u8]) -> io::Result<()> {
        let tail = match self.tail.take() {
            Some(t) if t.blob == blob => t,
            other => {
                if let Some(t) = other {
                    t.close()?;
                }
                Tail::open(&self.dir, blob)?
            }
        };
        self.tail.insert(tail).append(&self.dir, bytes)
    }

    fn sync(&mut self, blob: &str) -> io::Result<()> {
        match self.tail_of(blob) {
            Some(t) => t.file.sync_data(),
            None => fs::File::open(self.path(blob))?.sync_all(),
        }
    }

    fn truncate(&mut self, blob: &str, len: u64) -> io::Result<()> {
        self.close(blob)?;
        let path = self.path(blob);
        match fs::OpenOptions::new().write(true).open(&path) {
            Ok(f) => {
                if f.metadata()?.len() > len {
                    f.set_len(len)?;
                    f.sync_all()?;
                }
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound && len == 0 => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn len(&self, blob: &str) -> io::Result<Option<u64>> {
        if let Some(t) = self.tail_of(blob) {
            return Ok(Some(t.len));
        }
        match fs::metadata(self.path(blob)) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_blob_semantics() {
        let mut s = MemStorage::new();
        assert_eq!(s.read("wal").unwrap(), None);
        assert_eq!(s.len("wal").unwrap(), None);
        s.append("wal", b"abc").unwrap();
        s.append("wal", b"def").unwrap();
        assert_eq!(s.read("wal").unwrap().as_deref(), Some(&b"abcdef"[..]));
        assert_eq!(s.len("wal").unwrap(), Some(6));
        s.truncate("wal", 4).unwrap();
        assert_eq!(s.read("wal").unwrap().as_deref(), Some(&b"abcd"[..]));
        s.write_atomic("wal", b"xy").unwrap();
        assert_eq!(s.read("wal").unwrap().as_deref(), Some(&b"xy"[..]));
        s.sync("wal").unwrap();
        assert_eq!(s.syncs(), 1);
        // Truncating past the end or a missing blob is a no-op.
        s.truncate("wal", 100).unwrap();
        assert_eq!(s.len("wal").unwrap(), Some(2));
        s.truncate("nope", 0).unwrap();
    }
}
