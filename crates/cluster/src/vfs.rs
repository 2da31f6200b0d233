//! Injectable storage layer: every file the spill store, the engine
//! manifest, and the engine lock touch goes through the [`Vfs`] trait.
//!
//! Production code runs on [`RealFs`], a thin passthrough to `std::fs`.
//! The store's crash tests run on the dev-only `logr-testkit` crate's
//! `FaultFs`, an in-memory implementation that records every mutating op,
//! injects failures, and materializes what a power cut at any point in a
//! run leaves on disk. Besides the trait, this module holds the write
//! protocol every store file shares: the transient-fault retry policy
//! ([`retry_io`]) and the atomic, durable replace ([`replace_durably`]).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Whole-file storage operations, at exactly the granularity the store
/// uses them (`std::fs::write`-style full replacement, never seeks).
/// Implementations must be shareable across threads — snapshots reload
/// spilled shards from reader threads while the writer appends.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Read a file's entire contents.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create-or-truncate `path` and write `bytes`. **No durability** is
    /// implied — pair with [`Vfs::fsync`] (and, for the name itself,
    /// [`Vfs::sync_dir`]).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append `bytes` to `path`, creating it if missing. **No
    /// durability** is implied — pair with [`Vfs::fsync`]. The one
    /// sequential-growth primitive the delta log needs; everything else
    /// in the store remains whole-file replacement.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flush a file's content to stable storage (`fsync`).
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Direct children of `dir` that are files.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Create `dir` and any missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Flush `dir`'s entries to stable storage — what makes renames,
    /// removals, and creations in it survive a power cut.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Does `path` name an existing file or directory?
    fn exists(&self, path: &Path) -> bool;
    /// Create `path` **exclusively** (`O_CREAT | O_EXCL`) with `bytes` as
    /// content; [`io::ErrorKind::AlreadyExists`] when it exists. The
    /// primitive cross-process lock acquisition is built on — unlike
    /// read-then-write, two racing creators cannot both succeed.
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
}

/// The default [`Vfs`]: a passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).create(true).open(path)?;
        f.write_all(bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        // Opening read-only is enough to fsync on every Unix; the handle
        // is fresh, but fsync flushes the *inode*, not the descriptor's
        // private view, so this is equivalent to syncing the write handle.
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_file() {
                out.push(path);
            }
        }
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is POSIX-only plumbing; where a directory
        // cannot be opened the rename is still atomic, just not yet
        // durable — degrade silently rather than fail the write path.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_all(bytes)
    }
}

/// The process-wide default [`Vfs`] handle ([`RealFs`]).
pub fn default_vfs() -> Arc<dyn Vfs> {
    Arc::new(RealFs)
}

// ---- transient-fault policy -------------------------------------------

/// Attempts [`retry_io`] makes before giving up on a transient error.
pub const IO_RETRY_ATTEMPTS: usize = 6;

/// Is this error worth retrying? `EINTR` (a signal landed mid-syscall)
/// and `EAGAIN`/`EWOULDBLOCK` (a transiently saturated resource) are the
/// classic transients; everything else — `ENOSPC` included — reflects a
/// state retrying cannot fix and must surface immediately as a typed
/// error.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock)
}

/// Run `op`, retrying transient failures ([`is_transient`]) up to
/// [`IO_RETRY_ATTEMPTS`] times with doubling backoff (100 µs start, 5 ms
/// cap — a few milliseconds worst case, never an unbounded stall on the
/// write path). The last error is returned unchanged, so callers still
/// see the real [`io::ErrorKind`] for classification.
pub fn retry_io<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay = Duration::from_micros(100);
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if attempt + 1 < IO_RETRY_ATTEMPTS && is_transient(&e) => {
                attempt += 1;
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(5));
            }
            other => return other,
        }
    }
}

/// The staging file [`replace_durably`] writes before renaming it over
/// `path` — what a crash mid-replace can leave behind, and therefore what
/// a store's garbage collection looks for.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// Atomically and durably replace `path` with `bytes`, the one protocol
/// every replaced store file (shard files, the engine manifest) is
/// written by: write the [`tmp_sibling`], **fsync it**, rename it over
/// `path`, then fsync the parent directory. The fsync before the rename
/// is what makes this crash-safe — without it a journaling filesystem may
/// commit the rename before the data, leaving a durable name over
/// unwritten pages (a zero-length or torn file) after power loss; the
/// directory sync persists the rename itself (see [`Vfs::sync_dir`] for
/// the non-POSIX degradation). A crash at any point leaves either the
/// previous content or the new one. Each step rides out transient errors
/// through [`retry_io`]; any other failure — `ENOSPC` included — aborts
/// with the staging file swept, so no partial file is orphaned and the
/// previous `path` is untouched.
pub fn replace_durably(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let staged = (|| {
        retry_io(|| vfs.write(&tmp, bytes))?;
        retry_io(|| vfs.fsync(&tmp))?;
        retry_io(|| vfs.rename(&tmp, path))?;
        if let Some(dir) = path.parent() {
            retry_io(|| vfs.sync_dir(dir))?;
        }
        Ok(())
    })();
    if staged.is_err() {
        let _: io::Result<()> = vfs.remove(&tmp);
    }
    staged
}
