//! Group commit: deferring delta-log fsyncs so one `fsync` covers many
//! acknowledged batches.
//!
//! [`GroupCommitVfs`] wraps one tenant's [`Vfs`] and intercepts exactly
//! one operation: `fsync` of that store's **delta log** (`engine.delta`).
//! It counts the fsync as deferred instead, and the count is the writer's
//! **ticket**. The server's committer calls [`GroupCommitVfs::flush`] once
//! per commit interval: one real fsync makes every ticket so far
//! **durable**. A write whose run took a ticket is acked only once it is
//! ([`GroupCommitVfs::wait`]), so an acked batch survives a power cut.
//!
//! # Why deferring *only* the delta fsync is crash-safe
//!
//! The engine's write path orders durability deliberately: spilled shard
//! files are written **and fsynced** before the delta record that
//! references them is appended, and base-manifest rewrites use the full
//! write → fsync → rename → sync_dir protocol. Both of those flow through
//! this wrapper untouched. The delta log itself is a checksummed
//! record-framed append log whose reader accepts every valid prefix and
//! discards a torn or lost tail — so a crash between an append and the
//! deferred fsync loses only *unacknowledged* batches, which is exactly
//! the promise group commit makes.
//!
//! A failed flush is **sticky**: a later fsync that succeeds proves
//! nothing about the pages the failed one dropped (fsync result amnesia),
//! so every ticket not yet durable fails, and so does every later flush,
//! until the tenant's base is rewritten through the untouched synchronous
//! path and [`GroupCommitVfs::rebased`] clears it. For the same reason
//! flushes run one at a time.

use logr::cluster::vfs::{retry_io, Vfs};
use logr::manifest::DELTA_FILE_NAME;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A [`Vfs`] wrapper that owns one tenant's commit state and defers its
/// store's [`DELTA_FILE_NAME`] fsyncs into batched flushes. Everything
/// else passes straight through, preserving the store's
/// write→fsync→rename→sync_dir protocols byte for byte.
#[derive(Debug)]
pub struct GroupCommitVfs {
    inner: Arc<dyn Vfs>,
    /// The one file whose fsyncs defer.
    delta: PathBuf,
    state: Mutex<Tickets>,
    /// Signalled whenever a flush ends.
    changed: Condvar,
}

/// One tenant's commit state. Nothing that holds its lock can panic
/// halfway through an update, so a poisoned lock is still read.
#[derive(Debug, Default)]
struct Tickets {
    /// Delta fsyncs deferred so far — the newest writer's ticket.
    deferred: u64,
    /// The newest ticket a successful flush (or a rebase) made durable.
    durable: u64,
    /// The failed flush's kind and message, kept until a rebase.
    failed: Option<(io::ErrorKind, String)>,
    /// A flush's fsync is in flight.
    flushing: bool,
    /// [`GroupCommitVfs::close`] ran: delta fsyncs no longer defer.
    closed: bool,
}

impl GroupCommitVfs {
    /// Wraps `inner` for the store in `dir`, deferring the fsyncs of its
    /// delta log.
    pub fn new(inner: Arc<dyn Vfs>, dir: &Path) -> GroupCommitVfs {
        GroupCommitVfs {
            inner,
            delta: dir.join(DELTA_FILE_NAME),
            state: Mutex::new(Tickets::default()),
            changed: Condvar::new(),
        }
    }

    /// The newest ticket: delta fsyncs deferred so far. A write whose run
    /// advanced it appended to the log.
    pub fn ticket(&self) -> u64 {
        self.state().deferred
    }

    /// True from a failed flush until [`GroupCommitVfs::rebased`].
    pub fn needs_rebase(&self) -> bool {
        self.state().failed.is_some()
    }

    /// Makes every ticket issued so far durable with one real fsync, then
    /// wakes the writers waiting for them. A no-op when nothing is owed;
    /// after a failed flush, the failure again (see the module docs).
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self
            .changed
            .wait_while(self.state(), |s| s.flushing)
            .unwrap_or_else(PoisonError::into_inner);
        if state.durable >= state.deferred {
            return Ok(());
        }
        if let Some((kind, message)) = &state.failed {
            return Err(io::Error::new(*kind, message.clone()));
        }
        let target = state.deferred;
        state.flushing = true;
        drop(state);
        let synced = retry_io(|| self.inner.fsync(&self.delta));
        let mut state = self.state();
        state.flushing = false;
        match &synced {
            Ok(()) => state.durable = state.durable.max(target),
            Err(e) => state.failed = Some((e.kind(), e.to_string())),
        }
        self.changed.notify_all();
        synced
    }

    /// Blocks until `ticket` is durable (`Ok`), until a flush fails
    /// before making it so (that failure), or for at most `timeout`
    /// (`TimedOut`).
    pub fn wait(&self, ticket: u64, timeout: Duration) -> io::Result<()> {
        let (state, _) = self
            .changed
            .wait_timeout_while(self.state(), timeout, |s| s.durable < ticket && s.failed.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        if state.durable >= ticket {
            return Ok(());
        }
        Err(match &state.failed {
            Some((kind, message)) => io::Error::new(*kind, message.clone()),
            None => io::Error::new(io::ErrorKind::TimedOut, "write ack timed out"),
        })
    }

    /// Clears a failed flush once the tenant's base has been rewritten
    /// through the synchronous path, which made every ticket so far
    /// durable. Call under the tenant's write gate, after that rewrite.
    pub fn rebased(&self) {
        let mut state = self.state();
        state.failed = None;
        state.durable = state.deferred;
    }

    /// Flushes, then stops deferring: for a tenant leaving the server,
    /// which no committer tick visits again, a write still in flight
    /// fsyncs its delta record synchronously instead of waiting forever.
    pub fn close(&self) -> io::Result<()> {
        self.state().closed = true;
        self.flush()
    }

    fn state(&self) -> MutexGuard<'_, Tickets> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Vfs for GroupCommitVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // The caller (the engine's delta append path) pairs this append
        // with an fsync through this same wrapper, which is where the
        // deferral decision lives.
        // lint:allow(sync-protocol): pure passthrough; the commit protocol runs in the caller
        self.inner.append(path, bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        if path == self.delta {
            let mut state = self.state();
            if !state.closed {
                state.deferred += 1;
                return Ok(());
            }
        }
        self.inner.fsync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // The engine's base rewrite protocol already orders this rename
        // between fsync and sync_dir, both of which pass through
        // unmodified (base files never defer — see `fsync`).
        // lint:allow(sync-protocol): pure passthrough; the rewrite protocol runs in the caller
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.create_exclusive(path, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr::cluster::vfs::{FaultFs, IoOp, OpKind};

    fn fsync_count(fs: &FaultFs, needle: &str) -> usize {
        fs.trace()
            .iter()
            .filter(
                |op| matches!(op, IoOp::Fsync { path } if path.to_string_lossy().contains(needle)),
            )
            .count()
    }

    /// A `FaultFs` with the store directory `/t`, and a wrapper over it.
    fn store() -> (Arc<FaultFs>, GroupCommitVfs, PathBuf) {
        let fs = Arc::new(FaultFs::new());
        fs.create_dir_all(Path::new("/t")).unwrap();
        let gc = GroupCommitVfs::new(fs.clone() as Arc<dyn Vfs>, Path::new("/t"));
        (fs, gc, Path::new("/t").join(DELTA_FILE_NAME))
    }

    /// One delta record, as the engine writes it: append, then fsync.
    fn log(gc: &GroupCommitVfs, delta: &Path) {
        gc.append(delta, b"rec").unwrap();
        gc.fsync(delta).unwrap();
    }

    #[test]
    fn delta_fsyncs_defer_until_flush_and_coalesce() {
        let (fs, gc, delta) = store();
        for _ in 0..5 {
            log(&gc, &delta);
        }
        assert_eq!(fsync_count(&fs, "engine.delta"), 0, "deferred");
        assert_eq!(gc.ticket(), 5, "one ticket per deferred fsync");
        let pending = gc.wait(5, Duration::ZERO).unwrap_err();
        assert_eq!(pending.kind(), io::ErrorKind::TimedOut, "not durable before a flush");

        gc.flush().unwrap();
        assert_eq!(fsync_count(&fs, "engine.delta"), 1, "one covering fsync");
        gc.wait(5, Duration::ZERO).unwrap();
        gc.flush().unwrap();
        assert_eq!(fsync_count(&fs, "engine.delta"), 1, "nothing owed, nothing synced");
    }

    #[test]
    fn non_delta_fsyncs_pass_through_synchronously() {
        let (fs, gc, _) = store();
        let shard = Path::new("/t/shard-00000-1-00000001.bin");
        gc.write(shard, b"points").unwrap();
        gc.fsync(shard).unwrap();
        assert_eq!(fsync_count(&fs, "shard-"), 1);
        // Another store's delta log is not this wrapper's to defer.
        fs.create_dir_all(Path::new("/u")).unwrap();
        log(&gc, &Path::new("/u").join(DELTA_FILE_NAME));
        assert_eq!(fsync_count(&fs, "/u/engine.delta"), 1);
        assert_eq!(gc.ticket(), 0);
    }

    #[test]
    fn failed_flush_fails_every_ticket_until_rebased() {
        let (fs, gc, delta) = store();
        log(&gc, &delta);
        fs.inject(OpKind::Fsync, "engine.delta", io::ErrorKind::StorageFull, 1);
        assert_eq!(gc.flush().unwrap_err().kind(), io::ErrorKind::StorageFull);
        assert!(gc.needs_rebase());
        assert_eq!(gc.wait(1, Duration::ZERO).unwrap_err().kind(), io::ErrorKind::StorageFull);

        // A later ticket fails too, and a later flush reports the failure
        // without syncing: a success now would vouch for lost pages.
        log(&gc, &delta);
        assert_eq!(gc.flush().unwrap_err().kind(), io::ErrorKind::StorageFull);
        assert_eq!(gc.wait(2, Duration::ZERO).unwrap_err().kind(), io::ErrorKind::StorageFull);
        assert_eq!(fsync_count(&fs, "engine.delta"), 0);

        // The rebase's base holds both closes; the next ticket flushes.
        gc.rebased();
        assert!(!gc.needs_rebase());
        gc.wait(2, Duration::ZERO).unwrap();
        log(&gc, &delta);
        gc.flush().unwrap();
        gc.wait(3, Duration::ZERO).unwrap();
        assert_eq!(fsync_count(&fs, "engine.delta"), 1);
    }

    #[test]
    fn close_flushes_then_stops_deferring() {
        let (fs, gc, delta) = store();
        log(&gc, &delta);
        gc.close().unwrap();
        assert_eq!(fsync_count(&fs, "engine.delta"), 1, "the owed fsync is paid");
        log(&gc, &delta);
        assert_eq!(fsync_count(&fs, "engine.delta"), 2, "a late record syncs at once");
        assert_eq!(gc.ticket(), 1, "and takes no ticket");
    }
}
