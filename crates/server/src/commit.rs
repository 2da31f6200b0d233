//! Group commit: one tenant's write gate, deferred delta-log fsyncs and
//! the ack protocol over them (the crate docs' "Commit/ack semantics").
//! Its rules are pure transitions on `Tickets`, model-checked in the test
//! module; each [`GroupCommitVfs`] method locks, calls one, and waits or
//! wakes as it says.
//!
//! Deferring *only* the delta fsync is crash-safe: shard files are
//! fsynced before the delta record naming them is appended, and base
//! rewrites run write → fsync → rename → sync_dir untouched. The delta
//! log's reader accepts every valid prefix, so a crash before a deferred
//! fsync loses only unacknowledged batches. A failed flush is **sticky**
//! — a later success proves nothing about the pages it dropped (fsync
//! result amnesia) — until the next gated write rebases the tenant; for
//! the same reason flushes run one at a time.

use logr::cluster::vfs::{retry_io, Vfs};
use logr::manifest::DELTA_FILE_NAME;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A [`Vfs`] wrapper that owns one tenant's write gate and commit state
/// and defers its [`DELTA_FILE_NAME`] fsyncs; all else passes through.
#[derive(Debug)]
pub struct GroupCommitVfs {
    inner: Arc<dyn Vfs>,
    /// The one file whose fsyncs defer.
    delta: PathBuf,
    /// Held from a write's rebase check to its ticket read: no write
    /// appends to a delta log whose durable prefix is unknown, a ticket
    /// that advanced during a run is that run's own, and one tenant's
    /// writes apply in gate order. Released before the ack wait.
    gate: Mutex<()>,
    state: Mutex<Tickets>,
    /// Signalled whenever a transition says waiters must wake.
    changed: Condvar,
}

/// One tenant's commit state. Transitions cannot panic halfway, so a
/// poisoned lock is still read. Defer, rebase and close wake no one: they
/// decide no pending ticket (under a failure all are decided).
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
struct Tickets {
    /// Delta fsyncs deferred so far — the newest writer's ticket.
    deferred: u64,
    /// The newest ticket a successful flush (or a rebase) made durable.
    durable: u64,
    /// The failed flush's kind and message, kept until a rebase.
    failed: Option<(io::ErrorKind, String)>,
    /// The ticket the in-flight flush's fsync will make durable.
    in_flight: Option<u64>,
    /// [`GroupCommitVfs::close`] ran: delta fsyncs no longer defer.
    closed: bool,
}

impl Tickets {
    /// A delta fsync takes the next ticket (true) unless closed.
    fn defer(&mut self) -> bool {
        if !self.closed {
            self.deferred += 1;
        }
        !self.closed
    }

    /// The ticket a gated run took, given `deferred` at its start.
    fn ticket_since(&self, mark: u64) -> Option<u64> {
        (self.deferred > mark).then_some(self.deferred)
    }

    /// A flush must wait for the one in flight before it begins.
    fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Begins a flush: `None` when the caller must fsync, then end it;
    /// else the newest ticket's decided ack (nothing owed, or a failure).
    fn begin_flush(&mut self) -> Option<io::Result<()>> {
        let decided = self.ack(self.deferred);
        if decided.is_none() {
            self.in_flight = Some(self.deferred);
        }
        decided
    }

    /// Records the fsync's result; wake waiters (always: a flush ended).
    fn end_flush(&mut self, synced: &io::Result<()>) -> bool {
        let target = self.in_flight.take().unwrap_or(0);
        match synced {
            Ok(()) => self.durable = self.durable.max(target),
            Err(e) => self.failed = Some((e.kind(), e.to_string())),
        }
        true
    }

    /// The ack for `ticket`; `None` while it is undecided.
    fn ack(&self, ticket: u64) -> Option<io::Result<()>> {
        if self.durable >= ticket {
            return Some(Ok(()));
        }
        let (kind, message) = self.failed.as_ref()?;
        Some(Err(io::Error::new(*kind, message.clone())))
    }

    /// The base was rewritten: every ticket so far is durable.
    fn rebase(&mut self) {
        self.failed = None;
        self.durable = self.deferred;
    }

    fn close(&mut self) {
        self.closed = true;
    }
}

impl GroupCommitVfs {
    /// Wraps `inner` for the store in `dir`.
    pub fn new(inner: Arc<dyn Vfs>, dir: &Path) -> GroupCommitVfs {
        GroupCommitVfs {
            inner,
            delta: dir.join(DELTA_FILE_NAME),
            gate: Mutex::new(()),
            state: Mutex::new(Tickets::default()),
            changed: Condvar::new(),
        }
    }

    /// Runs `write` under the write gate and returns its result with the
    /// ticket to [`GroupCommitVfs::wait`] for (`None` when it deferred no
    /// fsync). After a failed flush, `rebase` (the engine's checkpoint)
    /// runs first, and its error is this call's.
    pub fn run_gated<T, E: From<logr::Error>>(
        &self,
        rebase: impl FnOnce() -> Result<(), E>,
        write: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, Option<u64>), E> {
        let _gate = self.gate.lock().map_err(|_| logr::Error::Poisoned)?;
        if self.needs_rebase() {
            rebase()?;
            self.state().rebase();
        }
        let mark = self.state().deferred;
        let value = write()?;
        Ok((value, self.state().ticket_since(mark)))
    }

    /// True from a failed flush until the next gated write rebases.
    pub fn needs_rebase(&self) -> bool {
        self.state().failed.is_some()
    }

    /// Makes every ticket issued so far durable with one real fsync, then
    /// wakes the writers waiting for them. A no-op when nothing is owed;
    /// after a failed flush, the failure again (see the module docs).
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self
            .changed
            .wait_while(self.state(), |s| s.busy())
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(result) = state.begin_flush() {
            return result;
        }
        drop(state);
        let synced = retry_io(|| self.inner.fsync(&self.delta));
        if self.state().end_flush(&synced) {
            self.changed.notify_all();
        }
        synced
    }

    /// Blocks until `ticket` is durable (`Ok`), a flush fails before making
    /// it so (that failure), or `timeout` passes (`TimedOut`).
    pub fn wait(&self, ticket: u64, timeout: Duration) -> io::Result<()> {
        let (state, _) = self
            .changed
            .wait_timeout_while(self.state(), timeout, |s| s.ack(ticket).is_none())
            .unwrap_or_else(PoisonError::into_inner);
        let timed_out = || Err(io::Error::new(io::ErrorKind::TimedOut, "write ack timed out"));
        state.ack(ticket).unwrap_or_else(timed_out)
    }

    /// Flushes, then stops deferring: for a tenant leaving the server,
    /// which no committer tick visits again, a write still in flight
    /// fsyncs its delta record synchronously instead of waiting forever.
    pub fn close(&self) -> io::Result<()> {
        self.state().close();
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
        // lint:allow(sync-protocol): pure passthrough; the commit protocol runs in the caller
        self.inner.append(path, bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        if path == self.delta && self.state().defer() {
            return Ok(());
        }
        self.inner.fsync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
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
    use logr_testkit::vfs::{FaultFs, IoOp, OpKind};
    use std::collections::HashSet;

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

    /// One gated write of `records` delta records to `delta`, which must
    /// not need a rebase; the ticket it took.
    fn gated(gc: &GroupCommitVfs, delta: &Path, records: usize) -> Option<u64> {
        let no_rebase = || -> Result<(), logr::Error> { panic!("no flush failed, so no rebase") };
        let write = || {
            (0..records).for_each(|_| log(gc, delta));
            Ok(())
        };
        gc.run_gated(no_rebase, write).unwrap().1
    }

    #[test]
    fn delta_fsyncs_defer_until_flush_and_coalesce() {
        let (fs, gc, delta) = store();
        assert_eq!(gated(&gc, &delta, 5), Some(5), "one ticket per deferred fsync");
        assert_eq!(fsync_count(&fs, "engine.delta"), 0, "deferred");
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
        assert_eq!(gated(&gc, &Path::new("/u").join(DELTA_FILE_NAME), 1), None);
        assert_eq!(fsync_count(&fs, "/u/engine.delta"), 1);
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

        // The next gated write rebases first; the rebase's base holds both
        // closes, and the write's own ticket flushes.
        let mut rebased = false;
        let rebase = || -> Result<(), logr::Error> {
            rebased = true;
            Ok(())
        };
        let (needed, ticket) = gc.run_gated(rebase, || Ok(gc.needs_rebase())).unwrap();
        assert!(rebased && !needed, "the rebase ran before the write");
        assert_eq!(ticket, None);
        assert!(!gc.needs_rebase());
        gc.wait(2, Duration::ZERO).unwrap();
        assert_eq!(gated(&gc, &delta, 1), Some(3));
        gc.flush().unwrap();
        gc.wait(3, Duration::ZERO).unwrap();
        assert_eq!(fsync_count(&fs, "engine.delta"), 1);
    }

    #[test]
    fn a_failed_rebase_fails_the_write_and_keeps_the_failure() {
        let (fs, gc, delta) = store();
        log(&gc, &delta);
        fs.inject(OpKind::Fsync, "engine.delta", io::ErrorKind::Other, 1);
        gc.flush().unwrap_err();
        let rebase = || Err(logr::Error::Poisoned);
        let ran = gc.run_gated(rebase, || -> Result<(), logr::Error> { panic!("must not run") });
        assert!(matches!(ran, Err(logr::Error::Poisoned)));
        assert!(gc.needs_rebase(), "still owed a rebase");
    }

    #[test]
    fn close_flushes_then_stops_deferring() {
        let (fs, gc, delta) = store();
        log(&gc, &delta);
        gc.close().unwrap();
        assert_eq!(fsync_count(&fs, "engine.delta"), 1, "the owed fsync is paid");
        assert_eq!(gated(&gc, &delta, 1), None, "a late record takes no ticket");
        assert_eq!(fsync_count(&fs, "engine.delta"), 2, "and syncs at once");
    }

    // ---- the interleaving check ------------------------------------------
    //
    // A model of one tenant: `Tickets` driven through its own transitions
    // by writers, the committer and a close, plus the write gate, the
    // condvar (sleepers wake only when a transition says so) and ghost
    // state for what is really on disk. A DFS visits every reachable
    // state, so every interleaving of the actors' lock-sized steps.

    /// A writer: takes the gate, rebases after a failed flush, runs with
    /// or without a deferred fsync, releases the gate and waits.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Writer {
        Idle,
        /// Holds the gate; next, the rebase check.
        Gated,
        /// Holds the gate after a failed flush; next, the rebase.
        Rebasing,
        /// Holds the gate with `deferred` as it was before the run.
        Running(u64),
        /// Awake, about to decide the ack of its ticket.
        Waiting(u64),
        /// On the condvar, for its ticket.
        Asleep(u64),
        Done,
    }

    /// The committer (between ticks while `Idle`) or the close (not yet
    /// begun while `Idle`): one `flush` call.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Flusher {
        Idle,
        /// Awake, about to wait out a busy flush or begin one.
        Calling,
        /// On the condvar, behind another flush.
        Asleep,
        /// Its fsync, covering this ticket, is in flight.
        Syncing(u64),
        /// The close's flush returned.
        Done,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        tickets: Tickets,
        /// The writer holding the write gate.
        gate: Option<usize>,
        writers: Vec<Writer>,
        committer: Flusher,
        close: Flusher,
        /// Ghost: every ticket up to this one is on disk.
        on_disk: u64,
        /// Ghost: a failed fsync dropped pages that no later fsync can
        /// vouch for; only a rebase makes them durable.
        lost: bool,
    }

    impl World {
        fn new(writers: usize) -> World {
            World {
                tickets: Tickets::default(),
                gate: None,
                writers: vec![Writer::Idle; writers],
                committer: Flusher::Idle,
                close: Flusher::Idle,
                on_disk: 0,
                lost: false,
            }
        }

        /// `notify_all`: every sleeper re-checks its condition.
        fn wake(&mut self) {
            for w in &mut self.writers {
                if let Writer::Asleep(t) = *w {
                    *w = Writer::Waiting(t);
                }
            }
            for f in [&mut self.committer, &mut self.close] {
                if *f == Flusher::Asleep {
                    *f = Flusher::Calling;
                }
            }
        }

        /// Every state one actor's next step leads to; an `Err` names a
        /// violated property.
        fn successors(&self) -> Result<Vec<World>, String> {
            let mut next = Vec::new();
            for i in 0..self.writers.len() {
                self.step_writer(i, &mut next)?;
            }
            self.step_flusher(false, &mut next);
            self.step_flusher(true, &mut next);
            Ok(next)
        }

        fn step_writer(&self, i: usize, next: &mut Vec<World>) -> Result<(), String> {
            let mut w = self.clone();
            w.writers[i] = match self.writers[i] {
                Writer::Idle if self.gate.is_none() => {
                    w.gate = Some(i);
                    Writer::Gated
                }
                Writer::Gated if self.tickets.failed.is_some() => Writer::Rebasing,
                Writer::Gated => Writer::Running(self.tickets.deferred),
                Writer::Rebasing => {
                    // The checkpoint rewrote the base with every close.
                    w.on_disk = w.tickets.deferred;
                    w.lost = false;
                    w.tickets.rebase();
                    Writer::Running(w.tickets.deferred)
                }
                Writer::Running(mark) => {
                    for defers in [false, true] {
                        let mut w = self.clone();
                        // Once closed the run syncs its own record.
                        if defers {
                            w.tickets.defer();
                        }
                        w.gate = None;
                        w.writers[i] = match w.tickets.ticket_since(mark) {
                            Some(ticket) => Writer::Waiting(ticket),
                            None => Writer::Done,
                        };
                        next.push(w);
                    }
                    return Ok(());
                }
                Writer::Waiting(ticket) => match self.tickets.ack(ticket) {
                    None => Writer::Asleep(ticket),
                    Some(Ok(())) if ticket > self.on_disk => {
                        return Err(format!("writer {i} acked ok, ticket {ticket} not on disk"))
                    }
                    Some(_) => Writer::Done,
                },
                _ => return Ok(()),
            };
            next.push(w);
            Ok(())
        }

        fn flusher(&mut self, close: bool) -> &mut Flusher {
            if close {
                &mut self.close
            } else {
                &mut self.committer
            }
        }

        fn step_flusher(&self, close: bool, next: &mut Vec<World>) {
            let me = if close { self.close } else { self.committer };
            // Where a flush call returns to: the committer's next tick, or
            // the end of the close.
            let ret = if close { Flusher::Done } else { Flusher::Idle };
            let mut w = self.clone();
            let after = match me {
                Flusher::Idle if close => {
                    w.tickets.close();
                    Flusher::Calling
                }
                // The committer ticks only while its tenant is registered,
                // which ends as the close begins.
                Flusher::Idle if self.close == Flusher::Idle => Flusher::Calling,
                Flusher::Calling if w.tickets.busy() => Flusher::Asleep,
                Flusher::Calling => match w.tickets.begin_flush() {
                    Some(_) => ret,
                    None => Flusher::Syncing(w.tickets.deferred),
                },
                Flusher::Syncing(target) => {
                    for ok in [true, false] {
                        let mut w = self.clone();
                        let synced = if ok {
                            if !w.lost {
                                w.on_disk = w.on_disk.max(target);
                            }
                            Ok(())
                        } else {
                            w.lost = true;
                            Err(io::Error::other("fsync failed"))
                        };
                        if w.tickets.end_flush(&synced) {
                            w.wake();
                        }
                        *w.flusher(close) = ret;
                        next.push(w);
                    }
                    return;
                }
                _ => return,
            };
            *w.flusher(close) = after;
            next.push(w);
        }

        /// The properties every reachable state keeps.
        fn check(&self) -> Result<(), String> {
            let syncing = [self.committer, self.close]
                .iter()
                .filter(|f| matches!(f, Flusher::Syncing(_)))
                .count();
            if syncing > 1 {
                return Err("two flushes overlap".into());
            }
            for (i, w) in self.writers.iter().enumerate() {
                if let Writer::Asleep(t) = w {
                    if self.tickets.ack(*t).is_some() {
                        return Err(format!("lost wake-up: writer {i} sleeps on decided {t}"));
                    }
                }
            }
            for f in [self.committer, self.close] {
                if f == Flusher::Asleep && !self.tickets.busy() {
                    return Err("lost wake-up: a flush sleeps behind none".into());
                }
            }
            Ok(())
        }

        /// At a state no step leaves: nobody still waits, which after the
        /// close would be on a flush that can no longer come.
        fn check_quiescent(&self) -> Result<(), String> {
            if self.writers.iter().all(|w| *w == Writer::Done) && self.close == Flusher::Done {
                return Ok(());
            }
            Err("stuck: someone waits on a flush that can no longer come".into())
        }
    }

    /// The longest path the DFS may take; the state space is finite and
    /// every path in it is shorter, which the search asserts.
    const MAX_DEPTH: usize = 64;

    /// Visits every state reachable from `writers` idle writers; the
    /// number of distinct states, or the first violation with its state.
    fn explore(writers: usize) -> Result<usize, String> {
        let start = World::new(writers);
        let mut seen = HashSet::from([start.clone()]);
        let mut stack = vec![(start, 0)];
        while let Some((world, depth)) = stack.pop() {
            let next = world.check().and_then(|()| world.successors());
            let next = match next {
                Ok(next) if next.is_empty() => world.check_quiescent().map(|()| next),
                other => other,
            };
            let next = next.map_err(|e| format!("{e} at depth {depth} in {world:?}"))?;
            assert!(depth < MAX_DEPTH, "the state space is deeper than {MAX_DEPTH}");
            for w in next {
                if seen.insert(w.clone()) {
                    stack.push((w, depth + 1));
                }
            }
        }
        Ok(seen.len())
    }

    #[test]
    fn every_interleaving_acks_honestly_wakes_every_waiter_and_never_overlaps_flushes() {
        let mut states = 0;
        for writers in 1..=3 {
            states += explore(writers).unwrap_or_else(|e| panic!("{writers} writers: {e}"));
        }
        // A floor, so a model that stops exploring fails loudly.
        assert!(states > 1_000, "explored only {states} states");
    }
}
