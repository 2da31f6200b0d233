//! PR 6 acceptance, transient-fault half: injected IO errors.
//!
//! Every test drives a real engine over a [`FaultFs`] and injects
//! failures at specific call sites:
//!
//! * transient faults (`EINTR`) are retried transparently — bounded by
//!   [`IO_RETRY_ATTEMPTS`], never forever;
//! * `ENOSPC` fails fast as the typed [`Error::StorageExhausted`];
//! * a failed persist leaves the store openable at its previous durable
//!   checkpoint, and the close it carried is folded into the next
//!   successful persist;
//! * a window close never reads the shard store (only the history merge
//!   does);
//! * [`EngineBuilder::read_only`] serves the full read surface without
//!   taking the store lock or garbage-collecting, and every write entry
//!   point is the typed [`Error::ReadOnly`];
//! * a store from before empty closes stopped leaving shard files — its
//!   manifest lists zero-point records — resumes bit-identically and
//!   sheds them: names at the first base rewrite, files at the next
//!   writable resume;
//! * the `O_EXCL` store lock takes over verified-stale (dead-pid) locks,
//!   refuses live foreign owners, and survives a lost `create_exclusive`
//!   race;
//! * the same IO trace pins what a window close writes: a steady-state
//!   close appends an `O(window)` delta record and never rewrites the
//!   base manifest, and a close that found no new distinct query writes
//!   nothing else.

use logr::cluster::spill::{self, ShardRecord};
use logr::cluster::vfs::{Vfs, IO_RETRY_ATTEMPTS};
use logr::cluster::SpillError;
use logr::{manifest, Engine, EngineBuilder, Error, Record};
use logr_testkit::vfs::{FaultFs, IoOp, OpKind};
use std::collections::{BTreeMap, BTreeSet};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn statement(i: u64) -> String {
    format!("SELECT c{} FROM t{} WHERE a{} = ?", i % 13, i % 3, i % 7)
}

/// Fresh engine on a fresh `FaultFs`: window 4, 2 clusters, budget 0 so
/// every window close writes shard files (maximum IO surface).
fn spilling_engine(dir: &Path) -> (Arc<FaultFs>, Engine) {
    let fs = Arc::new(FaultFs::new());
    let engine = Engine::builder()
        .window(4)
        .clusters(2)
        .resident_budget(0)
        .vfs(fs.clone())
        .open(dir)
        .expect("open");
    (fs, engine)
}

#[test]
fn transient_eintr_is_retried_transparently() {
    let dir = PathBuf::from("/vstore-eintr-ok");
    let (fs, engine) = spilling_engine(&dir);
    // Two consecutive EINTRs on every IO class the write path uses —
    // all inside the retry budget, so the caller never sees them.
    fs.inject(OpKind::Write, "shard-", ErrorKind::Interrupted, 2);
    fs.inject(OpKind::Fsync, "shard-", ErrorKind::Interrupted, 2);
    fs.inject(OpKind::Write, "engine.tmp", ErrorKind::Interrupted, 2);
    for i in 0..8 {
        engine.ingest_record(&statement(i)).expect("ingest rides out EINTR");
    }
    engine.checkpoint().expect("checkpoint rides out EINTR");
    assert_eq!(engine.windows_closed().unwrap(), 2);
}

#[test]
fn persistent_eintr_is_bounded_not_an_infinite_loop() {
    let dir = PathBuf::from("/vstore-eintr-forever");
    let (fs, engine) = spilling_engine(&dir);
    // More consecutive failures than the retry budget: the engine must
    // give up with a typed error (here inside the shard store), not spin.
    fs.inject(OpKind::Write, "shard-", ErrorKind::Interrupted, IO_RETRY_ATTEMPTS + 10);
    let err = (0..8)
        .map(|i| engine.ingest_record(&statement(i)))
        .find_map(Result::err)
        .expect("a window close must hit the failing shard write");
    match err {
        Error::Spill(SpillError::Io(io)) => assert_eq!(io.kind(), ErrorKind::Interrupted),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn appends_against_a_spilled_history_read_nothing() {
    // The cross block runs on the set's resident points, so a close never
    // reads the store: with every shard-file read failing, seven closes
    // over an all-but-the-tail spilled history still succeed. The one
    // reader is the merge behind `summary()`, which then reports the
    // fault typed and works again once reads do.
    let dir = PathBuf::from("/vstore-no-reads");
    let (fs, engine) = spilling_engine(&dir);
    fs.inject(OpKind::Read, "shard-", ErrorKind::PermissionDenied, usize::MAX);
    let closes = 7;
    for i in 0..4 * closes as u64 {
        engine.ingest_record(&statement(i)).expect("a close must not read the store");
    }
    assert_eq!(engine.windows_closed().unwrap(), closes);
    assert_eq!(engine.spilled_shards().unwrap(), closes - 1);
    match engine.summary() {
        Err(Error::Spill(SpillError::Io(io))) => assert_eq!(io.kind(), ErrorKind::PermissionDenied),
        other => panic!("the merge must hit the failing read: {other:?}"),
    }
    fs.clear_faults();
    assert!(engine.summary().unwrap().is_some());
}

#[test]
fn enospc_on_the_shard_store_is_storage_exhausted() {
    let dir = PathBuf::from("/vstore-enospc-shard");
    let (fs, engine) = spilling_engine(&dir);
    // ENOSPC is not transient: it must fail fast (single attempt), with
    // the operator-actionable typed error.
    fs.inject(OpKind::Write, "shard-", ErrorKind::StorageFull, usize::MAX);
    let err = (0..8)
        .map(|i| engine.ingest_record(&statement(i)))
        .find_map(Result::err)
        .expect("a window close must hit the full disk");
    assert!(matches!(err, Error::StorageExhausted { .. }), "wrong error: {err}");
}

#[test]
fn enospc_on_the_manifest_is_storage_exhausted() {
    let dir = PathBuf::from("/vstore-enospc-manifest");
    let (fs, engine) = spilling_engine(&dir);
    for i in 0..8 {
        engine.ingest_record(&statement(i)).expect("ingest");
    }
    fs.inject(OpKind::Write, "engine.tmp", ErrorKind::StorageFull, usize::MAX);
    match engine.checkpoint().unwrap_err() {
        Error::StorageExhausted { detail } => {
            assert!(detail.contains("engine.tmp"), "detail should name the failing file: {detail}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn failed_persist_leaves_the_store_openable_at_the_previous_checkpoint() {
    let dir = PathBuf::from("/vstore-failed-close");
    let (fs, engine) = spilling_engine(&dir);
    for i in 0..8 {
        engine.ingest_record(&statement(i)).expect("ingest");
    }
    engine.checkpoint().expect("good checkpoint");
    // Ingest to the next window close: its auto-persist is the last
    // checkpoint the store will hold durably.
    for i in 8..12 {
        engine.ingest_record(&statement(i)).expect("ingest");
    }
    let durable_windows = engine.windows_closed().unwrap();
    let durable_queries = engine.total_queries().unwrap();
    // More work lands in the buffer, then the disk starts failing: the
    // checkpoint attempt errors out...
    for i in 12..14 {
        engine.ingest_record(&statement(i)).expect("ingest");
    }
    fs.inject(OpKind::Write, "engine.tmp", ErrorKind::StorageFull, usize::MAX);
    assert!(engine.checkpoint().is_err(), "checkpoint must fail under ENOSPC");
    fs.clear_faults();
    drop(engine);
    // ...and the store still opens, exactly at the last good checkpoint:
    // the atomic write protocol never touched the previous manifest.
    let recovered =
        EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("store survived the failed close");
    assert_eq!(recovered.windows_closed().unwrap(), durable_windows);
    assert_eq!(recovered.total_queries().unwrap(), durable_queries);
}

/// The never-faulted, never-interrupted reference the durable engines of
/// the recovery tests below are compared against.
fn in_memory_twin() -> Engine {
    Engine::builder().window(4).clusters(2).in_memory().expect("twin")
}

/// `recovered` and `live` stand at the same window boundary with the same
/// history and the same history summary, and close the next window
/// (statements `next..next + 4`) to the same summary.
fn assert_continues_like(recovered: &Engine, live: &Engine, next: u64) {
    let summary_bits = |e: &Engine| {
        let s = e.summary().unwrap().expect("history summary");
        (s.clustering.clone(), s.error().to_bits())
    };
    let (r, l) = (recovered.snapshot().unwrap(), live.snapshot().unwrap());
    assert_eq!(r.windows_closed(), l.windows_closed());
    assert_eq!(r.history().total_queries(), l.history().total_queries());
    assert_eq!(r.history().distinct_count(), l.history().distinct_count());
    assert_eq!(summary_bits(recovered), summary_bits(live));
    let close = |e: &Engine| {
        let w = (next..next + 4).find_map(|i| e.ingest_record(&statement(i)).unwrap());
        let w = w.expect("four statements close a window");
        (w.new_distinct, w.summary.clustering.clone(), w.summary.error().to_bits())
    };
    assert_eq!(close(recovered), close(live));
    assert_eq!(summary_bits(recovered), summary_bits(live));
}

#[test]
fn a_close_whose_shard_write_failed_is_folded_into_the_next_persist() {
    // Close 1's persist dies — on its shard file, or on its delta append —
    // and surfaces typed; close 2 succeeds. What close 2 leaves on disk
    // must hold close 1 too: a delta record appended past the gap would
    // make the store unopenable (shard files ahead of the history log)
    // or, worse, openable one window short.
    for (kind, file) in [(OpKind::Write, "shard-"), (OpKind::Append, "engine.delta")] {
        let dir = PathBuf::from(format!("/vstore-skipped-close-{kind:?}"));
        let fs = Arc::new(FaultFs::new());
        let engine =
            Engine::builder().window(4).clusters(2).vfs(fs.clone()).open(&dir).expect("open");
        let twin = in_memory_twin();
        for i in 0..4 {
            engine.ingest_record(&statement(i)).expect("close 0 persists");
        }
        fs.inject(kind, file, ErrorKind::StorageFull, 1);
        let err = (4..8).find_map(|i| engine.ingest_record(&statement(i)).err());
        let err = err.unwrap_or_else(|| panic!("close 1 must hit the {kind:?} fault"));
        assert!(matches!(err, Error::StorageExhausted { .. }), "{kind:?}: wrong error: {err}");
        for i in 8..12 {
            engine.ingest_record(&statement(i)).expect("close 2 persists");
        }
        for i in 0..12 {
            twin.ingest_record(&statement(i)).expect("twin ingest");
        }
        drop(engine);
        let recovered = EngineBuilder::new().vfs(fs.clone()).resume(&dir);
        let recovered = recovered.unwrap_or_else(|e| panic!("{kind:?}: store must reopen: {e}"));
        assert_continues_like(&recovered, &twin, 12);
    }
}

#[test]
fn read_only_engine_serves_reads_beside_a_live_writer() {
    let dir = PathBuf::from("/vstore-ro-beside");
    let (fs, writer) = spilling_engine(&dir);
    for i in 0..9 {
        writer.ingest_record(&statement(i)).expect("ingest");
    }
    writer.checkpoint().expect("checkpoint");
    // The writer still holds the store lock; a read-only open must not
    // contend for it.
    let reader = EngineBuilder::new()
        .read_only()
        .vfs(fs.clone())
        .resume(&dir)
        .expect("read-only open beside the live writer");
    assert!(reader.is_read_only());
    assert!(!writer.is_read_only());
    assert_eq!(reader.windows_closed().unwrap(), writer.windows_closed().unwrap());
    assert_eq!(reader.total_queries().unwrap(), writer.total_queries().unwrap());
    let (r, w) = (reader.summary().unwrap(), writer.summary().unwrap());
    match (r, w) {
        (Some(r), Some(w)) => {
            assert_eq!(r.clustering, w.clustering);
            assert_eq!(r.error().to_bits(), w.error().to_bits());
        }
        (r, w) => panic!("summaries diverged: reader={:?} writer={:?}", r.is_some(), w.is_some()),
    }
}

#[test]
fn read_only_engine_rejects_every_write_entry_point() {
    let dir = PathBuf::from("/vstore-ro-writes");
    let (fs, writer) = spilling_engine(&dir);
    for i in 0..9 {
        writer.ingest_record(&statement(i)).expect("ingest");
    }
    writer.checkpoint().expect("checkpoint");
    drop(writer);
    let reader = EngineBuilder::new().read_only().vfs(fs).resume(&dir).expect("read-only open");
    assert!(matches!(reader.ingest_record("SELECT 1"), Err(Error::ReadOnly)));
    assert!(matches!(reader.ingest(&Record::new("SELECT 1").times(3)), Err(Error::ReadOnly)));
    assert!(matches!(reader.ingest(&Record::new("SELECT 1").at(99)), Err(Error::ReadOnly)));
    assert!(matches!(reader.flush(), Err(Error::ReadOnly)));
    assert!(matches!(reader.checkpoint(), Err(Error::ReadOnly)));
}

#[test]
fn read_only_open_takes_no_lock_and_garbage_collects_nothing() {
    let dir = PathBuf::from("/vstore-ro-nogc");
    let (fs, writer) = spilling_engine(&dir);
    for i in 0..9 {
        writer.ingest_record(&statement(i)).expect("ingest");
    }
    writer.checkpoint().expect("checkpoint");
    drop(writer);
    // Plant leftovers a writable resume would sweep: an unreferenced
    // shard file and an orphaned .tmp.
    let orphan_bin = dir.join("shard-99999-orphan.bin");
    let orphan_tmp = dir.join("shard-99999-orphan.tmp");
    fs.write(&orphan_bin, b"junk").unwrap();
    fs.write(&orphan_tmp, b"junk").unwrap();
    let reader =
        EngineBuilder::new().read_only().vfs(fs.clone()).resume(&dir).expect("read-only open");
    assert!(reader.summary().unwrap().is_some());
    assert!(!fs.exists(&dir.join("engine.lock")), "read-only open must not create a lock");
    assert!(fs.exists(&orphan_bin), "read-only open must not garbage-collect");
    assert!(fs.exists(&orphan_tmp), "read-only open must not garbage-collect");
    drop(reader);
    // A writable resume of the same store does sweep them.
    let writer = EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("writable resume");
    assert!(!fs.exists(&orphan_bin), "writable resume sweeps unreferenced shards");
    assert!(!fs.exists(&orphan_tmp), "writable resume sweeps orphaned tmp files");
    drop(writer);
}

#[test]
fn a_store_listing_zero_point_shard_files_resumes_and_sheds_them() {
    // Until empty closes stopped leaving shards, a close that found no
    // new distinct query still wrote a (zero-point) shard file and named
    // it in the manifest. Build such a store: grow one, then splice a
    // zero-point record after every shard, exactly where and as wide as
    // that writer would have left it.
    let dir = PathBuf::from("/vstore-legacy-empties");
    let (fs, engine) = spilling_engine(&dir);
    let twin = in_memory_twin();
    for i in 0..12 {
        engine.ingest_record(&statement(i)).expect("ingest");
        twin.ingest_record(&statement(i)).expect("twin ingest");
    }
    engine.checkpoint().expect("checkpoint");
    drop(engine);
    let (mut m, _) = manifest::read_store_with(&*fs, &dir).expect("read the store");
    let mut legacy = Vec::new();
    for (i, name) in std::mem::take(&mut m.shard_files).into_iter().enumerate() {
        let real = spill::read_file_with(&*fs, &dir.join(&name)).expect("read a shard");
        let empty = ShardRecord {
            n_features: real.n_features,
            start: real.start + real.len(),
            intra: Vec::new(),
            cross: Vec::new(),
            bits: Arc::new([]),
        };
        let legacy_name = format!("shard-9000{i}-legacy.bin");
        legacy.push(dir.join(&legacy_name));
        spill::write_file_with(&*fs, &legacy[i], &empty).expect("write a zero-point shard");
        m.shard_files.extend([name, legacy_name]);
    }
    assert_eq!(legacy.len(), 3, "every close of this stream found new shapes");
    manifest::write_base_with(&*fs, &dir.join(manifest::FILE_NAME), &m).expect("write the base");
    let listed = |fs: &FaultFs| {
        let (m, _) = manifest::read_store_with(fs, &dir).expect("read the store");
        m.shard_files.iter().filter(|name| name.ends_with("-legacy.bin")).count()
    };

    // It resumes and continues like a stream that never stopped. The
    // first persist after a resume rewrites the base, which names live
    // shards only. The files stay: a live engine never deletes, and
    // neither does a read-only open.
    let recovered = EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("resume");
    assert_eq!(listed(&fs), 3);
    assert_continues_like(&recovered, &twin, 12);
    assert_eq!(listed(&fs), 0);
    drop(recovered);
    let reader = EngineBuilder::new().read_only().vfs(fs.clone()).resume(&dir).expect("read-only");
    assert_eq!(reader.windows_closed().unwrap(), twin.windows_closed().unwrap());
    drop(reader);
    assert!(legacy.iter().all(|path| fs.exists(path)), "nothing deleted yet");
    // The next writable resume's GC sweeps them as unreferenced.
    let recovered = EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("second resume");
    assert!(!legacy.iter().any(|path| fs.exists(path)), "GC removes the zero-point files");
    assert_continues_like(&recovered, &twin, 16);
}

#[test]
fn read_only_open_of_an_empty_directory_is_missing_manifest() {
    let fs = Arc::new(FaultFs::new());
    let dir = PathBuf::from("/vstore-ro-empty");
    match EngineBuilder::new().read_only().vfs(fs).open(&dir) {
        Err(Error::MissingManifest { dir: d }) => assert_eq!(d, dir),
        other => panic!("wrong outcome: {:?}", other.map(|_| ())),
    }
}

#[test]
fn stale_lock_of_a_dead_process_is_taken_over() {
    // A store whose last owner crashed: the lock file survives, naming a
    // pid that no longer exists. Acquisition must verify the owner is
    // dead and steal the lock instead of refusing the open.
    let dir = PathBuf::from("/vstore-lock-dead");
    let mut files = BTreeMap::new();
    // Largest representable pid: never a live process.
    files.insert(dir.join("engine.lock"), format!("{}\n", u32::MAX).into_bytes());
    let mut dirs = BTreeSet::new();
    dirs.insert(dir.clone());
    let fs = Arc::new(FaultFs::from_files(files, dirs));
    let engine = Engine::builder()
        .window(4)
        .clusters(2)
        .vfs(fs.clone())
        .open(&dir)
        .expect("stale lock must be taken over");
    engine.ingest_record("SELECT 1").expect("ingest");
    drop(engine);
    assert!(!fs.exists(&dir.join("engine.lock")), "lock released on drop");
}

#[test]
fn live_foreign_lock_refuses_the_open() {
    // pid 1 always exists. A lock naming it must refuse the open with
    // the typed StoreLocked error, never steal.
    let dir = PathBuf::from("/vstore-lock-live");
    let mut files = BTreeMap::new();
    files.insert(dir.join("engine.lock"), b"1\n".to_vec());
    let mut dirs = BTreeSet::new();
    dirs.insert(dir.clone());
    let fs = Arc::new(FaultFs::from_files(files, dirs));
    match Engine::builder().vfs(fs).open(&dir) {
        Err(Error::StoreLocked { pid, .. }) => assert_eq!(pid, 1),
        other => panic!("wrong outcome: {:?}", other.map(|_| ())),
    }
}

#[test]
fn lost_create_exclusive_race_is_retried_not_fatal() {
    // Simulate losing the O_EXCL race: the first create_exclusive fails
    // AlreadyExists even though no lock file is visible. The acquirer
    // must re-probe and win the next round, not give up.
    let dir = PathBuf::from("/vstore-lock-race");
    let fs = Arc::new(FaultFs::new());
    fs.inject(OpKind::CreateExclusive, "engine.lock", ErrorKind::AlreadyExists, 1);
    let engine = Engine::builder()
        .window(4)
        .clusters(2)
        .vfs(fs.clone())
        .open(&dir)
        .expect("lost race must be retried");
    engine.ingest_record("SELECT 1").expect("ingest");
}

#[test]
fn two_writable_opens_of_one_store_never_both_succeed() {
    let dir = PathBuf::from("/vstore-lock-twice");
    let (fs, first) = spilling_engine(&dir);
    match Engine::builder().vfs(fs.clone()).open(&dir) {
        Err(Error::StoreLocked { pid, .. }) => assert_eq!(pid, std::process::id()),
        other => panic!("second writable open must refuse: {:?}", other.map(|_| ())),
    }
    drop(first);
    Engine::builder().vfs(fs).open(&dir).expect("open succeeds once the first owner is gone");
}

#[test]
fn aliased_store_path_spellings_share_one_lock() {
    // PR 9 regression: `/vstore-canon`, `/vstore-canon/.` and
    // `/vstore-canon/../vstore-canon` all name the same store. The
    // in-process lock registry must normalize the path before the
    // exclusivity check, so a second spelling can never acquire a
    // second writable lock on a store that is already open.
    let dir = PathBuf::from("/vstore-canon");
    let (fs, first) = spilling_engine(&dir);
    for alias in ["/vstore-canon/../vstore-canon", "/vstore-canon/."] {
        match Engine::builder().vfs(fs.clone()).open(alias) {
            Err(Error::StoreLocked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("aliased open {alias:?} must refuse: {:?}", other.map(|_| ())),
        }
    }
    drop(first);
    // Released under one spelling, acquirable under another.
    Engine::builder()
        .vfs(fs)
        .open("/vstore-canon/../vstore-canon")
        .expect("open succeeds under an alias once the owner is gone");
}

/// Manifest-file bytes in `ops`: `(base writes via engine.tmp, delta-log
/// writes + appends)`.
fn manifest_bytes(ops: &[IoOp]) -> (u64, u64) {
    let (mut base, mut delta) = (0u64, 0u64);
    for op in ops {
        let (IoOp::Write { path, bytes } | IoOp::Append { path, bytes }) = op else { continue };
        match path.file_name().and_then(|n| n.to_str()) {
            Some("engine.tmp") => base += bytes.len() as u64,
            Some("engine.delta") => delta += bytes.len() as u64,
            _ => {}
        }
    }
    (base, delta)
}

#[test]
fn steady_state_close_appends_a_delta_far_smaller_than_a_base_rewrite() {
    // PR 8's acceptance bar: past 1024 distinct statements at window 64,
    // one more close writes 0 base-manifest bytes and its delta append is
    // at least 5x smaller than the full rewrite a checkpoint pays at the
    // same history. The ~8.8M-combination shape space keeps every window
    // mostly novel.
    let shape = |i: usize| {
        format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 211, (i * 7) % 193, i % 17, i % 127)
    };
    let fs = Arc::new(FaultFs::new());
    let dir = PathBuf::from("/vstore-close-bytes");
    let engine = Engine::builder().window(64).clusters(4).vfs(fs.clone()).open(&dir).expect("open");
    for i in 0..17 * 64 {
        engine.ingest_record(&shape(i)).expect("ingest");
    }
    assert!(engine.snapshot().unwrap().history().distinct_count() > 1024);
    let before = fs.trace_len();
    for i in 17 * 64..18 * 64 {
        engine.ingest_record(&shape(i)).expect("ingest");
    }
    let (close_base, close_delta) = manifest_bytes(&fs.trace()[before..]);
    let before = fs.trace_len();
    engine.checkpoint().expect("checkpoint");
    let (full_base, _) = manifest_bytes(&fs.trace()[before..]);
    assert_eq!(close_base, 0, "a steady-state close must not rewrite the base manifest");
    assert!(close_delta > 0, "the close must have appended its delta record");
    assert!(
        full_base >= 5 * close_delta,
        "delta close ({close_delta} bytes) must be >=5x smaller than the full rewrite \
         ({full_base} bytes)"
    );
}

#[test]
fn a_close_that_learns_nothing_appends_one_delta_record_and_nothing_else() {
    // Four statements on repeat at window 4: the first close finds all
    // four and writes the store's one shard file; every later close finds
    // nothing new, so it leaves no shard — its whole IO footprint is one
    // append to the delta log and that file's fsync.
    let fs = Arc::new(FaultFs::new());
    let dir = PathBuf::from("/vstore-saturated");
    let engine = Engine::builder().window(4).clusters(2).vfs(fs.clone()).open(&dir).expect("open");
    let twin = in_memory_twin();
    let close = || {
        let feed = |e: &Engine| (0..4).find_map(|i| e.ingest_record(&statement(i)).unwrap());
        feed(&twin).expect("four statements close a window");
        feed(&engine).expect("four statements close a window").new_distinct
    };
    assert_eq!(close(), 4);
    let shard_state = |e: &Engine| (e.spilled_shards().unwrap(), e.resident_shard_bytes().unwrap());
    let after_first = shard_state(&engine);
    let delta = dir.join("engine.delta");
    for n in 1..6 {
        let before = fs.trace_len();
        assert_eq!(close(), 0);
        match &fs.trace()[before..] {
            [IoOp::Append { path: appended, .. }, IoOp::Fsync { path: synced }] => {
                assert_eq!((appended, synced), (&delta, &delta), "close {n}");
            }
            ops => panic!(
                "close {n} must be one append + one fsync, was {:?}",
                ops.iter().map(IoOp::kind).collect::<Vec<_>>()
            ),
        }
        assert_eq!(shard_state(&engine), after_first, "close {n}");
    }
    let shard_files =
        fs.files().keys().filter(|path| path.to_string_lossy().contains("shard-")).count();
    assert_eq!(shard_files, 1, "one shard file per close that found something");
    drop(engine);
    let recovered = EngineBuilder::new().vfs(fs.clone()).resume(&dir).expect("resume");
    assert_continues_like(&recovered, &twin, 4);
}
