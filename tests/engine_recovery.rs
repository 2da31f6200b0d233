//! PR 4 acceptance, recovery half: `Engine::open` on a previously
//! spilled store reproduces window summaries, drift, novelty, and
//! history summaries **bit-identical** to an engine that never restarted
//! (property-tested over random workloads, window shapes, and restart
//! points), and every way the store can be damaged surfaces as a
//! distinct typed `logr::Error` — never a panic.

use logr::cluster::spill::{self, fnv1a64};
use logr::cluster::testutil::TempStore;
use logr::cluster::vfs::RealFs;
use logr::cluster::{Distance, SpillError};
use logr::core::WindowSummary;
use logr::{Engine, EngineBuilder, Error, Record};
use proptest::prelude::*;
use std::sync::Arc;

/// A pool of distinct statement shapes over shared tables/columns, so
/// random streams mix repeats, novel queries, unparseable garbage, and
/// multi-branch (OR) statements.
fn statement(i: u64) -> String {
    match i % 7 {
        0 => format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 13, i % 11, i % 3, i % 7),
        1 => format!("SELECT c{} FROM t{} WHERE a{} = ? AND b{} = ?", i % 17, i % 3, i % 7, i % 5),
        2 => format!("SELECT c{}, c{} FROM t{}", i % 13, i % 17, i % 4),
        3 => format!("SELECT c{} FROM t{} WHERE a{} > ?", i % 11, i % 4, i % 7),
        4 => format!("SELECT c{} FROM t{} WHERE x{} = ? OR y{} = ?", i % 5, i % 3, i % 5, i % 3),
        5 => "THIS IS NOT SQL @@@".to_string(),
        _ => format!("SELECT balance FROM accounts WHERE owner{} = ?", i % 6),
    }
}

fn assert_windows_identical(a: &WindowSummary, b: &WindowSummary) {
    assert_eq!(a.index, b.index, "window index");
    assert_eq!(a.queries, b.queries, "window {} queries", a.index);
    assert_eq!(a.distinct, b.distinct, "window {} distinct", a.index);
    assert_eq!(a.new_distinct, b.new_distinct, "window {} new distinct", a.index);
    assert_eq!(a.closed_at_ms, b.closed_at_ms, "window {} boundary", a.index);
    assert_eq!(a.summary.clustering, b.summary.clustering, "window {} clustering", a.index);
    assert_eq!(
        a.summary.error().to_bits(),
        b.summary.error().to_bits(),
        "window {} error",
        a.index
    );
    assert_eq!(a.stable, b.stable, "window {} stability", a.index);
    match (&a.drift, &b.drift) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.overall.to_bits(), y.overall.to_bits(), "window {} drift", a.index);
            assert_eq!(x.new_features, y.new_features, "window {} new features", a.index);
            assert_eq!(
                x.vanished_features, y.vanished_features,
                "window {} vanished features",
                a.index
            );
        }
        _ => panic!("window {}: drift presence diverged", a.index),
    }
    assert_eq!(a.novelty.len(), b.novelty.len(), "window {} novelty len", a.index);
    for (x, y) in a.novelty.iter().zip(&b.novelty) {
        assert_eq!(x.to_bits(), y.to_bits(), "window {} novelty", a.index);
    }
}

/// Drive `engine` over `stream[from..]`, returning every closed window.
fn drive(engine: &Engine, stream: &[(String, u64)], from: usize) -> Vec<Arc<WindowSummary>> {
    stream[from..]
        .iter()
        .filter_map(|(sql, count)| engine.ingest(&Record::new(sql).times(*count)).expect("ingest"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: checkpoint → drop → reopen at an
    /// arbitrary mid-stream point (mid-window included), then continue —
    /// every later window artifact and the final history summary match a
    /// never-restarted engine to the bit.
    #[test]
    fn reopened_engine_is_bit_identical(
        seeds in prop::collection::vec(0u64..60, 12..90),
        counts in prop::collection::vec(1u64..4, 12..90),
        window in 8u64..24,
        slide_num in 0u64..3,
        restart_frac in 0usize..100,
        budget_zero in proptest::arbitrary::any::<bool>(),
    ) {
        let stream: Vec<(String, u64)> = seeds
            .iter()
            .zip(counts.iter().cycle())
            .map(|(&s, &c)| (statement(s), c))
            .collect();
        let slide = (slide_num > 0).then(|| (window / (slide_num + 1)).max(1));
        let restart_at = restart_frac * stream.len() / 100;
        let budget = if budget_zero { 0 } else { usize::MAX };

        let build = || {
            let mut b = Engine::builder().window(window).clusters(3).resident_budget(budget);
            if let Some(s) = slide {
                b = b.slide(s);
            }
            b
        };
        // Engine A never restarts; engine B checkpoints mid-stream (the
        // checkpoint captures the half-filled window buffer), is dropped
        // — losing all in-memory state — and recovers from the store
        // alone. TempStore created the directories; open() treats an
        // empty directory as a fresh store.
        let dir_a = TempStore::new("engine-prop-a");
        let dir_b = TempStore::new("engine-prop-b");
        let straight = build().open(dir_a.path()).expect("open straight-through engine");
        let straight_windows = drive(&straight, &stream, 0);

        let first = build().open(dir_b.path()).expect("open pre-restart engine");
        let mut restarted_windows = drive(&first, &stream[..restart_at], 0);
        first.checkpoint().expect("checkpoint");
        drop(first);
        let second = build().open(dir_b.path()).expect("reopen");
        prop_assert_eq!(
            second.windows_closed().unwrap(),
            restarted_windows.len(),
            "recovered window count"
        );
        restarted_windows.extend(drive(&second, &stream, restart_at));

        prop_assert_eq!(straight_windows.len(), restarted_windows.len(), "close count");
        for (a, b) in straight_windows.iter().zip(&restarted_windows) {
            assert_windows_identical(a, b);
        }
        // Final history summaries (and drift/novelty via the snapshots)
        // agree to the bit.
        let (sa, sb) = (straight.snapshot().unwrap(), second.snapshot().unwrap());
        prop_assert_eq!(sa.total_queries(), sb.total_queries());
        match (sa.summary().unwrap(), sb.summary().unwrap()) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                prop_assert_eq!(&x.clustering, &y.clustering);
                prop_assert_eq!(x.error().to_bits(), y.error().to_bits());
                prop_assert_eq!(x.total_verbosity(), y.total_verbosity());
            }
            _ => prop_assert!(false, "summary presence diverged"),
        }
    }
}

#[test]
fn reopen_without_checkpoint_recovers_the_last_window_close() {
    // Ingestion persists at window granularity: dropping mid-window
    // without a checkpoint loses only the buffered tail, and the reopened
    // engine resumes from the last close.
    let store = TempStore::new("engine-close-granularity");
    let engine = Engine::builder().window(10).open(store.path()).unwrap();
    for i in 0..27 {
        engine.ingest_record(&statement(i)).unwrap();
    }
    assert_eq!(engine.windows_closed().unwrap(), 2);
    drop(engine);
    let reopened = Engine::open(store.path()).unwrap();
    assert_eq!(reopened.windows_closed().unwrap(), 2);
    assert_eq!(reopened.total_queries().unwrap(), 20, "buffered tail was not checkpointed");
}

#[test]
fn compacted_store_reopens_bit_identically() {
    // Compaction (satellite): many small shard files merge into one, the
    // stale files disappear, and both the live engine and a reopened one
    // serve bit-identical summaries.
    let store = TempStore::new("engine-compact");
    let engine = Engine::builder().window(8).clusters(2).open(store.path()).unwrap();
    for i in 0..80 {
        engine.ingest_record(&statement(i)).unwrap();
    }
    let before = engine.summary().unwrap().expect("summary");
    // A reader snapshot taken *before* the compaction: it references the
    // pre-compact shard files and must keep answering after them.
    let pre_compact_snapshot = engine.snapshot().unwrap();
    let files_before = std::fs::read_dir(store.path()).unwrap().count();
    let merged = engine.compact().unwrap();
    assert!(merged > 1, "expected a multi-shard history, merged {merged}");
    // Stale files are NOT deleted while the engine lives — snapshots may
    // still read them (regression: an eager delete broke live readers).
    let files_after_compact = std::fs::read_dir(store.path()).unwrap().count();
    assert_eq!(files_after_compact, files_before + 1, "compact must only add the merged file");
    let via_old_snapshot = pre_compact_snapshot.summary().unwrap().expect("summary");
    assert_eq!(before.clustering, via_old_snapshot.clustering);
    let after = engine.summary().unwrap().expect("summary");
    assert_eq!(before.clustering, after.clustering);
    assert_eq!(before.error().to_bits(), after.error().to_bits());
    // Reopening garbage-collects the unreferenced files (no snapshot can
    // exist then) and still serves bit-identical summaries.
    drop(engine);
    drop(pre_compact_snapshot);
    let reopened = Engine::open(store.path()).unwrap();
    let files_after_reopen = std::fs::read_dir(store.path()).unwrap().count();
    assert!(
        files_after_reopen < files_before,
        "{files_before} files -> {files_after_reopen} (manifest + merged shard expected)"
    );
    let recovered = reopened.summary().unwrap().expect("summary");
    assert_eq!(before.clustering, recovered.clustering);
    assert_eq!(before.error().to_bits(), recovered.error().to_bits());
    // Idempotent.
    assert_eq!(reopened.compact().unwrap(), 0);
}

#[test]
fn rebounding_the_budget_frees_memory_on_an_idle_engine() {
    // A snapshot shares every resident shard payload with the writer's
    // store, so evicting on the store alone frees nothing until the next
    // close republishes — on an idle engine, never. `set_resident_budget`
    // publishes; the shard accessors read that snapshot, so they report
    // what is really pinned.
    let feed = |engine: &Engine| {
        for i in 0..48 {
            engine.ingest_record(&statement(i)).unwrap();
        }
    };
    let store = TempStore::new("engine-rebound");
    let engine = Engine::builder().window(8).clusters(2).open(store.path()).unwrap();
    feed(&engine);
    let closes = engine.windows_closed().unwrap();
    assert_eq!(engine.spilled_shards().unwrap(), 0, "unbounded budget keeps every shard");
    let unbounded = engine.resident_shard_bytes().unwrap();

    engine.set_resident_budget(0).unwrap();
    assert_eq!(engine.spilled_shards().unwrap(), closes - 1, "all but the pinned tail evicted");
    // Re-bounded equals always-bounded: an engine that ran the same
    // stream under budget 0 from the start holds exactly its tail shard.
    let reference_store = TempStore::new("engine-rebound-reference");
    let reference = Engine::builder()
        .window(8)
        .clusters(2)
        .resident_budget(0)
        .open(reference_store.path())
        .unwrap();
    feed(&reference);
    let tail = reference.resident_shard_bytes().unwrap();
    assert!(tail > 0 && tail < unbounded, "tail {tail} of {unbounded} resident bytes");
    assert_eq!(engine.resident_shard_bytes().unwrap(), tail);
}

#[test]
fn an_invalid_minkowski_order_is_a_config_error_not_a_panic() {
    // A NaN order made every distance NaN, so the clustering of the first
    // closed window indexed past its points; an order below 1 is no metric.
    for p in [f64::NAN, 0.5, f64::INFINITY] {
        let built =
            Engine::builder().window(4).clusters(2).metric(Distance::Minkowski(p)).in_memory();
        match built.err() {
            Some(Error::Config { detail }) => assert!(detail.contains("Minkowski"), "{detail}"),
            other => panic!("Minkowski({p}): {:?}", other.map(|e| e.to_string())),
        }
    }
}

#[test]
fn corrupt_stored_config_is_rejected_not_panicked() {
    // A checksum-valid manifest carrying a configuration the summarizer
    // would refuse must surface as CorruptManifest. The window size is
    // the first body field (offset 12, u64 LE).
    reject_patched_config("engine-bad-config", "window must be positive", |bytes| {
        bytes[12..20].copy_from_slice(&0u64.to_le_bytes())
    });
    // A NaN Minkowski order would panic the first summary. The metric's
    // tag byte sits at offset 38, its order (f64 LE) at 39..47.
    reject_patched_config("engine-bad-metric", "Minkowski order", |bytes| {
        assert_eq!(bytes[38], Distance::Hamming.tag().0, "the fixture's metric tag");
        bytes[38] = Distance::Minkowski(f64::NAN).tag().0;
        bytes[39..47].copy_from_slice(&f64::NAN.to_le_bytes());
    });
}

/// Patches the fixture's base manifest, fixes its checksum, and asserts
/// the reopen fails as `CorruptManifest` naming `expected`.
fn reject_patched_config(tag: &str, expected: &str, patch: impl Fn(&mut [u8])) {
    let (store, _) = damaged_store_fixture(tag);
    let path = store.join(logr::manifest::FILE_NAME);
    let mut bytes = std::fs::read(&path).unwrap();
    patch(&mut bytes);
    let total = bytes.len();
    let checksum = fnv1a64(&bytes[8..total - 8]);
    bytes[total - 8..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match Engine::open(store.path()).unwrap_err() {
        Error::CorruptManifest { detail } => assert!(detail.contains(expected), "{detail}"),
        other => panic!("{tag}: wrong error: {other}"),
    }
}

// ---- recovery edge cases: each a distinct typed error, never a panic --

/// A small persisted store to damage.
#[test]
fn resume_gc_spares_foreign_files_and_removes_orphaned_shards() {
    let store = TempStore::new("engine-gc-scope");
    let engine = Engine::builder().window(6).open(store.path()).unwrap();
    for i in 0..30 {
        engine.ingest_record(&statement(i)).unwrap();
    }
    engine.checkpoint().unwrap();
    drop(engine);
    // A store directory may hold files the engine does not own — even
    // ones with a .bin extension. Only the spill store's own
    // `shard-*.bin` namespace is the engine's to clean.
    let foreign_bin = store.path().join("model.bin");
    let foreign_txt = store.path().join("notes.txt");
    let orphan_shard = store.path().join("shard-99999-1-deadbeef.bin");
    std::fs::write(&foreign_bin, b"user data, not a shard").unwrap();
    std::fs::write(&foreign_txt, b"user notes").unwrap();
    std::fs::write(&orphan_shard, b"compaction leftover").unwrap();

    let engine = Engine::open(store.path()).unwrap();
    assert!(foreign_bin.exists(), "resume GC deleted a user file");
    assert!(foreign_txt.exists(), "resume GC deleted a user file");
    assert!(!orphan_shard.exists(), "unreferenced engine shard survived GC");
    // The engine itself recovered fine alongside the foreign files.
    assert!(engine.total_queries().unwrap() > 0);
}

fn damaged_store_fixture(tag: &str) -> (TempStore, Vec<std::path::PathBuf>) {
    let store = TempStore::new(tag);
    let engine = Engine::builder().window(6).open(store.path()).unwrap();
    for i in 0..30 {
        engine.ingest_record(&statement(i)).unwrap();
    }
    engine.checkpoint().unwrap();
    drop(engine);
    let shards: Vec<std::path::PathBuf> = std::fs::read_dir(store.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    assert!(shards.len() >= 2, "fixture needs several shard files");
    (store, shards)
}

#[test]
fn live_store_cannot_be_opened_twice() {
    // Opening a store owned by a live engine must refuse: the second
    // open's recovery would garbage-collect shard files the first
    // engine's snapshots still read.
    let store = TempStore::new("engine-lock");
    let engine = Engine::builder().window(6).open(store.path()).unwrap();
    for i in 0..20 {
        engine.ingest_record(&statement(i)).unwrap();
    }
    match Engine::open(store.path()).unwrap_err() {
        Error::StoreLocked { pid, .. } => assert_eq!(pid, std::process::id()),
        other => panic!("wrong error: {other}"),
    }
    // Dropping the engine releases the lock; the store reopens cleanly.
    drop(engine);
    let reopened = Engine::open(store.path()).unwrap();
    assert_eq!(reopened.windows_closed().unwrap(), 3);
}

#[test]
fn resume_on_an_empty_dir_is_missing_manifest() {
    let store = TempStore::new("engine-empty");
    let err = EngineBuilder::new().resume(store.path()).unwrap_err();
    match err {
        Error::MissingManifest { dir } => assert_eq!(dir, store.path()),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn manifest_newer_than_the_binary_is_version_gated() {
    let (store, _) = damaged_store_fixture("engine-version");
    let path = store.join(logr::manifest::FILE_NAME);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&(logr::manifest::VERSION + 1).to_le_bytes());
    // Keep the checksum consistent so the version gate — not the
    // integrity check — is what must fire.
    let total = bytes.len();
    let checksum = fnv1a64(&bytes[8..total - 8]);
    bytes[total - 8..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match Engine::open(store.path()).unwrap_err() {
        Error::ManifestVersion { found, supported } => {
            assert_eq!(found, logr::manifest::VERSION + 1);
            assert_eq!(supported, logr::manifest::VERSION);
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn corrupt_manifest_is_a_typed_error() {
    let (store, _) = damaged_store_fixture("engine-manifest-rot");
    let path = store.join(logr::manifest::FILE_NAME);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(Engine::open(store.path()), Err(Error::CorruptManifest { .. })));
}

#[test]
fn deleted_shard_file_is_missing_shard() {
    let (store, shards) = damaged_store_fixture("engine-deleted");
    std::fs::remove_file(&shards[0]).unwrap();
    match Engine::open(store.path()).unwrap_err() {
        Error::MissingShard { path } => assert_eq!(path, shards[0]),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn truncated_shard_file_is_a_typed_spill_error() {
    let (store, shards) = damaged_store_fixture("engine-truncated");
    let bytes = std::fs::read(&shards[1]).unwrap();
    std::fs::write(&shards[1], &bytes[..bytes.len() / 2]).unwrap();
    match Engine::open(store.path()).unwrap_err() {
        Error::Spill(SpillError::Truncated { .. }) => {}
        other => panic!("wrong error: {other}"),
    }
    // A flipped payload byte, by contrast, is a checksum mismatch.
    std::fs::write(&shards[1], &bytes).unwrap();
    let mut rotted = bytes.clone();
    let last = rotted.len() - 9; // inside the checksummed span
    rotted[last] ^= 0x01;
    std::fs::write(&shards[1], &rotted).unwrap();
    match Engine::open(store.path()).unwrap_err() {
        Error::Spill(SpillError::ChecksumMismatch { .. }) => {}
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn swapped_shard_payloads_are_a_store_mismatch_never_wrong_distances() {
    // Every shard file is individually checksum-valid, but two of them
    // have exchanged contents — the store as a whole no longer describes
    // the manifest's checkpoint. Serving distances from it would be
    // silently wrong; recovery must refuse with a typed StoreMismatch.
    let (store, mut shards) = damaged_store_fixture("engine-payload-swap");
    shards.sort(); // chain order (shard-00000… < shard-00001…)
    let a = std::fs::read(&shards[0]).unwrap();
    let b = std::fs::read(&shards[1]).unwrap();
    std::fs::write(&shards[0], &b).unwrap();
    std::fs::write(&shards[1], &a).unwrap();
    match Engine::open(store.path()).unwrap_err() {
        Error::StoreMismatch { detail } => {
            assert!(detail.contains("chain"), "{detail}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn swapped_in_foreign_shard_is_a_store_mismatch_or_chain_error() {
    // A checksum-valid shard file from a *different* store must not be
    // silently accepted: either the chain validation or the
    // manifest/file cross-check refuses.
    let (store, shards) = damaged_store_fixture("engine-foreign");
    // Build a foreign-but-valid record and overwrite the last shard file.
    let foreign = spill::ShardRecord {
        n_features: 4,
        start: 0,
        intra: vec![],
        cross: vec![],
        bits: vec![].into(),
    };
    spill::write_file_with(&RealFs, shards.last().unwrap(), &foreign).unwrap();
    match Engine::open(store.path()).unwrap_err() {
        Error::Spill(SpillError::Corrupt(_)) | Error::StoreMismatch { .. } => {}
        other => panic!("wrong error: {other}"),
    }
}
