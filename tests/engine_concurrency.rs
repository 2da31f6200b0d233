//! PR 4 acceptance, concurrency half: `Engine::snapshot()` reads stay
//! consistent while a writer thread ingests. Reader threads hammer
//! snapshots (summaries, estimates, drift, advice) through the whole
//! write run and assert internal consistency on every view; CI runs this
//! with `LOGR_THREADS=4` so the clustering fan-out, the spill store, and
//! the snapshot handoff race each other on every run.

use logr::analytics::{Advisor, IndexAdvisor};
use logr::feature::FeatureClass;
use logr::{Engine, EngineSnapshot};
use logr_testkit::TempStore;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Readers hold snapshots across threads with no lock around them; this
/// fails to compile if a field ever stops that.
const _: fn() = || {
    fn check<T: Send + Sync>() {}
    check::<EngineSnapshot>();
};

const WINDOW: u64 = 40;
const STREAM_LEN: u64 = 1200;
const READERS: usize = 3;

fn statement(i: u64) -> String {
    match i % 5 {
        0 => format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 13, i % 11, i % 3, i % 7),
        1 => format!("SELECT c{} FROM t{} WHERE a{} = ? AND b{} = ?", i % 17, i % 3, i % 7, i % 5),
        2 => format!("SELECT c{}, c{} FROM t{}", i % 13, i % 17, i % 4),
        3 => format!("SELECT c{} FROM t{} WHERE a{} > ?", i % 11, i % 4, i % 7),
        _ => format!("SELECT balance FROM accounts WHERE owner{} = ?", i % 6),
    }
}

/// Every invariant a consistent snapshot must satisfy, whatever moment it
/// was captured at.
fn check_snapshot(snap: &EngineSnapshot, last_seen_windows: usize) -> usize {
    let windows = snap.windows_closed();
    assert!(
        windows >= last_seen_windows,
        "snapshots went backwards: {windows} after {last_seen_windows}"
    );
    // The history is absorbed at window closes only, and tumbling windows
    // of unit-multiplicity statements close at exactly WINDOW queries.
    assert_eq!(
        snap.history().total_queries(),
        windows as u64 * WINDOW,
        "history out of step with the close count"
    );
    assert!(snap.buffered_queries() < WINDOW, "buffer spans a whole window");
    assert_eq!(snap.total_queries(), snap.history().total_queries() + snap.buffered_queries());

    // The summary clusters exactly the snapshot's own history — a torn
    // handoff (matrix from one boundary, log from another) would trip the
    // size assertion inside compress_condensed or produce a clustering of
    // the wrong length.
    let summary = snap.summary().expect("summary");
    assert_eq!(summary.is_some(), snap.history().distinct_count() > 0);
    if let Some(summary) = &summary {
        assert_eq!(summary.clustering.len(), snap.history().distinct_count());
        assert!(summary.error().is_finite());
        // Estimates answer from the mixture alone and can never exceed
        // the absorbed total by more than estimator slack.
        let total = snap.history().total_queries() as f64;
        let query = snap.query().expect("query").expect("non-empty history");
        for (_, feature) in snap.history().codebook().iter().take(8) {
            let est = query
                .frequency(&logr::analytics::Pred::feature(feature.clone()))
                .expect("known feature");
            assert!(est.is_finite() && est >= 0.0);
            assert!(est <= total * 1.5 + 1.0, "estimate {est} vs total {total}");
        }
        // Advice is internally consistent with the same summary.
        for pick in IndexAdvisor::new(0.05).advise(snap).expect("advise") {
            assert!(pick.share >= 0.05);
            assert!((pick.share - pick.estimated / total).abs() < 1e-12);
        }
    }
    // Window artifacts agree with themselves.
    if let Some(w) = snap.last_window() {
        assert_eq!(w.index + 1, windows, "last window out of step");
        let drift_stable = w.drift.as_ref().is_none_or(|d| d.is_stable(1e-3));
        assert_eq!(w.stable, drift_stable, "stability flag disagrees with the report");
        assert_eq!(snap.novelty().len(), w.novelty.len());
    }
    windows
}

fn stress(engine: Engine) {
    let engine = Arc::new(engine);
    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let reads = Arc::clone(&reads);
            scope.spawn(move || {
                let mut last = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let snap = engine.snapshot().expect("snapshot");
                    last = check_snapshot(&snap, last);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
                last
            });
        }
        // The one writer.
        let writer_engine = Arc::clone(&engine);
        let writer = scope.spawn(move || {
            for i in 0..STREAM_LEN {
                writer_engine.ingest_record(&statement(i)).expect("ingest");
            }
        });
        writer.join().expect("writer panicked");
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(engine.windows_closed().unwrap(), (STREAM_LEN / WINDOW) as usize);
    assert!(reads.load(Ordering::Relaxed) > 0, "readers never observed a snapshot");
    // A final snapshot answers the advisor question coherently.
    let snap = engine.snapshot().unwrap();
    let advice = IndexAdvisor::new(0.0).advise(&*snap).unwrap();
    assert!(!advice.is_empty());
    assert!(advice.iter().all(|a| snap
        .history()
        .codebook()
        .iter()
        .any(|(_, f)| f.class == FeatureClass::Where && f.text == a.subject)));
    // And a concrete estimate matches ground truth on a hot table.
    let query = snap.query().unwrap().expect("non-empty history");
    let est = query.frequency(&logr::analytics::Pred::table("accounts")).unwrap();
    assert!(est > 0.0);
}

#[test]
fn readers_stay_consistent_while_a_writer_ingests_in_memory() {
    stress(Engine::builder().window(WINDOW).clusters(3).in_memory().unwrap());
}

#[test]
fn readers_stay_consistent_while_a_writer_ingests_durably() {
    // Durable + zero resident budget: snapshot reads reload spilled
    // shards from the store while the writer appends, persists, and
    // evicts — the full stack races on every close.
    let store = TempStore::new("engine-stress");
    stress(
        Engine::builder().window(WINDOW).clusters(3).resident_budget(0).open(store.path()).unwrap(),
    );
}
