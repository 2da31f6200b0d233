//! PR 3 acceptance: a streaming run whose resident shard budget is far
//! below the total shard payload produces **byte-identical** window
//! summaries, drift reports, and history summaries to an
//! unbounded-memory run — and its peak resident shard bytes respect the
//! budget at every observation point (after every close; bulk merges
//! transiently add at most one shard, which `try_history_summary` mid-stream
//! exercises too).

use logr_cluster::testutil::TempStore;
use logr_cluster::vfs::default_vfs;
use logr_cluster::Distance;
use logr_core::{DriftReport, LogRSummary, StreamConfig, StreamSummarizer, WindowSummary};
/// A stream with genuinely growing distinct-query mass (so history shards
/// have real payloads): 400 distinct statement shapes over a shared set
/// of tables/columns, cycled twice.
fn statements() -> Vec<String> {
    (0..800u32)
        .map(|i| {
            let i = i % 400;
            match i % 4 {
                0 => {
                    format!("SELECT c{}, c{} FROM t{} WHERE a{} = ?", i % 23, i % 17, i % 7, i % 13)
                }
                1 => format!(
                    "SELECT c{} FROM t{} WHERE a{} = ? AND b{} = ?",
                    i % 29,
                    i % 7,
                    i % 13,
                    i % 11
                ),
                2 => format!("SELECT c{}, c{}, c{} FROM t{}", i % 23, i % 29, i % 31, i % 5),
                _ => format!("SELECT c{} FROM t{} WHERE a{} > ?", i % 31, i % 5, i % 13),
            }
        })
        .collect()
}

fn assert_drift_identical(a: &Option<DriftReport>, b: &Option<DriftReport>, ctx: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.overall.to_bits(), b.overall.to_bits(), "{ctx}: drift overall");
            assert_eq!(a.new_features, b.new_features, "{ctx}: new features");
            assert_eq!(a.vanished_features, b.vanished_features, "{ctx}: vanished features");
            assert_eq!(a.per_feature.len(), b.per_feature.len(), "{ctx}: per-feature len");
            for ((fa, da), (fb, db)) in a.per_feature.iter().zip(&b.per_feature) {
                assert_eq!(fa, fb, "{ctx}: per-feature id");
                assert_eq!(da.to_bits(), db.to_bits(), "{ctx}: per-feature divergence");
            }
        }
        _ => panic!("{ctx}: drift presence diverged"),
    }
}

fn assert_summary_identical(a: &LogRSummary, b: &LogRSummary, ctx: &str) {
    assert_eq!(a.clustering, b.clustering, "{ctx}: clustering");
    assert_eq!(a.error().to_bits(), b.error().to_bits(), "{ctx}: error");
    assert_eq!(a.total_verbosity(), b.total_verbosity(), "{ctx}: verbosity");
    let (ca, cb) = (a.mixture.components(), b.mixture.components());
    assert_eq!(ca.len(), cb.len(), "{ctx}: component count");
    for (i, (x, y)) in ca.iter().zip(cb).enumerate() {
        assert_eq!(x.entries, y.entries, "{ctx}: component {i} entries");
        assert_eq!(x.total, y.total, "{ctx}: component {i} total");
        assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{ctx}: component {i} weight");
        assert_eq!(x.error.to_bits(), y.error.to_bits(), "{ctx}: component {i} error");
        let (ma, mb) = (x.encoding.marginals(), y.encoding.marginals());
        assert_eq!(ma.len(), mb.len(), "{ctx}: component {i} marginal len");
        for (p, q) in ma.iter().zip(mb) {
            assert_eq!(p.to_bits(), q.to_bits(), "{ctx}: component {i} marginal");
        }
    }
}

fn assert_window_identical(a: &WindowSummary, b: &WindowSummary) {
    let ctx = format!("window {}", a.index);
    assert_eq!(a.index, b.index);
    assert_eq!(a.queries, b.queries, "{ctx}: queries");
    assert_eq!(a.distinct, b.distinct, "{ctx}: distinct");
    assert_eq!(a.new_distinct, b.new_distinct, "{ctx}: new distinct");
    assert_eq!(a.stable, b.stable, "{ctx}: stability verdict");
    assert_eq!(a.novelty.len(), b.novelty.len(), "{ctx}: novelty len");
    for (x, y) in a.novelty.iter().zip(&b.novelty) {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: novelty score");
    }
    assert_drift_identical(&a.drift, &b.drift, &ctx);
    assert_summary_identical(&a.summary, &b.summary, &ctx);
}

#[test]
fn bounded_memory_stream_is_byte_identical_and_respects_the_budget() {
    let store = TempStore::new("ooc-equiv");
    // Budget k ≪ total: the full history's shard payloads run to several
    // hundred KiB by the end (cross blocks grow with the history), while
    // the budget holds 64 KiB resident.
    const BUDGET: usize = 64 * 1024;
    let config = StreamConfig {
        window: 20,
        k: 3,
        metric: Distance::Hamming,
        baseline_windows: 3,
        ..StreamConfig::default()
    };
    let mut bounded = StreamSummarizer::new(config);
    bounded.spill_to_with(default_vfs(), store.path(), BUDGET).unwrap();
    let mut unbounded = StreamSummarizer::new(config);

    let mut peak_resident = 0usize;
    let mut closes = 0usize;
    for (n, sql) in statements().iter().enumerate() {
        let (a, b) =
            (bounded.try_ingest_record(sql).unwrap(), unbounded.try_ingest_record(sql).unwrap());
        assert_eq!(a.is_some(), b.is_some(), "close parity at statement {n}");
        if let (Some(a), Some(b)) = (a, b) {
            closes += 1;
            assert_window_identical(&a, &b);
            // The budget holds at every observation point.
            peak_resident = peak_resident.max(bounded.resident_shard_bytes());
            assert!(
                bounded.resident_shard_bytes() <= BUDGET,
                "window {}: resident {} exceeds budget {BUDGET}",
                a.index,
                bounded.resident_shard_bytes()
            );
        }
        // Mid-stream history summaries read across the resident/spilled
        // mix (reload-on-demand under the close path's nose).
        if n == 450 {
            let (ha, hb) =
                (bounded.try_history_summary().unwrap(), unbounded.try_history_summary().unwrap());
            assert_summary_identical(&ha.unwrap(), &hb.unwrap(), "mid-stream history");
        }
    }
    assert_eq!(closes, 40, "800 statements / window 20");
    // The first cycle's 20 windows each append a shard; the second cycle
    // finds no never-seen query and appends none, so the budget must
    // have forced out nearly all of the 20.
    assert!(
        bounded.spilled_shards() >= 15,
        "budget {BUDGET} must force most shards out (only {} of {} spilled)",
        bounded.spilled_shards(),
        bounded.shard_store().n_shards()
    );
    // The unbounded run really is unbounded — and much bigger than the
    // budget, so the comparison is meaningful.
    let unbounded_bytes = unbounded.resident_shard_bytes();
    assert!(
        unbounded_bytes > 2 * BUDGET,
        "total shard payload {unbounded_bytes} is not ≫ budget {BUDGET}; grow the workload"
    );
    assert!(peak_resident <= BUDGET);
    assert!(peak_resident > 0);

    // Final history summary over a almost-fully-spilled history.
    let (ha, hb) =
        (bounded.try_history_summary().unwrap(), unbounded.try_history_summary().unwrap());
    assert_summary_identical(&ha.unwrap(), &hb.unwrap(), "final history");

    // Flush parity for the tail (nothing buffered here, both agree).
    assert_eq!(bounded.try_flush().unwrap().is_some(), unbounded.try_flush().unwrap().is_some());
}

#[test]
fn bounded_sliding_stream_matches_too() {
    // Sliding windows stack the parse cache and the trim logic on top of
    // the store; the artifacts must still match byte for byte.
    let store = TempStore::new("ooc-slide");
    let config = StreamConfig {
        window: 30,
        slide: Some(10),
        k: 2,
        metric: Distance::Canberra,
        ..StreamConfig::default()
    };
    let mut bounded = StreamSummarizer::new(config);
    bounded.spill_to_with(default_vfs(), store.path(), 0).unwrap(); // only the pinned tail stays
    let mut unbounded = StreamSummarizer::new(config);
    for sql in statements().iter().take(200) {
        let (a, b) =
            (bounded.try_ingest_record(sql).unwrap(), unbounded.try_ingest_record(sql).unwrap());
        assert_eq!(a.is_some(), b.is_some());
        if let (Some(a), Some(b)) = (a, b) {
            assert_window_identical(&a, &b);
        }
    }
    assert!(bounded.spilled_shards() > 0);
    // Both parse each distinct statement exactly once (the cache is
    // orthogonal to the store).
    assert_eq!(bounded.statements_parsed(), unbounded.statements_parsed());
    let (ha, hb) =
        (bounded.try_history_summary().unwrap(), unbounded.try_history_summary().unwrap());
    assert_summary_identical(&ha.unwrap(), &hb.unwrap(), "sliding history");
}
