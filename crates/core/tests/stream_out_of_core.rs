//! PR 3 acceptance: a streaming run whose resident shard budget is far
//! below the total shard payload produces **byte-identical** window
//! summaries, drift reports, and history summaries to an
//! unbounded-memory run — and its peak resident shard bytes respect the
//! budget at every observation point (after every close; bulk merges
//! transiently add at most one shard, which a mid-stream history summary
//! exercises too). A close that dies against the store wedges the stream.

use logr_cluster::vfs::default_vfs;
use logr_cluster::{Distance, SpillError};
use logr_core::{LogR, LogRSummary, StreamConfig, StreamSummarizer};
use logr_testkit::identical::{assert_summary_identical, assert_window_identical};
use logr_testkit::vfs::OpKind;
use logr_testkit::{FaultFs, TempStore};
use std::sync::Arc;

/// The history's `k`-mixture over the sharded matrix, as `logr::Engine`'s
/// snapshot summary computes it at the same boundary; `None` before any
/// distinct query was absorbed.
fn history_summary(s: &StreamSummarizer) -> Result<Option<LogRSummary>, SpillError> {
    if s.history().distinct_count() == 0 {
        return Ok(None);
    }
    let dist = s.shard_store().try_condensed(s.config().metric)?;
    Ok(Some(LogR::new(s.config().compressor_config()).compress_condensed(s.history(), dist)))
}

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
            assert_window_identical(&a, &b, &format!("window {}", a.index));
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
                (history_summary(&bounded).unwrap(), history_summary(&unbounded).unwrap());
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
    let (ha, hb) = (history_summary(&bounded).unwrap(), history_summary(&unbounded).unwrap());
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
        metric: Distance::Manhattan,
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
            assert_window_identical(&a, &b, &format!("window {}", a.index));
        }
    }
    assert!(bounded.spilled_shards() > 0);
    // Both parse each distinct statement exactly once (the cache is
    // orthogonal to the store).
    assert_eq!(bounded.statements_parsed(), unbounded.statements_parsed());
    let (ha, hb) = (history_summary(&bounded).unwrap(), history_summary(&unbounded).unwrap());
    assert_summary_identical(&ha.unwrap(), &hb.unwrap(), "sliding history");
}

/// 273 distinct shapes before the first repeat: a stream of these
/// appends a history shard at every close.
fn novel(i: u64) -> String {
    format!("SELECT c{} FROM t{} WHERE a{} = ?", i % 13, i % 3, i % 7)
}

#[test]
fn store_failure_wedges_the_summarizer() {
    // A close that dies against the spill store must leave the
    // summarizer refusing (typed error) rather than serving summaries
    // whose history log and shard store disagree.
    let fs = Arc::new(FaultFs::new());
    let mut s = StreamSummarizer::new(StreamConfig { window: 5, k: 2, ..StreamConfig::default() });
    s.spill_to_with(fs.clone(), "/stream-wedge", 0).unwrap();
    for i in 0..15 {
        s.try_ingest_record(&novel(i)).unwrap();
    }
    assert!(s.spilled_shards() > 0);
    // Appends never read the store, so the only way a close can die
    // against it is the eviction after the append (which only a close
    // that found new shapes performs): fail every shard write from
    // here on.
    fs.inject(OpKind::Write, "shard-", std::io::ErrorKind::PermissionDenied, usize::MAX);
    let mut failed = None;
    for i in 15..25 {
        match s.try_ingest_record(&novel(i)) {
            Ok(_) => {}
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    let err = failed.expect("a close that cannot evict must fail");
    assert!(matches!(err, SpillError::Io(_)), "{err}");
    // Wedged: every later entry point refuses with a typed error.
    assert!(matches!(s.try_ingest_record("SELECT a FROM t"), Err(SpillError::Corrupt(_))));
    assert!(matches!(s.try_flush(), Err(SpillError::Corrupt(_))));
    assert!(matches!(s.persist_shards(), Err(SpillError::Corrupt(_))));
}
