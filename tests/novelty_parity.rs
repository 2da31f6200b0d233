//! Stream-level novelty parity: every `WindowSummary::novelty` a
//! `StreamSummarizer` emits must equal, bit for bit, a full scan of every
//! window query against every point of the baseline the close judged it
//! by. `novelty_scores` answers a window query the baseline holds by
//! lookup and scans only the rest; this pins that shortcut to the scan
//! across real closes — tumbling and sliding SQL streams over both
//! workload corpora and a template-mined service log — where the
//! baseline's codebook and the window's differ and rotate every close.

use logr::cluster::{Distance, PointSet};
use logr::core::{StreamConfig, StreamSummarizer, WindowSummary};
use logr::feature::{BitVec, QueryLog};
use logr::workload::{generate_pocketdata, generate_usbank, PocketDataConfig, UsBankConfig};
use logr::{Record, SourceConfig};

/// The reference: every window vector probes every baseline point.
/// Window features are matched to baseline ids by feature identity; a
/// feature the baseline lacks, or a raw id past the window's codebook,
/// counts as unknown.
fn novelty_scan(baseline: &QueryLog, window: &QueryLog, metric: Distance) -> Vec<f64> {
    if baseline.distinct_count() == 0 || window.distinct_count() == 0 {
        return Vec::new();
    }
    let points = PointSet::from_log(baseline);
    let nf = baseline.num_features();
    window
        .entries()
        .iter()
        .map(|(v, _)| {
            let mut probe = BitVec::zeros(nf);
            let mut unknown = 0usize;
            for id in v.iter() {
                let feature =
                    (id.index() < window.codebook().len()).then(|| window.codebook().feature(id));
                match feature.and_then(|f| baseline.codebook().get(f)) {
                    Some(base_id) => probe.set(base_id.index()),
                    None => unknown += 1,
                }
            }
            (0..points.len())
                .map(|i| metric.of_mismatches(probe.xor_count(points.point(i)) + unknown, nf))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// What one stream's closes scored: closes checked, window queries the
/// baseline held (score 0), and window queries it did not.
#[derive(Debug, Default)]
struct Tally {
    closes: usize,
    held: usize,
    novel: usize,
}

/// Drive `records` through a summarizer, holding the baseline before
/// every ingest, and check each close's novelty against the scan over
/// that baseline and the close's own window log.
fn check_stream(config: StreamConfig, records: impl IntoIterator<Item = String>) -> Tally {
    let metric = config.metric;
    let mut stream = StreamSummarizer::new(config);
    let mut tally = Tally::default();
    let mut check = |baseline: &QueryLog, summary: &WindowSummary| {
        assert_eq!(
            bits(&summary.novelty),
            bits(&novelty_scan(baseline, &summary.log, metric)),
            "window {} under {metric:?}",
            summary.index
        );
        tally.closes += 1;
        tally.held += summary.novelty.iter().filter(|&&s| s == 0.0).count();
        tally.novel += summary.novelty.iter().filter(|&&s| s > 0.0).count();
    };
    for text in records {
        let baseline = stream.baseline_arc();
        if let Some(summary) = stream.try_ingest(&Record::new(text)).unwrap() {
            check(&baseline, &summary);
        }
    }
    let baseline = stream.baseline_arc();
    if let Some(summary) = stream.try_flush().unwrap() {
        check(&baseline, &summary);
    }
    tally
}

/// `n` statements drawn from `statements` with a skew toward the front
/// of the list (the min of two xorshift draws), so most window queries
/// recur across windows and a tail of rare ones does not.
fn skewed_draws(statements: &[(String, u64)], n: usize, mut state: u64) -> Vec<String> {
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % statements.len() as u64) as usize
    };
    (0..n).map(|_| statements[next().min(next())].0.clone()).collect()
}

fn assert_both_paths(tally: &Tally) {
    assert!(tally.closes >= 5, "{tally:?}");
    assert!(tally.held > 0, "no window query was held by its baseline: {tally:?}");
    assert!(tally.novel > 0, "every window query was held by its baseline: {tally:?}");
}

#[test]
fn sql_streams_match_the_scan_over_pocketdata() {
    let statements = generate_pocketdata(&PocketDataConfig::small(7)).statements;
    let records = skewed_draws(&statements, 900, 0x9e37_79b9_7f4a_7c15);
    let tumbling = check_stream(
        StreamConfig { window: 100, k: 3, metric: Distance::Hamming, ..StreamConfig::default() },
        records.clone(),
    );
    assert_both_paths(&tumbling);
    let sliding = check_stream(
        StreamConfig {
            window: 120,
            slide: Some(40),
            k: 3,
            metric: Distance::Manhattan,
            ..StreamConfig::default()
        },
        records,
    );
    assert_both_paths(&sliding);
}

#[test]
fn sql_streams_match_the_scan_over_usbank() {
    let statements = generate_usbank(&UsBankConfig::small(7)).statements;
    let records = skewed_draws(&statements, 900, 0x2545_f491_4f6c_dd1d);
    let tumbling = check_stream(
        StreamConfig { window: 100, k: 3, metric: Distance::Euclidean, ..StreamConfig::default() },
        records.clone(),
    );
    assert_both_paths(&tumbling);
    let sliding = check_stream(
        StreamConfig {
            window: 120,
            slide: Some(40),
            k: 3,
            metric: Distance::Manhattan,
            ..StreamConfig::default()
        },
        records,
    );
    assert_both_paths(&sliding);
}

#[test]
fn template_stream_matches_the_scan() {
    // Four recurring service-log shapes, one whose identifier is unique
    // per line, and an incident shape that appears only late.
    let line = |i: u64| match i % 5 {
        0 => format!("user u{} logged in from 10.0.{}.{}", i % 97, i % 16, i % 251),
        1 => format!("GET /api/v2/orders/{} took {} ms", 1000 + i % 500, 3 + i % 40),
        2 => format!("cache shard {} hit ratio 0.{}", i % 8, 80 + i % 19),
        3 => format!("request r-{i} queued behind {} others", i % 7),
        _ if i > 600 => format!("upstream timeout contacting 192.168.4.{} after {} ms", i % 9, i),
        _ => format!("scan of /var/data/seg-{}.db finished in {} ms", i % 12, 10 + i % 90),
    };
    let tally = check_stream(
        StreamConfig {
            window: 100,
            k: 3,
            metric: Distance::Minkowski(3.0),
            source: SourceConfig::template(),
            ..StreamConfig::default()
        },
        (0..900).map(line),
    );
    assert_both_paths(&tally);
}

#[test]
fn injected_atoms_on_held_queries_match_the_scan() {
    // Late windows append a never-seen atom to queries the baseline
    // holds: the known features alone spell a baseline entry, so only
    // the unknown atom keeps such a query off the lookup path.
    let line = |i: u64| {
        let base = format!("SELECT c{}, d FROM t{} WHERE a = ?", i % 6, i % 2);
        if i > 300 && i.is_multiple_of(3) {
            format!("{base} AND leak{} = ?", i % 4)
        } else {
            base
        }
    };
    let tally = check_stream(
        StreamConfig { window: 50, k: 2, metric: Distance::Hamming, ..StreamConfig::default() },
        (0..600).map(line),
    );
    assert_both_paths(&tally);
}
