//! Online workload monitoring / intrusion detection (paper §2 and §5),
//! on the [`logr::Engine`] façade.
//!
//! Pattern mixture encodings capture anti-correlations between workloads,
//! which is what lets them flag "queries that don't belong". This example
//! runs the full always-on loop: an engine ingests the query stream one
//! statement at a time, closes tumbling windows, and emits per-window
//! mixture summaries plus drift reports and novelty scores against a
//! rolling baseline — no re-clustering of the whole log ever happens. An
//! exfiltration-style scan is injected into the final window and must be
//! flagged by
//!
//! 1. **window-level feature drift** (new features + JS divergence),
//! 2. **per-query novelty** (nearest-baseline distance), and
//! 3. **per-query typicality** against the engine's history summary.
//!
//! Run with: `cargo run --release --example intrusion_detection`

use logr::cluster::Distance;
use logr::core::{query_typicality, WindowSummary};
use logr::feature::{LogIngest, QueryVector};
use logr::workload::{generate_pocketdata, PocketDataConfig};
use logr::{Engine, Error, Record};

fn report_window(w: &WindowSummary) {
    let verdict = if w.stable { "stable" } else { "⚠ SHIFTED" };
    let (overall, new_feats) =
        w.drift.as_ref().map_or((0.0, 0), |d| (d.overall, d.new_features.len()));
    println!(
        "window {:>2}: {:>5} queries, {:>3} distinct ({:>3} new) | k={} error={:.3} | \
         drift={overall:.5} new_features={new_feats} max_novelty={:.2} | {verdict}",
        w.index,
        w.queries,
        w.distinct,
        w.new_distinct,
        w.summary.mixture.k(),
        w.summary.error(),
        w.max_novelty(),
    );
    if let Some(drift) = &w.drift {
        for f in drift.new_features.iter().take(3) {
            println!("            new feature: {f}");
        }
    }
}

fn main() -> Result<(), Error> {
    // The app's normal (machine-generated) workload, replayed as a stream.
    let synthetic = generate_pocketdata(&PocketDataConfig::default());
    let injected = [
        "SELECT text, sms_raw_sender, timestamp FROM messages", // full dump: no predicate
        "SELECT setting_key, setting_value FROM account_settings WHERE setting_value LIKE ?",
        "SELECT first_name, full_name, profile_id FROM participants WHERE profile_id > ?",
    ];

    let engine = Engine::builder()
        .window(400)
        .baseline_windows(3)
        .clusters(4)
        .metric(Distance::Hamming)
        .drift_tolerance(1e-3)
        .in_memory()?;

    println!("streaming the workload in tumbling windows of 400 queries:");
    let mut windows: Vec<std::sync::Arc<WindowSummary>> = Vec::new();

    // Several rounds of normal traffic stream through continuously and
    // build up the rolling baseline…
    for _ in 0..4 {
        for (sql, count) in synthetic.statements.iter().take(120) {
            if let Some(w) = engine.ingest(&Record::new(sql).times(*count % 7 + 1))? {
                report_window(&w);
                windows.push(w);
            }
        }
    }

    // …the pre-attack history is what incoming traffic will be judged
    // against: a snapshot pins it immutably (a monitoring thread would
    // hold exactly this view while ingestion continues)…
    let pre_attack = engine.snapshot()?;
    let history_snapshot = pre_attack.summary()?.expect("history is non-empty");
    let history_log = pre_attack.history();

    // …then the scan runs hot inside otherwise-normal traffic.
    for (sql, count) in synthetic.statements.iter().take(60) {
        if let Some(w) = engine.ingest(&Record::new(sql).times(*count % 7 + 1))? {
            report_window(&w);
            windows.push(w);
        }
    }
    for sql in injected {
        if let Some(w) = engine.ingest(&Record::new(sql).times(40))? {
            report_window(&w);
            windows.push(w);
        }
    }
    if let Some(w) = engine.flush()? {
        report_window(&w);
        windows.push(w);
    }

    let attack = windows.last().expect("at least one window closed");
    assert!(!attack.stable, "the injected window must be flagged");
    println!(
        "\nverdict: window {} flagged — {} new features, max novelty {:.2}",
        attack.index,
        attack.drift.as_ref().map_or(0, |d| d.new_features.len()),
        attack.max_novelty(),
    );

    // Rank probe queries by typicality under the pre-attack history
    // summary (built from the sharded condensed matrix — no pairwise
    // distance was ever recomputed across windows).
    println!(
        "\npre-attack history: {} queries, {} distinct, summarized at k={} (error {:.3}); \
         post-attack history holds {} queries",
        history_log.total_queries(),
        history_log.distinct_count(),
        history_snapshot.mixture.k(),
        history_snapshot.error(),
        engine.snapshot()?.history().total_queries(),
    );

    let normal: Vec<String> =
        synthetic.statements.iter().take(6).map(|(sql, _)| sql.clone()).collect();
    let mut scored: Vec<(String, f64)> = Vec::new();
    for sql in normal.iter().map(String::as_str).chain(injected) {
        let mut probe = LogIngest::new();
        probe.ingest(sql);
        let (probe_log, _) = probe.finish();
        // Map the probe's features into the pre-attack codebook; features
        // the stream had never seen are maximally suspicious.
        let mut ids = Vec::new();
        let mut unknown = 0usize;
        for (_, feature) in probe_log.codebook().iter() {
            match history_log.codebook().get(feature) {
                Some(id) => ids.push(id),
                None => unknown += 1,
            }
        }
        let vector: QueryVector = ids.into_iter().collect();
        let score =
            query_typicality(&history_snapshot.mixture, &vector) * 0.5f64.powi(unknown as i32);
        scored.push((sql.to_string(), score));
    }

    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("\nqueries ranked by typicality (lowest = most anomalous):");
    for (sql, score) in &scored {
        let flag = if *score < 5e-2 { "⚠ ANOMALOUS" } else { "  normal   " };
        let display: String = sql.chars().take(88).collect();
        println!("{flag}  score={score:9.2e}  {display}");
    }
    let anomalies = scored.iter().filter(|(_, s)| *s < 5e-2).count();
    println!("flagged {anomalies} of {} probed queries", scored.len());
    Ok(())
}
