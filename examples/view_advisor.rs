//! Materialized-view selection from a compressed log (paper §2's second
//! application), through the [`logr::analytics`] facade.
//!
//! "The results of joins … are good candidates for materialization when
//! they appear frequently in the workload. Like index selection, view
//! selection … requires repeated frequency estimation over the workload" —
//! here the frequency of *table pairs co-occurring in the FROM clause*.
//! Pair co-occurrence is exactly where mixtures earn their keep: a single
//! naive encoding multiplies independent table marginals and hallucinates
//! joins that never happen, while the mixture's per-cluster estimates keep
//! anti-correlated workloads apart (§5). The single-encoding baseline
//! below is the same snapshot recompressed at K = 1 — a read-time choice
//! ([`logr::EngineSnapshot::summary_with`]), no second ingestion.
//!
//! Run with: `cargo run --release --example view_advisor`

use logr::analytics::{Advisor, Pred, SummaryView, ViewAdvisor, WorkloadQuery};
use logr::core::CompressionObjective;
use logr::feature::FeatureClass;
use logr::workload::{generate_usbank, UsBankConfig};
use logr::{Engine, Error, Record};

fn main() -> Result<(), Error> {
    let synthetic = generate_usbank(&UsBankConfig::default());
    // Ground truth for the comparison below — a real deployment never
    // builds this.
    let (log, _) = synthetic.ingest();

    // Fig. 2's lesson: this workload is diverse — it needs a generous
    // cluster count before join anti-correlations resolve.
    let engine = Engine::builder().window(1 << 21).clusters(48).in_memory()?;
    for (sql, count) in &synthetic.statements {
        engine.ingest(&Record::new(sql).times(*count))?;
    }
    engine.flush()?;
    let snapshot = engine.snapshot()?;
    println!(
        "workload: {} queries over {} tables",
        snapshot.history().total_queries(),
        snapshot.history().codebook().iter().filter(|(_, f)| f.class == FeatureClass::From).count()
    );

    // Candidate views: every pair of tables that the *summary* says
    // co-occurs, scored by estimated joint frequency — one facade call.
    let query = snapshot.query()?.expect("non-empty workload");
    let candidates: Vec<_> = query
        .cooccurrence(FeatureClass::From)?
        .into_iter()
        .filter(|c| c.estimated >= 1.0)
        .collect();

    // The K = 1 baseline, recompressed from the same snapshot at read
    // time, queried through the same typed surface.
    let single_summary =
        snapshot.summary_with(CompressionObjective::FixedK(1))?.expect("non-empty workload");
    let single_view = SummaryView::from_parts(
        single_summary,
        snapshot.history().codebook(),
        snapshot.history().total_queries(),
    );
    let single = WorkloadQuery::over(&single_view)?.expect("summary present");

    println!("\ntop join-pair frequencies (mixture vs single-encoding vs truth):");
    println!("{:<44} {:>12} {:>12} {:>12}", "candidate view", "mixture", "single", "true");
    let mut mixture_abs_err = 0.0;
    let mut single_abs_err = 0.0;
    for (i, c) in candidates.iter().enumerate() {
        let single_est = single.frequency(&Pred::joins(c.a.text.clone(), c.b.text.clone()))?;
        let truth = truth_for(&log, c);
        if i < 10 {
            let pair = format!("{} ⋈ {}", c.a.text, c.b.text);
            println!("{pair:<44} {:>12.0} {single_est:>12.0} {truth:>12.0}", c.estimated);
        }
        mixture_abs_err += (c.estimated - truth).abs();
        single_abs_err += (single_est - truth).abs();
    }
    println!(
        "\ntotal |estimate − truth| over {} candidate views: mixture {:.0}, single {:.0}",
        candidates.len(),
        mixture_abs_err,
        single_abs_err
    );
    println!(
        "mixture estimates are {:.1}× more accurate — anti-correlation captured (paper §5)",
        (single_abs_err / mixture_abs_err.max(1.0)).max(1.0)
    );

    // The advisor itself: the same co-occurrence ranking as shipped
    // library code, off the same snapshot any reader thread could hold.
    println!("\nadvisor picks (≥ 1% of workload):");
    for advice in ViewAdvisor::new(0.01).advise(&*snapshot)?.iter().take(5) {
        println!(
            "  CREATE MATERIALIZED VIEW … AS ({})   -- ~{:.1}% of queries",
            advice.subject,
            100.0 * advice.share
        );
    }
    Ok(())
}

/// True joint frequency, from the ground-truth log the analyst would not
/// have (demo only).
fn truth_for(log: &logr::feature::QueryLog, c: &logr::analytics::CoOccurrence) -> f64 {
    let ids: Vec<_> = [&c.a, &c.b].into_iter().filter_map(|f| log.codebook().get(f)).collect();
    log.support(&logr::feature::QueryVector::new(ids)) as f64
}
