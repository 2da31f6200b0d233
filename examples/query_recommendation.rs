//! Query recommendation from a compressed log (paper §1/§9.1: "automated
//! analysis of database access logs is critical for … query
//! recommendation"), through the [`logr::analytics`] facade.
//!
//! Recommenders like QueRIE and SnipSuggest score candidate query fragments
//! by how often they co-occur with what the user has typed so far. Those
//! co-occurrence counts are exactly the pattern marginals a LogR summary
//! estimates: [`logr::analytics::QueryRecommender`] featurizes the partial
//! query, then ranks every other feature `f` by the mixture estimate of
//! `p(f | partial) = est[partial ∪ {f}] / est[partial]`.
//!
//! Run with: `cargo run --release --example query_recommendation`

use logr::analytics::{Advisor, Pred, QueryRecommender};
use logr::feature::FeatureClass;
use logr::workload::{generate_pocketdata, PocketDataConfig};
use logr::{Engine, Error, Record};

fn main() -> Result<(), Error> {
    // Historical workload → summary (this is all the recommender keeps).
    let synthetic = generate_pocketdata(&PocketDataConfig::default());
    let engine = Engine::builder().window(1 << 21).clusters(8).in_memory()?;
    for (sql, count) in &synthetic.statements {
        engine.ingest(&Record::new(sql).times(*count))?;
    }
    engine.flush()?;
    let snapshot = engine.snapshot()?;
    let summary = snapshot.summary()?.expect("non-empty workload");
    println!(
        "recommender state: {} clusters, {} stored marginals (log had {} queries)\n",
        summary.mixture.k(),
        summary.total_verbosity(),
        snapshot.history().total_queries()
    );

    // The user has typed a partial query.
    let partial_sql = "SELECT sms_type FROM messages WHERE status = ?";
    println!("partial query: {partial_sql}");

    let query = snapshot.query()?.expect("non-empty workload");
    let base = query.frequency(
        &Pred::column("sms_type").and(Pred::table("messages")).and(Pred::column_eq("status")),
    )?;
    println!("fragment matches ≈ {base:.0} historical queries\n");

    // Rank candidate continuations by conditional probability — the
    // advisor runs off the same snapshot any reader thread could hold.
    let recs = QueryRecommender::new(partial_sql, 0.10).advise(&*snapshot)?;
    if recs.is_empty() {
        println!("fragment unseen in the workload — nothing to recommend");
        return Ok(());
    }

    println!("suggested continuations (p(feature | partial) ≥ 10%):");
    for advice in recs.iter().take(12) {
        let kind = match advice.features[0].class {
            FeatureClass::Select => "add to SELECT",
            FeatureClass::Where => "add to WHERE ",
            FeatureClass::From => "join table   ",
            _ => "extend with  ",
        };
        println!("  {kind}  {:<42} ({:.0}%)", advice.subject, advice.share * 100.0);
    }

    // Sanity: compare the top suggestion's conditional against ground
    // truth (demo only — the recommender never needs the raw log).
    let (log, _) = synthetic.ingest();
    if let Some(top) = recs.first() {
        let partial_ids: Vec<_> = [
            logr::feature::Feature::select("sms_type"),
            logr::feature::Feature::from_table("messages"),
            logr::feature::Feature::where_atom("status = ?"),
        ]
        .iter()
        .filter_map(|f| log.codebook().get(f))
        .collect();
        let partial: logr::feature::QueryVector = partial_ids.iter().copied().collect();
        let mut extended_ids = partial_ids;
        extended_ids
            .push(log.codebook().get(&top.features[0]).expect("recommended feature exists"));
        let extended: logr::feature::QueryVector = extended_ids.into_iter().collect();
        let true_p = log.support(&extended) as f64 / log.support(&partial) as f64;
        println!(
            "\ntop suggestion check: estimated {:.0}% vs true {:.0}%",
            top.share * 100.0,
            true_p * 100.0
        );
    }
    Ok(())
}
