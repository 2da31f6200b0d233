//! Quickstart: ingest a small SQL log through the [`logr::Engine`]
//! façade, query statistics from the summary, ask the index advisor, and
//! render the human-readable view.
//!
//! Batch compression is the degenerate stream: ingest everything, flush
//! the final window, read the history summary. The same engine, opened
//! on a directory instead of `in_memory()`, would persist every window
//! and resume bit-identically after a restart.
//!
//! Run with: `cargo run --example quickstart`

use logr::analytics::{Advisor, IndexAdvisor, Pred};
use logr::core::interpret::{render_mixture, RenderConfig};
use logr::{Engine, Error};

fn main() -> Result<(), Error> {
    // A toy production log: a hot messaging workload, a warm account
    // workload, and a rare-but-important report query (the kind sampling
    // would lose — the paper's motivating case).
    let engine = Engine::builder().window(1024).clusters(4).in_memory()?;
    for _ in 0..5_000 {
        engine.ingest_record(
            "SELECT id, body, sent_at FROM messages WHERE status = ? AND folder = ?",
        )?;
    }
    for _ in 0..2_500 {
        engine.ingest_record("SELECT id FROM messages WHERE status = ?")?;
    }
    for _ in 0..1_500 {
        engine.ingest_record("SELECT balance, branch FROM accounts WHERE owner = ?")?;
    }
    for _ in 0..12 {
        engine.ingest_record(
            "SELECT owner, sum(amount) FROM accounts, ledger \
             WHERE accounts.id = ledger.account_id AND posted_at >= ? GROUP BY owner",
        )?;
    }
    engine.flush()?;

    let snapshot = engine.snapshot()?;
    let summary = snapshot.summary()?.expect("non-empty workload");
    println!(
        "ingested {} queries ({} distinct after constant removal)",
        snapshot.total_queries(),
        snapshot.history().distinct_count()
    );
    println!(
        "summary: {} clusters, verbosity {}, reproduction error {:.4} nats",
        summary.mixture.k(),
        summary.total_verbosity(),
        summary.error()
    );

    // Aggregate statistics straight from the summary, through typed,
    // composable predicates (unknown features would be typed errors, not
    // silent zeros).
    let query = snapshot.query()?.expect("non-empty workload");
    for (label, pred) in [
        ("messages.status = ?", Pred::table("messages").and(Pred::column_eq("status"))),
        ("accounts queried", Pred::table("accounts")),
        ("rare ledger join", Pred::joins("accounts", "ledger")),
    ] {
        let est = query.frequency(&pred)?;
        println!("est[{label}] ≈ {est:.1} queries");
    }

    // The §2 index-advisor question, answered without touching the log.
    println!("\nadvisor picks (predicate share ≥ 20% of workload):");
    for pick in IndexAdvisor::new(0.20).advise(&*snapshot)? {
        println!(
            "  CREATE INDEX ON (…{}…)   -- appears in {:.0}% of queries",
            pick.subject.split_whitespace().next().unwrap_or(&pick.subject),
            100.0 * pick.share
        );
    }

    // The interpretable view (paper Fig. 1 / Fig. 10).
    println!(
        "\n{}",
        render_mixture(&summary.mixture, snapshot.history().codebook(), &RenderConfig::default())
    );
    Ok(())
}
