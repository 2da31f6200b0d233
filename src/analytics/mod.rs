//! Unified workload-analytics query API over compressed summaries.
//!
//! One LogR summary answers *many* downstream analyses (paper §1, §2,
//! §9.1): index selection, materialized-view selection, query
//! recommendation, monitoring. This module is the typed, composable read
//! surface those consumers share:
//!
//! * [`Pred`] + [`WorkloadQuery`] — class-aware predicates
//!   ([`Pred::table`], [`Pred::column_eq`], [`Pred::joins`],
//!   `and`/`or`/`not`) evaluated against any summary:
//!   [`WorkloadQuery::frequency`], [`WorkloadQuery::conditional`],
//!   [`WorkloadQuery::cooccurrence`], [`WorkloadQuery::top_k`]. Unknown
//!   features are typed [`crate::Error::UnknownFeature`] errors, never
//!   silent zeros; negations estimate complements through the mixture.
//! * [`Advisor`] — the pluggable analytic family, consuming any
//!   [`WorkloadView`] (an [`crate::EngineSnapshot`], or a batch
//!   [`SummaryView`]). Shipped: [`IndexAdvisor`], [`ViewAdvisor`],
//!   [`QueryRecommender`], [`DriftAdvisor`] — all emitting DBA-facing
//!   report text via [`Advice::render`] / [`render_report`], through
//!   the same `logr_core::interpret` renderer as summary output.
//!
//! ## Quickstart
//!
//! ```
//! use logr::analytics::{Advisor, IndexAdvisor, Pred, ViewAdvisor};
//! use logr::Engine;
//!
//! let engine = Engine::builder().clusters(2).in_memory()?;
//! for _ in 0..900 {
//!     engine.ingest_record("SELECT id, body FROM messages WHERE status = ?")?;
//! }
//! for _ in 0..100 {
//!     engine.ingest_record("SELECT balance FROM accounts, ledger WHERE owner = ?")?;
//! }
//! engine.flush()?;
//! let snapshot = engine.snapshot()?;
//!
//! // Typed, composable statistics from the summary (never the raw log).
//! let query = snapshot.query()?.expect("non-empty workload");
//! let hot = query.frequency(&Pred::table("messages").and(Pred::column_eq("status")))?;
//! assert!((hot - 900.0).abs() < 1.0);
//! let either = query.share(&Pred::table("accounts").or(Pred::table("messages")))?;
//! assert!(either > 0.99);
//!
//! // The same snapshot serves every advisor in the family.
//! let indexes = IndexAdvisor::new(0.5).advise(&*snapshot)?;
//! assert!(indexes.iter().any(|a| a.subject == "status = ?"));
//! let views = ViewAdvisor::new(0.05).advise(&*snapshot)?;
//! assert!(views.iter().any(|a| a.subject == "accounts ⋈ ledger"));
//! # Ok::<(), logr::Error>(())
//! ```

mod advisor;
mod query;

pub use advisor::{
    render_report, Advice, AdviceKind, Advisor, DriftAdvisor, IndexAdvisor, QueryRecommender,
    ViewAdvisor,
};
pub use query::{CoOccurrence, Pred, RankedFeature, SummaryView, WorkloadQuery, WorkloadView};
