//! The pluggable advisor family: one trait, many workload analytics.
//!
//! The paper's premise (§1, §2, §9.1) is that a single compressed summary
//! serves *many* downstream consumers — index selection, materialized-view
//! selection, query recommendation, monitoring. Each consumer is an
//! [`Advisor`]: a strategy object that reads a [`WorkloadView`] (an
//! [`crate::EngineSnapshot`] or a batch [`SummaryView`](super::SummaryView))
//! and returns ranked [`Advice`]. Because views are immutable, any number
//! of advisors run concurrently with ingestion off the same snapshot.
//!
//! Three advisors ship:
//!
//! * [`IndexAdvisor`] — the §2 lead application: WHERE predicates whose
//!   estimated workload share clears a threshold;
//! * [`ViewAdvisor`] — materialized-view selection: FROM-pair
//!   co-occurrence through the mixture, which keeps anti-correlated
//!   workloads apart where a single naive encoding hallucinates joins (§5);
//! * [`QueryRecommender`] — QueRIE/SnipSuggest-style ranking of query
//!   continuations by conditional marginal `p(f | partial)` (§9.1).

use super::query::WorkloadView;
use crate::error::Error;
use logr_core::interpret::{render_ranked, RenderConfig};
use logr_core::{DriftReport, LogRSummary};
use logr_feature::{Feature, FeatureClass, LogIngest, QueryVector};
use std::sync::Arc;

/// What kind of action a piece of advice proposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdviceKind {
    /// Create an index covering a hot WHERE predicate.
    Index,
    /// Materialize a frequently co-occurring join.
    MaterializedView,
    /// Extend a partial query with a likely continuation.
    Recommendation,
    /// A workload-drift alarm: the monitoring window diverged from the
    /// baseline beyond tolerance.
    Drift,
}

/// One ranked advisor pick, estimated entirely from the summary (the raw
/// log is never consulted).
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// What the advisor proposes.
    pub kind: AdviceKind,
    /// The proposal's subject: a predicate's canonical text
    /// ([`AdviceKind::Index`]), `"a ⋈ b"` ([`AdviceKind::MaterializedView`]),
    /// or the suggested feature's text ([`AdviceKind::Recommendation`]).
    pub subject: String,
    /// The concrete workload features behind the subject (one predicate,
    /// two joined tables, one suggested feature) — typed access for
    /// callers that render or act on the advice.
    pub features: Vec<Feature>,
    /// Estimated queries benefiting: the predicate's / join pair's /
    /// extended fragment's estimated occurrence count.
    pub estimated: f64,
    /// The advisor's ranking signal in `[0, 1]`: share of the
    /// *summarized* workload ([`WorkloadView::summarized_queries`]) for
    /// index and view advice, conditional probability `p(f | partial)`
    /// for recommendations.
    pub share: f64,
}

impl Advice {
    /// One DBA-facing report line, rendered through
    /// [`logr_core::interpret::render_ranked`] so advisor reports share
    /// the summary renderer's conventions exactly — the same quartile
    /// shade glyph and `[NN.N%]` annotation Fig. 1-style summaries use.
    /// The action verb comes from [`Advice::kind`]; the percentage is
    /// [`Advice::share`] (for drift picks: divergence over the `ln 2`
    /// ceiling).
    pub fn render(&self) -> String {
        let action = match self.kind {
            AdviceKind::Index => format!("index {}", self.subject),
            AdviceKind::MaterializedView => format!("materialize {}", self.subject),
            AdviceKind::Recommendation => format!("extend with {}", self.subject),
            AdviceKind::Drift => format!("drift: {}", self.subject),
            // `AdviceKind` is non_exhaustive for wire evolution; an
            // unmapped kind still renders its subject.
            #[allow(unreachable_patterns)]
            _ => self.subject.clone(),
        };
        // Advice already cleared its advisor's threshold: render every
        // line (no second `min_marginal` cut here).
        render_ranked(
            &[(action, self.share)],
            &RenderConfig { min_marginal: 0.0, ..RenderConfig::default() },
        )
    }
}

/// A whole advisor report as DBA-facing text: one [`Advice::render`]
/// line per pick, in the advisor's ranking order. Empty advice renders
/// the literal line `"(no advice)"` so piping a report somewhere never
/// produces silent emptiness.
pub fn render_report(advice: &[Advice]) -> String {
    if advice.is_empty() {
        return "(no advice)".to_owned();
    }
    advice.iter().map(|a| a.render()).collect::<Vec<_>>().join("\n")
}

/// A workload analytic over a compressed summary. Implementations are
/// cheap value objects configured at construction; [`Advisor::advise`]
/// reads any [`WorkloadView`] and returns ranked picks. An empty view
/// (nothing summarized yet) yields empty advice, not an error.
pub trait Advisor {
    /// Short stable name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Rank this advisor's picks against one workload view.
    fn advise(&self, view: &dyn WorkloadView) -> Result<Vec<Advice>, Error>;
}

/// Reject thresholds that are not probabilities (NaN included) before
/// they silently produce nonsense rankings.
fn validate_share(value: f64, what: &'static str) -> Result<(), Error> {
    if !(0.0..=1.0).contains(&value) {
        return Err(Error::Config { detail: what });
    }
    Ok(())
}

/// The shared advisor preamble: a validated view, or `None` advice-wise
/// when nothing has been summarized yet.
fn summary_and_total(view: &dyn WorkloadView) -> Result<Option<(Arc<LogRSummary>, f64)>, Error> {
    let Some(summary) = view.summary()? else { return Ok(None) };
    let total = view.summarized_queries() as f64;
    if total == 0.0 {
        return Ok(None);
    }
    Ok(Some((summary, total)))
}

/// Index selection (paper §2's lead application): every WHERE predicate
/// whose estimated share of the workload is at least `min_share`,
/// descending by estimated count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexAdvisor {
    /// Minimum workload share for a predicate to be advised.
    pub min_share: f64,
}

impl IndexAdvisor {
    /// Advisor keeping predicates at or above `min_share` (validated as a
    /// probability when [`Advisor::advise`] runs).
    pub fn new(min_share: f64) -> IndexAdvisor {
        IndexAdvisor { min_share }
    }
}

impl Advisor for IndexAdvisor {
    fn name(&self) -> &'static str {
        "index"
    }

    fn advise(&self, view: &dyn WorkloadView) -> Result<Vec<Advice>, Error> {
        validate_share(self.min_share, "min_share must be a probability in [0, 1]")?;
        let Some((summary, total)) = summary_and_total(view)? else { return Ok(Vec::new()) };
        let mut picks = Vec::new();
        for (id, feature) in view.codebook().iter() {
            if feature.class != FeatureClass::Where {
                continue;
            }
            let estimated = summary.estimate_count(&QueryVector::new(vec![id]));
            let share = estimated / total;
            if share >= self.min_share {
                picks.push(Advice {
                    kind: AdviceKind::Index,
                    subject: feature.text.clone(),
                    features: vec![feature.clone()],
                    estimated,
                    share,
                });
            }
        }
        picks.sort_by(|a, b| b.estimated.total_cmp(&a.estimated).then(a.subject.cmp(&b.subject)));
        Ok(picks)
    }
}

/// Materialized-view selection (paper §2's second application): every
/// pair of FROM tables the summary says co-occur in at least `min_share`
/// of the workload, descending by estimated joint frequency. Pair
/// estimates go through the mixture's per-cluster marginals, so
/// anti-correlated workloads don't hallucinate joins (§5); pairs
/// estimating under one query are noise-floored away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewAdvisor {
    /// Minimum workload share for a join pair to be advised.
    pub min_share: f64,
}

impl ViewAdvisor {
    /// Advisor keeping join pairs at or above `min_share` (validated as a
    /// probability when [`Advisor::advise`] runs).
    pub fn new(min_share: f64) -> ViewAdvisor {
        ViewAdvisor { min_share }
    }
}

impl Advisor for ViewAdvisor {
    fn name(&self) -> &'static str {
        "view"
    }

    fn advise(&self, view: &dyn WorkloadView) -> Result<Vec<Advice>, Error> {
        validate_share(self.min_share, "min_share must be a probability in [0, 1]")?;
        let Some((summary, total)) = summary_and_total(view)? else { return Ok(Vec::new()) };
        let tables: Vec<_> = view
            .codebook()
            .iter()
            .filter(|(_, f)| f.class == FeatureClass::From)
            .map(|(id, _)| id)
            .collect();
        let mut picks: Vec<Advice> = summary
            .estimate_pair_counts(&tables)
            .into_iter()
            .filter(|&(_, _, estimated)| estimated >= 1.0)
            .map(|(a, b, estimated)| {
                let (fa, fb) = (view.codebook().feature(a), view.codebook().feature(b));
                Advice {
                    kind: AdviceKind::MaterializedView,
                    subject: format!("{} ⋈ {}", fa.text, fb.text),
                    features: vec![fa.clone(), fb.clone()],
                    estimated,
                    share: estimated / total,
                }
            })
            .collect();
        picks.sort_by(|a, b| b.estimated.total_cmp(&a.estimated));
        picks.retain(|p| p.share >= self.min_share);
        Ok(picks)
    }
}

/// Query recommendation (paper §1/§9.1): given the SQL fragment a user
/// has typed so far, rank every codebook feature `f` by the conditional
/// marginal `p(f | partial) = est[partial ∪ {f}] / est[partial]`,
/// keeping suggestions strictly above `min_conditional` — the scoring
/// loop of recommenders like QueRIE and SnipSuggest, answered from the
/// summary alone.
///
/// Fragment features the workload has never seen are skipped (a partial
/// query may legitimately reference novel columns); if nothing resolves,
/// or the resolved fragment estimates zero, there is nothing to condition
/// on and the advice is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecommender {
    /// The user's partial query, as SQL text.
    pub partial_sql: String,
    /// Minimum conditional probability for a suggestion (strict).
    pub min_conditional: f64,
}

impl QueryRecommender {
    /// Recommender for one partial query (threshold validated as a
    /// probability when [`Advisor::advise`] runs).
    pub fn new(partial_sql: impl Into<String>, min_conditional: f64) -> QueryRecommender {
        QueryRecommender { partial_sql: partial_sql.into(), min_conditional }
    }

    /// The fragment's features resolved against `view`'s codebook
    /// (unknown features skipped — see the type docs).
    fn partial_vector(&self, view: &dyn WorkloadView) -> QueryVector {
        let mut probe = LogIngest::new();
        probe.ingest(&self.partial_sql);
        let (probe_log, _) = probe.finish();
        let mut ids = Vec::new();
        for (_, feature) in probe_log.codebook().iter() {
            if let Some(id) = view.codebook().get(feature) {
                ids.push(id);
            }
        }
        QueryVector::new(ids)
    }
}

impl Advisor for QueryRecommender {
    fn name(&self) -> &'static str {
        "recommend"
    }

    fn advise(&self, view: &dyn WorkloadView) -> Result<Vec<Advice>, Error> {
        validate_share(self.min_conditional, "min_conditional must be a probability in [0, 1]")?;
        let Some((summary, _)) = summary_and_total(view)? else { return Ok(Vec::new()) };
        let partial = self.partial_vector(view);
        if partial.is_empty() {
            return Ok(Vec::new());
        }
        let base = summary.estimate_count(&partial);
        let picks = summary
            .rank_continuations(&partial, self.min_conditional)
            .into_iter()
            // Summaries over raw-vector logs can span feature ids beyond
            // the codebook; only named features can be suggested.
            .filter(|(id, _)| id.index() < view.codebook().len())
            .map(|(id, conditional)| {
                let feature = view.codebook().feature(id);
                Advice {
                    kind: AdviceKind::Recommendation,
                    subject: feature.text.clone(),
                    features: vec![feature.clone()],
                    estimated: conditional * base,
                    share: conditional,
                }
            })
            .collect();
        Ok(picks)
    }
}

/// Drift alarms in advisor shape (paper §2 "Online Database Monitoring"):
/// the window drift report every [`crate::Engine`] close already computes,
/// surfaced through the same `advise()` contract as index and view advice
/// so monitoring consumers (dashboards, the `logr-server` wire protocol)
/// need exactly one advisory surface.
///
/// When the view's latest [`DriftReport`](logr_core::DriftReport) is
/// stable at `tolerance` ([`logr_core::DriftReport::is_stable`]) — or the
/// view has no drift at all, e.g. a batch summary — the advice is empty.
/// Otherwise the picks are, in order:
///
/// 1. one **aggregate** alarm, subject `"workload drift"`, whose
///    `estimated` is the report's mean per-feature JS divergence (nats);
/// 2. one alarm per **new feature** (never seen in the baseline — the
///    highest-signal injection events). Their divergence is not itemized
///    in the report, so they carry the Bernoulli-divergence ceiling
///    `ln 2`, ranking above any baseline feature;
/// 3. one alarm per **baseline feature** whose itemized divergence
///    exceeds `tolerance`, descending (the report's order).
///
/// For every drift pick, `estimated` is a JS divergence in nats (not a
/// query count) and `share` is that divergence normalized by the `ln 2`
/// ceiling into the usual `[0, 1]` ranking signal. Baseline feature ids
/// resolve through [`WorkloadView::baseline_codebook`]; ids the current
/// baseline no longer carries render as `"feature #<id>"` with empty
/// `features`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAdvisor {
    /// Divergence tolerance in nats; alarms are raised only above it.
    pub tolerance: f64,
}

impl DriftAdvisor {
    /// Advisor alarming when drift exceeds `tolerance` (validated as a
    /// finite non-negative divergence when [`Advisor::advise`] runs).
    pub fn new(tolerance: f64) -> DriftAdvisor {
        DriftAdvisor { tolerance }
    }
}

impl Advisor for DriftAdvisor {
    fn name(&self) -> &'static str {
        "drift"
    }

    fn advise(&self, view: &dyn WorkloadView) -> Result<Vec<Advice>, Error> {
        DriftReport::validate_tolerance(self.tolerance)
            .map_err(|detail| Error::Config { detail })?;
        let Some(report) = view.drift() else { return Ok(Vec::new()) };
        if report.is_stable(self.tolerance) {
            return Ok(Vec::new());
        }
        let ceiling = std::f64::consts::LN_2;
        let share_of = |js: f64| (js / ceiling).clamp(0.0, 1.0);
        let mut picks = vec![Advice {
            kind: AdviceKind::Drift,
            subject: "workload drift".to_owned(),
            features: Vec::new(),
            estimated: report.overall,
            share: share_of(report.overall),
        }];
        for text in &report.new_features {
            picks.push(Advice {
                kind: AdviceKind::Drift,
                subject: text.clone(),
                features: Vec::new(),
                estimated: ceiling,
                share: 1.0,
            });
        }
        let baseline = view.baseline_codebook();
        for &(id, js) in &report.per_feature {
            if js <= self.tolerance {
                // The report is sorted descending; everything after this
                // is within tolerance too.
                break;
            }
            let resolved =
                baseline.filter(|cb| id.index() < cb.len()).map(|cb| cb.feature(id).clone());
            picks.push(Advice {
                kind: AdviceKind::Drift,
                subject: resolved
                    .as_ref()
                    .map_or_else(|| format!("feature #{}", id.0), |f| f.to_string()),
                features: resolved.into_iter().collect(),
                estimated: js,
                share: share_of(js),
            });
        }
        Ok(picks)
    }
}
