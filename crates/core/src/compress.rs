//! The LogR compressor front end (paper §6).
//!
//! Ties the pipeline together: cluster the log's distinct queries, build the
//! naive mixture encoding, optionally refine with correlated patterns. The
//! "tunable parameter" of the paper's abstract is the
//! [`CompressionObjective`]: fix the cluster count, target an Error bound,
//! or cap Total Verbosity — the compressor walks K upward until the target
//! holds.

use crate::mixture::NaiveMixtureEncoding;
use crate::refine::{refine_mixture, RefineConfig, RefinedMixture};
use logr_cluster::{cluster_log, ClusterMethod, Clustering, Distance};
use logr_feature::{Feature, QueryLog, QueryVector};

/// What the compressor optimizes for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionObjective {
    /// Use exactly this many clusters.
    FixedK(usize),
    /// Smallest K whose generalized Error is at most the bound
    /// (give up at `max_k`).
    MaxError {
        /// Error bound in nats.
        bound: f64,
        /// Largest K to try.
        max_k: usize,
    },
    /// Largest K whose Total Verbosity stays within the budget.
    MaxVerbosity {
        /// Verbosity budget (total patterns stored).
        budget: usize,
        /// Largest K to try.
        max_k: usize,
    },
}

/// LogR compression configuration.
#[derive(Debug, Clone, Copy)]
pub struct LogRConfig {
    /// Clustering strategy. The paper's take-away (§6.1.1): Hamming offers
    /// the best Error/runtime trade-off, KMeans the fastest runtime.
    pub method: ClusterMethod,
    /// The compactness/fidelity knob.
    pub objective: CompressionObjective,
    /// RNG seed (clustering init).
    pub seed: u64,
    /// Optional §6.4 refinement stage.
    pub refine: Option<RefineConfig>,
}

impl Default for LogRConfig {
    fn default() -> Self {
        LogRConfig {
            method: ClusterMethod::Spectral(Distance::Hamming),
            objective: CompressionObjective::FixedK(8),
            seed: 0,
            refine: None,
        }
    }
}

/// The LogR compressor.
#[derive(Debug, Clone, Default)]
pub struct LogR {
    config: LogRConfig,
}

impl LogR {
    /// Compressor with an explicit configuration.
    ///
    /// # Panics
    /// Panics if the clustering metric fails [`Distance::validate`]
    /// (a Minkowski order that is NaN, infinite or below 1).
    pub fn new(config: LogRConfig) -> Self {
        let metric = match config.method {
            ClusterMethod::Spectral(metric) | ClusterMethod::Hierarchical(metric) => metric,
            ClusterMethod::KMeansEuclidean => Distance::Euclidean,
        };
        if let Err(detail) = metric.validate() {
            // lint:allow(no-panic-paths): documented "# Panics" constructor contract — an invalid metric is a programming error caught when the compressor is built, before clustering indexes past its points
            panic!("{detail}");
        }
        LogR { config }
    }

    /// Convenience: fixed-K compressor with the default (spectral Hamming)
    /// clustering.
    pub fn with_clusters(k: usize) -> Self {
        LogR::new(LogRConfig { objective: CompressionObjective::FixedK(k), ..Default::default() })
    }

    /// Compress a log into a pattern mixture summary.
    pub fn compress(&self, log: &QueryLog) -> LogRSummary {
        let clustering = resolve_objective(self.config.objective, log, |k| {
            cluster_log(log, k, self.config.method, self.config.seed)
        });
        let mixture = NaiveMixtureEncoding::build(log, &clustering);
        let refined = self.config.refine.as_ref().map(|cfg| refine_mixture(log, &mixture, cfg));
        LogRSummary { clustering, mixture, refined }
    }
}

/// The multiplicity-weighted dendrogram over a log's pre-materialized
/// condensed distance matrix — the single clustering every condensed-path
/// entry point cuts.
///
/// # Panics
/// Panics if the matrix size differs from the log's distinct count.
fn condensed_dendrogram(
    log: &QueryLog,
    dist: logr_cluster::CondensedMatrix,
) -> logr_cluster::Dendrogram {
    assert_eq!(
        dist.n(),
        log.distinct_count(),
        "condensed matrix must cover the log's distinct entries"
    );
    let weights: Vec<f64> = log.entries().iter().map(|&(_, c)| c as f64).collect();
    logr_cluster::hierarchical_cluster_condensed(dist, &weights)
}

/// Resolve a [`CompressionObjective`] to a clustering, given a producer of
/// candidate clusterings at a requested K (repeated clustering for the
/// batch path, dendrogram cuts for the condensed/streaming path). The
/// bound-seeking objectives walk K upward from 1 and stop at the first
/// candidate satisfying (MaxError) or the last candidate not violating
/// (MaxVerbosity) the target, giving up at `max_k` or at the log's
/// distinct count, past which no K splits a cluster further.
fn resolve_objective(
    objective: CompressionObjective,
    log: &QueryLog,
    mut cluster_at: impl FnMut(usize) -> Clustering,
) -> Clustering {
    let last_k = |max_k: usize| max_k.min(log.distinct_count()).max(1);
    match objective {
        CompressionObjective::FixedK(k) => cluster_at(k),
        CompressionObjective::MaxError { bound, max_k } => {
            let mut best = cluster_at(1);
            for k in 2..=last_k(max_k) {
                if NaiveMixtureEncoding::build(log, &best).error() <= bound {
                    break;
                }
                best = cluster_at(k);
            }
            best
        }
        CompressionObjective::MaxVerbosity { budget, max_k } => {
            let mut best = cluster_at(1);
            for k in 2..=last_k(max_k) {
                let candidate = cluster_at(k);
                if NaiveMixtureEncoding::build(log, &candidate).total_verbosity() > budget {
                    break;
                }
                best = candidate;
            }
            best
        }
    }
}

impl LogR {
    /// Compress a log whose pairwise distances over distinct entries are
    /// already materialized as a condensed matrix — the streaming/sharded
    /// path: a [`logr_cluster::ShardedPointSet`] merges its per-window
    /// shards through `try_condensed(metric)` and hands the result here, so no
    /// pairwise distance is ever recomputed. Clustering is hierarchical
    /// (the strategy that consumes condensed matrices directly), and every
    /// [`CompressionObjective`] resolves by cutting **one** dendrogram —
    /// the K sweep costs one clustering, not `max_k`.
    ///
    /// # Panics
    /// Panics if the matrix size differs from the log's distinct count.
    pub fn compress_condensed(
        &self,
        log: &QueryLog,
        dist: logr_cluster::CondensedMatrix,
    ) -> LogRSummary {
        let finish = |clustering: Clustering| self.finish_summary(log, clustering);
        if log.distinct_count() == 0 {
            return finish(Clustering::new(1, Vec::new()));
        }
        let dendrogram = condensed_dendrogram(log, dist);
        let clustering =
            resolve_objective(self.config.objective, log, |k| dendrogram.cut(k.max(1)));
        finish(clustering)
    }

    /// Multi-resolution compression over a pre-materialized condensed
    /// matrix (§6.1.1's "more dynamic control over the Error/Verbosity
    /// tradeoff"). One dendrogram is built from the given distances (zero
    /// recomputed — the sharded history's merged matrix plugs in directly)
    /// and cut at every requested K, so the returned summaries are
    /// **nested** (each coarser summary merges whole clusters of the finer
    /// one) and the whole Error/Verbosity trade-off curve costs one
    /// clustering. The configured objective is ignored; each entry of `ks`
    /// is a fixed cut. A batch caller builds the matrix with
    /// `PointSet::from_log(log).distances(metric)`.
    ///
    /// # Panics
    /// Panics if the matrix size differs from the log's distinct count.
    pub fn compress_condensed_multiresolution(
        &self,
        log: &QueryLog,
        dist: logr_cluster::CondensedMatrix,
        ks: &[usize],
    ) -> Vec<LogRSummary> {
        if log.distinct_count() == 0 {
            return ks
                .iter()
                .map(|_| self.finish_summary(log, Clustering::new(1, Vec::new())))
                .collect();
        }
        let dendrogram = condensed_dendrogram(log, dist);
        ks.iter().map(|&k| self.finish_summary(log, dendrogram.cut(k.max(1)))).collect()
    }

    /// Encode (and optionally refine) one resolved clustering.
    fn finish_summary(&self, log: &QueryLog, clustering: Clustering) -> LogRSummary {
        let mixture = NaiveMixtureEncoding::build(log, &clustering);
        let refined = self.config.refine.as_ref().map(|cfg| refine_mixture(log, &mixture, cfg));
        LogRSummary { clustering, mixture, refined }
    }
}

/// A compressed log: the clustering, the mixture encoding, and (optionally)
/// the refinement.
#[derive(Debug, Clone)]
pub struct LogRSummary {
    /// Partition of the log's distinct queries.
    pub clustering: Clustering,
    /// The naive mixture encoding.
    pub mixture: NaiveMixtureEncoding,
    /// §6.4 refinement output, if requested.
    pub refined: Option<RefinedMixture>,
}

impl LogRSummary {
    /// Generalized Reproduction Error (refined if refinement ran).
    pub fn error(&self) -> f64 {
        self.refined.as_ref().map_or_else(|| self.mixture.error(), |r| r.error)
    }

    /// Total Verbosity (refined if refinement ran).
    pub fn total_verbosity(&self) -> usize {
        self.refined.as_ref().map_or_else(|| self.mixture.total_verbosity(), |r| r.total_verbosity)
    }

    /// Estimate how many log queries contain all the given features
    /// (`est[Γ_b]`, §6.2). Features not in the codebook contribute zero
    /// support, so unknown features yield 0.
    pub fn estimate_count_features(&self, log: &QueryLog, features: &[Feature]) -> f64 {
        let mut ids = Vec::with_capacity(features.len());
        for f in features {
            match log.codebook().get(f) {
                Some(id) => ids.push(id),
                None => return 0.0,
            }
        }
        self.mixture.estimate_count(&QueryVector::new(ids))
    }

    /// Estimate a pattern's count from raw feature ids.
    pub fn estimate_count(&self, pattern: &QueryVector) -> f64 {
        self.mixture.estimate_count(pattern)
    }

    /// Estimated joint counts for every unordered pair drawn from `ids`
    /// (see [`NaiveMixtureEncoding::estimate_pair_counts`]).
    pub fn estimate_pair_counts(
        &self,
        ids: &[logr_feature::FeatureId],
    ) -> Vec<(logr_feature::FeatureId, logr_feature::FeatureId, f64)> {
        self.mixture.estimate_pair_counts(ids)
    }

    /// Conditional-marginal ranking of continuations of `given`
    /// (see [`NaiveMixtureEncoding::rank_continuations`]).
    pub fn rank_continuations(
        &self,
        given: &QueryVector,
        min_conditional: f64,
    ) -> Vec<(logr_feature::FeatureId, f64)> {
        self.mixture.rank_continuations(given, min_conditional)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::LogIngest;

    fn mixed_log() -> QueryLog {
        let mut ingest = LogIngest::new();
        for _ in 0..20 {
            ingest.ingest("SELECT id, body FROM messages WHERE status = ?");
            ingest.ingest("SELECT id FROM messages WHERE status = ? AND kind = ?");
            ingest.ingest("SELECT balance FROM accounts WHERE owner = ?");
            ingest.ingest("SELECT balance, branch FROM accounts WHERE owner = ? AND open = ?");
        }
        ingest.finish().0
    }

    #[test]
    fn an_invalid_minkowski_order_is_refused_when_the_compressor_is_built() {
        // Accepted, a NaN order made every distance NaN, and the first
        // `compress` indexed past its points.
        for p in [f64::NAN, 0.5, f64::INFINITY] {
            let config = LogRConfig {
                method: ClusterMethod::Hierarchical(Distance::Minkowski(p)),
                ..LogRConfig::default()
            };
            let panic = std::panic::catch_unwind(|| LogR::new(config)).expect_err("accepted");
            let detail = panic.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
            assert_eq!(detail, "Minkowski order must be finite and at least 1", "Minkowski({p})");
        }
    }

    #[test]
    fn fixed_k_compression() {
        let log = mixed_log();
        let summary = LogR::with_clusters(2).compress(&log);
        assert_eq!(summary.mixture.k(), 2);
        // Two feature-disjoint workloads at k=2 → near-perfect mixture.
        let single = NaiveMixtureEncoding::single(&log);
        assert!(summary.error() < single.error());
    }

    #[test]
    fn max_error_objective_reaches_bound() {
        let log = mixed_log();
        let config = LogRConfig {
            objective: CompressionObjective::MaxError { bound: 0.05, max_k: 8 },
            ..Default::default()
        };
        let summary = LogR::new(config).compress(&log);
        assert!(summary.error() <= 0.05 + 1e-9, "error {}", summary.error());
    }

    #[test]
    fn max_verbosity_objective_respects_budget() {
        let log = mixed_log();
        let single_verbosity = NaiveMixtureEncoding::single(&log).total_verbosity();
        let budget = single_verbosity + 4;
        let config = LogRConfig {
            objective: CompressionObjective::MaxVerbosity { budget, max_k: 8 },
            ..Default::default()
        };
        let summary = LogR::new(config).compress(&log);
        assert!(
            summary.total_verbosity() <= budget,
            "verbosity {} over budget {budget}",
            summary.total_verbosity()
        );
    }

    #[test]
    fn estimate_counts_by_feature() {
        let log = mixed_log();
        let summary = LogR::with_clusters(2).compress(&log);
        let est = summary.estimate_count_features(
            &log,
            &[Feature::from_table("messages"), Feature::where_atom("status = ?")],
        );
        // All 40 messaging queries touch messages+status.
        assert!((est - 40.0).abs() < 1.0, "est {est}");
        // Unknown feature → 0.
        assert_eq!(summary.estimate_count_features(&log, &[Feature::from_table("nope")]), 0.0);
    }

    #[test]
    fn refinement_reduces_or_preserves_error() {
        let log = mixed_log();
        let config = LogRConfig {
            objective: CompressionObjective::FixedK(2),
            refine: Some(RefineConfig::default()),
            ..Default::default()
        };
        let refined = LogR::new(config).compress(&log);
        let unrefined = LogR::with_clusters(2).compress(&log);
        assert!(refined.error() <= unrefined.error() + 1e-9);
        assert!(refined.refined.is_some());
    }

    #[test]
    fn condensed_path_matches_hierarchical_compression() {
        use logr_cluster::PointSet;
        let log = mixed_log();
        let config = LogRConfig {
            method: ClusterMethod::Hierarchical(Distance::Hamming),
            objective: CompressionObjective::FixedK(2),
            ..Default::default()
        };
        let direct = LogR::new(config).compress(&log);
        let dist = PointSet::from_log(&log).distances(Distance::Hamming);
        let condensed = LogR::new(config).compress_condensed(&log, dist);
        assert_eq!(direct.clustering, condensed.clustering);
        assert_eq!(direct.error().to_bits(), condensed.error().to_bits());
        // Objectives resolve on the same dendrogram: error bound holds.
        let bounded = LogR::new(LogRConfig {
            objective: CompressionObjective::MaxError { bound: 0.05, max_k: 8 },
            ..config
        })
        .compress_condensed(&log, PointSet::from_log(&log).distances(Distance::Hamming));
        assert!(bounded.error() <= 0.05 + 1e-9, "error {}", bounded.error());
        // Empty log degenerates cleanly.
        let empty = QueryLog::new();
        let s = LogR::new(config)
            .compress_condensed(&empty, PointSet::from_log(&empty).distances(Distance::Hamming));
        assert_eq!(s.mixture.k(), 0);
    }

    #[test]
    fn condensed_multiresolution_matches_per_k_cuts() {
        use logr_cluster::PointSet;
        let log = mixed_log();
        let config = LogRConfig {
            method: ClusterMethod::Hierarchical(Distance::Hamming),
            ..Default::default()
        };
        let compressor = LogR::new(config);
        let dist = || PointSet::from_log(&log).distances(Distance::Hamming);
        let sweep = compressor.compress_condensed_multiresolution(&log, dist(), &[1, 2, 4]);
        assert_eq!(sweep.len(), 3);
        // Each entry is bit-identical to a FixedK condensed compression —
        // one shared dendrogram serves both paths.
        for (summary, k) in sweep.iter().zip([1usize, 2, 4]) {
            let fixed =
                LogR::new(LogRConfig { objective: CompressionObjective::FixedK(k), ..config })
                    .compress_condensed(&log, dist());
            assert_eq!(summary.clustering, fixed.clustering, "k = {k}");
            assert_eq!(summary.error().to_bits(), fixed.error().to_bits(), "k = {k}");
        }
        // Nested: the coarser cut merges whole clusters of the finer one,
        // and verbosity never shrinks as K grows.
        for w in sweep.windows(2) {
            assert!(w[0].total_verbosity() <= w[1].total_verbosity());
            let mut map = std::collections::HashMap::new();
            for i in 0..w[1].clustering.len() {
                let entry = map
                    .entry(w[1].clustering.assignments[i])
                    .or_insert(w[0].clustering.assignments[i]);
                assert_eq!(*entry, w[0].clustering.assignments[i], "cuts not nested");
            }
        }
        // The k=4 summary separates the workloads at least as well as k=1.
        assert!(sweep[2].error() <= sweep[0].error() + 1e-9);
        // Empty log degenerates to one empty summary per requested K.
        let empty = QueryLog::new();
        let s = compressor.compress_condensed_multiresolution(
            &empty,
            PointSet::from_log(&empty).distances(Distance::Hamming),
            &[1, 2],
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].mixture.k(), 0);
    }

    #[test]
    fn the_objective_walk_stops_at_the_distinct_count() {
        // A cut clamps K to the distinct count, so every K past it repeats
        // the same clustering; an unbounded `max_k` (or a bound no K can
        // meet) walked all of them.
        let log = mixed_log();
        let n = log.distinct_count();
        let dendrogram = condensed_dendrogram(
            &log,
            logr_cluster::PointSet::from_log(&log).distances(Distance::Hamming),
        );
        for objective in [
            CompressionObjective::MaxVerbosity { budget: usize::MAX, max_k: 10_000 },
            CompressionObjective::MaxError { bound: -1.0, max_k: 10_000 },
            CompressionObjective::MaxError { bound: f64::NAN, max_k: 10_000 },
        ] {
            let mut calls = 0usize;
            let clustering = resolve_objective(objective, &log, |k| {
                calls += 1;
                dendrogram.cut(k)
            });
            assert_eq!(calls, n, "{objective:?}");
            assert_eq!(clustering, dendrogram.cut(n), "{objective:?}");
        }
    }

    #[test]
    fn kmeans_method_works_too() {
        let log = mixed_log();
        let config = LogRConfig {
            method: ClusterMethod::KMeansEuclidean,
            objective: CompressionObjective::FixedK(2),
            ..Default::default()
        };
        let summary = LogR::new(config).compress(&log);
        assert_eq!(summary.mixture.k(), 2);
    }
}
