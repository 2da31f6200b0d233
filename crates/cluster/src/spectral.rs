//! Spectral clustering (Ng–Jordan–Weiss) over a pluggable distance.
//!
//! The paper runs sklearn's `SpectralClustering` with precomputed Manhattan,
//! Minkowski-4 and Hamming distances (§6.1). This implementation follows the
//! same recipe:
//!
//! 1. pairwise distances on distinct query vectors, from the dense
//!    popcount engine ([`PointSet::distances`], condensed layout, parallel);
//! 2. RBF affinity `A = exp(−d² / 2σ²)` with a self-tuning `σ` (median of
//!    positive distances) unless one is supplied — rows built in parallel;
//! 3. normalized affinity `M = D^{-1/2} A D^{-1/2}` (whose top eigenvectors
//!    are the bottom eigenvectors of the normalized Laplacian);
//! 4. top-k eigenvectors via Lanczos;
//! 5. row-normalize the embedding and run weighted k-means on it.

use crate::assign::Clustering;
use crate::distance::Distance;
use crate::kmeans::{kmeans_dense, KMeansConfig};
use crate::par;
use crate::pointset::{CondensedMatrix, PointSet};
use logr_feature::QueryVector;
use logr_math::{lanczos_topk, Matrix};

/// Spectral clustering configuration.
#[derive(Debug, Clone, Copy)]
pub struct SpectralConfig {
    /// Number of clusters.
    pub k: usize,
    /// Distance measure feeding the affinity.
    pub metric: Distance,
    /// RBF bandwidth; `None` = median heuristic.
    pub sigma: Option<f64>,
    /// RNG seed (Lanczos start vector and k-means init).
    pub seed: u64,
}

impl SpectralConfig {
    /// Config with the median-σ heuristic.
    pub fn new(k: usize, metric: Distance, seed: u64) -> Self {
        SpectralConfig { k, metric, sigma: None, seed }
    }
}

/// Cluster sparse binary vectors spectrally. `weights` are multiplicities.
///
/// Convenience wrapper: batch-converts the points into a [`PointSet`] and
/// delegates to [`spectral_cluster_pointset`].
///
/// # Panics
/// Panics if `points` is empty or `k == 0`.
pub fn spectral_cluster(
    points: &[&QueryVector],
    weights: &[f64],
    n_features: usize,
    config: SpectralConfig,
) -> Clustering {
    spectral_cluster_pointset(&PointSet::from_vectors(points, n_features), weights, config)
}

/// Cluster a pre-converted [`PointSet`] spectrally. `weights` are
/// multiplicities.
///
/// # Panics
/// Panics if `points` is empty or `k == 0`.
pub fn spectral_cluster_pointset(
    points: &PointSet,
    weights: &[f64],
    config: SpectralConfig,
) -> Clustering {
    assert!(!points.is_empty(), "spectral clustering over empty point set");
    assert_eq!(points.len(), weights.len(), "weights length mismatch");
    spectral_cluster_condensed(&points.distances(config.metric), weights, config)
}

/// Cluster spectrally from a precomputed condensed distance matrix (the
/// sharded/streaming path: [`crate::ShardedPointSet::try_condensed`]
/// materializes the merged matrix once and the affinity is built from it
/// directly).
/// `config.metric` is informational here — the distances are already baked
/// into the matrix.
///
/// # Panics
/// Panics if the matrix is empty, its size mismatches `weights`, or
/// `k == 0`.
pub fn spectral_cluster_condensed(
    dist: &CondensedMatrix,
    weights: &[f64],
    config: SpectralConfig,
) -> Clustering {
    let n = dist.n();
    assert!(n > 0, "spectral clustering over empty distance matrix");
    assert_eq!(n, weights.len(), "weights length mismatch");
    assert!(config.k > 0, "k must be positive");
    let k = config.k.min(n);
    if k == 1 {
        return Clustering::trivial(n);
    }

    let sigma = config.sigma.unwrap_or_else(|| median_positive(dist)).max(1e-9);

    // RBF affinity with zero diagonal (NJW); rows filled in parallel from
    // the shared condensed distances.
    let mut affinity = Matrix::zeros(n, n);
    {
        let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
        let dist_ref = dist;
        let rows: Vec<(usize, &mut [f64])> =
            affinity.as_mut_slice().chunks_mut(n).enumerate().collect();
        let n_threads = par::workers(n * (n - 1) / 2, par::threads());
        par::run_tasks(rows, n_threads, |(i, row)| {
            for (j, cell) in row.iter_mut().enumerate() {
                if i != j {
                    let d = dist_ref.get(i, j);
                    *cell = (-d * d * inv_two_sigma_sq).exp();
                }
            }
        });
    }

    // Normalized affinity M = D^{-1/2} A D^{-1/2}.
    let mut inv_sqrt_deg = vec![0.0; n];
    for (i, slot) in inv_sqrt_deg.iter_mut().enumerate() {
        let deg: f64 = affinity.row(i).iter().sum();
        *slot = 1.0 / deg.max(1e-12).sqrt();
    }
    let mut m = affinity;
    for i in 0..n {
        let scale_i = inv_sqrt_deg[i];
        for (j, cell) in m.row_mut(i).iter_mut().enumerate() {
            *cell *= scale_i * inv_sqrt_deg[j];
        }
    }

    let pairs = lanczos_topk(&m, k, config.seed);

    // Embedding rows = top-k eigenvector components, row-normalized.
    let mut embedding = vec![vec![0.0; pairs.len()]; n];
    for (c, pair) in pairs.iter().enumerate() {
        for (row, &v) in embedding.iter_mut().zip(&pair.vector) {
            row[c] = v;
        }
    }
    for row in &mut embedding {
        let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }

    let (clustering, _) = kmeans_dense(&embedding, weights, KMeansConfig::new(k, config.seed));
    clustering
}

/// Median of the strictly positive pairwise distances (each unordered pair
/// counted once — exactly the condensed entries).
fn median_positive(dist: &CondensedMatrix) -> f64 {
    let mut vals: Vec<f64> = dist.as_slice().iter().copied().filter(|&d| d > 0.0).collect();
    if vals.is_empty() {
        return 1.0;
    }
    vals.sort_by(f64::total_cmp);
    vals[vals.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::FeatureId;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    fn two_workloads() -> Vec<QueryVector> {
        // Disjoint feature supports: the anti-correlation structure that
        // motivates mixtures in paper §5.
        vec![
            qv(&[0, 1, 2]),
            qv(&[0, 1]),
            qv(&[1, 2]),
            qv(&[0, 2]),
            qv(&[10, 11, 12]),
            qv(&[10, 11]),
            qv(&[11, 12]),
            qv(&[10, 12]),
        ]
    }

    #[test]
    fn separates_disjoint_workloads_all_metrics() {
        let vs = two_workloads();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        for metric in [Distance::Manhattan, Distance::Minkowski(4.0), Distance::Hamming] {
            let c = spectral_cluster(&refs, &weights, 16, SpectralConfig::new(2, metric, 11));
            let first = c.assignments[0];
            assert!(
                c.assignments[..4].iter().all(|&a| a == first),
                "{metric:?}: first workload split: {:?}",
                c.assignments
            );
            let second = c.assignments[4];
            assert!(
                c.assignments[4..].iter().all(|&a| a == second),
                "{metric:?}: second workload split: {:?}",
                c.assignments
            );
            assert_ne!(first, second, "{metric:?}: workloads merged");
        }
    }

    #[test]
    fn pointset_front_end_matches_sparse_front_end() {
        let vs = two_workloads();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let ps = PointSet::from_vectors(&refs, 16);
        let cfg = SpectralConfig::new(2, Distance::Hamming, 3);
        assert_eq!(
            spectral_cluster(&refs, &weights, 16, cfg),
            spectral_cluster_pointset(&ps, &weights, cfg)
        );
    }

    #[test]
    fn condensed_entry_point_matches_pointset_path() {
        let vs = two_workloads();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let ps = PointSet::from_vectors(&refs, 16);
        let cfg = SpectralConfig::new(2, Distance::Hamming, 7);
        let dist = ps.distances(Distance::Hamming);
        assert_eq!(
            spectral_cluster_pointset(&ps, &weights, cfg),
            spectral_cluster_condensed(&dist, &weights, cfg)
        );
    }

    #[test]
    fn k1_is_trivial() {
        let vs = two_workloads();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let c = spectral_cluster(&refs, &weights, 16, SpectralConfig::new(1, Distance::Hamming, 0));
        assert_eq!(c.k, 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let vs = two_workloads();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let cfg = SpectralConfig::new(2, Distance::Hamming, 99);
        let a = spectral_cluster(&refs, &weights, 16, cfg);
        let b = spectral_cluster(&refs, &weights, 16, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_sigma_accepted() {
        let vs = two_workloads();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let cfg = SpectralConfig { k: 2, metric: Distance::Manhattan, sigma: Some(2.0), seed: 5 };
        let c = spectral_cluster(&refs, &weights, 16, cfg);
        assert_eq!(c.len(), refs.len());
        assert!(c.non_empty() >= 1);
    }

    #[test]
    fn handles_duplicate_points() {
        let vs = [qv(&[0]), qv(&[0]), qv(&[0]), qv(&[5]), qv(&[5])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let c = spectral_cluster(&refs, &weights, 8, SpectralConfig::new(2, Distance::Hamming, 1));
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[3], c.assignments[4]);
    }
}
