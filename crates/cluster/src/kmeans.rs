//! Weighted k-means with k-means++ seeding.
//!
//! Two front ends share one Lloyd loop structure:
//!
//! * [`kmeans_dense`] — points are dense rows (used on spectral embeddings);
//! * [`kmeans_binary`] / [`kmeans_binary_pointset`] — points are binary
//!   query vectors with multiplicity weights; centroids stay dense.
//!   Distances use the expansion `‖x − c‖² = |x| − 2·Σ_{i∈x} cᵢ + ‖c‖²`,
//!   so a step costs `O(k · Σ|x|)` rather than `O(k · n · dims)`.
//!
//! Hot-path engineering (PR 1):
//!
//! * k-means++ seeding distances come from the [`PointSet`] popcount
//!   kernel instead of re-running the sparse id-merge `n·k` times;
//! * the seeding `d2`/`scores` buffers and the Lloyd `sums`/`wsum`
//!   accumulators are allocated once and reused across every round;
//! * assignment (and the seeding distance sweep) run on scoped threads via
//!   the internal `par` helpers. The RNG
//!   only ever runs on the coordinating thread, and the inertia reduction
//!   uses fixed-width chunks summed in chunk order, so results are
//!   bit-identical to the serial path on any machine.
//!
//! Weighting by multiplicity makes clustering the distinct-query set
//! equivalent to clustering the exploded log (same objective, same optima).

use crate::assign::Clustering;
use crate::par;
use crate::pointset::PointSet;
use logr_feature::QueryVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Below this many point·centroid pairs the Lloyd assignment runs serially;
/// thread startup would dominate.
const PARALLEL_MIN_WORK: usize = 4096;

/// A k-means++ seeding round does only `O(n)` popcounts (no `k` factor),
/// so it needs far more points than the Lloyd assignment before threads
/// pay for themselves.
const SEEDING_PARALLEL_MIN_POINTS: usize = 8192;

/// Fixed chunk width for the parallel assignment sweep. Chunk boundaries —
/// and therefore the floating-point association of the per-chunk inertia
/// partials — are independent of the worker count, so the reduced inertia
/// is bit-identical on every machine.
const ASSIGNMENT_CHUNK: usize = 1024;

/// Split `assignments` into fixed-width chunks, pairing each with its
/// starting index and a dedicated inertia slot from `partials`.
fn assignment_tasks<'a>(
    assignments: &'a mut [usize],
    partials: &'a mut Vec<f64>,
) -> Vec<(usize, &'a mut [usize], &'a mut f64)> {
    let n_chunks = assignments.len().div_ceil(ASSIGNMENT_CHUNK).max(1);
    partials.clear();
    partials.resize(n_chunks, 0.0);
    assignments
        .chunks_mut(ASSIGNMENT_CHUNK)
        .zip(partials.iter_mut())
        .enumerate()
        .map(|(t, (slice, partial))| (t * ASSIGNMENT_CHUNK, slice, partial))
        .collect()
}

/// K-means configuration.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// Config with default iteration budget (100).
    pub fn new(k: usize, seed: u64) -> Self {
        KMeansConfig { k, max_iters: 100, seed }
    }
}

fn assignment_threads(n_points: usize, k: usize) -> usize {
    if n_points * k < PARALLEL_MIN_WORK {
        1
    } else {
        par::threads()
    }
}

/// Weighted k-means over dense points. Returns the clustering and the final
/// weighted inertia (sum of squared distances to assigned centroids).
///
/// # Panics
/// Panics if `points` is empty, weights length mismatches, or `k == 0`.
pub fn kmeans_dense(
    points: &[Vec<f64>],
    weights: &[f64],
    config: KMeansConfig,
) -> (Clustering, f64) {
    assert!(!points.is_empty(), "kmeans over empty point set");
    assert_eq!(points.len(), weights.len(), "weights length mismatch");
    assert!(config.k > 0, "k must be positive");
    let n = points.len();
    let k = config.k.min(n);
    let dims = points[0].len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Centroids and accumulators as flat k×dims rows, reused every round.
    let mut centroids = plus_plus_init_dense(points, weights, k, &mut rng);
    let mut sums = vec![0.0; k * dims];
    let mut wsum = vec![0.0; k];
    let mut assignments = vec![0usize; n];
    let mut partials: Vec<f64> = Vec::new();
    let mut inertia = f64::INFINITY;
    let n_threads = assignment_threads(n, k);

    for _ in 0..config.max_iters {
        // Assignment step: parallel over fixed-width chunks, each with its
        // own inertia slot, reduced in chunk order — bit-identical for any
        // worker count.
        let centroids_ref = &centroids;
        let tasks = assignment_tasks(&mut assignments, &mut partials);
        par::run_tasks(tasks, n_threads, |(start, slice, partial)| {
            for (offset, slot) in slice.iter_mut().enumerate() {
                let i = start + offset;
                let (best, d2) = nearest_dense(&points[i], centroids_ref, k, dims);
                *slot = best;
                *partial += weights[i] * d2;
            }
        });
        let new_inertia: f64 = partials.iter().sum();

        // Update step into the reused accumulators.
        sums.fill(0.0);
        wsum.fill(0.0);
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            wsum[c] += weights[i];
            for (s, &v) in sums[c * dims..(c + 1) * dims].iter_mut().zip(p) {
                *s += weights[i] * v;
            }
        }
        for c in 0..k {
            if wsum[c] > 0.0 {
                for (dst, &s) in centroids[c * dims..(c + 1) * dims]
                    .iter_mut()
                    .zip(&sums[c * dims..(c + 1) * dims])
                {
                    *dst = s / wsum[c];
                }
            } else {
                // Empty cluster: reseed at the point farthest from its centroid.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = dist2_dense(&points[a], row(&centroids, assignments[a], dims));
                        let db = dist2_dense(&points[b], row(&centroids, assignments[b], dims));
                        da.total_cmp(&db)
                    })
                    // lint:allow(no-panic-paths): the constructor asserts a non-empty point set, so max_by over 0..n cannot be empty
                    .expect("non-empty points");
                centroids[c * dims..(c + 1) * dims].copy_from_slice(&points[far]);
            }
        }
        if (inertia - new_inertia).abs() < 1e-10 * (1.0 + inertia.abs()) {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }
    (Clustering::new(k, assignments), inertia)
}

/// Weighted k-means over sparse binary vectors (Euclidean distance).
///
/// Convenience wrapper: batch-converts the points into a [`PointSet`] and
/// delegates to [`kmeans_binary_pointset`].
///
/// # Panics
/// Panics if `points` is empty or `k == 0`.
pub fn kmeans_binary(
    points: &[&QueryVector],
    weights: &[f64],
    n_features: usize,
    config: KMeansConfig,
) -> (Clustering, f64) {
    kmeans_binary_pointset(&PointSet::from_vectors(points, n_features), weights, config)
}

/// Weighted k-means over a pre-converted [`PointSet`] (Euclidean distance).
/// Returns the clustering and the final weighted inertia.
///
/// # Panics
/// Panics if `points` is empty or `k == 0`.
pub fn kmeans_binary_pointset(
    points: &PointSet,
    weights: &[f64],
    config: KMeansConfig,
) -> (Clustering, f64) {
    assert!(!points.is_empty(), "kmeans over empty point set");
    assert_eq!(points.len(), weights.len(), "weights length mismatch");
    assert!(config.k > 0, "k must be positive");
    let n = points.len();
    let nf = points.n_features();
    let k = config.k.min(n);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_threads = assignment_threads(n, k);

    // k-means++ seeding: squared Euclidean distance between binary vectors
    // is exactly the xor-popcount, served by the dense engine. The `d2` and
    // `scores` buffers are allocated once and reused for every round. Each
    // round is only O(n) popcounts, so the parallel gate needs far more
    // points than the Lloyd assignment's n·k gate.
    let seed_threads = if n < SEEDING_PARALLEL_MIN_POINTS { 1 } else { par::threads() };
    let mut centroid_ids = Vec::with_capacity(k);
    centroid_ids.push(pick_weighted(weights, &mut rng));
    let mut d2 = vec![f64::INFINITY; n];
    let mut scores = vec![0.0; n];
    while centroid_ids.len() < k {
        // lint:allow(no-panic-paths): the first centroid is pushed before the loop, so the list is never empty here
        let latest = *centroid_ids.last().expect("non-empty");
        let chunk = n.div_ceil(seed_threads).max(1);
        let tasks: Vec<(usize, &mut [f64])> =
            d2.chunks_mut(chunk).enumerate().map(|(t, slice)| (t * chunk, slice)).collect();
        par::run_tasks(tasks, seed_threads, |(start, slice)| {
            for (offset, slot) in slice.iter_mut().enumerate() {
                let d = points.mismatches(start + offset, latest) as f64;
                if d < *slot {
                    *slot = d;
                }
            }
        });
        for ((score, &d), &w) in scores.iter_mut().zip(&d2).zip(weights) {
            *score = d * w;
        }
        let total: f64 = scores.iter().sum();
        let next = if total > 0.0 { pick_weighted(&scores, &mut rng) } else { rng.gen_range(0..n) };
        centroid_ids.push(next);
    }

    // Centroids as flat k×nf rows; |x| popcounts cached per point.
    let mut centroids = vec![0.0; k * nf];
    for (c, &i) in centroid_ids.iter().enumerate() {
        let crow = &mut centroids[c * nf..(c + 1) * nf];
        points.point(i).for_each_one(|b| crow[b] = 1.0);
    }
    let point_sizes: Vec<f64> = (0..n).map(|i| points.point(i).count_ones() as f64).collect();

    let mut assignments = vec![0usize; n];
    let mut partials: Vec<f64> = Vec::new();
    let mut inertia = f64::INFINITY;
    let mut sq_norms = vec![0.0; k];
    let mut sums = vec![0.0; k * nf];
    let mut wsum = vec![0.0; k];

    for _ in 0..config.max_iters {
        for (c, norm) in sq_norms.iter_mut().enumerate() {
            *norm = row(&centroids, c, nf).iter().map(|v| v * v).sum::<f64>();
        }

        // Assignment step: parallel over fixed-width chunks, each with its
        // own inertia slot, reduced in chunk order — bit-identical for any
        // worker count, and no RNG involved.
        let centroids_ref = &centroids;
        let sq_norms_ref = &sq_norms;
        let point_sizes_ref = &point_sizes;
        let tasks = assignment_tasks(&mut assignments, &mut partials);
        par::run_tasks(tasks, n_threads, |(start, slice, partial)| {
            // Reused per-chunk scratch: the point's set-bit indices, so the
            // k centroid dot products walk a flat slice.
            let mut ones: Vec<usize> = Vec::with_capacity(64);
            for (offset, slot) in slice.iter_mut().enumerate() {
                let i = start + offset;
                ones.clear();
                points.point(i).for_each_one(|b| ones.push(b));
                let mut best = 0;
                let mut best_d2 = f64::INFINITY;
                for (c, &sq_norm) in sq_norms_ref.iter().enumerate() {
                    let crow = row(centroids_ref, c, nf);
                    let mut dot = 0.0;
                    for &b in &ones {
                        dot += crow[b];
                    }
                    let cand = (point_sizes_ref[i] - 2.0 * dot + sq_norm).max(0.0);
                    if cand < best_d2 {
                        best_d2 = cand;
                        best = c;
                    }
                }
                *slot = best;
                *partial += weights[i] * best_d2;
            }
        });
        let new_inertia: f64 = partials.iter().sum();

        // Update centroids into the reused accumulators.
        sums.fill(0.0);
        wsum.fill(0.0);
        for i in 0..n {
            let c = assignments[i];
            let w = weights[i];
            wsum[c] += w;
            let srow = &mut sums[c * nf..(c + 1) * nf];
            points.point(i).for_each_one(|b| srow[b] += w);
        }
        for c in 0..k {
            let crow = &mut centroids[c * nf..(c + 1) * nf];
            if wsum[c] > 0.0 {
                for (dst, &s) in crow.iter_mut().zip(&sums[c * nf..(c + 1) * nf]) {
                    *dst = s / wsum[c];
                }
            } else {
                let far = rng.gen_range(0..n);
                crow.fill(0.0);
                points.point(far).for_each_one(|b| crow[b] = 1.0);
            }
        }
        if (inertia - new_inertia).abs() < 1e-10 * (1.0 + inertia.abs()) {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }
    (Clustering::new(k, assignments), inertia)
}

#[inline]
fn row(flat: &[f64], c: usize, dims: usize) -> &[f64] {
    &flat[c * dims..(c + 1) * dims]
}

fn dist2_dense(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest_dense(p: &[f64], centroids: &[f64], k: usize, dims: usize) -> (usize, f64) {
    let mut best = 0;
    let mut best_d2 = f64::INFINITY;
    for c in 0..k {
        let d2 = dist2_dense(p, row(centroids, c, dims));
        if d2 < best_d2 {
            best_d2 = d2;
            best = c;
        }
    }
    (best, best_d2)
}

/// k-means++ over dense points; returns flat k×dims centroid rows. The
/// `d2`/`scores` buffers are allocated once for the whole seeding pass.
fn plus_plus_init_dense(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let dims = points[0].len();
    let mut centroids = Vec::with_capacity(k * dims);
    centroids.extend_from_slice(&points[pick_weighted(weights, rng)]);
    let mut d2 = vec![f64::INFINITY; points.len()];
    let mut scores = vec![0.0; points.len()];
    while centroids.len() < k * dims {
        let latest = &centroids[centroids.len() - dims..];
        for (slot, p) in d2.iter_mut().zip(points) {
            let d = dist2_dense(p, latest);
            if d < *slot {
                *slot = d;
            }
        }
        for ((score, &d), &w) in scores.iter_mut().zip(&d2).zip(weights) {
            *score = d * w;
        }
        let total: f64 = scores.iter().sum();
        let next =
            if total > 0.0 { pick_weighted(&scores, rng) } else { rng.gen_range(0..points.len()) };
        centroids.extend_from_slice(&points[next]);
    }
    centroids
}

/// Sample an index proportionally to non-negative weights.
fn pick_weighted(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::FeatureId;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    #[test]
    fn dense_separates_two_obvious_blobs() {
        let points = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
            vec![5.0, 5.1],
        ];
        let weights = vec![1.0; 6];
        let (c, inertia) = kmeans_dense(&points, &weights, KMeansConfig::new(2, 1));
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[0], c.assignments[2]);
        assert_eq!(c.assignments[3], c.assignments[4]);
        assert_eq!(c.assignments[3], c.assignments[5]);
        assert_ne!(c.assignments[0], c.assignments[3]);
        assert!(inertia < 0.1);
    }

    #[test]
    fn binary_separates_disjoint_workloads() {
        // Two workloads with disjoint feature sets (paper §5 motivation).
        let vs = [qv(&[0, 1, 2]), qv(&[0, 1]), qv(&[1, 2]), qv(&[10, 11]), qv(&[10, 12])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; 5];
        let (c, _) = kmeans_binary(&refs, &weights, 16, KMeansConfig::new(2, 7));
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[0], c.assignments[2]);
        assert_eq!(c.assignments[3], c.assignments[4]);
        assert_ne!(c.assignments[0], c.assignments[3]);
    }

    #[test]
    fn pointset_front_end_matches_sparse_front_end() {
        let vs: Vec<QueryVector> =
            (0..20u32).map(|i| qv(&[i % 6, (i * 3) % 6, 6 + i % 2])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let ps = PointSet::from_vectors(&refs, 16);
        let (a, ia) = kmeans_binary(&refs, &weights, 16, KMeansConfig::new(3, 11));
        let (b, ib) = kmeans_binary_pointset(&ps, &weights, KMeansConfig::new(3, 11));
        assert_eq!(a, b);
        assert_eq!(ia.to_bits(), ib.to_bits());
    }

    #[test]
    fn k_clamped_to_point_count() {
        let vs = [qv(&[0]), qv(&[1])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let (c, inertia) = kmeans_binary(&refs, &[1.0, 1.0], 4, KMeansConfig::new(10, 0));
        assert_eq!(c.k, 2);
        assert!(inertia < 1e-9);
    }

    #[test]
    fn k1_groups_everything() {
        let points = vec![vec![0.0], vec![1.0], vec![2.0]];
        let (c, _) = kmeans_dense(&points, &[1.0; 3], KMeansConfig::new(1, 0));
        assert!(c.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn weights_pull_centroids() {
        // A heavy point at 0 and light points at 1: with k = 1 the centroid
        // sits near 0, so inertia is dominated by the light points.
        let points = vec![vec![0.0], vec![1.0]];
        let (_, heavy0) = kmeans_dense(&points, &[100.0, 1.0], KMeansConfig::new(1, 0));
        let (_, balanced) = kmeans_dense(&points, &[1.0, 1.0], KMeansConfig::new(1, 0));
        // Weighted inertia with the heavy point is below the unweighted
        // two-point inertia scaled by total weight.
        assert!(heavy0 / 101.0 < balanced / 2.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let vs = [qv(&[0, 1]), qv(&[1, 2]), qv(&[5, 6]), qv(&[6, 7])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let (a, _) = kmeans_binary(&refs, &[1.0; 4], 10, KMeansConfig::new(2, 42));
        let (b, _) = kmeans_binary(&refs, &[1.0; 4], 10, KMeansConfig::new(2, 42));
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_threshold_crossing_is_deterministic() {
        // Enough points×k to engage the threaded assignment path; the
        // result must not depend on the number of workers.
        let vs: Vec<QueryVector> = (0..600u32)
            .map(|i| {
                let base = if i % 2 == 0 { 0 } else { 20 };
                qv(&[base + i % 5, base + (i / 5) % 5, base + 10 + i % 3])
            })
            .collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let (a, ia) = kmeans_binary(&refs, &weights, 40, KMeansConfig::new(2, 5));
        let (b, ib) = kmeans_binary(&refs, &weights, 40, KMeansConfig::new(2, 5));
        assert_eq!(a, b);
        assert_eq!(ia.to_bits(), ib.to_bits());
        // The two parity workloads use disjoint universes; they must split.
        assert_eq!(a.assignments[0], a.assignments[2]);
        assert_eq!(a.assignments[1], a.assignments[3]);
        assert_ne!(a.assignments[0], a.assignments[1]);
    }

    #[test]
    fn binary_inertia_decreases_with_k() {
        let vs: Vec<QueryVector> = (0..12u32).map(|i| qv(&[i, i + 1, i + 2])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let (_, i2) = kmeans_binary(&refs, &weights, 16, KMeansConfig::new(2, 3));
        let (_, i6) = kmeans_binary(&refs, &weights, 16, KMeansConfig::new(6, 3));
        assert!(i6 <= i2 + 1e-9, "inertia should not grow with k: {i2} -> {i6}");
    }
}
