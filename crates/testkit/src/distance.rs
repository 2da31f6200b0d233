//! The sparse distance reference: every distance computed by a sorted-id
//! merge over two [`QueryVector`]s, every matrix full and symmetric, and
//! average linkage run the textbook way over that matrix. Nothing here
//! shares code with `logr-cluster`'s popcount engine, condensed layout or
//! nearest-neighbour chain beyond the one float kernel
//! ([`Distance::of_mismatches`]) that defines each metric — which is what
//! makes it an oracle for them.

use logr_cluster::{Clustering, Distance};
use logr_feature::QueryVector;
use logr_math::Matrix;

/// The sparse spelling of a metric: distances between two vectors by
/// sorted-id merge.
pub trait SparseDistance {
    /// Distance between two binary vectors in a universe of `n` features.
    fn between(self, a: &QueryVector, b: &QueryVector, n: usize) -> f64;
}

impl SparseDistance for Distance {
    fn between(self, a: &QueryVector, b: &QueryVector, n: usize) -> f64 {
        self.of_mismatches(a.symmetric_difference_size(b), n)
    }
}

/// Full pairwise distance matrix over a set of vectors, every cell from
/// [`SparseDistance::between`] — the reference the dense engine's
/// condensed matrices are property-tested against.
pub fn distance_matrix(vectors: &[&QueryVector], metric: Distance, n_features: usize) -> Matrix {
    let n = vectors.len();
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = metric.between(vectors[i], vectors[j], n_features);
            m[(i, j)] = d;
            m[(j, i)] = d;
        }
    }
    m
}

/// Weighted average-linkage merges over the full [`distance_matrix`]:
/// nearest-neighbour chain with Lance–Williams updates on the symmetric
/// matrix, sharing no code with `logr-cluster`'s condensed build. Each
/// merge is `(node a, node b, linkage distance)` in emission order;
/// leaves are `0..n` and the `i`-th merge creates node `n + i`.
///
/// # Panics
/// Panics if `points` and `weights` differ in length.
pub fn average_linkage(
    points: &[&QueryVector],
    weights: &[f64],
    n_features: usize,
    metric: Distance,
) -> Vec<(usize, usize, f64)> {
    let n = points.len();
    assert_eq!(n, weights.len(), "one weight per point");
    let mut dist: Matrix = distance_matrix(points, metric, n_features);
    let mut size: Vec<f64> = weights.to_vec();
    let mut active: Vec<bool> = vec![true; n];
    let mut node_of: Vec<usize> = (0..n).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 1 {
        if chain.is_empty() {
            let first = active.iter().position(|&a| a).expect("active cluster exists");
            chain.push(first);
        }
        let a = *chain.last().expect("chain non-empty");
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for j in 0..n {
            if j != a && active[j] && dist[(a, j)] < best_d {
                best_d = dist[(a, j)];
                best = j;
            }
        }
        let b = best;
        if chain.len() >= 2 && chain[chain.len() - 2] == b {
            chain.pop();
            chain.pop();
            let (keep, drop) = if a < b { (a, b) } else { (b, a) };
            let new_node = n + merges.len();
            merges.push((node_of[keep], node_of[drop], best_d));
            let (sa, sb) = (size[keep], size[drop]);
            for j in 0..n {
                if j != keep && j != drop && active[j] {
                    let d = (sa * dist[(keep, j)] + sb * dist[(drop, j)]) / (sa + sb);
                    dist[(keep, j)] = d;
                    dist[(j, keep)] = d;
                }
            }
            size[keep] = sa + sb;
            active[drop] = false;
            node_of[keep] = new_node;
            remaining -= 1;
        } else {
            chain.push(b);
        }
    }
    merges
}

/// Cut `n` leaves into at most `k` clusters by applying the `n − k`
/// cheapest of `merges` (ties in emission order), numbering clusters by
/// their first leaf — the partition a dendrogram cut must return.
///
/// # Panics
/// Panics if `k == 0`.
pub fn cut(merges: &[(usize, usize, f64)], n: usize, k: usize) -> Clustering {
    assert!(k > 0, "k must be positive");
    // Every node's leaf set, so a merge joins two leaf sets outright.
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    for &(a, b, _) in merges {
        let joined = [members[a].clone(), members[b].clone()].concat();
        members.push(joined);
    }
    let mut order: Vec<usize> = (0..merges.len()).collect();
    order.sort_by(|&x, &y| merges[x].2.total_cmp(&merges[y].2));
    let mut label: Vec<usize> = (0..n).collect();
    for &m in order.iter().take(n - k.min(n)) {
        let (a, b, _) = merges[m];
        let (from, to) = (label[members[b][0]], label[members[a][0]]);
        for l in label.iter_mut() {
            if *l == from {
                *l = to;
            }
        }
    }
    let mut seen: Vec<usize> = Vec::new();
    let assignment: Vec<usize> = label
        .iter()
        .map(|l| match seen.iter().position(|s| s == l) {
            Some(i) => i,
            None => {
                seen.push(*l);
                seen.len() - 1
            }
        })
        .collect();
    Clustering::new(seen.len(), assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::FeatureId;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    #[test]
    fn euclidean_is_sqrt_of_mismatches() {
        let a = qv(&[0, 1, 2]);
        let b = qv(&[2, 3]); // symmetric difference {0,1,3}, d = 3
        assert!((Distance::Euclidean.between(&a, &b, 10) - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn manhattan_counts_mismatches() {
        let a = qv(&[0, 1]);
        let b = qv(&[1, 2]);
        assert_eq!(Distance::Manhattan.between(&a, &b, 10), 2.0);
    }

    #[test]
    fn minkowski_generalizes() {
        let a = qv(&[0, 1, 2, 3]);
        let b = qv(&[]);
        // d = 4: l1 = 4, l2 = 2, l4 = 4^(1/4) = √2.
        assert_eq!(Distance::Minkowski(1.0).between(&a, &b, 8), 4.0);
        assert!((Distance::Minkowski(2.0).between(&a, &b, 8) - 2.0).abs() < 1e-12);
        assert!((Distance::Minkowski(4.0).between(&a, &b, 8) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn hamming_is_normalized() {
        let a = qv(&[0, 1]);
        let b = qv(&[2, 3]);
        // d = 4 mismatches over n = 8 positions.
        assert!((Distance::Hamming.between(&a, &b, 8) - 0.5).abs() < 1e-12);
        assert_eq!(Distance::Hamming.between(&a, &a, 8), 0.0);
        assert_eq!(Distance::Hamming.between(&a, &b, 0), 0.0);
    }

    #[test]
    fn identity_and_symmetry_all_metrics() {
        let a = qv(&[0, 2, 5]);
        let b = qv(&[1, 2]);
        for m in
            [Distance::Euclidean, Distance::Manhattan, Distance::Minkowski(4.0), Distance::Hamming]
        {
            assert_eq!(m.between(&a, &a, 8), 0.0, "{:?} identity", m);
            assert_eq!(m.between(&a, &b, 8), m.between(&b, &a, 8), "{:?} symmetry", m);
            assert!(m.between(&a, &b, 8) > 0.0, "{:?} positivity", m);
        }
    }

    #[test]
    fn triangle_inequality_spot_check() {
        let a = qv(&[0, 1]);
        let b = qv(&[1, 2]);
        let c = qv(&[2, 3]);
        for m in [Distance::Euclidean, Distance::Manhattan, Distance::Hamming] {
            let ab = m.between(&a, &b, 8);
            let bc = m.between(&b, &c, 8);
            let ac = m.between(&a, &c, 8);
            assert!(ac <= ab + bc + 1e-12, "{:?} triangle", m);
        }
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let vs = [qv(&[0]), qv(&[0, 1]), qv(&[2])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let m = distance_matrix(&refs, Distance::Manhattan, 4);
        for i in 0..3 {
            assert_eq!(m[(i, i)], 0.0);
            for j in 0..3 {
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(0, 2)], 2.0);
    }
}
