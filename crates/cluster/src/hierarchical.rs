//! Agglomerative hierarchical clustering (average linkage).
//!
//! The paper points to hierarchical clustering as the monotonic alternative
//! to flat clustering (§6.1.1): cutting the dendrogram at successive K gives
//! *nested* partitions, so the Error/Verbosity trade-off can be tuned
//! dynamically without reshuffling clusters.
//!
//! Uses the nearest-neighbor-chain algorithm — `O(n²)` time for reducible
//! linkages such as (weighted) average linkage — over the condensed
//! upper-triangular distance matrix produced by the dense popcount engine
//! ([`PointSet::distances`]), which halves the matrix memory and builds in
//! parallel.

use crate::assign::Clustering;
use crate::distance::Distance;
use crate::pointset::{CondensedMatrix, PointSet};
use logr_feature::QueryVector;

/// One dendrogram merge, in node-id space: leaves are `0..n`, the merge at
/// emission index `i` creates node `n + i`. Children always have smaller
/// node ids than the node they create.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged node.
    pub a: usize,
    /// Second merged node.
    pub b: usize,
    /// Average-linkage distance at which the merge happened.
    pub distance: f64,
}

/// The full merge tree produced by agglomerative clustering.
///
/// Merges are stored in *emission order* (nearest-neighbor-chain order),
/// which is not globally sorted by distance; [`Dendrogram::cut`] applies
/// them in stable distance order, which reproduces the greedy agglomerative
/// sequence for reducible linkages.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of leaf items.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Merges in emission order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Emission indices sorted by (distance, emission order).
    fn application_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.merges.len()).collect();
        order.sort_by(|&x, &y| self.merges[x].distance.total_cmp(&self.merges[y].distance));
        order
    }

    /// A representative leaf per node id. Safe in emission order: every
    /// merge references only previously created nodes.
    fn leaf_of_nodes(&self) -> Vec<usize> {
        let n = self.n_leaves;
        let mut leaf: Vec<usize> = (0..n + self.merges.len()).collect();
        for (i, m) in self.merges.iter().enumerate() {
            leaf[n + i] = leaf[m.a];
        }
        leaf
    }

    /// Cut the tree into (at most) `k` clusters by applying the `n − k`
    /// cheapest merges.
    ///
    /// The `n − 1` merges form a spanning tree over the leaves (each merge
    /// is one edge between a leaf of its left and right subtree), so *any*
    /// subset of `n − k` merge edges yields exactly `k` components, even
    /// when floating-point noise makes a parent's linkage distance tie or
    /// dip below a child's. Cuts are **monotonic**: `cut(k)` applies a
    /// superset of `cut(k + 1)`'s edges, so it is a coarsening.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn cut(&self, k: usize) -> Clustering {
        assert!(k > 0, "k must be positive");
        let n = self.n_leaves;
        let k = k.min(n);

        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        let leaf_of = self.leaf_of_nodes();
        for &mi in self.application_order().iter().take(n - k) {
            let m = self.merges[mi];
            let ra = find(&mut parent, leaf_of[m.a]);
            let rb = find(&mut parent, leaf_of[m.b]);
            parent[rb] = ra;
        }

        let mut remap = std::collections::HashMap::new();
        let mut assignments = Vec::with_capacity(n);
        for i in 0..n {
            let r = find(&mut parent, i);
            let next = remap.len();
            let c = *remap.entry(r).or_insert(next);
            assignments.push(c);
        }
        Clustering::new(remap.len(), assignments)
    }
}

/// Build the average-linkage dendrogram of sparse binary vectors.
///
/// Convenience wrapper: batch-converts the points into a [`PointSet`] and
/// delegates to [`hierarchical_cluster_pointset`]. Callers clustering the
/// same dataset repeatedly should build the `PointSet` once themselves.
///
/// # Panics
/// Panics if `points` is empty or lengths mismatch.
pub fn hierarchical_cluster(
    points: &[&QueryVector],
    weights: &[f64],
    n_features: usize,
    metric: Distance,
) -> Dendrogram {
    hierarchical_cluster_pointset(&PointSet::from_vectors(points, n_features), weights, metric)
}

/// Build the average-linkage dendrogram over a pre-converted [`PointSet`].
///
/// `weights` act as item multiplicities: a vector occurring `c` times pulls
/// linkage averages with weight `c`, exactly as if it appeared `c` times.
/// The working distances live in a condensed upper-triangular matrix —
/// `n·(n−1)/2` doubles instead of the full `n²` — and the initial fill is
/// the parallel popcount kernel.
///
/// # Panics
/// Panics if `points` is empty or lengths mismatch.
pub fn hierarchical_cluster_pointset(
    points: &PointSet,
    weights: &[f64],
    metric: Distance,
) -> Dendrogram {
    assert!(!points.is_empty(), "hierarchical clustering over empty point set");
    hierarchical_cluster_condensed(points.distances(metric), weights)
}

/// Build the average-linkage dendrogram from a precomputed condensed
/// distance matrix (consumed: the Lance–Williams updates overwrite it).
///
/// This is the entry point the sharded/streaming path uses:
/// [`crate::ShardedPointSet::try_condensed`] materializes the merged matrix
/// once and clustering proceeds without recomputing any pairwise distance.
///
/// # Panics
/// Panics if the matrix is empty or its size mismatches `weights`.
pub fn hierarchical_cluster_condensed(mut dist: CondensedMatrix, weights: &[f64]) -> Dendrogram {
    let n = dist.n();
    assert!(n > 0, "hierarchical clustering over empty distance matrix");
    assert_eq!(n, weights.len(), "weights length mismatch");
    let mut size: Vec<f64> = weights.to_vec();
    let mut active: Vec<bool> = vec![true; n];
    // Slot → current node id (leaves 0..n; the i-th merge creates n + i).
    let mut node_of: Vec<usize> = (0..n).collect();
    let mut merges: Vec<Merge> = Vec::with_capacity(n.saturating_sub(1));

    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;

    while remaining > 1 {
        if chain.is_empty() {
            // lint:allow(no-panic-paths): remaining > 1 guarantees at least one active slot — loop invariant, not input
            let first = active.iter().position(|&a| a).expect("active cluster exists");
            chain.push(first);
        }
        // lint:allow(no-panic-paths): the branch above pushes when the chain is empty, so last() cannot miss
        let a = *chain.last().expect("chain non-empty");
        // Nearest active neighbor of a (one condensed row + column scan).
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for (j, &is_active) in active.iter().enumerate() {
            if j != a && is_active {
                let d = dist.get(a, j);
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
        }
        let b = best;
        if chain.len() >= 2 && chain[chain.len() - 2] == b {
            // Reciprocal nearest neighbors: merge a and b into slot `keep`.
            chain.pop();
            chain.pop();
            let (keep, drop) = if a < b { (a, b) } else { (b, a) };
            let new_node = n + merges.len();
            merges.push(Merge { a: node_of[keep], b: node_of[drop], distance: best_d });
            // Lance–Williams update for weighted average linkage; one
            // condensed write covers both orientations.
            let (sa, sb) = (size[keep], size[drop]);
            for (j, &is_active) in active.iter().enumerate() {
                if j != keep && j != drop && is_active {
                    let d = (sa * dist.get(keep, j) + sb * dist.get(drop, j)) / (sa + sb);
                    dist.set(keep, j, d);
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

    Dendrogram { n_leaves: n, merges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::FeatureId;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    fn sample() -> Vec<QueryVector> {
        vec![
            qv(&[0, 1, 2]),
            qv(&[0, 1]),
            qv(&[1, 2]),
            qv(&[10, 11, 12]),
            qv(&[10, 11]),
            qv(&[11, 12]),
        ]
    }

    #[test]
    fn produces_n_minus_one_merges() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let d = hierarchical_cluster(&refs, &[1.0; 6], 16, Distance::Manhattan);
        assert_eq!(d.n_leaves(), 6);
        assert_eq!(d.merges().len(), 5);
    }

    #[test]
    fn children_precede_parents_in_emission_order() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let d = hierarchical_cluster(&refs, &[1.0; 6], 16, Distance::Manhattan);
        for (i, m) in d.merges().iter().enumerate() {
            assert!(m.a < 6 + i, "merge {i} references future node {}", m.a);
            assert!(m.b < 6 + i, "merge {i} references future node {}", m.b);
        }
    }

    #[test]
    fn parent_distance_at_least_child_distance() {
        // Reducibility of average linkage in practice.
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let d = hierarchical_cluster(&refs, &[1.0; 6], 16, Distance::Manhattan);
        let n = d.n_leaves();
        for (i, m) in d.merges().iter().enumerate() {
            for child in [m.a, m.b] {
                if child >= n {
                    let cd = d.merges()[child - n].distance;
                    assert!(cd <= m.distance + 1e-12, "merge {i} cheaper than child");
                }
            }
        }
    }

    #[test]
    fn cut_two_separates_workloads() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let d = hierarchical_cluster(&refs, &[1.0; 6], 16, Distance::Hamming);
        let c = d.cut(2);
        assert_eq!(c.non_empty(), 2);
        assert_eq!(c.assignments[0], c.assignments[1]);
        assert_eq!(c.assignments[0], c.assignments[2]);
        assert_eq!(c.assignments[3], c.assignments[4]);
        assert_ne!(c.assignments[0], c.assignments[3]);
    }

    #[test]
    fn cuts_are_monotonic_refinements() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let d = hierarchical_cluster(&refs, &[1.0; 6], 16, Distance::Manhattan);
        for k in 1..6 {
            let coarse = d.cut(k);
            let fine = d.cut(k + 1);
            // Every fine cluster maps into exactly one coarse cluster.
            let mut mapping = std::collections::HashMap::new();
            for i in 0..6 {
                let entry = mapping.entry(fine.assignments[i]).or_insert(coarse.assignments[i]);
                assert_eq!(*entry, coarse.assignments[i], "cut({k}) not a coarsening");
            }
        }
    }

    #[test]
    fn cut_extremes() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let d = hierarchical_cluster(&refs, &[1.0; 6], 16, Distance::Manhattan);
        assert_eq!(d.cut(1).non_empty(), 1);
        assert_eq!(d.cut(6).non_empty(), 6);
        // k beyond n clamps.
        assert_eq!(d.cut(100).non_empty(), 6);
    }

    #[test]
    fn single_point_dendrogram() {
        let vs = [qv(&[0])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let d = hierarchical_cluster(&refs, &[1.0], 4, Distance::Manhattan);
        assert_eq!(d.merges().len(), 0);
        assert_eq!(d.cut(1).k, 1);
    }

    #[test]
    fn weights_affect_linkage() {
        // Heavily weighted outlier pulls average-linkage distances.
        let vs = [qv(&[0]), qv(&[0, 1]), qv(&[5, 6, 7])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let d1 = hierarchical_cluster(&refs, &[1.0, 1.0, 1.0], 8, Distance::Manhattan);
        let d2 = hierarchical_cluster(&refs, &[100.0, 1.0, 1.0], 8, Distance::Manhattan);
        // Both still merge the two close points first.
        assert_eq!(d1.merges()[0].distance, d2.merges()[0].distance);
        assert_eq!(d1.cut(2).assignments, d2.cut(2).assignments);
    }

    #[test]
    fn condensed_entry_point_matches_pointset_path() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let ps = PointSet::from_vectors(&refs, 16);
        let weights = vec![1.0; refs.len()];
        let via_points = hierarchical_cluster_pointset(&ps, &weights, Distance::Hamming);
        let via_matrix = hierarchical_cluster_condensed(ps.distances(Distance::Hamming), &weights);
        assert_eq!(via_points, via_matrix);
    }

    #[test]
    fn larger_random_instance_is_consistent() {
        // 40 points in two blocks; all cuts valid partitions.
        let mut vs = Vec::new();
        for i in 0..20u32 {
            vs.push(qv(&[i % 5, (i + 1) % 5]));
            vs.push(qv(&[20 + i % 5, 20 + (i + 1) % 5]));
        }
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let weights = vec![1.0; refs.len()];
        let d = hierarchical_cluster(&refs, &weights, 32, Distance::Hamming);
        for k in [1, 2, 3, 7, 40] {
            let c = d.cut(k);
            assert_eq!(c.len(), 40);
            assert!(c.non_empty() <= k.min(40));
        }
        assert_eq!(d.cut(2).non_empty(), 2);
    }
}
