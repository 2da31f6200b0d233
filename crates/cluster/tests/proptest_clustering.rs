//! Property tests for the clustering substrate: distance axioms, valid
//! partitions from every method, nested hierarchical cuts, and k-means
//! objective sanity on random inputs.

use logr_cluster::{hierarchical_cluster, kmeans_binary, Distance, KMeansConfig};
use logr_feature::{FeatureId, QueryVector};
use logr_testkit::distance::SparseDistance as _;
use proptest::prelude::*;

const UNIVERSE: usize = 32;

fn arb_points() -> impl Strategy<Value = Vec<QueryVector>> {
    prop::collection::vec(prop::collection::vec(0..UNIVERSE as u32, 0..8), 2..16).prop_map(|rows| {
        rows.into_iter()
            .map(|ids| QueryVector::new(ids.into_iter().map(FeatureId).collect()))
            .collect()
    })
}

fn all_metrics() -> Vec<Distance> {
    vec![Distance::Euclidean, Distance::Manhattan, Distance::Minkowski(4.0), Distance::Hamming]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distance_axioms(points in arb_points()) {
        for metric in all_metrics() {
            for a in &points {
                prop_assert_eq!(metric.between(a, a, UNIVERSE), 0.0);
                for b in &points {
                    let d_ab = metric.between(a, b, UNIVERSE);
                    prop_assert!(d_ab >= 0.0);
                    prop_assert_eq!(d_ab, metric.between(b, a, UNIVERSE));
                    if a != b {
                        prop_assert!(d_ab > 0.0, "distinct points at distance 0 ({metric:?})");
                    }
                }
            }
        }
    }

    #[test]
    fn triangle_inequality(points in arb_points()) {
        // All implemented metrics are metrics on binary vectors.
        for metric in [Distance::Euclidean, Distance::Manhattan, Distance::Hamming] {
            for a in &points {
                for b in &points {
                    for c in &points {
                        let ab = metric.between(a, b, UNIVERSE);
                        let bc = metric.between(b, c, UNIVERSE);
                        let ac = metric.between(a, c, UNIVERSE);
                        prop_assert!(ac <= ab + bc + 1e-9, "{metric:?} triangle violated");
                    }
                }
            }
        }
    }

    #[test]
    fn kmeans_produces_valid_partition(points in arb_points(), k in 1usize..6, seed in any::<u64>()) {
        let refs: Vec<&QueryVector> = points.iter().collect();
        let weights = vec![1.0; refs.len()];
        let (c, inertia) = kmeans_binary(&refs, &weights, UNIVERSE, KMeansConfig::new(k, seed));
        prop_assert_eq!(c.len(), refs.len());
        prop_assert!(c.assignments.iter().all(|&a| a < c.k));
        prop_assert!(inertia >= -1e-9);
        // Identical points land in the same cluster.
        for i in 0..refs.len() {
            for j in 0..refs.len() {
                if refs[i] == refs[j] {
                    prop_assert_eq!(c.assignments[i], c.assignments[j]);
                }
            }
        }
    }

    #[test]
    fn hierarchical_cuts_nested(points in arb_points(), seed in any::<u64>()) {
        let _ = seed;
        let refs: Vec<&QueryVector> = points.iter().collect();
        let weights = vec![1.0; refs.len()];
        let d = hierarchical_cluster(&refs, &weights, UNIVERSE, Distance::Hamming);
        let n = refs.len();
        prop_assert_eq!(d.merges().len(), n - 1);
        for k in 1..n {
            let coarse = d.cut(k);
            let fine = d.cut(k + 1);
            prop_assert!(coarse.non_empty() <= k);
            // Nestedness: fine clusters map into exactly one coarse cluster.
            let mut map = std::collections::HashMap::new();
            for i in 0..n {
                let entry = map.entry(fine.assignments[i]).or_insert(coarse.assignments[i]);
                prop_assert_eq!(*entry, coarse.assignments[i], "cut({}) not nested", k);
            }
        }
    }

    #[test]
    fn kmeans_k1_inertia_matches_variance(points in arb_points()) {
        // With one cluster the centroid is the weighted mean; inertia equals
        // total squared deviation, which is minimal — re-running with any
        // seed gives the same value.
        let refs: Vec<&QueryVector> = points.iter().collect();
        let weights = vec![1.0; refs.len()];
        let (_, i1) = kmeans_binary(&refs, &weights, UNIVERSE, KMeansConfig::new(1, 1));
        let (_, i2) = kmeans_binary(&refs, &weights, UNIVERSE, KMeansConfig::new(1, 99));
        prop_assert!((i1 - i2).abs() < 1e-9);
    }
}
