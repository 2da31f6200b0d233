//! Property tests for the dense popcount engine: the dense `PointSet`
//! distance matrix is bit-identical to the sparse reference across all four
//! metrics and random universes, and the condensed-layout hierarchical
//! clustering reproduces the dendrogram of a full-`Matrix` reference
//! implementation.

use logr_cluster::{hierarchical_cluster, Dendrogram, Distance, PointSet};
use logr_feature::{FeatureId, QueryVector};
use logr_testkit::distance::{average_linkage, distance_matrix};
use logr_testkit::pointset::FullMatrix as _;
use proptest::prelude::*;

fn all_metrics() -> Vec<Distance> {
    vec![Distance::Euclidean, Distance::Manhattan, Distance::Minkowski(4.0), Distance::Hamming]
}

/// Random point sets over random universe sizes (1–160 features, so the
/// bitsets span one to three `u64` blocks). Ids are drawn wide and folded
/// into the sampled universe.
fn arb_instance() -> impl Strategy<Value = (Vec<QueryVector>, usize)> {
    (1usize..160, prop::collection::vec(prop::collection::vec(0u32..4096, 0..12), 2..24)).prop_map(
        |(universe, rows)| {
            let vectors = rows
                .into_iter()
                .map(|ids| {
                    QueryVector::new(
                        ids.into_iter().map(|i| FeatureId(i % universe as u32)).collect(),
                    )
                })
                .collect();
            (vectors, universe)
        },
    )
}

fn merges_of(d: &Dendrogram) -> Vec<(usize, usize, f64)> {
    d.merges().iter().map(|m| (m.a, m.b, m.distance)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense and sparse kernels agree bit-for-bit on every pair, metric,
    /// and universe size.
    #[test]
    fn dense_matrix_bit_identical_to_sparse((vectors, universe) in arb_instance()) {
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let points = PointSet::from_vectors(&refs, universe);
        for metric in all_metrics() {
            let sparse = distance_matrix(&refs, metric, universe);
            let dense = points.distances(metric);
            for i in 0..refs.len() {
                for j in 0..refs.len() {
                    prop_assert_eq!(
                        sparse[(i, j)].to_bits(),
                        dense.get(i, j).to_bits(),
                        "{:?} differs at ({}, {})", metric, i, j
                    );
                }
            }
            // And the condensed expansion equals the sparse full matrix.
            prop_assert!(dense.to_full() == sparse, "{:?}: to_full mismatch", metric);
        }
    }

    /// Per-pair dense distances agree with the batch matrix (the matrix is
    /// filled row-parallel; `mismatches` is the scalar path).
    #[test]
    fn scalar_and_batch_dense_agree((vectors, universe) in arb_instance()) {
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let points = PointSet::from_vectors(&refs, universe);
        for metric in all_metrics() {
            let cm = points.distances(metric);
            for i in 0..points.len() {
                for j in 0..points.len() {
                    let scalar = metric.of_mismatches(points.mismatches(i, j), universe);
                    prop_assert_eq!(cm.get(i, j).to_bits(), scalar.to_bits());
                }
            }
        }
    }

    /// The condensed-layout hierarchical clustering emits exactly the
    /// dendrogram of the old full-`Matrix` implementation.
    #[test]
    fn condensed_hierarchical_matches_full_matrix_reference(
        (vectors, universe) in arb_instance(),
        weighted in any::<bool>(),
    ) {
        let refs: Vec<&QueryVector> = vectors.iter().collect();
        let weights: Vec<f64> = (0..refs.len())
            .map(|i| if weighted { 1.0 + (i % 5) as f64 } else { 1.0 })
            .collect();
        for metric in [Distance::Hamming, Distance::Manhattan] {
            let dendro = hierarchical_cluster(&refs, &weights, universe, metric);
            let reference = average_linkage(&refs, &weights, universe, metric);
            prop_assert_eq!(
                merges_of(&dendro),
                reference,
                "{:?}: dendrogram diverged from full-matrix reference", metric
            );
        }
    }
}
