//! The condensed matrix expanded back to a full one, so a dense build can
//! be compared with [`crate::distance::distance_matrix`] cell by cell.

use logr_cluster::CondensedMatrix;
use logr_math::Matrix;

/// Expansion of a condensed matrix to its symmetric full form.
pub trait FullMatrix {
    /// The symmetric full matrix with a zero diagonal.
    fn to_full(&self) -> Matrix;
}

impl FullMatrix for CondensedMatrix {
    fn to_full(&self) -> Matrix {
        let n = self.n();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.get(i, j);
                m[(i, j)] = d;
                m[(j, i)] = d;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_matrix;
    use logr_cluster::{Distance, PointSet};
    use logr_feature::{FeatureId, QueryVector};

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    fn all_metrics() -> [Distance; 4] {
        [Distance::Euclidean, Distance::Manhattan, Distance::Minkowski(4.0), Distance::Hamming]
    }

    #[test]
    fn dense_distances_match_sparse_reference_exactly() {
        let vs = [qv(&[0, 1, 2]), qv(&[2, 3]), qv(&[]), qv(&[0, 5, 63, 64]), qv(&[64]), qv(&[1])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let nf = 80;
        let ps = PointSet::from_vectors(&refs, nf);
        for metric in all_metrics() {
            let sparse = distance_matrix(&refs, metric, nf);
            let dense = ps.distances(metric);
            for i in 0..refs.len() {
                for j in 0..refs.len() {
                    // Bit-identical: both paths feed the same integer
                    // mismatch count through the same float kernel.
                    assert_eq!(
                        sparse[(i, j)].to_bits(),
                        dense.get(i, j).to_bits(),
                        "{metric:?} at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn to_full_matches_pairwise_gets() {
        let vs = [qv(&[0]), qv(&[0, 1]), qv(&[2, 3])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let ps = PointSet::from_vectors(&refs, 8);
        let cm = ps.distances(Distance::Manhattan);
        let full = cm.to_full();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(full[(i, j)], cm.get(i, j));
            }
        }
    }
}
