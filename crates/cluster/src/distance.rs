//! Distance measures on binary query vectors (paper §6.1).
//!
//! On binary vectors every lᵖ distance is a function of the symmetric-
//! difference cardinality `d = |x ⊕ y|`: Manhattan is `d`, Euclidean is
//! `√d`, Minkowski-p is `d^(1/p)`. The paper's Hamming distance is the
//! *normalized* mismatch rate `Count(x≠y) / (Count(x≠y) + Count(x=y))
//! = d / n`. These are the paper's four. Its footnote 1 evaluated and
//! dropped Chebyshev (on binary data, the 0/1 indicator of inequality)
//! and Canberra (which coincides with Manhattan); so does this enum, and
//! their stored tags, 4 and 5, stay reserved.

use logr_feature::QueryVector;
use logr_math::Matrix;
use std::borrow::Cow;

/// A distance measure over binary feature vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distance {
    /// l₂: `√d`.
    Euclidean,
    /// l₁: `d`.
    Manhattan,
    /// lᵖ: `d^(1/p)`. The paper uses `p = 4`.
    Minkowski(f64),
    /// Normalized mismatch rate `d / n` (needs the universe size).
    Hamming,
}

impl Distance {
    /// Distance as a function of the symmetric-difference cardinality `d`
    /// in a universe of `n` features.
    ///
    /// This is the shared kernel of both representations: the sparse path
    /// obtains `d` from an id merge, the dense [`crate::PointSet`] path
    /// from an xor-popcount — the float math is identical, so the two are
    /// bit-for-bit equivalent.
    #[inline]
    pub fn of_mismatches(self, d: usize, n: usize) -> f64 {
        let d = d as f64;
        match self {
            Distance::Euclidean => d.sqrt(),
            Distance::Manhattan => d,
            Distance::Minkowski(p) => {
                debug_assert!(p >= 1.0, "Minkowski order must be ≥ 1");
                d.powf(1.0 / p)
            }
            Distance::Hamming => {
                if n == 0 {
                    0.0
                } else {
                    d / n as f64
                }
            }
        }
    }

    /// Distance between two binary vectors in a universe of `n` features.
    pub fn between(self, a: &QueryVector, b: &QueryVector, n: usize) -> f64 {
        self.of_mismatches(a.symmetric_difference_size(b), n)
    }

    /// The `(tag byte, parameter)` pair binary formats store this metric
    /// as; the parameter is Minkowski's order and 0 for every other
    /// metric. Persisted stores depend on the tag values.
    pub fn tag(self) -> (u8, f64) {
        match self {
            Distance::Euclidean => (0, 0.0),
            Distance::Manhattan => (1, 0.0),
            Distance::Minkowski(p) => (2, p),
            Distance::Hamming => (3, 0.0),
        }
    }

    /// Inverse of [`Distance::tag`]; `None` for a byte no metric owns,
    /// the retired Chebyshev (4) and Canberra (5) included.
    pub fn from_tag(tag: u8, p: f64) -> Option<Distance> {
        Some(match tag {
            0 => Distance::Euclidean,
            1 => Distance::Manhattan,
            2 => Distance::Minkowski(p),
            3 => Distance::Hamming,
            _ => return None,
        })
    }

    /// Canonical label used in harness output. Borrowed for the three
    /// non-parameterized metrics; only `Minkowski(p)` allocates.
    pub fn label(self) -> Cow<'static, str> {
        match self {
            Distance::Euclidean => Cow::Borrowed("euclidean"),
            Distance::Manhattan => Cow::Borrowed("manhattan"),
            Distance::Minkowski(p) => Cow::Owned(format!("minkowski{p}")),
            Distance::Hamming => Cow::Borrowed("hamming"),
        }
    }
}

/// Full pairwise distance matrix over a set of vectors — the **sparse
/// reference implementation**.
///
/// Every cell is computed with the `O(|x| + |y|)` sorted-id merge. This is
/// the baseline the dense engine is property-tested and benchmarked
/// against; hot paths should use [`crate::PointSet::distances`], which
/// produces the same values from xor-popcounts in a condensed layout,
/// in parallel, at a fraction of the cost.
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

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::FeatureId;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    #[test]
    fn tags_round_trip_and_are_pinned() {
        let stored = [
            (Distance::Euclidean, 0),
            (Distance::Manhattan, 1),
            (Distance::Minkowski(4.0), 2),
            (Distance::Hamming, 3),
        ];
        for (metric, byte) in stored {
            let (tag, p) = metric.tag();
            assert_eq!(tag, byte, "{metric:?}: stores on disk carry this byte");
            assert_eq!(Distance::from_tag(tag, p), Some(metric));
        }
        assert_eq!(Distance::Minkowski(4.0).tag().1, 4.0);
        // Chebyshev's and Canberra's tags stay reserved: a store that
        // carries one resumes as a corrupt manifest, never as another metric.
        for retired in [4, 5, 6] {
            assert_eq!(Distance::from_tag(retired, 0.0), None, "tag {retired}");
        }
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
