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

    /// Check the metric's parameter, returning the violated rule as data.
    /// The one definition of a valid metric, shared by every front end
    /// that takes one from a caller or a store.
    pub fn validate(self) -> Result<(), &'static str> {
        match self {
            // NaN fails too: every distance would be NaN, and clustering
            // would find no nearest neighbour.
            Distance::Minkowski(p) if !(p.is_finite() && p >= 1.0) => {
                Err("Minkowski order must be finite and at least 1")
            }
            _ => Ok(()),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
