//! Dense popcount distance engine (the clustering hot path).
//!
//! Every clustering strategy in this crate funnels through pairwise
//! distances over binary query vectors, and on binary vectors every §6.1
//! metric is a function of the symmetric-difference cardinality
//! `d = |x ⊕ y|`. [`PointSet`] exploits that: it batch-converts a dataset's
//! sparse [`QueryVector`]s into `u64`-block [`BitVec`]s **once**, then
//! computes any metric from a single xor-popcount sweep — branch-free,
//! SIMD-friendly, and independent of how many features each query sets.
//!
//! Pairwise distances are materialized as a [`CondensedMatrix`]: only the
//! strict upper triangle, `n·(n−1)/2` doubles, halving memory versus the
//! full `n²` matrix. Rows of the triangle are
//! contiguous, so construction parallelizes over scoped threads with no
//! synchronization.

use crate::distance::Distance;
use crate::par;
use logr_feature::{BitVec, QueryLog, QueryVector};

use crate::par::PARALLEL_MIN_POINTS;

/// A dataset of binary vectors in dense popcount-ready form.
#[derive(Debug, Clone)]
pub struct PointSet {
    bits: Vec<BitVec>,
    n_features: usize,
}

impl PointSet {
    /// Batch-convert sparse vectors over a universe of `n_features`.
    ///
    /// # Panics
    /// Panics if any vector sets a feature outside the universe.
    pub fn from_vectors(points: &[&QueryVector], n_features: usize) -> Self {
        let bits = points.iter().map(|p| BitVec::from_query_vector(p, n_features)).collect();
        PointSet { bits, n_features }
    }

    /// Batch-convert a log's distinct entries (multiplicities are *not*
    /// stored here; clustering carries them as separate weights).
    pub fn from_log(log: &QueryLog) -> Self {
        let n_features = log.num_features();
        let bits =
            log.entries().iter().map(|(v, _)| BitVec::from_query_vector(v, n_features)).collect();
        PointSet { bits, n_features }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the set has no points.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Size of the feature universe.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Dense bits of point `i`.
    pub fn point(&self, i: usize) -> &BitVec {
        &self.bits[i]
    }

    /// `|xᵢ ⊕ xⱼ|` via popcount.
    #[inline]
    pub fn mismatches(&self, i: usize, j: usize) -> usize {
        self.bits[i].xor_count(&self.bits[j])
    }

    /// Distance between points `i` and `j` under `metric`.
    #[inline]
    pub fn distance(&self, i: usize, j: usize, metric: Distance) -> f64 {
        metric.of_mismatches(self.mismatches(i, j), self.n_features)
    }

    /// Distance from an external probe vector to point `i`.
    #[inline]
    pub fn distance_to(&self, probe: &BitVec, i: usize, metric: Distance) -> f64 {
        metric.of_mismatches(probe.xor_count(&self.bits[i]), self.n_features)
    }

    /// Index and distance of the point nearest to `probe` (ties to the
    /// lowest index). `None` for an empty set.
    pub fn nearest(&self, probe: &BitVec, metric: Distance) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.bits.len() {
            let d = self.distance_to(probe, i, metric);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best
    }

    /// All pairwise distances as a condensed upper-triangular matrix,
    /// computed in parallel for large sets.
    pub fn distances(&self, metric: Distance) -> CondensedMatrix {
        let n = self.bits.len();
        let mut cm = CondensedMatrix::zeros(n);
        if n < 2 {
            return cm;
        }
        // Row i of the strict upper triangle — the pairs (i, i+1..n) — is a
        // contiguous slice of the condensed buffer, so the rows partition
        // the buffer and can be filled lock-free.
        let rows = par::triangle_rows(&mut cm.data, n);
        let n_threads = if n < PARALLEL_MIN_POINTS { 1 } else { par::threads() };
        let bits = &self.bits;
        let n_features = self.n_features;
        par::run_tasks(rows, n_threads, |(i, row)| {
            let a = &bits[i];
            for (offset, cell) in row.iter_mut().enumerate() {
                let j = i + 1 + offset;
                *cell = metric.of_mismatches(a.xor_count(&bits[j]), n_features);
            }
        });
        cm
    }
}

/// Start of row `i` in a condensed strict-upper-triangle buffer over `n`
/// points — the offset of cell `(i, i+1)`; row `i` holds `n − 1 − i`
/// cells. The single source of the condensed layout's offset arithmetic,
/// shared by [`CondensedMatrix`] and the sharded build.
#[inline]
pub(crate) fn condensed_row_start(n: usize, i: usize) -> usize {
    i * (n - 1) - (i * i - i) / 2
}

/// Strict-upper-triangular pairwise distance matrix: entry `(i, j)` with
/// `i < j` lives at `i·(n−1) − i·(i−1)/2 + (j − i − 1)` (scipy `pdist`
/// layout). Symmetric reads are folded; the diagonal is implicitly zero.
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CondensedMatrix {
    /// All-zero condensed matrix over `n` points (`n·(n−1)/2` entries).
    pub fn zeros(n: usize) -> Self {
        CondensedMatrix { n, data: vec![0.0; n * n.saturating_sub(1) / 2] }
    }

    /// Number of points (side length of the square matrix it represents).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Strict-upper-triangle offset of `(i, j)`. Callers must route the
    /// diagonal first: with `i == j` the `j − i − 1` term underflows (debug)
    /// or silently aliases the last cell of row `i − 1` (release), so this
    /// stays private and every public read/write handles `i == j` in all
    /// build profiles before folding through it.
    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n, "condensed index ({i}, {j}) of {}", self.n);
        condensed_row_start(self.n, i) + (j - i - 1)
    }

    /// Distance between `i` and `j` (0 on the diagonal).
    ///
    /// The diagonal is handled by an explicit match arm — a release-build
    /// `i == j` read returns the implicit 0 rather than reaching the index
    /// formula, whose underflow a `debug_assert!` alone would not stop.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index ({i}, {j}) out of range {}", self.n);
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.data[self.index(i, j)],
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.data[self.index(j, i)],
        }
    }

    /// Set the distance between distinct points `i` and `j` (one write
    /// covers both orientations).
    ///
    /// # Panics
    /// Panics if `i == j` or an index is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i != j, "cannot set the diagonal of a condensed matrix");
        assert!(i < self.n && j < self.n, "index ({i}, {j}) out of range {}", self.n);
        let idx = if i < j { self.index(i, j) } else { self.index(j, i) };
        self.data[idx] = value;
    }

    /// The raw strict-upper-triangle buffer, row-major by `i`.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer (crate-internal: the sharded merge and the
    /// parallel builders fill disjoint row slices directly).
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::FeatureId;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    #[test]
    fn condensed_indexing_round_trips() {
        let n = 7;
        let mut cm = CondensedMatrix::zeros(n);
        let mut v = 1.0;
        for i in 0..n {
            for j in (i + 1)..n {
                cm.set(i, j, v);
                v += 1.0;
            }
        }
        // Entries are distinct, symmetric, and the diagonal reads zero.
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            assert_eq!(cm.get(i, i), 0.0);
            for j in 0..n {
                if i != j {
                    assert_eq!(cm.get(i, j), cm.get(j, i));
                    seen.insert(cm.get(i, j) as u64);
                }
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
        assert_eq!(cm.as_slice().len(), n * (n - 1) / 2);
    }

    #[test]
    fn set_accepts_either_orientation() {
        let mut cm = CondensedMatrix::zeros(4);
        cm.set(3, 1, 9.0);
        assert_eq!(cm.get(1, 3), 9.0);
        assert_eq!(cm.get(3, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_rejects_diagonal() {
        CondensedMatrix::zeros(4).set(2, 2, 1.0);
    }

    #[test]
    fn diagonal_reads_zero_in_every_build_profile() {
        // Regression for the folded-read hazard: `index(i, i)` would alias
        // the last cell of row `i − 1` in release builds (the `j − i − 1`
        // term wraps), so `get` must route the diagonal through its
        // explicit match arm — which, unlike a `debug_assert!`, is active
        // in release. Saturate every off-diagonal cell with a sentinel and
        // verify no diagonal read can observe it.
        let n = 6;
        let mut cm = CondensedMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                cm.set(i, j, 1e9);
            }
        }
        for i in 0..n {
            assert_eq!(cm.get(i, i), 0.0, "diagonal ({i}, {i}) leaked a folded cell");
        }
        // And folded reads still see the sentinel (the guard is precise).
        assert_eq!(cm.get(3, 2), 1e9);
    }

    #[test]
    fn parallel_build_agrees_with_serial_layout() {
        // Cross the PARALLEL_MIN_POINTS threshold to exercise the threaded
        // row fill, and verify against per-pair recomputation.
        let vs: Vec<QueryVector> =
            (0..150u32).map(|i| qv(&[i % 32, (i * 7) % 32, (i * 13) % 32])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let ps = PointSet::from_vectors(&refs, 32);
        let cm = ps.distances(Distance::Euclidean);
        for i in (0..150).step_by(17) {
            for j in (0..150).step_by(13) {
                assert_eq!(cm.get(i, j), ps.distance(i, j, Distance::Euclidean), "({i},{j})");
            }
        }
    }

    #[test]
    fn from_log_matches_from_vectors() {
        let mut log = QueryLog::new();
        log.add_vector(qv(&[0, 1]), 3);
        log.add_vector(qv(&[4]), 1);
        let ps = PointSet::from_log(&log);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.n_features(), log.num_features());
        assert_eq!(ps.mismatches(0, 1), 3);
    }

    #[test]
    fn nearest_and_probe_distances() {
        let vs = [qv(&[0, 1]), qv(&[4, 5]), qv(&[0, 1, 2])];
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let ps = PointSet::from_vectors(&refs, 8);
        let probe = BitVec::from_query_vector(&qv(&[0, 1, 2, 3]), 8);
        let (idx, d) = ps.nearest(&probe, Distance::Manhattan).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(d, 1.0);
        assert_eq!(ps.distance_to(&probe, 0, Distance::Manhattan), 2.0);
        let empty = PointSet::from_vectors(&[], 8);
        assert!(empty.nearest(&probe, Distance::Manhattan).is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn degenerate_sizes() {
        let ps = PointSet::from_vectors(&[], 4);
        assert_eq!(ps.distances(Distance::Manhattan).as_slice().len(), 0);
        let v = qv(&[1]);
        let one = PointSet::from_vectors(&[&v], 4);
        let cm = one.distances(Distance::Manhattan);
        assert_eq!(cm.n(), 1);
        assert_eq!(cm.get(0, 0), 0.0);
    }
}
