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
//! full `n²` matrix.
//!
//! # The mismatch kernel
//!
//! Every dense mismatch count in the product comes from one of two fills,
//! generic over the cell they write: `fill_triangle` (a condensed
//! triangle: [`PointSet::distances`], a shard's own pairs) and
//! `fill_block` (rows × columns, narrower rows zero-extended: a shard's
//! cross block, [`PointSet::min_mismatches`]). Rows partition the output,
//! so both fan out lock-free, and every worker count fills the same bits.

use crate::distance::Distance;
use crate::par;
use logr_feature::{BitVec, QueryLog, QueryVector};

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

    /// For each probe, its fewest mismatches against any point of the
    /// set (`usize::MAX` when the set is empty); narrower probes are
    /// zero-extended. Every §6.1 metric is non-decreasing in the count,
    /// so a probe's nearest distance is the metric of this minimum.
    /// Probes go serially in groups of about `par::PARALLEL_MIN_CELLS`
    /// cells into one reused buffer, so the counts held at once stay
    /// bounded; a fan-out per group costs more than it saves.
    pub fn min_mismatches(&self, probes: &[BitVec]) -> Vec<usize> {
        let n = self.bits.len();
        let mut nearest = vec![usize::MAX; probes.len()];
        if n == 0 {
            return nearest;
        }
        let group = par::PARALLEL_MIN_CELLS.div_ceil(n);
        let mut counts = Vec::new();
        for (chunk, out) in probes.chunks(group).zip(nearest.chunks_mut(group)) {
            counts.resize(chunk.len() * n, 0u32);
            fill_block(chunk, &self.bits, &mut counts, |d| d as u32, 1);
            for (slot, row) in out.iter_mut().zip(counts.chunks(n)) {
                *slot = row.iter().min().map_or(usize::MAX, |&d| d as usize);
            }
        }
        nearest
    }

    /// All pairwise distances as a condensed upper-triangular matrix,
    /// computed in parallel for large sets.
    pub fn distances(&self, metric: Distance) -> CondensedMatrix {
        let mut cm = CondensedMatrix::zeros(self.bits.len());
        let nf = self.n_features;
        fill_triangle(&self.bits, &mut cm.data, |d| metric.of_mismatches(d, nf), par::threads());
        cm
    }
}

/// Fill `out`, the condensed strict upper triangle over `points` (one
/// universe), with `cell(|xᵢ ⊕ xⱼ|)` for every pair `i < j`, on up to
/// `max_threads` workers.
///
/// # Panics
/// Panics if `out` is not `n·(n−1)/2` long or the universes differ.
pub(crate) fn fill_triangle<T: Send>(
    points: &[BitVec],
    out: &mut [T],
    cell: impl Fn(usize) -> T + Sync,
    max_threads: usize,
) {
    let n = points.len();
    assert_eq!(out.len(), n * n.saturating_sub(1) / 2, "triangle buffer size");
    let n_threads = par::workers(out.len(), max_threads);
    par::run_tasks(par::triangle_rows(out, n), n_threads, |(i, row)| {
        let a = &points[i];
        for (slot, b) in row.iter_mut().zip(&points[i + 1..]) {
            *slot = cell(a.xor_count(b));
        }
    });
}

/// Fill `out`, a row-major `rows × columns.len()` block, with
/// `cell(|r ⊕ c|)` for every row `r` and column `c`, on up to
/// `max_threads` workers. The narrower of two bitsets is zero-extended:
/// a universe only grows, so that preserves the count exactly.
///
/// # Panics
/// Panics if `out` is not `rows · columns.len()` long.
pub(crate) fn fill_block<'a, T: Send>(
    rows: impl IntoIterator<Item = &'a BitVec>,
    columns: &[BitVec],
    out: &mut [T],
    cell: impl Fn(usize) -> T + Sync,
    max_threads: usize,
) {
    let cells = out.len();
    let tasks: Vec<(&BitVec, &mut [T])> =
        rows.into_iter().zip(out.chunks_mut(columns.len().max(1))).collect();
    assert_eq!(tasks.len() * columns.len(), cells, "block buffer size");
    let n_threads = par::workers(cells, max_threads);
    par::run_tasks(tasks, n_threads, |(a, row)| {
        for (slot, b) in row.iter_mut().zip(columns) {
            *slot = cell(a.xor_count_padded(b));
        }
    });
}

/// Start of row `i` in a condensed strict-upper-triangle buffer over `n`
/// points — the offset of cell `(i, i+1)`; row `i` holds `n − 1 − i`
/// cells. The single source of the condensed layout's offset arithmetic,
/// shared by [`CondensedMatrix`] and the sharded merge.
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
        // Cross the PARALLEL_MIN_CELLS threshold to exercise the threaded
        // row fill, and verify against per-pair recomputation.
        let vs: Vec<QueryVector> =
            (0..150u32).map(|i| qv(&[i % 32, (i * 7) % 32, (i * 13) % 32])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let ps = PointSet::from_vectors(&refs, 32);
        let cm = ps.distances(Distance::Euclidean);
        for i in (0..150).step_by(17) {
            for j in (0..150).step_by(13) {
                let d = Distance::Euclidean.of_mismatches(ps.mismatches(i, j), 32);
                assert_eq!(cm.get(i, j), d, "({i},{j})");
            }
        }
    }

    /// Random bitsets: `n` points over `nf` features, each bit set with
    /// probability about 1/8 (xorshift, fixed by `seed`).
    fn random_bits(seed: u64, n: usize, nf: usize) -> Vec<BitVec> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let mut b = BitVec::zeros(nf);
                for f in 0..nf {
                    if next() % 8 == 0 {
                        b.set(f);
                    }
                }
                b
            })
            .collect()
    }

    #[test]
    fn kernel_fills_are_identical_across_forced_worker_counts() {
        // Sizes on both sides of PARALLEL_MIN_CELLS, so the serial and the
        // fanned-out paths both run; block rows narrower than the columns
        // (a grown universe) exercise the zero extension.
        for (seed, n, nf, narrow) in [(1, 5, 70, 3), (2, 140, 130, 64), (3, 200, 64, 1)] {
            let points = random_bits(seed, n, nf);
            let rows = random_bits(seed + 100, n, narrow);
            let triangle = |threads: usize| {
                let mut out = vec![0u32; n * (n - 1) / 2];
                fill_triangle(&points, &mut out, |d| d as u32, threads);
                out
            };
            let block = |threads: usize| {
                let mut out = vec![0u32; n * n];
                fill_block(&rows, &points, &mut out, |d| d as u32, threads);
                out
            };
            let (serial_triangle, serial_block) = (triangle(1), block(1));
            for i in 0..n {
                for j in 0..n {
                    let padded = rows[i].xor_count_padded(&points[j]) as u32;
                    assert_eq!(serial_block[i * n + j], padded, "block ({i},{j})");
                    if i < j {
                        let d = points[i].xor_count(&points[j]) as u32;
                        assert_eq!(serial_triangle[condensed_row_start(n, i) + j - i - 1], d);
                    }
                }
            }
            for threads in [2, 3, 8] {
                assert_eq!(triangle(threads), serial_triangle, "triangle n={n} threads={threads}");
                assert_eq!(block(threads), serial_block, "block n={n} threads={threads}");
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
        let probes = [
            BitVec::from_query_vector(&qv(&[0, 1, 2, 3]), 8),
            BitVec::from_query_vector(&qv(&[4, 5]), 8),
            // Narrower than the set's universe: zero-extended.
            BitVec::from_query_vector(&qv(&[0]), 4),
        ];
        assert_eq!(ps.min_mismatches(&probes), vec![1, 0, 1]);
        assert_eq!(ps.min_mismatches(&[]), Vec::<usize>::new());
        let empty = PointSet::from_vectors(&[], 8);
        assert_eq!(empty.min_mismatches(&probes[..1]), vec![usize::MAX]);
        assert!(empty.is_empty());

        // More probes than one scan group holds: the groups cover every
        // probe once, in order.
        let many = random_bits(9, par::PARALLEL_MIN_CELLS.div_ceil(3) * 2 + 5, 8);
        let expected: Vec<usize> = many
            .iter()
            .map(|p| (0..ps.len()).map(|i| p.xor_count(ps.point(i))).min().unwrap())
            .collect();
        assert_eq!(ps.min_mismatches(&many), expected);
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
