//! Appendable, sharded condensed-matrix construction (streaming windows),
//! with optional out-of-core storage for closed shards.
//!
//! Rebuilding [`PointSet::distances`](crate::PointSet::distances) each
//! time a dataset grows makes windowed ingestion quadratic in the whole
//! history. [`ShardedPointSet`] takes points in **shards** (one per push
//! that brings points), and appending `w` points to a history of `h`
//! computes only the shard's own triangle (`w·(w−1)/2` pairs) and its
//! `h × w` cross block, both through the mismatch kernel in
//! `pointset.rs`. Earlier shards are never touched again, so they are
//! **immutable**, which is what the out-of-core layer exploits.
//!
//! Shards store **integer mismatch counts** (`d = |x ⊕ y|`), not metric
//! values: every §6.1 metric is a function of `(d, n_features)`, and the
//! universe may still grow after a shard is built. The one read,
//! [`ShardedPointSet::try_condensed`], applies the metric through
//! [`Distance::of_mismatches`] and materializes the whole
//! [`CondensedMatrix`] (what every consumer wants: Lance–Williams
//! mutates it in place, spectral's median-σ scans the raw buffer), bit
//! for bit what `PointSet::distances` gives over the concatenated points
//! at the final universe (`tests/proptest_shards.rs`).
//!
//! # Out-of-core shards
//!
//! A shard's counts grow with the history (`Σ hₛ·wₛ` cross cells).
//! [`ShardedPointSet::set_spill`] attaches a store ([`SpillConfig`]: a
//! directory and a resident-byte budget, in the versioned, checksummed
//! [`crate::spill`] format); after every append the set evicts closed
//! shards oldest-first, the newest pinned, until the resident counts fit.
//! Files are written once and re-eviction after a reload is free. The
//! **points** (`8·⌈features/64⌉ + 24` bytes each) stay resident outside
//! the budget: they are all an append needs, so **appends never read the
//! store**. A read reloads one spilled shard at a time and drops it, so
//! it holds the matrix it returns, the resident shards and at most one
//! reloaded shard (file bytes plus decoded counts; `tests/read_memory.rs`
//! gates it). Each shard holds one push's points, so no file grows with
//! the history.

use crate::distance::Distance;
use crate::par;
use crate::pointset::{condensed_row_start, fill_block, fill_triangle, CondensedMatrix};
use crate::spill::{self, ShardRecord, SpillError};
use crate::vfs::{self, Vfs};
use logr_feature::{BitVec, QueryVector};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-global sequence for spill file names. Clones of a spilling set
/// share a directory, so per-set indexes alone would collide; the file
/// name also carries the pid so concurrent processes pointed at one
/// store directory cannot overwrite each other's shards.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Out-of-core policy for a [`ShardedPointSet`].
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory shard files are written to (created if absent). Files
    /// are never deleted by the set — a shard's file outlives reloads, so
    /// re-evicting it later costs no I/O.
    pub dir: PathBuf,
    /// Resident budget in bytes for the shards' distances (what eviction
    /// can free; the points stay resident). After every append the set
    /// evicts closed shards oldest-first (hot tail pinned) until resident
    /// bytes fit; `0` keeps only the pinned tail resident. Oldest-first
    /// *is* least-recently-appended, and merges touch every shard
    /// equally, so no finer recency signal exists to act on.
    pub resident_budget: usize,
}

/// One shard — never empty — and where its payload currently lives.
#[derive(Debug, Clone)]
struct ShardSlot {
    /// The shard's points, resident whatever the budget (they are what an
    /// append reads of the history), sharing their allocation with the
    /// record while that is resident.
    bits: Arc<[BitVec]>,
    /// `Some` while resident; `None` once spilled (then `path` is `Some`).
    data: Option<Arc<ShardRecord>>,
    /// The shard's spill file, once it has ever been written.
    path: Option<PathBuf>,
    /// What evicting the shard frees: its distances
    /// ([`ShardRecord::payload_bytes`], stable across spill/reload).
    bytes: usize,
}

/// A dataset of binary vectors accumulated shard by shard, with pairwise
/// mismatch counts maintained incrementally and (optionally) spilled to a
/// persistent store under a resident-memory budget. Plain data behind
/// `Arc`s: a clone shares every payload and the store directory, and the
/// set is `Send + Sync` with no lock.
#[derive(Debug, Clone)]
pub struct ShardedPointSet {
    /// Widest universe seen so far; reads normalize against this.
    n_features: usize,
    /// Total points across all shards.
    len: usize,
    /// In point order: shard `s` starts where shards `..s` end.
    shards: Vec<ShardSlot>,
    spill: Option<SpillConfig>,
    /// Storage layer all spill reads/writes go through ([`crate::vfs`]);
    /// [`vfs::RealFs`] unless a test injected a fault filesystem.
    vfs: Arc<dyn Vfs>,
}

impl Default for ShardedPointSet {
    fn default() -> Self {
        ShardedPointSet::new()
    }
}

impl ShardedPointSet {
    /// Empty set (zero shards, empty universe, no spill store).
    pub fn new() -> Self {
        ShardedPointSet {
            n_features: 0,
            len: 0,
            shards: Vec::new(),
            spill: None,
            vfs: vfs::default_vfs(),
        }
    }

    /// Route every subsequent spill read/write through `vfs` — the
    /// injection point fault tests build on. Production code never calls
    /// this ([`vfs::RealFs`] is the default).
    pub fn set_vfs(&mut self, vfs: Arc<dyn Vfs>) {
        self.vfs = vfs;
    }

    /// Rebuild a set from a directory of previously spilled shard files —
    /// the recovery path behind `logr::Engine::open`. Every file is fully
    /// decoded (length, magic, version, checksum, structure) — the
    /// **once-per-open validation**; later reloads of these write-once
    /// files skip the checksum pass ([`spill::decode_trusted`]) — and the
    /// chain is validated — each record's `start` must equal the points
    /// before it and the feature universe may only grow. The decoded
    /// points are kept (they are what appends run on); the distances are
    /// dropped again, so the rebuilt set starts with **zero resident
    /// bytes** regardless of the budget and every read reloads
    /// transparently, exactly as after a long-running eviction. A
    /// zero-point record — format-valid, and what older stores hold for
    /// every close that found nothing new — is validated like any other
    /// link of the chain and then gets no shard.
    ///
    /// Any invalid file surfaces as the [`SpillError`] the decoder
    /// reports (missing → `Io`, cut short → `Truncated`, rotted →
    /// `ChecksumMismatch`, …); a chain inconsistency between valid files —
    /// including shard files whose payloads were swapped — is
    /// [`SpillError::ChainMismatch`]. Never panics. Every file operation
    /// goes through `vfs`.
    pub fn from_spilled_files_with(
        vfs: Arc<dyn Vfs>,
        config: SpillConfig,
        files: &[PathBuf],
    ) -> Result<ShardedPointSet, SpillError> {
        vfs.create_dir_all(&config.dir)?;
        let mut shards = Vec::with_capacity(files.len());
        let mut n_features = 0usize;
        let mut len = 0usize;
        for path in files {
            let record = spill::read_file_with(&*vfs, path)?;
            if record.start != len {
                return Err(SpillError::ChainMismatch {
                    detail: "recovered shard chain has a start/length mismatch",
                });
            }
            if record.n_features < n_features {
                return Err(SpillError::ChainMismatch {
                    detail: "recovered shard chain shrinks the feature universe",
                });
            }
            n_features = record.n_features;
            if record.is_empty() {
                continue;
            }
            len += record.len();
            shards.push(ShardSlot {
                bytes: record.payload_bytes(),
                bits: record.bits,
                data: None,
                path: Some(path.clone()),
            });
        }
        Ok(ShardedPointSet { n_features, len, shards, spill: Some(config), vfs })
    }

    /// Total number of points across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards: one per push that brought points.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current feature-universe size (the widest push so far).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Attach (or reconfigure) the out-of-core store: creates `dir` and
    /// immediately enforces the budget over the existing shards. The set
    /// works identically afterwards — reads against spilled shards reload
    /// transparently.
    pub fn set_spill(&mut self, config: SpillConfig) -> Result<(), SpillError> {
        self.vfs.create_dir_all(&config.dir)?;
        self.spill = Some(config);
        self.enforce_budget()
    }

    /// The active out-of-core policy, if any.
    pub fn spill_config(&self) -> Option<&SpillConfig> {
        self.spill.as_ref()
    }

    /// Re-bound the resident budget of an already-attached spill store,
    /// immediately enforcing the new bound (shrinking evicts oldest-first;
    /// growing lets future reloads stay resident). No-op without a spill
    /// store — a purely in-memory set has nowhere to evict to.
    pub fn set_resident_budget(&mut self, bytes: usize) -> Result<(), SpillError> {
        match self.spill.as_mut() {
            Some(config) => {
                config.resident_budget = bytes;
                self.enforce_budget()
            }
            None => Ok(()),
        }
    }

    /// Bytes of shard distances currently resident — what eviction can
    /// free; the points (linear in the history) are always resident and
    /// not counted. The eviction budget bounds this between appends; a
    /// bulk merge over spilled shards transiently holds one more shard,
    /// which this does not count and which is gone again when the call
    /// returns.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().filter(|s| s.data.is_some()).map(|s| s.bytes).sum()
    }

    /// Number of shards whose payload is currently on disk only.
    pub fn spilled_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.data.is_none()).count()
    }

    /// Ensure shard `s` has a store file (first write only — shards are
    /// immutable, so the file is reused forever after), leaving its
    /// residency untouched.
    ///
    /// # Panics
    /// Panics if no store was configured via
    /// [`ShardedPointSet::set_spill`] and the shard has never been
    /// written.
    fn write_shard_file(&mut self, s: usize) -> Result<(), SpillError> {
        if self.shards[s].path.is_some() {
            return Ok(());
        }
        // lint:allow(no-panic-paths): shards spill only through write_shard_file, so an unwritten shard still holds its payload — invariant, not input
        let data = self.shards[s].data.clone().expect("an unwritten shard is always resident");
        let dir = &self
            .spill
            .as_ref()
            // lint:allow(no-panic-paths): documented "# Panics" contract — calling persist without set_spill is a caller bug, not a runtime condition
            .expect("configure a spill store (set_spill) before persisting shards")
            .dir;
        let seq = SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        // pid + process-global sequence: unique across clones sharing
        // the directory AND across concurrent processes pointed at
        // the same store (either would otherwise overwrite the
        // other's checksum-valid files).
        let path = dir.join(format!("shard-{s:05}-{}-{seq:08x}.bin", std::process::id()));
        spill::write_file_with(&*self.vfs, &path, &data)?;
        self.shards[s].path = Some(path);
        Ok(())
    }

    /// Write shard `s` to the store (first eviction only — the file is
    /// reused afterwards) and drop its resident payload. Returns `false`
    /// when the shard was already spilled. A write failure keeps the
    /// payload resident (no data loss).
    fn spill_shard(&mut self, s: usize) -> Result<bool, SpillError> {
        if self.shards[s].data.is_none() {
            return Ok(false);
        }
        self.write_shard_file(s)?;
        self.shards[s].data = None;
        Ok(true)
    }

    /// Write every shard that has never been written to the store,
    /// **without evicting anything** — afterwards each shard's payload
    /// exists on disk (the durability point `Engine::open` recovers from)
    /// while residency, and therefore read performance, is unchanged.
    /// Returns how many files this call wrote.
    ///
    /// # Panics
    /// Panics if no store was configured via
    /// [`ShardedPointSet::set_spill`] and a shard has never been written.
    pub fn persist_all(&mut self) -> Result<usize, SpillError> {
        let mut written = 0;
        for s in 0..self.shards.len() {
            if self.shards[s].path.is_none() {
                self.write_shard_file(s)?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Shard `s`'s store file, once it has ever been written
    /// ([`ShardedPointSet::persist_all`] / eviction assign it).
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn shard_file(&self, s: usize) -> Option<&Path> {
        self.shards[s].path.as_deref()
    }

    /// Force every shard to disk, including the pinned tail — afterwards
    /// `resident_bytes() == 0` and every read reloads. Returns how many
    /// shards this call evicted.
    ///
    /// # Panics
    /// Panics if no store was configured via
    /// [`ShardedPointSet::set_spill`] and a shard has never been written.
    pub fn spill_all(&mut self) -> Result<usize, SpillError> {
        let mut evicted = 0;
        for s in 0..self.shards.len() {
            if self.spill_shard(s)? {
                evicted += 1;
            }
        }
        Ok(evicted)
    }

    /// Evict until the resident distances fit the budget: spill resident
    /// shards oldest-first (see [`SpillConfig::resident_budget`]).
    /// The newest shard is pinned — the streaming close path reads it
    /// immediately — so the budget is honored whenever it covers at least
    /// that one shard. Pushes without points leave no shard, so the pin
    /// always sits on a real one: a stream that stopped finding new points
    /// keeps its last shard resident under a smaller budget, however long
    /// ago that shard closed.
    fn enforce_budget(&mut self) -> Result<(), SpillError> {
        let Some(budget) = self.spill.as_ref().map(|c| c.resident_budget) else {
            return Ok(());
        };
        // One pass: track the remaining resident total and resume the
        // oldest-first scan where it left off, instead of recomputing
        // `resident_bytes()` (a full slot scan) per eviction — bulk
        // evictions are O(shards), not O(shards²).
        let mut resident = self.resident_bytes();
        let mut from = 0;
        while resident > budget {
            let pinned = self.shards.len().saturating_sub(1);
            let candidate = self.shards[from..pinned.max(from)]
                .iter()
                .position(|slot| slot.data.is_some())
                .map(|offset| from + offset);
            let Some(s) = candidate else { break };
            resident -= self.shards[s].bytes;
            self.spill_shard(s)?;
            from = s + 1;
        }
        Ok(())
    }

    /// The one reload path, called by the one reader (`try_condensed`): shard
    /// `s`'s payload from memory, else one read of its store file. The
    /// caller holds the returned `Arc` for as long as it needs the shard
    /// and drops it after — nothing is cached, so a read never changes
    /// [`ShardedPointSet::resident_bytes`].
    fn load_shard(&self, s: usize) -> Result<Arc<ShardRecord>, SpillError> {
        if let Some(data) = &self.shards[s].data {
            return Ok(data.clone());
        }
        // lint:allow(no-panic-paths): spilling writes the file before dropping the payload, so a spilled shard without a path is unreachable by construction
        let path = self.shards[s].path.as_ref().expect("a spilled shard always has a file");
        // Validate-once: every slot's file was checksummed in full exactly
        // once in this process — `from_spilled_files_with` decodes every
        // recovered file before admitting it, and every other path is a
        // file this process encoded and wrote itself. Shard files are
        // write-once, so reloads re-parse the (still structurally
        // validated) payload without re-hashing it — a budget-bounded
        // workload faults the same immutable files back in constantly,
        // and the checksum pass was the dominant redundant cost.
        Ok(Arc::new(spill::read_file_trusted_with(&*self.vfs, path)?))
    }

    /// Append one shard of points over a universe of `n_features`,
    /// computing its internal triangle and its cross block against all
    /// earlier points. Cost: `O(w² + h·w)` popcounts for a shard of `w`
    /// points over a history of `h` — never `O((h + w)²)`. A push of zero
    /// points widens the universe and leaves no shard (no slot, no store
    /// file, no eviction pass).
    ///
    /// The cross block runs on the resident points, so an append never
    /// reads the store; it may evict afterwards, and that is the only
    /// `Err`: the append itself already succeeded — check `len()` before
    /// retrying, or points double-append.
    ///
    /// # Panics
    /// Panics if `n_features` is smaller than a previous push's universe
    /// (codebooks only grow) or if a vector sets a feature outside it.
    pub fn try_push_shard(
        &mut self,
        vectors: &[&QueryVector],
        n_features: usize,
    ) -> Result<(), SpillError> {
        assert!(
            n_features >= self.n_features,
            "feature universe may only grow ({} < {})",
            n_features,
            self.n_features
        );
        self.n_features = n_features;
        if vectors.is_empty() {
            return Ok(());
        }
        let start = self.len();
        let w = vectors.len();
        let new_bits: Arc<[BitVec]> =
            vectors.iter().map(|v| BitVec::from_query_vector(v, n_features)).collect();
        let count = |d: usize| d as u32;

        let mut intra = vec![0u32; w * (w - 1) / 2];
        fill_triangle(&new_bits, &mut intra, count, par::threads());

        // Cross block against the history: one row per earlier point, on
        // the resident points. Earlier bitsets may be narrower (the
        // universe grew); the kernel zero-extends them.
        let mut cross = vec![0u32; start * w];
        let history = self.shards.iter().flat_map(|slot| slot.bits.iter());
        fill_block(history, &new_bits, &mut cross, count, par::threads());

        let record = ShardRecord { n_features, start, intra, cross, bits: new_bits.clone() };
        let bytes = record.payload_bytes();
        let data = Some(Arc::new(record));
        self.shards.push(ShardSlot { bits: new_bits, data, path: None, bytes });
        self.len += w;
        self.enforce_budget()
    }

    /// Materialize the merged condensed matrix under `metric` — the exact
    /// bits `PointSet::distances` would produce for the same points. A
    /// spilled shard that can no longer be reloaded (store deleted or
    /// corrupted underneath the set) surfaces as a [`SpillError`].
    ///
    /// Shard `t` owns a contiguous segment of every merged row it touches
    /// — the suffix of its own points' intra rows, plus one `w_t`-wide run
    /// in each earlier point's row (its cross block) — and merged rows are
    /// consumed left to right as `t` ascends, so each segment is split off
    /// exactly once with no per-cell shard lookup. A shard's segments fill
    /// in parallel, fanned out by its own cell count, so a history of many
    /// small shards fills serially. Spilled shards are loaded for their
    /// turn and dropped again, so a read over a spilled history holds at
    /// most one shard's payload beyond what is resident.
    pub fn try_condensed(&self, metric: Distance) -> Result<CondensedMatrix, SpillError> {
        let n = self.len();
        let mut cm = CondensedMatrix::zeros(n);
        if n < 2 {
            return Ok(cm);
        }
        let nf = self.n_features;
        // Each merged row, progressively consumed: rest[i] holds the not-
        // yet-filled tail of row i.
        let mut rest: Vec<&mut [f64]> =
            par::triangle_rows(cm.data_mut(), n).into_iter().map(|(_, row)| row).collect();
        let mut ts = 0;
        for (t, slot) in self.shards.iter().enumerate() {
            let wt = slot.bits.len();
            let te = ts + wt;
            let data = self.load_shard(t)?;
            let mut segments: Vec<(&[u32], &mut [f64])> = Vec::with_capacity(te);
            for (i, row) in rest.iter_mut().enumerate().take(te) {
                // Rows of shard t's own points still need their intra
                // suffix; every earlier row needs t's cross run.
                let seg_len = if i >= ts { te - i - 1 } else { wt };
                if seg_len == 0 {
                    continue;
                }
                let (seg, tail) = std::mem::take(row).split_at_mut(seg_len);
                *row = tail;
                let run: &[u32] = if i >= ts {
                    &data.intra[condensed_row_start(wt, i - ts)..][..seg_len]
                } else {
                    &data.cross[i * wt..][..seg_len]
                };
                segments.push((run, seg));
            }
            let cells: usize = segments.iter().map(|(run, _)| run.len()).sum();
            par::run_tasks(segments, par::workers(cells, par::threads()), |(run, seg)| {
                for (cell, &d) in seg.iter_mut().zip(run) {
                    *cell = metric.of_mismatches(d as usize, nf);
                }
            });
            ts = te;
        }
        debug_assert!(rest.iter().all(|r| r.is_empty()), "merge left unfilled cells");
        Ok(cm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointset::PointSet;
    use logr_feature::FeatureId;
    use logr_testkit::TempStore;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    fn sample() -> Vec<QueryVector> {
        vec![
            qv(&[0, 1, 2]),
            qv(&[2, 3]),
            qv(&[]),
            qv(&[0, 5, 63, 64]),
            qv(&[64]),
            qv(&[1]),
            qv(&[7, 8]),
        ]
    }

    /// The set is shared across reader threads inside `EngineSnapshot`
    /// with no lock of its own; this fails to compile if a field ever
    /// stops that.
    const _: fn() = || {
        fn check<T: Send + Sync>() {}
        check::<ShardedPointSet>();
    };

    fn all_metrics() -> [Distance; 4] {
        [Distance::Euclidean, Distance::Manhattan, Distance::Minkowski(4.0), Distance::Hamming]
    }

    #[test]
    fn sharded_matches_monolithic_across_shardings() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let nf = 80;
        let monolithic = PointSet::from_vectors(&refs, nf);
        for shard_size in [1, 2, 3, refs.len()] {
            let mut sharded = ShardedPointSet::new();
            for chunk in refs.chunks(shard_size) {
                sharded.try_push_shard(chunk, nf).unwrap();
            }
            assert_eq!(sharded.len(), refs.len());
            for metric in all_metrics() {
                let merged = sharded.try_condensed(metric).unwrap();
                let whole = monolithic.distances(metric);
                assert_eq!(
                    merged.as_slice(),
                    whole.as_slice(),
                    "{metric:?} shard_size={shard_size}"
                );
            }
        }
    }

    #[test]
    fn growing_universe_normalizes_at_the_widest_push() {
        // Shard 1 lives in a 8-feature universe, shard 2 widens it to 128;
        // Hamming must normalize every pair by the final width, exactly as
        // a monolithic build over the final universe would.
        let a = [qv(&[0, 1]), qv(&[2])];
        let b = [qv(&[100, 127]), qv(&[0])];
        let refs_a: Vec<&QueryVector> = a.iter().collect();
        let refs_b: Vec<&QueryVector> = b.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded.try_push_shard(&refs_a, 8).unwrap();
        sharded.try_push_shard(&refs_b, 128).unwrap();
        assert_eq!(sharded.n_features(), 128);

        let all: Vec<&QueryVector> = a.iter().chain(b.iter()).collect();
        let monolithic = PointSet::from_vectors(&all, 128);
        for metric in all_metrics() {
            assert_eq!(
                sharded.try_condensed(metric).unwrap().as_slice(),
                monolithic.distances(metric).as_slice(),
                "{metric:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "universe may only grow")]
    fn shrinking_universe_rejected() {
        let v = qv(&[0]);
        let mut sharded = ShardedPointSet::new();
        sharded.try_push_shard(&[&v], 16).unwrap();
        sharded.try_push_shard(&[&v], 8).unwrap();
    }

    #[test]
    fn empty_pushes_leave_no_shard() {
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded.try_push_shard(&[], 80).unwrap();
        sharded.try_push_shard(&refs[..4], 80).unwrap();
        sharded.try_push_shard(&[], 80).unwrap();
        sharded.try_push_shard(&refs[4..], 80).unwrap();
        assert_eq!(sharded.n_shards(), 2);
        assert_eq!(sharded.len(), 7);
        let monolithic = PointSet::from_vectors(&refs, 80);
        assert_eq!(
            sharded.try_condensed(Distance::Manhattan).unwrap().as_slice(),
            monolithic.distances(Distance::Manhattan).as_slice()
        );
        // The universe an empty push reports is kept: the next read
        // normalizes against it.
        sharded.try_push_shard(&[], 96).unwrap();
        assert_eq!((sharded.n_shards(), sharded.n_features()), (2, 96));
        let wider = PointSet::from_vectors(&refs, 96);
        assert_eq!(
            sharded.try_condensed(Distance::Hamming).unwrap().as_slice(),
            wider.distances(Distance::Hamming).as_slice()
        );
    }

    #[test]
    fn forced_thread_counts_are_deterministic() {
        // Big enough to cross PARALLEL_MIN_CELLS in both intra and cross;
        // the second push widens the universe, so the cross block
        // zero-extends the first shard's bitsets.
        let vs: Vec<QueryVector> = (0..300u32)
            .map(|i| {
                let mut ids = vec![i % 32, (i * 7) % 32, (i * 13) % 32];
                if i >= 150 {
                    ids.push(32 + (i * 5) % 64);
                }
                qv(&ids)
            })
            .collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded.try_push_shard(&refs[..150], 32).unwrap();
        sharded.try_push_shard(&refs[150..], 96).unwrap();
        let count = |d: usize| d as u32;
        for (s, slot) in sharded.shards.iter().enumerate() {
            let record = slot.data.as_ref().unwrap();
            let history = &sharded.shards[..s];
            for n_threads in [1usize, 2, 7] {
                let mut intra = vec![0u32; record.intra.len()];
                fill_triangle(&slot.bits, &mut intra, count, n_threads);
                assert_eq!(intra, record.intra, "shard {s} intra, n_threads={n_threads}");
                let mut cross = vec![0u32; record.cross.len()];
                let rows = history.iter().flat_map(|h| h.bits.iter());
                fill_block(rows, &slot.bits, &mut cross, count, n_threads);
                assert_eq!(cross, record.cross, "shard {s} cross, n_threads={n_threads}");
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        // `default()` must be the same valid empty set as `new()`.
        let defaulted = ShardedPointSet::default();
        assert!(defaulted.is_empty());
        assert_eq!(defaulted.try_condensed(Distance::Hamming).unwrap().n(), 0);

        let empty = ShardedPointSet::new();
        assert!(empty.is_empty());
        assert_eq!(empty.n_shards(), 0);
        assert_eq!(empty.try_condensed(Distance::Hamming).unwrap().n(), 0);

        let v = qv(&[1]);
        let mut one = ShardedPointSet::new();
        one.try_push_shard(&[&v], 4).unwrap();
        assert_eq!(one.len(), 1);
        let cm = one.try_condensed(Distance::Manhattan).unwrap();
        assert_eq!(cm.n(), 1);
        assert_eq!(cm.get(0, 0), 0.0);
    }

    #[test]
    fn budget_evicts_oldest_and_pins_the_tail() {
        let store = TempStore::new("budget");
        let vs: Vec<QueryVector> = (0..60u32).map(|i| qv(&[i % 16, (i * 3) % 16])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        for chunk in refs.chunks(10) {
            sharded.try_push_shard(chunk, 16).unwrap();
            // Budget 0: everything but the pinned tail is spilled, and the
            // tail is always the newest shard.
            let n = sharded.n_shards();
            assert!(sharded.shards[n - 1].data.is_some(), "hot tail must stay resident");
            assert_eq!(sharded.spilled_shards(), n - 1);
        }
        // The resident payload is exactly the tail's.
        assert!(sharded.resident_bytes() > 0);
        // Reads against spilled shards reload transparently and agree with
        // the monolithic build.
        let monolithic = PointSet::from_vectors(&refs, 16);
        assert_eq!(
            sharded.try_condensed(Distance::Hamming).unwrap().as_slice(),
            monolithic.distances(Distance::Hamming).as_slice()
        );
    }

    #[test]
    fn spill_all_forces_every_shard_out_and_back() {
        let store = TempStore::new("all");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut resident = ShardedPointSet::new();
        let mut spilled = ShardedPointSet::new();
        spilled
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX })
            .unwrap();
        for chunk in refs.chunks(2) {
            resident.try_push_shard(chunk, 80).unwrap();
            spilled.try_push_shard(chunk, 80).unwrap();
        }
        assert_eq!(spilled.spilled_shards(), 0, "unbounded budget spills nothing");
        let evicted = spilled.spill_all().unwrap();
        assert_eq!(evicted, spilled.n_shards());
        assert_eq!(spilled.resident_bytes(), 0);
        for metric in all_metrics() {
            assert_eq!(
                spilled.try_condensed(metric).unwrap().as_slice(),
                resident.try_condensed(metric).unwrap().as_slice(),
                "{metric:?}"
            );
        }
        // Merges stream shards transiently: after six full merges over a
        // fully spilled set nothing is resident — the budget holds across
        // reads, not just appends.
        assert_eq!(spilled.resident_bytes(), 0, "a merge must leave residency where it found it");
        assert_eq!(spilled.spill_all().unwrap(), 0, "payloads were already on disk");
    }

    #[test]
    fn pushing_against_spilled_history_matches_resident_push() {
        let store = TempStore::new("push");
        // Enough points per shard to exercise real cross blocks.
        let vs: Vec<QueryVector> =
            (0..200u32).map(|i| qv(&[i % 24, (i * 5) % 24, (i * 11) % 24])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut resident = ShardedPointSet::new();
        let mut spilled = ShardedPointSet::new();
        spilled
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        for chunk in refs.chunks(40) {
            resident.try_push_shard(chunk, 24).unwrap();
            spilled.try_push_shard(chunk, 24).unwrap(); // cross block runs on the resident points
        }
        assert_eq!(spilled.spilled_shards(), spilled.n_shards() - 1);
        assert_eq!(
            spilled.try_condensed(Distance::Manhattan).unwrap().as_slice(),
            resident.try_condensed(Distance::Manhattan).unwrap().as_slice()
        );
    }

    #[test]
    fn push_against_a_vanished_store_succeeds_and_the_next_read_fails_typed() {
        // An append runs on the resident points and never reads the
        // store, so a store that vanishes underneath the set cannot fail
        // it: the push appends and widens the universe. The damage
        // surfaces at the one reader — the next merge is the typed `Io`
        // error — and restoring the file restores reads bit-identical to
        // a set whose store never vanished.
        let store = TempStore::new("vanished");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        sharded.try_push_shard(&refs[..3], 80).unwrap();
        sharded.try_push_shard(&refs[3..5], 80).unwrap(); // spills shard 0
        assert_eq!(sharded.spilled_shards(), 1);
        let file = sharded.shard_file(0).unwrap().to_path_buf();
        let bytes = std::fs::read(&file).unwrap();
        std::fs::remove_file(&file).unwrap();
        sharded.try_push_shard(&refs[5..], 120).unwrap();
        assert_eq!(sharded.n_features(), 120);
        assert_eq!(sharded.len(), refs.len());
        let err = sharded.try_condensed(Distance::Hamming).unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err}");
        std::fs::write(&file, bytes).unwrap();
        let monolithic = PointSet::from_vectors(&refs, 120);
        for metric in all_metrics() {
            assert_eq!(
                sharded.try_condensed(metric).unwrap().as_slice(),
                monolithic.distances(metric).as_slice(),
                "{metric:?}"
            );
        }
    }

    #[test]
    fn persist_all_writes_files_without_evicting() {
        let store = TempStore::new("persist");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX })
            .unwrap();
        for chunk in refs.chunks(2) {
            sharded.try_push_shard(chunk, 80).unwrap();
        }
        let resident_before = sharded.resident_bytes();
        let written = sharded.persist_all().unwrap();
        assert_eq!(written, sharded.n_shards());
        assert_eq!(sharded.resident_bytes(), resident_before, "persisting must not evict");
        assert_eq!(sharded.spilled_shards(), 0);
        for s in 0..sharded.n_shards() {
            assert!(sharded.shard_file(s).is_some_and(Path::exists), "shard {s} has no file");
        }
        // Idempotent: the files exist, nothing rewrites.
        assert_eq!(sharded.persist_all().unwrap(), 0);
    }

    #[test]
    fn from_spilled_files_rebuilds_bit_identically() {
        let store = TempStore::new("recover");
        let vs: Vec<QueryVector> =
            (0..50u32).map(|i| qv(&[i % 8, (i * 3) % 40, (i * 11) % 40])).collect();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut original = ShardedPointSet::new();
        original
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX })
            .unwrap();
        for (c, chunk) in refs.chunks(10).enumerate() {
            original.try_push_shard(chunk, if c == 0 { 40 } else { 48 }).unwrap();
        }
        original.persist_all().unwrap();
        let files: Vec<PathBuf> = (0..original.n_shards())
            .map(|s| original.shard_file(s).unwrap().to_path_buf())
            .collect();

        let reopened = ShardedPointSet::from_spilled_files_with(
            vfs::default_vfs(),
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: usize::MAX },
            &files,
        )
        .unwrap();
        assert_eq!(reopened.len(), original.len());
        assert_eq!(reopened.n_shards(), original.n_shards());
        assert_eq!(reopened.n_features(), original.n_features());
        assert_eq!(reopened.resident_bytes(), 0, "recovery must not preload payloads");
        for metric in all_metrics() {
            assert_eq!(
                reopened.try_condensed(metric).unwrap().as_slice(),
                original.try_condensed(metric).unwrap().as_slice(),
                "{metric:?}"
            );
        }

        // A store written before empty pushes stopped leaving shards holds
        // a zero-point record per close that found nothing. They are
        // links of the chain like any other, and then get no shard: the
        // set equals the one rebuilt without them.
        let config = SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 };
        let empty = |name: &str, start: usize, n_features: usize| {
            let bits: Arc<[BitVec]> = Arc::new([]);
            let record = ShardRecord { n_features, start, intra: vec![], cross: vec![], bits };
            let path = store.join(name);
            spill::write_file_with(&*vfs::default_vfs(), &path, &record).unwrap();
            path
        };
        let mut padded = files.clone();
        padded.insert(2, empty("empty-mid.bin", 20, 48));
        padded.insert(0, empty("empty-head.bin", 0, 40));
        padded.push(empty("empty-tail.bin", 50, 48));
        let with_empties =
            ShardedPointSet::from_spilled_files_with(vfs::default_vfs(), config.clone(), &padded)
                .unwrap();
        assert_eq!(with_empties.len(), reopened.len());
        assert_eq!(with_empties.n_shards(), reopened.n_shards());
        assert_eq!(with_empties.n_features(), reopened.n_features());
        for metric in all_metrics() {
            assert_eq!(
                with_empties.try_condensed(metric).unwrap().as_slice(),
                reopened.try_condensed(metric).unwrap().as_slice(),
                "{metric:?}"
            );
        }
        for misplaced in [empty("empty-start.bin", 49, 48), empty("empty-narrow.bin", 50, 40)] {
            let mut chain = files.clone();
            chain.push(misplaced);
            let err = ShardedPointSet::from_spilled_files_with(
                vfs::default_vfs(),
                config.clone(),
                &chain,
            )
            .unwrap_err();
            assert!(matches!(err, SpillError::ChainMismatch { .. }), "{err}");
        }

        // A reordered chain is a typed error, not a wrong answer.
        let mut swapped = files.clone();
        swapped.swap(0, 1);
        let err = ShardedPointSet::from_spilled_files_with(
            vfs::default_vfs(),
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 },
            &swapped,
        )
        .unwrap_err();
        assert!(matches!(err, SpillError::ChainMismatch { .. }), "{err}");
        // A missing file is an I/O error.
        let mut missing = files.clone();
        missing[0] = store.join("gone.bin");
        let err = ShardedPointSet::from_spilled_files_with(
            vfs::default_vfs(),
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 },
            &missing,
        )
        .unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err}");
    }

    #[test]
    fn reloads_skip_the_checksum_pass_after_first_open_validation() {
        let store = TempStore::new("validate-once");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        sharded.try_push_shard(&refs[..4], 80).unwrap();
        sharded.try_push_shard(&refs[4..], 80).unwrap(); // spills shard 0
        assert!(sharded.shards[0].data.is_none());
        let before = sharded.try_condensed(Distance::Hamming).unwrap();
        // Flip a byte of the *stored checksum* (the payload is untouched):
        // a first-open validation rejects the file, but reloads trust it —
        // this process already checksummed these exact payload bytes once,
        // and the file is write-once.
        let path = sharded.shard_file(0).unwrap().to_path_buf();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            sharded.try_condensed(Distance::Hamming).unwrap().as_slice(),
            before.as_slice(),
            "trusted reload must serve the payload"
        );
        let err = ShardedPointSet::from_spilled_files_with(
            vfs::default_vfs(),
            SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 },
            &[path],
        )
        .unwrap_err();
        assert!(matches!(err, SpillError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn clones_share_the_store_without_colliding() {
        let store = TempStore::new("clone");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut base = ShardedPointSet::new();
        base.set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        base.try_push_shard(&refs[..4], 80).unwrap();
        let mut a = base.clone();
        let mut b = base.clone();
        // Both clones append shard #1 and spill it into the shared
        // directory; the global name sequence keeps the files distinct.
        a.try_push_shard(&refs[4..6], 80).unwrap();
        b.try_push_shard(&refs[4..], 80).unwrap();
        a.spill_all().unwrap();
        b.spill_all().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 7);
        let mono_a = PointSet::from_vectors(&refs[..6], 80);
        assert_eq!(
            a.try_condensed(Distance::Hamming).unwrap().as_slice(),
            mono_a.distances(Distance::Hamming).as_slice()
        );
        let mono_b = PointSet::from_vectors(&refs, 80);
        assert_eq!(
            b.try_condensed(Distance::Hamming).unwrap().as_slice(),
            mono_b.distances(Distance::Hamming).as_slice()
        );
    }

    #[test]
    fn store_failure_is_a_typed_error_not_a_corrupt_set() {
        let store = TempStore::new("fail");
        let vs = sample();
        let refs: Vec<&QueryVector> = vs.iter().collect();
        let mut sharded = ShardedPointSet::new();
        sharded
            .set_spill(SpillConfig { dir: store.path().to_path_buf(), resident_budget: 0 })
            .unwrap();
        sharded.try_push_shard(&refs[..3], 80).unwrap();
        // Point the store at a dead directory: the next eviction fails
        // with a typed error and the shard stays resident (no data loss).
        sharded.spill = Some(SpillConfig { dir: store.join("no/such/dir"), resident_budget: 0 });
        let err = sharded.try_push_shard(&refs[3..], 80).unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err}");
        assert_eq!(sharded.len(), refs.len(), "the append itself succeeded");
        assert_eq!(sharded.spilled_shards(), 0, "the failed eviction restored the payload");
        let monolithic = PointSet::from_vectors(&refs, 80);
        assert_eq!(
            sharded.try_condensed(Distance::Hamming).unwrap().as_slice(),
            monolithic.distances(Distance::Hamming).as_slice()
        );
    }
}
