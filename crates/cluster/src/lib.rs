//! Clustering substrate for LogR.
//!
//! LogR constructs pattern *mixture* encodings by partitioning the log and
//! encoding each partition separately (paper §5, §6.1). The partitioning is
//! plain clustering of query feature vectors; the paper evaluates four
//! strategies — KMeans with Euclidean distance and spectral clustering with
//! Manhattan, Minkowski (p = 4) and Hamming distances — plus hierarchical
//! clustering as the monotonic alternative (§6.1.1).
//!
//! All algorithms operate on **distinct** query vectors weighted by
//! multiplicity, which yields the same partitions as clustering the raw log
//! while keeping costs proportional to the distinct count.
//!
//! # Performance architecture (PR 1)
//!
//! Clustering cost dominates end-to-end compression time (paper §6.1), and
//! on binary vectors every §6.1 metric is a function of the symmetric-
//! difference cardinality `d = |x ⊕ y|`. The hot path is therefore built in
//! three layers:
//!
//! 1. **Dense kernel** — [`PointSet`] batch-converts a dataset's sparse
//!    vectors into `u64`-block bitsets once; any metric is then one
//!    xor-popcount sweep via [`Distance::of_mismatches`]. The float math is
//!    shared with the sparse reference in the dev-only `logr-testkit`
//!    crate, so the two are bit-for-bit equivalent (property-tested in
//!    `tests/proptest_pointset.rs`).
//! 2. **Condensed storage** — pairwise distances materialize as a
//!    [`CondensedMatrix`]: the strict upper triangle only, `n·(n−1)/2`
//!    doubles, halving memory versus the full `Matrix`. Hierarchical
//!    NN-chain and Lance–Williams updates, and the spectral affinity, read
//!    and write this layout directly.
//! 3. **Scoped-thread parallelism** — matrix construction, k-means++
//!    seeding sweeps, and Lloyd assignment fan out over `std::thread::scope`
//!    workers (no external dependency; `LOGR_THREADS=1` forces the
//!    serial path). RNG-dependent decisions stay on the
//!    coordinating thread and floating-point reductions are associated by
//!    fixed-width chunk, not by worker, so parallel and serial results
//!    are bit-identical regardless of core count.
//!
//! # Modules
//!
//! * [`distance`] — the §6.1 distance measures on binary vectors;
//! * [`pointset`] — the dense popcount engine and condensed matrix;
//! * [`shard`] — appendable/sharded condensed construction for streaming
//!   windows (one shard per window that brought new points): per-shard
//!   triangles plus cross blocks, merged by
//!   [`ShardedPointSet::try_condensed`] into a matrix bit-identical to
//!   the monolithic build (window-close cost ∝ window, not history), with
//!   an optional out-of-core store ([`SpillConfig`]) whose budget bounds
//!   the quadratic part — closed shards' distances are evicted to disk
//!   and reloaded by the merge, the store's one reader — while the
//!   points, linear in the history, stay resident so appends never read
//!   the store;
//! * [`spill`] — the versioned, checksummed on-disk shard format
//!   (magic + header + condensed triangle + cross block + bit-packed
//!   points + FNV-1a 64 checksum) with typed [`SpillError`] decoding;
//! * [`vfs`] — the injectable storage layer every file operation goes
//!   through: the [`Vfs`] trait, the [`RealFs`] passthrough, and the
//!   bounded transient-IO retry policy ([`vfs::retry_io`]);
//! * [`kmeans`] — weighted Lloyd iteration with k-means++ seeding (dense and
//!   binary front ends, `*_pointset` variants for pre-converted data);
//! * [`spectral`] — Ng–Jordan–Weiss spectral clustering over an RBF affinity
//!   of any distance, eigenvectors via Lanczos;
//! * [`hierarchical`] — agglomerative average-linkage clustering (nearest-
//!   neighbor-chain over the condensed layout), with monotonic cuts;
//! * [`assign`] — the shared [`Clustering`] result type;
//! * [`method`] — the [`method::ClusterMethod`] façade used by the
//!   compressor and the reproduction harness.

pub mod assign;
pub mod distance;
pub mod hierarchical;
pub mod kmeans;
pub mod method;
mod par;
pub mod pointset;
pub mod shard;
pub mod spectral;
pub mod spill;
pub mod vfs;

pub use assign::Clustering;
pub use distance::Distance;
pub use hierarchical::{
    hierarchical_cluster, hierarchical_cluster_condensed, hierarchical_cluster_pointset, Dendrogram,
};
pub use kmeans::{kmeans_binary, kmeans_binary_pointset, kmeans_dense, KMeansConfig};
pub use method::{cluster_log, ClusterMethod};
pub use pointset::{CondensedMatrix, PointSet};
pub use shard::{ShardedPointSet, SpillConfig};
pub use spectral::{
    spectral_cluster, spectral_cluster_condensed, spectral_cluster_pointset, SpectralConfig,
};
pub use spill::{ShardRecord, SpillError};
pub use vfs::{RealFs, Vfs};
