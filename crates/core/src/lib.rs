//! LogR core: lossy query-log compression for workload analytics.
//!
//! This crate implements the contribution of *"Query Log Compression for
//! Workload Analytics"* (Xie, Chandola, Kennedy — VLDB 2018):
//!
//! * [`encoding`] — pattern-based encodings (§2.3) and the **naive
//!   encoding** special case (§3.2) with its closed-form entropy,
//!   probability and marginal estimators (§4.1 Eq. 1, §6.2);
//! * [`error`] — empirical log entropy and **Reproduction Error** (§4.1);
//! * [`maxent`] — maximum-entropy inference for *general* pattern encodings
//!   via pattern-equivalence classes and iterative proportional fitting
//!   (§4.1, Appendix C.1); powers the Fig. 4 validation and §6.4 refinement;
//! * [`sampling`] — sampling the space Ω_E of distributions admitted by an
//!   encoding, and the **Deviation** / **Ambiguity** estimators built on it
//!   (§3.3, Appendix C.2);
//! * [`mixture`] — **pattern mixture encodings**: per-cluster naive
//!   encodings with generalized Error/Verbosity and mixture statistics
//!   (§5, §6.2);
//! * [`synthesis`] — the §6.3 diagnostics: pattern synthesis error and
//!   marginal deviation;
//! * [`refine`] — feature-correlation refinement: `WC(b, S)`, `corr_rank`,
//!   candidate mining and greedy diversification (§6.4);
//! * [`compress`] — the `LogR` front end tying clustering + encoding +
//!   refinement together behind one tunable knob (§6);
//! * [`interpret`] — human-readable summary rendering (Fig. 1, Fig. 10,
//!   Appendix E);
//! * [`portable`] — self-contained, versioned storage of summaries
//!   (ship the summary, drop the log);
//! * [`drift`] — workload drift and query-typicality monitors built on
//!   mixtures (the §2 online-monitoring application);
//! * [`stream`] — incremental streaming summarization: tumbling/sliding
//!   windows over a live query stream, per-window mixture summaries plus
//!   drift/novelty monitoring against a rolling baseline, and a sharded
//!   history whose condensed matrix grows per window instead of being
//!   rebuilt.
//!
//! All entropies are in **nats**.

pub mod compress;
pub mod drift;
pub mod encoding;
pub mod error;
pub mod interpret;
pub mod lossless;
pub mod maxent;
pub mod mixture;
pub mod portable;
pub mod refine;
pub mod sampling;
pub mod stream;
pub mod synthesis;

pub use compress::{CompressionObjective, LogR, LogRConfig, LogRSummary};
pub use drift::{feature_drift, novelty_scores, query_typicality, DriftReport};
pub use encoding::{NaiveEncoding, PatternEncoding};
pub use error::{empirical_entropy, empirical_entropy_for, naive_error, naive_error_for};
pub use maxent::{ClassSystem, GeneralEncoding, MaxEntError};
pub use mixture::NaiveMixtureEncoding;
pub use portable::{PortableError, PortableSummary};
pub use refine::{corr_rank, feature_correlation, RefineConfig, RefinedMixture};
pub use sampling::{ambiguity_dimension, estimate_deviation, DeviationEstimate};
pub use stream::{
    rotate_baseline, CloseDelta, StreamConfig, StreamState, StreamSummarizer, TimeWindows,
    WindowCursor, WindowSummary,
};
// Source configuration and the ingest record re-exported so stream
// callers need not name `logr-source` directly.
pub use logr_source::{Record, SourceConfig, TemplateConfig};
pub use synthesis::{marginal_deviation, synthesis_error};
