//! Feature substrate for LogR.
//!
//! LogR reduces query-log compression to compactly representing *bags of
//! feature vectors* (paper §1, §2.2). This crate supplies that reduction:
//!
//! * [`feature`] — the Aligon et al. feature scheme: each feature is a
//!   ⟨column, SELECT⟩, ⟨table, FROM⟩ or ⟨atom, WHERE⟩ element (plus the
//!   Makiyama-style GROUP BY / ORDER BY extension, off by default);
//! * [`codebook`] — the bidirectional feature ↔ id mapping that underlies
//!   the bit-vector encoding of queries;
//! * [`vector`] — sparse sorted feature-id vectors with containment and
//!   overlap operations;
//! * [`bitvec`] — dense bitset mirror for distance-heavy code paths;
//! * [`extract`] — conjunctive query → feature set;
//! * [`log`] — [`log::QueryLog`]: the deduplicated, multiplicity-weighted
//!   bag of feature vectors, plus [`log::LogIngest`], the SQL-text front end
//!   that also accumulates the paper's Table 1 statistics.

pub mod bitvec;
pub mod codebook;
pub mod extract;
pub mod feature;
pub mod labeled;
pub mod log;
pub mod vector;

pub use bitvec::BitVec;
pub use codebook::{Codebook, FeatureId};
pub use extract::{branch_features, extract_features, ExtractConfig};
pub use feature::{Feature, FeatureClass};
pub use labeled::{LabeledDataset, LabeledRow};
pub use log::{anonymized_branches, hash_shape, IngestStats, LogIngest, QueryLog};
// The branch type `anonymized_branches` yields and `QueryLog::add_conjunctive`
// consumes, re-exported so featurization callers need not name `logr-sql`.
pub use logr_sql::ConjunctiveQuery;
pub use vector::QueryVector;
