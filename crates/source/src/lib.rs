//! Pluggable log sources for LogR.
//!
//! The paper's pipeline is *record → anonymized feature branches → bag of
//! feature vectors*. Only the first hop is SQL-specific; everything
//! downstream (windows, drift, clustering, spill, analytics) operates on
//! feature vectors. This crate makes that first hop a trait so the same
//! engine summarizes free-form service logs:
//!
//! * [`Featurizer`] — the record → feature-branch mapping, with journal
//!   hooks so an online miner's state rides the engine's manifest and
//!   delta log and recovery stays bit-identical;
//! * [`SqlFeaturizer`] — the original path (parse → anonymize →
//!   regularize → Aligon features), now one implementation among several;
//! * [`TemplateMiner`] — a Drain-style fixed-depth parse tree that mines
//!   message templates online and emits ⟨template, TEMPLATE⟩ plus
//!   ⟨class, PARAM⟩ features for each record;
//! * [`Record`] — one raw record with its multiplicity and optional
//!   timestamp, the unit the stream layer ingests.
//!
//! # Determinism contract
//!
//! A [`Featurizer`] must be a pure function of *(replayed journal, input
//! text)*: after [`Featurizer::replay`] of an exported journal, every
//! already-seen text must featurize exactly as it did live, and every new
//! text must featurize as it would have on the uninterrupted run. The
//! [`TemplateMiner`] achieves this by journaling first-seen texts, each
//! with the pin (template id, parameter classes) its features are rebuilt
//! from; replay re-mines the journal through the same code path instead
//! of deserializing derived state.
//! The [`SqlFeaturizer`] has no journal: its output depends on the text
//! alone, and its memo (keyed by text, then by literal-masked shape) is a
//! bounded cache that is neither journaled nor persisted — a featurizer
//! whose memo is cold, cleared or full returns the same branches.

pub mod config;
mod journal;
pub mod sql;
pub mod template;

use std::fmt;

use logr_feature::Feature;

pub use config::{SourceConfig, TemplateConfig};
pub use sql::SqlFeaturizer;
pub use template::TemplateMiner;

/// Error raised when persisted featurizer state cannot be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The journal bytes are structurally invalid (truncated frame,
    /// non-UTF-8 text) or belong to a different featurizer kind.
    CorruptJournal {
        /// Human-readable description of the failure.
        detail: String,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::CorruptJournal { detail } => {
                write!(f, "corrupt featurizer journal: {detail}")
            }
        }
    }
}

impl std::error::Error for SourceError {}

/// One featurization branch: the features of a single conjunctive branch
/// of a record. SQL statements may regularize into several branches
/// (UNION arms); mined service-log records always produce exactly one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureBranch {
    /// Features in extraction order (interning order matters: the stream
    /// layer interns them in sequence to reproduce historical codebooks).
    pub features: Vec<Feature>,
}

impl FeatureBranch {
    /// Construct a branch from features in extraction order.
    pub fn new(features: Vec<Feature>) -> Self {
        FeatureBranch { features }
    }
}

/// Record → anonymized feature branches, with journaled state.
///
/// Implementations whose output depends on the text alone (SQL) export
/// an empty journal, whatever cache they keep. Stateful
/// miners journal whatever inputs are needed to reproduce their state by
/// replay — see the crate docs for the determinism contract.
pub trait Featurizer: fmt::Debug + Send {
    /// Short stable identifier ("sql", "template") stored in the manifest
    /// so resume can verify the configured source matches the state.
    fn kind(&self) -> &'static str;

    /// Featurize one raw record. Unparseable / empty records yield no
    /// branches (the stream layer counts them as parse failures).
    fn featurize(&mut self, text: &str) -> Vec<FeatureBranch>;

    /// Records featurized from scratch so far — calls to
    /// [`Featurizer::featurize`] that a memo did not answer. The stream
    /// layer reads its change over a close as the parse counter. A
    /// featurizer without a memo may keep the default of 0.
    fn fresh_featurizations(&self) -> u64 {
        0
    }

    /// Export the full journal: replaying these bytes into a fresh
    /// featurizer of the same kind reproduces `self` exactly.
    fn export_journal(&self) -> Vec<u8>;

    /// Drain the journal increment accrued since the previous drain (or
    /// construction). Concatenating every drained increment, in order,
    /// yields the full journal — this is what lets miner state ride the
    /// engine's delta log with O(window) appends.
    fn drain_events(&mut self) -> Vec<u8>;

    /// Replay journal bytes (a full journal or a concatenation of drained
    /// increments appended to the already-replayed prefix). Idempotent for
    /// texts already seen.
    fn replay(&mut self, bytes: &[u8]) -> Result<(), SourceError>;
}

/// One raw record offered to the stream layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Raw record text (a SQL statement or a service-log line).
    pub text: String,
    /// Multiplicity (pre-aggregated sources may carry counts > 1).
    pub count: u64,
    /// Event timestamp in milliseconds, if the source has one.
    pub ts_ms: Option<u64>,
}

impl Record {
    /// A single occurrence with no timestamp.
    pub fn new(text: impl Into<String>) -> Self {
        Record { text: text.into(), count: 1, ts_ms: None }
    }

    /// Attach an event timestamp.
    pub fn at(mut self, ts_ms: u64) -> Self {
        self.ts_ms = Some(ts_ms);
        self
    }

    /// Set the multiplicity.
    pub fn times(mut self, count: u64) -> Self {
        self.count = count;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_builders_set_count_and_timestamp() {
        let b = Record::new("b").times(3).at(7);
        assert_eq!((b.text.as_str(), b.count, b.ts_ms), ("b", 3, Some(7)));
        assert_eq!(Record::new("a"), Record { text: "a".into(), count: 1, ts_ms: None });
    }

    #[test]
    fn source_error_displays_detail() {
        let e = SourceError::CorruptJournal { detail: "truncated frame".into() };
        assert!(e.to_string().contains("truncated frame"));
    }
}
