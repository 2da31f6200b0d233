//! The SQL featurizer: the paper's parse → anonymize → regularize →
//! Aligon-feature pipeline behind the [`Featurizer`] trait.
//!
//! Stateless in output: featurization of a statement depends on nothing
//! but the statement, so the journal is empty and replay is a no-op. The
//! feature order per branch is exactly `extract_features`' interning
//! order (via [`branch_features`]), which is what keeps stores built
//! through this path byte-identical to the historical `LogIngest` path.
//!
//! # The memo
//!
//! A query log spells a few hundred shapes many thousand ways, so the
//! featurizer memoizes in two levels: the exact text, then the text's
//! literal-masked shape ([`hash_shape`]). A statement is featurized from
//! scratch once per shape, however many windows or literal values it
//! recurs with. The memo is a bounded cache, never state: both levels
//! have fixed capacities ([`TEXT_CAPACITY`], [`SHAPE_CAPACITY`]), a full
//! level is cleared, and nothing of it is journaled or persisted — a
//! fresh featurizer returns the same branches for every text.
//!
//! Keys are 128-bit digests (two SipHash hashers under this featurizer's
//! own random keys), and an entry holds feature ids into one shared
//! feature table, so the memo costs a few bytes per text and per feature
//! occurrence rather than copies of statements and branches.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use logr_feature::{anonymized_branches, branch_features, hash_shape, ExtractConfig, Feature};

use crate::{FeatureBranch, Featurizer, SourceError};

/// Texts the memo's first level holds before it is cleared.
pub const TEXT_CAPACITY: usize = 1024;

/// Shapes the memo's second level holds before it is cleared, together
/// with the first level and the feature table.
pub const SHAPE_CAPACITY: usize = 4096;

/// SQL featurizer. Unparseable statements yield no branches.
#[derive(Debug, Clone, Default)]
pub struct SqlFeaturizer {
    memo: Memo,
}

/// The two-level featurization memo (see the module docs).
#[derive(Debug, Clone, Default)]
struct Memo {
    /// Keys of the two hashers behind every digest.
    keys: [RandomState; 2],
    /// Text digest → index into `entries`.
    texts: HashMap<u128, u32>,
    /// Shape digest → index into `entries`.
    shapes: HashMap<u128, u32>,
    /// One entry per shape: each branch's features as ids into `features`.
    entries: Vec<Box<[Box<[u32]>]>>,
    /// Every feature an entry names, once.
    features: Vec<Feature>,
    /// Feature digest → index into `features`.
    feature_ids: HashMap<u128, u32>,
    /// Statements featurized from scratch.
    misses: u64,
}

/// Both hashers of a digest, fed the same bytes.
struct Digest(DefaultHasher, DefaultHasher);

impl Hasher for Digest {
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.1.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl Memo {
    fn digest(&self, feed: impl FnOnce(&mut Digest)) -> u128 {
        let mut digest = Digest(self.keys[0].build_hasher(), self.keys[1].build_hasher());
        feed(&mut digest);
        u128::from(digest.0.finish()) << 64 | u128::from(digest.1.finish())
    }

    /// The entry `text` featurizes to, featurizing it on a shape miss.
    fn entry(&mut self, text: &str) -> usize {
        let text_key = self.digest(|d| text.hash(d));
        if let Some(&entry) = self.texts.get(&text_key) {
            return entry as usize;
        }
        let shape_key = self.digest(|d| hash_shape(text, d));
        let entry = match self.shapes.get(&shape_key) {
            Some(&entry) => entry,
            None => self.add_shape(shape_key, text),
        };
        if self.texts.len() == TEXT_CAPACITY {
            self.texts.clear();
        }
        self.texts.insert(text_key, entry);
        entry as usize
    }

    /// Featurize `text` from scratch and file it under `shape_key`.
    fn add_shape(&mut self, shape_key: u128, text: &str) -> u32 {
        if self.shapes.len() == SHAPE_CAPACITY {
            self.texts.clear();
            self.shapes.clear();
            self.entries.clear();
            self.features.clear();
            self.feature_ids.clear();
        }
        self.misses += 1;
        let entry = anonymized_branches(text)
            .iter()
            .map(|branch| {
                let features = branch_features(branch, ExtractConfig::default());
                features.into_iter().map(|f| self.intern(f)).collect()
            })
            .collect();
        let id = self.entries.len() as u32;
        self.entries.push(entry);
        self.shapes.insert(shape_key, id);
        id
    }

    fn intern(&mut self, feature: Feature) -> u32 {
        let key = self.digest(|d| feature.hash(d));
        *self.feature_ids.entry(key).or_insert_with(|| {
            self.features.push(feature);
            (self.features.len() - 1) as u32
        })
    }
}

impl Featurizer for SqlFeaturizer {
    fn kind(&self) -> &'static str {
        "sql"
    }

    fn featurize(&mut self, text: &str) -> Vec<FeatureBranch> {
        let entry = self.memo.entry(text);
        let Memo { entries, features, .. } = &self.memo;
        entries[entry]
            .iter()
            .map(|ids| {
                FeatureBranch::new(ids.iter().map(|&id| features[id as usize].clone()).collect())
            })
            .collect()
    }

    fn fresh_featurizations(&self) -> u64 {
        self.memo.misses
    }

    fn export_journal(&self) -> Vec<u8> {
        Vec::new()
    }

    fn drain_events(&mut self) -> Vec<u8> {
        Vec::new()
    }

    fn replay(&mut self, bytes: &[u8]) -> Result<(), SourceError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(SourceError::CorruptJournal {
                detail: format!(
                    "sql featurizer is stateless but journal has {} bytes",
                    bytes.len()
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::{Feature, FeatureClass};

    #[test]
    fn branches_match_paper_example() {
        let mut f = SqlFeaturizer::default();
        let branches = f.featurize(
            "SELECT _id, sms_type, _time FROM Messages WHERE status = 1 AND transport_type = 'mms'",
        );
        assert_eq!(branches.len(), 1);
        let feats = &branches[0].features;
        assert_eq!(feats.len(), 6);
        assert!(feats.contains(&Feature::from_table("Messages")));
        assert!(feats.contains(&Feature::where_atom("status = ?")));
        assert!(feats.iter().all(|f| f.class != FeatureClass::Template));
    }

    #[test]
    fn garbage_yields_no_branches() {
        let mut f = SqlFeaturizer::default();
        assert!(f.featurize("DELETE FROM nope").is_empty());
        assert!(f.featurize("").is_empty());
    }

    #[test]
    fn union_yields_multiple_branches() {
        let mut f = SqlFeaturizer::default();
        let branches = f.featurize("SELECT a FROM t UNION SELECT b FROM u");
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn non_ascii_identifiers_keep_their_characters() {
        let mut f = SqlFeaturizer::default();
        let branches = f.featurize("SELECT \"Café\" FROM \"名前\" WHERE note = 'Grüße'");
        assert_eq!(
            branches,
            vec![FeatureBranch::new(vec![
                Feature::select("Café"),
                Feature::from_table("名前"),
                Feature::where_atom("note = ?"),
            ])]
        );
        // A bare non-ASCII word is outside the dialect: no branches.
        assert!(f.featurize("SELECT café FROM t").is_empty());
    }

    #[test]
    fn memo_featurizes_each_shape_once() {
        let mut f = SqlFeaturizer::default();
        let fresh = |sql: &str| SqlFeaturizer::default().featurize(sql);
        let spellings = [
            "SELECT a FROM t WHERE x = 1 AND y = 'p' LIMIT 5",
            "SELECT a FROM t WHERE x = 1 AND y = 'p' LIMIT 5",
            "SELECT a FROM t WHERE x = 'q' AND y = 2.5e3 LIMIT 5",
            "SELECT a\n  FROM t /* note */ WHERE x = 7 -- trailing\n AND y = 'it''s' LIMIT 5",
        ];
        for sql in spellings {
            assert_eq!(f.featurize(sql), fresh(sql), "{sql}");
        }
        assert_eq!(f.fresh_featurizations(), 1, "one shape, four spellings");
        assert_eq!(f.memo.texts.len(), 3, "the exact repeat is one text");
        let other_count = "SELECT a FROM t WHERE x = 1 AND y = 'p' LIMIT 6";
        assert_eq!(f.featurize(other_count), fresh(other_count));
        assert_eq!(f.fresh_featurizations(), 2, "a LIMIT count is part of the shape");
    }

    #[test]
    fn full_levels_are_cleared_and_results_do_not_change() {
        let mut f = SqlFeaturizer::default();
        // One shape spelled more ways than the text level holds: the
        // text level clears, the shape stays.
        for i in 0..TEXT_CAPACITY + 5 {
            f.featurize(&format!("SELECT a FROM t WHERE x = {i}"));
        }
        assert_eq!((f.fresh_featurizations(), f.memo.texts.len()), (1, 5));
        // More shapes than the shape level holds: everything clears once.
        let mut f = SqlFeaturizer::default();
        let shape = |i: usize| format!("SELECT c{i} FROM t WHERE x = ?");
        for i in 0..SHAPE_CAPACITY {
            f.featurize(&shape(i));
        }
        assert_eq!(f.memo.shapes.len(), SHAPE_CAPACITY);
        assert_eq!(f.featurize(&shape(0)), SqlFeaturizer::default().featurize(&shape(0)));
        assert_eq!(f.fresh_featurizations(), SHAPE_CAPACITY as u64, "a full level still hits");
        let last = shape(SHAPE_CAPACITY);
        assert_eq!(f.featurize(&last), SqlFeaturizer::default().featurize(&last));
        let memo = &f.memo;
        assert_eq!(
            (memo.texts.len(), memo.shapes.len(), memo.entries.len(), memo.features.len()),
            (1, 1, 1, 3),
            "a full shape level clears the entries and the feature table with it"
        );
        assert_eq!(f.featurize(&shape(1)), SqlFeaturizer::default().featurize(&shape(1)));
        assert_eq!(f.fresh_featurizations(), SHAPE_CAPACITY as u64 + 2);
    }

    #[test]
    fn journal_is_empty_and_replay_rejects_bytes() {
        let mut f = SqlFeaturizer::default();
        f.featurize("SELECT a FROM t");
        assert!(f.export_journal().is_empty());
        assert!(f.drain_events().is_empty());
        assert!(f.replay(&[]).is_ok());
        assert!(f.replay(&[1, 2, 3]).is_err());
    }
}
