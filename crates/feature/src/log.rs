//! The query log as a bag of feature vectors, plus the SQL ingestion front
//! end that accumulates the paper's Table 1 statistics.
//!
//! Aggregate workload statistics are order-independent (paper §1), so the
//! log stores **distinct** feature vectors with multiplicities. Every
//! downstream algorithm — entropy, marginals, clustering — is multiplicity-
//! weighted, which is what makes million-query logs tractable when they
//! contain only hundreds-to-thousands of distinct queries.

use crate::codebook::{Codebook, FeatureId};
use crate::extract::{extract_features, ExtractConfig};
use crate::feature::Feature;
use crate::vector::QueryVector;
use logr_sql::{
    anonymize_statement, parse_select, regularize, ConjunctiveQuery, Lexer, ParseError, TokenKind,
};
use std::collections::HashMap;
use std::hash::Hasher;

/// Deduplicated, multiplicity-weighted bag of query feature vectors.
#[derive(Debug, Clone, Default)]
pub struct QueryLog {
    codebook: Codebook,
    entries: Vec<(QueryVector, u64)>,
    index: HashMap<QueryVector, usize>,
    total: u64,
    /// One past the largest feature id seen in any vector — lets callers add
    /// raw vectors without routing every feature through the codebook.
    max_feature: usize,
}

impl QueryLog {
    /// Empty log using the plain Aligon feature scheme.
    pub fn new() -> Self {
        QueryLog::default()
    }

    /// Add a pre-extracted feature vector with multiplicity `count`.
    pub fn add_vector(&mut self, vector: QueryVector, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(&last) = vector.ids().last() {
            self.max_feature = self.max_feature.max(last.index() + 1);
        }
        self.total += count;
        if let Some(&i) = self.index.get(&vector) {
            self.entries[i].1 += count;
            return;
        }
        self.index.insert(vector.clone(), self.entries.len());
        self.entries.push((vector, count));
    }

    /// Extract features from a conjunctive query and add it.
    pub fn add_conjunctive(&mut self, query: &ConjunctiveQuery, count: u64) {
        let v = extract_features(query, &mut self.codebook, ExtractConfig::default());
        self.add_vector(v, count);
    }

    /// Intern a pre-extracted feature list (in order) and add the
    /// resulting vector with multiplicity `count` — the source-agnostic
    /// twin of [`QueryLog::add_conjunctive`]: feeding it the features
    /// [`crate::extract::branch_features`] yields for a branch interns
    /// them in the same order `add_conjunctive` would, so the two paths
    /// build bit-identical logs.
    pub fn add_features(&mut self, features: &[Feature], count: u64) {
        let ids: Vec<_> = features.iter().map(|f| self.codebook.intern(f.clone())).collect();
        self.add_vector(QueryVector::new(ids), count);
    }

    /// The codebook mapping features to ids.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// Mutable codebook access (for callers pre-interning pattern features).
    pub fn codebook_mut(&mut self) -> &mut Codebook {
        &mut self.codebook
    }

    /// Distinct entries as `(vector, multiplicity)` pairs.
    pub fn entries(&self) -> &[(QueryVector, u64)] {
        &self.entries
    }

    /// Total queries including multiplicities.
    pub fn total_queries(&self) -> u64 {
        self.total
    }

    /// Number of distinct feature vectors.
    pub fn distinct_count(&self) -> usize {
        self.entries.len()
    }

    /// True when `vector` is one of the log's distinct entries — an exact
    /// match on the id set, not containment (for that, see
    /// [`QueryLog::support`]). One hash lookup; ids are compared as they
    /// are, so a vector from another log's codebook must be translated
    /// to this log's ids first.
    pub fn contains_vector(&self, vector: &QueryVector) -> bool {
        self.index.contains_key(vector)
    }

    /// Size of the feature universe: the larger of the codebook and the
    /// largest raw feature id seen.
    pub fn num_features(&self) -> usize {
        self.codebook.len().max(self.max_feature)
    }

    /// Widen the feature universe to at least `n` features (for logs built
    /// from raw vectors whose high feature ids may not occur).
    pub fn reserve_universe(&mut self, n: usize) {
        self.max_feature = self.max_feature.max(n);
    }

    /// Largest multiplicity of any distinct query.
    pub fn max_multiplicity(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }

    /// Multiplicity-weighted mean number of features per query.
    pub fn avg_features_per_query(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let weighted: u64 = self.entries.iter().map(|(v, c)| v.len() as u64 * c).sum();
        weighted as f64 / self.total as f64
    }

    /// Per-feature occurrence counts over the whole log.
    pub fn feature_counts(&self) -> Vec<u64> {
        self.feature_counts_for(&self.all_entry_indices())
    }

    /// Per-feature occurrence counts restricted to the given entries.
    pub fn feature_counts_for(&self, entry_indices: &[usize]) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_features()];
        for &i in entry_indices {
            let (v, c) = &self.entries[i];
            for id in v.iter() {
                counts[id.index()] += c;
            }
        }
        counts
    }

    /// Per-feature marginal probabilities `p(Xᵢ = 1)` over the whole log.
    pub fn marginals(&self) -> Vec<f64> {
        self.marginals_for(&self.all_entry_indices())
    }

    /// Marginals restricted to a subset of entries (one mixture component).
    pub fn marginals_for(&self, entry_indices: &[usize]) -> Vec<f64> {
        let total = self.total_for(entry_indices);
        let counts = self.feature_counts_for(entry_indices);
        if total == 0 {
            return vec![0.0; counts.len()];
        }
        counts.into_iter().map(|c| c as f64 / total as f64).collect()
    }

    /// Total multiplicity of a subset of entries.
    pub fn total_for(&self, entry_indices: &[usize]) -> u64 {
        entry_indices.iter().map(|&i| self.entries[i].1).sum()
    }

    /// Number of log queries containing the pattern (`Γ_b(L)`, paper §6.2).
    pub fn support(&self, pattern: &QueryVector) -> u64 {
        self.support_for(pattern, &self.all_entry_indices())
    }

    /// Pattern support restricted to a subset of entries.
    pub fn support_for(&self, pattern: &QueryVector, entry_indices: &[usize]) -> u64 {
        entry_indices
            .iter()
            .filter(|&&i| self.entries[i].0.contains_all(pattern))
            .map(|&i| self.entries[i].1)
            .sum()
    }

    /// All entry indices `0..distinct_count()`.
    pub fn all_entry_indices(&self) -> Vec<usize> {
        (0..self.entries.len()).collect()
    }

    /// Merge another log into this one, translating the other log's feature
    /// ids through feature identity (class + canonical text). New features
    /// are interned; overlapping distinct queries accumulate multiplicity.
    ///
    /// This is how windowed ingestion composes: each window builds its own
    /// log, and windows are absorbed into the long-running baseline.
    pub fn absorb(&mut self, other: &QueryLog) {
        // Translation table: other's id → our id.
        let translation: Vec<FeatureId> = (0..other.codebook.len())
            .map(|i| self.codebook.intern(other.codebook.feature(FeatureId(i as u32)).clone()))
            .collect();
        for (vector, count) in &other.entries {
            let translated: QueryVector = vector
                .iter()
                .map(|id| {
                    translation
                        .get(id.index())
                        .copied()
                        // Raw ids beyond the other codebook pass through.
                        .unwrap_or(id)
                })
                .collect();
            self.add_vector(translated, *count);
        }
    }
}

/// Parse one SQL statement to its anonymized conjunctive branches — the
/// exact vectors-to-be that [`LogIngest::ingest_with_count`] would add for
/// it: `parse → anonymize → regularize`, with unparseable, unsupported,
/// and non-rewritable statements collapsing to an empty branch list
/// (LogIngest counts those in its stats and adds nothing).
///
/// This factors the *statement-shaped* (codebook-independent) half of
/// ingestion out of [`LogIngest`] so featurizers can memoize it per
/// shape ([`hash_shape`]): feeding each branch to
/// [`QueryLog::add_conjunctive`] in statement order reproduces the log
/// `LogIngest` would build, bit for bit, without re-parsing statements
/// the stream has already seen.
pub fn anonymized_branches(sql: &str) -> Vec<ConjunctiveQuery> {
    let mut stmt = match parse_select(sql) {
        Ok(stmt) => stmt,
        Err(_) => return Vec::new(),
    };
    anonymize_statement(&mut stmt);
    regularized(&stmt).branches
}

/// Feed `sql`'s *shape* to `state`: its token sequence from the crate's
/// own [`Lexer`], with literal values masked. Two statements that feed
/// the same sequence yield the same [`anonymized_branches`], so a
/// featurizer may key a memo by the digest of this sequence (DeLog's
/// pattern signature, applied to SQL).
///
/// The masking follows exactly what anonymization discards:
///
/// * `Number` and `String` tokens feed one literal class, without their
///   text — the parser turns either kind into a literal there and
///   anonymization replaces every literal with `?`;
/// * a `Number` after a `LIMIT` keyword feeds its text: `LIMIT` and
///   `OFFSET` counts survive anonymization, and the parser may reject
///   the text (`LIMIT 1.5`);
/// * every other token feeds its kind and its exact text (identifier
///   case is part of the feature text; keyword case and parameter
///   spellings merely split a shape in two);
/// * whitespace and comments feed nothing — the parser never sees them;
/// * a text the lexer rejects feeds its tokens up to the error and one
///   error class: the parser tokenizes the whole text first, so every
///   such text has no branches.
///
/// Every token feeds a class tag, and a fed text ends with `0xff` (a byte
/// UTF-8 never contains), so two different shapes never feed the same
/// bytes.
pub fn hash_shape<H: Hasher>(sql: &str, state: &mut H) {
    const WORD: u8 = 0;
    const QUOTED: u8 = 1;
    const PARAM: u8 = 2;
    const SYMBOL: u8 = 3;
    const COUNT: u8 = 4;
    const LITERAL: u8 = 5;
    const END: u8 = 6;
    const LEX_ERROR: u8 = 7;

    let mut lexer = Lexer::new(sql);
    let mut after_limit = false;
    loop {
        let Ok(token) = lexer.next_token() else {
            state.write_u8(LEX_ERROR);
            return;
        };
        let tag = match token.kind {
            TokenKind::Word => WORD,
            TokenKind::QuotedIdent => QUOTED,
            TokenKind::Param => PARAM,
            TokenKind::Symbol => SYMBOL,
            TokenKind::Number if after_limit => COUNT,
            TokenKind::Number | TokenKind::String => {
                state.write_u8(LITERAL);
                continue;
            }
            TokenKind::Eof => {
                state.write_u8(END);
                return;
            }
        };
        after_limit |= token.is_kw("limit");
        state.write_u8(tag);
        state.write(token.text.as_bytes());
        state.write_u8(0xff);
    }
}

/// One regularizer pass over an (already anonymized) statement —
/// non-rewritable statements contribute no branches. The single
/// branch-extraction point both [`LogIngest::ingest_with_count`] and
/// [`anonymized_branches`] feed [`QueryLog::add_conjunctive`] from —
/// cached streaming logs and batch ingestion cannot drift apart.
fn regularized(stmt: &logr_sql::SelectStatement) -> AnonInfo {
    match regularize(stmt) {
        Ok(reg) => AnonInfo {
            was_conjunctive: reg.was_conjunctive,
            rewritable: true,
            branches: reg.branches,
        },
        Err(_) => AnonInfo { was_conjunctive: false, rewritable: false, branches: Vec::new() },
    }
}

/// Counters matching the rows of the paper's Table 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Statements offered to the ingester.
    pub total_statements: u64,
    /// Statements that failed to lex/parse.
    pub parse_errors: u64,
    /// Recognized but unsupported statements (stored procedures, DML, …).
    pub unsupported: u64,
    /// Valid SELECT statements ingested.
    pub parsed_selects: u64,
    /// Distinct raw SQL strings.
    pub distinct_raw: usize,
    /// Distinct queries after constant anonymization.
    pub distinct_anonymized: usize,
    /// Anonymized-distinct queries already in conjunctive form.
    pub distinct_conjunctive: usize,
    /// Anonymized-distinct queries rewritable to a UNION of conjunctive
    /// queries.
    pub distinct_rewritable: usize,
    /// Largest multiplicity among anonymized-distinct queries.
    pub max_multiplicity: u64,
    /// Distinct features before constant anonymization.
    pub features_with_const: usize,
}

/// SQL-text front end: parse → anonymize → regularize → featurize, while
/// accumulating [`IngestStats`].
///
/// A query whose regularized form is a UNION of `k` conjunctive branches
/// contributes `k` feature vectors, each at the query's multiplicity — the
/// paper's convention of treating rewritable queries as unions of
/// conjunctive queries compatible with the Aligon scheme.
#[derive(Debug, Default)]
pub struct LogIngest {
    log: QueryLog,
    stats: IngestStats,
    raw_counts: HashMap<String, u64>,
    anon_counts: HashMap<String, u64>,
    /// Per anonymized-distinct statement: Table 1 flags plus the branch
    /// set, regularized once at first sighting — repeats replay branches
    /// from here instead of re-running the regularizer.
    anon_info: HashMap<String, AnonInfo>,
    const_codebook: Codebook,
}

/// What one anonymized-distinct statement contributes: stats flags and
/// its (possibly empty) conjunctive branch set.
#[derive(Debug)]
struct AnonInfo {
    was_conjunctive: bool,
    rewritable: bool,
    branches: Vec<ConjunctiveQuery>,
}

impl LogIngest {
    /// New ingester with the plain Aligon scheme.
    pub fn new() -> Self {
        LogIngest::default()
    }

    /// Ingest one statement occurring `count` times.
    ///
    /// Unparseable or unsupported statements are counted, not propagated —
    /// real logs contain them (13M of 73M operations in the paper's US bank
    /// log) and ingestion must keep going.
    pub fn ingest_with_count(&mut self, sql: &str, count: u64) {
        self.stats.total_statements += count;
        let stmt = match parse_select(sql) {
            Ok(stmt) => stmt,
            Err(ParseError::Unsupported { .. }) => {
                self.stats.unsupported += count;
                return;
            }
            Err(_) => {
                self.stats.parse_errors += count;
                return;
            }
        };
        self.stats.parsed_selects += count;
        *self.raw_counts.entry(sql.to_string()).or_insert(0) += count;

        // Features *with* constants: regularize the raw statement.
        if let Ok(raw_reg) = regularize(&stmt) {
            for branch in &raw_reg.branches {
                extract_features(branch, &mut self.const_codebook, ExtractConfig::default());
            }
        }

        let mut anon = stmt;
        anonymize_statement(&mut anon);
        let anon_text = anon.to_string();
        *self.anon_counts.entry(anon_text.clone()).or_insert(0) += count;

        // One regularizer pass per anonymized-distinct statement, through
        // the shared extraction point (`regularized`) — the streaming
        // parse cache must reproduce exactly these branches.
        let info = self.anon_info.entry(anon_text).or_insert_with(|| regularized(&anon));
        for branch in &info.branches {
            self.log.add_conjunctive(branch, count);
        }
    }

    /// Ingest one statement (multiplicity 1).
    pub fn ingest(&mut self, sql: &str) {
        self.ingest_with_count(sql, 1);
    }

    /// Ingest statements from a reader, one per line (the common shape of
    /// production query-log exports). Blank lines and `--` comment lines
    /// are skipped; unparseable lines are counted, not fatal.
    pub fn ingest_lines(&mut self, reader: impl std::io::BufRead) -> std::io::Result<u64> {
        let mut ingested = 0u64;
        for line in reader.lines() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with("--") {
                continue;
            }
            self.ingest(trimmed);
            ingested += 1;
        }
        Ok(ingested)
    }

    /// Finish ingestion, returning the feature log and the Table 1 stats.
    pub fn finish(mut self) -> (QueryLog, IngestStats) {
        self.stats.distinct_raw = self.raw_counts.len();
        self.stats.distinct_anonymized = self.anon_counts.len();
        self.stats.distinct_conjunctive =
            self.anon_info.values().filter(|i| i.was_conjunctive).count();
        self.stats.distinct_rewritable = self.anon_info.values().filter(|i| i.rewritable).count();
        self.stats.max_multiplicity = self.anon_counts.values().copied().max().unwrap_or(0);
        self.stats.features_with_const = self.const_codebook.len();
        (self.log, self.stats)
    }

    /// Peek at the log mid-ingestion.
    pub fn log(&self) -> &QueryLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::FeatureId;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    #[test]
    fn add_vector_dedups_and_counts() {
        let mut log = QueryLog::new();
        log.add_vector(qv(&[1, 2]), 3);
        log.add_vector(qv(&[2, 1]), 2); // same set
        log.add_vector(qv(&[3]), 1);
        assert_eq!(log.distinct_count(), 2);
        assert_eq!(log.total_queries(), 6);
        assert_eq!(log.max_multiplicity(), 5);
        // Zero-count adds are ignored.
        log.add_vector(qv(&[9]), 0);
        assert_eq!(log.distinct_count(), 2);
    }

    #[test]
    fn contains_vector_is_exact_entry_membership() {
        let mut log = QueryLog::new();
        log.add_vector(qv(&[1, 2]), 3);
        log.add_vector(QueryVector::empty(), 1);
        assert!(log.contains_vector(&qv(&[2, 1])));
        assert!(log.contains_vector(&QueryVector::empty()));
        // A subset or superset of an entry is not an entry.
        assert!(!log.contains_vector(&qv(&[1])));
        assert!(!log.contains_vector(&qv(&[1, 2, 3])));
        // Zero-count adds never became entries.
        log.add_vector(qv(&[9]), 0);
        assert!(!log.contains_vector(&qv(&[9])));
    }

    #[test]
    fn example_2_probabilities() {
        // Paper Example 2: four queries, q1 = q3.
        let mut ingest = LogIngest::new();
        ingest.ingest("SELECT _id FROM Messages WHERE status = ?");
        ingest.ingest("SELECT _time FROM Messages WHERE status = ? AND sms_type = ?");
        ingest.ingest("SELECT _id FROM Messages WHERE status = ?");
        ingest.ingest("SELECT sms_type, _time FROM Messages WHERE sms_type = ?");
        let (log, stats) = ingest.finish();
        assert_eq!(log.total_queries(), 4);
        assert_eq!(log.distinct_count(), 3);
        assert_eq!(stats.distinct_anonymized, 3);
        // q1 (= q3) has probability 0.5 — multiplicity 2 of 4.
        assert_eq!(log.max_multiplicity(), 2);
        // Universe per Example 3: 6 features.
        assert_eq!(log.num_features(), 6);
    }

    #[test]
    fn marginals_match_hand_computation() {
        // Toy log of §5.1: 3 queries, 4 features.
        let mut ingest = LogIngest::new();
        ingest.ingest("SELECT id FROM Messages WHERE status = ?");
        ingest.ingest("SELECT id FROM Messages");
        ingest.ingest("SELECT sms_type FROM Messages");
        let (log, _) = ingest.finish();
        assert_eq!(log.num_features(), 4);
        let m = log.marginals();
        let mut sorted = m.clone();
        sorted.sort_by(f64::total_cmp);
        // Naive encoding of §5.1: (2/3, 1/3, 1, 1/3).
        assert!((sorted[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((sorted[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((sorted[2] - 2.0 / 3.0).abs() < 1e-12);
        assert!((sorted[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn support_counts_containing_queries() {
        let mut ingest = LogIngest::new();
        ingest.ingest_with_count("SELECT id FROM Messages WHERE status = ?", 5);
        ingest.ingest_with_count("SELECT id FROM Messages", 2);
        let (log, _) = ingest.finish();
        let status_atom =
            log.codebook().get(&crate::feature::Feature::where_atom("status = ?")).unwrap();
        let id_col = log.codebook().get(&crate::feature::Feature::select("id")).unwrap();
        assert_eq!(log.support(&QueryVector::new(vec![status_atom])), 5);
        assert_eq!(log.support(&QueryVector::new(vec![id_col])), 7);
        assert_eq!(log.support(&QueryVector::new(vec![id_col, status_atom])), 5);
        assert_eq!(log.support(&QueryVector::empty()), 7);
    }

    #[test]
    fn constants_collapse_after_anonymization() {
        let mut ingest = LogIngest::new();
        ingest.ingest("SELECT a FROM t WHERE b = 1");
        ingest.ingest("SELECT a FROM t WHERE b = 2");
        ingest.ingest("SELECT a FROM t WHERE b = 3");
        let (log, stats) = ingest.finish();
        assert_eq!(stats.distinct_raw, 3);
        assert_eq!(stats.distinct_anonymized, 1);
        assert_eq!(log.distinct_count(), 1);
        assert_eq!(log.max_multiplicity(), 3);
        // With constants: three distinct WHERE atoms + a + t.
        assert_eq!(stats.features_with_const, 5);
        // Without: one atom + a + t.
        assert_eq!(log.num_features(), 3);
    }

    #[test]
    fn unparseable_statements_are_counted_not_fatal() {
        let mut ingest = LogIngest::new();
        ingest.ingest("SELECT a FROM t");
        ingest.ingest("UPDATE t SET a = 1");
        ingest.ingest("THIS IS NOT SQL @@@");
        let (log, stats) = ingest.finish();
        assert_eq!(stats.total_statements, 3);
        assert_eq!(stats.parsed_selects, 1);
        assert_eq!(stats.unsupported, 1);
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(log.total_queries(), 1);
    }

    #[test]
    fn union_branches_become_separate_vectors() {
        let mut ingest = LogIngest::new();
        ingest.ingest("SELECT a FROM t WHERE x = ? OR y = ?");
        let (log, stats) = ingest.finish();
        assert_eq!(stats.parsed_selects, 1);
        assert_eq!(stats.distinct_conjunctive, 0);
        assert_eq!(stats.distinct_rewritable, 1);
        // Two conjunctive branches → two vectors.
        assert_eq!(log.distinct_count(), 2);
        assert_eq!(log.total_queries(), 2);
    }

    #[test]
    fn subset_marginals_and_totals() {
        let mut log = QueryLog::new();
        log.add_vector(qv(&[0, 1]), 4);
        log.add_vector(qv(&[1]), 4);
        log.add_vector(qv(&[2]), 2);
        // Feature universe is implied by vectors only when a codebook is
        // absent; feature_counts length follows the codebook (empty here),
        // so intern dummy features first.
        for t in ["a", "b", "c"] {
            log.codebook_mut().intern(crate::feature::Feature::select(t));
        }
        let m01 = log.marginals_for(&[0, 1]);
        assert!((m01[0] - 0.5).abs() < 1e-12);
        assert!((m01[1] - 1.0).abs() < 1e-12);
        assert_eq!(log.total_for(&[0, 1]), 8);
        assert_eq!(log.total_for(&[2]), 2);
    }

    #[test]
    fn absorb_translates_feature_ids() {
        // Two logs whose codebooks assign different ids to the same
        // features (insertion order differs).
        let mut a = LogIngest::new();
        a.ingest("SELECT x FROM t");
        a.ingest_with_count("SELECT y FROM t", 2);
        let (mut log_a, _) = a.finish();

        let mut b = LogIngest::new();
        b.ingest_with_count("SELECT y FROM t", 3); // y interned first here
        b.ingest("SELECT z FROM t");
        let (log_b, _) = b.finish();

        log_a.absorb(&log_b);
        assert_eq!(log_a.total_queries(), 3 + 4);
        // y now has multiplicity 2 + 3 = 5 across one distinct vector.
        let y = log_a.codebook().get(&crate::feature::Feature::select("y")).unwrap();
        assert_eq!(log_a.support(&QueryVector::new(vec![y])), 5);
        // z arrived as a new feature.
        assert!(log_a.codebook().get(&crate::feature::Feature::select("z")).is_some());
        // Distinct count: x, y, z variants.
        assert_eq!(log_a.distinct_count(), 3);
    }

    #[test]
    fn absorb_into_empty_log_copies() {
        let mut src = LogIngest::new();
        src.ingest_with_count("SELECT a FROM t WHERE b = ?", 7);
        let (src_log, _) = src.finish();
        let mut dst = QueryLog::new();
        dst.absorb(&src_log);
        assert_eq!(dst.total_queries(), 7);
        assert_eq!(dst.num_features(), src_log.num_features());
        assert!((dst.marginals()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ingest_lines_skips_blanks_and_comments() {
        let input = "\
SELECT a FROM t\n\
\n\
-- a comment line\n\
SELECT b FROM t WHERE c = ?\n\
NOT SQL AT ALL %%\n";
        let mut ingest = LogIngest::new();
        let n = ingest.ingest_lines(input.as_bytes()).unwrap();
        assert_eq!(n, 3); // two queries + one garbage line offered
        let (log, stats) = ingest.finish();
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(log.total_queries(), 2);
    }

    #[test]
    fn anonymized_branches_reproduce_log_ingest() {
        let statements = [
            ("SELECT id FROM Messages WHERE status = 3", 2u64),
            ("SELECT a FROM t WHERE x = ? OR y = ?", 1), // two branches
            ("UPDATE t SET a = 1", 5),                   // unsupported → no branches
            ("NOT SQL %%", 1),                           // parse error → no branches
            ("SELECT id FROM Messages WHERE status = 9", 3), // collapses with the first
        ];
        let mut ingest = LogIngest::new();
        let mut cached = QueryLog::new();
        for (sql, count) in statements {
            ingest.ingest_with_count(sql, count);
            for branch in anonymized_branches(sql) {
                cached.add_conjunctive(&branch, count);
            }
        }
        let (log, _) = ingest.finish();
        assert_eq!(cached.entries(), log.entries());
        assert_eq!(cached.num_features(), log.num_features());
        assert_eq!(cached.codebook().len(), log.codebook().len());
        // Same interning order, feature by feature.
        for i in 0..log.codebook().len() {
            let id = FeatureId(i as u32);
            assert_eq!(cached.codebook().feature(id), log.codebook().feature(id));
        }
    }

    #[test]
    fn avg_features_weighted_by_multiplicity() {
        let mut ingest = LogIngest::new();
        // 2 features, multiplicity 3; 3 features, multiplicity 1.
        ingest.ingest_with_count("SELECT a FROM t", 3);
        ingest.ingest_with_count("SELECT a, b FROM t", 1);
        let (log, _) = ingest.finish();
        assert!((log.avg_features_per_query() - (2.0 * 3.0 + 3.0) / 4.0).abs() < 1e-12);
    }
}
