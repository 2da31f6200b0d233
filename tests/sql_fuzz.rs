//! Fixed-seed fuzz of the SQL front end: mutated statements go through
//! `Lexer::tokenize`, `parse_select`, `regularize`, `hash_shape` and
//! `SqlFeaturizer::featurize`, and every input must come back as a value
//! or a typed error, never a panic.
//!
//! The inputs are built from statements `logr_testkit::sql_gen` renders
//! and statements of the two SQL corpora:
//!
//! * every truncation, and a byte flip at every offset (invalid UTF-8 is
//!   read lossily, which puts replacement characters in the text);
//! * parentheses nested at the parser's depth limit ±2, and at 1,000 and
//!   100,000;
//! * OR chains and IN lists at the regularizer's disjunct limit ±2, and
//!   at 10,000 (an overflowed stack aborts the process, which no
//!   `catch_unwind` survives: the parser's `MAX_OPERATORS` and the
//!   regularizer's balanced IN lists keep these within the stack), and
//!   NOT and sign prefixes 1,000 deep;
//! * unterminated strings, quoted identifiers and comments;
//! * non-ASCII text in every position a token can take.
//!
//! Draws are seeded, so every run feeds the same inputs.

use std::collections::hash_map::DefaultHasher;
use std::panic::{catch_unwind, AssertUnwindSafe};

use logr::feature::hash_shape;
use logr::source::{Featurizer, SqlFeaturizer};
use logr::sql::normalize::DEFAULT_MAX_DISJUNCTS;
use logr::sql::parser::MAX_NESTING_DEPTH;
use logr::sql::{parse_select, regularize, Lexer};
use logr::workload::{generate_pocketdata, generate_usbank, PocketDataConfig, UsBankConfig};
use logr_testkit::sql_gen::{render, Draws, Ident, Pred, Query, RenderCfg};

/// Seed of the byte-flip draws and the rendered spellings.
const SEED: u64 = 42;

/// Run one input through every entry point; `false` if any panicked.
fn survives(featurizer: &mut SqlFeaturizer, text: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = Lexer::tokenize(text);
        if let Ok(statement) = parse_select(text) {
            let _ = regularize(&statement);
        }
        hash_shape(text, &mut DefaultHasher::new());
        featurizer.featurize(text);
    }))
    .is_ok()
}

fn ident(name: &'static str, upper: bool, quoted: bool) -> Ident {
    Ident { name, upper, quoted }
}

/// Statements that exercise every predicate form `sql_gen` renders.
fn rendered() -> Vec<String> {
    let queries = [
        Query {
            columns: vec![ident("a", false, false), ident("Owner", true, true)],
            table: ident("status", false, false),
            preds: vec![
                Pred::Cmp(ident("a", false, false), "<>"),
                Pred::In(ident("x_1", false, true), 3),
                Pred::Between(ident("status", true, false)),
            ],
            limit: Some((10, Some(5))),
        },
        Query {
            columns: vec![ident("x_1", false, false)],
            table: ident("Owner", false, true),
            preds: vec![
                Pred::Like(ident("a", false, false)),
                Pred::Or(ident("a", false, false), ident("status", false, false)),
            ],
            limit: None,
        },
    ];
    let mut out = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        out.push(render(query, RenderCfg { seed: SEED + i as u64, comments: i == 1 }));
    }
    out
}

/// One statement of each corpus.
fn corpus() -> Vec<String> {
    let pocket = generate_pocketdata(&PocketDataConfig::small(SEED)).statements;
    let bank = generate_usbank(&UsBankConfig::small(SEED)).statements;
    [&pocket[25], &bank[25]].into_iter().map(|(text, _)| text.clone()).collect()
}

/// Every truncation of `base`, and one drawn byte flip at every offset.
fn mutations(base: &str, draws: &mut Draws) -> Vec<String> {
    let bytes = base.as_bytes();
    let mut out = Vec::with_capacity(2 * bytes.len() + 1);
    for len in 0..=bytes.len() {
        out.push(String::from_utf8_lossy(&bytes[..len]).into_owned());
    }
    for at in 0..bytes.len() {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 1 << (draws.next() % 8);
        out.push(String::from_utf8_lossy(&flipped).into_owned());
    }
    out
}

/// Inputs at and around the parser's and the regularizer's limits.
fn limits() -> Vec<String> {
    let mut out = Vec::new();
    let depth = MAX_NESTING_DEPTH;
    for d in [depth - 2, depth - 1, depth, depth + 1, depth + 2, 1_000] {
        let (open, close) = ("(".repeat(d), ")".repeat(d));
        out.push(format!("SELECT a FROM t WHERE {open}a = 1{close}"));
        out.push(format!("SELECT {open}a{close} FROM t"));
        out.push(format!("SELECT a FROM t WHERE {open}a = 1"));
        out.push(format!("SELECT a FROM t WHERE a IN {open}SELECT b FROM u{close}"));
    }
    // One input this deep: each costs a fifth of the test's budget.
    let d = 100_000;
    out.push(format!("SELECT a FROM t WHERE {}a = 1{}", "(".repeat(d), ")".repeat(d)));
    let k = DEFAULT_MAX_DISJUNCTS;
    for n in [k - 2, k - 1, k, k + 1, k + 2, 10_000] {
        let chain: Vec<String> = (0..n).map(|i| format!("a = {i}")).collect();
        out.push(format!("SELECT a FROM t WHERE {}", chain.join(" OR ")));
        if n < 1_000 {
            let chain: Vec<String> = (0..n).map(|i| format!("(a = {i} OR b = {i})")).collect();
            out.push(format!("SELECT a FROM t WHERE {}", chain.join(" AND ")));
        }
        let list: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        out.push(format!("SELECT a FROM t WHERE a IN ({})", list.join(", ")));
        out.push(format!("SELECT a FROM t WHERE a NOT IN ({})", list.join(", ")));
    }
    // Prefix chains recurse in the parser itself.
    for n in [10, 1_000] {
        for prefix in ["NOT ", "- ", "+ "] {
            out.push(format!("SELECT a FROM t WHERE {}a = 1", prefix.repeat(n)));
        }
    }
    out
}

/// Unterminated tokens and non-ASCII text.
fn hostile() -> Vec<String> {
    [
        "SELECT a FROM t WHERE b = 'abc",
        "SELECT a FROM t WHERE b = 'it''s",
        "SELECT a FROM t WHERE b = '",
        "SELECT \"a FROM t",
        "SELECT a /* open comment",
        "SELECT a FROM t /* /* nested */",
        "SELECT a FROM t -- trailing comment",
        "SELECT a FROM t WHERE b = 1 --",
        "'",
        "\"",
        "/*",
        "--",
        "SELECT ü FROM t",
        "SELECT a FROM tä WHERE ß = 'Grüße'",
        "SELECT a FROM t WHERE b = '🙂' AND c = 😀",
        "SELECT\u{a0}a\u{2003}FROM\u{3000}t",
        "\u{feff}SELECT a FROM t",
        "SELECT a FROM t WHERE b = '\u{0}'",
        "SELECT a\u{0} FROM t",
        "SELECT a FROM t WHERE b = \u{202e}'x'",
        "SELECT e\u{301} FROM t",
        "SELECT a FROM t WHERE b = $1 AND c = ?",
        "",
        " ",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn hostile_sql_is_a_value_or_a_typed_error_never_a_panic() {
    let mut draws = Draws(SEED);
    let mut inputs: Vec<String> = Vec::new();
    for base in rendered().into_iter().chain(corpus()) {
        inputs.extend(mutations(&base, &mut draws));
        inputs.push(base);
    }
    inputs.extend(limits());
    inputs.extend(hostile());

    // The panics this test catches would otherwise each print a report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut featurizer = SqlFeaturizer::default();
    let panicked: Vec<&String> =
        inputs.iter().filter(|text| !survives(&mut featurizer, text)).collect();
    std::panic::set_hook(hook);

    let shown: Vec<String> =
        panicked.iter().take(5).map(|t| t.chars().take(120).collect()).collect();
    assert!(
        panicked.is_empty(),
        "{} of {} inputs panicked: {shown:?}",
        panicked.len(),
        inputs.len()
    );
}
