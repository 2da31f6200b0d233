//! Property: the SQL featurizer's memo key is sound. One statement AST
//! is rendered many ways — literal values and kinds, whitespace and
//! comments drawn from a render configuration — and every rendering must
//! have the same shape (`hash_shape`) and featurize to identical branches,
//! so a memo hit can never return another statement's features. The
//! converse is checked on what featurization keeps: `LIMIT` and `OFFSET`
//! counts, IN-list arity, identifier case and quoting each give a
//! different shape.

use std::hash::Hasher;

use logr_feature::hash_shape;
use logr_source::{Featurizer, SqlFeaturizer};
use proptest::prelude::*;

/// An identifier as the statement spells it.
#[derive(Debug, Clone)]
struct Ident {
    name: &'static str,
    upper: bool,
    quoted: bool,
}

/// One WHERE conjunct; literal slots are filled at render time.
#[derive(Debug, Clone)]
enum Pred {
    Cmp(Ident, &'static str),
    In(Ident, usize),
    Between(Ident),
    Like(Ident),
    Or(Ident, Ident),
}

/// The statement AST: everything a rendering may not change.
#[derive(Debug, Clone)]
struct Query {
    columns: Vec<Ident>,
    table: Ident,
    preds: Vec<Pred>,
    limit: Option<(u64, Option<u64>)>,
}

/// How one rendering spells what is not the statement's shape: the seed
/// of its literal and separator draws, and whether separators may carry
/// comments.
#[derive(Debug, Clone, Copy)]
struct RenderCfg {
    seed: u64,
    comments: bool,
}

/// The literal spellings a slot draws from: integers, decimals and
/// exponents, plain strings, `''` escapes, non-ASCII text and strings
/// that look like comments.
fn literal(draw: u64) -> String {
    let v = draw >> 8;
    match draw % 8 {
        0 => v.to_string(),
        1 => format!("{}.{}", v % 1000, v % 97),
        2 => format!("{}e{}", v % 50, v % 9),
        3 => format!("'v{v}'"),
        4 => format!("'it''s {}'", v % 7),
        5 => format!("'Grüße {}'", v % 5),
        6 => "'-- not /* a comment'".to_string(),
        _ => "''".to_string(),
    }
}

/// A tiny deterministic draw sequence (SplitMix64).
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct Renderer {
    draws: Draws,
    comments: bool,
    out: String,
}

impl Renderer {
    fn sep(&mut self) {
        let choices: &[&str] = if self.comments {
            &[" ", "\n  ", "\t", " /* note */ ", " -- note\n"]
        } else {
            &[" ", "\n  ", "\t", "   "]
        };
        let pick = (self.draws.next() % choices.len() as u64) as usize;
        self.out.push_str(choices[pick]);
    }

    fn word(&mut self, text: &str) {
        self.sep();
        self.out.push_str(text);
    }

    fn ident(&mut self, ident: &Ident) {
        let name =
            if ident.upper { ident.name.to_ascii_uppercase() } else { ident.name.to_string() };
        self.word(&if ident.quoted { format!("\"{name}\"") } else { name });
    }

    fn literal(&mut self) {
        let draw = self.draws.next();
        self.word(&literal(draw));
    }

    fn pred(&mut self, pred: &Pred) {
        match pred {
            Pred::Cmp(col, op) => {
                self.ident(col);
                self.word(op);
                self.literal();
            }
            Pred::In(col, arity) => {
                self.ident(col);
                self.word("IN");
                self.word("(");
                for i in 0..*arity {
                    if i > 0 {
                        self.word(",");
                    }
                    self.literal();
                }
                self.word(")");
            }
            Pred::Between(col) => {
                self.ident(col);
                self.word("BETWEEN");
                self.literal();
                self.word("AND");
                self.literal();
            }
            Pred::Like(col) => {
                self.ident(col);
                self.word("LIKE");
                self.literal();
            }
            Pred::Or(a, b) => {
                self.word("(");
                self.ident(a);
                self.word("=");
                self.literal();
                self.word("OR");
                self.ident(b);
                self.word("=");
                self.literal();
                self.word(")");
            }
        }
    }
}

fn render(q: &Query, cfg: RenderCfg) -> String {
    let mut r = Renderer { draws: Draws(cfg.seed), comments: cfg.comments, out: String::new() };
    r.word("SELECT");
    for (i, col) in q.columns.iter().enumerate() {
        if i > 0 {
            r.word(",");
        }
        r.ident(col);
    }
    r.word("FROM");
    r.ident(&q.table);
    for (i, pred) in q.preds.iter().enumerate() {
        r.word(if i == 0 { "WHERE" } else { "AND" });
        r.pred(pred);
    }
    if let Some((count, offset)) = q.limit {
        r.word("LIMIT");
        r.word(&count.to_string());
        if let Some(offset) = offset {
            r.word("OFFSET");
            r.word(&offset.to_string());
        }
    }
    r.sep();
    r.out
}

/// The exact bytes `hash_shape` feeds: a signature with no collisions.
#[derive(Default)]
struct Fed(Vec<u8>);

impl Hasher for Fed {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        0
    }
}

fn shape(sql: &str) -> Vec<u8> {
    let mut fed = Fed::default();
    hash_shape(sql, &mut fed);
    fed.0
}

fn arb_ident() -> impl Strategy<Value = Ident> {
    (
        prop_oneof![Just("a"), Just("status"), Just("Owner"), Just("x_1")],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(name, upper, quoted)| Ident { name, upper, quoted })
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        (arb_ident(), prop_oneof![Just("="), Just("<"), Just(">="), Just("<>")])
            .prop_map(|(col, op)| Pred::Cmp(col, op)),
        (arb_ident(), 1usize..5).prop_map(|(col, arity)| Pred::In(col, arity)),
        arb_ident().prop_map(Pred::Between),
        arb_ident().prop_map(Pred::Like),
        (arb_ident(), arb_ident()).prop_map(|(a, b)| Pred::Or(a, b)),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(arb_ident(), 1..4),
        arb_ident(),
        prop::collection::vec(arb_pred(), 0..4),
        prop::option::of((1u64..1000, prop::option::of(0u64..1000))),
    )
        .prop_map(|(columns, table, preds, limit)| Query { columns, table, preds, limit })
}

fn arb_cfg() -> impl Strategy<Value = RenderCfg> {
    (any::<u64>(), any::<bool>()).prop_map(|(seed, comments)| RenderCfg { seed, comments })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn renderings_of_one_statement_share_shape_and_branches(
        q in arb_query(),
        a in arb_cfg(),
        b in arb_cfg(),
    ) {
        let (sql_a, sql_b) = (render(&q, a), render(&q, b));
        prop_assert_eq!(shape(&sql_a), shape(&sql_b), "{} vs {}", sql_a, sql_b);
        let fresh_a = SqlFeaturizer::default().featurize(&sql_a);
        prop_assert!(!fresh_a.is_empty(), "the renderer must produce parseable SQL: {}", sql_a);
        prop_assert_eq!(&fresh_a, &SqlFeaturizer::default().featurize(&sql_b));
        // Through one memo the second rendering is a shape hit.
        let mut memo = SqlFeaturizer::default();
        prop_assert_eq!(&memo.featurize(&sql_a), &fresh_a);
        prop_assert_eq!(&memo.featurize(&sql_b), &fresh_a);
        prop_assert_eq!(memo.fresh_featurizations(), 1);
    }

    #[test]
    fn what_featurization_keeps_splits_the_shape(q in arb_query(), cfg in arb_cfg()) {
        let base = shape(&render(&q, cfg));
        let mut variants: Vec<(&str, Query)> = Vec::new();

        let mut limit = q.clone();
        limit.limit = Some(match q.limit {
            Some((count, offset)) => (count + 1, offset),
            None => (1, None),
        });
        variants.push(("LIMIT count", limit));
        let mut offset = q.clone();
        offset.limit = Some(match q.limit {
            Some((count, Some(off))) => (count, Some(off + 1)),
            Some((count, None)) => (count, Some(0)),
            None => (1, Some(0)),
        });
        if q.limit.is_some() {
            variants.push(("OFFSET count", offset));
        }
        if let Some(i) = q.preds.iter().position(|p| matches!(p, Pred::In(..))) {
            let mut arity = q.clone();
            if let Pred::In(_, n) = &mut arity.preds[i] {
                *n += 1;
            }
            variants.push(("IN-list arity", arity));
        }
        let mut case = q.clone();
        case.columns[0].upper = !case.columns[0].upper;
        variants.push(("identifier case", case));
        let mut quoting = q.clone();
        quoting.table.quoted = !quoting.table.quoted;
        variants.push(("quoted vs bare", quoting));

        for (what, variant) in variants {
            let sql = render(&variant, cfg);
            prop_assert_ne!(&shape(&sql), &base, "{} must change the shape: {}", what, sql);
        }
    }
}

#[test]
fn fixed_pairs_split_the_shape() {
    let pairs = [
        ("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 6"),
        ("SELECT a FROM t LIMIT 5 OFFSET 1", "SELECT a FROM t LIMIT 5 OFFSET 2"),
        ("SELECT a FROM t LIMIT 1, 5", "SELECT a FROM t LIMIT 2, 5"),
        ("SELECT a FROM t WHERE x IN (1, 2)", "SELECT a FROM t WHERE x IN (1, 2, 3)"),
        ("SELECT a FROM t", "SELECT A FROM t"),
        ("SELECT a FROM t", "SELECT \"a\" FROM t"),
        ("SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = -1"),
        ("SELECT a FROM t WHERE x = ?", "SELECT a FROM t WHERE x = $1"),
    ];
    for (a, b) in pairs {
        assert_ne!(shape(a), shape(b), "{a} vs {b}");
    }
    // And what it drops does not.
    let same = [
        ("SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 'one'"),
        ("SELECT a FROM t WHERE x = 1", "select a from t where x = 1"),
        ("SELECT a FROM t -- c\nWHERE x = 1", "SELECT a FROM t /* c */ WHERE x = 2.5"),
        ("SELECT ^ FROM t", "SELECT ^ FROM t WHERE ~"),
    ];
    for (a, b) in same {
        let (fa, fb) =
            (SqlFeaturizer::default().featurize(a), SqlFeaturizer::default().featurize(b));
        assert_eq!(fa, fb, "{a} vs {b}");
    }
    assert_eq!(shape(same[0].0), shape(same[0].1));
    assert_ne!(shape(same[1].0), shape(same[1].1), "keyword case splits the shape, harmlessly");
    assert_eq!(shape(same[2].0), shape(same[2].1));
    assert_eq!(shape(same[3].0), shape(same[3].1), "every lex error is one shape");
}
