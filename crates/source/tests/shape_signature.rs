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
use logr_testkit::sql_gen::{arb_cfg, arb_query, render, Pred, Query};
use proptest::prelude::*;

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
