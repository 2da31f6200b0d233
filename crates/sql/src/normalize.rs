//! Query regularization (paper §7, "Query Regularization" and §2.2).
//!
//! The Aligon feature scheme consumes *conjunctive* queries: a projection
//! list, a set of source tables, and a conjunction of WHERE atoms. Real logs
//! contain `OR`, `NOT`, `IN`, `BETWEEN`, joins with `ON` clauses, and
//! constants. This module performs the paper's two regularization steps:
//!
//! 1. **Constant removal** ([`anonymize_statement`]) — literals are replaced
//!    by `?` parameters, so queries differing only in hard-coded constants
//!    collapse together (Table 1's "# Distinct queries (w/o const)" row).
//! 2. **Conjunctive rewriting** ([`regularize`]) — predicates are negation-
//!    normalized (De Morgan), `BETWEEN`/`IN` are desugared, and the result is
//!    converted to disjunctive normal form: a **UNION of conjunctive
//!    queries** (Table 1's "# Distinct re-writable queries" row). `ON`
//!    conditions fold into the WHERE conjunction so comma-joins and explicit
//!    joins featurize identically.

use crate::ast::*;
use std::collections::BTreeSet;
use std::fmt;

/// Default cap on DNF disjuncts before declaring a query non-rewritable.
pub const DEFAULT_MAX_DISJUNCTS: usize = 64;

/// Why a statement could not be regularized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegularizeError {
    /// DNF conversion exceeded the disjunct budget.
    TooManyDisjuncts {
        /// The configured cap.
        limit: usize,
    },
}

impl fmt::Display for RegularizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegularizeError::TooManyDisjuncts { limit } => {
                write!(f, "DNF conversion exceeded {limit} disjuncts")
            }
        }
    }
}

impl std::error::Error for RegularizeError {}

/// Result of regularizing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regularized {
    /// The UNION branches, each in conjunctive form. Deduplicated: after
    /// anonymization `x IN (?, ?)` yields a single `x = ?` branch.
    pub branches: Vec<ConjunctiveQuery>,
    /// True if the original statement was *already* conjunctive (single
    /// SELECT block whose WHERE is a pure conjunction of atoms) — the
    /// "# Distinct conjunctive queries" row of Table 1.
    pub was_conjunctive: bool,
}

/// Replace every literal in the statement with a `?` parameter.
///
/// `NULL` is kept: `IS NULL` carries schema semantics, not a data constant.
/// `LIMIT`/`OFFSET` counts are not expressions and are also kept (the paper's
/// Fig. 10 visualizations show `LIMIT 500` surviving regularization).
pub fn anonymize_statement(stmt: &mut SelectStatement) {
    anonymize_set_expr(&mut stmt.body);
    for item in &mut stmt.order_by {
        anonymize_expr(&mut item.expr);
    }
}

fn anonymize_set_expr(body: &mut SetExpr) {
    match body {
        SetExpr::Select(s) => anonymize_select(s),
        SetExpr::Union { left, right, .. } => {
            anonymize_set_expr(left);
            anonymize_set_expr(right);
        }
    }
}

fn anonymize_select(select: &mut Select) {
    for item in &mut select.items {
        if let SelectItem::Expr { expr, .. } = item {
            anonymize_expr(expr);
        }
    }
    for t in &mut select.from {
        anonymize_table_ref(t);
    }
    if let Some(sel) = &mut select.selection {
        anonymize_expr(sel);
    }
    for g in &mut select.group_by {
        anonymize_expr(g);
    }
    if let Some(h) = &mut select.having {
        anonymize_expr(h);
    }
}

fn anonymize_table_ref(t: &mut TableRef) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Subquery { query, .. } => anonymize_statement(query),
        TableRef::Join { left, right, on, .. } => {
            anonymize_table_ref(left);
            anonymize_table_ref(right);
            if let Some(cond) = on {
                anonymize_expr(cond);
            }
        }
    }
}

/// Replace literals in an expression tree with `?` (keeps `NULL`).
pub fn anonymize_expr(expr: &mut Expr) {
    match expr {
        Expr::Literal(Literal::Null) => {}
        Expr::Literal(_) => *expr = Expr::Param,
        Expr::Column(_) | Expr::Param | Expr::Wildcard => {}
        Expr::Unary { expr: inner, .. } => anonymize_expr(inner),
        Expr::Binary { left, right, .. } => {
            anonymize_expr(left);
            anonymize_expr(right);
        }
        Expr::IsNull { expr: inner, .. } => anonymize_expr(inner),
        Expr::InList { expr: inner, list, .. } => {
            anonymize_expr(inner);
            for item in list {
                anonymize_expr(item);
            }
        }
        Expr::InSubquery { expr: inner, query, .. } => {
            anonymize_expr(inner);
            anonymize_statement(query);
        }
        Expr::Between { expr: inner, low, high, .. } => {
            anonymize_expr(inner);
            anonymize_expr(low);
            anonymize_expr(high);
        }
        Expr::Like { expr: inner, pattern, .. } => {
            anonymize_expr(inner);
            anonymize_expr(pattern);
        }
        Expr::Function { args, .. } => {
            for a in args {
                anonymize_expr(a);
            }
        }
        Expr::Exists { query, .. } => anonymize_statement(query),
        Expr::Subquery(query) => anonymize_statement(query),
        Expr::Case { operand, branches, else_result } => {
            if let Some(op) = operand {
                anonymize_expr(op);
            }
            for (when, then) in branches {
                anonymize_expr(when);
                anonymize_expr(then);
            }
            if let Some(e) = else_result {
                anonymize_expr(e);
            }
        }
    }
}

/// Regularize with the default disjunct budget. See [`regularize_with_limit`].
pub fn regularize(stmt: &SelectStatement) -> Result<Regularized, RegularizeError> {
    regularize_with_limit(stmt, DEFAULT_MAX_DISJUNCTS)
}

/// Rewrite a statement into a UNION of conjunctive queries.
///
/// Each SELECT block contributes its own DNF branches; a compound statement's
/// branches are concatenated. ORDER BY and LIMIT (statement level) attach to
/// every branch. Returns an error if DNF conversion would exceed
/// `max_disjuncts` branches for any block.
pub fn regularize_with_limit(
    stmt: &SelectStatement,
    max_disjuncts: usize,
) -> Result<Regularized, RegularizeError> {
    let selects = stmt.body.selects();
    let was_conjunctive = selects.len() == 1 && select_is_conjunctive(selects[0]);

    let mut branches = Vec::new();
    for select in selects {
        let (tables, join_conjuncts) = collect_sources(&select.from);
        // Fold WHERE, JOIN ON and HAVING into a single predicate.
        let mut predicate: Option<Expr> = select.selection.clone();
        for jc in join_conjuncts {
            predicate = Some(match predicate {
                Some(p) => Expr::and(p, jc),
                None => jc,
            });
        }
        if let Some(h) = &select.having {
            predicate = Some(match predicate {
                Some(p) => Expr::and(p, h.clone()),
                None => h.clone(),
            });
        }

        let disjuncts: Vec<Vec<Expr>> = match predicate {
            None => vec![Vec::new()],
            Some(p) => {
                let nnf = to_nnf(p);
                let desugared = desugar(nnf);
                dnf(&desugared, max_disjuncts)?
            }
        };

        for conjuncts in disjuncts {
            // Canonical ordering + dedup makes conjunct order irrelevant
            // ("isomorphic modulo commutativity", paper §2.2). Each
            // conjunct is rendered once; the sort is stable, so of equal
            // renderings the first survives.
            let mut keyed: Vec<(String, Expr)> =
                conjuncts.into_iter().map(|c| (c.to_string(), c)).collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            keyed.dedup_by(|later, kept| later.0 == kept.0);

            branches.push(ConjunctiveQuery {
                select: select.items.clone(),
                tables: tables.clone(),
                conjuncts: keyed.into_iter().map(|(_, c)| c).collect(),
                group_by: select.group_by.clone(),
                order_by: stmt.order_by.clone(),
                limit: stmt.limit.clone(),
            });
        }
    }

    // Deduplicate identical branches (IN-desugaring after anonymization
    // produces duplicates).
    let mut seen = BTreeSet::new();
    branches.retain(|b| seen.insert(b.to_string()));

    Ok(Regularized { branches, was_conjunctive })
}

/// Collect source-table names and `ON` conjuncts from a FROM clause.
fn collect_sources(from: &[TableRef]) -> (Vec<String>, Vec<Expr>) {
    let mut tables = Vec::new();
    let mut conjuncts = Vec::new();
    fn walk(t: &TableRef, tables: &mut Vec<String>, conjuncts: &mut Vec<Expr>) {
        match t {
            TableRef::Table { name, .. } => tables.push(name.to_string()),
            TableRef::Subquery { query, .. } => tables.push(format!("({query})")),
            TableRef::Join { left, right, on, .. } => {
                walk(left, tables, conjuncts);
                walk(right, tables, conjuncts);
                if let Some(cond) = on {
                    conjuncts.push(cond.clone());
                }
            }
        }
    }
    for t in from {
        walk(t, &mut tables, &mut conjuncts);
    }
    tables.sort();
    tables.dedup();
    (tables, conjuncts)
}

/// True when the block's predicate is already a pure conjunction of atoms.
pub fn select_is_conjunctive(select: &Select) -> bool {
    fn conjunctive(e: &Expr) -> bool {
        match e {
            Expr::Binary { op: BinaryOp::And, left, right } => {
                conjunctive(left) && conjunctive(right)
            }
            Expr::Binary { op: BinaryOp::Or, .. } => false,
            // NOT over anything rewritable (comparisons flip, polarities
            // toggle, De Morgan applies) is non-conjunctive; NOT over an
            // irreducible atom (bare column, function call) *is* an atom.
            Expr::Unary { op: UnaryOp::Not, expr: inner } => !matches!(
                inner.as_ref(),
                Expr::Binary { .. }
                    | Expr::Unary { op: UnaryOp::Not, .. }
                    | Expr::InList { .. }
                    | Expr::InSubquery { .. }
                    | Expr::Between { .. }
                    | Expr::IsNull { .. }
                    | Expr::Like { .. }
                    | Expr::Exists { .. }
            ),
            // These need desugaring, so the original is not conjunctive.
            Expr::InList { .. } | Expr::Between { .. } => false,
            _ => true,
        }
    }
    let mut ok = true;
    if let Some(p) = &select.selection {
        ok &= conjunctive(p);
    }
    if let Some(h) = &select.having {
        ok &= conjunctive(h);
    }
    ok
}

/// Negation normal form: push `NOT` down to atoms, flipping comparisons and
/// predicate polarities on the way.
fn to_nnf(expr: Expr) -> Expr {
    match expr {
        Expr::Unary { op: UnaryOp::Not, expr: inner } => negate(to_nnf(*inner)),
        Expr::Binary { left, op: op @ (BinaryOp::And | BinaryOp::Or), right } => {
            Expr::Binary { left: Box::new(to_nnf(*left)), op, right: Box::new(to_nnf(*right)) }
        }
        other => other,
    }
}

/// Logical negation of an NNF expression.
fn negate(expr: Expr) -> Expr {
    match expr {
        Expr::Binary { left, op: BinaryOp::And, right } => Expr::or(negate(*left), negate(*right)),
        Expr::Binary { left, op: BinaryOp::Or, right } => Expr::and(negate(*left), negate(*right)),
        Expr::Binary { left, op, right } => match op.negated() {
            Some(flip) => Expr::Binary { left, op: flip, right },
            None => {
                Expr::Unary { op: UnaryOp::Not, expr: Box::new(Expr::Binary { left, op, right }) }
            }
        },
        Expr::Unary { op: UnaryOp::Not, expr } => *expr,
        Expr::IsNull { expr, negated } => Expr::IsNull { expr, negated: !negated },
        Expr::InList { expr, list, negated } => Expr::InList { expr, list, negated: !negated },
        Expr::InSubquery { expr, query, negated } => {
            Expr::InSubquery { expr, query, negated: !negated }
        }
        Expr::Between { expr, low, high, negated } => {
            Expr::Between { expr, low, high, negated: !negated }
        }
        Expr::Like { expr, pattern, negated } => Expr::Like { expr, pattern, negated: !negated },
        Expr::Exists { query, negated } => Expr::Exists { query, negated: !negated },
        other => Expr::Unary { op: UnaryOp::Not, expr: Box::new(other) },
    }
}

/// Desugar `BETWEEN` and `IN` lists into comparisons joined by AND/OR.
fn desugar(expr: Expr) -> Expr {
    match expr {
        Expr::Binary { left, op, right } => {
            Expr::Binary { left: Box::new(desugar(*left)), op, right: Box::new(desugar(*right)) }
        }
        Expr::Between { expr, low, high, negated } => {
            let lo = Expr::Binary {
                left: expr.clone(),
                op: if negated { BinaryOp::Lt } else { BinaryOp::GtEq },
                right: low,
            };
            let hi = Expr::Binary {
                left: expr,
                op: if negated { BinaryOp::Gt } else { BinaryOp::LtEq },
                right: high,
            };
            if negated {
                Expr::or(lo, hi)
            } else {
                Expr::and(lo, hi)
            }
        }
        Expr::InList { expr, list, negated } => {
            let terms: Vec<Expr> = list
                .into_iter()
                .map(|item| Expr::Binary {
                    left: expr.clone(),
                    op: if negated { BinaryOp::NotEq } else { BinaryOp::Eq },
                    right: Box::new(item),
                })
                .collect();
            let join = if negated { Expr::and } else { Expr::or };
            balanced(terms, join).unwrap_or(Expr::Literal(Literal::Boolean(!negated)))
        }
        other => other,
    }
}

/// Join `terms` into a balanced tree: the leaves keep their order, so
/// [`dnf`] gives what a left-deep chain would, at logarithmic depth (an
/// IN list of any length desugars to a tree every recursive walk takes).
fn balanced(mut terms: Vec<Expr>, join: fn(Expr, Expr) -> Expr) -> Option<Expr> {
    if terms.len() <= 1 {
        return terms.pop();
    }
    let right = terms.split_off(terms.len() / 2);
    Some(join(balanced(terms, join)?, balanced(right, join)?))
}

/// Convert an NNF/desugared predicate into DNF: a list of conjunct lists.
fn dnf(expr: &Expr, max: usize) -> Result<Vec<Vec<Expr>>, RegularizeError> {
    match expr {
        Expr::Binary { left, op: BinaryOp::Or, right } => {
            let mut l = dnf(left, max)?;
            let r = dnf(right, max)?;
            l.extend(r);
            if l.len() > max {
                return Err(RegularizeError::TooManyDisjuncts { limit: max });
            }
            Ok(l)
        }
        Expr::Binary { left, op: BinaryOp::And, right } => {
            let l = dnf(left, max)?;
            let r = dnf(right, max)?;
            if l.len().saturating_mul(r.len()) > max {
                return Err(RegularizeError::TooManyDisjuncts { limit: max });
            }
            let mut out = Vec::with_capacity(l.len() * r.len());
            for lc in &l {
                for rc in &r {
                    let mut combined = lc.clone();
                    combined.extend(rc.iter().cloned());
                    out.push(combined);
                }
            }
            Ok(out)
        }
        atom => Ok(vec![vec![atom.clone()]]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn reg(sql: &str) -> Regularized {
        let mut stmt = parse_select(sql).unwrap();
        anonymize_statement(&mut stmt);
        regularize(&stmt).unwrap()
    }

    fn branch_strings(sql: &str) -> Vec<String> {
        reg(sql).branches.iter().map(|b| b.to_string()).collect()
    }

    #[test]
    fn anonymize_replaces_literals() {
        let mut stmt = parse_select("select a from t where b = 5 and c = 'x'").unwrap();
        anonymize_statement(&mut stmt);
        assert_eq!(stmt.to_string(), "SELECT a FROM t WHERE b = ? AND c = ?");
    }

    #[test]
    fn anonymize_keeps_null_and_limit() {
        let mut stmt = parse_select("select a from t where b is null and c = 3 limit 500").unwrap();
        anonymize_statement(&mut stmt);
        assert_eq!(stmt.to_string(), "SELECT a FROM t WHERE b IS NULL AND c = ? LIMIT 500");
    }

    #[test]
    fn anonymize_reaches_subqueries() {
        let mut stmt =
            parse_select("select a from t where b in (select c from u where d = 7)").unwrap();
        anonymize_statement(&mut stmt);
        assert_eq!(stmt.to_string(), "SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = ?)");
    }

    #[test]
    fn conjunctive_query_passes_through() {
        let r = reg("select a from t where x = ? and y = ?");
        assert!(r.was_conjunctive);
        assert_eq!(r.branches.len(), 1);
        assert_eq!(r.branches[0].to_string(), "SELECT a FROM t WHERE x = ? AND y = ?");
    }

    #[test]
    fn or_splits_into_union_branches() {
        let r = reg("select a from t where x = ? or y = ?");
        assert!(!r.was_conjunctive);
        assert_eq!(r.branches.len(), 2);
        assert_eq!(r.branches[0].to_string(), "SELECT a FROM t WHERE x = ?");
        assert_eq!(r.branches[1].to_string(), "SELECT a FROM t WHERE y = ?");
    }

    #[test]
    fn and_distributes_over_or() {
        let r = reg("select a from t where (x = ? or y = ?) and z = ?");
        assert_eq!(r.branches.len(), 2);
        for b in &r.branches {
            assert!(b.conjuncts.iter().any(|c| c.to_string() == "z = ?"));
        }
    }

    #[test]
    fn between_desugars_to_range_conjuncts() {
        let r = reg("select a from t where b between ? and ?");
        assert!(!r.was_conjunctive);
        assert_eq!(r.branches.len(), 1);
        let strs: Vec<String> = r.branches[0].conjuncts.iter().map(Expr::to_string).collect();
        assert_eq!(strs, vec!["b <= ?", "b >= ?"]);
    }

    #[test]
    fn not_between_becomes_two_branches() {
        let r = reg("select a from t where b not between ? and ?");
        assert_eq!(r.branches.len(), 2);
        assert_eq!(r.branches[0].conjuncts[0].to_string(), "b < ?");
        assert_eq!(r.branches[1].conjuncts[0].to_string(), "b > ?");
    }

    #[test]
    fn in_list_dedupes_after_anonymization() {
        // x IN (1, 2, 3) → x = ? OR x = ? OR x = ? → one distinct branch.
        let r = reg("select a from t where x in (1, 2, 3)");
        assert_eq!(r.branches.len(), 1);
        assert_eq!(r.branches[0].conjuncts[0].to_string(), "x = ?");
    }

    #[test]
    fn not_in_becomes_conjunction() {
        let r = reg("select a from t where x not in (1, 2)");
        assert_eq!(r.branches.len(), 1);
        assert_eq!(r.branches[0].conjuncts[0].to_string(), "x != ?");
    }

    #[test]
    fn long_in_lists_regularize_without_deep_recursion() {
        // A left-deep chain recurses once per member in DNF conversion;
        // the balanced join keeps the leaves in order, so the branches
        // and conjuncts are what a chain would give.
        let list: Vec<String> = (0..3_000).map(|i| i.to_string()).collect();
        let list = list.join(", ");
        let not_in = parse_select(&format!("select a from t where x not in ({list})")).unwrap();
        let r = regularize(&not_in).unwrap();
        assert_eq!(r.branches.len(), 1);
        assert_eq!(r.branches[0].conjuncts.len(), 3_000);
        let in_list = parse_select(&format!("select a from t where x in ({list})")).unwrap();
        assert!(matches!(regularize(&in_list), Err(RegularizeError::TooManyDisjuncts { .. })));

        let r = regularize(&parse_select("select a from t where x in (1, 2, 3, 4, 5)").unwrap())
            .unwrap();
        let got: Vec<String> = r.branches.iter().map(|b| b.conjuncts[0].to_string()).collect();
        assert_eq!(got, ["x = 1", "x = 2", "x = 3", "x = 4", "x = 5"]);
    }

    #[test]
    fn demorgan_not_over_and() {
        let r = reg("select a from t where not (x = ? and y = ?)");
        assert_eq!(r.branches.len(), 2);
        assert_eq!(r.branches[0].conjuncts[0].to_string(), "x != ?");
        assert_eq!(r.branches[1].conjuncts[0].to_string(), "y != ?");
    }

    #[test]
    fn demorgan_not_over_or() {
        let r = reg("select a from t where not (x = ? or y < ?)");
        assert_eq!(r.branches.len(), 1);
        let strs: Vec<String> = r.branches[0].conjuncts.iter().map(Expr::to_string).collect();
        assert_eq!(strs, vec!["x != ?", "y >= ?"]);
    }

    #[test]
    fn double_negation_eliminated() {
        let r = reg("select a from t where not not x = ?");
        assert_eq!(r.branches.len(), 1);
        assert_eq!(r.branches[0].conjuncts[0].to_string(), "x = ?");
    }

    #[test]
    fn not_is_null_flips_polarity() {
        let r = reg("select a from t where not (b is null)");
        assert_eq!(r.branches[0].conjuncts[0].to_string(), "b IS NOT NULL");
    }

    #[test]
    fn join_on_folds_into_conjuncts() {
        let explicit = branch_strings("select a from t join u on t.id = u.id where t.x = ?");
        let comma = branch_strings("select a from t, u where t.id = u.id and t.x = ?");
        assert_eq!(explicit, comma);
    }

    #[test]
    fn tables_are_sorted_and_deduped() {
        let r = reg("select a from u, t where t.id = u.id");
        assert_eq!(r.branches[0].tables, vec!["t", "u"]);
    }

    #[test]
    fn conjuncts_sorted_canonically() {
        let a = branch_strings("select a from t where y = ? and x = ?");
        let b = branch_strings("select a from t where x = ? and y = ?");
        assert_eq!(a, b);
    }

    #[test]
    fn union_statement_concatenates_branches() {
        let r = reg("select a from t where x = ? union select b from u where y = ?");
        assert_eq!(r.branches.len(), 2);
        assert!(!r.was_conjunctive);
    }

    #[test]
    fn subquery_source_becomes_table_feature() {
        let r = reg("select a from (select b from u) v");
        assert_eq!(r.branches[0].tables, vec!["(SELECT b FROM u)"]);
    }

    #[test]
    fn having_folds_into_conjuncts() {
        let r = reg("select a, count(*) from t group by a having count(*) > ?");
        assert_eq!(r.branches[0].conjuncts[0].to_string(), "count(*) > ?");
        assert_eq!(r.branches[0].group_by.len(), 1);
    }

    #[test]
    fn order_and_limit_attach_to_branches() {
        let r = reg("select a from t where x = ? or y = ? order by a desc limit 10");
        assert_eq!(r.branches.len(), 2);
        for b in &r.branches {
            assert_eq!(b.order_by.len(), 1);
            assert_eq!(b.limit.as_ref().unwrap().limit, 10);
        }
    }

    #[test]
    fn disjunct_explosion_detected() {
        // 2^8 = 256 disjuncts > 64 default cap.
        let mut clauses = Vec::new();
        for i in 0..8 {
            clauses.push(format!("(a{i} = ? or b{i} = ?)"));
        }
        let sql = format!("select x from t where {}", clauses.join(" and "));
        let stmt = parse_select(&sql).unwrap();
        assert!(matches!(regularize(&stmt), Err(RegularizeError::TooManyDisjuncts { .. })));
    }

    #[test]
    fn empty_where_gives_single_branch() {
        let r = reg("select a from t");
        assert!(r.was_conjunctive);
        assert_eq!(r.branches.len(), 1);
        assert!(r.branches[0].conjuncts.is_empty());
    }

    #[test]
    fn case_expressions_anonymize_and_stay_atomic() {
        let r = reg("select a from t where case when b = 1 then 1 else 0 end = 2 and c = 3");
        assert_eq!(r.branches.len(), 1);
        let strs: Vec<String> = r.branches[0].conjuncts.iter().map(Expr::to_string).collect();
        // The whole CASE comparison survives as one (anonymized) atom.
        assert_eq!(strs, vec!["CASE WHEN b = ? THEN ? ELSE ? END = ?", "c = ?"]);
    }

    #[test]
    fn branches_reparse_as_conjunctive() {
        // Every branch the regularizer emits must itself be conjunctive.
        for sql in [
            "select a from t where x = ? or (y = ? and not (z = ? or w = ?))",
            "select a from t where b between ? and ? and (c = ? or d != ?)",
        ] {
            for b in reg(sql).branches {
                let printed = b.to_string();
                let reparsed = parse_select(&printed).unwrap();
                let re = regularize(&reparsed).unwrap();
                assert!(re.was_conjunctive, "branch not conjunctive: {printed}");
                assert_eq!(re.branches.len(), 1);
            }
        }
    }
}
