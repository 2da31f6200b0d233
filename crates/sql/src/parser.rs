//! Recursive-descent parser for the LogR SELECT dialect.
//!
//! The grammar intentionally covers the query shapes observed in the paper's
//! logs (conjunctive SELECTs, joins, IN/BETWEEN/LIKE/IS NULL predicates,
//! subqueries, GROUP BY / ORDER BY / LIMIT, UNION). Anything outside the
//! dialect produces a [`ParseError`]; log ingestion counts these, mirroring
//! the unparseable-statement row in the paper's Table 1.

use crate::ast::*;
use crate::lexer::{LexError, Lexer, Token, TokenKind};
use std::fmt;

/// Parse failure, with a byte offset into the source where known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// The token stream did not match the grammar.
    Unexpected {
        /// What the parser was looking for.
        expected: String,
        /// What it found instead.
        found: String,
        /// Byte offset of the offending token.
        offset: usize,
    },
    /// Recognized but unsupported construct (e.g. CASE expressions,
    /// non-SELECT statements).
    Unsupported {
        /// The construct name.
        construct: String,
        /// Byte offset.
        offset: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { expected, found, offset } => {
                write!(f, "parse error at byte {offset}: expected {expected}, found {found}")
            }
            ParseError::Unsupported { construct, offset } => {
                write!(f, "unsupported construct at byte {offset}: {construct}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Keywords that terminate expressions / cannot be bare aliases.
const RESERVED: &[&str] = &[
    "select", "distinct", "from", "where", "group", "by", "having", "order", "limit", "offset",
    "union", "all", "and", "or", "not", "in", "between", "like", "is", "null", "exists", "as",
    "join", "inner", "left", "right", "outer", "cross", "on", "asc", "desc", "case", "when",
    "then", "else", "end", "insert", "update", "delete", "set", "values",
];

/// Parse a single (possibly compound) SELECT statement from SQL text.
///
/// A trailing semicolon is tolerated; trailing garbage is an error.
pub fn parse_select(sql: &str) -> Result<SelectStatement, ParseError> {
    let mut parser = Parser::new(sql)?;
    let stmt = parser.parse_statement()?;
    parser.expect_eof()?;
    Ok(stmt)
}

/// Maximum expression/subquery nesting depth before the parser refuses —
/// guards the recursive descent against stack exhaustion on adversarial
/// inputs (logs are untrusted).
pub const MAX_NESTING_DEPTH: usize = 40;

/// Maximum operators (binary, unary, postfix, joins, unions) one parse
/// may build: a chain like `a OR b OR …` parses in a loop but builds a
/// tree as deep as it is long, and every walk of a statement recurses.
pub const MAX_OPERATORS: usize = 256;

/// Token-stream parser. Use [`parse_select`] unless you need incremental
/// control.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
    operators: usize,
}

impl Parser {
    /// Tokenize `sql` and position at the first token.
    pub fn new(sql: &str) -> Result<Self, ParseError> {
        Ok(Parser { tokens: Lexer::tokenize(sql)?, pos: 0, depth: 0, operators: 0 })
    }

    /// Count one more operator node against [`MAX_OPERATORS`].
    fn operator(&mut self) -> Result<(), ParseError> {
        self.operators += 1;
        if self.operators > MAX_OPERATORS {
            return Err(ParseError::Unsupported {
                construct: format!("more than {MAX_OPERATORS} operators"),
                offset: self.peek().offset,
            });
        }
        Ok(())
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(ParseError::Unsupported {
                construct: format!("nesting deeper than {MAX_NESTING_DEPTH}"),
                offset: self.peek().offset,
            });
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek().is_sym(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {}", kw.to_uppercase())))
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{s}'")))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        let tok = self.peek();
        ParseError::Unexpected {
            expected: expected.to_string(),
            found: if tok.kind == TokenKind::Eof {
                "<eof>".to_string()
            } else {
                format!("'{}'", tok.text)
            },
            offset: tok.offset,
        }
    }

    /// Error unless the remaining input is only an optional `;` then EOF.
    pub fn expect_eof(&mut self) -> Result<(), ParseError> {
        self.eat_sym(";");
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.unexpected("end of statement"))
        }
    }

    /// Parse a complete SELECT statement (body + ORDER BY + LIMIT).
    pub fn parse_statement(&mut self) -> Result<SelectStatement, ParseError> {
        for kw in ["insert", "update", "delete", "create", "drop", "exec", "call", "pragma"] {
            if self.peek().is_kw(kw) {
                return Err(ParseError::Unsupported {
                    construct: format!("{} statement", kw.to_uppercase()),
                    offset: self.peek().offset,
                });
            }
        }
        let body = self.parse_set_expr()?;
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            self.parse_order_by_list()?
        } else {
            Vec::new()
        };
        let limit = self.parse_limit()?;
        Ok(SelectStatement { body, order_by, limit })
    }

    fn parse_set_expr(&mut self) -> Result<SetExpr, ParseError> {
        let mut left = SetExpr::Select(Box::new(self.parse_select_block()?));
        while self.eat_kw("union") {
            self.operator()?;
            let all = self.eat_kw("all");
            let right = SetExpr::Select(Box::new(self.parse_select_block()?));
            left = SetExpr::Union { left: Box::new(left), right: Box::new(right), all };
        }
        Ok(left)
    }

    fn parse_select_block(&mut self) -> Result<Select, ParseError> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        if self.eat_kw("all") {
            // SELECT ALL is a no-op.
        }
        let mut items = vec![self.parse_select_item()?];
        while self.eat_sym(",") {
            items.push(self.parse_select_item()?);
        }
        let from = if self.eat_kw("from") {
            let mut refs = vec![self.parse_table_ref()?];
            while self.eat_sym(",") {
                refs.push(self.parse_table_ref()?);
            }
            refs
        } else {
            Vec::new()
        };
        let selection = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            let mut gs = vec![self.parse_expr()?];
            while self.eat_sym(",") {
                gs.push(self.parse_expr()?);
            }
            gs
        } else {
            Vec::new()
        };
        let having = if self.eat_kw("having") { Some(self.parse_expr()?) } else { None };
        Ok(Select { distinct, items, from, selection, group_by, having })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_sym("*") {
            return Ok(SelectItem::Wildcard);
        }
        // table.* — look ahead for word(.word)*.*
        if self.peek().kind == TokenKind::Word || self.peek().kind == TokenKind::QuotedIdent {
            let save = self.pos;
            if let Ok(name) = self.parse_object_name() {
                if self.eat_sym(".") {
                    if self.eat_sym("*") {
                        return Ok(SelectItem::QualifiedWildcard(name));
                    }
                    self.pos = save;
                } else {
                    self.pos = save;
                }
            } else {
                self.pos = save;
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw("as") {
            let t = self.bump();
            if t.kind == TokenKind::Word || t.kind == TokenKind::QuotedIdent {
                return Ok(Some(t.text));
            }
            return Err(self.unexpected("alias name"));
        }
        // Bare alias: a non-reserved word.
        if self.peek().kind == TokenKind::Word
            && !RESERVED.contains(&self.peek().normalized.as_str())
        {
            return Ok(Some(self.bump().text));
        }
        Ok(None)
    }

    fn parse_object_name(&mut self) -> Result<ObjectName, ParseError> {
        let mut parts = Vec::new();
        loop {
            let t = self.peek().clone();
            match t.kind {
                TokenKind::Word | TokenKind::QuotedIdent => {
                    self.bump();
                    parts.push(t.text);
                }
                _ => return Err(self.unexpected("identifier")),
            }
            // Continue on '.' followed by another identifier (not `.*`).
            if self.peek().is_sym(".")
                && matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Word) | Some(TokenKind::QuotedIdent)
                )
            {
                self.bump();
                continue;
            }
            return Ok(ObjectName(parts));
        }
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.eat_kw("cross") {
                self.expect_kw("join")?;
                JoinKind::Cross
            } else if self.eat_kw("left") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.eat_kw("inner") {
                self.expect_kw("join")?;
                JoinKind::Inner
            } else if self.eat_kw("join") {
                JoinKind::Inner
            } else {
                return Ok(left);
            };
            self.operator()?;
            let right = self.parse_table_primary()?;
            let on = if self.eat_kw("on") { Some(self.parse_expr()?) } else { None };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
    }

    fn parse_table_primary(&mut self) -> Result<TableRef, ParseError> {
        if self.eat_sym("(") {
            if self.peek().is_kw("select") {
                let query = self.parse_statement()?;
                self.expect_sym(")")?;
                let alias = self.parse_alias()?;
                return Ok(TableRef::Subquery { query: Box::new(query), alias });
            }
            // Parenthesized table reference.
            let inner = self.parse_table_ref()?;
            self.expect_sym(")")?;
            return Ok(inner);
        }
        let name = self.parse_object_name()?;
        let alias = self.parse_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    fn parse_order_by_list(&mut self) -> Result<Vec<OrderByItem>, ParseError> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let asc = if self.eat_kw("desc") {
                false
            } else {
                self.eat_kw("asc");
                true
            };
            items.push(OrderByItem { expr, asc });
            if !self.eat_sym(",") {
                return Ok(items);
            }
        }
    }

    fn parse_limit(&mut self) -> Result<Option<Limit>, ParseError> {
        if !self.eat_kw("limit") {
            return Ok(None);
        }
        let n = self.parse_u64()?;
        // MySQL `LIMIT offset, count` or standard `LIMIT count OFFSET n`.
        if self.eat_sym(",") {
            let count = self.parse_u64()?;
            return Ok(Some(Limit { limit: count, offset: Some(n) }));
        }
        let offset = if self.eat_kw("offset") { Some(self.parse_u64()?) } else { None };
        Ok(Some(Limit { limit: n, offset }))
    }

    fn parse_u64(&mut self) -> Result<u64, ParseError> {
        let t = self.peek().clone();
        if t.kind == TokenKind::Number {
            if let Ok(v) = t.text.parse::<u64>() {
                self.bump();
                return Ok(v);
            }
        }
        Err(self.unexpected("integer"))
    }

    /// Parse an expression (entry point: lowest precedence).
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let result = self.parse_or();
        self.leave();
        result
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            self.operator()?;
            let right = self.parse_and()?;
            left = Expr::or(left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            self.operator()?;
            let right = self.parse_not()?;
            left = Expr::and(left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("not") {
            self.operator()?;
            let inner = self.parse_not()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_additive()?;
        loop {
            let op = if self.eat_sym("=") {
                Some(BinaryOp::Eq)
            } else if self.eat_sym("!=") || self.eat_sym("<>") {
                Some(BinaryOp::NotEq)
            } else if self.eat_sym("<=") {
                Some(BinaryOp::LtEq)
            } else if self.eat_sym(">=") {
                Some(BinaryOp::GtEq)
            } else if self.eat_sym("<") {
                Some(BinaryOp::Lt)
            } else if self.eat_sym(">") {
                Some(BinaryOp::Gt)
            } else {
                None
            };
            if let Some(op) = op {
                self.operator()?;
                let right = self.parse_additive()?;
                left = Expr::binary(left, op, right);
                continue;
            }
            // Postfix predicates: IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE.
            if self.eat_kw("is") {
                self.operator()?;
                let negated = self.eat_kw("not");
                self.expect_kw("null")?;
                left = Expr::IsNull { expr: Box::new(left), negated };
                continue;
            }
            let negated = if self.peek().is_kw("not")
                && matches!(
                    self.tokens.get(self.pos + 1),
                    Some(t) if t.is_kw("in") || t.is_kw("between") || t.is_kw("like")
                ) {
                self.bump();
                true
            } else {
                false
            };
            if self.eat_kw("in") {
                self.operator()?;
                self.expect_sym("(")?;
                if self.peek().is_kw("select") {
                    let query = self.parse_statement()?;
                    self.expect_sym(")")?;
                    left =
                        Expr::InSubquery { expr: Box::new(left), query: Box::new(query), negated };
                } else {
                    let mut list = vec![self.parse_expr()?];
                    while self.eat_sym(",") {
                        list.push(self.parse_expr()?);
                    }
                    self.expect_sym(")")?;
                    left = Expr::InList { expr: Box::new(left), list, negated };
                }
                continue;
            }
            if self.eat_kw("between") {
                self.operator()?;
                let low = self.parse_additive()?;
                self.expect_kw("and")?;
                let high = self.parse_additive()?;
                left = Expr::Between {
                    expr: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if self.eat_kw("like") {
                self.operator()?;
                let pattern = self.parse_additive()?;
                left = Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated };
                continue;
            }
            if negated {
                return Err(self.unexpected("IN, BETWEEN or LIKE after NOT"));
            }
            return Ok(left);
        }
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = if self.eat_sym("+") {
                BinaryOp::Plus
            } else if self.eat_sym("-") {
                BinaryOp::Minus
            } else if self.eat_sym("||") {
                BinaryOp::Concat
            } else {
                return Ok(left);
            };
            self.operator()?;
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = if self.eat_sym("*") {
                BinaryOp::Mul
            } else if self.eat_sym("/") {
                BinaryOp::Div
            } else if self.eat_sym("%") {
                BinaryOp::Mod
            } else {
                return Ok(left);
            };
            self.operator()?;
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_sym("-") {
            self.operator()?;
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat_sym("+") {
            self.operator()?;
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let tok = self.peek().clone();
        match tok.kind {
            TokenKind::Number => {
                self.bump();
                Ok(Expr::Literal(Literal::Number(tok.text)))
            }
            TokenKind::String => {
                self.bump();
                Ok(Expr::Literal(Literal::String(tok.text)))
            }
            TokenKind::Param => {
                self.bump();
                Ok(Expr::Param)
            }
            TokenKind::Symbol if tok.text == "(" => {
                self.bump();
                if self.peek().is_kw("select") {
                    let query = self.parse_statement()?;
                    self.expect_sym(")")?;
                    return Ok(Expr::Subquery(Box::new(query)));
                }
                let inner = self.parse_expr()?;
                self.expect_sym(")")?;
                Ok(inner)
            }
            TokenKind::Word | TokenKind::QuotedIdent => {
                match tok.normalized.as_str() {
                    "null" => {
                        self.bump();
                        return Ok(Expr::Literal(Literal::Null));
                    }
                    "true" => {
                        self.bump();
                        return Ok(Expr::Literal(Literal::Boolean(true)));
                    }
                    "false" => {
                        self.bump();
                        return Ok(Expr::Literal(Literal::Boolean(false)));
                    }
                    "case" => {
                        self.bump();
                        let operand = if self.peek().is_kw("when") {
                            None
                        } else {
                            Some(Box::new(self.parse_expr()?))
                        };
                        let mut branches = Vec::new();
                        while self.eat_kw("when") {
                            let when = self.parse_expr()?;
                            self.expect_kw("then")?;
                            let then = self.parse_expr()?;
                            branches.push((when, then));
                        }
                        if branches.is_empty() {
                            return Err(self.unexpected("WHEN branch in CASE"));
                        }
                        let else_result = if self.eat_kw("else") {
                            Some(Box::new(self.parse_expr()?))
                        } else {
                            None
                        };
                        self.expect_kw("end")?;
                        return Ok(Expr::Case { operand, branches, else_result });
                    }
                    "exists" => {
                        self.bump();
                        self.expect_sym("(")?;
                        let query = self.parse_statement()?;
                        self.expect_sym(")")?;
                        return Ok(Expr::Exists { query: Box::new(query), negated: false });
                    }
                    "not" if self.tokens.get(self.pos + 1).is_some_and(|t| t.is_kw("exists")) => {
                        self.bump();
                        self.bump();
                        self.expect_sym("(")?;
                        let query = self.parse_statement()?;
                        self.expect_sym(")")?;
                        return Ok(Expr::Exists { query: Box::new(query), negated: true });
                    }
                    _ => {}
                }
                // Function call?
                if tok.kind == TokenKind::Word
                    && self.tokens.get(self.pos + 1).is_some_and(|t| t.is_sym("("))
                    && !RESERVED.contains(&tok.normalized.as_str())
                {
                    self.bump(); // name
                    self.bump(); // '('
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            if self.eat_sym("*") {
                                args.push(Expr::Wildcard);
                            } else {
                                args.push(self.parse_expr()?);
                            }
                            if self.eat_sym(")") {
                                break;
                            }
                            self.expect_sym(",")?;
                        }
                    }
                    return Ok(Expr::Function { name: tok.normalized, args, distinct });
                }
                let name = self.parse_object_name()?;
                Ok(Expr::Column(name))
            }
            _ => Err(self.unexpected("expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(sql: &str) -> String {
        parse_select(sql).unwrap().to_string()
    }

    #[test]
    fn simple_select() {
        assert_eq!(rt("select a from t"), "SELECT a FROM t");
    }

    #[test]
    fn paper_example_query() {
        let sql =
            "SELECT _id , sms_type , _time FROM Messages WHERE status =? AND transport_type =?";
        assert_eq!(
            rt(sql),
            "SELECT _id, sms_type, _time FROM Messages WHERE status = ? AND transport_type = ?"
        );
    }

    #[test]
    fn distinct_and_aliases() {
        assert_eq!(
            rt("select distinct a as x, b y from t"),
            "SELECT DISTINCT a AS x, b AS y FROM t"
        );
    }

    #[test]
    fn wildcards() {
        assert_eq!(rt("select * from t"), "SELECT * FROM t");
        assert_eq!(rt("select t.* from t"), "SELECT t.* FROM t");
    }

    #[test]
    fn qualified_columns() {
        assert_eq!(rt("select a.b, c.d.e from s.t"), "SELECT a.b, c.d.e FROM s.t");
    }

    #[test]
    fn where_precedence() {
        assert_eq!(
            rt("select a from t where x = 1 or y = 2 and z = 3"),
            "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3"
        );
        assert_eq!(
            rt("select a from t where (x = 1 or y = 2) and z = 3"),
            "SELECT a FROM t WHERE (x = 1 OR y = 2) AND z = 3"
        );
    }

    #[test]
    fn not_handling() {
        assert_eq!(rt("select a from t where not x = ?"), "SELECT a FROM t WHERE NOT x = ?");
        assert_eq!(
            rt("select a from t where not (x = ? and y = ?)"),
            "SELECT a FROM t WHERE NOT (x = ? AND y = ?)"
        );
    }

    #[test]
    fn predicates() {
        assert_eq!(rt("select a from t where b is null"), "SELECT a FROM t WHERE b IS NULL");
        assert_eq!(
            rt("select a from t where b is not null"),
            "SELECT a FROM t WHERE b IS NOT NULL"
        );
        assert_eq!(rt("select a from t where b in (1, 2)"), "SELECT a FROM t WHERE b IN (1, 2)");
        assert_eq!(
            rt("select a from t where b not in (?, ?)"),
            "SELECT a FROM t WHERE b NOT IN (?, ?)"
        );
        assert_eq!(
            rt("select a from t where b between 1 and 5"),
            "SELECT a FROM t WHERE b BETWEEN 1 AND 5"
        );
        assert_eq!(
            rt("select a from t where b not between ? and ?"),
            "SELECT a FROM t WHERE b NOT BETWEEN ? AND ?"
        );
        assert_eq!(rt("select a from t where b like '%x%'"), "SELECT a FROM t WHERE b LIKE '%x%'");
    }

    #[test]
    fn between_and_does_not_swallow_conjunction() {
        assert_eq!(
            rt("select a from t where b between 1 and 5 and c = ?"),
            "SELECT a FROM t WHERE b BETWEEN 1 AND 5 AND c = ?"
        );
    }

    #[test]
    fn arithmetic_and_concat() {
        assert_eq!(rt("select a + b * c - d from t"), "SELECT a + b * c - d FROM t");
        assert_eq!(rt("select a || b from t"), "SELECT a || b FROM t");
        assert_eq!(rt("select -a from t"), "SELECT -a FROM t");
        assert_eq!(rt("select (a + b) * c from t"), "SELECT (a + b) * c FROM t");
    }

    #[test]
    fn functions() {
        assert_eq!(rt("select count(*) from t"), "SELECT count(*) FROM t");
        assert_eq!(rt("select UPPER(name) from t"), "SELECT upper(name) FROM t");
        assert_eq!(rt("select count(distinct a) from t"), "SELECT count(DISTINCT a) FROM t");
        assert_eq!(rt("select max(a, b) from t"), "SELECT max(a, b) FROM t");
    }

    #[test]
    fn group_by_having() {
        assert_eq!(
            rt("select a, count(*) from t group by a having count(*) > 5"),
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 5"
        );
    }

    #[test]
    fn order_by_limit_offset() {
        assert_eq!(
            rt("select a from t order by a desc, b asc limit 10 offset 5"),
            "SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5"
        );
        // MySQL comma form.
        assert_eq!(rt("select a from t limit 5, 10"), "SELECT a FROM t LIMIT 10 OFFSET 5");
        assert_eq!(
            rt("select a from t order by upper(name) limit 10"),
            "SELECT a FROM t ORDER BY upper(name) LIMIT 10"
        );
    }

    #[test]
    fn joins() {
        assert_eq!(
            rt("select a from t join u on t.id = u.id"),
            "SELECT a FROM t JOIN u ON t.id = u.id"
        );
        assert_eq!(
            rt("select a from t left outer join u on t.id = u.id"),
            "SELECT a FROM t LEFT JOIN u ON t.id = u.id"
        );
        assert_eq!(rt("select a from t cross join u"), "SELECT a FROM t CROSS JOIN u");
        assert_eq!(
            rt("select a from t, u where t.id = u.id"),
            "SELECT a FROM t, u WHERE t.id = u.id"
        );
    }

    #[test]
    fn subqueries() {
        assert_eq!(rt("select a from (select b from u) v"), "SELECT a FROM (SELECT b FROM u) AS v");
        assert_eq!(
            rt("select a from t where b in (select c from u)"),
            "SELECT a FROM t WHERE b IN (SELECT c FROM u)"
        );
        assert_eq!(
            rt("select a from t where exists (select 1 from u)"),
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)"
        );
        assert_eq!(
            rt("select a from t where not exists (select 1 from u)"),
            "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)"
        );
        assert_eq!(
            rt("select (select max(b) from u) from t"),
            "SELECT (SELECT max(b) FROM u) FROM t"
        );
    }

    #[test]
    fn union_statements() {
        assert_eq!(
            rt("select a from t union select b from u"),
            "SELECT a FROM t UNION SELECT b FROM u"
        );
        assert_eq!(
            rt("select a from t union all select b from u order by 1"),
            "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1"
        );
    }

    #[test]
    fn trailing_semicolon_ok_garbage_not() {
        assert!(parse_select("select a from t;").is_ok());
        assert!(parse_select("select a from t garbage garbage").is_err());
    }

    #[test]
    fn non_select_statements_are_unsupported() {
        for sql in [
            "INSERT INTO t VALUES (1)",
            "UPDATE t SET a = 1",
            "DELETE FROM t",
            "EXEC some_procedure",
        ] {
            match parse_select(sql) {
                Err(ParseError::Unsupported { .. }) => {}
                other => panic!("expected Unsupported for {sql}, got {other:?}"),
            }
        }
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            rt("select case when a then 1 else 2 end from t"),
            "SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t"
        );
        // Simple (operand) form, multiple branches, no ELSE.
        assert_eq!(
            rt("select case x when 1 then 'a' when 2 then 'b' end from t"),
            "SELECT CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM t"
        );
        // CASE inside WHERE and nested in comparisons.
        assert_eq!(
            rt("select a from t where case when b then 1 else 0 end = ?"),
            "SELECT a FROM t WHERE CASE WHEN b THEN 1 ELSE 0 END = ?"
        );
        // Missing WHEN is an error.
        assert!(parse_select("select case else 1 end from t").is_err());
        // Missing END is an error.
        assert!(parse_select("select case when a then 1 from t").is_err());
    }

    #[test]
    fn pathological_nesting_rejected_not_crashed() {
        // 10k nested parens must produce an error, not a stack overflow.
        let sql =
            format!("select a from t where {}x = 1{}", "(".repeat(10_000), ")".repeat(10_000));
        assert!(matches!(parse_select(&sql), Err(ParseError::Unsupported { .. })));
        // Moderate nesting still parses.
        let ok = format!("select a from t where {}x = 1{}", "(".repeat(24), ")".repeat(24));
        assert!(parse_select(&ok).is_ok());
    }

    #[test]
    fn long_operator_chains_rejected_not_crashed() {
        // A chain parses in a loop but builds a tree as deep as it is
        // long, and whatever walks the statement next recurses that deep.
        let chain = |n: usize, op: &str| {
            let terms: Vec<String> = (0..n).map(|i| format!("a = {i}")).collect();
            format!("select a from t where {}", terms.join(op))
        };
        for op in [" or ", " and "] {
            // n terms build n − 1 connectives and n comparisons.
            let fits = MAX_OPERATORS.div_ceil(2);
            assert!(parse_select(&chain(fits, op)).is_ok(), "{op}");
            assert!(matches!(
                parse_select(&chain(fits + 1, op)),
                Err(ParseError::Unsupported { .. })
            ));
            assert!(parse_select(&chain(10_000, op)).is_err());
        }
        for prefix in ["not ", "- ", "+ "] {
            let sql = format!("select a from t where {}a = 1", prefix.repeat(100_000));
            assert!(matches!(parse_select(&sql), Err(ParseError::Unsupported { .. })), "{prefix}");
        }
    }

    #[test]
    fn error_reports_offset() {
        match parse_select("select a from") {
            Err(ParseError::Unexpected { offset, .. }) => assert_eq!(offset, 13),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reparse_printed_output_is_fixpoint() {
        let samples = [
            "SELECT a, b AS x FROM t JOIN u ON t.id = u.id WHERE a = ? AND b IN (?, ?) OR c IS NULL GROUP BY a ORDER BY b DESC LIMIT 5",
            "SELECT count(*) FROM t WHERE x BETWEEN ? AND ? AND y NOT LIKE '%z%'",
            "SELECT * FROM (SELECT a FROM u) AS v WHERE EXISTS (SELECT 1 FROM w)",
            "SELECT a FROM t UNION ALL SELECT b FROM u",
        ];
        for sql in samples {
            let once = rt(sql);
            let twice = rt(&once);
            assert_eq!(once, twice, "printer/parse not a fixpoint for {sql}");
        }
    }

    #[test]
    fn params_normalize_to_question_mark() {
        assert_eq!(
            rt("select a from t where b = $1 and c = :name"),
            "SELECT a FROM t WHERE b = ? AND c = ?"
        );
    }
}
