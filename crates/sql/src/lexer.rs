//! Tokenizer for the LogR SQL dialect.
//!
//! Handles the lexical shapes that show up in the paper's two logs:
//! unquoted/quoted identifiers, string and numeric literals, JDBC-style `?`
//! parameters (PocketData uses these exclusively), named `:param` and
//! positional `$n` parameters, line (`--`) and block (`/* */`) comments.

use std::fmt;

/// Lexical category of a [`Token`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Keyword or bare identifier; keywords are recognized by the parser so
    /// identifiers that happen to match keywords in non-keyword positions
    /// still lex uniformly. Stored lowercased in `normalized`.
    Word,
    /// Quoted identifier: `"name"`, `` `name` `` or `[name]`.
    QuotedIdent,
    /// Numeric literal (integer or decimal, optional exponent).
    Number,
    /// String literal (single quotes, `''` escape).
    String,
    /// Positional or named parameter: `?`, `$1`, `:name`.
    Param,
    /// Operator or punctuation: `=`, `<>`, `<=`, `(`, `,`, `.`, …
    Symbol,
    /// End of input sentinel.
    Eof,
}

/// A lexed token with its original and normalized spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical category.
    pub kind: TokenKind,
    /// Exact source text (without enclosing quotes for strings/idents).
    pub text: String,
    /// Lowercased form for case-insensitive keyword matching.
    pub normalized: String,
    /// Byte offset of the token start in the source, for error reporting.
    pub offset: usize,
}

impl Token {
    fn new(kind: TokenKind, text: &str, offset: usize) -> Self {
        Token { kind, normalized: text.to_ascii_lowercase(), text: text.to_string(), offset }
    }

    /// True if this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        self.kind == TokenKind::Word && self.normalized == kw
    }

    /// True if this token is the given symbol.
    pub fn is_sym(&self, s: &str) -> bool {
        self.kind == TokenKind::Symbol && self.text == s
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TokenKind::Eof => write!(f, "<eof>"),
            _ => write!(f, "{}", self.text),
        }
    }
}

/// Error produced when the input contains an unlexable construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Streaming tokenizer over a SQL string.
///
/// Every delimiter the lexer looks for is ASCII, and an ASCII byte never
/// occurs inside a multi-byte UTF-8 sequence, so any span between two
/// delimiters is a `char`-boundary slice of the source: token texts are
/// sliced, never rebuilt byte by byte.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { text: src, src: src.as_bytes(), pos: 0 }
    }

    /// Lex the whole input into a token vector terminated by an `Eof` token.
    pub fn tokenize(src: &'a str) -> Result<Vec<Token>, LexError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::with_capacity(src.len() / 4 + 4);
        loop {
            let tok = lexer.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(LexError {
                                    message: "unterminated block comment".into(),
                                    offset: start,
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produce the next token.
    pub fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(c) = self.peek() else {
            return Ok(Token::new(TokenKind::Eof, "", start));
        };

        match c {
            b'\'' => self.lex_string(start),
            b'"' => self.lex_quoted_ident(start, b'"'),
            b'`' => self.lex_quoted_ident(start, b'`'),
            b'[' if looks_like_bracket_ident(&self.src[self.pos..]) => {
                self.lex_quoted_ident(start, b']')
            }
            b'?' => {
                self.pos += 1;
                Ok(Token::new(TokenKind::Param, "?", start))
            }
            b'$' => {
                self.pos += 1;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
                Ok(Token::new(TokenKind::Param, self.slice(start, self.pos), start))
            }
            b':' if self.peek2().is_some_and(|c| c.is_ascii_alphabetic() || c == b'_') => {
                self.pos += 1;
                while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                    self.pos += 1;
                }
                Ok(Token::new(TokenKind::Param, self.slice(start, self.pos), start))
            }
            c if c.is_ascii_digit() => self.lex_number(start),
            b'.' if self.peek2().is_some_and(|c| c.is_ascii_digit()) => self.lex_number(start),
            c if c.is_ascii_alphabetic() || c == b'_' => {
                while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                    self.pos += 1;
                }
                Ok(Token::new(TokenKind::Word, self.slice(start, self.pos), start))
            }
            _ => self.lex_symbol(start),
        }
    }

    /// The source between two byte offsets (see the type docs for why
    /// the offsets the lexer produces are always `char` boundaries).
    fn slice(&self, start: usize, end: usize) -> &'a str {
        self.text.get(start..end).unwrap_or("")
    }

    fn lex_string(&mut self, start: usize) -> Result<Token, LexError> {
        self.pos += 1; // opening quote
        let body = self.pos;
        let mut escaped = false;
        loop {
            match self.bump() {
                Some(b'\'') if self.peek() == Some(b'\'') => {
                    self.pos += 1;
                    escaped = true;
                }
                Some(b'\'') => {
                    // Inside the body every quote is half of a `''` pair.
                    let raw = self.slice(body, self.pos - 1);
                    return Ok(if escaped {
                        Token::new(TokenKind::String, &raw.replace("''", "'"), start)
                    } else {
                        Token::new(TokenKind::String, raw, start)
                    });
                }
                Some(_) => {}
                None => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        offset: start,
                    })
                }
            }
        }
    }

    fn lex_quoted_ident(&mut self, start: usize, close: u8) -> Result<Token, LexError> {
        self.pos += 1; // opening quote
        let body = self.pos;
        loop {
            match self.bump() {
                Some(c) if c == close => {
                    let mut tok =
                        Token::new(TokenKind::QuotedIdent, self.slice(body, self.pos - 1), start);
                    // Quoted identifiers are case-sensitive; keep `normalized`
                    // equal to the literal spelling.
                    tok.normalized = tok.text.clone();
                    return Ok(tok);
                }
                Some(_) => {}
                None => {
                    return Err(LexError {
                        message: "unterminated quoted identifier".into(),
                        offset: start,
                    })
                }
            }
        }
    }

    fn lex_number(&mut self, start: usize) -> Result<Token, LexError> {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if self.peek().is_some_and(|c| c == b'e' || c == b'E') {
            let save = self.pos;
            self.pos += 1;
            if self.peek().is_some_and(|c| c == b'+' || c == b'-') {
                self.pos += 1;
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            } else {
                self.pos = save; // not an exponent after all
            }
        }
        Ok(Token::new(TokenKind::Number, self.slice(start, self.pos), start))
    }

    fn lex_symbol(&mut self, start: usize) -> Result<Token, LexError> {
        // Two-character operators first.
        let two: Option<&str> = match (self.peek(), self.peek2()) {
            (Some(b'<'), Some(b'=')) => Some("<="),
            (Some(b'>'), Some(b'=')) => Some(">="),
            (Some(b'<'), Some(b'>')) => Some("<>"),
            (Some(b'!'), Some(b'=')) => Some("!="),
            (Some(b'|'), Some(b'|')) => Some("||"),
            _ => None,
        };
        if let Some(op) = two {
            self.pos += 2;
            return Ok(Token::new(TokenKind::Symbol, op, start));
        }
        let c = self.bump().expect("symbol start");
        let s = match c {
            b'(' | b')' | b',' | b'.' | b';' | b'=' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/'
            | b'%' | b'[' | b']' => (c as char).to_string(),
            _ => {
                let found = self.slice(start, self.text.len()).chars().next().unwrap_or('?');
                return Err(LexError {
                    message: format!("unexpected character '{found}'"),
                    offset: start,
                });
            }
        };
        Ok(Token::new(TokenKind::Symbol, &s, start))
    }
}

/// Heuristic: `[` starts a bracketed identifier only if a matching `]`
/// appears before any character that could not be part of an identifier.
fn looks_like_bracket_ident(rest: &[u8]) -> bool {
    for &c in rest.iter().skip(1).take(128) {
        if c == b']' {
            return true;
        }
        if !(c.is_ascii_alphanumeric() || c == b'_' || c == b' ') {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        Lexer::tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn texts(sql: &str) -> Vec<String> {
        Lexer::tokenize(sql)
            .unwrap()
            .into_iter()
            .filter(|t| t.kind != TokenKind::Eof)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_select_tokens() {
        let toks = texts("SELECT _id FROM Messages WHERE status = ?");
        assert_eq!(toks, vec!["SELECT", "_id", "FROM", "Messages", "WHERE", "status", "=", "?"]);
    }

    #[test]
    fn keywords_are_case_insensitive_via_normalized() {
        let toks = Lexer::tokenize("select SeLeCt").unwrap();
        assert!(toks[0].is_kw("select"));
        assert!(toks[1].is_kw("select"));
    }

    #[test]
    fn numbers_ints_decimals_exponents() {
        assert_eq!(kinds("42"), vec![TokenKind::Number, TokenKind::Eof]);
        assert_eq!(texts("3.14 1e5 2.5E-3 .5"), vec!["3.14", "1e5", "2.5E-3", ".5"]);
        // 'e' not followed by digits is not an exponent.
        assert_eq!(texts("1efoo"), vec!["1", "efoo"]);
    }

    #[test]
    fn string_literals_with_escapes() {
        let toks = Lexer::tokenize("'it''s'").unwrap();
        assert_eq!(toks[0].kind, TokenKind::String);
        assert_eq!(toks[0].text, "it's");
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(Lexer::tokenize("'oops").is_err());
    }

    #[test]
    fn quoted_identifiers() {
        let toks = Lexer::tokenize("\"My Table\" `col` [weird name]").unwrap();
        assert_eq!(toks[0].kind, TokenKind::QuotedIdent);
        assert_eq!(toks[0].text, "My Table");
        assert_eq!(toks[1].text, "col");
        assert_eq!(toks[2].text, "weird name");
    }

    #[test]
    fn quoted_ident_preserves_case() {
        let toks = Lexer::tokenize("\"CamelCase\"").unwrap();
        assert_eq!(toks[0].normalized, "CamelCase");
    }

    #[test]
    fn parameters_all_styles() {
        let toks = Lexer::tokenize("? $1 :name").unwrap();
        assert!(toks[..3].iter().all(|t| t.kind == TokenKind::Param));
        assert_eq!(toks[1].text, "$1");
        assert_eq!(toks[2].text, ":name");
    }

    #[test]
    fn comments_are_skipped() {
        let toks = texts("SELECT -- inline\n a /* block\n comment */ FROM t");
        assert_eq!(toks, vec!["SELECT", "a", "FROM", "t"]);
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(Lexer::tokenize("SELECT /* oops").is_err());
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            texts("a <= b >= c <> d != e || f"),
            vec!["a", "<=", "b", ">=", "c", "<>", "d", "!=", "e", "||", "f"]
        );
    }

    #[test]
    fn offsets_point_into_source() {
        let toks = Lexer::tokenize("SELECT a").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }

    #[test]
    fn unexpected_character_errors() {
        let err = Lexer::tokenize("SELECT ^").unwrap_err();
        assert!(err.message.contains('^'));
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn non_ascii_strings_and_identifiers_keep_their_characters() {
        let toks =
            Lexer::tokenize("SELECT \"Café\", `名前` FROM t WHERE a = 'Grüße ''ok'''").unwrap();
        assert_eq!((toks[1].kind.clone(), toks[1].text.as_str()), (TokenKind::QuotedIdent, "Café"));
        assert_eq!(toks[1].normalized, "Café");
        assert_eq!(toks[3].text, "名前");
        let strings: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokenKind::String).map(|t| t.text.as_str()).collect();
        assert_eq!(strings, vec!["Grüße 'ok'"]);
    }

    #[test]
    fn unexpected_non_ascii_character_is_reported_whole() {
        let err = Lexer::tokenize("SELECT café FROM t").unwrap_err();
        assert_eq!(err.message, "unexpected character 'é'");
        assert_eq!(err.offset, 10);
    }

    #[test]
    fn escapes_next_to_multibyte_text_round_trip() {
        for (sql, text) in [("''''", "'"), ("'é'''", "é'"), ("'''é'", "'é"), ("'ü'", "ü")] {
            let toks = Lexer::tokenize(sql).unwrap();
            assert_eq!((toks[0].kind.clone(), toks[0].text.as_str()), (TokenKind::String, text));
        }
    }

    #[test]
    fn eof_token_terminates() {
        let toks = Lexer::tokenize("").unwrap();
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Eof);
    }
}
