//! SQL rendered many ways: one statement AST, spelled with literal values
//! and kinds, whitespace and comments drawn from a render configuration.
//! Every rendering of one [`Query`] has the same shape, so a memo keyed by
//! shape must featurize them all alike; the fields a rendering may *not*
//! change (identifier case and quoting, `LIMIT`/`OFFSET` counts, IN-list
//! arity) are public, so a test can flip one and expect a new shape.

use proptest::prelude::*;

/// An identifier as the statement spells it.
#[derive(Debug, Clone)]
pub struct Ident {
    /// The name as written before case and quoting.
    pub name: &'static str,
    /// Spelled in upper case.
    pub upper: bool,
    /// Spelled in double quotes.
    pub quoted: bool,
}

/// One WHERE conjunct; literal slots are filled at render time.
#[derive(Debug, Clone)]
pub enum Pred {
    /// `col op literal`.
    Cmp(Ident, &'static str),
    /// `col IN (literal, …)` with this many literals.
    In(Ident, usize),
    /// `col BETWEEN literal AND literal`.
    Between(Ident),
    /// `col LIKE literal`.
    Like(Ident),
    /// `(a = literal OR b = literal)`.
    Or(Ident, Ident),
}

/// The statement AST: everything a rendering may not change.
#[derive(Debug, Clone)]
pub struct Query {
    /// Projected columns.
    pub columns: Vec<Ident>,
    /// The one table.
    pub table: Ident,
    /// WHERE conjuncts.
    pub preds: Vec<Pred>,
    /// `LIMIT count [OFFSET offset]`.
    pub limit: Option<(u64, Option<u64>)>,
}

/// How one rendering spells what is not the statement's shape: the seed
/// of its literal and separator draws, and whether separators may carry
/// comments.
#[derive(Debug, Clone, Copy)]
pub struct RenderCfg {
    /// Seed of the literal and separator draws.
    pub seed: u64,
    /// Whether separators may carry comments.
    pub comments: bool,
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
pub struct Draws(pub u64);

impl Draws {
    /// The next draw. (An endless stream, so not an `Iterator`, whose
    /// `next` would wrap every draw in an `Option`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
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

/// Render `q` with the spellings `cfg` draws.
pub fn render(q: &Query, cfg: RenderCfg) -> String {
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

/// Identifiers from a small pool, in any case and quoting.
fn arb_ident() -> impl Strategy<Value = Ident> {
    (
        prop_oneof![Just("a"), Just("status"), Just("Owner"), Just("x_1")],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(name, upper, quoted)| Ident { name, upper, quoted })
}

/// Any WHERE conjunct.
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

/// A statement: 1–3 columns, 0–3 conjuncts, maybe a LIMIT.
pub fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(arb_ident(), 1..4),
        arb_ident(),
        prop::collection::vec(arb_pred(), 0..4),
        prop::option::of((1u64..1000, prop::option::of(0u64..1000))),
    )
        .prop_map(|(columns, table, preds, limit)| Query { columns, table, preds, limit })
}

/// Any render configuration.
pub fn arb_cfg() -> impl Strategy<Value = RenderCfg> {
    (any::<u64>(), any::<bool>()).prop_map(|(seed, comments)| RenderCfg { seed, comments })
}
