//! Region tracking: which parts of which files are *library code*.
//!
//! The workspace contracts bind production code only — tests exercise
//! failure paths on purpose (`unwrap()` a fixture, `std::fs::write`
//! corruption into a store). Two layers decide what counts:
//!
//! * **File classification** ([`FileClass`], [`classify`]) — by path:
//!   `tests/`, `benches/`, and `examples/` trees are test/harness code,
//!   and so is `crates/testkit/` (the dev-only crate the suites share);
//!   `src/bin/` and `src/main.rs` are CLI binaries (their stdout *is*
//!   their interface); `crates/compat/` holds vendored stand-ins for
//!   external crates (not ours to lint); everything else under a `src/`
//!   tree is library code.
//! * **`#[cfg(test)]` spans** ([`test_spans`]) — inline test modules
//!   inside library files, tracked by brace matching over the masked
//!   source so spans survive nested modules, and strings or comments
//!   containing braces.

use crate::lexer::Masked;
use std::path::Path;

/// What kind of code a file holds, decided from its workspace-relative
/// path (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code — the contracts apply in full.
    Library,
    /// A binary entry point (`src/bin/`, `src/main.rs`): storage and
    /// panic contracts apply, but printing to stdout is its job.
    Binary,
    /// `tests/`, `benches/`, `examples/`, and the dev-only
    /// `crates/testkit/`: exempt from the contracts.
    Test,
    /// `crates/compat/`: vendored stand-ins for external crates, not
    /// linted.
    Vendored,
}

/// Classify a file by its path **relative to the workspace root**.
pub fn classify(rel_path: &Path) -> FileClass {
    let p = rel_path.to_string_lossy().replace('\\', "/");
    if p.starts_with("crates/compat/") {
        return FileClass::Vendored;
    }
    let in_dir = |dir: &str| p.starts_with(&format!("{dir}/")) || p.contains(&format!("/{dir}/"));
    if in_dir("tests")
        || in_dir("benches")
        || in_dir("examples")
        || p.starts_with("crates/testkit/")
    {
        return FileClass::Test;
    }
    if p.contains("/src/bin/") || p.ends_with("src/main.rs") {
        return FileClass::Binary;
    }
    FileClass::Library
}

/// A half-open byte range `[start, end)` of the masked source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the span.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// Does the span contain byte offset `pos`?
    pub fn contains(&self, pos: usize) -> bool {
        self.start <= pos && pos < self.end
    }
}

/// Byte spans of every `#[cfg(test)]`-gated item in the masked source:
/// from the attribute's `#` through the item's closing brace. An
/// out-of-line gated item (`#[cfg(test)] mod tests;`) contributes no
/// span — its body lives in another file, classified by path.
///
/// The predicate is deliberately broad: any `#[cfg(…)]` whose argument
/// list mentions `test` as a word gates test-only code (`test`,
/// `all(test, …)`, `any(test, …)`). `#[cfg_attr(…)]` does **not** match —
/// it configures attributes, not compilation.
pub fn test_spans(masked: &Masked) -> Vec<Span> {
    let code = masked.code.as_bytes();
    let mut spans: Vec<Span> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i] != b'#' {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        j = skip_ws(code, j);
        if code.get(j) != Some(&b'[') {
            i += 1;
            continue;
        }
        j = skip_ws(code, j + 1);
        if !ident_at(code, j, "cfg") {
            i += 1;
            continue;
        }
        j = skip_ws(code, j + 3);
        if code.get(j) != Some(&b'(') {
            i += 1; // `cfg_attr` and friends fall out here
            continue;
        }
        let Some(args_end) = match_close(code, j, b'(', b')') else { break };
        let args = &masked.code[j + 1..args_end];
        let gates_tests = has_word(args, "test");
        // Move past the attribute's closing `]`.
        let Some(attr_end) = match_close(code, skip_ws(code, attr_start + 1), b'[', b']') else {
            break;
        };
        i = attr_end + 1;
        if !gates_tests {
            continue;
        }
        // The gated item runs to its closing brace; a `;` first means an
        // out-of-line item with no body here. Intervening attributes
        // (`#[allow(…)]` under the cfg) have their own brackets — skip
        // any bracketed group while looking for the item's `{`.
        let mut k = i;
        loop {
            k = skip_ws(code, k);
            match code.get(k) {
                None => break,
                Some(b';') => break,
                Some(b'{') => {
                    if let Some(close) = match_close(code, k, b'{', b'}') {
                        spans.push(Span { start: attr_start, end: close + 1 });
                        i = close + 1;
                    }
                    break;
                }
                Some(b'#') => {
                    let b = skip_ws(code, k + 1);
                    match code.get(b) {
                        Some(&b'[') => match match_close(code, b, b'[', b']') {
                            Some(close) => k = close + 1,
                            None => break,
                        },
                        _ => break,
                    }
                }
                Some(_) => k += 1,
            }
        }
    }
    spans
}

/// Byte spans of every `fn` **body** (brace to matching brace) in the
/// masked source, innermost-resolvable by picking the smallest span
/// containing an offset. Trait method declarations (`fn f();`) have no
/// body and contribute nothing.
pub fn fn_spans(masked: &Masked) -> Vec<Span> {
    let code = masked.code.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 2 <= code.len() {
        if !ident_at(code, i, "fn") {
            i += 1;
            continue;
        }
        // From the signature, find the body's `{` or a `;` (no body).
        // Parens and angle brackets in the signature may nest; braces
        // cannot appear before the body's own `{`.
        let mut j = i + 2;
        let mut body = None;
        while j < code.len() {
            match code[j] {
                b'{' => {
                    body = Some(j);
                    break;
                }
                b';' => break,
                b'(' => match match_close(code, j, b'(', b')') {
                    Some(close) => j = close + 1,
                    None => break,
                },
                _ => j += 1,
            }
        }
        if let Some(open) = body {
            if let Some(close) = match_close(code, open, b'{', b'}') {
                spans.push(Span { start: open, end: close + 1 });
            }
            i = open + 1; // nested fns inside the body still get found
        } else {
            i = j + 1;
        }
    }
    spans
}

/// The smallest (innermost) fn-body span containing `pos`.
pub fn innermost_fn(spans: &[Span], pos: usize) -> Option<Span> {
    spans.iter().filter(|s| s.contains(pos)).min_by_key(|s| s.end - s.start).copied()
}

fn skip_ws(code: &[u8], mut i: usize) -> usize {
    while i < code.len() && (code[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

/// Is the exact identifier `word` at offset `i` (word boundaries on both
/// sides)?
fn ident_at(code: &[u8], i: usize, word: &str) -> bool {
    let w = word.as_bytes();
    if i + w.len() > code.len() || &code[i..i + w.len()] != w {
        return false;
    }
    let before_ok = i == 0 || !is_word(code[i - 1]);
    let after_ok = i + w.len() == code.len() || !is_word(code[i + w.len()]);
    before_ok && after_ok
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does `text` contain `word` with word boundaries?
fn has_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(off) = text[from..].find(word) {
        let at = from + off;
        let before_ok = at == 0 || !is_word(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end == bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Offset of the bracket matching `code[open]` (which must be `open_b`),
/// or `None` when unbalanced.
fn match_close(code: &[u8], open: usize, open_b: u8, close_b: u8) -> Option<usize> {
    debug_assert_eq!(code.get(open), Some(&open_b));
    let mut depth = 0usize;
    for (off, &b) in code[open..].iter().enumerate() {
        if b == open_b {
            depth += 1;
        } else if b == close_b {
            depth -= 1;
            if depth == 0 {
                return Some(open + off);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask;
    use std::path::PathBuf;

    fn spans_of(src: &str) -> (Masked, Vec<Span>) {
        let m = mask(src);
        let s = test_spans(&m);
        (m, s)
    }

    #[test]
    fn classification_by_path() {
        let c = |p: &str| classify(&PathBuf::from(p));
        assert_eq!(c("src/engine.rs"), FileClass::Library);
        assert_eq!(c("crates/cluster/src/spill.rs"), FileClass::Library);
        assert_eq!(c("tests/engine_recovery.rs"), FileClass::Test);
        assert_eq!(c("crates/cluster/tests/spill_format.rs"), FileClass::Test);
        assert_eq!(c("crates/bench/benches/spill.rs"), FileClass::Test);
        assert_eq!(c("examples/quickstart.rs"), FileClass::Test);
        assert_eq!(c("crates/testkit/src/vfs.rs"), FileClass::Test);
        assert_eq!(c("crates/bench/src/bin/repro.rs"), FileClass::Binary);
        assert_eq!(c("crates/lint/src/main.rs"), FileClass::Binary);
        assert_eq!(c("crates/compat/rand/src/lib.rs"), FileClass::Vendored);
    }

    #[test]
    fn cfg_test_module_span() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn more() {}\n";
        let (m, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        let unwrap_pos = m.code.find("unwrap").unwrap();
        assert!(spans[0].contains(unwrap_pos));
        let more_pos = m.code.find("more").unwrap();
        assert!(!spans[0].contains(more_pos));
    }

    #[test]
    fn cfg_test_spans_nested_modules() {
        let src = "#[cfg(test)]\nmod outer {\n    mod inner {\n        mod deepest { fn t() {} }\n    }\n}\nfn lib() {}\n";
        let (m, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        let deepest = m.code.find("deepest").unwrap();
        assert!(spans[0].contains(deepest));
        assert!(!spans[0].contains(m.code.find("lib").unwrap()));
    }

    #[test]
    fn cfg_any_test_counts_cfg_attr_does_not() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod helpers { fn h() {} }\n#[cfg_attr(test, derive(Debug))]\nstruct S { f: u8 }\n";
        let (m, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].contains(m.code.find("h()").unwrap()));
        assert!(!spans[0].contains(m.code.find("struct S").unwrap()));
    }

    #[test]
    fn cfg_test_with_intervening_attribute() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() {} }\nfn lib() {}\n";
        let (m, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].contains(m.code.find("t()").unwrap()));
        assert!(!spans[0].contains(m.code.find("lib").unwrap()));
    }

    #[test]
    fn out_of_line_cfg_test_module_has_no_span() {
        let (_, spans) = spans_of("#[cfg(test)]\nmod tests;\nfn lib() {}\n");
        assert!(spans.is_empty());
    }

    #[test]
    fn cfg_feature_is_not_a_test_span() {
        let (_, spans) = spans_of("#[cfg(feature = \"testing\")]\nmod x { }\n");
        // `testing` is not the word `test`.
        assert!(spans.is_empty());
    }

    #[test]
    fn braces_in_strings_do_not_break_span_tracking() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}}}{\";\n    fn t() {}\n}\nfn lib() {}\n";
        let (m, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert!(!spans[0].contains(m.code.find("lib").unwrap()));
    }

    #[test]
    fn fn_spans_nest_and_innermost_wins() {
        let src = "fn outer() {\n    fn inner() { target(); }\n    other();\n}\n";
        let m = mask(src);
        let spans = fn_spans(&m);
        assert_eq!(spans.len(), 2);
        let target = m.code.find("target").unwrap();
        let inner = innermost_fn(&spans, target).unwrap();
        let outer = innermost_fn(&spans, m.code.find("other").unwrap()).unwrap();
        assert!(inner.end - inner.start < outer.end - outer.start);
    }

    #[test]
    fn trait_decl_without_body_is_skipped() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) { body(); }\n}\n";
        let m = mask(src);
        let spans = fn_spans(&m);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].contains(m.code.find("body").unwrap()));
    }
}
