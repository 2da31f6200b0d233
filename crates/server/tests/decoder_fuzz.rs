//! Fixed-seed fuzz of the wire decoders: `json::parse` and
//! `protocol::parse_frame` over mutations of valid frames. Every input
//! must come back as a value or a typed error — never a panic. The
//! mutations are byte flips, truncation at every length, nesting on both
//! sides of `json::MAX_DEPTH`, numbers too large or too small for an
//! `f64`, and `\u` escapes that leave a surrogate alone, reversed or cut
//! short. The seed and the budget are fixed, so every run replays the
//! same inputs; an input that once crashed a decoder stays in
//! `REGRESSIONS`.

use logr_server::json::{self, MAX_DEPTH};
use logr_server::protocol::parse_frame;
use logr_testkit::sql_gen::Draws;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid frames covering every decoder path: each op family, string
/// escapes, nested predicates, source objects and numbers.
const FRAMES: &[&str] = &[
    r#"{"id":1,"op":"ping"}"#,
    r#"{"id":"x","op":"shutdown"}"#,
    r#"{"op":"stats"}"#,
    r#"{"id":2,"op":"ingest","tenant":"a","sql":"SELECT x FROM t WHERE y = 'it''s'"}"#,
    r#"{"op":"ingest","tenant":"svc","records":["a b","c\td\n","é😀 \"q\" \\"]}"#,
    r#"{"op":"ingest","tenant":"a","statements":["SELECT a FROM t","SELECT b FROM u LIMIT 5"]}"#,
    r#"{"op":"flush","tenant":"svc","source":{"kind":"template","depth":3,"similarity":0.7}}"#,
    r#"{"op":"checkpoint","tenant":"a","source":"sql"}"#,
    r#"{"op":"top_k","tenant":"a","class":"where","k":3}"#,
    r#"{"op":"frequency","tenant":"a","pred":{"and":[{"table":"t"},{"not":{"column":"x"}}]}}"#,
    r#"{"op":"conditional","tenant":"a","given":{"joins":["t","u"]},"pred":{"or":[{"param":"ip"},{"template":"<*> up"}]}}"#,
    r#"{"op":"drift","tenant":"a","tolerance":1.5e-3}"#,
    r#"{"op":"advise","tenant":"a","advisor":"index","min_share":0.25}"#,
    r#"[1,-2.5e+10,true,false,null,{"k":[{},[]]},"\/"]"#,
];

/// Inputs that once crashed a decoder, kept as regression cases.
const REGRESSIONS: &[&str] = &[];

/// Run both decoders on `input`; `Err` carries the input when either
/// panicked.
fn decode(input: &str) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = json::parse(input);
        let _ = parse_frame(input);
    }))
    .map_err(|_| input.chars().take(200).collect())
}

/// Every mutation, in a fixed order.
fn inputs() -> Vec<String> {
    let mut out: Vec<String> = FRAMES.iter().chain(REGRESSIONS).map(|s| s.to_string()).collect();
    let mut draws = Draws(0x0f0f_5eed);

    // Byte flips: one to four bits anywhere, decoded lossily so the
    // decoders see a `&str` (a flip into invalid UTF-8 becomes U+FFFD).
    for _ in 0..5000 {
        let frame = FRAMES[(draws.next() % FRAMES.len() as u64) as usize];
        let mut bytes = frame.as_bytes().to_vec();
        for _ in 0..1 + draws.next() % 4 {
            let at = (draws.next() % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << (draws.next() % 8);
        }
        out.push(String::from_utf8_lossy(&bytes).into_owned());
    }

    // Truncation at every length (every char boundary).
    for frame in FRAMES {
        out.extend(frame.char_indices().map(|(at, _)| frame[..at].to_string()));
    }

    // Nesting around the depth cap, closed and unclosed, arrays and
    // objects, plus far past it.
    for depth in (MAX_DEPTH - 2..=MAX_DEPTH + 2).chain([1_000, 100_000]) {
        out.push(format!("{}{}", "[".repeat(depth), "]".repeat(depth)));
        out.push("[".repeat(depth));
        out.push(format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth)));
        out.push(format!(
            r#"{{"op":"frequency","tenant":"a","pred":{}{{"table":"t"}}{}}}"#,
            "{\"not\":".repeat(depth),
            "}".repeat(depth)
        ));
    }

    // Numbers out of `f64` range, or too long for any type.
    let long_digits = "9".repeat(400);
    for number in [
        "1e400".to_string(),
        "-1e400".to_string(),
        "1e-400".to_string(),
        long_digits.clone(),
        format!("-{long_digits}.{long_digits}e{long_digits}"),
        "18446744073709551616".to_string(),
        "-0".to_string(),
        "1.".to_string(),
        ".5".to_string(),
        "01".to_string(),
        "1e".to_string(),
        "-".to_string(),
        "NaN".to_string(),
        "Infinity".to_string(),
    ] {
        out.push(number.clone());
        out.push(format!(r#"{{"id":{number},"op":"ping"}}"#));
        out.push(format!(r#"{{"op":"top_k","tenant":"a","class":"where","k":{number}}}"#));
        out.push(format!(r#"{{"op":"drift","tenant":"a","tolerance":{number}}}"#));
    }

    // Surrogate escapes: lone, reversed, doubled, cut short, malformed.
    for escape in [
        r"\ud800",
        r"\udc00",
        r"\udc00\ud800",
        r"\ud800\ud800",
        r"\ud800A",
        r"\ud800x",
        r"😀",
        r"\ud8",
        r"\u12g4",
        r"\u",
        r"\ud800\",
        r"\ud800\u",
    ] {
        out.push(format!("\"{escape}\""));
        out.push(format!(r#"{{"op":"ingest","tenant":"a","sql":"SELECT {escape} FROM t"}}"#));
        out.push(format!(r#"{{"op":"ingest","tenant":"{escape}","records":["{escape}"]}}"#));
    }
    out
}

#[test]
fn every_mutated_frame_decodes_to_a_value_or_a_typed_error() {
    let inputs = inputs();
    let crashed: Vec<String> = inputs.iter().filter_map(|input| decode(input).err()).collect();
    assert!(
        crashed.is_empty(),
        "{} of {} inputs panicked a decoder; the first: {:?}",
        crashed.len(),
        inputs.len(),
        crashed.first()
    );
}
