//! [`axi4mlir_support::json`] as a reader of hostile and malformed
//! input: the nesting guard, JSON's own whitespace set, escape handling
//! and the exact syntax-error messages — and the [`Members`] reader's
//! missing / wrong-type / nested-path message for every accessor.
//!
//! [`Members`]: axi4mlir_support::json::Members

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};
use axi4mlir_support::text::MAX_DEPTH;

#[test]
fn nesting_past_the_guard_is_an_error_not_a_stack_overflow() {
    // Each of these aborted the process (stack overflow) before the
    // guard existed.
    let err = JsonValue::parse(&"[".repeat(1_000_000)).unwrap_err();
    assert_eq!(err.message, "nesting deeper than 128 levels at 1:129");
    assert!(JsonValue::parse(&"{\"k\":".repeat(1_000_000)).is_err());
    assert!(JsonValue::parse(&"[{\"k\":".repeat(500_000)).is_err());
    // Exactly MAX_DEPTH open containers is still a document.
    let nest = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
    assert!(JsonValue::parse(&nest(MAX_DEPTH + 1)).is_err());
    // The guard counts nesting, not containers: siblings are free.
    let wide = format!("[{}[]]", "[],".repeat(10_000));
    assert_eq!(JsonValue::parse(&wide).unwrap().as_array().unwrap().len(), 10_001);
}

#[test]
fn only_the_four_ascii_whitespace_bytes_separate_tokens() {
    assert_eq!(JsonValue::parse(" \t\r\n[ 1 ,\n2 ]\n").unwrap().as_array().unwrap().len(), 2);
    for space in ['\u{a0}', '\u{2003}', '\u{3000}', '\u{b}'] {
        let err = JsonValue::parse(&format!("[1,{space}2]")).unwrap_err();
        assert!(err.message.contains("unexpected character"), "{space:?}: {}", err.message);
        // Inside a string the same characters are data.
        let text = format!("\"a{space}b\"");
        assert_eq!(JsonValue::parse(&text).unwrap().as_str(), Some(&text[1..text.len() - 1]));
    }
}

#[test]
fn escapes_and_their_errors_keep_their_messages() {
    let v = JsonValue::parse(r#""\"\\\/\b\f\n\r\t\u00e9\ud800""#).unwrap();
    assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{fffd}"));
    for (text, message) in [
        ("\"abc", "unterminated string at 1:5"),
        ("\"a\\", "unterminated escape at 1:4"),
        ("\"\\q\"", "unknown escape `\\q` at 1:4"),
        ("\"\\u12", "truncated \\u escape at 1:4"),
        ("\"\\u12é4\"", "invalid \\u escape at 1:4"),
        ("\"\\uzzzz\"", "invalid \\u escape at 1:4"),
        ("{1: 2}", "expected a string object key at 1:2"),
        ("{\"a\" 1}", "expected `:` at 1:6"),
        ("{\"a\": 1 \"b\"}", "expected `,` or `}` in object at 1:9"),
        ("[1 2]", "expected `,` or `]` in array at 1:4"),
        ("tru", "expected `true` at 1:1"),
        ("1-2", "invalid number `1-2` at 1:4"),
        ("", "unexpected end of input at 1:1"),
    ] {
        assert_eq!(JsonValue::parse(text).unwrap_err().message, message, "{text:?}");
    }
}

fn sample_members() -> JsonValue {
    JsonValue::parse(
        r#"{"s": "x", "n": 7, "neg": -7, "f": 2.5, "b": true, "nil": null,
            "big": 4294967296, "xs": ["a", "b"], "mixed": ["a", 1], "ints": [1, -2],
            "pairs": [["w1", 3], ["w2", 4]], "bad_pairs": [["w1", 3, 0]],
            "o": {"inner": {"deep": "no"}}}"#,
    )
    .unwrap()
}

#[test]
fn the_member_reader_reads_every_type() {
    let doc = sample_members();
    let m = doc.members("ctx").unwrap();
    assert_eq!(m.str("s"), Ok("x"));
    assert_eq!(m.u64("n"), Ok(7));
    assert_eq!(m.i64("neg"), Ok(-7));
    assert_eq!(m.f64("f"), Ok(2.5));
    assert_eq!(m.f64("n"), Ok(7.0), "integers read as numbers");
    assert_eq!(m.bool("b"), Ok(true));
    assert_eq!(m.uint::<u32>("n"), Ok(7u32));
    assert_eq!(m.uint::<usize>("big"), Ok(1usize << 32));
    assert_eq!(m.array("xs").unwrap().len(), 2);
    assert_eq!(m.str_list("xs").unwrap(), ["a", "b"]);
    assert_eq!(m.i64_list("ints").unwrap(), [1, -2]);
    let pairs = m.pairs("pairs", JsonValue::as_u64).unwrap();
    assert_eq!(pairs, [("w1".to_owned(), 3), ("w2".to_owned(), 4)]);
    assert_eq!(JsonValue::pairs(pairs), *m.require("pairs").unwrap(), "pairs round-trip");
    assert_eq!(m.object("o").unwrap().object("inner").unwrap().str("deep"), Ok("no"));
    let names: Vec<&str> = m.object("o").unwrap().iter().map(|(name, _)| name).collect();
    assert_eq!(names, ["inner"]);
    // Optional accessors: absent is `None` / empty, present is read.
    assert_eq!(m.opt("absent", Members::str), Ok(None));
    assert_eq!(m.opt("s", Members::str), Ok(Some("x")));
    assert_eq!(m.opt("absent", Members::u64), Ok(None));
    assert_eq!(m.opt("neg", Members::i64), Ok(Some(-7)));
    assert_eq!(m.opt("absent", Members::bool), Ok(None));
    assert!(m.opt("absent", Members::object).unwrap().is_none());
    assert_eq!(m.opt("o", Members::object).unwrap().unwrap().iter().count(), 1);
    assert_eq!(m.opt("absent", Members::str_list), Ok(None));
    assert_eq!(m.opt("absent", Members::i64_list), Ok(None));
    assert_eq!(m.opt("absent", |m, name| m.pairs(name, JsonValue::as_f64)), Ok(None));
    assert_eq!(m.get("nil"), Some(&JsonValue::Null));
}

#[test]
fn the_member_reader_blames_context_and_path() {
    let doc = sample_members();
    let m = doc.members("ctx").unwrap();
    let message = |err: Diagnostic| err.message;
    // Missing: every required accessor words it the same way.
    assert_eq!(message(m.str("absent").unwrap_err()), "ctx: missing `absent`");
    assert_eq!(message(m.require("absent").unwrap_err()), "ctx: missing `absent`");
    assert_eq!(message(m.object("absent").unwrap_err()), "ctx: missing `absent`");
    assert_eq!(message(m.pairs("absent", JsonValue::as_u64).unwrap_err()), "ctx: missing `absent`");
    // Wrong type: one wording per accessor, required or optional.
    for (err, must) in [
        (m.str("n").unwrap_err(), "`n` must be a string"),
        (m.opt("n", Members::str).unwrap_err(), "`n` must be a string"),
        (m.u64("neg").unwrap_err(), "`neg` must be a non-negative integer"),
        (m.opt("s", Members::u64).unwrap_err(), "`s` must be a non-negative integer"),
        (m.uint::<u32>("big").unwrap_err(), "`big` must fit in 32 bits"),
        (m.uint::<usize>("neg").unwrap_err(), "`neg` must be a non-negative integer"),
        (m.i64("f").unwrap_err(), "`f` must be an integer"),
        (m.opt("s", Members::i64).unwrap_err(), "`s` must be an integer"),
        (m.f64("s").unwrap_err(), "`s` must be a number"),
        (m.bool("n").unwrap_err(), "`n` must be a boolean"),
        (m.opt("nil", Members::bool).unwrap_err(), "`nil` must be a boolean"),
        (m.array("o").unwrap_err(), "`o` must be an array"),
        (m.object("xs").unwrap_err(), "`xs` must be an object"),
        (m.opt("n", Members::object).unwrap_err(), "`n` must be an object"),
        (m.str_list("mixed").unwrap_err(), "`mixed` must be an array of strings"),
        (m.opt("s", Members::str_list).unwrap_err(), "`s` must be an array of strings"),
        (m.i64_list("xs").unwrap_err(), "`xs` must be an array of integers"),
        (m.opt("n", Members::i64_list).unwrap_err(), "`n` must be an array of integers"),
        (
            m.pairs("bad_pairs", JsonValue::as_u64).unwrap_err(),
            "`bad_pairs` must hold [name, number] pairs",
        ),
        (
            m.pairs("pairs", JsonValue::as_bool).unwrap_err(),
            "`pairs` must hold [name, number] pairs",
        ),
        (m.invalid("n", "must be odd"), "`n` must be odd"),
    ] {
        assert_eq!(err.message, format!("ctx: {must}"));
    }
    // Nested objects extend the path, dot by dot.
    let inner = m.object("o").unwrap().object("inner").unwrap();
    assert_eq!(
        message(inner.u64("deep").unwrap_err()),
        "ctx: `o.inner.deep` must be a non-negative integer"
    );
    assert_eq!(message(inner.str("gone").unwrap_err()), "ctx: missing `o.inner.gone`");
    assert_eq!(
        message(m.object("o").unwrap().object("inner.x").unwrap_err()),
        "ctx: missing `o.inner.x`"
    );
    // A non-object has no members to read.
    let err = JsonValue::Int(5).members("ctx").unwrap_err();
    assert_eq!(err.message, "ctx: expected an object, found number");
}
