//! Property test for [`axi4mlir_support::json`]: printing and parsing are
//! inverses. For every document the module can represent — non-ASCII
//! strings, every escape the writer emits, integers at the `u64`/`i64`
//! extremes, shortest-round-trip floats, and nesting all the way up to
//! the parser's guard — `parse(compact(v)) == v == parse(pretty(v))`.

use axi4mlir_support::json::JsonValue;
use axi4mlir_support::text::MAX_DEPTH;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// Strings built from fragments that cover multi-byte UTF-8, each
/// character the writer escapes (`"`, `\`, the named controls, a
/// `\u00XX` control) and the multi-byte spaces JSON does *not* skip.
fn arb_string() -> BoxedStrategy<String> {
    let fragments: Vec<String> = [
        "ascii",
        "é",
        "日本語",
        "🚀",
        "\"",
        "\\",
        "/",
        "\u{8}",
        "\u{c}",
        "\n",
        "\r",
        "\t",
        "\u{1}",
        "\u{1f}",
        "\u{a0}\u{2003}\u{3000}",
        "",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    vec(select(fragments), 0..6).prop_map(|parts| parts.concat()).boxed()
}

fn arb_leaf() -> BoxedStrategy<JsonValue> {
    let extremes = vec![
        i128::from(u64::MAX),
        i128::from(i64::MIN),
        i128::from(i64::MAX),
        0,
        -1,
        i128::from(u64::MAX) + 1,
    ];
    prop_oneof![
        Just(JsonValue::Null),
        (0u64..2).prop_map(|b| JsonValue::Bool(b == 1)),
        select(extremes).prop_map(JsonValue::Int),
        any::<i64>().prop_map(|n| JsonValue::Int(i128::from(n))),
        // Finite floats of every magnitude, integral ones included.
        (any::<i64>(), 0u64..40).prop_map(|(mantissa, shift)| {
            JsonValue::Float(mantissa as f64 / (1u64 << shift) as f64)
        }),
        arb_string().prop_map(JsonValue::Str),
    ]
    .boxed()
}

/// A small bushy value: leaves, or one container level over leaves.
fn arb_bush() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        arb_leaf(),
        vec(arb_leaf(), 0..4).prop_map(JsonValue::Array),
        vec((arb_string(), arb_leaf()), 0..4).prop_map(JsonValue::object),
    ]
    .boxed()
}

/// A bush wrapped in `depth` more containers — alternating by the bits
/// of `shape` between a two-element array and a one-member object — so
/// documents reach exactly the nesting guard and no deeper.
fn arb_document() -> BoxedStrategy<JsonValue> {
    (arb_bush(), 0usize..MAX_DEPTH, any::<u64>(), arb_string(), arb_leaf())
        .prop_map(|(bush, depth, shape, key, sibling)| {
            (0..depth).fold(bush, |inner, level| {
                if (shape >> (level % 64)) & 1 == 0 {
                    JsonValue::Array(vec![sibling.clone(), inner])
                } else {
                    JsonValue::object([(key.clone(), inner)])
                }
            })
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_then_parse_is_the_identity(document in arb_document()) {
        let compact = document.to_json_string();
        prop_assert!(!compact.contains('\n'), "compact output is one line");
        prop_assert_eq!(&JsonValue::parse(&compact).unwrap(), &document);
        prop_assert_eq!(&JsonValue::parse(&document.to_json_pretty()).unwrap(), &document);
    }
}

/// The deepest document the generator can emit sits exactly at the
/// guard: one more level is refused.
#[test]
fn the_generator_reaches_the_guard() {
    let at_guard = (0..MAX_DEPTH).fold(JsonValue::Null, |inner, _| JsonValue::Array(vec![inner]));
    assert_eq!(JsonValue::parse(&at_guard.to_json_pretty()).unwrap(), at_guard);
    let past_guard = JsonValue::Array(vec![at_guard]);
    assert!(JsonValue::parse(&past_guard.to_json_string()).is_err());
}
