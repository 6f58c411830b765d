//! Parser robustness: the textual-IR parser must return `Err` — never
//! panic — on arbitrary input, and must be the exact inverse of the
//! printer on every module the IR layer can construct. The byte-level
//! cases exercise the lexers' multi-byte handling (Unicode whitespace
//! like U+00A0 used to split a codepoint and panic on the next slice).

use proptest::prelude::*;
use proptest::TestRng;

use axi4mlir::ir::affine::AffineMap;
use axi4mlir::ir::attrs::{Attribute, OpcodeFlow, OpcodeMap};
use axi4mlir::ir::builder::OpBuilder;
use axi4mlir::ir::ops::Module;
use axi4mlir::ir::parser::parse_module;
use axi4mlir::ir::printer::print_op;
use axi4mlir::ir::types::{MemRefType, Type};
use axi4mlir::support::json::JsonValue;

// ---------------------------------------------------------------------
// Random-module generator (seeded, deterministic)
// ---------------------------------------------------------------------

fn random_type(rng: &mut TestRng) -> Type {
    match rng.below(4) {
        0 => Type::index(),
        1 => Type::Int(32),
        2 => Type::Float(32),
        _ => Type::MemRef(MemRefType::contiguous(
            vec![1 + rng.below(8) as i64, 1 + rng.below(8) as i64],
            Type::Int(32),
        )),
    }
}

fn random_attr(rng: &mut TestRng, depth: u32) -> Attribute {
    match rng.below(if depth > 0 { 6 } else { 4 }) {
        0 => Attribute::Int(rng.below(2000) as i64 - 1000),
        1 => Attribute::Bool(rng.below(2) == 0),
        2 => Attribute::Str(format!("s{}", rng.below(100))),
        3 => Attribute::Type(random_type(rng)),
        4 => Attribute::Array((0..rng.below(4)).map(|_| random_attr(rng, depth - 1)).collect()),
        _ => Attribute::Dict(
            (0..rng.below(4)).map(|i| (format!("k{i}"), random_attr(rng, depth - 1))).collect(),
        ),
    }
}

fn random_attrs(rng: &mut TestRng) -> Vec<(&'static str, Attribute)> {
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    (0..rng.below(4) as usize).map(|i| (NAMES[i], random_attr(rng, 2))).collect()
}

/// Appends a random run of ops at the builder's insertion point. `values`
/// holds the SSA names in scope; region ops get a child scope that sees
/// them plus its own block arguments, matching the parser's environment.
fn random_ops(
    b: &mut OpBuilder,
    rng: &mut TestRng,
    values: &mut Vec<axi4mlir::ir::ops::ValueId>,
    depth: u32,
) {
    for _ in 0..1 + rng.below(4) {
        let operands: Vec<_> = if values.is_empty() {
            Vec::new()
        } else {
            (0..rng.below(3) as usize)
                .map(|_| values[rng.below(values.len() as u64) as usize])
                .collect()
        };
        if depth > 0 && rng.below(4) == 0 {
            let arg_types: Vec<Type> = (0..rng.below(3)).map(|_| random_type(rng)).collect();
            let attrs = random_attrs(rng);
            let (_, inner) = b.insert_region_op("t.region", operands, vec![], attrs, arg_types);
            let outer = b.block();
            let mut scope = values.clone();
            let args = b.ctx_ref().block(inner).args.clone();
            scope.extend(args);
            b.set_insertion_end(inner);
            random_ops(b, rng, &mut scope, depth - 1);
            b.set_insertion_end(outer);
        } else {
            let result_types: Vec<Type> = (0..rng.below(3)).map(|_| random_type(rng)).collect();
            let attrs = random_attrs(rng);
            let n = result_types.len();
            let op = b.insert_op("t.op", operands, result_types, attrs);
            for i in 0..n {
                let v = b.ctx().result(op, i);
                values.push(v);
            }
        }
    }
}

fn random_module(seed: u64) -> Module {
    let mut rng = TestRng::new(seed);
    let mut module = Module::new();
    let body = module.body();
    let mut b = OpBuilder::at_end(&mut module.ctx, body);
    let mut values = Vec::new();
    random_ops(&mut b, &mut rng, &mut values, 3);
    module
}

// ---------------------------------------------------------------------
// Grammar-level tokenizer (for structured mutations)
// ---------------------------------------------------------------------

/// Splits printed IR into grammar-level tokens: string literals (with
/// escapes), identifier/number/sigil runs, whitespace runs, and
/// single-character punctuation. Lossless — `tokens.concat()` is the
/// input — so mutations operate on grammar units instead of bytes:
/// deleting a token removes a whole string literal or SSA name, not one
/// byte of its middle.
fn tokenize(text: &str) -> Vec<String> {
    fn word_char(c: char) -> bool {
        c.is_alphanumeric() || matches!(c, '.' | '_' | '-' | '%' | '^' | '#' | '@' | '$')
    }
    let mut tokens = Vec::new();
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        let end = if c == '"' {
            let mut end = rest.len();
            let mut escaped = false;
            for (i, ch) in rest.char_indices().skip(1) {
                match ch {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => {
                        end = i + 1;
                        break;
                    }
                    _ => {}
                }
            }
            end
        } else {
            let class = if c.is_whitespace() { char::is_whitespace } else { word_char };
            if class(c) {
                rest.char_indices().find(|&(_, ch)| !class(ch)).map_or(rest.len(), |(i, _)| i)
            } else {
                c.len_utf8()
            }
        };
        tokens.push(rest[..end].to_owned());
        rest = &rest[end..];
    }
    tokens
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse → print is a fixpoint for arbitrary generated
    /// modules: random op/region nesting, every attribute kind the
    /// generator covers, every scalar and memref result type.
    #[test]
    fn random_modules_roundtrip(seed in any::<u64>()) {
        let module = random_module(seed);
        let printed = print_op(&module.ctx, module.top());
        let reparsed = parse_module(&printed)
            .unwrap_or_else(|d| panic!("printed module must parse: {}\n{printed}", d.message));
        prop_assert_eq!(print_op(&reparsed.ctx, reparsed.top()), printed);
        prop_assert_eq!(reparsed.ctx.live_op_count(), module.ctx.live_op_count());
    }

    /// Arbitrary bytes: the parser returns a result, it never panics.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..96)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_module(&text);
    }

    /// Mutations of valid modules: splice random bytes (including
    /// multi-byte Unicode whitespace) into printed IR, or truncate it at
    /// an arbitrary byte. The parser must still return, never panic.
    #[test]
    fn parser_never_panics_on_mutated_modules(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let module = random_module(seed);
        let mut text = print_op(&module.ctx, module.top()).into_bytes();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(text.len() as u64 + 1) as usize;
            match rng.below(3) {
                0 => text.truncate(at),
                1 => text.insert(at, rng.below(256) as u8),
                _ => {
                    let ws = ["\u{00A0}", "\u{2003}", "\u{3000}", "\u{2028}"];
                    let pick = ws[rng.below(ws.len() as u64) as usize];
                    for byte in pick.bytes().rev() {
                        text.insert(at, byte);
                    }
                }
            }
        }
        let _ = parse_module(&String::from_utf8_lossy(&text));
    }

    /// Grammar-level mutations: tokenize a printed module, then apply a
    /// seeded run of token swaps, duplications, deletions, splices from
    /// a second module, and substitutions from a pool of syntactically
    /// plausible tokens (including an unterminated string). Unlike byte
    /// splices, these keep the input *almost* well-formed — the shapes a
    /// torn frame or a buggy printer actually produce — and the parser
    /// must still return, never panic.
    #[test]
    fn parser_never_panics_on_token_mutations(seed in any::<u64>(), donor_seed in any::<u64>()) {
        const POOL: [&str; 10] =
            ["(", ")", "{", "}", "^bb0", "%99", "\"t.op\"", ":", "i32", "\"unterminated"];
        let mut rng = TestRng::new(seed);
        let printed = {
            let module = random_module(seed);
            print_op(&module.ctx, module.top())
        };
        let mut tokens = tokenize(&printed);
        prop_assert_eq!(tokens.concat(), printed, "tokenization is lossless");
        let donor = {
            let module = random_module(donor_seed);
            tokenize(&print_op(&module.ctx, module.top()))
        };
        for _ in 0..1 + rng.below(6) {
            if tokens.is_empty() {
                break;
            }
            let at = rng.below(tokens.len() as u64) as usize;
            match rng.below(5) {
                0 => {
                    let with = rng.below(tokens.len() as u64) as usize;
                    tokens.swap(at, with);
                }
                1 => {
                    let token = tokens[at].clone();
                    let to = rng.below(tokens.len() as u64 + 1) as usize;
                    tokens.insert(to, token);
                }
                2 => {
                    tokens.remove(at);
                }
                3 => {
                    let token = donor[rng.below(donor.len() as u64) as usize].clone();
                    tokens.insert(at, token);
                }
                _ => {
                    tokens[at] = POOL[rng.below(POOL.len() as u64) as usize].to_owned();
                }
            }
        }
        let _ = parse_module(&tokens.concat());
    }
}

/// Regression: multi-byte Unicode whitespace used to advance the lexers
/// one *byte* per whitespace *char*, splitting the codepoint and
/// panicking on the next slice. All three lexers (module parser,
/// attribute parser, affine-map parser) must skip it whole.
#[test]
fn multibyte_whitespace_is_skipped_not_split() {
    let module = "\u{00A0}\"builtin.module\"()\u{2003}({\n^bb():\u{00A0}\n\
                  \u{3000}%0 = \"arith.constant\"() {value = 1} : () -> (i32)\n}) : () -> ()\n";
    parse_module(module).expect("NBSP, em space, and ideographic space are whitespace");

    let map =
        OpcodeMap::parse(&"opcode_map<sA = [send_literal(34), send(0)]>".replace(' ', "\u{00A0}"))
            .expect("opcode map lexer skips NBSP");
    assert_eq!(map.len(), 1);

    let affine =
        AffineMap::parse(&"(m, n, k) -> (m, k)".replace(' ', "\u{00A0}")).expect("affine lexer");
    assert_eq!(affine.num_dims(), 3);

    // The cursor-level form: all four grammars lex through one cursor,
    // so a multi-byte space placed before *every* token position must be
    // skipped whole — the parse either yields the undisturbed result or
    // (where the space lands inside a compound token such as `->`) a
    // clean error; it never slices a codepoint.
    const SPACES: [&str; 3] = ["\u{00A0}", "\u{2003}", "\u{3000}"];
    fn each_insertion<T: PartialEq + std::fmt::Debug>(
        text: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) {
        let undisturbed = parse(text).expect("the undisturbed text parses");
        let tokens = tokenize(text);
        let mut parsed = 0;
        for at in 0..=tokens.len() {
            for space in SPACES {
                let spaced = [&tokens[..at].concat(), space, &tokens[at..].concat()].concat();
                if let Some(result) = parse(&spaced) {
                    assert_eq!(result, undisturbed, "{space:?} before token {at}: {spaced}");
                    parsed += 1;
                }
            }
        }
        assert!(parsed * 2 > tokens.len() * SPACES.len(), "most insertions are between tokens");
    }
    each_insertion(&print_op(&random_module(11).ctx, random_module(11).top()), |text| {
        parse_module(text).ok().map(|m| print_op(&m.ctx, m.top()))
    });
    each_insertion(
        "opcode_map<sA = [send_literal(0x22), send(0)], \"r C\" = [send_dim(1, 3), send_idx(m)]>",
        |text| OpcodeMap::parse(text).ok(),
    );
    each_insertion("opcode_flow<(sA (sB cC) rC)>", |text| OpcodeFlow::parse(text).ok());
    each_insertion("(m, n, k) -> (m + 1, k mod 4, n floordiv 2 * 3)", |text| {
        AffineMap::parse(text).ok()
    });

    // JSON is the counter-case: its whitespace is the four ASCII bytes,
    // so the same spaces between tokens stay a syntax error.
    for space in SPACES {
        assert!(JsonValue::parse(&format!("[1,{space}2]")).is_err(), "{space:?}");
    }
}

// ---------------------------------------------------------------------
// The nesting guard and error locations
// ---------------------------------------------------------------------

/// Input nested past the cursor's guard aborted the process (stack
/// overflow) before the guard existed; it must be a located error.
#[test]
fn nesting_past_the_guard_is_an_error_not_a_stack_overflow() {
    let deep = 1_000_000;
    let arrays = format!("\"a.b\"() {{x = {}1{}}} : () -> ()", "[".repeat(deep), "]".repeat(deep));
    let err = parse_module(&arrays).unwrap_err();
    assert!(err.message.contains("nesting deeper than 128"), "{}", err.message);
    assert_eq!((err.loc.line, err.loc.col), (1, 14 + 128), "blames the first `[` too deep");
    let dicts = format!("\"a.b\"() {{x = {}1}} : () -> ()", "{k = ".repeat(deep));
    assert!(parse_module(&dicts).unwrap_err().message.contains("nesting deeper"));
    let regions = "\"builtin.module\"() ({\n^bb():\n".repeat(deep);
    assert!(parse_module(&regions).unwrap_err().message.contains("nesting deeper"));
    let flow = format!("\"a.b\"() {{x = opcode_flow<{}>}} : () -> ()", "(".repeat(deep));
    assert!(parse_module(&flow).unwrap_err().message.contains("nesting deeper"));
    let affine = format!("\"a.b\"() {{x = affine_map<(d) -> ({}>}} : () -> ()", "(".repeat(deep));
    assert!(parse_module(&affine).unwrap_err().message.contains("nesting deeper"));
    // 100 levels of each is ordinary input.
    let nested = format!(
        "\"builtin.module\"() ({{\n^bb():\n  \"t.op\"() {{x = {}1{}}} : () -> ()\n}}) : () -> ()",
        "[".repeat(100),
        "]".repeat(100)
    );
    parse_module(&nested).unwrap();
}

/// The embedded grammars parse on the module's own cursor, so their
/// errors carry their true position (they used to be pinned to the
/// end of the attribute, after it was cut out and re-lexed).
#[test]
fn errors_inside_embedded_attributes_report_their_own_line_and_column() {
    let module = |attr: &str| {
        format!(
            "// l1\n// l2\n\"builtin.module\"() ({{\n^bb():\n  // l5\n  // l6\n    \
             \"t.op\"() {{a = 1, f = {attr}, z = 2}} : () -> ()\n}}) : () -> ()\n"
        )
    };
    let col = |attr: &str, needle: &str| {
        let line = module(attr).lines().nth(6).unwrap().to_owned();
        line.find(needle).unwrap() as u32 + 1
    };
    let attr = "affine_map<(m, n, k) -> (m, q)>";
    let err = parse_module(&module(attr)).unwrap_err();
    assert_eq!(err.message, "unknown dimension `q`");
    assert_eq!((err.loc.line, err.loc.col), (7, col(attr, "q)")));

    let attr = "opcode_map<sA = [send(0)], sB = [sendx(1)]>";
    let err = parse_module(&module(attr)).unwrap_err();
    assert!(err.message.contains("unknown opcode action `sendx`"), "{}", err.message);
    assert_eq!((err.loc.line, err.loc.col), (7, col(attr, "sendx")));

    let attr = "opcode_flow<(sA (sB 7))>";
    let err = parse_module(&module(attr)).unwrap_err();
    assert_eq!(err.message, "expected opcode name in flow");
    assert_eq!((err.loc.line, err.loc.col), (7, col(attr, "7))")));
}

#[test]
fn flows_nested_past_the_guard_are_errors_not_stack_overflows() {
    let err = OpcodeFlow::parse(&"(".repeat(1_000_000)).unwrap_err();
    assert!(err.message.contains("nesting deeper than 128"), "{}", err.message);
    let deep = format!("{}sA{}", "(".repeat(100), ")".repeat(100));
    assert_eq!(OpcodeFlow::parse(&deep).unwrap().depth(), 100);
}

#[test]
fn errors_are_located_in_the_attribute_text() {
    let err = OpcodeMap::parse("opcode_map<sA = [send(0)],\n  sB = [send 1)]>").unwrap_err();
    assert_eq!(err.message, "expected `(`");
    assert_eq!((err.loc.line, err.loc.col), (2, 14));
    let err = OpcodeFlow::parse("(sA (sB cC) rC) extra").unwrap_err();
    assert_eq!(err.message, "trailing input in opcode_flow: `extra`");
}

#[test]
fn expressions_nested_past_the_guard_are_errors_not_stack_overflows() {
    let err = AffineMap::parse(&format!("(d) -> ({}", "(".repeat(1_000_000))).unwrap_err();
    assert!(err.message.contains("nesting deeper than 128"), "{}", err.message);
    let deep = format!("(d) -> ({}d + 1{})", "(".repeat(100), ")".repeat(100));
    assert_eq!(AffineMap::parse(&deep).unwrap().eval(&[4]), vec![5]);
}

#[test]
fn errors_point_at_the_offending_name() {
    let err = AffineMap::parse("(m, n) ->\n  (m,  q)").unwrap_err();
    assert_eq!(err.message, "unknown dimension `q`");
    assert_eq!((err.loc.line, err.loc.col), (2, 8));
    let err = AffineMap::parse("(m,  m) -> (m)").unwrap_err();
    assert_eq!((err.message.as_str(), err.loc.col), ("duplicate dimension `m`", 6));
}
