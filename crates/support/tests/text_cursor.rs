//! The shared text cursor ([`axi4mlir_support::text::Cursor`]) on its
//! own: what each skip mode skips, whole-character consumption, the
//! token scanners, located errors, and the nesting guard.

use axi4mlir_support::diag::SourceLoc;
use axi4mlir_support::text::{Cursor, Skip, MAX_DEPTH};

#[test]
fn each_skip_mode_skips_exactly_its_own_whitespace() {
    let text = "\u{a0}\u{2003} // note\n x";
    let mut json = Cursor::new(text, Skip::Ascii);
    assert_eq!(json.peek(), Some('\u{a0}'), "NBSP is not JSON whitespace");
    let mut attr = Cursor::new(text, Skip::Unicode);
    assert_eq!(attr.peek(), Some('/'), "no comments in the attribute grammars");
    let mut mlir = Cursor::new(text, Skip::UnicodeAndComments);
    assert_eq!(mlir.peek(), Some('x'));
    assert_eq!(mlir.loc(), SourceLoc::new(2, 2));
    assert!(Cursor::new("  // only a comment", Skip::UnicodeAndComments).at_end());
}

#[test]
fn eat_and_expect_consume_whole_characters() {
    let mut cur = Cursor::new(" \u{3000}→ -> x", Skip::Unicode);
    assert!(!cur.eat('-'));
    assert!(cur.eat('→'));
    assert!(cur.eat_str("->"));
    let err = cur.expect(')').unwrap_err();
    assert_eq!(err.message, "expected `)`");
    assert_eq!(err.loc, SourceLoc::new(1, 8), "columns count characters, not bytes");
    assert_eq!(cur.bump(), Some('x'));
    assert_eq!(cur.bump(), None);
}

#[test]
fn token_scanners_return_slices_and_leave_mismatches_unconsumed() {
    let mut cur = Cursor::new("  sB_2.x 0x1F -12 \"a b\" 7up", Skip::Unicode);
    assert_eq!(cur.ident(), Some("sB_2"));
    assert_eq!(cur.ident(), None, "`.` does not start an identifier");
    assert!(cur.eat('.'));
    assert_eq!(cur.dotted_ident(), Some("x"));
    assert_eq!(cur.decimal().unwrap(), Some(0), "decimal stops before the `x`");
    cur.rewind(cur.pos() - 1);
    assert_eq!(cur.integer().unwrap(), Some(0x1f));
    assert_eq!(cur.integer().unwrap(), Some(-12));
    assert_eq!(cur.integer().unwrap(), None);
    assert_eq!(cur.string_literal().unwrap(), "a b");
    assert_eq!(cur.integer().unwrap(), Some(7));
    assert_eq!(cur.take_while(char::is_alphabetic), "up");
    assert!(cur.at_end());
}

#[test]
fn malformed_literals_are_located_errors() {
    let mut cur = Cursor::new("\n  99999999999999999999", Skip::Unicode);
    let err = cur.integer().unwrap_err();
    assert!(err.message.contains("out of range"), "{}", err.message);
    assert_eq!(err.loc, SourceLoc::new(2, 3));
    assert!(Cursor::new("0x", Skip::Unicode).integer().is_err());
    assert!(Cursor::new("0xFFFFFFFFFFFFFFFFF", Skip::Unicode).integer().is_err());
    assert!(Cursor::new("x", Skip::Unicode).string_literal().is_err());
    let err = Cursor::new("\"open", Skip::Unicode).string_literal().unwrap_err();
    assert_eq!(err.message, "unterminated string literal");
    assert_eq!(Cursor::new("-9223372036854775808", Skip::Ascii).decimal(), Ok(Some(i64::MIN)));
}

#[test]
fn the_nesting_guard_trips_past_max_depth_and_reopens_after_leave() {
    let mut cur = Cursor::new("x", Skip::Ascii);
    for _ in 0..MAX_DEPTH {
        cur.enter().unwrap();
    }
    let err = cur.enter().unwrap_err();
    assert!(err.message.contains("nesting deeper than 128"), "{}", err.message);
    cur.leave();
    cur.enter().unwrap();
}
