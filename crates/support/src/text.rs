//! The one text cursor every grammar in the workspace lexes through:
//! the generic `.mlir` form (`axi4mlir_ir::parser`), the `opcode_map` /
//! `opcode_flow` attribute grammars (`axi4mlir_ir::attrs`), affine maps
//! (`axi4mlir_ir::affine`) and JSON ([`crate::json`]). They differ in
//! their productions, not in how they walk a `&str`, so three properties
//! hold for all of them because they hold here:
//!
//! - **No codepoint is ever split.** The position advances by whole
//!   `char`s (or the byte length of a matched prefix), so multi-byte
//!   whitespace before any token is skipped, never sliced.
//! - **Positions are byte offsets**; `line:col` is computed only when a
//!   [`Diagnostic`] is built ([`Cursor::error`]).
//! - **Nesting is bounded** by [`MAX_DEPTH`]: recursive productions call
//!   [`Cursor::enter`] / [`Cursor::leave`], so input nested deeper is a
//!   located error, not a stack overflow. Embedded grammars parse on
//!   their caller's cursor, so the bound covers the whole document.
//!
//! What counts as skippable is the one thing the grammars disagree on;
//! each fixes its [`Skip`] where it constructs its cursor.

use crate::diag::{Diagnostic, SourceLoc};

/// The deepest nesting any grammar accepts (JSON containers, `.mlir`
/// regions and attribute arrays/dicts, `opcode_flow` scopes,
/// parenthesized affine expressions — counted together when one grammar
/// is embedded in another).
pub const MAX_DEPTH: usize = 128;

/// What a grammar treats as insignificant between tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Skip {
    /// Space, tab, carriage return, line feed — JSON's whitespace, and
    /// nothing else (a no-break space between JSON tokens is an error).
    Ascii,
    /// Any Unicode whitespace (the attribute and affine grammars).
    Unicode,
    /// Unicode whitespace plus `//` comments to end of line (`.mlir`).
    UnicodeAndComments,
}

/// A position in a `&str` plus the scanners shared by every grammar.
///
/// Token-level methods (`peek`, `eat`, `eat_str`, `expect`, `ident`,
/// `integer`, `string_literal`, `at_end`) skip insignificant text first;
/// the `rest` / `bump` / `advance` / `take_while` primitives do not.
/// Scanners return `&'a str` slices of the input, never copies.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    skip: Skip,
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str, skip: Skip) -> Self {
        Self { text, pos: 0, skip, depth: 0 }
    }

    /// The current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Moves back to an offset [`Cursor::pos`] returned earlier (the one
    /// place the `.mlir` grammar looks ahead by more than a token).
    pub fn rewind(&mut self, pos: usize) {
        debug_assert!(pos <= self.pos && self.text.is_char_boundary(pos));
        self.pos = pos;
    }

    /// The unread input.
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Skips whitespace (and comments) as this cursor's [`Skip`] defines.
    pub fn skip_ws(&mut self) {
        loop {
            let rest = self.rest();
            match rest.chars().next() {
                Some(' ' | '\t' | '\r' | '\n') => self.pos += 1,
                Some(c) if self.skip != Skip::Ascii && c.is_whitespace() => {
                    self.pos += c.len_utf8();
                }
                Some('/') if self.skip == Skip::UnicodeAndComments && rest.starts_with("//") => {
                    self.pos += rest.find('\n').map_or(rest.len(), |newline| newline + 1);
                }
                _ => return,
            }
        }
    }

    /// Whether only skippable text remains.
    pub fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.text.len()
    }

    /// The next significant character, not consumed.
    pub fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    /// Consumes and returns the next character, skipping nothing.
    pub fn bump(&mut self) -> Option<char> {
        let c = self.rest().chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Consumes `bytes` bytes of [`Cursor::rest`], which the caller has
    /// inspected (the count must end on a character boundary).
    pub fn advance(&mut self, bytes: usize) {
        debug_assert!(self.text.is_char_boundary(self.pos + bytes));
        self.pos += bytes;
    }

    /// Consumes the longest prefix whose characters satisfy `keep`,
    /// skipping nothing.
    pub fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let rest = self.rest();
        let len = rest.find(|c| !keep(c)).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// Consumes `c` if it is the next significant character.
    pub fn eat(&mut self, c: char) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.pos += c.len_utf8();
        }
        hit
    }

    /// Consumes `s` if the significant input starts with it.
    pub fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        let hit = self.rest().starts_with(s);
        if hit {
            self.pos += s.len();
        }
        hit
    }

    /// Consumes `c`, or fails with ``expected `c` `` located here.
    pub fn expect(&mut self, c: char) -> Result<(), Diagnostic> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{c}`")))
        }
    }

    /// An identifier: a letter or `_`, then letters, digits and `_`.
    pub fn ident(&mut self) -> Option<&'a str> {
        self.ident_with(|_| false)
    }

    /// An identifier whose continuation also admits `.` (`.mlir`
    /// attribute names and block labels).
    pub fn dotted_ident(&mut self) -> Option<&'a str> {
        self.ident_with(|c| c == '.')
    }

    fn ident_with(&mut self, also: impl Fn(char) -> bool) -> Option<&'a str> {
        if !self.peek().is_some_and(|c| c.is_alphabetic() || c == '_') {
            return None;
        }
        Some(self.take_while(|c| c.is_alphanumeric() || c == '_' || also(c)))
    }

    /// An optionally negative decimal integer; `Ok(None)` (nothing
    /// consumed) when the significant input does not start with one, a
    /// located error for literals outside `i64`.
    pub fn decimal(&mut self) -> Result<Option<i64>, Diagnostic> {
        self.skip_ws();
        let rest = self.rest();
        let sign = usize::from(rest.starts_with('-'));
        let digits = rest[sign..].bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 {
            return Ok(None);
        }
        let literal = &rest[..sign + digits];
        let value =
            literal.parse().map_err(|_| self.error(format!("integer `{literal}` out of range")))?;
        self.pos += literal.len();
        Ok(Some(value))
    }

    /// A `0x` / `0X` hexadecimal literal or a [`Cursor::decimal`]; a
    /// `0x` without digits is an error too.
    pub fn integer(&mut self) -> Result<Option<i64>, Diagnostic> {
        self.skip_ws();
        let rest = self.rest();
        let Some(hex) = rest.strip_prefix("0x").or_else(|| rest.strip_prefix("0X")) else {
            return self.decimal();
        };
        let digits = &hex[..hex.bytes().take_while(u8::is_ascii_hexdigit).count()];
        if digits.is_empty() {
            return Err(self.error("expected hex digits after `0x`"));
        }
        let value = i64::from_str_radix(digits, 16)
            .map_err(|_| self.error(format!("hex literal `{digits}` out of range")))?;
        self.pos += 2 + digits.len();
        Ok(Some(value))
    }

    /// A `"`-delimited literal without escape processing: the text
    /// between the quotes, or a located error when either is missing.
    pub fn string_literal(&mut self) -> Result<&'a str, Diagnostic> {
        self.skip_ws();
        let body =
            self.rest().strip_prefix('"').ok_or_else(|| self.error("expected string literal"))?;
        let end = body.find('"').ok_or_else(|| self.error("unterminated string literal"))?;
        self.pos += end + 2;
        Ok(&body[..end])
    }

    /// Opens one nesting level of a recursive production (pair with
    /// [`Cursor::leave`]); a located error once [`MAX_DEPTH`] are open.
    pub fn enter(&mut self) -> Result<(), Diagnostic> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Closes the level the matching [`Cursor::enter`] opened.
    pub fn leave(&mut self) {
        self.depth -= 1;
    }

    /// The 1-based `line:col` of byte offset `pos`, columns counted in
    /// characters. Linear in `pos` — call it on the error path only.
    fn loc_at(&self, pos: usize) -> SourceLoc {
        let before = &self.text[..pos];
        let line_start = before.rfind('\n').map_or(0, |newline| newline + 1);
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = before[line_start..].chars().count() + 1;
        SourceLoc::new(line as u32, col as u32)
    }

    /// The `line:col` of the current position.
    pub fn loc(&self) -> SourceLoc {
        self.loc_at(self.pos)
    }

    /// An error diagnostic located at the current position.
    pub fn error(&self, message: impl Into<String>) -> Diagnostic {
        self.error_at(self.pos, message)
    }

    /// An error diagnostic located at byte offset `pos`.
    pub fn error_at(&self, pos: usize, message: impl Into<String>) -> Diagnostic {
        Diagnostic::error(message).at(self.loc_at(pos))
    }
}
