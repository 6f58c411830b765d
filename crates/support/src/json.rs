//! A small, dependency-free JSON reader and writer.
//!
//! The build environment vendors no serde, so every JSON document in the
//! workspace — Fig. 5 configuration files, `BENCH_*.json` reports, cache
//! shards, protocol frames — is read and written here. The module has
//! three layers:
//!
//! - [`JsonValue::parse`]: the recursive-descent *syntax* reader. It
//!   keeps the JSON productions and lexes through the workspace's shared
//!   [`crate::text::Cursor`] (constructed with JSON's own whitespace
//!   set), which is also where its nesting limit comes from: a document
//!   nested deeper than [`crate::text::MAX_DEPTH`] is an error, not a
//!   stack overflow. String scanning copies unescaped runs as slices, so
//!   parsing is linear in the document.
//! - [`Members`]: the one *typed* reader. `value.members(context)?`
//!   then `str` / `u64` / `object` / … — every decoder in the workspace
//!   goes through it, so a missing or ill-typed member is always
//!   reported as ``{context}: missing `{path}` `` or
//!   ``{context}: `{path}` must be …``.
//! - the serializer ([`JsonValue::to_json_string`],
//!   [`JsonValue::to_json_pretty`]).
//!
//! Properties callers rely on:
//!
//! - **object member order is preserved** (an object is a `Vec` of pairs,
//!   not a hash map) — the `"data"` object of a Fig. 5 configuration
//!   defines operand order by member position, and report files diff
//!   cleanly;
//! - syntax errors carry `line:col` locations through [`Diagnostic`];
//! - serialization round-trips: `parse(v.to_json_pretty())` yields `v`
//!   again for every value this module can produce (property-tested in
//!   `tests/json_properties.rs`).

use crate::diag::Diagnostic;
use crate::text::{Cursor, Skip};

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent. Stored as `i128`
    /// so the full `u64` range (DMA addresses, buffer sizes) and the full
    /// `i64` range both survive parsing.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source member order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] with a `line:col` location on syntax
    /// errors or trailing garbage.
    pub fn parse(text: &str) -> Result<JsonValue, Diagnostic> {
        let mut p = Parser { cur: Cursor::new(text, Skip::Ascii) };
        let value = p.value()?;
        if !p.cur.at_end() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`: floats directly, integral numbers
    /// converted (may round for magnitudes beyond 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(v) => Some(*v),
            JsonValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Int(_) | JsonValue::Float(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn object(members: impl IntoIterator<Item = (String, JsonValue)>) -> JsonValue {
        JsonValue::Object(members.into_iter().collect())
    }

    /// Compact (single-line) serialization.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization: two-space indent, one member per line.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => out.push_str(&v.to_string()),
            JsonValue::Float(v) => out.push_str(&fmt_float(*v)),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                write_seq(out, indent, depth, b'[', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            JsonValue::Object(members) => {
                write_seq(out, indent, depth, b'{', members.len(), |out, i| {
                    let (key, value) = &members[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                });
            }
        }
    }
}

/// Serializes a finite float so it re-parses as [`JsonValue::Float`]
/// (integral values keep a `.0`); non-finite values have no JSON spelling
/// and become `null`.
fn fmt_float(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    if v.fract() == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shared layout for arrays (`open` = `[`) and objects (`open` = `{`):
/// compact when `indent` is `None`, one element per line otherwise.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: u8,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    let close = if open == b'[' { ']' } else { '}' };
    out.push(open as char);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

/// A borrowed view of one JSON object's members: the one decoder every
/// typed reader in the workspace goes through, so a missing or ill-typed
/// member is always blamed the same way —
/// ``{context}: missing `{path}` `` or ``{context}: `{path}` must be …``,
/// where `path` extends with a `.` per nested [`Members::object`].
///
/// Each accessor reads a *required* member; [`Members::opt`] turns any of
/// them into its optional form.
///
/// # Examples
///
/// ```
/// use axi4mlir_support::json::{JsonValue, Members};
///
/// let doc = JsonValue::parse(r#"{"dma": {"id": "zero"}}"#).unwrap();
/// let dma = doc.members("accelerator v3_8").unwrap().object("dma").unwrap();
/// assert_eq!(dma.opt("channel", Members::u64), Ok(None));
/// assert_eq!(
///     dma.u64("id").unwrap_err().message,
///     "accelerator v3_8: `dma.id` must be a non-negative integer"
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Members<'v> {
    context: &'v str,
    /// `""` at the top, `"outer."` inside the member `outer`.
    prefix: String,
    members: &'v [(String, JsonValue)],
}

impl JsonValue {
    /// Opens this value's members for typed reading; `context` names the
    /// document in every error (`"invalid job"`, `"accelerator v3_8"`).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the value is not an object.
    pub fn members<'v>(&'v self, context: &'v str) -> Result<Members<'v>, Diagnostic> {
        let members = self.as_object().ok_or_else(|| {
            Diagnostic::error(format!("{context}: expected an object, found {}", self.type_name()))
        })?;
        Ok(Members { context, prefix: String::new(), members })
    }

    /// A `[[name, value], …]` pair list — the array spelling of ordered
    /// name → number tables ([`Members::pairs`] reads it back).
    pub fn pairs<T: Into<JsonValue>>(items: impl IntoIterator<Item = (String, T)>) -> JsonValue {
        let pair = |(name, value): (String, T)| JsonValue::Array(vec![name.into(), value.into()]);
        JsonValue::Array(items.into_iter().map(pair).collect())
    }
}

/// Every accessor fails with the missing / must-be [`Diagnostic`]
/// described on the type.
impl<'v> Members<'v> {
    /// The member `name`, if present.
    pub fn get(&self, name: &str) -> Option<&'v JsonValue> {
        self.members.iter().find(|(key, _)| key == name).map(|(_, value)| value)
    }

    /// The `(name, value)` members in source order.
    pub fn iter(&self) -> impl Iterator<Item = (&'v str, &'v JsonValue)> {
        self.members.iter().map(|(name, value)| (name.as_str(), value))
    }

    /// The error blaming member `name`: ``{context}: `{path}` {must}``.
    pub fn invalid(&self, name: &str, must: &str) -> Diagnostic {
        Diagnostic::error(format!("{}: `{}{name}` {must}", self.context, self.prefix))
    }

    /// The member `name`, or ``{context}: missing `{path}` ``.
    pub fn require(&self, name: &str) -> Result<&'v JsonValue, Diagnostic> {
        self.get(name).ok_or_else(|| {
            Diagnostic::error(format!("{}: missing `{}{name}`", self.context, self.prefix))
        })
    }

    /// `read` (any accessor: `Members::u64`, `Members::str_list`, …)
    /// applied to `name` if the member is present, `None` if it is not.
    pub fn opt<T>(
        &self,
        name: &str,
        read: impl FnOnce(&Self, &str) -> Result<T, Diagnostic>,
    ) -> Result<Option<T>, Diagnostic> {
        self.get(name).map(|_| read(self, name)).transpose()
    }

    fn typed<T>(
        &self,
        name: &str,
        read: impl FnOnce(&'v JsonValue) -> Option<T>,
        must: &str,
    ) -> Result<T, Diagnostic> {
        self.require(name).and_then(|value| read(value).ok_or_else(|| self.invalid(name, must)))
    }

    /// A string member.
    pub fn str(&self, name: &str) -> Result<&'v str, Diagnostic> {
        self.typed(name, JsonValue::as_str, "must be a string")
    }

    /// A non-negative integer member.
    pub fn u64(&self, name: &str) -> Result<u64, Diagnostic> {
        self.typed(name, JsonValue::as_u64, "must be a non-negative integer")
    }

    /// A non-negative integer member narrowed to `T` (`u32` register
    /// ids, `usize` counts): out-of-range values are blamed like
    /// ill-typed ones, never truncated.
    pub fn uint<T: TryFrom<u64>>(&self, name: &str) -> Result<T, Diagnostic> {
        let bits = 8 * std::mem::size_of::<T>();
        T::try_from(self.u64(name)?)
            .map_err(|_| self.invalid(name, &format!("must fit in {bits} bits")))
    }

    /// An integer member.
    pub fn i64(&self, name: &str) -> Result<i64, Diagnostic> {
        self.typed(name, JsonValue::as_i64, "must be an integer")
    }

    /// A number member (integers convert).
    pub fn f64(&self, name: &str) -> Result<f64, Diagnostic> {
        self.typed(name, JsonValue::as_f64, "must be a number")
    }

    /// A boolean member.
    pub fn bool(&self, name: &str) -> Result<bool, Diagnostic> {
        self.typed(name, JsonValue::as_bool, "must be a boolean")
    }

    /// An array member.
    pub fn array(&self, name: &str) -> Result<&'v [JsonValue], Diagnostic> {
        self.typed(name, JsonValue::as_array, "must be an array")
    }

    /// An object member, opened for reading; its members' paths extend
    /// this one's (`name.inner`).
    pub fn object(&self, name: &str) -> Result<Members<'v>, Diagnostic> {
        let members = self.typed(name, JsonValue::as_object, "must be an object")?;
        Ok(Members { context: self.context, prefix: format!("{}{name}.", self.prefix), members })
    }

    /// An array-of-strings member.
    pub fn str_list(&self, name: &str) -> Result<Vec<String>, Diagnostic> {
        let strings = |item: &JsonValue| item.as_str().map(str::to_owned);
        self.typed(name, |value| list_of(value, strings), "must be an array of strings")
    }

    /// An array-of-integers member.
    pub fn i64_list(&self, name: &str) -> Result<Vec<i64>, Diagnostic> {
        self.typed(name, |value| list_of(value, JsonValue::as_i64), "must be an array of integers")
    }

    /// A [`JsonValue::pairs`] list whose second elements `read` accepts
    /// (`JsonValue::as_u64`, `JsonValue::as_f64`).
    pub fn pairs<T>(
        &self,
        name: &str,
        read: fn(&JsonValue) -> Option<T>,
    ) -> Result<Vec<(String, T)>, Diagnostic> {
        let pair = |item: &JsonValue| match item.as_array()? {
            [name, second] => Some((name.as_str()?.to_owned(), read(second)?)),
            _ => None,
        };
        self.typed(name, |value| list_of(value, pair), "must hold [name, number] pairs")
    }
}

fn list_of<T>(value: &JsonValue, item: impl Fn(&JsonValue) -> Option<T>) -> Option<Vec<T>> {
    value.as_array()?.iter().map(item).collect()
}

/// The JSON productions, lexed through the shared [`Cursor`] (JSON's
/// own whitespace set, the shared nesting guard).
struct Parser<'a> {
    cur: Cursor<'a>,
}

impl Parser<'_> {
    /// JSON diagnostics carry their location inside the message.
    fn error(&self, message: impl Into<String>) -> Diagnostic {
        Diagnostic::error(format!("{} at {}", message.into(), self.cur.loc()))
    }

    fn value(&mut self) -> Result<JsonValue, Diagnostic> {
        match self.cur.peek() {
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('t') => self.keyword("true", JsonValue::Bool(true)),
            Some('f') => self.keyword("false", JsonValue::Bool(false)),
            Some('n') => self.keyword("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{c}`"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// One container, counted against [`crate::text::MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, Diagnostic>,
    ) -> Result<JsonValue, Diagnostic> {
        self.cur.enter().map_err(|err| self.error(err.message))?;
        let value = container(self);
        self.cur.leave();
        value
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, Diagnostic> {
        if self.cur.eat_str(word) {
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, Diagnostic> {
        self.cur.advance(1); // the `{` `value` peeked
        let mut members = Vec::new();
        if self.cur.eat('}') {
            return Ok(JsonValue::Object(members));
        }
        loop {
            let key = self.string().map_err(|_| self.error("expected a string object key"))?;
            if !self.cur.eat(':') {
                return Err(self.error("expected `:`"));
            }
            members.push((key, self.value()?));
            if self.cur.eat('}') {
                return Ok(JsonValue::Object(members));
            }
            if !self.cur.eat(',') {
                return Err(self.error("expected `,` or `}` in object"));
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, Diagnostic> {
        self.cur.advance(1); // the `[` `value` peeked
        let mut items = Vec::new();
        if self.cur.eat(']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            if self.cur.eat(']') {
                return Ok(JsonValue::Array(items));
            }
            if !self.cur.eat(',') {
                return Err(self.error("expected `,` or `]` in array"));
            }
        }
    }

    /// Unescaped runs are copied as slices, so the scan is linear in the
    /// input.
    fn string(&mut self) -> Result<String, Diagnostic> {
        if !self.cur.eat('"') {
            return Err(self.error("expected `\"`"));
        }
        let mut out = String::new();
        loop {
            out.push_str(self.cur.take_while(|c| c != '"' && c != '\\'));
            match self.cur.bump() {
                None => return Err(self.error("unterminated string")),
                Some('"') => return Ok(out),
                Some(_) => out.push(self.escape()?),
            }
        }
    }

    /// The character a `\` (already consumed) introduces.
    fn escape(&mut self) -> Result<char, Diagnostic> {
        let escaped = self.cur.bump().ok_or_else(|| self.error("unterminated escape"))?;
        Ok(match escaped {
            '"' | '\\' | '/' => escaped,
            'b' => '\u{0008}',
            'f' => '\u{000C}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let rest = self.cur.rest();
                if rest.len() < 4 {
                    return Err(self.error("truncated \\u escape"));
                }
                let code = rest
                    .get(..4)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.error("invalid \\u escape"))?;
                self.cur.advance(4);
                // Surrogate pairs are not needed by config files.
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            other => return Err(self.error(format!("unknown escape `\\{other}`"))),
        })
    }

    fn number(&mut self) -> Result<JsonValue, Diagnostic> {
        let text = self.cur.take_while(|c| matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-'));
        if !text.contains(['.', 'e', 'E', '+']) && !text[1..].contains('-') {
            if let Ok(v) = text.parse::<i128>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(JsonValue::parse("2.5").unwrap(), JsonValue::Float(2.5));
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(r#""a\nb""#).unwrap(), JsonValue::Str("a\nb".to_owned()));
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = JsonValue::parse(r#"{ "C": 1, "A": 2, "B": 3 }"#).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["C", "A", "B"]);
        assert_eq!(v.get("A"), Some(&JsonValue::Int(2)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nested_documents_roundtrip_structure() {
        let v = JsonValue::parse(r#"{"xs": [1, [2, 3], {"y": "z"}], "n": -4}"#).unwrap();
        let xs = v.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].get("y").unwrap().as_str(), Some("z"));
        assert_eq!(v.get("n").unwrap().as_i64(), Some(-4));
    }

    #[test]
    fn errors_carry_locations() {
        let err = JsonValue::parse("{not json").unwrap_err();
        assert!(err.message.contains("1:2"), "{}", err.message);
        let err = JsonValue::parse("{\"a\": 1,\n  oops}").unwrap_err();
        assert!(err.message.contains("2:3"), "{}", err.message);
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("1 2").is_err());
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        let v = JsonValue::parse(r#"{"s": "x", "n": 1}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_i64(), None);
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(JsonValue::Int(-1).as_u64(), None);
        assert_eq!(JsonValue::Int(5).as_u64(), Some(5));
        assert_eq!(v.type_name(), "object");
    }

    #[test]
    fn serialization_round_trips() {
        let text = r#"{"xs": [1, [2, 3], {"y": "z"}], "n": -4, "f": 2.5, "t": true, "e": null}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(JsonValue::parse(&v.to_json_string()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        // 2.0 must not serialize as `2` (which would re-parse as Int).
        let v = JsonValue::Float(2.0);
        assert_eq!(v.to_json_string(), "2.0");
        assert_eq!(JsonValue::parse("2.0").unwrap(), v);
        assert_eq!(JsonValue::Float(f64::NAN).to_json_string(), "null");
        // Large integral floats keep the decimal point too.
        let big = JsonValue::Float(1e15);
        assert_eq!(JsonValue::parse(&big.to_json_string()).unwrap(), big);
    }

    #[test]
    fn strings_escape_cleanly() {
        let v = JsonValue::Str("a\"b\\c\nd\u{0001}".to_owned());
        let text = v.to_json_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_output_indents_members() {
        let v = JsonValue::object([
            ("a".to_owned(), JsonValue::Int(1)),
            ("b".to_owned(), JsonValue::Array(vec![JsonValue::Bool(true)])),
            ("empty".to_owned(), JsonValue::Object(Vec::new())),
        ]);
        let text = v.to_json_pretty();
        assert_eq!(text, "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ],\n  \"empty\": {}\n}");
    }

    #[test]
    fn from_conversions_build_values() {
        assert_eq!(JsonValue::from(3i64), JsonValue::Int(3));
        assert_eq!(JsonValue::from(3u64), JsonValue::Int(3));
        assert_eq!(JsonValue::from(3usize), JsonValue::Int(3));
        assert_eq!(JsonValue::from(true), JsonValue::Bool(true));
        assert_eq!(JsonValue::from("x"), JsonValue::Str("x".to_owned()));
        assert_eq!(JsonValue::from(1.5), JsonValue::Float(1.5));
    }

    #[test]
    fn full_u64_range_survives() {
        // u64::MAX does not fit in i64; it must still parse as an integer.
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.as_i64(), None, "out of i64 range");
        let v = JsonValue::parse("9223372036854775808").unwrap();
        assert_eq!(v.as_u64(), Some(9_223_372_036_854_775_808));
    }
}
