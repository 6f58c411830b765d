//! Attributes, including the paper's two new attribute kinds.
//!
//! AXI4MLIR's §III-C contributes `opcode_map` (Fig. 7) and `opcode_flow`
//! (Fig. 8) as first-class MLIR attributes. Their grammars:
//!
//! ```text
//! opcode_dict  ::= `opcode_map` `<` opcode_entry (`,` opcode_entry)* `>`
//! opcode_entry ::= (bare_id | string_literal) `=` `[` opcode_expr (`,` opcode_expr)* `]`
//! opcode_expr  ::= `send` `(` bare_id `)`
//!                | `send_literal` `(` integer_literal `)`
//!                | `send_dim` `(` bare_id `,` bare_id `)`
//!                | `send_idx` `(` bare_id `)`
//!                | `recv` `(` bare_id `)`
//!
//! opcode_flow  ::= `opcode_flow` `<` flow_expr `>`
//! flow_expr    ::= `(` flow_expr* `)` | bare_id
//! ```
//!
//! Both grammars lex through the workspace's shared
//! [`axi4mlir_support::text::Cursor`]. [`OpcodeMap::parse`] and
//! [`OpcodeFlow::parse`] build one over a stand-alone string (a Fig. 5
//! JSON member, a preset); the `.mlir` parser instead hands over its own
//! live cursor, so the attribute is read in place and its errors carry
//! their position in the enclosing file. Flow scopes count against the
//! cursor's nesting guard.
//!
//! Note on `send_dim`: Fig. 7's grammar lists one argument, but every use in
//! the paper (Fig. 15a: `send_dim(1,3)`, `send_dim(0,1)`) passes
//! `(argument, dimension)`; we implement the two-argument form.

use std::collections::BTreeMap;
use std::fmt;

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::text::{Cursor, Skip};

use crate::affine::AffineMap;
use crate::types::Type;

/// One action inside an opcode's action list (Fig. 7 `opcode_expr`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpcodeAction {
    /// Stream the current tile of linalg argument `arg` (0 = A, 1 = B, ...).
    Send {
        /// Index of the `linalg.generic` operand.
        arg: u32,
    },
    /// Stream an immediate instruction word.
    SendLiteral {
        /// The literal value.
        value: u32,
    },
    /// Stream the size of dimension `dim` of argument `arg` (Fig. 15a).
    SendDim {
        /// Index of the `linalg.generic` operand.
        arg: u32,
        /// Dimension of that operand.
        dim: u32,
    },
    /// Stream the current tile index of the named loop dimension.
    SendIdx {
        /// Loop dimension name (must appear in the op's iteration space).
        dim: String,
    },
    /// Receive the current tile of argument `arg` from the accelerator.
    Recv {
        /// Index of the `linalg.generic` operand.
        arg: u32,
    },
}

impl fmt::Display for OpcodeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpcodeAction::Send { arg } => write!(f, "send({arg})"),
            OpcodeAction::SendLiteral { value } => write!(f, "send_literal({value})"),
            OpcodeAction::SendDim { arg, dim } => write!(f, "send_dim({arg}, {dim})"),
            OpcodeAction::SendIdx { dim } => write!(f, "send_idx({dim})"),
            OpcodeAction::Recv { arg } => write!(f, "recv({arg})"),
        }
    }
}

/// The `opcode_map` attribute: named opcodes and their action lists.
///
/// Entry order is preserved (it is part of the attribute's identity for
/// printing round-trips).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct OpcodeMap {
    entries: Vec<(String, Vec<OpcodeAction>)>,
}

impl OpcodeMap {
    /// Builds a map from `(name, actions)` pairs.
    ///
    /// # Errors
    ///
    /// Rejects duplicate opcode names and empty action lists.
    pub fn new(entries: Vec<(String, Vec<OpcodeAction>)>) -> Result<Self, Diagnostic> {
        let mut seen = std::collections::BTreeSet::new();
        for (name, actions) in &entries {
            check_entry(name, actions, !seen.insert(name.as_str()))?;
        }
        Ok(Self { entries })
    }

    /// Appends one opcode after the others.
    ///
    /// # Errors
    ///
    /// Rejects what [`OpcodeMap::new`] rejects: a name already defined,
    /// or an empty action list.
    pub fn push(&mut self, name: String, actions: Vec<OpcodeAction>) -> Result<(), Diagnostic> {
        check_entry(&name, &actions, self.get(&name).is_some())?;
        self.entries.push((name, actions));
        Ok(())
    }

    /// Looks up an opcode's actions.
    pub fn get(&self, name: &str) -> Option<&[OpcodeAction]> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, a)| a.as_slice())
    }

    /// Iterates `(name, actions)` in definition order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[OpcodeAction])> {
        self.entries.iter().map(|(n, a)| (n.as_str(), a.as_slice()))
    }

    /// Number of opcodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no opcodes are defined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses the Fig. 7 syntax, with or without the `opcode_map<...>`
    /// wrapper.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] on syntax errors, duplicate names, or empty
    /// action lists.
    pub fn parse(text: &str) -> Result<Self, Diagnostic> {
        let mut cur = Cursor::new(text, Skip::Unicode);
        let map = Self::parse_in(&mut cur)?;
        if !cur.at_end() {
            return Err(cur.error(format!("trailing input in opcode_map: `{}`", cur.rest())));
        }
        Ok(map)
    }

    /// Parses one map at `cur` — wrapped in `opcode_map<…>` (the cursor
    /// is left after the `>`) or bare (the entries run to the end of the
    /// input). The `.mlir` parser reads the attribute in place this way.
    pub(crate) fn parse_in(cur: &mut Cursor<'_>) -> Result<Self, Diagnostic> {
        let wrapped = cur.eat_str("opcode_map");
        if wrapped {
            cur.expect('<')?;
        }
        let mut entries = Vec::new();
        while !(cur.at_end() || wrapped && cur.peek() == Some('>')) {
            let name =
                if cur.peek() == Some('"') { cur.string_literal().ok() } else { cur.ident() }
                    .ok_or_else(|| cur.error("expected opcode name in opcode_map"))?;
            cur.expect('=')?;
            cur.expect('[')?;
            let mut actions = vec![parse_action(cur)?];
            while cur.eat(',') {
                actions.push(parse_action(cur)?);
            }
            cur.expect(']')?;
            entries.push((name.to_owned(), actions));
            if !cur.eat(',') {
                break;
            }
        }
        if wrapped {
            cur.expect('>')?;
        }
        Self::new(entries)
    }
}

/// Refuses an `opcode_map` entry that repeats a name or has no actions.
fn check_entry(name: &str, actions: &[OpcodeAction], duplicate: bool) -> Result<(), Diagnostic> {
    if duplicate {
        return Err(Diagnostic::error(format!("duplicate opcode `{name}` in opcode_map")));
    }
    if actions.is_empty() {
        return Err(Diagnostic::error(format!("opcode `{name}` has an empty action list")));
    }
    Ok(())
}

impl fmt::Display for OpcodeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "opcode_map<")?;
        for (i, (name, actions)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} = [")?;
            for (j, a) in actions.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ">")
    }
}

fn parse_action(cur: &mut Cursor<'_>) -> Result<OpcodeAction, Diagnostic> {
    cur.skip_ws();
    let at = cur.pos();
    let kw = cur.ident().ok_or_else(|| cur.error("expected opcode action"))?;
    cur.expect('(')?;
    let int = |cur: &mut Cursor<'_>| {
        cur.integer()?.map(|v| v as u32).ok_or_else(|| cur.error("expected integer"))
    };
    let action = match kw {
        "send" => OpcodeAction::Send { arg: int(cur)? },
        "send_literal" => OpcodeAction::SendLiteral { value: int(cur)? },
        "send_dim" => {
            let arg = int(cur)?;
            cur.expect(',')?;
            OpcodeAction::SendDim { arg, dim: int(cur)? }
        }
        "send_idx" => {
            let dim = cur.ident().ok_or_else(|| cur.error("send_idx expects a dimension name"))?;
            OpcodeAction::SendIdx { dim: dim.to_owned() }
        }
        "recv" => OpcodeAction::Recv { arg: int(cur)? },
        other => {
            return Err(cur.error_at(
                at,
                format!(
                    "unknown opcode action `{other}` \
                     (expected send/send_literal/send_dim/send_idx/recv)"
                ),
            ))
        }
    };
    cur.expect(')')?;
    Ok(action)
}

/// One element of an `opcode_flow`: either an opcode reference or a nested
/// scope (a deeper loop level).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FlowElem {
    /// A reference to an `opcode_map` entry.
    Opcode(String),
    /// A parenthesized sub-flow, mapped one loop level deeper.
    Scope(Vec<FlowElem>),
}

/// The `opcode_flow` attribute: the nesting structure of opcode emissions
/// (Fig. 8). `(sA (sB cC rC))` means `sA` sits one loop level above the
/// `sB cC rC` group.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct OpcodeFlow {
    /// Top-level scope elements.
    pub root: Vec<FlowElem>,
}

impl OpcodeFlow {
    /// Builds a flow from root elements.
    pub fn new(root: Vec<FlowElem>) -> Self {
        Self { root }
    }

    /// All opcode names referenced anywhere in the flow, in order.
    pub fn opcode_names(&self) -> Vec<&str> {
        fn walk<'a>(elems: &'a [FlowElem], out: &mut Vec<&'a str>) {
            for e in elems {
                match e {
                    FlowElem::Opcode(n) => out.push(n),
                    FlowElem::Scope(inner) => walk(inner, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Maximum scope nesting depth (a bare `(sA sB)` flow has depth 1).
    pub fn depth(&self) -> usize {
        fn d(elems: &[FlowElem]) -> usize {
            elems
                .iter()
                .map(|e| match e {
                    FlowElem::Opcode(_) => 0,
                    FlowElem::Scope(inner) => 1 + d(inner),
                })
                .max()
                .unwrap_or(0)
        }
        1 + d(&self.root)
    }

    /// Parses the Fig. 8 syntax, with or without the `opcode_flow<...>`
    /// wrapper. The outermost parentheses are the root scope.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] on unbalanced parentheses or empty flows.
    pub fn parse(text: &str) -> Result<Self, Diagnostic> {
        let mut cur = Cursor::new(text, Skip::Unicode);
        let flow = Self::parse_in(&mut cur)?;
        if !cur.at_end() {
            return Err(cur.error(format!("trailing input in opcode_flow: `{}`", cur.rest())));
        }
        Ok(flow)
    }

    /// Parses one flow at `cur`, with or without the `opcode_flow<…>`
    /// wrapper, leaving the cursor after it — how the `.mlir` parser
    /// reads the attribute in place.
    pub(crate) fn parse_in(cur: &mut Cursor<'_>) -> Result<Self, Diagnostic> {
        let wrapped = cur.eat_str("opcode_flow");
        if wrapped {
            cur.expect('<')?;
        }
        let at = cur.pos();
        let root = parse_scope(cur)?;
        if wrapped {
            cur.expect('>')?;
        }
        if root.is_empty() {
            return Err(cur.error_at(at, "opcode_flow must reference at least one opcode"));
        }
        Ok(Self { root })
    }
}

fn parse_scope(cur: &mut Cursor<'_>) -> Result<Vec<FlowElem>, Diagnostic> {
    cur.expect('(')?;
    cur.enter()?;
    let mut elems = Vec::new();
    loop {
        match cur.peek() {
            Some(')') => break,
            Some('(') => elems.push(FlowElem::Scope(parse_scope(cur)?)),
            Some(_) => {
                let id = cur.ident().ok_or_else(|| cur.error("expected opcode name in flow"))?;
                elems.push(FlowElem::Opcode(id.to_owned()));
            }
            None => return Err(cur.error("unbalanced `(` in opcode_flow")),
        }
    }
    cur.leave();
    cur.expect(')')?;
    Ok(elems)
}

impl fmt::Display for OpcodeFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn walk(elems: &[FlowElem], f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                match e {
                    FlowElem::Opcode(n) => write!(f, "{n}")?,
                    FlowElem::Scope(inner) => {
                        write!(f, "(")?;
                        walk(inner, f)?;
                        write!(f, ")")?;
                    }
                }
            }
            Ok(())
        }
        write!(f, "opcode_flow<(")?;
        walk(&self.root, f)?;
        write!(f, ")>")
    }
}

/// An attribute value attached to an operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Attribute {
    /// Integer attribute (`4 : i64`).
    Int(i64),
    /// Boolean attribute.
    Bool(bool),
    /// Float attribute.
    Float(f64),
    /// String attribute (`"accumulate"`).
    Str(String),
    /// A type used as an attribute (function signatures).
    Type(Type),
    /// Homogeneous or heterogeneous array.
    Array(Vec<Attribute>),
    /// Nested dictionary.
    Dict(BTreeMap<String, Attribute>),
    /// An affine map (`affine_map<(m, n, k) -> (m, k)>`).
    Map(AffineMap),
    /// The paper's `opcode_map` attribute.
    Opcodes(OpcodeMap),
    /// The paper's `opcode_flow` attribute.
    Flow(OpcodeFlow),
}

impl Attribute {
    /// Integer payload, if this is an [`Attribute::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Affine-map payload.
    pub fn as_map(&self) -> Option<&AffineMap> {
        match self {
            Attribute::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_array(&self) -> Option<&[Attribute]> {
        match self {
            Attribute::Array(a) => Some(a),
            _ => None,
        }
    }

    /// `opcode_map` payload.
    pub fn as_opcodes(&self) -> Option<&OpcodeMap> {
        match self {
            Attribute::Opcodes(m) => Some(m),
            _ => None,
        }
    }

    /// `opcode_flow` payload.
    pub fn as_flow(&self) -> Option<&OpcodeFlow> {
        match self {
            Attribute::Flow(flow) => Some(flow),
            _ => None,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Int(v) => write!(f, "{v}"),
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Float(v) => write!(f, "{v:?}"),
            Attribute::Str(s) => write!(f, "{s:?}"),
            Attribute::Type(t) => write!(f, "{t}"),
            Attribute::Array(items) => {
                write!(f, "[")?;
                for (i, a) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            Attribute::Dict(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                write!(f, "}}")
            }
            Attribute::Map(m) => write!(f, "affine_map<{m}>"),
            Attribute::Opcodes(m) => write!(f, "{m}"),
            Attribute::Flow(flow) => write!(f, "{flow}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fig6a_opcode_map() {
        // The Fig. 6a map, verbatim modulo whitespace.
        let text = "opcode_map< \
            sA = [send_literal(0x22), send(0)], \
            sB = [send_literal(0x23), send(1)], \
            cC = [send_literal(0xF0)], \
            rC = [send_literal(0x24), recv(2)], \
            sBcCrC = [send_literal(0x25), send(1), recv(2)], \
            reset = [send_literal(0xFF)] >";
        let m = OpcodeMap::parse(text).unwrap();
        assert_eq!(m.len(), 6);
        assert_eq!(
            m.get("sA").unwrap(),
            &[OpcodeAction::SendLiteral { value: 0x22 }, OpcodeAction::Send { arg: 0 }]
        );
        assert_eq!(m.get("cC").unwrap(), &[OpcodeAction::SendLiteral { value: 0xF0 }]);
        assert_eq!(
            m.get("sBcCrC").unwrap(),
            &[
                OpcodeAction::SendLiteral { value: 0x25 },
                OpcodeAction::Send { arg: 1 },
                OpcodeAction::Recv { arg: 2 }
            ]
        );
    }

    #[test]
    fn parse_fig15a_conv_map_with_send_dim() {
        let text = "opcode_map<\
            sIcO = [send_literal(70), send(0)],\
            sF = [send_literal(1), send(1)],\
            rO = [send_literal(8), recv(2)],\
            rst = [send_literal(32), send_dim(1, 3), send_literal(16), send_dim(0, 1)]>";
        let m = OpcodeMap::parse(text).unwrap();
        assert_eq!(
            m.get("rst").unwrap(),
            &[
                OpcodeAction::SendLiteral { value: 32 },
                OpcodeAction::SendDim { arg: 1, dim: 3 },
                OpcodeAction::SendLiteral { value: 16 },
                OpcodeAction::SendDim { arg: 0, dim: 1 },
            ]
        );
    }

    #[test]
    fn opcode_map_roundtrip() {
        let text = "opcode_map<sA = [send_literal(34), send(0)], rC = [recv(2)]>";
        let m = OpcodeMap::parse(text).unwrap();
        let printed = m.to_string();
        let reparsed = OpcodeMap::parse(&printed).unwrap();
        assert_eq!(m, reparsed);
    }

    #[test]
    fn opcode_map_rejects_duplicates_and_unknown_actions() {
        assert!(OpcodeMap::parse("opcode_map<a = [send(0)], a = [send(1)]>").is_err());
        let err = OpcodeMap::parse("opcode_map<a = [sendx(0)]>").unwrap_err();
        assert!(err.message.contains("unknown opcode action"));
        assert!(OpcodeMap::parse("opcode_map<a = [send(0)] trailing>").is_err());
    }

    #[test]
    fn opcode_map_string_keys_and_send_idx() {
        let m = OpcodeMap::parse("opcode_map<\"my op\" = [send_idx(m), send(0)]>").unwrap();
        assert_eq!(m.get("my op").unwrap()[0], OpcodeAction::SendIdx { dim: "m".to_owned() });
    }

    #[test]
    fn parse_flows_of_the_paper() {
        // Fig. 6a L23-25: As, Cs, Ns flows.
        let a_stationary = OpcodeFlow::parse("opcode_flow<(sA (sBcCrC))>").unwrap();
        assert_eq!(a_stationary.depth(), 2);
        assert_eq!(a_stationary.opcode_names(), vec!["sA", "sBcCrC"]);

        let c_stationary = OpcodeFlow::parse("((sA sB cC) rC)").unwrap();
        assert_eq!(c_stationary.depth(), 2);
        assert_eq!(c_stationary.opcode_names(), vec!["sA", "sB", "cC", "rC"]);
        assert_eq!(
            c_stationary.root,
            vec![
                FlowElem::Scope(vec![
                    FlowElem::Opcode("sA".into()),
                    FlowElem::Opcode("sB".into()),
                    FlowElem::Opcode("cC".into())
                ]),
                FlowElem::Opcode("rC".into())
            ]
        );

        let nothing = OpcodeFlow::parse("(sB sA cC rC)").unwrap();
        assert_eq!(nothing.depth(), 1);
    }

    #[test]
    fn parse_conv_flow() {
        // Fig. 15a: (sF (sIcO) rO)
        let flow = OpcodeFlow::parse("(sF (sIcO) rO)").unwrap();
        assert_eq!(flow.depth(), 2);
        assert_eq!(flow.opcode_names(), vec!["sF", "sIcO", "rO"]);
    }

    #[test]
    fn flow_roundtrip() {
        for text in ["(sA (sB cC rC))", "(a b c)", "((x y) z)", "(sF (sIcO) rO)"] {
            let flow = OpcodeFlow::parse(text).unwrap();
            let printed = flow.to_string();
            let reparsed = OpcodeFlow::parse(&printed).unwrap();
            assert_eq!(flow, reparsed, "{text} -> {printed}");
        }
    }

    #[test]
    fn flow_rejects_bad_syntax() {
        assert!(OpcodeFlow::parse("(sA (sB)").is_err(), "unbalanced");
        assert!(OpcodeFlow::parse("()").is_err(), "empty");
        assert!(OpcodeFlow::parse("(a) b)").is_err(), "trailing");
    }

    #[test]
    fn attribute_accessors() {
        assert_eq!(Attribute::Int(7).as_int(), Some(7));
        assert_eq!(Attribute::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert!(Attribute::Int(1).as_str().is_none());
        let arr = Attribute::Array(vec![Attribute::Int(1), Attribute::Int(2)]);
        assert_eq!(arr.as_array().unwrap().len(), 2);
    }

    #[test]
    fn attribute_display() {
        let mut d = BTreeMap::new();
        d.insert("id".to_owned(), Attribute::Int(0));
        let a = Attribute::Dict(d);
        assert_eq!(a.to_string(), "{id = 0}");
        assert_eq!(Attribute::Str("accumulate".into()).to_string(), "\"accumulate\"");
        let m = AffineMap::parse("(m, n, k) -> (m, k)").unwrap();
        assert_eq!(Attribute::Map(m).to_string(), "affine_map<(m, n, k) -> (m, k)>");
    }

    #[test]
    fn hex_and_decimal_literals_agree() {
        let m = OpcodeMap::parse("opcode_map<a = [send_literal(0xFF)], b = [send_literal(255)]>")
            .unwrap();
        assert_eq!(m.get("a"), m.get("b"));
    }
}
