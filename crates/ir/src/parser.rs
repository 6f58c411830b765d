//! Parser for the generic textual form produced by [`crate::printer`].
//!
//! Parsing happens in two phases: a lightweight AST (`POp`/`PBlock`,
//! borrowing its value names from the source text, each op's name looked
//! up once in the [`OpKind`] table) is built first, then
//! converted into [`IrCtx`] entities with a scoped `%name -> ValueId`
//! environment, which keeps SSA bookkeeping out of the grammar code.
//!
//! This module holds the *productions* only. Lexing — whitespace and
//! `//` comment skipping, `peek`/`eat`/`expect`, identifiers, integers,
//! string literals, `line:col` on errors — is the workspace's shared
//! [`Cursor`], and the embedded attribute grammars (`affine_map<…>`,
//! `opcode_map<…>`, `opcode_flow<…>`) are parsed *in place* on that same
//! cursor by [`AffineMap`], [`OpcodeMap`] and [`OpcodeFlow`], so an
//! error inside one reports its own position. Regions and attribute
//! arrays/dicts count against the cursor's nesting guard
//! ([`axi4mlir_support::text::MAX_DEPTH`]): input nested deeper is a
//! located error, never a stack overflow.

use std::collections::{BTreeMap, HashMap};

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::text::{Cursor, Skip};

use crate::affine::AffineMap;
use crate::attrs::{Attribute, OpcodeFlow, OpcodeMap};
use crate::kind::OpKind;
use crate::ops::{AttrDict, BlockId, IrCtx, Module, OpId};
use crate::types::{MemRefType, Type, DYNAMIC};

/// Parses a module from its generic textual form.
///
/// # Errors
///
/// Returns a [`Diagnostic`] with a line/column location on syntax errors or
/// references to undefined values.
pub fn parse_module(text: &str) -> Result<Module, Diagnostic> {
    let mut p = P { cur: Cursor::new(text, Skip::UnicodeAndComments) };
    let op = p.parse_op()?;
    if !p.cur.at_end() {
        return Err(p.cur.error("trailing input after top-level operation"));
    }
    if op.kind != OpKind::BuiltinModule {
        return Err(Diagnostic::error(format!(
            "expected {} at top level, found {}",
            OpKind::BuiltinModule,
            op.kind
        )));
    }
    let mut ctx = IrCtx::new();
    let top = build_op(&mut ctx, op, &mut Env::new())?;
    // Re-wrap into a Module without re-creating: Module::new builds its own
    // top op, so we reconstruct by stealing the built ctx.
    Ok(Module::from_parts(ctx, top))
}

// ---------------------------------------------------------------------
// Phase 1: AST
// ---------------------------------------------------------------------

#[derive(Debug)]
struct POp<'a> {
    results: Vec<&'a str>,
    kind: OpKind,
    operands: Vec<&'a str>,
    regions: Vec<PRegion<'a>>,
    attrs: AttrDict,
    result_types: Vec<Type>,
}

#[derive(Debug)]
struct PRegion<'a> {
    blocks: Vec<PBlock<'a>>,
}

#[derive(Debug)]
struct PBlock<'a> {
    args: Vec<(&'a str, Type)>,
    ops: Vec<POp<'a>>,
}

/// The generic-form productions over the shared [`Cursor`].
struct P<'a> {
    cur: Cursor<'a>,
}

impl<'a> P<'a> {
    /// `%name` — returns the name without the sigil.
    fn value_use(&mut self) -> Result<&'a str, Diagnostic> {
        if !self.cur.eat('%') {
            return Err(self.cur.error("expected `%` value"));
        }
        let name = self.cur.take_while(|c| c.is_alphanumeric() || c == '_');
        if name.is_empty() {
            return Err(self.cur.error("expected value name after `%`"));
        }
        Ok(name)
    }

    /// `open item (, item)* close`, or `open close`; the caller has
    /// consumed `open`.
    fn list<T>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<T, Diagnostic>,
    ) -> Result<Vec<T>, Diagnostic> {
        let mut items = Vec::new();
        if self.cur.peek() != Some(close) {
            loop {
                items.push(item(self)?);
                if !self.cur.eat(',') {
                    break;
                }
            }
        }
        self.cur.expect(close)?;
        Ok(items)
    }

    // -----------------------------------------------------------------
    // Grammar
    // -----------------------------------------------------------------

    fn parse_op(&mut self) -> Result<POp<'a>, Diagnostic> {
        // Optional results.
        let mut results = Vec::new();
        self.cur.skip_ws();
        let start = self.cur.pos();
        if self.cur.peek() == Some('%') {
            loop {
                results.push(self.value_use()?);
                if !self.cur.eat(',') {
                    break;
                }
            }
            if !self.cur.eat('=') {
                return Err(self.cur.error_at(start, "expected `=` after result list"));
            }
        }
        let name = self.cur.string_literal()?;
        self.cur.expect('(')?;
        let operands = self.list(')', Self::value_use)?;
        // Optional region list: `({ ... }, { ... })`.
        let mut regions = Vec::new();
        let before_paren = self.cur.pos();
        if self.cur.eat('(') {
            if self.cur.peek() == Some('{') {
                regions = self.list(')', Self::parse_region)?;
            } else {
                self.cur.rewind(before_paren);
            }
        }
        // Optional attribute dict.
        let mut attrs = BTreeMap::new();
        if self.cur.eat('{') {
            attrs = self.attr_entries("expected attribute name")?;
        }
        // Trailing type: `: (tys) -> (tys)`.
        self.cur.expect(':')?;
        self.cur.expect('(')?;
        let operand_types = self.list(')', Self::parse_type)?;
        if !self.cur.eat_str("->") {
            return Err(self.cur.error("expected `->` in op type"));
        }
        self.cur.expect('(')?;
        let result_types = self.list(')', Self::parse_type)?;
        if operand_types.len() != operands.len() {
            return Err(self.cur.error(format!(
                "op {name}: {} operands but {} operand types",
                operands.len(),
                operand_types.len()
            )));
        }
        if result_types.len() != results.len() {
            return Err(self.cur.error(format!(
                "op {name}: {} results but {} result types",
                results.len(),
                result_types.len()
            )));
        }
        Ok(POp { results, kind: OpKind::parse(name), operands, regions, attrs, result_types })
    }

    /// `key = attr (, key = attr)* }` — the body of an attribute dict
    /// whose `{` the caller consumed.
    fn attr_entries<K: From<String> + Ord>(
        &mut self,
        expected: &str,
    ) -> Result<BTreeMap<K, Attribute>, Diagnostic> {
        let entries = self.list('}', |p| {
            let key = p.cur.dotted_ident().ok_or_else(|| p.cur.error(expected))?;
            p.cur.expect('=')?;
            Ok((K::from(key.to_owned()), p.parse_attr()?))
        })?;
        Ok(entries.into_iter().collect())
    }

    fn parse_region(&mut self) -> Result<PRegion<'a>, Diagnostic> {
        self.cur.expect('{')?;
        self.cur.enter()?;
        let mut blocks = Vec::new();
        while self.cur.peek() == Some('^') {
            blocks.push(self.parse_block()?);
        }
        self.cur.leave();
        self.cur.expect('}')?;
        Ok(PRegion { blocks })
    }

    fn parse_block(&mut self) -> Result<PBlock<'a>, Diagnostic> {
        self.cur.expect('^')?;
        let _label =
            self.cur.dotted_ident().ok_or_else(|| self.cur.error("expected block label"))?;
        self.cur.expect('(')?;
        let args = self.list(')', |p| {
            let name = p.value_use()?;
            p.cur.expect(':')?;
            Ok((name, p.parse_type()?))
        })?;
        self.cur.expect(':')?;
        let mut ops = Vec::new();
        while matches!(self.cur.peek(), Some('%' | '"')) {
            ops.push(self.parse_op()?);
        }
        Ok(PBlock { args, ops })
    }

    fn parse_type(&mut self) -> Result<Type, Diagnostic> {
        if self.cur.eat_str("index") {
            return Ok(Type::Index);
        }
        if self.cur.eat_str("()") {
            return Ok(Type::Unit);
        }
        if self.cur.eat_str("memref<") {
            return self.parse_memref_body();
        }
        let rest = self.cur.rest();
        if let Some((width, len)) = rest.strip_prefix('i').and_then(leading_number) {
            self.cur.advance(1 + len);
            return Ok(Type::Int(width as u32));
        }
        if let Some((width, len)) = rest.strip_prefix('f').and_then(leading_number) {
            self.cur.advance(1 + len);
            return Ok(Type::Float(width as u32));
        }
        let shown: String = rest.chars().take(16).collect();
        Err(self.cur.error(format!("expected type at `{shown}`")))
    }

    fn parse_memref_body(&mut self) -> Result<Type, Diagnostic> {
        // shape: (`?`|int) `x` ... then element type, optional strided<..>.
        let mut shape = Vec::new();
        loop {
            if self.cur.eat('?') {
                shape.push(DYNAMIC);
            } else if let Some(n) = self.cur.integer()? {
                shape.push(n);
            } else {
                return Err(self.cur.error("expected memref dimension"));
            }
            if !self.cur.eat('x') {
                return Err(self.cur.error("expected `x` in memref shape"));
            }
            // After `x` either another dim or the element type; element
            // types start with a letter that is not a digit/?`.
            if !matches!(self.cur.peek(), Some('0'..='9' | '?')) {
                break;
            }
        }
        let elem = self.parse_type()?;
        let mut strides = None;
        if self.cur.eat(',') {
            if !self.cur.eat_str("strided<[") {
                return Err(self.cur.error("expected `strided<[` in memref layout"));
            }
            strides =
                Some(self.list(']', |p| {
                    p.cur.integer()?.ok_or_else(|| p.cur.error("expected stride"))
                })?);
            self.cur.expect('>')?;
        }
        self.cur.expect('>')?;
        Ok(Type::MemRef(MemRefType { shape, elem: Box::new(elem), strides }))
    }

    fn parse_attr(&mut self) -> Result<Attribute, Diagnostic> {
        self.cur.skip_ws();
        let rest = self.cur.rest();
        // The embedded grammars parse in place, on this cursor.
        if self.cur.eat_str("affine_map<") {
            let map = AffineMap::parse_in(&mut self.cur)?;
            self.cur.expect('>')?;
            return Ok(Attribute::Map(map));
        }
        if rest.starts_with("opcode_map<") {
            return OpcodeMap::parse_in(&mut self.cur).map(Attribute::Opcodes);
        }
        if rest.starts_with("opcode_flow<") {
            return OpcodeFlow::parse_in(&mut self.cur).map(Attribute::Flow);
        }
        if self.cur.eat_str("true") {
            return Ok(Attribute::Bool(true));
        }
        if self.cur.eat_str("false") {
            return Ok(Attribute::Bool(false));
        }
        if rest.starts_with('"') {
            return Ok(Attribute::Str(self.cur.string_literal()?.to_owned()));
        }
        if rest.starts_with('[') {
            self.cur.enter()?;
            self.cur.advance(1);
            let items = self.list(']', Self::parse_attr)?;
            self.cur.leave();
            return Ok(Attribute::Array(items));
        }
        if rest.starts_with('{') {
            self.cur.enter()?;
            self.cur.advance(1);
            let map = self.attr_entries("expected dict key")?;
            self.cur.leave();
            return Ok(Attribute::Dict(map));
        }
        // Float: digits containing a dot.
        if let Some(f) = self.try_float() {
            return Ok(Attribute::Float(f));
        }
        if let Some(n) = self.cur.integer()? {
            return Ok(Attribute::Int(n));
        }
        // Types-as-attributes (i32, memref<...>, index).
        if let Ok(ty) = self.parse_type() {
            return Ok(Attribute::Type(ty));
        }
        Err(self.cur.error("expected attribute value"))
    }

    fn try_float(&mut self) -> Option<f64> {
        let rest = self.cur.rest();
        let digits = |s: &str| s.bytes().take_while(u8::is_ascii_digit).count();
        let sign = usize::from(rest.starts_with('-'));
        let int_len = digits(&rest[sign..]);
        if int_len == 0 || !rest[sign + int_len..].starts_with('.') {
            return None;
        }
        let total = sign + int_len + 1 + digits(&rest[sign + int_len + 1..]);
        let v = rest[..total].parse().ok()?;
        self.cur.advance(total);
        Some(v)
    }
}

fn leading_number(s: &str) -> Option<(i64, usize)> {
    let digits = s.bytes().take_while(u8::is_ascii_digit).count();
    Some((s[..digits].parse().ok()?, digits))
}

// ---------------------------------------------------------------------
// Phase 2: AST -> IrCtx
// ---------------------------------------------------------------------

/// The `%name -> ValueId` scope, keyed by slices of the source text.
type Env<'a> = HashMap<&'a str, crate::ops::ValueId>;

fn build_op<'a>(ctx: &mut IrCtx, op: POp<'a>, env: &mut Env<'a>) -> Result<OpId, Diagnostic> {
    let operands: Result<Vec<_>, Diagnostic> = op
        .operands
        .iter()
        .map(|name| {
            env.get(name)
                .copied()
                .ok_or_else(|| Diagnostic::error(format!("use of undefined value %{name}")))
        })
        .collect();
    let id = ctx.create_op(op.kind, operands?, op.result_types, op.attrs);
    for (name, value) in op.results.into_iter().zip(&ctx.op(id).results) {
        env.insert(name, *value);
    }
    for region in op.regions {
        let rid = ctx.add_region(id);
        for block in region.blocks {
            build_block(ctx, rid, block, env)?;
        }
    }
    Ok(id)
}

fn build_block<'a>(
    ctx: &mut IrCtx,
    region: crate::ops::RegionId,
    block: PBlock<'a>,
    env: &mut Env<'a>,
) -> Result<BlockId, Diagnostic> {
    let (names, arg_types): (Vec<&'a str>, Vec<Type>) = block.args.into_iter().unzip();
    let bid = ctx.add_block(region, arg_types);
    for (name, value) in names.into_iter().zip(&ctx.block(bid).args) {
        env.insert(name, *value);
    }
    for op in block.ops {
        let oid = build_op(ctx, op, env)?;
        ctx.append_op(bid, oid);
    }
    Ok(bid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::printer::print_op;

    fn roundtrip(text: &str) -> String {
        let module = parse_module(text).expect("parse");
        print_op(&module.ctx, module.top())
    }

    #[test]
    fn parse_minimal_module() {
        let text = "\"builtin.module\"() ({\n^bb():\n}) : () -> ()\n";
        let m = parse_module(text).unwrap();
        assert_eq!(m.ctx.op(m.top()).kind, OpKind::BuiltinModule);
    }

    #[test]
    fn roundtrip_constants_and_arith() {
        let text = "\"builtin.module\"() ({\n^bb():\n  %0 = \"arith.constant\"() {value = 4} : () -> (index)\n  %1 = \"arith.addi\"(%0, %0) : (index, index) -> (index)\n}) : () -> ()\n";
        // First print canonicalizes indentation; a second parse+print must be
        // a fixpoint.
        let canonical = roundtrip(text);
        assert_eq!(roundtrip(&canonical), canonical);
        assert!(canonical.contains("\"arith.addi\"(%0, %0) : (index, index) -> (index)"));
    }

    #[test]
    fn roundtrip_region_with_block_args() {
        let text = "\"builtin.module\"() ({\n^bb():\n  \"scf.for\"() ({\n    ^bb(%0: index):\n      \"scf.yield\"() : () -> ()\n  }) : () -> ()\n}) : () -> ()\n";
        let m = parse_module(text).unwrap();
        let fors = m.ctx.find_ops(m.top(), OpKind::ScfFor);
        assert_eq!(fors.len(), 1);
        let block = m.ctx.sole_block(fors[0], 0);
        assert_eq!(m.ctx.block(block).args.len(), 1);
        // Print and re-parse for stability.
        let printed = print_op(&m.ctx, m.top());
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(print_op(&m2.ctx, m2.top()), printed);
    }

    #[test]
    fn parse_attributes_of_every_kind() {
        let text = "\"builtin.module\"() ({\n  ^bb():\n    \"test.op\"() {a = 1, b = \"s\", c = true, d = [1, 2], e = {x = 3}, f = affine_map<(m, n, k) -> (m, k)>, g = opcode_map<sA = [send_literal(34), send(0)]>, h = opcode_flow<(sA (sB))>, i = 2.5, j = i32} : () -> ()\n}) : () -> ()\n";
        let m = parse_module(text).unwrap();
        let op = m.ctx.find_ops(m.top(), OpKind::parse("test.op"))[0];
        assert_eq!(m.ctx.op(op).kind, OpKind::Unregistered("test.op".into()));
        assert_eq!(m.ctx.attr(op, "a").unwrap().as_int(), Some(1));
        assert_eq!(m.ctx.attr(op, "b").unwrap().as_str(), Some("s"));
        assert_eq!(m.ctx.attr(op, "c").unwrap().as_bool(), Some(true));
        assert_eq!(m.ctx.attr(op, "d").unwrap().as_array().unwrap().len(), 2);
        assert!(matches!(m.ctx.attr(op, "e").unwrap(), Attribute::Dict(_)));
        let map = m.ctx.attr(op, "f").unwrap().as_map().unwrap();
        assert_eq!(map.num_dims(), 3);
        let opcodes = m.ctx.attr(op, "g").unwrap().as_opcodes().unwrap();
        assert_eq!(opcodes.len(), 1);
        let flow = m.ctx.attr(op, "h").unwrap().as_flow().unwrap();
        assert_eq!(flow.depth(), 2);
        assert!(matches!(m.ctx.attr(op, "i").unwrap(), Attribute::Float(v) if *v == 2.5));
        assert!(matches!(m.ctx.attr(op, "j").unwrap(), Attribute::Type(Type::Int(32))));
        // Full roundtrip: the unregistered op prints back byte for byte.
        let printed = print_op(&m.ctx, m.top());
        assert_eq!(printed, text);
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(print_op(&m2.ctx, m2.top()), printed);
    }

    #[test]
    fn parse_memref_types_with_strides() {
        let text = "\"builtin.module\"() ({\n^bb():\n  %0 = \"memref.alloc\"() : () -> (memref<4x?xi32, strided<[80, 1]>>)\n}) : () -> ()\n";
        let m = parse_module(text).unwrap();
        let op = m.ctx.find_ops(m.top(), OpKind::MemrefAlloc)[0];
        let ty = m.ctx.value_type(m.ctx.result(op, 0));
        let mr = ty.as_memref().unwrap();
        assert_eq!(mr.shape, vec![4, DYNAMIC]);
        assert_eq!(mr.strides, Some(vec![80, 1]));
    }

    #[test]
    fn undefined_value_is_an_error() {
        let text =
            "\"builtin.module\"() ({\n^bb():\n  \"test.use\"(%9) : (i32) -> ()\n}) : () -> ()\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("undefined value"));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let text =
            "\"builtin.module\"() ({\n^bb():\n  %0 = \"c\"() : () -> (i32, i32)\n}) : () -> ()\n";
        let err = parse_module(text).unwrap_err();
        assert!(err.message.contains("results"), "{}", err.message);
    }

    #[test]
    fn comments_are_skipped() {
        let text = "// header comment\n\"builtin.module\"() ({\n^bb():\n  // inner comment\n  %0 = \"arith.constant\"() {value = 1} : () -> (i32)\n}) : () -> ()\n";
        let m = parse_module(text).unwrap();
        assert_eq!(m.ctx.find_ops(m.top(), OpKind::ArithConstant).len(), 1);
    }

    #[test]
    fn builder_output_roundtrips() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let c = b.insert_op(
            OpKind::ArithConstant,
            vec![],
            vec![Type::index()],
            [("value", Attribute::Int(42))],
        );
        let v = b.result(c);
        let (_, inner) =
            b.insert_region_op(OpKind::ScfFor, vec![v, v, v], vec![], [], vec![Type::index()]);
        b.set_insertion_end(inner);
        b.insert_op(OpKind::ScfYield, vec![], vec![], []);
        let printed = print_op(&m.ctx, m.top());
        let m2 = parse_module(&printed).unwrap();
        assert_eq!(print_op(&m2.ctx, m2.top()), printed);
    }
}
