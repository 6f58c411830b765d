//! Textual IR output in MLIR's *generic* operation form.
//!
//! Every op prints as
//!
//! ```text
//! %0, %1 = "dialect.op"(%a, %b) ({ ... regions ... }) {attr = value} : (i32, i32) -> (i32, i32)
//! ```
//!
//! which [`crate::parser`] can read back. Round-tripping is tested for
//! every construct the compiler emits.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::ops::{BlockId, IrCtx, OpId, ValueId};

/// Prints `root` (and everything nested) to a string.
pub fn print_op(ctx: &IrCtx, root: OpId) -> String {
    let mut p = Printer { ctx, names: HashMap::new(), next: 0, out: String::new() };
    p.op(root, 0);
    p.out
}

struct Printer<'a> {
    ctx: &'a IrCtx,
    names: HashMap<ValueId, usize>,
    next: usize,
    out: String,
}

impl<'a> Printer<'a> {
    fn name_of(&mut self, value: ValueId) -> usize {
        if let Some(n) = self.names.get(&value) {
            return *n;
        }
        let n = self.next;
        self.next += 1;
        self.names.insert(value, n);
        n
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn op(&mut self, op: OpId, depth: usize) {
        let data = self.ctx.op(op);
        self.indent(depth);
        // Results.
        if !data.results.is_empty() {
            for (i, r) in data.results.clone().iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                let n = self.name_of(*r);
                let _ = write!(self.out, "%{n}");
            }
            self.out.push_str(" = ");
        }
        let _ = write!(self.out, "{:?}(", data.kind.name());
        for (i, operand) in data.operands.clone().iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.name_of(*operand);
            let _ = write!(self.out, "%{n}");
        }
        self.out.push(')');
        // Regions.
        let regions = data.regions.clone();
        if !regions.is_empty() {
            self.out.push_str(" (");
            for (i, region) in regions.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.out.push_str("{\n");
                for block in self.ctx.region(*region).blocks.clone() {
                    self.block(block, depth + 1);
                }
                self.indent(depth);
                self.out.push('}');
            }
            self.out.push(')');
        }
        // Attributes (BTreeMap: deterministic order).
        let data = self.ctx.op(op);
        if !data.attrs.is_empty() {
            self.out.push_str(" {");
            for (i, (k, v)) in data.attrs.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                let _ = write!(self.out, "{k} = {v}");
            }
            self.out.push('}');
        }
        // Trailing function type.
        let operand_types: Vec<String> =
            data.operands.iter().map(|v| self.ctx.value_type(*v).to_string()).collect();
        let result_types: Vec<String> =
            data.results.iter().map(|v| self.ctx.value_type(*v).to_string()).collect();
        let _ =
            write!(self.out, " : ({}) -> ({})", operand_types.join(", "), result_types.join(", "));
        self.out.push('\n');
    }

    fn block(&mut self, block: BlockId, depth: usize) {
        let data = self.ctx.block(block);
        self.indent(depth);
        let _ = write!(self.out, "^bb(");
        for (i, arg) in data.args.clone().iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let n = self.name_of(*arg);
            let ty = self.ctx.value_type(*arg).to_string();
            let _ = write!(self.out, "%{n}: {ty}");
        }
        self.out.push_str("):\n");
        for op in self.ctx.block(block).ops.clone() {
            self.op(op, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attribute;
    use crate::builder::OpBuilder;
    use crate::kind::OpKind;
    use crate::ops::Module;
    use crate::types::{MemRefType, Type};

    #[test]
    fn prints_constant() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        b.insert_op(
            OpKind::ArithConstant,
            vec![],
            vec![Type::index()],
            [("value", Attribute::Int(4))],
        );
        let text = print_op(&m.ctx, m.top());
        assert!(text.contains("%0 = \"arith.constant\"() {value = 4} : () -> (index)"), "{text}");
    }

    #[test]
    fn prints_operands_and_multiple_results() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let c = b.insert_op(
            OpKind::ArithConstant,
            vec![],
            vec![Type::i32()],
            [("value", Attribute::Int(1))],
        );
        let v = b.result(c);
        b.insert_op(OpKind::parse("test.pair"), vec![v, v], vec![Type::i32(), Type::i32()], []);
        let text = print_op(&m.ctx, m.top());
        assert!(text.contains("%1, %2 = \"test.pair\"(%0, %0)"), "{text}");
        assert!(text.contains(": (i32, i32) -> (i32, i32)"), "{text}");
    }

    #[test]
    fn prints_nested_regions_with_block_args() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let (_, inner) =
            b.insert_region_op(OpKind::ScfFor, vec![], vec![], [], vec![Type::index()]);
        b.set_insertion_end(inner);
        b.insert_op(OpKind::ScfYield, vec![], vec![], []);
        let text = print_op(&m.ctx, m.top());
        assert!(text.contains("\"scf.for\"() ({"), "{text}");
        assert!(text.contains("^bb(%0: index):"), "{text}");
        assert!(text.contains("\"scf.yield\"()"), "{text}");
    }

    #[test]
    fn prints_memref_types() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let ty = Type::MemRef(MemRefType::contiguous(vec![60, 80], Type::f32()));
        b.insert_op(OpKind::MemrefAlloc, vec![], vec![ty], []);
        let text = print_op(&m.ctx, m.top());
        assert!(text.contains("() -> (memref<60x80xf32>)"), "{text}");
    }

    #[test]
    fn dead_ops_do_not_print() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let op = b.insert_op(OpKind::parse("test.dead"), vec![], vec![], []);
        m.ctx.erase_op(op);
        let text = print_op(&m.ctx, m.top());
        assert!(!text.contains("test.dead"));
    }
}
