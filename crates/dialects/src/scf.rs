//! The `scf` dialect: structured control flow (`scf.for`, `scf.yield`).

use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::ops::{BlockId, IrCtx, OpId, ValueId};
use axi4mlir_ir::types::Type;

/// A freshly built `scf.for` loop.
#[derive(Clone, Copy, Debug)]
pub struct ForLoop {
    /// The `scf.for` operation.
    pub op: OpId,
    /// The loop body block (already terminated by `scf.yield`).
    pub body: BlockId,
    /// The induction variable (block argument 0).
    pub iv: ValueId,
}

/// Builds `scf.for %iv = %lb to %ub step %step` with an empty body that ends
/// in `scf.yield`. The builder's insertion point is left *after* the loop in
/// the enclosing block; use [`body_builder`] to fill the body.
pub fn for_loop(b: &mut OpBuilder<'_>, lb: ValueId, ub: ValueId, step: ValueId) -> ForLoop {
    let (op, body) =
        b.insert_region_op("scf.for", vec![lb, ub, step], vec![], [], vec![Type::index()]);
    let iv = b.ctx_ref().block_arg(body, 0);
    // Terminate.
    {
        let ctx = b.ctx();
        let yield_op = ctx.create_op("scf.yield", vec![], vec![], Default::default());
        ctx.append_op(body, yield_op);
    }
    ForLoop { op, body, iv }
}

/// Returns a builder positioned just before the body's `scf.yield`.
pub fn body_builder<'a>(ctx: &'a mut IrCtx, loop_: &ForLoop) -> OpBuilder<'a> {
    let len = ctx.block(loop_.body).ops.len();
    debug_assert!(len >= 1, "loop body must end in scf.yield");
    OpBuilder::at(ctx, loop_.body, len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;
    use axi4mlir_ir::ops::Module;
    use axi4mlir_ir::printer::print_op;
    use axi4mlir_ir::verifier::verify_ok;

    #[test]
    fn builds_terminated_loop() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let lb = arith::const_index(&mut b, 0);
        let ub = arith::const_index(&mut b, 60);
        let step = arith::const_index(&mut b, 4);
        let l = for_loop(&mut b, lb, ub, step);
        assert_eq!(m.ctx.op(l.op).name, "scf.for");
        assert_eq!(m.ctx.op(l.op).operands, [lb, ub, step]);
        assert_eq!(m.ctx.block_arg(l.body, 0), l.iv);
        let ops = &m.ctx.block(l.body).ops;
        assert_eq!(ops.len(), 1);
        assert_eq!(m.ctx.op(ops[0]).name, "scf.yield");
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
    }

    #[test]
    fn body_builder_inserts_before_yield() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let c = arith::const_index(&mut b, 0);
        let l = for_loop(&mut b, c, c, c);
        let mut bb = body_builder(&mut m.ctx, &l);
        arith::const_index(&mut bb, 7);
        let names: Vec<&str> =
            m.ctx.block(l.body).ops.iter().map(|o| &*m.ctx.op(*o).name).collect();
        assert_eq!(names, vec!["arith.constant", "scf.yield"]);
    }

    #[test]
    fn nested_loops_print_and_verify() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let c0 = arith::const_index(&mut b, 0);
        let c4 = arith::const_index(&mut b, 4);
        let c60 = arith::const_index(&mut b, 60);
        let outer = for_loop(&mut b, c0, c60, c4);
        let mut ob = body_builder(&mut m.ctx, &outer);
        let inner = for_loop(&mut ob, c0, c60, c4);
        let mut ib = body_builder(&mut m.ctx, &inner);
        arith::addi(&mut ib, outer.iv, inner.iv);
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
        let text = print_op(&m.ctx, m.top());
        assert_eq!(text.matches("scf.for").count(), 2);
        assert_eq!(text.matches("scf.yield").count(), 2);
    }
}
