//! The `func` dialect: functions, returns, and calls.

use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::kind::OpKind;
use axi4mlir_ir::ops::{BlockId, IrCtx, Module, OpId, ValueId};
use axi4mlir_ir::types::Type;

/// A freshly built `func.func`.
#[derive(Clone, Copy, Debug)]
pub struct Func {
    /// The `func.func` operation.
    pub op: OpId,
    /// The entry block (its arguments are the function arguments).
    pub entry: BlockId,
}

/// Creates `func.func @name(arg_types) -> result_types` in the module body,
/// terminated by `func.return` (of no operands; callers building non-void
/// functions replace it).
pub fn func(
    module: &mut Module,
    name: &str,
    arg_types: Vec<Type>,
    result_types: Vec<Type>,
) -> Func {
    let body = module.body();
    let mut b = OpBuilder::at_end(&mut module.ctx, body);
    let (op, entry) = b.insert_region_op(
        OpKind::FuncFunc,
        vec![],
        vec![],
        [
            ("sym_name", Attribute::Str(name.to_owned())),
            (
                "arg_types",
                Attribute::Array(arg_types.iter().cloned().map(Attribute::Type).collect()),
            ),
            (
                "result_types",
                Attribute::Array(result_types.iter().cloned().map(Attribute::Type).collect()),
            ),
        ],
        arg_types,
    );
    let ret = module.ctx.create_op(OpKind::FuncReturn, vec![], vec![], Default::default());
    module.ctx.append_op(entry, ret);
    Func { op, entry }
}

/// Returns a builder positioned just before the entry block's terminator.
pub fn entry_builder<'a>(ctx: &'a mut IrCtx, f: &Func) -> OpBuilder<'a> {
    let len = ctx.block(f.entry).ops.len();
    OpBuilder::at(ctx, f.entry, len.saturating_sub(1))
}

/// Builds `func.call @callee(args) -> result_types`.
pub fn call(
    b: &mut OpBuilder<'_>,
    callee: &str,
    args: Vec<ValueId>,
    result_types: Vec<Type>,
) -> OpId {
    b.insert_op(
        OpKind::FuncCall,
        args,
        result_types,
        [("callee", Attribute::Str(callee.to_owned()))],
    )
}

/// The callee symbol of a `func.call`.
pub fn callee(ctx: &IrCtx, op: OpId) -> Option<&str> {
    if ctx.op(op).kind != OpKind::FuncCall {
        return None;
    }
    ctx.attr(op, "callee").and_then(|a| a.as_str())
}

/// The `index`-th argument value of a `func.func`.
///
/// # Panics
///
/// Panics if out of range or not a func.
pub fn arg(ctx: &IrCtx, f: OpId, index: usize) -> ValueId {
    assert_eq!(ctx.op(f).kind, OpKind::FuncFunc);
    let entry = ctx.sole_block(f, 0);
    ctx.block_arg(entry, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_ir::types::MemRefType;
    use axi4mlir_ir::verifier::verify_ok;

    #[test]
    fn builds_named_function_with_args() {
        let mut m = Module::new();
        let mr = Type::MemRef(MemRefType::contiguous(vec![4, 4], Type::i32()));
        let f = func(&mut m, "matmul_call", vec![mr.clone(), mr.clone(), mr], vec![]);
        assert_eq!(m.ctx.block(f.entry).args.len(), 3);
        assert_eq!(m.func_named("matmul_call"), Some(f.op));
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
        let a0 = arg(&m.ctx, f.op, 0);
        assert!(m.ctx.value_type(a0).as_memref().is_some());
    }

    #[test]
    fn entry_builder_keeps_terminator_last() {
        let mut m = Module::new();
        let f = func(&mut m, "f", vec![], vec![]);
        let mut b = entry_builder(&mut m.ctx, &f);
        crate::arith::const_index(&mut b, 5);
        let names: Vec<&str> =
            m.ctx.block(f.entry).ops.iter().map(|o| m.ctx.op(*o).kind.name()).collect();
        assert_eq!(names, vec!["arith.constant", "func.return"]);
    }

    #[test]
    fn call_records_callee() {
        let mut m = Module::new();
        let f = func(&mut m, "main", vec![], vec![]);
        let mut b = entry_builder(&mut m.ctx, &f);
        let c = call(&mut b, "dma_wait_send_completion", vec![], vec![]);
        assert_eq!(callee(&m.ctx, c), Some("dma_wait_send_completion"));
    }
}
