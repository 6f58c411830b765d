//! The `arith` dialect: constants and integer/float arithmetic.

use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::kind::OpKind;
use axi4mlir_ir::ops::ValueId;
use axi4mlir_ir::types::Type;

/// Builds `arith.constant` with an integer `value` of type `ty`.
pub fn constant(b: &mut OpBuilder<'_>, value: i64, ty: Type) -> ValueId {
    let op =
        b.insert_op(OpKind::ArithConstant, vec![], vec![ty], [("value", Attribute::Int(value))]);
    b.result(op)
}

/// Builds an `index`-typed constant.
pub fn const_index(b: &mut OpBuilder<'_>, value: i64) -> ValueId {
    constant(b, value, Type::index())
}

/// Builds an `i32`-typed constant.
pub fn const_i32(b: &mut OpBuilder<'_>, value: i32) -> ValueId {
    constant(b, i64::from(value), Type::i32())
}

fn binary(b: &mut OpBuilder<'_>, kind: OpKind, lhs: ValueId, rhs: ValueId) -> ValueId {
    let ty = b.ctx_ref().value_type(lhs).clone();
    let op = b.insert_op(kind, vec![lhs, rhs], vec![ty], []);
    b.result(op)
}

/// Builds `arith.addi`.
pub fn addi(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, OpKind::ArithAddi, lhs, rhs)
}

/// Builds `arith.muli`.
pub fn muli(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, OpKind::ArithMuli, lhs, rhs)
}

/// Builds `arith.addf`.
pub(crate) fn addf(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, OpKind::ArithAddf, lhs, rhs)
}

/// Builds `arith.mulf`.
pub(crate) fn mulf(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
    binary(b, OpKind::ArithMulf, lhs, rhs)
}

/// Builds `arith.index_cast` converting between `index` and integer types.
pub fn index_cast(b: &mut OpBuilder<'_>, value: ValueId, to: Type) -> ValueId {
    let op = b.insert_op(OpKind::ArithIndexCast, vec![value], vec![to], []);
    b.result(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_ir::ops::Module;

    #[test]
    fn constants_carry_value_and_type() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let v = const_index(&mut b, 42);
        assert_eq!(*m.ctx.value_type(v), Type::index());
        let constant = m.ctx.find_ops(m.top(), OpKind::ArithConstant)[0];
        assert_eq!(m.ctx.attr(constant, "value").and_then(|a| a.as_int()), Some(42));
    }

    #[test]
    fn binary_ops_infer_type_from_lhs() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let x = const_i32(&mut b, 2);
        let y = const_i32(&mut b, 3);
        let sum = addi(&mut b, x, y);
        let prod = muli(&mut b, x, y);
        assert_eq!(*m.ctx.value_type(sum), Type::i32());
        assert_eq!(*m.ctx.value_type(prod), Type::i32());
    }

    #[test]
    fn float_ops() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let x = constant(&mut b, 0, Type::f32());
        let s = addf(&mut b, x, x);
        let p = mulf(&mut b, x, s);
        assert_eq!(*m.ctx.value_type(p), Type::f32());
    }
}
