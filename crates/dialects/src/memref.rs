//! The `memref` dialect: allocation, subviews, loads, and stores.

use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::kind::OpKind;
use axi4mlir_ir::ops::{OpId, ValueId};
use axi4mlir_ir::types::{MemRefType, Type};

/// Row-major strides for a static shape.
fn row_major_strides(shape: &[i64]) -> Vec<i64> {
    let mut strides = vec![1i64; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Builds `memref.alloc` of a contiguous row-major buffer.
pub fn alloc(b: &mut OpBuilder<'_>, shape: Vec<i64>, elem: Type) -> ValueId {
    let ty = Type::MemRef(MemRefType::contiguous(shape, elem));
    let op = b.insert_op(OpKind::MemrefAlloc, vec![], vec![ty], []);
    b.result(op)
}

/// Builds `memref.subview %source[%offsets][static sizes][1,...]`.
///
/// Offsets are dynamic values (loop induction variables in the paper's
/// generated code); sizes are static tile sizes stored as an attribute. The
/// result type is a strided memref preserving the source's strides.
///
/// # Panics
///
/// Panics if the source is not a memref or ranks disagree.
pub fn subview(
    b: &mut OpBuilder<'_>,
    source: ValueId,
    offsets: Vec<ValueId>,
    sizes: Vec<i64>,
) -> ValueId {
    let src_ty = b
        .ctx_ref()
        .value_type(source)
        .as_memref()
        .expect("subview source must be a memref")
        .clone();
    assert_eq!(offsets.len(), src_ty.rank(), "subview offsets rank mismatch");
    assert_eq!(sizes.len(), src_ty.rank(), "subview sizes rank mismatch");
    let strides = src_ty.strides.clone().unwrap_or_else(|| row_major_strides(&src_ty.shape));
    let result_ty =
        Type::MemRef(MemRefType::strided(sizes.clone(), (*src_ty.elem).clone(), strides));
    let mut operands = vec![source];
    operands.extend(offsets);
    let op = b.insert_op(
        OpKind::MemrefSubview,
        operands,
        vec![result_ty],
        [("static_sizes", Attribute::Array(sizes.into_iter().map(Attribute::Int).collect()))],
    );
    b.result(op)
}

/// Builds `memref.load %source[%indices]`.
pub fn load(b: &mut OpBuilder<'_>, source: ValueId, indices: Vec<ValueId>) -> ValueId {
    let elem = {
        let m = b.ctx_ref().value_type(source).as_memref().expect("load source must be a memref");
        (*m.elem).clone()
    };
    let mut operands = vec![source];
    operands.extend(indices);
    let op = b.insert_op(OpKind::MemrefLoad, operands, vec![elem], []);
    b.result(op)
}

/// Builds `memref.store %value, %dest[%indices]`.
pub fn store(b: &mut OpBuilder<'_>, value: ValueId, dest: ValueId, indices: Vec<ValueId>) -> OpId {
    let mut operands = vec![value, dest];
    operands.extend(indices);
    b.insert_op(OpKind::MemrefStore, operands, vec![], [])
}

/// Builds `memref.dim %source` with a static dimension attribute, returning
/// an `index` value (used by `accel.sendDim` lowering).
pub fn dim(b: &mut OpBuilder<'_>, source: ValueId, dimension: i64) -> ValueId {
    let op = b.insert_op(
        OpKind::MemrefDim,
        vec![source],
        vec![Type::index()],
        [("dimension", Attribute::Int(dimension))],
    );
    b.result(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;
    use axi4mlir_ir::ops::Module;
    use axi4mlir_ir::verifier::verify_ok;

    #[test]
    fn alloc_makes_contiguous_memref() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let v = alloc(&mut b, vec![60, 80], Type::i32());
        let ty = m.ctx.value_type(v).as_memref().unwrap();
        assert_eq!(ty.shape, vec![60, 80]);
        assert!(ty.strides.is_none());
    }

    #[test]
    fn subview_preserves_parent_strides() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let parent = alloc(&mut b, vec![60, 80], Type::i32());
        let z = arith::const_index(&mut b, 0);
        let tile = subview(&mut b, parent, vec![z, z], vec![4, 4]);
        let ty = m.ctx.value_type(tile).as_memref().unwrap();
        assert_eq!(ty.shape, vec![4, 4]);
        assert_eq!(ty.strides, Some(vec![80, 1]));
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
    }

    #[test]
    fn nested_subview_keeps_strides() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let parent = alloc(&mut b, vec![64, 64], Type::i32());
        let z = arith::const_index(&mut b, 0);
        let t1 = subview(&mut b, parent, vec![z, z], vec![16, 16]);
        let t2 = subview(&mut b, t1, vec![z, z], vec![4, 4]);
        let ty = m.ctx.value_type(t2).as_memref().unwrap();
        assert_eq!(ty.strides, Some(vec![64, 1]));
    }

    #[test]
    fn load_store_shapes() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let buf = alloc(&mut b, vec![8, 8], Type::f32());
        let i = arith::const_index(&mut b, 1);
        let v = load(&mut b, buf, vec![i, i]);
        let st = store(&mut b, v, buf, vec![i, i]);
        assert_eq!(*m.ctx.value_type(v), Type::f32());
        assert_eq!(m.ctx.op(st).operands.len(), 4);
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
    }

    #[test]
    fn subview_sizes_accessor() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let parent = alloc(&mut b, vec![60, 80], Type::i32());
        let z = arith::const_index(&mut b, 0);
        subview(&mut b, parent, vec![z, z], vec![4, 8]);
        let op = m.ctx.find_ops(m.top(), OpKind::MemrefSubview)[0];
        let sizes = m.ctx.attr(op, "static_sizes").and_then(|a| a.as_array()).unwrap();
        assert_eq!(sizes.iter().filter_map(|x| x.as_int()).collect::<Vec<_>>(), [4, 8]);
    }

    #[test]
    fn dim_returns_index() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let buf = alloc(&mut b, vec![1, 256, 3, 3], Type::i32());
        let d = dim(&mut b, buf, 1);
        assert_eq!(*m.ctx.value_type(d), Type::index());
    }
}
