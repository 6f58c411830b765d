//! The `linalg` dialect: `linalg.generic`, named ops, and trait matching.
//!
//! AXI4MLIR's step 3 ("match and annotate operations for runtime
//! replacement") finds `linalg.generic` operations whose *operation trait*
//! — `indexing_maps` + `iterator_types` (Fig. 2a) — matches the kernel the
//! accelerator implements. This module provides the builders for those ops
//! and the matching predicates.

use axi4mlir_ir::affine::AffineMap;
use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::kind::OpKind;
use axi4mlir_ir::ops::{IrCtx, OpId, ValueId};
use axi4mlir_ir::types::Type;
use axi4mlir_support::diag::Diagnostic;

use crate::arith;

/// Iterator kind names used in `iterator_types`.
const PARALLEL: &str = "parallel";
/// Reduction iterator kind.
const REDUCTION: &str = "reduction";

/// The canonical MatMul indexing maps `(m, n, k) -> (m, k) / (k, n) / (m, n)`.
fn matmul_indexing_maps() -> Vec<AffineMap> {
    let names: Vec<String> = ["m", "n", "k"].iter().map(|s| (*s).to_owned()).collect();
    vec![
        AffineMap::projection(names.clone(), &[0, 2]),
        AffineMap::projection(names.clone(), &[2, 1]),
        AffineMap::projection(names, &[0, 1]),
    ]
}

/// Builds a `linalg.generic` with the MatMul trait over `%a`, `%b`, `%c`
/// (Fig. 2a): indexing maps, iterator types, and a `mul`+`add` body.
pub fn generic_matmul(b: &mut OpBuilder<'_>, a: ValueId, b_val: ValueId, c: ValueId) -> OpId {
    let elem = {
        let m = b.ctx_ref().value_type(a).as_memref().expect("linalg operand must be a memref");
        (*m.elem).clone()
    };
    let maps = matmul_indexing_maps().into_iter().map(Attribute::Map).collect();
    let iters = vec![
        Attribute::Str(PARALLEL.to_owned()),
        Attribute::Str(PARALLEL.to_owned()),
        Attribute::Str(REDUCTION.to_owned()),
    ];
    let op = b.insert_op(
        OpKind::LinalgGeneric,
        vec![a, b_val, c],
        vec![],
        [
            ("indexing_maps", Attribute::Array(maps)),
            ("iterator_types", Attribute::Array(iters)),
            ("num_inputs", Attribute::Int(2)),
        ],
    );
    // Body: ^bb0(%ae, %be, %ce): yield(ce + ae*be).
    let region = b.ctx().add_region(op);
    let body = b.ctx().add_block(region, vec![elem.clone(), elem.clone(), elem]);
    let mut bb = OpBuilder::at_end(b.ctx(), body);
    let ae = bb.ctx_ref().block_arg(body, 0);
    let be = bb.ctx_ref().block_arg(body, 1);
    let ce = bb.ctx_ref().block_arg(body, 2);
    let is_float = matches!(bb.ctx_ref().value_type(ae), Type::Float(_));
    let prod = if is_float { arith::mulf(&mut bb, ae, be) } else { arith::muli(&mut bb, ae, be) };
    let sum =
        if is_float { arith::addf(&mut bb, ce, prod) } else { arith::addi(&mut bb, ce, prod) };
    bb.insert_op(OpKind::LinalgYield, vec![sum], vec![], []);
    op
}

/// Builds the named op `linalg.matmul ins(%a, %b) outs(%c)`.
pub fn named_matmul(b: &mut OpBuilder<'_>, a: ValueId, b_val: ValueId, c: ValueId) -> OpId {
    b.insert_op(
        OpKind::LinalgMatmul,
        vec![a, b_val, c],
        vec![],
        [("num_inputs", Attribute::Int(2))],
    )
}

/// Builds `linalg.conv_2d_nchw_fchw ins(%input, %filter) outs(%output)`
/// with the given spatial stride.
pub fn conv_2d_nchw_fchw(
    b: &mut OpBuilder<'_>,
    input: ValueId,
    filter: ValueId,
    output: ValueId,
    stride: i64,
) -> OpId {
    b.insert_op(
        OpKind::LinalgConv2dNchwFchw,
        vec![input, filter, output],
        vec![],
        [
            ("num_inputs", Attribute::Int(2)),
            ("strides", Attribute::Array(vec![Attribute::Int(stride), Attribute::Int(stride)])),
        ],
    )
}

/// Rewrites every `linalg.matmul` under `root` into an equivalent
/// `linalg.generic` (AXI4MLIR flow step: "convert named ops to
/// linalg.generic"). Returns how many ops were converted.
pub fn convert_named_to_generic(ctx: &mut IrCtx, root: OpId) -> usize {
    let named = ctx.find_ops(root, OpKind::LinalgMatmul);
    let count = named.len();
    for op in named {
        let block = ctx.op(op).parent.expect("matmul must be attached");
        let index = ctx.position_in_block(op).expect("attached");
        let operands = ctx.op(op).operands.clone();
        ctx.erase_op(op);
        let mut b = OpBuilder::at(ctx, block, index);
        generic_matmul(&mut b, operands[0], operands[1], operands[2]);
    }
    count
}

/// The `indexing_maps` attribute of a linalg op.
fn indexing_maps(ctx: &IrCtx, op: OpId) -> Option<Vec<AffineMap>> {
    let arr = ctx.attr(op, "indexing_maps")?.as_array()?;
    arr.iter().map(|a| a.as_map().cloned()).collect()
}

/// The `iterator_types` attribute of a linalg op.
fn iterator_types(ctx: &IrCtx, op: OpId) -> Option<Vec<String>> {
    let arr = ctx.attr(op, "iterator_types")?.as_array()?;
    arr.iter().map(|a| a.as_str().map(str::to_owned)).collect()
}

/// Whether `op` is a `linalg.generic` carrying the MatMul trait — the
/// predicate AXI4MLIR's match step applies.
pub fn is_matmul_generic(ctx: &IrCtx, op: OpId) -> bool {
    if ctx.op(op).kind != OpKind::LinalgGeneric {
        return false;
    }
    let Some(maps) = indexing_maps(ctx, op) else { return false };
    let Some(iters) = iterator_types(ctx, op) else { return false };
    if iters != [PARALLEL, PARALLEL, REDUCTION] {
        return false;
    }
    let dims: Option<Vec<Vec<usize>>> = maps.iter().map(|m| m.projected_dims()).collect();
    dims == Some(vec![vec![0, 2], vec![2, 1], vec![0, 1]])
}

/// Static `(M, N, K)` of a MatMul-traited linalg op, read from its memref
/// operand shapes.
pub fn matmul_dims(ctx: &IrCtx, op: OpId) -> Option<(i64, i64, i64)> {
    let operands = &ctx.op(op).operands;
    if operands.len() != 3 {
        return None;
    }
    let a = ctx.value_type(operands[0]).as_memref()?;
    let b = ctx.value_type(operands[1]).as_memref()?;
    if a.rank() != 2 || b.rank() != 2 {
        return None;
    }
    Some((a.shape[0], b.shape[1], a.shape[1]))
}

/// The spatial stride of a `linalg.conv_2d_nchw_fchw` op: the first
/// entry of its `strides` attribute, 1 without one. The dialect verifier
/// refuses one that is not positive.
pub fn conv_stride(ctx: &IrCtx, op: OpId) -> i64 {
    ctx.attr(op, "strides")
        .and_then(Attribute::as_array)
        .and_then(|strides| strides.first())
        .and_then(Attribute::as_int)
        .unwrap_or(1)
}

/// Static extents of a `linalg.conv_2d_nchw_fchw` op's operands, in
/// operand order: input `[b, ic, h, w]`, filter `[oc, ic, fh, fw]`,
/// output `[b, oc, oh, ow]`.
///
/// # Errors
///
/// Returns a [`Diagnostic`] naming the operand when the op does not have
/// exactly those three operands, or one of them is not a rank-4 memref of
/// static extents.
pub fn conv_shapes(ctx: &IrCtx, op: OpId) -> Result<[[i64; 4]; 3], Diagnostic> {
    let operands = &ctx.op(op).operands;
    let mut shapes = [[0; 4]; 3];
    if operands.len() != shapes.len() {
        return Err(Diagnostic::error(format!(
            "conv expects the operands (input, filter, output), found {}",
            operands.len()
        )));
    }
    for ((shape, value), operand) in
        shapes.iter_mut().zip(operands).zip(["input", "filter", "output"])
    {
        let found = ctx.value_type(*value);
        *shape = found
            .as_memref()
            .and_then(|m| <[i64; 4]>::try_from(m.shape.as_slice()).ok())
            .filter(|extents| extents.iter().all(|&extent| extent >= 0))
            .ok_or_else(|| {
                Diagnostic::error(format!(
                    "conv {operand} operand must be a rank-4 memref of static extents, found {found}"
                ))
            })?;
    }
    Ok(shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memref;
    use axi4mlir_ir::ops::Module;
    use axi4mlir_ir::printer::print_op;
    use axi4mlir_ir::types::DYNAMIC;
    use axi4mlir_ir::verifier::verify_ok;

    fn matmul_module(m_dim: i64, n_dim: i64, k_dim: i64) -> (Module, OpId) {
        let mut m = Module::new();
        let f = crate::func::func(&mut m, "matmul_call", vec![], vec![]);
        let mut b = crate::func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![m_dim, k_dim], Type::i32());
        let bb = memref::alloc(&mut b, vec![k_dim, n_dim], Type::i32());
        let c = memref::alloc(&mut b, vec![m_dim, n_dim], Type::i32());
        let op = generic_matmul(&mut b, a, bb, c);
        (m, op)
    }

    #[test]
    fn generic_matmul_has_the_fig2a_trait() {
        let (m, op) = matmul_module(60, 72, 80);
        assert!(is_matmul_generic(&m.ctx, op));
        assert_eq!(matmul_dims(&m.ctx, op), Some((60, 72, 80)));
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
        let printed = print_op(&m.ctx, m.top());
        assert!(printed.contains("affine_map<(m, n, k) -> (m, k)>"), "{printed}");
        assert!(printed.contains("\"parallel\", \"parallel\", \"reduction\""), "{printed}");
        assert!(printed.contains("linalg.yield"), "{printed}");
    }

    #[test]
    fn float_matmul_body_uses_float_arith() {
        let mut m = Module::new();
        let f = crate::func::func(&mut m, "f", vec![], vec![]);
        let mut b = crate::func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![4, 4], Type::f32());
        let bb = memref::alloc(&mut b, vec![4, 4], Type::f32());
        let c = memref::alloc(&mut b, vec![4, 4], Type::f32());
        generic_matmul(&mut b, a, bb, c);
        let printed = print_op(&m.ctx, m.top());
        assert!(printed.contains("arith.mulf"));
        assert!(printed.contains("arith.addf"));
    }

    #[test]
    fn non_matmul_traits_do_not_match() {
        let mut m = Module::new();
        let f = crate::func::func(&mut m, "f", vec![], vec![]);
        let mut b = crate::func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![4, 4], Type::i32());
        let op = b.insert_op(OpKind::LinalgGeneric, vec![a, a, a], vec![], []);
        // A transposed-B variant must not match either.
        let names: Vec<String> = ["m", "n", "k"].iter().map(|s| (*s).to_owned()).collect();
        let wrong_maps = vec![
            AffineMap::projection(names.clone(), &[0, 2]),
            AffineMap::projection(names.clone(), &[1, 2]), // B transposed
            AffineMap::projection(names, &[0, 1]),
        ];
        let op2 = b.insert_op(
            OpKind::LinalgGeneric,
            vec![a, a, a],
            vec![],
            [
                (
                    "indexing_maps",
                    Attribute::Array(wrong_maps.into_iter().map(Attribute::Map).collect()),
                ),
                (
                    "iterator_types",
                    Attribute::Array(vec![
                        Attribute::Str(PARALLEL.to_owned()),
                        Attribute::Str(PARALLEL.to_owned()),
                        Attribute::Str(REDUCTION.to_owned()),
                    ]),
                ),
            ],
        );
        assert!(!is_matmul_generic(&m.ctx, op), "missing trait attrs");
        assert!(!is_matmul_generic(&m.ctx, op2));
    }

    #[test]
    fn named_matmul_converts_to_generic() {
        let mut m = Module::new();
        let f = crate::func::func(&mut m, "f", vec![], vec![]);
        let mut b = crate::func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![8, 8], Type::i32());
        let bb = memref::alloc(&mut b, vec![8, 8], Type::i32());
        let c = memref::alloc(&mut b, vec![8, 8], Type::i32());
        named_matmul(&mut b, a, bb, c);
        let top = m.top();
        let converted = convert_named_to_generic(&mut m.ctx, top);
        assert_eq!(converted, 1);
        assert!(m.ctx.find_ops(m.top(), OpKind::LinalgMatmul).is_empty());
        let generics = m.ctx.find_ops(m.top(), OpKind::LinalgGeneric);
        assert_eq!(generics.len(), 1);
        assert!(is_matmul_generic(&m.ctx, generics[0]));
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
    }

    #[test]
    fn conv_named_op_carries_strides() {
        let mut m = Module::new();
        let f = crate::func::func(&mut m, "f", vec![], vec![]);
        let mut b = crate::func::entry_builder(&mut m.ctx, &f);
        let i = memref::alloc(&mut b, vec![1, 256, 7, 7], Type::i32());
        let w = memref::alloc(&mut b, vec![64, 256, 3, 3], Type::i32());
        let o = memref::alloc(&mut b, vec![1, 64, 5, 5], Type::i32());
        let op = conv_2d_nchw_fchw(&mut b, i, w, o, 1);
        let strides = m.ctx.attr(op, "strides").unwrap().as_array().unwrap();
        assert_eq!(strides.len(), 2);
        assert!(!is_matmul_generic(&m.ctx, op));
        assert_eq!(
            conv_shapes(&m.ctx, op).unwrap(),
            [[1, 256, 7, 7], [64, 256, 3, 3], [1, 64, 5, 5]]
        );
    }

    #[test]
    fn conv_shapes_blames_the_operand() {
        let mut m = Module::new();
        let f = crate::func::func(&mut m, "f", vec![], vec![]);
        let mut b = crate::func::entry_builder(&mut m.ctx, &f);
        let i = memref::alloc(&mut b, vec![1, 256, 7, 7], Type::i32());
        let w = memref::alloc(&mut b, vec![64, 256, DYNAMIC, 3], Type::i32());
        let o = memref::alloc(&mut b, vec![64, 25], Type::i32());
        let dynamic = conv_2d_nchw_fchw(&mut b, i, w, i, 1);
        let err = conv_shapes(&m.ctx, dynamic).unwrap_err();
        assert!(err.message.contains("conv filter operand"), "{}", err.message);
        let mut b = crate::func::entry_builder(&mut m.ctx, &f);
        let flat = conv_2d_nchw_fchw(&mut b, i, i, o, 1);
        let err = conv_shapes(&m.ctx, flat).unwrap_err();
        assert!(err.message.contains("conv output operand"), "{}", err.message);
    }

    #[test]
    fn indexing_map_roundtrip_through_text() {
        let (m, _) = matmul_module(16, 16, 16);
        let printed = print_op(&m.ctx, m.top());
        let m2 = axi4mlir_ir::parser::parse_module(&printed).unwrap();
        let generics = m2.ctx.find_ops(m2.top(), OpKind::LinalgGeneric);
        assert_eq!(generics.len(), 1);
        assert!(is_matmul_generic(&m2.ctx, generics[0]), "trait must survive round-trip");
        assert_eq!(matmul_dims(&m2.ctx, generics[0]), Some((16, 16, 16)));
    }
}
