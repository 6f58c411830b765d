//! Dialect-aware verification, layered on the structural verifier.
//!
//! [`check_op`] owns every rule whose input is the module alone: operand
//! and result counts, memref ranks, static shapes and the attributes an
//! op is read by. [`verify_dialects`] reports it for every op, and the
//! interpreter refuses an op on it before it resolves what the op does,
//! so a module this verifier accepts breaks no assumption the
//! interpreter makes about it.

use std::borrow::Cow;

use axi4mlir_ir::affine::AffineMap;
use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::kind::OpKind;
use axi4mlir_ir::ops::{BlockData, IrCtx, Module, OpData, OpId};
use axi4mlir_ir::pass::Pass;
use axi4mlir_ir::types::{MemRefType, Type};
use axi4mlir_sim::mem::CAPACITY;
use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};

use crate::{accel, linalg};

/// Verifies dialect-specific invariants for every op under `root`.
///
/// # Errors
///
/// Returns the first violation; every op's first violation lands in
/// `diags`.
pub fn verify_dialects(
    ctx: &IrCtx,
    root: OpId,
    diags: &mut DiagnosticEngine,
) -> Result<(), Diagnostic> {
    for op in ctx.walk(root) {
        if let Err(defect) = check_op(ctx, op) {
            diags.error(defect);
        }
    }
    diags.result()
}

/// Checks `op` against its dialect's rules.
///
/// # Errors
///
/// Returns the first rule `op` breaks, as `"{name} ({op}): {rule}"`.
pub fn check_op(ctx: &IrCtx, op: OpId) -> Result<(), String> {
    rule(ctx, op).map_err(|defect| format!("{} ({op}): {defect}", ctx.op(op).kind))
}

/// A broken rule, formatted only when one is.
type Rule = Result<(), Cow<'static, str>>;

/// Holds when `holds` does; else breaks `rule`.
fn ensure(holds: bool, rule: &'static str) -> Rule {
    holds.then_some(()).ok_or(Cow::Borrowed(rule))
}

/// Holds when `data` has `operands` operands (`None`: any number) and
/// `results` results.
fn counts(data: &OpData, operands: Option<usize>, results: usize) -> Rule {
    let (o, r) = (data.operands.len(), data.results.len());
    if operands.unwrap_or(o) == o && results == r {
        return Ok(());
    }
    let operands = operands.map_or_else(|| "any".to_owned(), |n| n.to_string());
    Err(format!("takes {operands} operand(s) and {results} result(s); found {o} and {r}").into())
}

/// The only block of `data`'s only region.
fn sole_block<'a>(ctx: &'a IrCtx, data: &OpData) -> Result<&'a BlockData, &'static str> {
    if let [region] = data.regions[..] {
        if let [block] = ctx.region(region).blocks[..] {
            return Ok(ctx.block(block));
        }
    }
    Err("expects one region with one block")
}

/// Whether `block` ends in an op of `kind`.
fn ends_in(ctx: &IrCtx, block: &BlockData, kind: OpKind) -> bool {
    block.ops.last().is_some_and(|op| ctx.op(*op).kind == kind)
}

/// Whether every extent of `m` is static.
fn is_static(m: &MemRefType) -> bool {
    m.shape.iter().all(|&extent| extent >= 0)
}

/// Bytes a buffer of static type `m` occupies, `None` past `u64`.
fn byte_size(m: &MemRefType) -> Option<u64> {
    let width = match *m.elem {
        Type::Int(bits) | Type::Float(bits) => u64::from(bits).div_ceil(8),
        _ => 8,
    };
    m.shape.iter().try_fold(width, |bytes, &extent| bytes.checked_mul(extent as u64))
}

fn rule(ctx: &IrCtx, op: OpId) -> Rule {
    let data = ctx.op(op);
    let memref = |i: usize| data.operands.get(i).and_then(|v| ctx.value_type(*v).as_memref());
    let result = |i: usize| data.results.get(i).map(|v| ctx.value_type(*v));
    let index = |ty: &Type| *ty == Type::Index;
    use OpKind::*;
    match data.kind {
        ScfFor => {
            ensure(data.operands.len() == 3, "expects exactly (lb, ub, step) operands")?;
            let bounds = data.operands.iter().all(|v| index(ctx.value_type(*v)));
            ensure(bounds, "loop bounds must have index type")?;
            counts(data, None, 0)?;
            let body = sole_block(ctx, data)?;
            let iv = matches!(body.args[..], [iv] if index(ctx.value_type(iv)));
            ensure(iv, "body must have a single index argument")?;
            ensure(ends_in(ctx, body, ScfYield), "body must terminate with scf.yield")
        }
        FuncFunc => {
            let named = ctx.attr(op, "sym_name").and_then(Attribute::as_str).is_some();
            ensure(named, "missing sym_name attribute")?;
            let returns = ends_in(ctx, sole_block(ctx, data)?, FuncReturn);
            ensure(returns, "body must terminate with func.return")
        }
        // The callee's arity is the runtime library's ABI, which the
        // interpreter owns.
        FuncCall => {
            let callee = ctx.attr(op, "callee").and_then(Attribute::as_str);
            ensure(callee.is_some(), "missing callee attribute")
        }
        MemrefAlloc => {
            counts(data, Some(0), 1)?;
            let buffer = result(0).and_then(Type::as_memref).filter(|m| is_static(m));
            let buffer = buffer.ok_or("result must be a memref of static extents")?;
            let fits = byte_size(buffer).is_some_and(|bytes| bytes <= CAPACITY);
            ensure(fits, "result must fit the simulated memory's capacity")
        }
        MemrefLoad | MemrefStore => {
            // A store's value comes before the memref; indices follow it.
            let (at, results) = if data.kind == MemrefLoad { (0, 1) } else { (1, 0) };
            ensure(data.operands.len() > at, "missing memref operand")?;
            let rank = memref(at).ok_or("the indexed operand must be a memref")?.rank();
            ensure(data.operands.len() == at + 1 + rank, "index count must equal memref rank")?;
            counts(data, None, results)
        }
        MemrefSubview => {
            let source = memref(0).ok_or("source must be a memref")?;
            let rank = source.rank();
            ensure(data.operands.len() == 1 + rank, "offset count must equal source rank")?;
            let sizes = ctx.attr(op, "static_sizes").and_then(Attribute::as_array);
            let sizes = sizes
                .filter(|sizes| sizes.len() == rank)
                .ok_or("static_sizes must list one size per dimension")?;
            let natural = sizes.iter().all(|size| size.as_int().is_some_and(|size| size >= 0));
            ensure(natural, "static_sizes must be non-negative integers")?;
            counts(data, None, 1)?;
            let view = result(0).and_then(Type::as_memref).filter(|view| {
                let shape = view.shape.iter().map(|&extent| Some(extent));
                view.elem == source.elem && shape.eq(sizes.iter().map(Attribute::as_int))
            });
            ensure(view.is_some(), "result must be static_sizes of the source's element type")
        }
        MemrefDim => {
            counts(data, Some(1), 1)?;
            let rank = memref(0).map_or(0, MemRefType::rank);
            let dim = ctx.attr(op, "dimension").and_then(Attribute::as_int);
            let named = dim.and_then(|dim| usize::try_from(dim).ok()).is_some_and(|dim| dim < rank);
            ensure(named, "dimension must name a dimension of a memref operand")
        }
        LinalgMatmul => matmul_shapes(ctx, data),
        LinalgGeneric if linalg::is_matmul_generic(ctx, op) => matmul_shapes(ctx, data),
        LinalgGeneric => {
            if let Some(maps) = ctx.attr(op, "indexing_maps").and_then(Attribute::as_array) {
                ensure(maps.len() == data.operands.len(), "one indexing map per operand required")?;
                let dims = maps.first().and_then(Attribute::as_map).map(AffineMap::num_dims);
                let iters = ctx.attr(op, "iterator_types").and_then(Attribute::as_array);
                let agree = dims.zip(iters).is_none_or(|(dims, iters)| dims == iters.len());
                ensure(agree, "iterator_types length must equal map dimension count")?;
            }
            Ok(())
        }
        LinalgConv2dNchwFchw => conv_geometry(ctx, op),
        ArithConstant => {
            let value = ctx.attr(op, "value").ok_or("missing value attribute")?;
            ensure(value.as_int().is_some(), "value must be an integer")?;
            counts(data, Some(0), 1)?;
            let scalar = matches!(result(0), Some(Type::Index | Type::Int(_) | Type::Float(_)));
            ensure(scalar, "result must be an index, an integer or a float")
        }
        ArithAddi | ArithMuli | ArithAddf | ArithMulf => {
            ensure(data.operands.len() == 2, "expects two operands")?;
            let (lhs, rhs) = (data.operands[0], data.operands[1]);
            ensure(ctx.value_type(lhs) == ctx.value_type(rhs), "operand types must match")?;
            counts(data, None, 1)
        }
        ArithIndexCast => {
            counts(data, Some(1), 1)?;
            let integral = matches!(result(0), Some(Type::Index | Type::Int(_)));
            ensure(integral, "result must be an index or an integer")
        }
        AccelSend | AccelRecv => {
            ensure(data.operands.len() == 2, "expects (memref, offset) operands")?;
            ensure(memref(0).is_some(), "first operand must be a memref")?;
            match ctx.attr(op, "mode").and_then(Attribute::as_str) {
                Some(mode)
                    if data.kind == AccelRecv && !matches!(mode, "accumulate" | "overwrite") =>
                {
                    Err(format!("unknown recv mode `{mode}`").into())
                }
                _ => Ok(()),
            }
        }
        AccelSendLiteral | AccelSendIdx => {
            ensure(data.operands.len() == 2, "expects (value, offset) operands")
        }
        AccelSendDim => {
            ensure(data.operands.len() == 2, "expects (memref, offset) operands")?;
            ensure(accel::dim_of(ctx, op).is_some(), "missing dim attribute")
        }
        AccelDmaInit => {
            ensure(data.operands.len() == 5, "expects (id, inAddr, inSize, outAddr, outSize)")
        }
        _ => Ok(()),
    }
}

/// Holds when `agree`; else names the `shapes` `data`'s operands must
/// have, and the types they have.
fn shapes(ctx: &IrCtx, data: &OpData, agree: bool, shapes: &str) -> Rule {
    if agree {
        return Ok(());
    }
    let found: Vec<String> = data.operands.iter().map(|v| ctx.value_type(*v).to_string()).collect();
    Err(format!("operands must be memrefs {shapes}; found {}", found.join(", ")).into())
}

/// A MatMul's operands: static `A[m, k]`, `B[k, n]`, `C[m, n]`.
fn matmul_shapes(ctx: &IrCtx, data: &OpData) -> Rule {
    counts(data, Some(3), 0)?;
    let shape = |i: usize| {
        let memref = ctx.value_type(data.operands[i]).as_memref().filter(|m| is_static(m));
        memref.map(|m| m.shape.as_slice())
    };
    let agree = match (shape(0), shape(1), shape(2)) {
        (Some(&[m, k]), Some(&[k2, n]), Some(&[m2, n2])) => (k, m, n) == (k2, m2, n2),
        _ => false,
    };
    shapes(ctx, data, agree, "A[m, k], B[k, n], C[m, n] of static extents")
}

/// A Conv2D's operands: a square NCHW input, a square FCHW filter no
/// larger than it, and the output they make at the op's positive stride.
fn conv_geometry(ctx: &IrCtx, op: OpId) -> Rule {
    let data = ctx.op(op);
    let [[b, ic, h, w], [oc, ic2, f, f2], [b2, oc2, o, o2]] =
        linalg::conv_shapes(ctx, op).map_err(|d| d.message)?;
    counts(data, None, 0)?;
    let stride = linalg::conv_stride(ctx, op);
    ensure(stride > 0, "strides must be positive")?;
    let agree = (h, f, ic, b, oc, o) == (w, f2, ic2, b2, oc2, o2) && f <= h;
    let rule = "input[b, c, h, h], filter[oc, c, f, f], output[b, oc, o, o] with f <= h and \
                o = (h - f) / stride + 1";
    shapes(ctx, data, agree && o == (h - f) / stride + 1, rule)
}

/// A [`Pass`] wrapper so pipelines can verify dialect invariants between
/// transformations.
#[derive(Debug, Default)]
pub struct DialectVerifierPass;

impl Pass for DialectVerifierPass {
    fn name(&self) -> &str {
        "verify-dialects"
    }

    fn run(&mut self, module: &mut Module, diags: &mut DiagnosticEngine) -> Result<(), Diagnostic> {
        verify_dialects(&module.ctx, module.top(), diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arith, func, memref, scf};
    use axi4mlir_ir::ops::Module;

    fn check(m: &Module) -> Result<(), Diagnostic> {
        let mut diags = DiagnosticEngine::new();
        verify_dialects(&m.ctx, m.top(), &mut diags)
    }

    #[test]
    fn well_formed_program_passes() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let c0 = arith::const_index(&mut b, 0);
        let c4 = arith::const_index(&mut b, 4);
        let c60 = arith::const_index(&mut b, 60);
        let l = scf::for_loop(&mut b, c0, c60, c4);
        let mut bb = scf::body_builder(&mut m.ctx, &l);
        let buf = memref::alloc(&mut bb, vec![8, 8], Type::i32());
        let v = memref::load(&mut bb, buf, vec![l.iv, l.iv]);
        memref::store(&mut bb, v, buf, vec![l.iv, l.iv]);
        assert!(check(&m).is_ok());
    }

    #[test]
    fn scf_for_with_wrong_bound_type_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let c = arith::const_i32(&mut b, 0);
        // Hand-roll a malformed scf.for with i32 bounds.
        let (op, body) =
            b.insert_region_op(OpKind::ScfFor, vec![c, c, c], vec![], [], vec![Type::index()]);
        let y = m.ctx.create_op(OpKind::ScfYield, vec![], vec![], Default::default());
        m.ctx.append_op(body, y);
        let _ = op;
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("index type"));
    }

    #[test]
    fn missing_yield_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let c = arith::const_index(&mut b, 0);
        b.insert_region_op(OpKind::ScfFor, vec![c, c, c], vec![], [], vec![Type::index()]);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("scf.yield"));
    }

    #[test]
    fn load_with_wrong_arity_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![8, 8], Type::i32());
        let i = arith::const_index(&mut b, 0);
        b.insert_op(OpKind::MemrefLoad, vec![buf, i], vec![Type::i32()], []);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("rank"));
    }

    #[test]
    fn accel_recv_bad_mode_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![4, 4], Type::i32());
        let off = arith::const_i32(&mut b, 0);
        b.insert_op(
            OpKind::AccelRecv,
            vec![buf, off],
            vec![Type::i32()],
            [("mode", axi4mlir_ir::attrs::Attribute::Str("bogus".into()))],
        );
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("unknown recv mode"));
    }

    #[test]
    fn mismatched_arith_types_fail() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let x = arith::const_i32(&mut b, 1);
        let y = arith::const_index(&mut b, 2);
        b.insert_op(OpKind::ArithAddi, vec![x, y], vec![Type::i32()], []);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("operand types must match"));
    }

    #[test]
    fn pass_wrapper_runs_in_pipeline() {
        use axi4mlir_ir::pass::PassManager;
        let mut m = Module::new();
        func::func(&mut m, "ok", vec![], vec![]);
        let mut pm = PassManager::new();
        pm.add(Box::new(DialectVerifierPass));
        assert!(pm.run(&mut m).is_ok());
    }

    #[test]
    fn dma_init_arity_checked() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let c = arith::const_i32(&mut b, 0);
        b.insert_op(OpKind::AccelDmaInit, vec![c, c], vec![], []);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("expects (id"));
    }

    #[test]
    fn scf_for_with_wrong_operand_count_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let c = arith::const_index(&mut b, 0);
        // Only (lb, ub) — the step is missing.
        let (_, body) =
            b.insert_region_op(OpKind::ScfFor, vec![c, c], vec![], [], vec![Type::index()]);
        let y = m.ctx.create_op(OpKind::ScfYield, vec![], vec![], Default::default());
        m.ctx.append_op(body, y);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("(lb, ub, step)"), "{}", e.message);
    }

    #[test]
    fn accel_send_with_wrong_arity_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![4, 4], Type::i32());
        b.insert_op(OpKind::AccelSend, vec![buf], vec![Type::i32()], []);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("(memref, offset)"), "{}", e.message);
    }

    #[test]
    fn accel_send_with_scalar_source_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let x = arith::const_i32(&mut b, 7);
        let off = arith::const_i32(&mut b, 0);
        b.insert_op(OpKind::AccelSend, vec![x, off], vec![Type::i32()], []);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("must be a memref"), "{}", e.message);
    }

    #[test]
    fn accel_send_dim_without_dim_attribute_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![4, 4], Type::i32());
        let off = arith::const_i32(&mut b, 0);
        b.insert_op(OpKind::AccelSendDim, vec![buf, off], vec![Type::i32()], []);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("dim attribute"), "{}", e.message);
    }

    #[test]
    fn store_into_non_memref_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let v = arith::const_i32(&mut b, 1);
        let not_a_buf = arith::const_i32(&mut b, 2);
        b.insert_op(OpKind::MemrefStore, vec![v, not_a_buf], vec![], []);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("must be a memref"), "{}", e.message);
    }

    #[test]
    fn subview_without_static_sizes_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![8, 8], Type::i32());
        let i = arith::const_index(&mut b, 0);
        b.insert_op(
            OpKind::MemrefSubview,
            vec![buf, i, i],
            vec![Type::MemRef(axi4mlir_ir::types::MemRefType::contiguous(vec![4, 4], Type::i32()))],
            [],
        );
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("static_sizes"), "{}", e.message);
    }

    #[test]
    fn linalg_generic_map_count_mismatch_fails() {
        use axi4mlir_ir::affine::AffineMap;
        use axi4mlir_ir::attrs::Attribute;
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![4, 4], Type::i32());
        // Two operands, one indexing map.
        let map = AffineMap::projection(vec!["m".to_owned(), "n".to_owned()], &[0, 1]);
        b.insert_op(
            OpKind::LinalgGeneric,
            vec![buf, buf],
            vec![],
            [("indexing_maps", Attribute::Array(vec![Attribute::Map(map)]))],
        );
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("one indexing map per operand"), "{}", e.message);
    }

    #[test]
    fn conv_with_flat_operands_fails() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![8, 8], Type::i32());
        crate::linalg::conv_2d_nchw_fchw(&mut b, buf, buf, buf, 1);
        b.insert_op(OpKind::FuncReturn, vec![], vec![], []);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("conv input operand"), "{}", e.message);
    }

    #[test]
    fn func_without_terminator_fails() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = axi4mlir_ir::builder::OpBuilder::at_end(&mut m.ctx, body);
        use axi4mlir_ir::attrs::Attribute;
        let (_, entry) = b.insert_region_op(
            OpKind::FuncFunc,
            vec![],
            vec![],
            [("sym_name", Attribute::Str("broken".into()))],
            vec![],
        );
        b.set_insertion_end(entry);
        arith::const_i32(&mut b, 0);
        let e = check(&m).unwrap_err();
        assert!(e.message.contains("func.return"), "{}", e.message);
    }
}
