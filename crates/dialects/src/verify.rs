//! Dialect-aware verification, layered on the structural verifier.

use axi4mlir_ir::ops::{IrCtx, Module, OpId};
use axi4mlir_ir::pass::Pass;
use axi4mlir_ir::types::Type;
use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};

use crate::accel;

/// Verifies dialect-specific invariants for every op under `root`.
///
/// # Errors
///
/// Returns the first violation; all violations land in `diags`.
pub fn verify_dialects(
    ctx: &IrCtx,
    root: OpId,
    diags: &mut DiagnosticEngine,
) -> Result<(), Diagnostic> {
    for op in ctx.walk(root) {
        check_op(ctx, op, diags);
    }
    diags.result()
}

fn err(diags: &mut DiagnosticEngine, op: OpId, name: &str, msg: &str) {
    diags.error(format!("{name} ({op}): {msg}"));
}

fn check_op(ctx: &IrCtx, op: OpId, diags: &mut DiagnosticEngine) {
    let data = ctx.op(op);
    let name: &str = &data.name;
    match name {
        "scf.for" => {
            if data.operands.len() != 3 {
                err(diags, op, name, "expects exactly (lb, ub, step) operands");
            }
            for o in &data.operands {
                if *ctx.value_type(*o) != Type::Index {
                    err(diags, op, name, "loop bounds must have index type");
                }
            }
            if data.regions.len() != 1 {
                err(diags, op, name, "expects exactly one region");
                return;
            }
            let blocks = &ctx.region(data.regions[0]).blocks;
            if blocks.len() != 1 {
                err(diags, op, name, "expects exactly one block");
                return;
            }
            let block = ctx.block(blocks[0]);
            if block.args.len() != 1 || *ctx.value_type(block.args[0]) != Type::Index {
                err(diags, op, name, "body must have a single index argument");
            }
            match block.ops.last() {
                Some(last) if ctx.op(*last).name == "scf.yield" => {}
                _ => err(diags, op, name, "body must terminate with scf.yield"),
            }
        }
        "func.func" => {
            if ctx.attr(op, "sym_name").and_then(|a| a.as_str()).is_none() {
                err(diags, op, name, "missing sym_name attribute");
            }
            if data.regions.len() != 1 || ctx.region(data.regions[0]).blocks.len() != 1 {
                err(diags, op, name, "expects one region with one block");
                return;
            }
            let block = ctx.block(ctx.region(data.regions[0]).blocks[0]);
            match block.ops.last() {
                Some(last) if ctx.op(*last).name == "func.return" => {}
                _ => err(diags, op, name, "body must terminate with func.return"),
            }
        }
        "func.call" if ctx.attr(op, "callee").and_then(|a| a.as_str()).is_none() => {
            err(diags, op, name, "missing callee attribute");
        }
        "memref.load" => {
            let Some(m) = data.operands.first().map(|v| ctx.value_type(*v)) else {
                err(diags, op, name, "missing memref operand");
                return;
            };
            match m.as_memref() {
                Some(mr) => {
                    if data.operands.len() != 1 + mr.rank() {
                        err(diags, op, name, "index count must equal memref rank");
                    }
                }
                None => err(diags, op, name, "first operand must be a memref"),
            }
        }
        "memref.store" => {
            let Some(m) = data.operands.get(1).map(|v| ctx.value_type(*v)) else {
                err(diags, op, name, "missing memref operand");
                return;
            };
            match m.as_memref() {
                Some(mr) => {
                    if data.operands.len() != 2 + mr.rank() {
                        err(diags, op, name, "index count must equal memref rank");
                    }
                }
                None => err(diags, op, name, "second operand must be a memref"),
            }
        }
        "memref.subview" => {
            let Some(m) = data.operands.first().map(|v| ctx.value_type(*v)) else {
                err(diags, op, name, "missing source operand");
                return;
            };
            match m.as_memref() {
                Some(mr) => {
                    if data.operands.len() != 1 + mr.rank() {
                        err(diags, op, name, "offset count must equal source rank");
                    }
                    match ctx.attr(op, "static_sizes").and_then(|a| a.as_array()) {
                        Some(sizes) if sizes.len() == mr.rank() => {}
                        _ => err(diags, op, name, "static_sizes must list one size per dimension"),
                    }
                }
                None => err(diags, op, name, "source must be a memref"),
            }
        }
        "linalg.conv_2d_nchw_fchw" => {
            if let Err(d) = crate::linalg::conv_shapes(ctx, op) {
                err(diags, op, name, &d.message);
            }
        }
        "linalg.generic" => {
            if let Some(maps) = ctx.attr(op, "indexing_maps").and_then(|a| a.as_array()) {
                if maps.len() != data.operands.len() {
                    err(diags, op, name, "one indexing map per operand required");
                }
                let dim_count = maps
                    .first()
                    .and_then(|a| a.as_map())
                    .map(axi4mlir_ir::affine::AffineMap::num_dims);
                if let (Some(n), Some(iters)) =
                    (dim_count, ctx.attr(op, "iterator_types").and_then(|a| a.as_array()))
                {
                    if iters.len() != n {
                        err(
                            diags,
                            op,
                            name,
                            "iterator_types length must equal map dimension count",
                        );
                    }
                }
            }
        }
        "arith.constant" if ctx.attr(op, "value").is_none() => {
            err(diags, op, name, "missing value attribute");
        }
        "arith.addi" | "arith.muli" | "arith.addf" | "arith.mulf" => {
            if data.operands.len() != 2 {
                err(diags, op, name, "expects two operands");
            } else {
                let lhs = ctx.value_type(data.operands[0]);
                let rhs = ctx.value_type(data.operands[1]);
                if lhs != rhs {
                    err(diags, op, name, "operand types must match");
                }
            }
        }
        accel::SEND | accel::RECV => {
            if data.operands.len() != 2 {
                err(diags, op, name, "expects (memref, offset) operands");
            } else if ctx.value_type(data.operands[0]).as_memref().is_none() {
                err(diags, op, name, "first operand must be a memref");
            }
            if name == accel::RECV {
                match ctx.attr(op, "mode").and_then(|a| a.as_str()) {
                    Some("accumulate") | Some("overwrite") | None => {}
                    Some(other) => {
                        err(diags, op, name, &format!("unknown recv mode `{other}`"));
                    }
                }
            }
        }
        accel::SEND_LITERAL | accel::SEND_IDX if data.operands.len() != 2 => {
            err(diags, op, name, "expects (value, offset) operands");
        }
        accel::SEND_DIM => {
            if data.operands.len() != 2 {
                err(diags, op, name, "expects (memref, offset) operands");
            }
            if accel::dim_of(ctx, op).is_none() {
                err(diags, op, name, "missing dim attribute");
            }
        }
        accel::DMA_INIT if data.operands.len() != 5 => {
            err(diags, op, name, "expects (id, inAddr, inSize, outAddr, outSize)");
        }
        _ => {}
    }
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
            b.insert_region_op("scf.for", vec![c, c, c], vec![], [], vec![Type::index()]);
        let y = m.ctx.create_op("scf.yield", vec![], vec![], Default::default());
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
        b.insert_region_op("scf.for", vec![c, c, c], vec![], [], vec![Type::index()]);
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
        b.insert_op("memref.load", vec![buf, i], vec![Type::i32()], []);
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
            "accel.recv",
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
        b.insert_op("arith.addi", vec![x, y], vec![Type::i32()], []);
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
        b.insert_op("accel.dma_init", vec![c, c], vec![], []);
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
        let (_, body) = b.insert_region_op("scf.for", vec![c, c], vec![], [], vec![Type::index()]);
        let y = m.ctx.create_op("scf.yield", vec![], vec![], Default::default());
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
        b.insert_op("accel.send", vec![buf], vec![Type::i32()], []);
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
        b.insert_op("accel.send", vec![x, off], vec![Type::i32()], []);
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
        b.insert_op("accel.sendDim", vec![buf, off], vec![Type::i32()], []);
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
        b.insert_op("memref.store", vec![v, not_a_buf], vec![], []);
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
            "memref.subview",
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
            "linalg.generic",
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
        b.insert_op("func.return", vec![], vec![], []);
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
            "func.func",
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
