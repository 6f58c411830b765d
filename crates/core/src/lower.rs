//! Step 5b: lower `accel` ops to the DMA runtime library calls of Fig. 9.
//!
//! | accel op                  | lowering                                              |
//! |---------------------------|-------------------------------------------------------|
//! | `accel.dma_init`          | `call @dma_init(id, inAddr, inSize, outAddr, outSize)`|
//! | `accel.sendLiteral`       | `call @write_literal_to_dma_region(lit, off)` (+flush)|
//! | `accel.sendDim`           | `memref.dim` + `index_cast` + literal write (+flush)  |
//! | `accel.sendIdx`           | literal write of the index (+flush)                   |
//! | `accel.send`              | `call @copy_to_dma_region(view, off)` (+flush)        |
//! | `accel.recv`              | `call @dma_start_recv(len, off)` + wait + `call @copy_from_dma_region` |
//!
//! where *flush* is `call @dma_start_send(total, 0)` followed by
//! `call @dma_wait_send_completion()` — one batched transaction per opcode,
//! as §III-A describes.

use axi4mlir_dialects::{accel, arith, func, memref};
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::ops::{IrCtx, Module, OpId, ValueId};
use axi4mlir_ir::pass::Pass;
use axi4mlir_ir::types::Type;
use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};
use axi4mlir_support::entity::EntityId;

/// Runtime library entry-point names (defined by the DMA library itself;
/// the interpreter dispatches on the same constants).
pub mod callees {
    pub use axi4mlir_runtime::dma_lib::names::*;
}

/// Lowers every `accel` op under the module to runtime calls.
#[derive(Debug, Default)]
pub struct LowerAccelToRuntimePass;

impl Pass for LowerAccelToRuntimePass {
    fn name(&self) -> &str {
        "axi4mlir-lower-to-runtime"
    }

    fn run(
        &mut self,
        module: &mut Module,
        _diags: &mut DiagnosticEngine,
    ) -> Result<(), Diagnostic> {
        let top = module.top();
        let accel_ops: Vec<OpId> = module
            .ctx
            .walk(top)
            .into_iter()
            .filter(|op| accel::is_accel_op(&module.ctx, *op))
            .collect();
        // The value standing in for each erased `accel` result, by value
        // index. Later ops (and their replacements) still name the erased
        // results until the one rewrite walk below.
        let mut replaced: Vec<Option<ValueId>> = vec![None; module.ctx.value_count()];
        for op in accel_ops {
            if let Some((old, new)) = lower_one(&mut module.ctx, op)? {
                replaced[old.index()] = Some(new);
            }
        }
        for op in module.ctx.walk(top) {
            for operand in &mut module.ctx.op_mut(op).operands {
                if let Some(&Some(new)) = replaced.get(operand.index()) {
                    *operand = new;
                }
            }
        }
        Ok(())
    }
}

fn emit_flush(b: &mut OpBuilder<'_>, total_len: ValueId) {
    let zero = arith::const_i32(b, 0);
    func::call(b, callees::START_SEND, vec![total_len, zero], vec![]);
    func::call(b, callees::WAIT_SEND, vec![], vec![]);
}

/// Replaces `op` by its runtime calls and erases it. Returns the erased
/// result and the value that now stands for it, if the op had one.
fn lower_one(ctx: &mut IrCtx, op: OpId) -> Result<Option<(ValueId, ValueId)>, Diagnostic> {
    let name = ctx.op(op).name.clone();
    let operands = ctx.op(op).operands.clone();
    let result = ctx.op(op).results.first().copied();
    let flush = accel::has_flush(ctx, op);
    let block = ctx.op(op).parent.ok_or_else(|| Diagnostic::error("accel op must be attached"))?;
    let index = ctx.position_in_block(op).expect("attached");
    // Build replacements *before* the op, then erase it.
    let mut b = OpBuilder::at(ctx, block, index);
    let replacement: Option<ValueId> = match &*name {
        accel::DMA_INIT => {
            func::call(&mut b, callees::DMA_INIT, operands.clone(), vec![]);
            None
        }
        accel::SEND_LITERAL => {
            let call =
                func::call(&mut b, callees::WRITE_LITERAL, operands.clone(), vec![Type::i32()]);
            let new_off = b.ctx_ref().result(call, 0);
            if flush {
                emit_flush(&mut b, new_off);
            }
            Some(new_off)
        }
        accel::SEND_IDX => {
            let call =
                func::call(&mut b, callees::WRITE_LITERAL, operands.clone(), vec![Type::i32()]);
            let new_off = b.ctx_ref().result(call, 0);
            if flush {
                emit_flush(&mut b, new_off);
            }
            Some(new_off)
        }
        accel::SEND_DIM => {
            let dim = accel::dim_of(b.ctx_ref(), op)
                .ok_or_else(|| Diagnostic::error("accel.sendDim without dim attribute"))?;
            let d = memref::dim(&mut b, operands[0], dim);
            let word = arith::index_cast(&mut b, d, Type::i32());
            let call = func::call(
                &mut b,
                callees::WRITE_LITERAL,
                vec![word, operands[1]],
                vec![Type::i32()],
            );
            let new_off = b.ctx_ref().result(call, 0);
            if flush {
                emit_flush(&mut b, new_off);
            }
            Some(new_off)
        }
        accel::SEND => {
            let call = func::call(&mut b, callees::COPY_TO, operands.clone(), vec![Type::i32()]);
            let new_off = b.ctx_ref().result(call, 0);
            if flush {
                emit_flush(&mut b, new_off);
            }
            Some(new_off)
        }
        accel::RECV => {
            let view_ty = b
                .ctx_ref()
                .value_type(operands[0])
                .as_memref()
                .ok_or_else(|| Diagnostic::error("accel.recv expects a memref view"))?;
            let bytes = view_ty
                .num_elements()
                .ok_or_else(|| Diagnostic::error("accel.recv view must have a static shape"))?
                * 4;
            let accumulate = accel::recv_accumulates(b.ctx_ref(), op);
            let len = arith::const_i32(&mut b, bytes as i32);
            func::call(&mut b, callees::START_RECV, vec![len, operands[1]], vec![]);
            func::call(&mut b, callees::WAIT_RECV, vec![], vec![]);
            let acc = arith::const_i32(&mut b, i64::from(accumulate) as i32);
            let call = func::call(
                &mut b,
                callees::COPY_FROM,
                vec![operands[0], operands[1], acc],
                vec![Type::i32()],
            );
            Some(b.ctx_ref().result(call, 0))
        }
        other => return Err(Diagnostic::error(format!("unknown accel op `{other}`"))),
    };
    ctx.erase_op(op);
    Ok(result.zip(replacement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::MatchAndAnnotatePass;
    use crate::codegen::GenerateAccelDriverPass;
    use axi4mlir_accelerators::matmul::MatMulVersion;
    use axi4mlir_config::{AcceleratorConfig, FlowStrategy};
    use axi4mlir_dialects::{linalg, verify::DialectVerifierPass};
    use axi4mlir_ir::pass::PassManager;
    use axi4mlir_ir::printer::print_op;

    fn lowered_module(flow: FlowStrategy) -> Module {
        let mut m = Module::new();
        let f = func::func(&mut m, "matmul_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![16, 16], Type::i32());
        let bb = memref::alloc(&mut b, vec![16, 16], Type::i32());
        let c = memref::alloc(&mut b, vec![16, 16], Type::i32());
        linalg::generic_matmul(&mut b, a, bb, c);
        let cfg =
            AcceleratorConfig::matmul(MatMulVersion::V3, 4).with_selected_flow(flow.short_name());
        let perm: Vec<String> = flow.matmul_permutation().iter().map(|s| (*s).to_owned()).collect();
        let mut pm = PassManager::new();
        pm.add(Box::new(MatchAndAnnotatePass::new(cfg, perm, None)));
        pm.add(Box::new(GenerateAccelDriverPass::default()));
        pm.add(Box::new(LowerAccelToRuntimePass));
        pm.add(Box::new(DialectVerifierPass));
        pm.run(&mut m).unwrap();
        m
    }

    #[test]
    fn lowering_removes_all_accel_ops() {
        let m = lowered_module(FlowStrategy::NothingStationary);
        assert!(m.ctx.walk(m.top()).into_iter().all(|op| !accel::is_accel_op(&m.ctx, op)));
        let printed = print_op(&m.ctx, m.top());
        for callee in [
            callees::DMA_INIT,
            callees::COPY_TO,
            callees::WRITE_LITERAL,
            callees::START_SEND,
            callees::WAIT_SEND,
            callees::START_RECV,
            callees::WAIT_RECV,
            callees::COPY_FROM,
        ] {
            assert!(
                printed.contains(&format!("callee = {callee:?}")),
                "missing {callee}: {printed}"
            );
        }
    }

    #[test]
    fn one_transaction_per_opcode() {
        // Ns with v3: four opcodes per innermost iteration (sA, sB, cC, rC)
        // means exactly four start_send calls inside the innermost loop.
        let m = lowered_module(FlowStrategy::NothingStationary);
        let fors = m.ctx.find_ops(m.top(), "scf.for");
        let innermost =
            fors.iter().copied().find(|f| m.ctx.find_ops(*f, "scf.for").len() == 1).unwrap();
        let starts = m
            .ctx
            .find_ops(innermost, "func.call")
            .into_iter()
            .filter(|c| func::callee(&m.ctx, *c) == Some(callees::START_SEND))
            .count();
        assert_eq!(starts, 4);
        let waits = m
            .ctx
            .find_ops(innermost, "func.call")
            .into_iter()
            .filter(|c| func::callee(&m.ctx, *c) == Some(callees::WAIT_SEND))
            .count();
        assert_eq!(waits, 4, "every start_send pairs with a wait");
    }

    #[test]
    fn recv_lowers_to_start_wait_copy() {
        let m = lowered_module(FlowStrategy::OutputStationary);
        let calls = m.ctx.find_ops(m.top(), "func.call");
        let recv_start =
            calls.iter().filter(|c| func::callee(&m.ctx, **c) == Some(callees::START_RECV)).count();
        let copy_from =
            calls.iter().filter(|c| func::callee(&m.ctx, **c) == Some(callees::COPY_FROM)).count();
        assert_eq!(recv_start, 1, "Cs flow receives once per (m, n) tile — one call site");
        assert_eq!(copy_from, 1);
    }

    #[test]
    fn lowered_ir_round_trips() {
        let m = lowered_module(FlowStrategy::InputAStationary);
        let printed = print_op(&m.ctx, m.top());
        let m2 = axi4mlir_ir::parser::parse_module(&printed).unwrap();
        assert_eq!(print_op(&m2.ctx, m2.top()), printed);
    }

    #[test]
    fn send_dim_lowers_through_memref_dim() {
        // Conv init opcodes exercise sendDim.
        let mut m = Module::new();
        let f = func::func(&mut m, "conv_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let i = memref::alloc(&mut b, vec![1, 8, 7, 7], Type::i32());
        let w = memref::alloc(&mut b, vec![4, 8, 3, 3], Type::i32());
        let o = memref::alloc(&mut b, vec![1, 4, 5, 5], Type::i32());
        linalg::conv_2d_nchw_fchw(&mut b, i, w, o, 1);
        let cfg = AcceleratorConfig::conv2d(8, 3);
        let mut pm = PassManager::new();
        pm.add(Box::new(MatchAndAnnotatePass::new(cfg, vec![], None)));
        pm.add(Box::new(GenerateAccelDriverPass::default()));
        pm.add(Box::new(LowerAccelToRuntimePass));
        pm.run(&mut m).unwrap();
        assert!(m.ctx.walk(m.top()).into_iter().all(|op| !accel::is_accel_op(&m.ctx, op)));
        assert_eq!(m.ctx.find_ops(m.top(), "memref.dim").len(), 2, "fH and iC");
        assert!(!m.ctx.find_ops(m.top(), "arith.index_cast").is_empty());
    }
}
