//! IR module builders.
//!
//! The compile-and-run loop itself lives in the [`crate::driver`] layer
//! ([`Workload`](crate::driver::Workload) +
//! [`Session`](crate::driver::Session)); this module keeps the
//! `func`/`linalg` module builders the in-tree workloads call.

use axi4mlir_dialects::{func, linalg};
use axi4mlir_ir::ops::Module;
use axi4mlir_ir::types::{MemRefType, Type};
use axi4mlir_workloads::batched::BatchedMatMulProblem;
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::ConvLayer;

/// Builds `func.func @matmul_call(%A, %B, %C)` containing one
/// matmul-traited `linalg.generic`.
pub fn build_matmul_module(problem: MatMulProblem) -> Module {
    let mut module = Module::new();
    let a_ty = Type::MemRef(MemRefType::contiguous(vec![problem.m, problem.k], Type::i32()));
    let b_ty = Type::MemRef(MemRefType::contiguous(vec![problem.k, problem.n], Type::i32()));
    let c_ty = Type::MemRef(MemRefType::contiguous(vec![problem.m, problem.n], Type::i32()));
    let f = func::func(&mut module, "matmul_call", vec![a_ty, b_ty, c_ty], vec![]);
    let a = func::arg(&module.ctx, f.op, 0);
    let b = func::arg(&module.ctx, f.op, 1);
    let c = func::arg(&module.ctx, f.op, 2);
    let mut builder = func::entry_builder(&mut module.ctx, &f);
    linalg::generic_matmul(&mut builder, a, b, c);
    module
}

/// Builds `func.func @batched_matmul_call(%A0, %B0, %C0, %A1, ...)` with
/// one matmul-traited `linalg.generic` per batch element. All generics
/// match the same accelerator trait, so the standard passes annotate and
/// rewrite every element of the batch.
pub(crate) fn build_batched_matmul_module(batch: BatchedMatMulProblem) -> Module {
    let p = batch.problem;
    let mut module = Module::new();
    let a_ty = Type::MemRef(MemRefType::contiguous(vec![p.m, p.k], Type::i32()));
    let b_ty = Type::MemRef(MemRefType::contiguous(vec![p.k, p.n], Type::i32()));
    let c_ty = Type::MemRef(MemRefType::contiguous(vec![p.m, p.n], Type::i32()));
    let mut arg_types = Vec::with_capacity(3 * batch.batch);
    for _ in 0..batch.batch {
        arg_types.push(a_ty.clone());
        arg_types.push(b_ty.clone());
        arg_types.push(c_ty.clone());
    }
    let f = func::func(&mut module, "batched_matmul_call", arg_types, vec![]);
    let args: Vec<_> = (0..3 * batch.batch).map(|i| func::arg(&module.ctx, f.op, i)).collect();
    let mut builder = func::entry_builder(&mut module.ctx, &f);
    for element in 0..batch.batch {
        linalg::generic_matmul(
            &mut builder,
            args[3 * element],
            args[3 * element + 1],
            args[3 * element + 2],
        );
    }
    module
}

/// Builds `func.func @conv_call(%I, %W, %O)` containing one
/// `linalg.conv_2d_nchw_fchw`.
pub(crate) fn build_conv_module(layer: ConvLayer) -> Module {
    let mut module = Module::new();
    let i_ty = Type::MemRef(MemRefType::contiguous(
        vec![1, layer.in_channels as i64, layer.in_hw as i64, layer.in_hw as i64],
        Type::i32(),
    ));
    let w_ty = Type::MemRef(MemRefType::contiguous(
        vec![
            layer.out_channels as i64,
            layer.in_channels as i64,
            layer.filter_hw as i64,
            layer.filter_hw as i64,
        ],
        Type::i32(),
    ));
    let o_ty = Type::MemRef(MemRefType::contiguous(
        vec![1, layer.out_channels as i64, layer.out_hw() as i64, layer.out_hw() as i64],
        Type::i32(),
    ));
    let f = func::func(&mut module, "conv_call", vec![i_ty, w_ty, o_ty], vec![]);
    let i = func::arg(&module.ctx, f.op, 0);
    let w = func::arg(&module.ctx, f.op, 1);
    let o = func::arg(&module.ctx, f.op, 2);
    let mut builder = func::entry_builder(&mut module.ctx, &f);
    linalg::conv_2d_nchw_fchw(&mut builder, i, w, o, layer.stride as i64);
    module
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{
        CompilePlan, ConvWorkload, MatMulWorkload, PipelineBuilder, RunReport, Session,
    };
    use crate::options::{CacheTiling, PipelineOptions};
    use axi4mlir_accelerators::matmul::MatMulVersion;
    use axi4mlir_config::{AcceleratorConfig, FlowStrategy};
    use axi4mlir_dialects::accel;

    /// One-shot MatMul run of `plan` on the device it names.
    fn run_matmul(plan: &CompilePlan, dims: i64) -> RunReport {
        Session::for_sweep().run(&MatMulWorkload::new(MatMulProblem::square(dims)), plan).unwrap()
    }

    fn v3_plan(size: i64, flow: FlowStrategy) -> CompilePlan {
        let config = AcceleratorConfig::matmul(MatMulVersion::V3, size);
        CompilePlan::for_accelerator(config).flow(flow)
    }

    #[test]
    fn v3_ns_flow_end_to_end() {
        let report = run_matmul(&v3_plan(4, FlowStrategy::NothingStationary), 8);
        assert!(report.verified, "numerics must match the oracle");
        assert!(report.counters.dma_transactions > 0);
        assert!(report.counters.accel_macs >= 8 * 8 * 8);
        assert!(report.task_clock_ms > 0.0);
    }

    #[test]
    fn every_v3_flow_verifies() {
        for flow in FlowStrategy::all() {
            let report = run_matmul(&v3_plan(4, flow), 8);
            assert!(report.verified, "{flow} must verify");
        }
    }

    /// A plan that does not lower compiles, and its module keeps its
    /// `accel` ops; running it is an error naming the first of them, since
    /// the interpreter executes only lowered runtime calls.
    #[test]
    fn an_unlowered_plan_compiles_but_does_not_run() {
        let options =
            PipelineOptions { lower_to_runtime_calls: false, ..PipelineOptions::default() };
        let plan = v3_plan(4, FlowStrategy::InputAStationary).options(options);
        let config = plan.config.clone().expect("an accelerator plan");
        let mut module = build_matmul_module(MatMulProblem::square(8));
        PipelineBuilder::new().accelerator(config).lower(false).build().run(&mut module).unwrap();
        let ops = module.ctx.walk(module.top());
        assert!(ops.into_iter().any(|op| accel::is_accel_op(&module.ctx, op)), "accel ops kept");

        let err = Session::for_sweep()
            .run(&MatMulWorkload::new(MatMulProblem::square(8)), &plan)
            .unwrap_err();
        assert!(err.message.contains("`accel.dma_init` must be lowered"), "{}", err.message);
    }

    #[test]
    fn cpu_baseline_verifies_and_uses_no_dma() {
        let report = run_matmul(&CompilePlan::cpu().seed(1), 16);
        assert!(report.verified);
        assert_eq!(report.counters.dma_transactions, 0);
        assert_eq!(report.counters.accel_macs, 0);
        assert_eq!(report.cache_tile, None, "no compiler pass chose a tile");
        assert_eq!(report.accel_name, "cpu");
        assert_eq!(report.flow, "cpu");
    }

    #[test]
    fn conv_pipeline_end_to_end() {
        let layer =
            ConvLayer { in_hw: 7, in_channels: 8, filter_hw: 3, out_channels: 4, stride: 1 };
        let plan = CompilePlan::for_conv_layer(layer);
        let report = Session::for_sweep().run(&ConvWorkload::new(layer), &plan).unwrap();
        assert!(report.verified);
        assert!(report.counters.dma_bytes_from_accel > 0);
    }

    #[test]
    fn instantiates_matching_accelerators() {
        let model_name = |config: AcceleratorConfig| config.device.instantiate().name().to_owned();
        assert_eq!(model_name(AcceleratorConfig::matmul(MatMulVersion::V1, 8)), "v1_8");
        assert_eq!(model_name(AcceleratorConfig::matmul(MatMulVersion::V4, 16)), "v4_16");
        assert_eq!(model_name(AcceleratorConfig::conv2d(4, 1)), "conv2d");
    }

    #[test]
    fn flow_short_names_roundtrip() {
        for flow in FlowStrategy::all() {
            assert_eq!(
                FlowStrategy::from_short_name(flow.short_name()),
                Some(flow),
                "{flow} must round-trip through its short name"
            );
        }
        for unknown in ["", "ns", "NS", "Xs", "v3"] {
            assert_eq!(FlowStrategy::from_short_name(unknown), None, "`{unknown}`");
        }
    }

    #[test]
    fn fixed_cache_tiling_is_reported() {
        let mut options = PipelineOptions::optimized();
        options.cache_tiling = CacheTiling::Fixed(32);
        let report = run_matmul(&v3_plan(8, FlowStrategy::NothingStationary).options(options), 64);
        assert!(report.verified);
        assert_eq!(report.cache_tile, Some(32));
    }
}
