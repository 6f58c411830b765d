//! Ablation benchmarks for the design choices called out in DESIGN.md §8,
//! measured as simulated task-clock (the figure of merit), exposed through
//! Criterion so `cargo bench` tracks regressions in the *modelled* system:
//!
//! - copy strategy: element-wise vs. manual 8B vs. specialized 16B;
//! - cache tiling: off vs. auto;
//! - flow choice: Ns/As/Bs/Cs on the same accelerator.
//!
//! Criterion measures wall time of the simulation; the simulation is
//! deterministic, so relative wall time tracks modelled work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use axi4mlir_config::{AcceleratorConfig, AcceleratorPreset, FlowStrategy};
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_core::options::{CacheTiling, PipelineOptions};
use axi4mlir_workloads::matmul::MatMulProblem;

const DIMS: i64 = 32;

fn run(flow: FlowStrategy, options: PipelineOptions) {
    let config = AcceleratorConfig::preset(AcceleratorPreset::V3 { size: 8 });
    let plan = CompilePlan::for_accelerator(config).flow(flow).options(options);
    let report = Session::for_plan(&plan)
        .run(&MatMulWorkload::new(MatMulProblem::square(DIMS)), &plan)
        .expect("run");
    assert!(report.verified);
}

fn bench_copy_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("copy_strategies");
    group.sample_size(10);
    group.bench_function("element_wise", |b| {
        b.iter(|| run(FlowStrategy::NothingStationary, PipelineOptions::unoptimized_copies()));
    });
    group.bench_function("specialized_memcpy", |b| {
        b.iter(|| run(FlowStrategy::NothingStationary, PipelineOptions::optimized()));
    });
    group.finish();
}

fn bench_cache_tiling_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_tiling_ablation");
    group.sample_size(10);
    let mut off = PipelineOptions::optimized();
    off.cache_tiling = CacheTiling::Off;
    group.bench_function("off", |b| b.iter(|| run(FlowStrategy::NothingStationary, off)));
    group.bench_function("auto", |b| {
        b.iter(|| run(FlowStrategy::NothingStationary, PipelineOptions::optimized()));
    });
    group.finish();
}

fn bench_flow_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_ablation");
    group.sample_size(10);
    for flow in FlowStrategy::all() {
        group.bench_with_input(BenchmarkId::from_parameter(flow.short_name()), &flow, |b, flow| {
            b.iter(|| run(*flow, PipelineOptions::optimized()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_copy_strategies,
    bench_cache_tiling_ablation,
    bench_flow_ablation,
    bench_coalescing_ablation
);
criterion_main!(benches);

fn bench_coalescing_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalescing_ablation");
    group.sample_size(10);
    group.bench_function("per_opcode_transactions", |b| {
        b.iter(|| run(FlowStrategy::NothingStationary, PipelineOptions::optimized()));
    });
    let mut coalesced = PipelineOptions::optimized();
    coalesced.coalesce_transfers = true;
    group.bench_function("coalesced_transactions", |b| {
        b.iter(|| run(FlowStrategy::NothingStationary, coalesced));
    });
    group.finish();
}
