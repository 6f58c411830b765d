//! Cross-crate integration tests: the full configuration matrix, end to
//! end — compile, execute on the simulated SoC, verify numerics, and check
//! that the simulator's DMA traffic matches the analytical transfer model.
//! The sweeps run through the driver layer (`Session` + `Workload`), with
//! one recycled SoC per sweep.

use axi4mlir::accelerators::matmul::MatMulVersion;
use axi4mlir::baselines::{conv_driver, matmul_driver};
use axi4mlir::config::presets::matmul_flows;
use axi4mlir::heuristics::matmul_transfers;
use axi4mlir::prelude::*;

fn flows_for(version: MatMulVersion) -> Vec<FlowStrategy> {
    match version {
        MatMulVersion::V1 => vec![FlowStrategy::NothingStationary],
        MatMulVersion::V2 => vec![
            FlowStrategy::NothingStationary,
            FlowStrategy::InputAStationary,
            FlowStrategy::InputBStationary,
        ],
        _ => FlowStrategy::all().to_vec(),
    }
}

/// Every (version, size, flow) combination verifies on square and
/// rectangular problems — all through one reused session.
#[test]
fn full_matrix_verifies() {
    let mut session = Session::for_sweep();
    for version in [MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4] {
        for size in [4i64, 8] {
            for flow in flows_for(version) {
                for problem in [MatMulProblem::square(16), MatMulProblem::new(8, 24, 16)] {
                    let plan =
                        CompilePlan::for_accelerator(AcceleratorConfig::matmul(version, size))
                            .flow(flow);
                    let report = session
                        .run(&MatMulWorkload::new(problem), &plan)
                        .unwrap_or_else(|e| panic!("{version} size {size} {flow} {problem}: {e}"));
                    assert!(report.verified, "{version} size {size} {flow} {problem}");
                }
            }
        }
    }
}

/// The simulated DMA byte counters must match the analytical transfer
/// model exactly for v3-style accelerators (no cache tiling so the flow
/// structure is the paper's three-loop nest).
#[test]
fn dma_traffic_matches_analytical_model() {
    let problem = MatMulProblem::square(32);
    let tile = 8i64;
    let mut session = Session::for_sweep();
    for flow in FlowStrategy::all() {
        let mut options = PipelineOptions::optimized();
        options.cache_tiling = CacheTiling::Off;
        let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(MatMulVersion::V3, tile))
            .flow(flow)
            .options(options);
        let report = session.run(&MatMulWorkload::new(problem), &plan).unwrap();
        assert!(report.verified);
        let estimate =
            matmul_transfers(flow, (problem.m, problem.n, problem.k), (tile, tile, tile));
        // +1 word for the one-time reset init opcode.
        assert_eq!(
            report.counters.dma_bytes_to_accel,
            4 * (estimate.words_to_accel + 1),
            "{flow}: words to accelerator"
        );
        assert_eq!(
            report.counters.dma_bytes_from_accel,
            4 * estimate.words_from_accel,
            "{flow}: words from accelerator"
        );
    }
}

/// Cache tiling preserves results bit-for-bit while changing access order.
/// (Each side runs on its own one-shot session.)
#[test]
fn cache_tiling_is_semantics_preserving() {
    let workload = MatMulWorkload::new(MatMulProblem::square(64));
    let run = |cache_tiling: CacheTiling| {
        let mut options = PipelineOptions::optimized();
        options.cache_tiling = cache_tiling;
        let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(MatMulVersion::V3, 8))
            .flow(FlowStrategy::NothingStationary)
            .options(options);
        Session::for_sweep().run(&workload, &plan).unwrap()
    };
    let without = run(CacheTiling::Off);
    let with = run(CacheTiling::Fixed(32));
    assert_eq!(without.result, with.result);
    assert_eq!(
        without.counters.dma_bytes_to_accel, with.counters.dma_bytes_to_accel,
        "cache tiling must not change Ns traffic"
    );
    assert!(with.verified && without.verified);
}

/// A JSON configuration document drives the same pipeline as the preset.
#[test]
fn json_configuration_end_to_end() {
    let json = r#"{
      "cpu": { "cache-levels": ["32K", "512K"] },
      "accelerators": [{
        "name": "v3_8",
        "dma_config": { "id": 0, "inputAddress": 66, "inputBufferSize": 65280,
                        "outputAddress": 65346, "outputBufferSize": 65280 },
        "kernel": "linalg.matmul",
        "accel_size": [8, 8, 8],
        "data_type": "int32",
        "dims": ["m", "n", "k"],
        "data": { "A": ["m", "k"], "B": ["k", "n"], "C": ["m", "n"] },
        "opcode_map": "opcode_map<sA = [send_literal(0x22), send(0)], sB = [send_literal(0x23), send(1)], cC = [send_literal(0xF0)], rC = [send_literal(0x24), recv(2)], reset = [send_literal(0xFF)]>",
        "opcode_flow_map": { "Cs": "((sA sB cC) rC)" },
        "selected_flow": "Cs",
        "init_opcodes": "(reset)"
      }]
    }"#;
    let system = SystemConfig::from_json(json).unwrap();
    let accel = system.accelerator("v3_8").unwrap().clone();
    let plan = CompilePlan::for_accelerator(accel);
    let report =
        Session::for_sweep().run(&MatMulWorkload::new(MatMulProblem::square(16)), &plan).unwrap();
    assert!(report.verified);
    assert_eq!(report.flow, "Cs");
    assert_eq!(report.accel_name, "v3_8");
}

/// The same problem and flow produce bit-identical counters across runs
/// (the simulator is deterministic) — whether the session is fresh or
/// reused.
#[test]
fn runs_are_deterministic() {
    let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(MatMulVersion::V3, 8))
        .flow(FlowStrategy::InputBStationary);
    let workload = MatMulWorkload::new(MatMulProblem::square(24));
    let mut session = Session::for_sweep();
    let a = session.run(&workload, &plan).unwrap();
    let b = session.run(&workload, &plan).unwrap();
    let fresh = Session::for_sweep().run(&workload, &plan).unwrap();
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.result, b.result);
    assert_eq!(a.task_clock_ms, b.task_clock_ms);
    assert_eq!(a.counters, fresh.counters, "recycled SoC matches a fresh one");
    assert_eq!(a.result, fresh.result);
}

/// Manual baseline and generated driver agree numerically on every
/// (generation, flow) pair Table I legalizes and on a convolution layer —
/// both sides of a pair from the same workload, plan and session.
#[test]
fn manual_and_generated_agree_numerically() {
    let problem = MatMulProblem::new(16, 32, 24);
    let workload = MatMulWorkload::new(problem);
    let mut session = Session::for_sweep();
    for version in [MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4] {
        for &(flow, _) in matmul_flows(version) {
            let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(version, 8))
                .flow(flow)
                .seed(99);
            let manual = session
                .run_manual(&workload, &plan, matmul_driver(version, 8, flow, problem))
                .unwrap_or_else(|e| panic!("manual {version} {flow}: {e}"));
            let generated = session.run(&workload, &plan).unwrap();
            assert!(manual.verified && generated.verified, "{version} {flow}");
            assert_eq!(manual.result, generated.result, "{version} {flow}");
            assert_eq!(
                (&manual.accel_name, &manual.flow),
                (&generated.accel_name, &generated.flow),
                "one plan labels both sides"
            );
        }
    }
    let layer = ConvLayer { in_hw: 7, in_channels: 4, filter_hw: 3, out_channels: 2, stride: 1 };
    let (workload, plan) = (ConvWorkload::new(layer), CompilePlan::for_conv_layer(layer));
    let manual = session.run_manual(&workload, &plan, conv_driver(layer)).unwrap();
    let generated = session.run(&workload, &plan).unwrap();
    assert!(manual.verified && generated.verified, "{layer}");
    assert_eq!(manual.result, generated.result, "{layer}");
}

/// v4's runtime tile configuration: non-square tiles verify and respect
/// the transfer model's preference.
#[test]
fn v4_non_square_tiles_verify() {
    let problem = MatMulProblem::new(32, 16, 64);
    let config = AcceleratorConfig::matmul_with_tile(MatMulVersion::V4, 16, (32, 16, 64))
        .with_selected_flow("Cs");
    let plan = CompilePlan::for_accelerator(config);
    let report = Session::for_sweep().run(&MatMulWorkload::new(problem), &plan).unwrap();
    assert!(report.verified);
    // One tile: A, B sent once; C received once.
    assert_eq!(report.counters.dma_bytes_from_accel, 32 * 16 * 4);
}

/// Rectangular problems exercise non-uniform loop extents.
#[test]
fn rectangular_problems_all_flows() {
    let problem = MatMulProblem::new(24, 8, 40);
    let mut session = Session::for_sweep();
    for flow in FlowStrategy::all() {
        let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(MatMulVersion::V3, 4))
            .flow(flow);
        let report = session.run(&MatMulWorkload::new(problem), &plan).unwrap();
        assert!(report.verified, "{flow}");
    }
}

/// A batch of independent GEMMs compiles into one module, runs end to end
/// through the same session path, and verifies every element — on every
/// flow the accelerator offers.
#[test]
fn batched_matmul_matrix_verifies() {
    let batch = BatchedMatMulProblem::new(MatMulProblem::new(8, 16, 24), 3);
    let workload = BatchedMatMulWorkload::new(batch);
    let mut session = Session::for_sweep();
    for flow in FlowStrategy::all() {
        let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(MatMulVersion::V3, 8))
            .flow(flow);
        let report = session.run(&workload, &plan).unwrap();
        assert!(report.verified, "{flow}: all {} elements must verify", batch.batch);
        assert_eq!(report.result.len(), batch.batch * batch.output_elems());
    }
}

/// The batched workload agrees element-wise with individual runs on the
/// same data, and its traffic scales with the batch.
#[test]
fn batched_matmul_agrees_with_single_runs() {
    let problem = MatMulProblem::square(16);
    let batch = BatchedMatMulProblem::new(problem, 2);
    let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(MatMulVersion::V3, 4))
        .flow(FlowStrategy::OutputStationary)
        .seed(7);
    let mut session = Session::for_sweep();
    let batched = session.run(&BatchedMatMulWorkload::new(batch), &plan).unwrap();
    assert!(batched.verified);
    let single = session.run(&MatMulWorkload::new(problem), &plan).unwrap();
    assert!(single.verified);
    // Element 0 of the batch uses the plain problem data for the same seed.
    assert_eq!(&batched.result[..single.result.len()], &single.result[..]);
    assert_eq!(
        batched.counters.dma_bytes_from_accel,
        2 * single.counters.dma_bytes_from_accel,
        "output traffic scales with the batch"
    );
}

/// Transfer coalescing (the paper's §V future-work optimization): same
/// results and same payload bytes, but fewer DMA transactions and a lower
/// task clock.
#[test]
fn coalescing_preserves_results_and_cuts_transactions() {
    let problem = MatMulProblem::square(32);
    let config = AcceleratorConfig::matmul(MatMulVersion::V3, 8);
    let mut session = Session::for_sweep();
    for flow in FlowStrategy::all() {
        let base_plan = CompilePlan::for_accelerator(config.clone()).flow(flow);
        let base = session.run(&MatMulWorkload::new(problem), &base_plan).unwrap();
        let mut opts = PipelineOptions::optimized();
        opts.coalesce_transfers = true;
        let coalesced_plan = CompilePlan::for_accelerator(config.clone()).flow(flow).options(opts);
        let coalesced = session.run(&MatMulWorkload::new(problem), &coalesced_plan).unwrap();
        assert!(coalesced.verified, "{flow}");
        assert_eq!(base.result, coalesced.result, "{flow}");
        assert_eq!(
            base.counters.dma_bytes_to_accel, coalesced.counters.dma_bytes_to_accel,
            "{flow}: payload identical"
        );
        assert!(
            coalesced.counters.dma_transactions < base.counters.dma_transactions,
            "{flow}: {} < {}",
            coalesced.counters.dma_transactions,
            base.counters.dma_transactions
        );
        assert!(
            coalesced.task_clock_ms < base.task_clock_ms,
            "{flow}: coalescing must reduce host time ({:.3} vs {:.3})",
            coalesced.task_clock_ms,
            base.task_clock_ms
        );
    }
}
