//! Randomized end-to-end tests: arbitrary problem shapes, tiles, flows,
//! and option combinations through the whole stack, always checked against
//! the reference kernel. This is the repository's main defense against
//! codegen edge cases (tile = dim, single-tile loops, rectangular shapes).
//! Runs go through the driver layer; within one case the four option
//! variants share a recycled session.

use proptest::prelude::*;

use axi4mlir::accelerators::matmul::MatMulVersion;
use axi4mlir::prelude::*;

/// A problem whose dims are multiples of the tile (the paper's setting).
fn arb_case() -> impl Strategy<Value = (MatMulProblem, i64)> {
    proptest::sample::select(vec![2i64, 4, 8]).prop_flat_map(|tile| {
        ((1i64..=6), (1i64..=6), (1i64..=6)).prop_map(move |(qm, qn, qk)| {
            (MatMulProblem::new(qm * tile, qn * tile, qk * tile), tile)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any flow on any compatible problem verifies, with and without
    /// coalescing, with either copy strategy.
    #[test]
    fn randomized_matrix_verifies(
        (problem, tile) in arb_case(),
        flow in proptest::sample::select(FlowStrategy::all().to_vec()),
        version in proptest::sample::select(vec![MatMulVersion::V3, MatMulVersion::V4]),
        specialized in any::<bool>(),
        coalesce in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut options = PipelineOptions::optimized();
        options.specialized_copies = specialized;
        options.coalesce_transfers = coalesce;
        let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(version, tile))
            .flow(flow)
            .options(options)
            .seed(seed);
        let report = Session::for_sweep()
            .run(&MatMulWorkload::new(problem), &plan)
            .map_err(|e| TestCaseError::fail(format!("{version} t{tile} {flow} {problem}: {e}")))?;
        prop_assert!(report.verified, "{} t{} {} {}", version, tile, flow, problem);
    }

    /// Copy strategy and coalescing never change the numeric result —
    /// only the cost profile. All four variants share one session.
    #[test]
    fn options_do_not_change_results(
        (problem, tile) in arb_case(),
        flow in proptest::sample::select(FlowStrategy::all().to_vec()),
        seed in any::<u64>(),
    ) {
        let mut session = Session::for_sweep();
        let workload = MatMulWorkload::new(problem);
        let mut run = |specialized: bool, coalesce: bool| {
            let mut options = PipelineOptions::optimized();
            options.specialized_copies = specialized;
            options.coalesce_transfers = coalesce;
            let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(MatMulVersion::V3, tile))
                .flow(flow)
                .options(options)
                .seed(seed);
            session.run(&workload, &plan).expect("run")
        };
        let base = run(true, false);
        prop_assert_eq!(&base.result, &run(false, false).result);
        prop_assert_eq!(&base.result, &run(true, true).result);
        prop_assert_eq!(&base.result, &run(false, true).result);
    }
}
