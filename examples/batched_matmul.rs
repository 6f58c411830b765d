//! Batched MatMul through the driver layer: one module carrying a batch
//! of independent GEMMs (the shape of per-head attention), compiled by the
//! same passes and executed in one session, compared against running the
//! same GEMMs one by one.
//!
//! Run with: `cargo run --release --example batched_matmul`

use axi4mlir::prelude::*;

fn main() {
    let problem = MatMulProblem::square(32);
    let batch = BatchedMatMulProblem::new(problem, 8);
    let config = AcceleratorConfig::matmul(MatMulVersion::V3, 8);

    println!("== batched MatMul: {batch} on {} ==\n", config.device);

    let plan = CompilePlan::for_accelerator(config).flow(FlowStrategy::OutputStationary);
    let mut session = Session::for_sweep();

    // One compile + one run for the whole batch.
    let batched = session.run(&BatchedMatMulWorkload::new(batch), &plan).expect("batched run");
    assert!(batched.verified, "every batch element matches its reference");

    // The same work as individual runs (recompiling per element).
    let mut single_ms = 0.0;
    let mut single_timing_ms = 0.0;
    for index in 0..batch.batch {
        let workload = MatMulWorkload::new(problem);
        let per_element =
            plan.clone().seed(plan.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let report = session.run(&workload, &per_element).expect("single run");
        assert!(report.verified);
        single_ms += report.task_clock_ms;
        single_timing_ms += report.pass_timings.iter().map(|t| t.millis).sum::<f64>();
    }

    let batched_compile_ms: f64 = batched.pass_timings.iter().map(|t| t.millis).sum();
    println!("batch of {}:", batch.batch);
    println!(
        "  one batched run:   {:>8.3} ms simulated, {:>7.3} ms compile, 1 pipeline invocation",
        batched.task_clock_ms, batched_compile_ms
    );
    println!(
        "  {} single runs:    {:>8.3} ms simulated, {:>7.3} ms compile, {} pipeline invocations",
        batch.batch, single_ms, single_timing_ms, batch.batch
    );
    println!(
        "\nthe batch compiles and executes as ONE module ({} annotated GEMMs) in one",
        batch.batch
    );
    println!("session invocation, with no modelled overhead versus the one-by-one runs,");
    println!("and the whole batch stays on one warm SoC (no per-run reallocation).");
}
