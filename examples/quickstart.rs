//! Quickstart: compile a MatMul for a simulated v3_16 accelerator through
//! the driver layer, watch the IR after each AXI4MLIR stage, run it, and
//! compare against CPU-only execution — both runs through one `Session`.
//!
//! Run with: `cargo run --release --example quickstart`

use axi4mlir::prelude::*;

fn main() {
    let problem = MatMulProblem::square(64);
    let accel = AcceleratorConfig::matmul(MatMulVersion::V3, 16);

    println!("== AXI4MLIR quickstart: {problem} on {} ==\n", accel.device);

    // Capture the IR after each pass so we can show the pipeline working.
    let mut options = PipelineOptions::optimized();
    options.capture_ir = true;

    let workload = MatMulWorkload::new(problem);
    let plan =
        CompilePlan::for_accelerator(accel).flow(FlowStrategy::OutputStationary).options(options);
    let mut session = Session::for_sweep();
    let report = session.run(&workload, &plan).expect("pipeline");

    for snapshot in &report.ir_after {
        println!("---- IR after {} ----", snapshot.pass);
        // The generated driver is long; print the head of each stage.
        for line in snapshot.ir.lines().take(18) {
            println!("{line}");
        }
        println!("  ...\n");
    }

    println!("pass timings:");
    for timing in &report.pass_timings {
        println!("  {:>8.3} ms  {}", timing.millis, timing.pass);
    }

    assert!(report.verified, "the accelerator result matches the reference kernel");
    println!("\nresult verified against the reference MatMul");
    println!("selected cache tile: {:?}", report.cache_tile);
    println!("\nperf counters (generated driver, {} flow):", report.flow);
    println!("{}", report.counters);
    println!("\ntask-clock: {:.3} ms", report.task_clock_ms);

    // CPU-only baseline for contrast: same session, retargeted to the CPU.
    let cpu = session.run(&workload, &CompilePlan::cpu().seed(0xA41)).expect("CPU baseline");
    println!("CPU-only task-clock: {:.3} ms", cpu.task_clock_ms);
    println!("offload speedup vs CPU: {:.2}x", cpu.task_clock_ms / report.task_clock_ms);
}
