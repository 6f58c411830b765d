//! Integrating a *custom* accelerator the way the paper's §III-B
//! describes: write the Fig. 5 JSON configuration (CPU caches, opcode_map,
//! legal opcode_flows), parse + validate it, then let AXI4MLIR generate a
//! driver for each flow and compare them. The `opcode_flow_map` keys are
//! free names — each flow's own structure decides its loop order — spelt
//! here as the paper's strategy labels so `CompilePlan::flow` finds them;
//! `accel_size` must be a tile the named device runs.
//!
//! Run with: `cargo run --release --example custom_accelerator`

use axi4mlir::prelude::*;

const CONFIG: &str = r#"{
  "cpu": { "cache-levels": ["32K", "512K"], "cache-types": ["data", "shared"] },
  "accelerators": [{
    "name": "v3_8",
    "version": "1.0",
    "description": "MatMul 8x8x8, input+output reuse, AXI-Stream micro-ISA",
    "dma_config": { "id": 0, "inputAddress": 66, "inputBufferSize": 65280,
                    "outputAddress": 65346, "outputBufferSize": 65280 },
    "kernel": "linalg.matmul",
    "accel_size": [8, 8, 8],
    "data_type": "int32",
    "dims": ["m", "n", "k"],
    "data": { "A": ["m", "k"], "B": ["k", "n"], "C": ["m", "n"] },
    "opcode_map": "opcode_map<sA = [send_literal(0x22), send(0)], sB = [send_literal(0x23), send(1)], cC = [send_literal(0xF0)], rC = [send_literal(0x24), recv(2)], reset = [send_literal(0xFF)]>",
    "opcode_flow_map": {
      "Ns": "(sA sB cC rC)",
      "As": "(sA (sB cC rC))",
      "Bs": "(sB (sA cC rC))",
      "Cs": "((sA sB cC) rC)"
    },
    "selected_flow": "Ns",
    "init_opcodes": "(reset)"
  }]
}"#;

fn main() {
    let system = SystemConfig::from_json(CONFIG).expect("configuration parses and validates");
    println!(
        "parsed host CPU: L1 {} KiB, LLC {} KiB",
        system.cpu.l1_bytes() / 1024,
        system.cpu.llc_bytes() / 1024
    );
    let accel = system.accelerator("v3_8").expect("accelerator present").clone();
    println!(
        "accelerator {} offering flows: {:?}\n",
        accel.device,
        accel.flows.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );

    let problem = MatMulProblem::square(64);
    println!("problem: {problem}\n");
    println!(
        "{:<6} {:>14} {:>18} {:>16}",
        "flow", "task-clock", "bytes to accel", "bytes from accel"
    );
    // One session serves all four flows: same device, SoC recycled per run.
    let mut session = Session::for_sweep();
    let workload = MatMulWorkload::new(problem);
    for flow in FlowStrategy::all() {
        let plan = CompilePlan::for_accelerator(accel.clone()).flow(flow);
        let report = session.run(&workload, &plan).expect("run");
        assert!(report.verified);
        println!(
            "{:<6} {:>11.3} ms {:>18} {:>16}",
            flow.short_name(),
            report.task_clock_ms,
            report.counters.dma_bytes_to_accel,
            report.counters.dma_bytes_from_accel,
        );
    }
    println!("\nstationary flows move less data; the best choice depends on the problem shape.");
}
