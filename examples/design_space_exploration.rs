//! Design-space exploration on the flexible v4 accelerator (the Fig. 14
//! scenario): for each permutation of a MatMul problem, pick tile shapes
//! and dataflows with the square-tile heuristics and the free `Best`
//! search, then measure.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use axi4mlir::accelerators::matmul::V4_CAPACITY_WORDS;
use axi4mlir::heuristics::{best_choice, square_tile_choice, AccelInstance, TileChoice};
use axi4mlir::prelude::*;

const BASE: i64 = 16;

fn measure(session: &mut Session, problem: MatMulProblem, choice: &TileChoice) -> f64 {
    let config = AccelInstance::v4(BASE).config(choice.tile, choice.flow);
    let plan = CompilePlan::for_accelerator(config);
    let report = session.run(&MatMulWorkload::new(problem), &plan).expect("v4 run");
    assert!(report.verified);
    report.task_clock_ms
}

fn main() {
    println!("v4_16 accelerator: {} words of tile memory\n", V4_CAPACITY_WORDS);
    // The whole exploration shares one session on the same v4_16 device.
    let mut session = Session::for_sweep();
    for problem in MatMulProblem::permutations_of(32, 64, 128) {
        let dims = (problem.m, problem.n, problem.k);
        println!("problem {}:", problem.label());
        for flow in [
            FlowStrategy::InputAStationary,
            FlowStrategy::InputBStationary,
            FlowStrategy::OutputStationary,
        ] {
            if let Ok(choice) = square_tile_choice(flow, dims, BASE, V4_CAPACITY_WORDS) {
                let ms = measure(&mut session, problem, &choice);
                println!(
                    "  {}-squareTile  T={:<3}  estimated words {:>8}  measured {:>8.3} ms",
                    flow.short_name(),
                    choice.tile.0,
                    choice.estimate.words_total(),
                    ms
                );
            }
        }
        let best = best_choice(dims, BASE, V4_CAPACITY_WORDS).expect("legal config");
        let ms = measure(&mut session, problem, &best);
        println!(
            "  Best: {:<14} estimated words {:>8}  measured {:>8.3} ms",
            best.label(),
            best.estimate.words_total(),
            ms
        );
        println!();
    }
    println!("The Best heuristic exploits non-square tiles the fixed heuristics cannot.");
}
