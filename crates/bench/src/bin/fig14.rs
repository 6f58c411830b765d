//! Regenerates Fig. 14 (problem permutations on the flexible v4).
//! Usage: `cargo run --release -p axi4mlir-bench --bin fig14 [--quick]`.

use axi4mlir_bench::{fig14, report, Scale};

fn main() {
    let scale = Scale::from_args("usage: fig14 [--quick] [--json [DIR]]");
    println!("Fig. 14: MatMul problem permutations on the v4 accelerator\n");
    let rows = fig14::rows(scale);
    println!("{}", fig14::render(&rows).render());
    println!("Expected shape: the best square flow changes with the permutation;");
    println!("Best (flexible tiles) is at least as fast as every square strategy.");
    report::emit_from_args(&fig14::report(scale, &rows)).expect("write BENCH json");
}
