//! Regenerates Fig. 17 (TinyBERT end-to-end co-execution).
//! Usage: `cargo run --release -p axi4mlir-bench --bin fig17 [--quick]`.

use axi4mlir_bench::{fig17, report, Scale};

fn main() {
    let scale = Scale::from_args("usage: fig17 [--quick] [--json [DIR]]");
    println!("Fig. 17: TinyBERT (batch 2) end-to-end execution time\n");
    let bars = fig17::bars(scale);
    println!("{}", fig17::render(&bars).render());
    println!("Expected shape: both offload approaches beat CPU end-to-end (paper: 3.3-3.4x)");
    println!("with larger MatMul-only speedups (paper: 14.7-18.4x); Best beats Ns-SquareTile.");
    report::emit_from_args(&fig17::report(scale, &bars)).expect("write BENCH json");
}
