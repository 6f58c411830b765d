//! Regenerates Fig. 11 (manual Ns vs. generated flows, pre-optimization).
//! Usage: `cargo run --release -p axi4mlir-bench --bin fig11 [--quick]`.

use axi4mlir_bench::{fig11, report, Scale};

fn main() {
    let scale = Scale::from_args("usage: fig11 [--quick] [--json [DIR]]");
    println!("Fig. 11: Manual Ns vs. AXI4MLIR flows (element-wise copies)\n");
    let rows = fig11::rows(scale);
    println!("{}", fig11::render(&rows).render());
    println!("Expected shape: generated Ns loses to manual Ns; Cs improves on generated Ns.");
    report::emit_from_args(&fig11::report(scale, &rows)).expect("write BENCH json");
}
