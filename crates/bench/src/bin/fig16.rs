//! Regenerates Fig. 16 (ResNet18 convolution layers).
//! Usage: `cargo run --release -p axi4mlir-bench --bin fig16 [--quick]`.

use axi4mlir_bench::{fig16, report, Scale};

fn main() {
    let scale = Scale::from_args("usage: fig16 [--quick] [--json [DIR]]");
    println!("Fig. 16: ResNet18 convolution layers, AXI4MLIR vs. manual (normalized to manual)\n");
    let rows = fig16::rows(scale);
    println!("{}", fig16::render(&rows).render());
    println!("Expected shape: speedups on fHW == 3 layers; little or no gain on fHW == 1 layers");
    println!("(the strided-copy optimization cannot engage on single-element rows).");
    report::emit_from_args(&fig16::report(scale, &rows)).expect("write BENCH json");
}
