//! Regenerates Fig. 12 (copy-optimization profile).
//! Usage: `cargo run --release -p axi4mlir-bench --bin fig12 [--quick]`.

use axi4mlir_bench::{fig12, report, Scale};

fn main() {
    let scale = Scale::from_args("usage: fig12 [--quick] [--json [DIR]]");
    let (dims, size) = fig12::config(scale);
    println!("Fig. 12: v3_{size} vs mlir_CPU, dims == {dims} (normalized to CPU execution)\n");
    println!("(a) without the MemRef-DMA copy optimization:\n");
    let rows_a = fig12::rows(scale, fig12::Variant::A);
    println!("{}", fig12::render(&rows_a).render());
    println!("(b) with the specialized memcpy optimization:\n");
    let rows_b = fig12::rows(scale, fig12::Variant::B);
    println!("{}", fig12::render(&rows_b).render());
    println!("Expected shape: (a) generated flows above manual on branches/references;");
    println!("(b) generated flows at or below manual on every metric.");
    report::emit_from_args(&fig12::report(scale, fig12::Variant::A, &rows_a))
        .expect("write BENCH json");
    report::emit_from_args(&fig12::report(scale, fig12::Variant::B, &rows_b))
        .expect("write BENCH json");
}
