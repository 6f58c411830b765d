//! Regenerates Fig. 10 (CPU vs. accelerator characterization).
//! Usage: `cargo run --release -p axi4mlir-bench --bin fig10 [--quick]`.

use axi4mlir_bench::{fig10, report, Scale};

fn main() {
    let scale = Scale::from_args("usage: fig10 [--quick] [--json [DIR]]");
    println!("Fig. 10: Runtime characterization CPU vs. accelerator (v1, Ns flow)\n");
    let rows = fig10::rows(scale);
    println!("{}", fig10::render(&rows).render());
    println!("Expected shape: the accelerator only wins for dims >= 64 and accel size >= 8.");
    report::emit_from_args(&fig10::report(scale, &rows)).expect("write BENCH json");
}
