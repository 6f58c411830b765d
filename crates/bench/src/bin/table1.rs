//! Regenerates Table I. Usage: `cargo run --release -p axi4mlir-bench --bin table1`.

use axi4mlir_bench::{report, table1, Scale};

fn main() {
    // Table I has one scale; this is the shared unknown-flag rejection.
    Scale::from_args("usage: table1 [--json [DIR]]");
    println!("Table I: Accelerators used in the experiments\n");
    let rows = table1::rows();
    println!("{}", table1::render(&rows).render());
    report::emit_from_args(&table1::report(&rows)).expect("write BENCH json");
}
