//! Regenerates Fig. 13 (manual vs. AXI4MLIR across all configurations).
//! Usage: `cargo run --release -p axi4mlir-bench --bin fig13 [--quick]`.

use axi4mlir_bench::{fig13, report, Scale};
use axi4mlir_support::fmtutil::{fmt_percent, fmt_speedup};

fn main() {
    let scale = Scale::from_args("usage: fig13 [--quick] [--json [DIR]]");
    println!("Fig. 13: Manual vs. AXI4MLIR driver code (optimized copies)\n");
    let rows = fig13::rows(scale);
    println!("{}", fig13::render(&rows).render());
    let s = fig13::summarize(&rows);
    println!(
        "summary: mean speedup {} (paper: 1.18x), max {} (paper: 1.65x); \
         mean cache-reference reduction {} (paper: 10%), max {} (paper: 56%)",
        fmt_speedup(s.mean_speedup),
        fmt_speedup(s.max_speedup),
        fmt_percent(s.mean_cache_reduction),
        fmt_percent(s.max_cache_reduction),
    );
    report::emit_from_args(&fig13::report(scale, &rows)).expect("write BENCH json");
}
