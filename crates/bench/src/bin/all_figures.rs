//! Regenerates every table and figure in one run (used to produce
//! `EXPERIMENTS.md`), and with `--json [DIR]` also writes every
//! per-figure `BENCH_*.json` report. Usage:
//! `cargo run --release -p axi4mlir-bench --bin all_figures [--quick] [--json [DIR]]`.

use axi4mlir_bench::{fig10, fig11, fig12, fig13, fig14, fig16, fig17, report, table1, Scale};
use axi4mlir_support::fmtutil::{fmt_percent, fmt_speedup};

fn main() {
    let scale = Scale::from_args("usage: all_figures [--quick] [--json [DIR]]");

    println!("## Table I\n");
    let table1_rows = table1::rows();
    println!("{}", table1::render(&table1_rows).render());

    println!("## Fig. 10\n");
    let fig10_rows = fig10::rows(scale);
    println!("{}", fig10::render(&fig10_rows).render());

    println!("## Fig. 11\n");
    let fig11_rows = fig11::rows(scale);
    println!("{}", fig11::render(&fig11_rows).render());

    println!("## Fig. 12a\n");
    let fig12a_rows = fig12::rows(scale, fig12::Variant::A);
    println!("{}", fig12::render(&fig12a_rows).render());
    println!("## Fig. 12b\n");
    let fig12b_rows = fig12::rows(scale, fig12::Variant::B);
    println!("{}", fig12::render(&fig12b_rows).render());

    println!("## Fig. 13\n");
    let fig13_rows = fig13::rows(scale);
    println!("{}", fig13::render(&fig13_rows).render());
    let s = fig13::summarize(&fig13_rows);
    println!(
        "summary: mean speedup {}, max {}; mean cache-reference reduction {}, max {}\n",
        fmt_speedup(s.mean_speedup),
        fmt_speedup(s.max_speedup),
        fmt_percent(s.mean_cache_reduction),
        fmt_percent(s.max_cache_reduction),
    );

    println!("## Fig. 14\n");
    let fig14_rows = fig14::rows(scale);
    println!("{}", fig14::render(&fig14_rows).render());

    println!("## Fig. 16\n");
    let fig16_rows = fig16::rows(scale);
    println!("{}", fig16::render(&fig16_rows).render());

    println!("## Fig. 17\n");
    let fig17_bars = fig17::bars(scale);
    println!("{}", fig17::render(&fig17_bars).render());

    for r in [
        table1::report(&table1_rows),
        fig10::report(scale, &fig10_rows),
        fig11::report(scale, &fig11_rows),
        fig12::report(scale, fig12::Variant::A, &fig12a_rows),
        fig12::report(scale, fig12::Variant::B, &fig12b_rows),
        fig13::report(scale, &fig13_rows),
        fig14::report(scale, &fig14_rows),
        fig16::report(scale, &fig16_rows),
        fig17::report(scale, &fig17_bars),
    ] {
        report::emit_from_args(&r).expect("write BENCH json");
    }
}
