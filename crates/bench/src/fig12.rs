//! Fig. 12: branch / cache-reference / task-clock profile of the copy
//! optimization, normalized to CPU-only execution.
//!
//! Variant (a): AXI4MLIR with the rank-generic element-wise copy — the
//! generated flows pay *more* branches and cache references than the
//! manual driver. Variant (b): with the specialized `memcpy` copy — the
//! generated flows match or beat the manual driver on every metric.

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_baselines::matmul_driver;
use axi4mlir_config::{AcceleratorConfig, FlowStrategy};
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_core::options::PipelineOptions;
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::fmtutil::{fmt_percent, TextTable};
use axi4mlir_workloads::matmul::MatMulProblem;

use crate::Scale;

/// Which copy implementation the generated code uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Fig. 12a: element-wise recursive copies.
    A,
    /// Fig. 12b: specialized `memcpy` copies.
    B,
}

/// One strategy's metrics, normalized to the CPU-only run.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Strategy label (`cpp_MANUAL Ns`, `mlir_AXI4MLIR Cs`, ...).
    pub strategy: String,
    /// branch-instructions / CPU branch-instructions.
    pub branch_ratio: f64,
    /// cache-references / CPU cache-references.
    pub cache_ratio: f64,
    /// task-clock / CPU task-clock.
    pub clock_ratio: f64,
}

fn ratios(c: &PerfCounters, clock_ms: f64, cpu: &PerfCounters, cpu_ms: f64) -> (f64, f64, f64) {
    (
        c.branch_instructions as f64 / cpu.branch_instructions as f64,
        c.cache_references as f64 / cpu.cache_references as f64,
        clock_ms / cpu_ms,
    )
}

/// The `(dims, size)` the figure profiles at each scale.
pub fn config(scale: Scale) -> (i64, i64) {
    match scale {
        Scale::Quick => (64, 8),
        Scale::Full => (128, 16),
    }
}

/// Runs one variant of the experiment (v3 accelerator). The CPU
/// reference, the manual driver and the four generated flows share one
/// session, one workload and one plan (only the flow changes) — the same
/// device, recycled between runs.
pub fn rows(scale: Scale, variant: Variant) -> Vec<Fig12Row> {
    let (dims, size) = config(scale);
    let problem = MatMulProblem::square(dims);
    let workload = MatMulWorkload::new(problem);
    let mut session = Session::for_sweep();
    let cpu = session.run(&workload, &CompilePlan::cpu().seed(12)).expect("CPU baseline");
    let mut out = Vec::new();

    let options = match variant {
        Variant::A => PipelineOptions::unoptimized_copies(),
        Variant::B => PipelineOptions::optimized(),
    };
    let v3 = MatMulVersion::V3;
    let plan =
        CompilePlan::for_accelerator(AcceleratorConfig::matmul(v3, size)).options(options).seed(12);
    let ns = FlowStrategy::NothingStationary;
    let manual = session
        .run_manual(&workload, &plan.clone().flow(ns), matmul_driver(v3, size, ns, problem))
        .expect("manual Ns");
    assert!(manual.verified);
    let (b, c, t) =
        ratios(&manual.counters, manual.task_clock_ms, &cpu.counters, cpu.task_clock_ms);
    out.push(Fig12Row {
        strategy: "cpp_MANUAL Ns".to_owned(),
        branch_ratio: b,
        cache_ratio: c,
        clock_ratio: t,
    });

    for flow in FlowStrategy::all() {
        let report = session.run(&workload, &plan.clone().flow(flow)).expect("generated driver");
        assert!(report.verified);
        let (b, c, t) =
            ratios(&report.counters, report.task_clock_ms, &cpu.counters, cpu.task_clock_ms);
        out.push(Fig12Row {
            strategy: format!("mlir_AXI4MLIR {}", flow.short_name()),
            branch_ratio: b,
            cache_ratio: c,
            clock_ratio: t,
        });
    }
    out
}

/// Renders one variant.
pub fn render(rows: &[Fig12Row]) -> TextTable {
    let mut t =
        TextTable::new(vec!["strategy", "branch-instructions", "cache-references", "task-clock"]);
    for r in rows {
        t.row(vec![
            r.strategy.clone(),
            fmt_percent(r.branch_ratio),
            fmt_percent(r.cache_ratio),
            fmt_percent(r.clock_ratio),
        ]);
    }
    t
}

/// The machine-readable Fig. 12 series for one variant.
pub fn report(scale: Scale, variant: Variant, rows: &[Fig12Row]) -> crate::report::BenchReport {
    use crate::report::{BenchEntry, BenchReport};
    let name = match variant {
        Variant::A => "fig12a",
        Variant::B => "fig12b",
    };
    let mut r = BenchReport::new(name).scale(scale);
    for row in rows {
        r.push(
            BenchEntry::new(row.strategy.clone())
                .metric("branch_ratio", row.branch_ratio)
                .metric("cache_ratio", row.cache_ratio)
                .metric("clock_ratio", row.clock_ratio),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(rows: &'a [Fig12Row], label: &str) -> &'a Fig12Row {
        rows.iter().find(|r| r.strategy.contains(label)).expect("row")
    }

    /// Fig. 12a: without the optimization, generated copies cost more
    /// branches and references than the manual driver.
    #[test]
    fn variant_a_generated_pays_copy_overhead() {
        let rows = rows(Scale::Quick, Variant::A);
        let manual = get(&rows, "cpp_MANUAL").clone();
        let generated_ns = get(&rows, "AXI4MLIR Ns").clone();
        assert!(
            generated_ns.branch_ratio > manual.branch_ratio,
            "element-wise copies branch more: {generated_ns:?} vs {manual:?}"
        );
        assert!(
            generated_ns.cache_ratio > manual.cache_ratio,
            "element-wise copies reference more: {generated_ns:?} vs {manual:?}"
        );
        assert!(generated_ns.clock_ratio > manual.clock_ratio);
    }

    /// Fig. 12b: with the optimization, generated Ns beats manual Ns on
    /// every metric.
    #[test]
    fn variant_b_generated_beats_manual() {
        let rows = rows(Scale::Quick, Variant::B);
        let manual = get(&rows, "cpp_MANUAL").clone();
        let generated_ns = get(&rows, "AXI4MLIR Ns").clone();
        // Branch counts come out near-identical (the extra cache-tiling
        // loops add a fraction of a percent), as in the paper's Fig. 12b.
        assert!(
            generated_ns.branch_ratio <= manual.branch_ratio * 1.05,
            "{generated_ns:?} vs {manual:?}"
        );
        assert!(generated_ns.cache_ratio < manual.cache_ratio, "{generated_ns:?} vs {manual:?}");
        assert!(generated_ns.clock_ratio < manual.clock_ratio, "{generated_ns:?} vs {manual:?}");
    }

    /// The optimization shrinks every generated flow's metrics.
    #[test]
    fn optimization_reduces_all_flows() {
        let a = rows(Scale::Quick, Variant::A);
        let b = rows(Scale::Quick, Variant::B);
        for flow in ["Ns", "As", "Bs", "Cs"] {
            let before = get(&a, &format!("AXI4MLIR {flow}"));
            let after = get(&b, &format!("AXI4MLIR {flow}"));
            assert!(after.cache_ratio < before.cache_ratio, "{flow}");
            assert!(after.clock_ratio < before.clock_ratio, "{flow}");
        }
    }

    #[test]
    fn render_has_percent_columns() {
        let text = render(&rows(Scale::Quick, Variant::B)).render();
        assert!(text.contains('%'));
        assert!(text.contains("cpp_MANUAL Ns"));
    }
}
