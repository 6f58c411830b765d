//! Fig. 13: manual vs. AXI4MLIR across every configuration (optimized
//! copies).
//!
//! Reproduction targets: the generated driver wins in **all** cases; the
//! paper reports a 1.18x average / 1.65x max speedup and a 10% average /
//! 56% max cache-reference reduction.

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_baselines::matmul_driver;
use axi4mlir_config::{AcceleratorConfig, FlowStrategy};
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_heuristics::space::AccelInstance;
use axi4mlir_support::fmtutil::{fmt_ms, fmt_speedup, TextTable};
use axi4mlir_workloads::matmul::MatMulProblem;

use crate::Scale;

/// One bar pair of Fig. 13.
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// Problem dimension.
    pub dims: i64,
    /// Accelerator tile size.
    pub size: i64,
    /// Accelerator type (v2 or v3).
    pub version: MatMulVersion,
    /// Flow strategy.
    pub flow: FlowStrategy,
    /// Manual task-clock (ms).
    pub manual_ms: f64,
    /// Generated task-clock (ms).
    pub generated_ms: f64,
    /// Manual cache references.
    pub manual_refs: u64,
    /// Generated cache references.
    pub generated_refs: u64,
}

impl Fig13Row {
    /// Manual / generated runtime ratio (>1 means AXI4MLIR wins).
    fn speedup(&self) -> f64 {
        self.manual_ms / self.generated_ms
    }

    /// Fractional cache-reference reduction (positive means fewer).
    fn cache_reduction(&self) -> f64 {
        1.0 - self.generated_refs as f64 / self.manual_refs as f64
    }

    /// Figure x-axis label.
    fn label(&self) -> String {
        format!("({}, {}, {}, {})", self.dims, self.size, self.version, self.flow.short_name())
    }
}

/// Runs the full grid. Both bars of a pair run the same workload under
/// the same plan, and one session serves the whole sweep (SoC recycled
/// per run, device swapped per grid point).
pub fn rows(scale: Scale) -> Vec<Fig13Row> {
    let mut out = Vec::new();
    let mut session = Session::for_sweep();
    for dims in scale.relevant_dims() {
        for size in scale.accel_sizes() {
            for version in [MatMulVersion::V2, MatMulVersion::V3] {
                for flow in (AccelInstance { version, size }).flows() {
                    let problem = MatMulProblem::square(dims);
                    let workload = MatMulWorkload::new(problem);
                    let plan =
                        CompilePlan::for_accelerator(AcceleratorConfig::matmul(version, size))
                            .flow(flow)
                            .seed(13);
                    let manual = session
                        .run_manual(&workload, &plan, matmul_driver(version, size, flow, problem))
                        .expect("manual driver");
                    assert!(manual.verified);
                    let generated = session.run(&workload, &plan).expect("generated driver");
                    assert!(generated.verified);
                    out.push(Fig13Row {
                        dims,
                        size,
                        version,
                        flow,
                        manual_ms: manual.task_clock_ms,
                        generated_ms: generated.task_clock_ms,
                        manual_refs: manual.counters.cache_references,
                        generated_refs: generated.counters.cache_references,
                    });
                }
            }
        }
    }
    out
}

/// Aggregate statistics over the grid.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Summary {
    /// Geometric-mean speedup.
    pub mean_speedup: f64,
    /// Maximum speedup.
    pub max_speedup: f64,
    /// Mean cache-reference reduction.
    pub mean_cache_reduction: f64,
    /// Maximum cache-reference reduction.
    pub max_cache_reduction: f64,
}

/// Summarizes the grid the way the paper quotes it.
pub fn summarize(rows: &[Fig13Row]) -> Fig13Summary {
    let n = rows.len() as f64;
    let mean_speedup = (rows.iter().map(|r| r.speedup().ln()).sum::<f64>() / n).exp();
    let max_speedup = rows.iter().map(Fig13Row::speedup).fold(0.0, f64::max);
    let mean_cache_reduction = rows.iter().map(Fig13Row::cache_reduction).sum::<f64>() / n;
    let max_cache_reduction = rows.iter().map(Fig13Row::cache_reduction).fold(0.0, f64::max);
    Fig13Summary { mean_speedup, max_speedup, mean_cache_reduction, max_cache_reduction }
}

/// Renders the figure series.
pub fn render(rows: &[Fig13Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "dims,accel_size,version,strategy",
        "cpp_MANUAL [ms]",
        "mlir_AXI4MLIR [ms]",
        "speedup",
    ]);
    for r in rows {
        t.row(vec![
            r.label(),
            fmt_ms(r.manual_ms),
            fmt_ms(r.generated_ms),
            fmt_speedup(r.speedup()),
        ]);
    }
    t
}

/// The machine-readable Fig. 13 series (with the summary as context).
pub fn report(scale: Scale, rows: &[Fig13Row]) -> crate::report::BenchReport {
    use crate::report::{BenchEntry, BenchReport};
    let s = summarize(rows);
    let mut r = BenchReport::new("fig13")
        .scale(scale)
        .context("mean_speedup", s.mean_speedup)
        .context("max_speedup", s.max_speedup)
        .context("mean_cache_reduction", s.mean_cache_reduction)
        .context("max_cache_reduction", s.max_cache_reduction);
    for row in rows {
        r.push(
            BenchEntry::new(row.label())
                .metric("manual_ms", row.manual_ms)
                .metric("generated_ms", row.generated_ms)
                .metric("manual_cache_refs", row.manual_refs)
                .metric("generated_cache_refs", row.generated_refs)
                .metric("speedup", row.speedup())
                .metric("cache_reduction", row.cache_reduction()),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_are_in_a_plausible_band() {
        // Paper: 1.18x average, 1.65x max. Shapes, not absolutes: expect
        // the mean in [1.05, 2.0] and max below 3x.
        let s = summarize(&rows(Scale::Quick));
        assert!(s.mean_speedup > 1.05, "mean {:.3}", s.mean_speedup);
        assert!(s.mean_speedup < 2.0, "mean {:.3}", s.mean_speedup);
        assert!(s.max_speedup < 3.0, "max {:.3}", s.max_speedup);
    }

    #[test]
    fn cache_references_drop_on_average() {
        let s = summarize(&rows(Scale::Quick));
        assert!(s.mean_cache_reduction > 0.0, "mean reduction {:.3}", s.mean_cache_reduction);
    }

    #[test]
    fn render_pairs_manual_and_generated() {
        let text = render(&rows(Scale::Quick)).render();
        assert!(text.contains("cpp_MANUAL"));
        assert!(text.contains("speedup"));
    }
}
