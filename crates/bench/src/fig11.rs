//! Fig. 11: manual Ns vs. AXI4MLIR-generated flows, *before* the copy
//! optimization.
//!
//! Reproduction targets: the generated Ns is **slower** than the manual Ns
//! (the rank-generic element-wise copy overhead the paper then fixes), and
//! the Cs flow still provides improvements over manual Ns on v3.

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_baselines::matmul_driver;
use axi4mlir_config::{AcceleratorConfig, FlowStrategy};
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_core::options::PipelineOptions;
use axi4mlir_heuristics::space::AccelInstance;
use axi4mlir_support::fmtutil::{fmt_ms, TextTable};
use axi4mlir_workloads::matmul::MatMulProblem;

use crate::Scale;

/// One bar group: a `(dims, accel_size, version)` configuration.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Problem dimension.
    pub dims: i64,
    /// Accelerator tile size.
    pub size: i64,
    /// Accelerator type (v2 or v3).
    pub version: MatMulVersion,
    /// Manual Ns task-clock (ms).
    pub manual_ns_ms: f64,
    /// Generated task-clock per flow `(label, ms)`.
    pub generated_ms: Vec<(String, f64)>,
}

/// Runs the sweep with element-wise (pre-optimization) copies. One
/// session serves the whole grid, manual and generated bars alike: each
/// group runs one workload under one plan (only the flow changes), the
/// SoC is recycled per run and the device model swapped only when the
/// (version, size) point changes.
pub fn rows(scale: Scale) -> Vec<Fig11Row> {
    let mut out = Vec::new();
    let mut session = Session::for_sweep();
    for dims in scale.relevant_dims() {
        for size in scale.accel_sizes() {
            for version in [MatMulVersion::V2, MatMulVersion::V3] {
                let problem = MatMulProblem::square(dims);
                let workload = MatMulWorkload::new(problem);
                let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(version, size))
                    .options(PipelineOptions::unoptimized_copies())
                    .seed(11);
                let ns = FlowStrategy::NothingStationary;
                let manual = session
                    .run_manual(
                        &workload,
                        &plan.clone().flow(ns),
                        matmul_driver(version, size, ns, problem),
                    )
                    .expect("manual Ns");
                assert!(manual.verified);
                let mut generated = Vec::new();
                for flow in (AccelInstance { version, size }).flows() {
                    let plan = plan.clone().flow(flow);
                    let report = session.run(&workload, &plan).expect("generated driver");
                    assert!(report.verified, "{version} {flow} must verify");
                    generated.push((flow.short_name().to_owned(), report.task_clock_ms));
                }
                out.push(Fig11Row {
                    dims,
                    size,
                    version,
                    manual_ns_ms: manual.task_clock_ms,
                    generated_ms: generated,
                });
            }
        }
    }
    out
}

/// Renders the figure series.
pub fn render(rows: &[Fig11Row]) -> TextTable {
    let mut t =
        TextTable::new(vec!["dims,accel_size,accel_version", "strategy", "task-clock [ms]"]);
    for r in rows {
        let group = format!("({}, {}, {})", r.dims, r.size, r.version);
        t.row(vec![group.clone(), "cpp_MANUAL Ns".to_owned(), fmt_ms(r.manual_ns_ms)]);
        for (flow, ms) in &r.generated_ms {
            t.row(vec![group.clone(), format!("mlir_AXI4MLIR {flow}"), fmt_ms(*ms)]);
        }
    }
    t
}

/// The machine-readable Fig. 11 series.
pub fn report(scale: Scale, rows: &[Fig11Row]) -> crate::report::BenchReport {
    use crate::report::{BenchEntry, BenchReport};
    let mut r = BenchReport::new("fig11").scale(scale);
    for row in rows {
        let mut e = BenchEntry::new(format!("({}, {}, {})", row.dims, row.size, row.version))
            .metric("dims", row.dims)
            .metric("size", row.size)
            .metric("manual_ns_ms", row.manual_ns_ms);
        for (label, ms) in &row.generated_ms {
            e = e.metric(&format!("generated_{label}_ms"), *ms);
        }
        r.push(e);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_rows_have_three_flows() {
        let rows = rows(Scale::Quick);
        let v2 = rows.iter().find(|r| r.version == MatMulVersion::V2).unwrap();
        assert_eq!(v2.generated_ms.len(), 3);
        let text = render(&rows).render();
        assert!(text.contains("cpp_MANUAL Ns"));
        assert!(text.contains("mlir_AXI4MLIR As"));
    }
}
