//! Fig. 10: CPU vs. accelerator runtime characterization.
//!
//! Sweeps MatMul problems over `dims` and v1 accelerators over
//! `accel_size`, comparing the hand-written driver (`cpp_MANUAL`, Ns flow)
//! against CPU-only execution (`mlir_CPU`). The paper's observation to
//! reproduce: offload only pays off for `dims >= 64` **and**
//! `accel_size >= 8`.

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_baselines::matmul_driver;
use axi4mlir_config::{AcceleratorConfig, FlowStrategy};
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_support::fmtutil::{fmt_ms, TextTable};
use axi4mlir_workloads::matmul::MatMulProblem;

use crate::Scale;

/// One bar group of Fig. 10.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// Problem dimension (`dims = M = N = K`).
    pub dims: i64,
    /// Accelerator size, `None` for the CPU-only configuration.
    pub accel_size: Option<i64>,
    /// `cpp_MANUAL` task-clock (ms); `None` for the CPU-only bar.
    pub manual_ms: Option<f64>,
    /// `mlir_CPU` task-clock (ms).
    pub cpu_ms: f64,
}

/// The accelerator sizes swept per problem size.
fn sizes(scale: Scale) -> Vec<i64> {
    match scale {
        Scale::Quick => vec![4, 8],
        Scale::Full => vec![4, 8, 16],
    }
}

/// Runs the sweep. One session serves every bar: the CPU run and the
/// manual runs of a problem size share its workload, seed and recycled
/// SoC; only the device changes.
pub fn rows(scale: Scale) -> Vec<Fig10Row> {
    let mut out = Vec::new();
    let mut session = Session::for_sweep();
    let cpu_plan = CompilePlan::cpu().seed(10);
    for dims in scale.matmul_dims() {
        let problem = MatMulProblem::square(dims);
        let workload = MatMulWorkload::new(problem);
        let cpu = session.run(&workload, &cpu_plan).expect("CPU baseline");
        assert!(cpu.verified, "CPU baseline failed verification");
        out.push(Fig10Row { dims, accel_size: None, manual_ms: None, cpu_ms: cpu.task_clock_ms });
        for size in sizes(scale) {
            if dims % size != 0 || size > dims {
                continue;
            }
            let (v1, ns) = (MatMulVersion::V1, FlowStrategy::NothingStationary);
            let plan =
                CompilePlan::for_accelerator(AcceleratorConfig::matmul(v1, size)).flow(ns).seed(10);
            let manual = session
                .run_manual(&workload, &plan, matmul_driver(v1, size, ns, problem))
                .expect("v1 Ns manual driver");
            assert!(manual.verified, "manual driver failed verification");
            out.push(Fig10Row {
                dims,
                accel_size: Some(size),
                manual_ms: Some(manual.task_clock_ms),
                cpu_ms: cpu.task_clock_ms,
            });
        }
    }
    out
}

/// Renders the figure series as a table.
pub fn render(rows: &[Fig10Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "dims,accel_size,accel_version",
        "cpp_MANUAL [ms]",
        "mlir_CPU [ms]",
        "winner",
    ]);
    for r in rows {
        let label = match r.accel_size {
            None => format!("({}, 0, NONE)", r.dims),
            Some(s) => format!("({}, {s}, v1)", r.dims),
        };
        let winner = match r.manual_ms {
            None => "-".to_owned(),
            Some(m) if m < r.cpu_ms => "accel".to_owned(),
            Some(_) => "cpu".to_owned(),
        };
        t.row(vec![
            label,
            r.manual_ms.map(fmt_ms).unwrap_or_else(|| "-".to_owned()),
            fmt_ms(r.cpu_ms),
            winner,
        ]);
    }
    t
}

/// The machine-readable Fig. 10 series.
pub fn report(scale: Scale, rows: &[Fig10Row]) -> crate::report::BenchReport {
    use crate::report::{BenchEntry, BenchReport};
    let mut r = BenchReport::new("fig10").scale(scale);
    for row in rows {
        let id = match row.accel_size {
            None => format!("({}, 0, NONE)", row.dims),
            Some(s) => format!("({}, {s}, v1)", row.dims),
        };
        let mut e = BenchEntry::new(id).metric("dims", row.dims).metric("cpu_ms", row.cpu_ms);
        if let Some(size) = row.accel_size {
            e = e.metric("accel_size", size);
        }
        if let Some(ms) = row.manual_ms {
            e = e.metric("manual_ms", ms);
        }
        r.push(e);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_figure_style_labels() {
        let rows = rows(Scale::Quick);
        let text = render(&rows).render();
        assert!(text.contains("(64, 8, v1)"));
        assert!(text.contains("(16, 0, NONE)"));
    }
}
