//! Fig. 17: TinyBERT end-to-end co-execution.
//!
//! Three compilation approaches for the model's MatMuls:
//!
//! - `CPU (MLIR)`: everything on the host;
//! - `Ns-SquareTile`: offload with the nothing-stationary flow and square
//!   tiles on the v4_16 accelerator;
//! - `AXI4MLIR Best`: per-problem flow + non-square tile search (§IV-C).
//!
//! Non-MatMul operators stay on the CPU in every bar. The paper reports
//! MatMuls at ~75% of the CPU-only runtime, so "other layers" are modelled
//! as one third of the measured CPU MatMul time; reproduction targets are
//! the *shape*: a >2x end-to-end win and a >5x MatMul-only win, with
//! `Best` ahead of `Ns-SquareTile`.

use axi4mlir_accelerators::matmul::V4_CAPACITY_WORDS;
use axi4mlir_config::FlowStrategy;
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_heuristics::{best_choice, square_tile_choice, AccelInstance, TileChoice};
use axi4mlir_support::fmtutil::{fmt_ms, fmt_speedup, TextTable};
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::tinybert::{tinybert_matmuls, TinyBertMatMul};

use crate::Scale;

/// The v4 base size used for the end-to-end experiment.
const V4_BASE: i64 = 16;

/// One compilation approach's totals.
#[derive(Clone, Debug)]
pub struct Fig17Bar {
    /// Approach label.
    pub approach: String,
    /// Total MatMul time (ms), on whichever device runs them.
    pub matmul_ms: f64,
    /// Non-MatMul (CPU-resident) time (ms).
    pub other_ms: f64,
}

impl Fig17Bar {
    /// End-to-end time.
    pub fn e2e_ms(&self) -> f64 {
        self.matmul_ms + self.other_ms
    }
}

/// The MatMul inventory at each scale.
fn inventory(scale: Scale) -> Vec<TinyBertMatMul> {
    match scale {
        Scale::Full => tinybert_matmuls(),
        // One layer's worth, shrunk: keeps every role but divides counts
        // and sizes so debug runs finish quickly.
        Scale::Quick => vec![
            TinyBertMatMul { role: "qkv", problem: MatMulProblem::new(64, 80, 80), count: 3 },
            TinyBertMatMul { role: "scores", problem: MatMulProblem::new(32, 32, 32), count: 4 },
            TinyBertMatMul { role: "ffn_up", problem: MatMulProblem::new(64, 144, 80), count: 1 },
        ],
    }
}

fn accel_total_ms(
    session: &mut Session,
    inventory: &[TinyBertMatMul],
    choose: impl Fn(&MatMulProblem) -> Result<TileChoice, axi4mlir_support::diag::Diagnostic>,
) -> f64 {
    let mut total = 0.0;
    for entry in inventory {
        let choice = choose(&entry.problem)
            .unwrap_or_else(|e| panic!("no legal v4 configuration for {}: {e}", entry.problem));
        let config = AccelInstance::v4(V4_BASE).config(choice.tile, choice.flow);
        let plan = CompilePlan::for_accelerator(config).seed(17);
        let report = session.run(&MatMulWorkload::new(entry.problem), &plan).expect("v4 run");
        assert!(report.verified, "{}: {:?}", entry.problem, choice);
        total += report.task_clock_ms * entry.count as f64;
    }
    total
}

/// Runs the three bars. The whole inventory — every GEMM of every
/// approach — reuses one accelerator session and one CPU session.
pub fn bars(scale: Scale) -> Vec<Fig17Bar> {
    let inventory = inventory(scale);
    // CPU-only MatMul time.
    let mut cpu_session = Session::for_sweep();
    let cpu_plan = CompilePlan::cpu().seed(17);
    let mut cpu_matmul_ms = 0.0;
    for entry in &inventory {
        let r =
            cpu_session.run(&MatMulWorkload::new(entry.problem), &cpu_plan).expect("CPU baseline");
        assert!(r.verified);
        cpu_matmul_ms += r.task_clock_ms * entry.count as f64;
    }
    // Other layers: one third of CPU MatMul time => MatMuls are 75% of the
    // CPU-only bar, as in the paper.
    let other_ms = cpu_matmul_ms / 3.0;

    let mut accel_session = Session::for_sweep();
    let ns_square = accel_total_ms(&mut accel_session, &inventory, |p| {
        square_tile_choice(
            FlowStrategy::NothingStationary,
            (p.m, p.n, p.k),
            V4_BASE,
            V4_CAPACITY_WORDS,
        )
    });
    let best = accel_total_ms(&mut accel_session, &inventory, |p| {
        best_choice((p.m, p.n, p.k), V4_BASE, V4_CAPACITY_WORDS)
    });

    vec![
        Fig17Bar { approach: "CPU (MLIR)".to_owned(), matmul_ms: cpu_matmul_ms, other_ms },
        Fig17Bar { approach: "Ns-SquareTile".to_owned(), matmul_ms: ns_square, other_ms },
        Fig17Bar { approach: "AXI4MLIR Best".to_owned(), matmul_ms: best, other_ms },
    ]
}

/// Renders the figure with the paper's annotations.
pub fn render(bars: &[Fig17Bar]) -> TextTable {
    let cpu = &bars[0];
    let mut t = TextTable::new(vec![
        "approach",
        "matmul [ms]",
        "other [ms]",
        "e2e [ms]",
        "e2e speedup",
        "matmul speedup",
    ]);
    for b in bars {
        t.row(vec![
            b.approach.clone(),
            fmt_ms(b.matmul_ms),
            fmt_ms(b.other_ms),
            fmt_ms(b.e2e_ms()),
            fmt_speedup(cpu.e2e_ms() / b.e2e_ms()),
            fmt_speedup(cpu.matmul_ms / b.matmul_ms),
        ]);
    }
    t
}

/// The machine-readable Fig. 17 series.
pub fn report(scale: Scale, bars: &[Fig17Bar]) -> crate::report::BenchReport {
    use crate::report::{BenchEntry, BenchReport};
    let mut r = BenchReport::new("fig17").scale(scale);
    for bar in bars {
        r.push(
            BenchEntry::new(bar.approach.clone())
                .metric("matmul_ms", bar.matmul_ms)
                .metric("other_ms", bar.other_ms)
                .metric("e2e_ms", bar.e2e_ms()),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn co_execution_beats_cpu_end_to_end() {
        let bars = bars(Scale::Quick);
        let cpu = bars[0].clone();
        let ns = bars[1].clone();
        let best = bars[2].clone();
        assert!(
            ns.e2e_ms() < cpu.e2e_ms(),
            "Ns-SquareTile e2e {:.2} must beat CPU {:.2}",
            ns.e2e_ms(),
            cpu.e2e_ms()
        );
        assert!(
            best.e2e_ms() <= ns.e2e_ms(),
            "Best {:.2} must be at least as fast as Ns-SquareTile {:.2}",
            best.e2e_ms(),
            ns.e2e_ms()
        );
        let matmul_speedup = cpu.matmul_ms / best.matmul_ms;
        assert!(matmul_speedup > 2.0, "MatMul speedup {matmul_speedup:.2}");
    }

    #[test]
    fn other_layers_are_a_quarter_of_cpu_e2e() {
        let bars = bars(Scale::Quick);
        let cpu = &bars[0];
        let frac = cpu.matmul_ms / cpu.e2e_ms();
        assert!((frac - 0.75).abs() < 1e-9, "MatMuls are 75% of the CPU bar: {frac}");
    }

    #[test]
    fn render_annotates_speedups() {
        let text = render(&bars(Scale::Quick)).render();
        assert!(text.contains("e2e speedup"));
        assert!(text.contains("AXI4MLIR Best"));
    }
}
