//! Fig. 14: MatMul problem permutations on the flexible v4 accelerator.
//!
//! For each permutation of `[32, 256, 512]`, compares the square-tile
//! heuristics (`As/Bs/Cs-squareTile`) against the free `Best` search.
//! Reproduction targets: the best square flow changes with the problem
//! shape, square tiles top out at `T = 32`, and `Best` (non-square tiles)
//! is at least as fast as every square strategy.

use axi4mlir_accelerators::matmul::V4_CAPACITY_WORDS;
use axi4mlir_config::FlowStrategy;
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_heuristics::{best_choice, square_tile_choice, AccelInstance, TileChoice};
use axi4mlir_support::fmtutil::{fmt_ms, TextTable};
use axi4mlir_workloads::matmul::MatMulProblem;

use crate::Scale;

/// One problem permutation's measurements.
#[derive(Clone, Debug)]
pub struct Fig14Row {
    /// The problem.
    pub problem: MatMulProblem,
    /// `(strategy label, measured ms)` for the square heuristics.
    pub square_ms: Vec<(String, f64)>,
    /// The `Best` configuration chosen by the search.
    pub best: TileChoice,
    /// Measured ms for `Best`.
    pub best_ms: f64,
}

/// The base (divisibility) size of the v4 accelerator used.
const V4_BASE: i64 = 16;

fn run_choice(session: &mut Session, problem: MatMulProblem, choice: &TileChoice) -> f64 {
    let config = AccelInstance::v4(V4_BASE).config(choice.tile, choice.flow);
    let plan = CompilePlan::for_accelerator(config).seed(14);
    let report = session.run(&MatMulWorkload::new(problem), &plan).expect("v4 run");
    assert!(report.verified, "{problem} {choice:?}");
    report.task_clock_ms
}

/// The problems at each scale (full = permutations of [32, 256, 512]).
fn problems(scale: Scale) -> Vec<MatMulProblem> {
    match scale {
        Scale::Quick => MatMulProblem::permutations_of(32, 64, 128),
        Scale::Full => MatMulProblem::permutations_of(32, 256, 512),
    }
}

/// Runs the experiment. Every measurement drives the same v4_16 device
/// through one shared session — only the runtime tile configuration
/// changes between runs.
pub fn rows(scale: Scale) -> Vec<Fig14Row> {
    let mut out = Vec::new();
    let mut session = Session::for_sweep();
    for problem in problems(scale) {
        let dims = (problem.m, problem.n, problem.k);
        let mut square_ms = Vec::new();
        for flow in [
            FlowStrategy::InputAStationary,
            FlowStrategy::InputBStationary,
            FlowStrategy::OutputStationary,
        ] {
            if let Ok(choice) = square_tile_choice(flow, dims, V4_BASE, V4_CAPACITY_WORDS) {
                let ms = run_choice(&mut session, problem, &choice);
                square_ms.push((format!("{}-squareTile", flow.short_name()), ms));
            }
        }
        let best = best_choice(dims, V4_BASE, V4_CAPACITY_WORDS).expect("a legal configuration");
        let best_ms = run_choice(&mut session, problem, &best);
        out.push(Fig14Row { problem, square_ms, best, best_ms });
    }
    out
}

/// Renders the figure series with Best annotations.
pub fn render(rows: &[Fig14Row]) -> TextTable {
    let mut t =
        TextTable::new(vec!["dims [M_N_K]", "strategy", "task-clock [ms]", "chosen config"]);
    for r in rows {
        for (label, ms) in &r.square_ms {
            t.row(vec![r.problem.label(), label.clone(), fmt_ms(*ms), "-".to_owned()]);
        }
        t.row(vec![r.problem.label(), "Best".to_owned(), fmt_ms(r.best_ms), r.best.label()]);
    }
    t
}

/// The machine-readable Fig. 14 series.
pub fn report(scale: Scale, rows: &[Fig14Row]) -> crate::report::BenchReport {
    use crate::report::{BenchEntry, BenchReport};
    let mut r = BenchReport::new("fig14").scale(scale);
    for row in rows {
        let mut e = BenchEntry::new(row.problem.label());
        for (label, ms) in &row.square_ms {
            e = e.metric(&format!("{label}_ms"), *ms);
        }
        e = e
            .metric("best_config", row.best.label())
            .metric("best_ms", row.best_ms)
            .metric("best_estimated_words", row.best.estimate.words_total());
        r.push(e);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_flow_depends_on_problem_shape() {
        let rows = rows(Scale::Quick);
        let labels: std::collections::BTreeSet<String> =
            rows.iter().map(|r| r.best.label()).collect();
        assert!(labels.len() > 1, "Best must adapt to the permutation: {labels:?}");
    }

    #[test]
    fn square_choices_use_the_smallest_dimension() {
        // With the smallest dim = 32, square tiling tops out at T = 32.
        for r in rows(Scale::Quick) {
            assert!(!r.square_ms.is_empty());
        }
        let dims = (32, 64, 128);
        let c = square_tile_choice(FlowStrategy::OutputStationary, dims, 16, V4_CAPACITY_WORDS)
            .unwrap();
        assert_eq!(c.tile, (32, 32, 32));
    }

    #[test]
    fn render_annotates_best() {
        let text = render(&rows(Scale::Quick)).render();
        assert!(text.contains("Best"));
        assert!(text.contains("squareTile"));
    }
}
