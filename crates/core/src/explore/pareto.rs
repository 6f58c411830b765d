//! Multi-objective dominance and the Pareto front over a sweep's
//! evaluations.
//!
//! The §IV-C heuristics minimize a single scalar (estimated DMA
//! traffic), but the explored space trades simulated task-clock against
//! traffic and accelerator occupancy. This module scores every
//! [`Evaluation`] under a set of [`Objective`]s (all phrased so smaller
//! is better) and computes the *non-dominated front*: the evaluations no
//! other evaluation beats on every objective at once. The front is what
//! `BENCH_explore.json` reports, and where the paper's analytical pick
//! is located relative to it.
//!
//! Dominance is the standard strict Pareto order: `a` dominates `b` when
//! `a` is no worse on every objective and strictly better on at least
//! one. The front is a *set* — it is invariant under the order
//! evaluations are listed in (asserted by the property tests) — but this
//! module reports it in evaluation order so reports stay deterministic.

use axi4mlir_heuristics::objective::Objective;

use super::Evaluation;

impl Evaluation {
    /// The accelerator's occupancy: the fraction of device-domain time
    /// spent computing (as opposed to streaming DMA beats). Zero when the
    /// run never entered the device domain.
    pub fn occupancy(&self) -> f64 {
        if self.counters.device_cycles == 0 {
            return 0.0;
        }
        self.counters.accel_compute_cycles as f64 / self.counters.device_cycles as f64
    }

    /// DMA words (32-bit) moved in both directions.
    pub fn dma_words(&self) -> u64 {
        self.counters.dma_bytes_total() / 4
    }

    /// The measured score of one objective — smaller is better for every
    /// variant ([`Objective::Occupancy`] scores the *idle* fraction).
    pub fn objective_value(&self, objective: Objective) -> f64 {
        match objective {
            Objective::TaskClock => self.task_clock_ms,
            Objective::DmaWords => self.dma_words() as f64,
            Objective::DmaTransactions => self.counters.dma_transactions as f64,
            Objective::Occupancy => 1.0 - self.occupancy(),
        }
    }

    /// The ranking score halving promotes by: extensive objectives are
    /// normalized per MAC so proxy measurements of differently-sized
    /// proxies race fairly; intensive ones (occupancy) compare as-is.
    pub(crate) fn rank_value(&self, objective: Objective) -> f64 {
        let value = self.objective_value(objective);
        if objective.is_extensive() {
            value / self.work.max(1) as f64
        } else {
            value
        }
    }

    /// The full objective vector, in `objectives` order.
    pub fn objective_vector(&self, objectives: &[Objective]) -> Vec<f64> {
        objectives.iter().map(|&o| self.objective_value(o)).collect()
    }
}

/// Whether `a` Pareto-dominates `b`: no worse on every coordinate and
/// strictly better on at least one. Both vectors are minimized and must
/// have the same length.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "objective vectors must align");
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// Indices of the non-dominated points among `points`, in input order.
/// Points with identical coordinates do not dominate each other, so exact
/// ties all stay on the front (keeping the front order-invariant).
pub fn front_indices(points: &[Vec<f64>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|other| dominates(other, &points[i])))
        .collect()
}

/// Indices (into `evaluations`) of the Pareto front under `objectives`,
/// in evaluation order. A single objective degenerates to the set of
/// evaluations attaining its minimum.
pub(crate) fn pareto_front(evaluations: &[Evaluation], objectives: &[Objective]) -> Vec<usize> {
    let points: Vec<Vec<f64>> =
        evaluations.iter().map(|e| e.objective_vector(objectives)).collect();
    front_indices(&points)
}

/// How many of `evaluations` dominate `eval` under `objectives` — zero
/// means `eval` would sit on (or extend) the front.
pub(crate) fn dominated_by_count(
    eval: &Evaluation,
    evaluations: &[Evaluation],
    objectives: &[Objective],
) -> usize {
    let point = eval.objective_vector(objectives);
    evaluations
        .iter()
        .filter(|other| dominates(&other.objective_vector(objectives), &point))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 1.0]));
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]), "ties do not dominate");
        assert!(!dominates(&[1.0, 3.0], &[2.0, 1.0]), "trade-offs do not dominate");
        assert!(!dominates(&[2.0, 1.0], &[1.0, 3.0]));
    }

    #[test]
    fn front_keeps_trade_offs_and_drops_dominated_points() {
        let points = vec![
            vec![1.0, 4.0], // fast but heavy: on the front
            vec![4.0, 1.0], // slow but light: on the front
            vec![2.0, 2.0], // balanced: on the front
            vec![3.0, 3.0], // dominated by [2, 2]
            vec![1.0, 4.0], // exact duplicate of the first: also kept
        ];
        assert_eq!(front_indices(&points), vec![0, 1, 2, 4]);
    }

    #[test]
    fn single_objective_front_is_the_minimum() {
        let points = vec![vec![3.0], vec![1.0], vec![2.0], vec![1.0]];
        assert_eq!(front_indices(&points), vec![1, 3]);
    }

    #[test]
    fn empty_input_has_an_empty_front() {
        assert!(front_indices(&[]).is_empty());
    }
}
