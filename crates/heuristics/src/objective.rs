//! Objectives a design-space search can minimize.
//!
//! The paper's §IV-C heuristics minimize a single scalar — the estimated
//! DMA traffic of [`transfer`](crate::transfer) — but the explored space
//! trades simulated task-clock against traffic and accelerator
//! occupancy. [`Objective`] names each axis of that trade-off; this
//! module holds the *analytical* side (what the transfer model can score
//! without simulation), while the measured extractors over simulator
//! counters live next to the evaluations in
//! `axi4mlir_core::explore::pareto`.

use crate::transfer::TransferEstimate;

/// One axis a search can minimize. All objectives are phrased so that
/// *smaller is better*; [`Objective::Occupancy`] is therefore scored as
/// the accelerator's *idle* fraction of device time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Objective {
    /// Simulated task-clock milliseconds (the paper's headline metric).
    TaskClock,
    /// 32-bit words moved over the AXI stream in both directions.
    DmaWords,
    /// DMA transactions started (send + recv).
    DmaTransactions,
    /// Accelerator occupancy, scored as the idle fraction
    /// `1 - accel_compute_cycles / device_cycles` so that minimizing it
    /// maximizes the time the accelerator spends computing.
    Occupancy,
}

impl Objective {
    /// The short CLI/report name (`clock`, `traffic`, `transactions`,
    /// `occupancy`).
    pub fn label(&self) -> &'static str {
        match self {
            Objective::TaskClock => "clock",
            Objective::DmaWords => "traffic",
            Objective::DmaTransactions => "transactions",
            Objective::Occupancy => "occupancy",
        }
    }

    /// The report key of the objective's *minimized score*: the field
    /// name each `pareto` front member carries in `BENCH_explore.json`.
    /// For clock/traffic/transactions it matches the entry metric of the
    /// same measurement; occupancy's score is the idle fraction
    /// (`1 - occupancy`), so it gets a distinct name from the raw
    /// `occupancy` entry metric.
    pub fn metric_key(&self) -> &'static str {
        match self {
            Objective::TaskClock => "task_clock_ms",
            Objective::DmaWords => "dma_words",
            Objective::DmaTransactions => "dma_transactions",
            Objective::Occupancy => "accel_idle_fraction",
        }
    }

    /// Parses one CLI token (the [`Self::label`] plus common aliases).
    pub fn parse(text: &str) -> Option<Objective> {
        match text {
            "clock" | "task-clock" | "time" => Some(Objective::TaskClock),
            "traffic" | "words" | "dma" => Some(Objective::DmaWords),
            "transactions" | "txns" => Some(Objective::DmaTransactions),
            "occupancy" => Some(Objective::Occupancy),
            _ => None,
        }
    }

    /// The analytical score the transfer model assigns this objective,
    /// when it has one: traffic objectives are estimable before any
    /// simulation runs; task-clock and occupancy are not.
    pub fn estimate(&self, estimate: &TransferEstimate) -> Option<u64> {
        match self {
            Objective::DmaWords => Some(estimate.words_total()),
            Objective::DmaTransactions => Some(estimate.transactions),
            Objective::TaskClock | Objective::Occupancy => None,
        }
    }

    /// Whether the objective grows with the problem size (extensive), so
    /// that proxy measurements of differently-sized proxies must be
    /// normalized per unit of work before they can be compared. Ratios
    /// like occupancy compare as-is.
    pub fn is_extensive(&self) -> bool {
        !matches!(self, Objective::Occupancy)
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_back() {
        use Objective::{DmaTransactions, DmaWords, Occupancy, TaskClock};
        for objective in [TaskClock, DmaWords, DmaTransactions, Occupancy] {
            assert_eq!(Objective::parse(objective.label()), Some(objective));
        }
        assert_eq!(Objective::parse("latency"), None);
    }

    #[test]
    fn traffic_objectives_are_analytically_estimable() {
        let estimate =
            TransferEstimate { words_to_accel: 30, words_from_accel: 12, transactions: 7 };
        assert_eq!(Objective::DmaWords.estimate(&estimate), Some(42));
        assert_eq!(Objective::DmaTransactions.estimate(&estimate), Some(7));
        assert_eq!(Objective::TaskClock.estimate(&estimate), None);
        assert_eq!(Objective::Occupancy.estimate(&estimate), None);
    }

    #[test]
    fn occupancy_is_the_only_intensive_objective() {
        assert!(Objective::TaskClock.is_extensive());
        assert!(Objective::DmaWords.is_extensive());
        assert!(Objective::DmaTransactions.is_extensive());
        assert!(!Objective::Occupancy.is_extensive());
    }
}
