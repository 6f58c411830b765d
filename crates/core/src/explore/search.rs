//! Search strategies over a design space.
//!
//! Exhaustive enumerate-and-prune measures every survivor at full
//! fidelity — exact, but the space explodes for non-square problems and
//! multi-generation sweeps. Successive halving spends most measurements
//! on cheap *proxy* problems instead: candidates are ranked by the
//! analytical transfer model, then promoted through rounds in which the
//! surviving fraction halves while the measurement fidelity
//! (the proxy problem size) doubles, until only the finalists are
//! measured on the full problem. Promotion ranks by a configurable
//! [`Objective`]; extensive objectives (time, traffic) are normalized
//! *per MAC* so proxies of different sizes race fairly — time per MAC is
//! the default.
//!
//! Every proxy measurement flows through the same candidate-keyed cache
//! as full measurements (proxy realizations carry their proxy problem in
//! the key), so repeated halving runs re-simulate nothing. When a round's
//! proxies stop growing — they already cover the full problem, or the
//! level can no longer rise — further rounds would re-rank identical
//! measurements, so the search cuts straight to the finalists instead of
//! looping on a saturated level.
//!
//! A **warm-started** halving (an [`Explorer`] carrying a cross-problem
//! [`TransferModel`](super::transfer::TransferModel)) replaces the
//! analytical round-0 ranking with the model's calibrated clock
//! predictions, and when the model is *informed* about at least half the
//! field (exact- or coarse-tier observations, not just the global
//! rescale) it trusts the calibration with real budget: one halving cut
//! is taken for free before any proxy is simulated, and the final
//! full-fidelity round runs on half the usual finalist count. That is
//! how measurements banked on one problem shape reduce both proxy and
//! full simulations on the next shape. The model calibrates task-clock
//! only, so searches promoting by any other objective ignore the warm
//! start and run the cold analytical ranking.

use axi4mlir_heuristics::objective::Objective;
use axi4mlir_support::diag::Diagnostic;

use super::space::{Candidate, DesignSpace, Fidelity};
use super::{estimate_rank, notify, Evaluation, Explorer, Observer, ProgressEvent, SweepStats};

/// Divisor of the survivor count per round: each round keeps `1/ETA`.
const ETA: usize = 2;

/// Proxy fidelity of the first measured round, in tiles per dimension;
/// doubles every round.
const START_LEVEL: u8 = 2;

/// Parameters of the successive-halving search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HalvingSpec {
    /// Candidates promoted to the final full-fidelity round (the search
    /// stops cutting once the field is this small); clamped to ≥ 1.
    pub finalists: usize,
    /// The objective promotion ranks by. `None` — the default — follows
    /// the sweep's *primary* objective (the first one passed to
    /// `explore_streaming`), so pruning and promotion always agree
    /// unless a caller explicitly overrides this. Under the default
    /// task-clock primary that is time per MAC.
    pub objective: Option<Objective>,
}

impl Default for HalvingSpec {
    fn default() -> Self {
        Self { finalists: 4, objective: None }
    }
}

impl HalvingSpec {
    /// Pins the promotion objective, decoupling it from the sweep's
    /// primary.
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = Some(objective);
        self
    }

    /// Overrides the finalist count.
    #[must_use]
    pub fn finalists(mut self, finalists: usize) -> Self {
        self.finalists = finalists;
        self
    }
}

/// Which candidates a sweep measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Search {
    /// Measure every candidate surviving the prune, at full fidelity.
    Exhaustive,
    /// Successive halving over the transfer-model ranking.
    Halving(HalvingSpec),
}

impl Search {
    /// The report label.
    pub fn label(&self) -> &'static str {
        match self {
            Search::Exhaustive => "exhaustive",
            Search::Halving(_) => "halving",
        }
    }
}

impl Explorer {
    /// Runs the successive-halving search; returns the full-fidelity
    /// finalist evaluations, the number of proxy-round cache hits, and
    /// how many candidates the warm-start model was informed about.
    #[allow(clippy::too_many_arguments)] // internal: mirrors explore_streaming's parameters
    pub(crate) fn run_halving(
        &self,
        space: &dyn DesignSpace,
        mut survivors: Vec<Candidate>,
        spec: &HalvingSpec,
        workers: usize,
        primary: Objective,
        observer: Observer,
        stats: &mut SweepStats,
    ) -> Result<(Vec<Evaluation>, usize, usize), Diagnostic> {
        let mut finalists = spec.finalists.max(1);
        let objective = spec.objective.unwrap_or(primary);
        // Round 0 is free. Cold: rank by the analytical transfer model
        // under the promotion objective (stable, so enumeration order
        // breaks ties). Warm: rank by the cross-problem model's
        // calibrated clock predictions instead — and when the model is
        // informed about at least half the field, take one halving cut
        // before any proxy is simulated and halve the finalist budget:
        // the calibration already did a rung's worth of discrimination.
        // The model calibrates *clock* only, so the warm path engages
        // only when the promotion objective is task-clock; promoting by
        // traffic/transactions/occupancy under clock predictions would
        // cut the field by the wrong metric, so those sweeps run cold.
        let mut warm_informed = 0;
        match &self.warm {
            Some(model) if objective == Objective::TaskClock => {
                let predictions: Vec<_> = survivors.iter().map(|c| model.predict(c)).collect();
                warm_informed =
                    predictions.iter().filter(|p| p.is_some_and(|p| p.is_informed())).count();
                let mut order: Vec<usize> = (0..survivors.len()).collect();
                order.sort_by(|&a, &b| {
                    let key = |i: usize| {
                        let p = &predictions[i];
                        (p.is_none(), p.map_or(0.0, |p| p.clock_ms))
                    };
                    let (a_none, a_ms) = key(a);
                    let (b_none, b_ms) = key(b);
                    a_none
                        .cmp(&b_none)
                        .then(a_ms.total_cmp(&b_ms))
                        .then_with(|| {
                            estimate_rank(&survivors[a], objective)
                                .cmp(&estimate_rank(&survivors[b], objective))
                        })
                        .then(a.cmp(&b))
                });
                survivors = order.into_iter().map(|i| survivors[i].clone()).collect();
                if warm_informed * 2 >= survivors.len() && !survivors.is_empty() {
                    let keep = finalists.max(survivors.len().div_ceil(ETA));
                    survivors.truncate(keep);
                    finalists = finalists.div_ceil(2);
                }
            }
            _ => survivors.sort_by_key(|c| estimate_rank(c, objective)),
        }

        let mut level = START_LEVEL;
        let mut proxy_hits = 0;
        while survivors.len() > finalists {
            // A proxy level is *stalled* when raising it changes no
            // survivor's realization — either the proxies already cover
            // the full problem, or `level` can no longer grow. Further
            // rounds would re-rank identical measurements, so this round
            // ranks once and promotes straight to the finalists.
            let next_level = level.saturating_mul(2);
            let mut stalled = next_level == level;
            if !stalled {
                stalled = true;
                for candidate in &survivors {
                    let here = candidate.key.at(Fidelity::Proxy { level })?.0;
                    let above = candidate.key.at(Fidelity::Proxy { level: next_level })?.0;
                    if here != above {
                        stalled = false;
                        break;
                    }
                }
            }

            let sims_before = stats.sims;
            let full_before = stats.full_sims;
            let evals =
                self.measure_set(space, &survivors, Fidelity::Proxy { level }, workers, stats)?;
            let round_hits = evals.iter().filter(|e| e.from_cache).count();
            proxy_hits += round_hits;
            // Promote by the objective's work-normalized score (proxies
            // differ in size); ties keep the round's incoming rank.
            let mut order: Vec<usize> = (0..survivors.len()).collect();
            order.sort_by(|&a, &b| {
                let rank = |e: &Evaluation| e.rank_value(objective);
                rank(&evals[a]).total_cmp(&rank(&evals[b])).then(a.cmp(&b))
            });
            let keep =
                if stalled { finalists } else { finalists.max(survivors.len().div_ceil(ETA)) };
            order.truncate(keep);
            survivors = order.into_iter().map(|i| survivors[i].clone()).collect();
            notify(
                observer,
                ProgressEvent::RungComplete {
                    fidelity: Fidelity::Proxy { level },
                    survivors: survivors.len(),
                    sims_performed: stats.sims - sims_before,
                    cache_hits: round_hits,
                    full_sims_performed: stats.full_sims - full_before,
                },
            )?;
            if stalled {
                break;
            }
            level = next_level;
        }

        let sims_before = stats.sims;
        let full_before = stats.full_sims;
        let finals = self.measure_set(space, &survivors, Fidelity::Full, workers, stats)?;
        notify(
            observer,
            ProgressEvent::RungComplete {
                fidelity: Fidelity::Full,
                survivors: finals.len(),
                sims_performed: stats.sims - sims_before,
                cache_hits: finals.iter().filter(|e| e.from_cache).count(),
                full_sims_performed: stats.full_sims - full_before,
            },
        )?;
        Ok((finals, proxy_hits, warm_informed))
    }
}
