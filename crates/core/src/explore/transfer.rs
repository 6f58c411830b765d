//! The cross-problem transfer model: reuse measurements from one problem
//! shape to warm-start the search on another.
//!
//! The persistent result cache keys every measurement by its full
//! [`CandidateKey`] — problem shape included — so after a few sweeps it
//! holds, for many configurations, the measured task-clock on *several*
//! problem shapes. The analytical transfer model predicts traffic, not
//! time; but the ratio
//!
//! ```text
//! correction = measured task-clock ms ÷ analytically estimated words
//! ```
//!
//! is a per-configuration *calibration* of the analytical model against
//! the simulator, and it varies smoothly with the problem shape. This
//! module fits those correction factors from the cache and blends them
//! across neighboring shapes (inverse-square distance weighting in
//! log₂-shape space), so a sweep over a shape never measured before can
//! rank its candidates by a *calibrated clock prediction* instead of raw
//! traffic estimates. A warm-started [`Search::Halving`] then cuts the
//! field before the first proxy rung and needs fewer full-fidelity
//! finalists (see [`super::search`]).
//!
//! Corrections are looked up at three tiers, most specific first:
//!
//! 1. **exact** — same (accel, flow, tile, options) configuration,
//!    blended over the problem shapes it was measured on;
//! 2. **coarse** — same (accel, flow, options) with the tile folded into
//!    the shape coordinates, so a never-measured tile borrows from its
//!    geometric neighbors;
//! 3. **global** — the workload-kind-wide mean correction, which only
//!    rescales the analytical ranking (it adds no information but keeps
//!    every candidate on one comparable scale).
//!
//! Signatures are tuples of the key's typed fields (nothing is parsed
//! here). Seeds are deliberately excluded from them: the simulated
//! timing is a function of the configuration and shape, not of the data
//! values, so measurements taken under any seed inform all others.
//!
//! [`Search::Halving`]: super::search::Search::Halving

use std::collections::HashMap;

use axi4mlir_heuristics::space::OptionsPoint;
use axi4mlir_heuristics::{
    batched_matmul_transfers, conv_transfers, matmul_transfers, TransferEstimate,
};
use axi4mlir_workloads::matmul::MatMulProblem;

use super::cache::CachedEval;
use super::space::{conv_shape, Candidate, CandidateKey, Device, Flow, Problem};

/// One calibration observation: where in shape space it was measured and
/// the correction it saw.
#[derive(Clone, Copy, Debug)]
struct Observation {
    /// log₂ coordinates of the measured shape (per-tier layout; see the
    /// module docs).
    shape: [f64; 7],
    /// Number of coordinates actually used by this tier.
    dims: usize,
    /// Measured task-clock ms ÷ analytically estimated words.
    ratio: f64,
}

/// How a prediction was derived — the specificity tier that served it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Same configuration, other problem shapes.
    Exact,
    /// Same accelerator/flow/options, tile folded into the shape.
    Coarse,
    /// Workload-kind-wide mean correction (rescaled analytical rank).
    Global,
}

/// A calibrated clock prediction for one candidate.
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    /// Predicted task-clock in milliseconds.
    pub clock_ms: f64,
    /// The tier that produced it.
    pub tier: Tier,
}

impl Prediction {
    /// Whether the prediction carries configuration-specific information
    /// (exact or coarse tier) rather than a global rescale.
    pub(crate) fn is_informed(&self) -> bool {
        self.tier != Tier::Global
    }
}

/// The exact-tier signature: (kind, accel, flow, tile, options).
type ExactSig = (&'static str, Device, Flow, (i64, i64, i64), OptionsPoint);
/// The coarse-tier signature: (kind, accel, flow, options) — the tile is
/// folded into the shape coordinates instead.
type CoarseSig = (&'static str, Device, Flow, OptionsPoint);

/// The fitted cross-problem transfer model.
#[derive(Clone, Debug, Default)]
pub struct TransferModel {
    /// Exact-tier observations over problem shapes.
    exact: HashMap<ExactSig, Vec<Observation>>,
    /// Coarse-tier observations over problem + tile shapes.
    coarse: HashMap<CoarseSig, Vec<Observation>>,
    /// kind → every correction ratio seen (for the global mean).
    global: HashMap<&'static str, Vec<f64>>,
}

fn log2(value: i64) -> f64 {
    (value.max(1) as f64).log2()
}

/// Where a key sits in shape space — its problem coordinates and how
/// many are used — and the analytical estimate recomputed for that exact
/// shape (the denominator of the correction). `None` for shapes the
/// analytical model rejects (a tile not dividing its problem).
fn shape_of(key: &CandidateKey) -> Option<(([f64; 7], usize), TransferEstimate)> {
    let mut coords = [0.0; 7];
    match (key.workload, key.flow) {
        (Problem::Conv(layer), _) => {
            let shape = conv_shape(&layer);
            coords[..4].copy_from_slice(&[
                log2(shape.out_hw),
                log2(shape.out_channels),
                log2(shape.in_channels),
                log2(shape.filter_hw),
            ]);
            Some(((coords, 4), conv_transfers(shape)))
        }
        (problem, Flow::MatMul(flow)) => {
            let MatMulProblem { m, n, k } = problem.gemm()?;
            let (tm, tn, tk) = key.tile;
            if tm <= 0 || tn <= 0 || tk <= 0 || m % tm != 0 || n % tn != 0 || k % tk != 0 {
                return None;
            }
            coords[..3].copy_from_slice(&[log2(m), log2(n), log2(k)]);
            Some(match problem {
                Problem::Batched(batch) => {
                    coords[3] = log2(batch.batch as i64);
                    let batch = batch.batch as u64;
                    ((coords, 4), batched_matmul_transfers(flow, (m, n, k), key.tile, batch))
                }
                _ => ((coords, 3), matmul_transfers(flow, (m, n, k), key.tile)),
            })
        }
        _ => None,
    }
}

/// Extends problem coordinates with the tile coordinates (the coarse
/// tier's shape space).
fn with_tile_coords(problem: ([f64; 7], usize), tile: (i64, i64, i64)) -> ([f64; 7], usize) {
    let (mut coords, dims) = problem;
    coords[dims] = log2(tile.0);
    coords[dims + 1] = log2(tile.1);
    coords[dims + 2] = log2(tile.2);
    (coords, dims + 3)
}

/// Inverse-square-distance blend of observed corrections at a query
/// point. An observation *at* the query point dominates smoothly
/// (weight 1 at distance 0; no division-by-zero special case).
fn blend(observations: &[Observation], query: &[f64; 7], dims: usize) -> Option<f64> {
    let mut weighted = 0.0;
    let mut total = 0.0;
    for obs in observations.iter().filter(|o| o.dims == dims) {
        let d2: f64 = (0..dims).map(|i| (obs.shape[i] - query[i]).powi(2)).sum();
        let w = 1.0 / (1.0 + d2);
        weighted += w * obs.ratio;
        total += w;
    }
    (total > 0.0).then(|| weighted / total)
}

impl TransferModel {
    /// Fits correction factors from a cache snapshot. Unverified entries,
    /// entries whose shape the analytical model rejects, and entries
    /// with a zero analytical estimate are skipped.
    pub fn fit(entries: &HashMap<CandidateKey, CachedEval>) -> Self {
        let mut model = TransferModel::default();
        for (key, eval) in entries {
            if !eval.verified {
                continue;
            }
            let Some((problem_coords, estimate)) = shape_of(key) else { continue };
            let words = estimate.words_total();
            if words == 0 || !eval.task_clock_ms.is_finite() || eval.task_clock_ms < 0.0 {
                continue;
            }
            let ratio = eval.task_clock_ms / words as f64;
            let kind = key.workload.kind();
            let (shape, dims) = problem_coords;
            model
                .exact
                .entry((kind, key.accel, key.flow, key.tile, key.options))
                .or_default()
                .push(Observation { shape, dims, ratio });
            let (shape, dims) = with_tile_coords(problem_coords, key.tile);
            model
                .coarse
                .entry((kind, key.accel, key.flow, key.options))
                .or_default()
                .push(Observation { shape, dims, ratio });
            model.global.entry(kind).or_default().push(ratio);
        }
        model
    }

    /// Whether the model holds any observation at all.
    pub fn is_empty(&self) -> bool {
        self.global.values().all(Vec::is_empty)
    }

    /// Total observations fitted (one per usable cache entry).
    pub fn observations(&self) -> usize {
        self.global.values().map(Vec::len).sum()
    }

    /// Predicts a candidate's full-problem task-clock by scaling its
    /// analytical estimate with the blended correction of the most
    /// specific tier that has observations. `None` when the model has
    /// never seen the candidate's workload kind (or the analytical model
    /// rejects the candidate's own shape).
    pub fn predict(&self, candidate: &Candidate) -> Option<Prediction> {
        let key = &candidate.key;
        let (problem_coords, _) = shape_of(key)?;
        let words = candidate.estimate.words_total() as f64;
        let kind = key.workload.kind();
        let (query, dims) = problem_coords;
        if let Some(observations) =
            self.exact.get(&(kind, key.accel, key.flow, key.tile, key.options))
        {
            if let Some(ratio) = blend(observations, &query, dims) {
                return Some(Prediction { clock_ms: ratio * words, tier: Tier::Exact });
            }
        }
        let (query, dims) = with_tile_coords(problem_coords, key.tile);
        if let Some(observations) = self.coarse.get(&(kind, key.accel, key.flow, key.options)) {
            if let Some(ratio) = blend(observations, &query, dims) {
                return Some(Prediction { clock_ms: ratio * words, tier: Tier::Coarse });
            }
        }
        let ratios = self.global.get(kind).filter(|r| !r.is_empty())?;
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        Some(Prediction { clock_ms: mean * words, tier: Tier::Global })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_heuristics::ConvShapeEstimate;
    use axi4mlir_sim::counters::PerfCounters;
    use proptest::prelude::*;

    fn key(workload: &str, flow: &str, tile: (i64, i64, i64)) -> CandidateKey {
        CandidateKey {
            workload: Problem::parse(workload).unwrap(),
            accel: Device::parse("v4_8").unwrap(),
            flow: Flow::parse(flow).unwrap(),
            tile,
            options: OptionsPoint::default(),
            seed: 7,
        }
    }

    fn eval(ms: f64) -> CachedEval {
        CachedEval {
            counters: PerfCounters::new(),
            task_clock_ms: ms,
            verified: true,
            pass_ms: Vec::new(),
        }
    }

    fn candidate(workload: &str, flow: &str, tile: (i64, i64, i64)) -> Candidate {
        let key = key(workload, flow, tile);
        let (Some(MatMulProblem { m, n, k }), Flow::MatMul(flow)) = (key.workload.gemm(), key.flow)
        else {
            panic!("{workload} under {flow} is not a MatMul candidate")
        };
        Candidate { key, estimate: matmul_transfers(flow, (m, n, k), tile) }
    }

    fn conv_key(layer: &str) -> CandidateKey {
        CandidateKey {
            workload: Problem::parse(&format!("conv {layer}")).unwrap(),
            accel: Device::Conv2d,
            flow: Flow::FilterOutputStationary,
            tile: (0, 0, 0),
            options: OptionsPoint::default(),
            seed: 1,
        }
    }

    #[test]
    fn fit_skips_unverified_and_unparseable_entries() {
        let mut entries = HashMap::new();
        entries.insert(key("matmul 16x16x16", "Ns", (8, 8, 8)), eval(1.0));
        let mut unverified = eval(1.0);
        unverified.verified = false;
        entries.insert(key("matmul 32x32x32", "Ns", (8, 8, 8)), unverified);
        // A tile that does not divide its problem is rejected, not a panic.
        entries.insert(key("matmul 10x10x10", "Ns", (3, 4, 5)), eval(1.0));
        let model = TransferModel::fit(&entries);
        assert_eq!(model.observations(), 1);
        assert!(!model.is_empty());
        assert!(TransferModel::fit(&HashMap::new()).is_empty());
    }

    #[test]
    fn exact_observations_transfer_the_measured_ratio() {
        // One configuration measured on 16^3: its correction must carry
        // over to 32^3 scaled by the analytical estimate.
        let donor = candidate("matmul 16x16x16", "Cs", (8, 8, 8));
        let mut entries = HashMap::new();
        entries.insert(donor.key, eval(2.0));
        let model = TransferModel::fit(&entries);

        let target = candidate("matmul 32x32x32", "Cs", (8, 8, 8));
        let p = model.predict(&target).expect("covered");
        assert_eq!(p.tier, Tier::Exact);
        assert!(p.is_informed());
        let donor_words = donor.estimate.words_total() as f64;
        let target_words = target.estimate.words_total() as f64;
        let expected = 2.0 / donor_words * target_words;
        assert!((p.clock_ms - expected).abs() < 1e-9, "{} vs {expected}", p.clock_ms);
    }

    #[test]
    fn unseen_tiles_fall_back_to_the_coarse_tier_by_distance() {
        // Two donor tiles with very different corrections: a new tile
        // near the cheap one must predict closer to the cheap ratio.
        let near = candidate("matmul 16x16x16", "Cs", (16, 8, 8));
        let far = candidate("matmul 16x16x16", "Cs", (8, 8, 8));
        let mut entries = HashMap::new();
        entries.insert(near.key, eval(1.0));
        entries.insert(far.key, eval(100.0));
        let model = TransferModel::fit(&entries);

        let target = candidate("matmul 32x16x16", "Cs", (32, 8, 8));
        let p = model.predict(&target).expect("covered");
        assert_eq!(p.tier, Tier::Coarse, "tile (32,8,8) was never measured");
        let near_ratio = 1.0 / near.estimate.words_total() as f64;
        let far_ratio = 100.0 / far.estimate.words_total() as f64;
        let implied_ratio = p.clock_ms / target.estimate.words_total() as f64;
        let mid = (near_ratio + far_ratio) / 2.0;
        assert!(
            implied_ratio < mid,
            "blend must lean toward the nearer observation: {implied_ratio} !< {mid}"
        );
    }

    #[test]
    fn foreign_flows_get_the_global_rescale_only() {
        let mut entries = HashMap::new();
        entries.insert(key("matmul 16x16x16", "Cs", (8, 8, 8)), eval(2.0));
        let model = TransferModel::fit(&entries);
        // Same kind, different flow: no exact or coarse signature.
        let target = candidate("matmul 16x16x16", "Ns", (8, 8, 8));
        let p = model.predict(&target).expect("kind covered");
        assert_eq!(p.tier, Tier::Global);
        assert!(!p.is_informed());
        // An entirely unknown kind is uncovered.
        let conv = Candidate {
            key: conv_key("10_64_3_16_1"),
            estimate: TransferEstimate {
                words_to_accel: 10,
                words_from_accel: 10,
                transactions: 2,
            },
        };
        assert!(model.predict(&conv).is_none());
    }

    #[test]
    fn conv_labels_parse_into_observations() {
        let mut entries = HashMap::new();
        entries.insert(conv_key("10_64_3_16_1"), eval(3.0));
        let model = TransferModel::fit(&entries);
        assert_eq!(model.observations(), 1);
        // A neighboring layer predicts from the exact conv signature
        // (conv has one geometric point, so accel/flow/tile all match).
        let neighbor = Candidate {
            key: conv_key("12_64_3_16_1"),
            estimate: conv_transfers(ConvShapeEstimate {
                batch: 1,
                out_channels: 16,
                out_hw: 10,
                in_channels: 64,
                filter_hw: 3,
            }),
        };
        let p = model.predict(&neighbor).expect("covered");
        assert_eq!(p.tier, Tier::Exact);
        assert!(p.clock_ms > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A conv label in a cache key is read by `Problem::parse` (over
        /// `jobspec::parse_layer`) and `space::conv_shape`, the functions
        /// the conv space itself is built from. Pinned against the
        /// conditions and the `out_hw` arithmetic written out here.
        #[test]
        fn conv_labels_are_read_as_the_conv_space_reads_them(
            parts in proptest::collection::vec(-2i64..40, 4..=6),
        ) {
            let label = parts.iter().map(i64::to_string).collect::<Vec<_>>().join("_");
            let entry = Problem::parse(&format!("conv {label}"))
                .and_then(|workload| shape_of(&CandidateKey { workload, ..conv_key("3_1_3_1_1") }));
            let shape = match parts[..] {
                [in_hw, in_channels, filter_hw, out_channels, stride]
                    if in_channels > 0
                        && stride > 0
                        && filter_hw > 0
                        && in_hw >= filter_hw
                        && out_channels > 0 =>
                {
                    let out_hw = (in_hw - filter_hw) / stride + 1;
                    Some(ConvShapeEstimate { batch: 1, out_channels, out_hw, in_channels, filter_hw })
                }
                _ => None,
            };
            prop_assert_eq!(
                entry.map(|(_, estimate)| estimate),
                shape.map(conv_transfers),
                "label {}",
                label
            );
        }
    }
}
