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
//! Seeds are deliberately excluded from the signatures: the simulated
//! timing is a function of the configuration and shape, not of the data
//! values, so measurements taken under any seed inform all others.
//!
//! [`Search::Halving`]: super::search::Search::Halving

use std::collections::HashMap;

use axi4mlir_config::FlowStrategy;
use axi4mlir_heuristics::space::OptionsPoint;
use axi4mlir_heuristics::{
    batched_matmul_transfers, conv_transfers, matmul_transfers, TransferEstimate,
};
use axi4mlir_workloads::matmul::MatMulProblem;

use super::cache::CachedEval;
use super::jobspec::{parse_dims, parse_layer};
use super::space::{conv_shape, Candidate, CandidateKey};

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
    pub fn is_informed(&self) -> bool {
        self.tier != Tier::Global
    }
}

/// The parsed identity of a cached measurement: workload kind, shape
/// coordinates, and the analytical estimate recomputed for that shape.
struct ParsedEntry {
    kind: &'static str,
    problem_coords: ([f64; 7], usize),
    estimate: TransferEstimate,
}

/// The exact-tier signature: (kind, accel, flow, tile, options).
type ExactSig = (String, String, String, (i64, i64, i64), OptionsPoint);
/// The coarse-tier signature: (kind, accel, flow, options) — the tile is
/// folded into the shape coordinates instead.
type CoarseSig = (String, String, String, OptionsPoint);

/// The fitted cross-problem transfer model.
#[derive(Clone, Debug, Default)]
pub struct TransferModel {
    /// Exact-tier observations over problem shapes.
    exact: HashMap<ExactSig, Vec<Observation>>,
    /// Coarse-tier observations over problem + tile shapes.
    coarse: HashMap<CoarseSig, Vec<Observation>>,
    /// kind → every correction ratio seen (for the global mean).
    global: HashMap<String, Vec<f64>>,
}

fn log2(value: i64) -> f64 {
    (value.max(1) as f64).log2()
}

/// Parses a key's workload label into kind + shape coordinates and
/// recomputes the analytical estimate for that exact shape (the
/// denominator of the correction). Returns `None` for labels this model
/// cannot interpret (foreign caches) or shapes the analytical model
/// rejects (a tile not dividing its problem).
fn parse_entry(key: &CandidateKey) -> Option<ParsedEntry> {
    let mut coords = [0.0; 7];
    if let Some(rest) = key.workload.strip_prefix("matmul ") {
        let MatMulProblem { m, n, k } = parse_dims(rest)?;
        let flow = FlowStrategy::from_short_name(&key.flow)?;
        let (tm, tn, tk) = key.tile;
        if tm <= 0 || tn <= 0 || tk <= 0 || m % tm != 0 || n % tn != 0 || k % tk != 0 {
            return None;
        }
        coords[..3].copy_from_slice(&[log2(m), log2(n), log2(k)]);
        Some(ParsedEntry {
            kind: "matmul",
            problem_coords: (coords, 3),
            estimate: matmul_transfers(flow, (m, n, k), key.tile),
        })
    } else if let Some(rest) = key.workload.strip_prefix("batched ") {
        let (dims, batch) = rest.split_once(" x")?;
        let MatMulProblem { m, n, k } = parse_dims(dims)?;
        let batch: u64 = batch.parse().ok()?;
        let flow = FlowStrategy::from_short_name(&key.flow)?;
        let (tm, tn, tk) = key.tile;
        if batch == 0 || tm <= 0 || tn <= 0 || tk <= 0 || m % tm != 0 || n % tn != 0 || k % tk != 0
        {
            return None;
        }
        coords[..4].copy_from_slice(&[log2(m), log2(n), log2(k), log2(batch as i64)]);
        Some(ParsedEntry {
            kind: "batched",
            problem_coords: (coords, 4),
            estimate: batched_matmul_transfers(flow, (m, n, k), key.tile, batch),
        })
    } else if let Some(rest) = key.workload.strip_prefix("conv ") {
        let shape = conv_shape(&parse_layer(rest)?);
        coords[..4].copy_from_slice(&[
            log2(shape.out_hw),
            log2(shape.out_channels),
            log2(shape.in_channels),
            log2(shape.filter_hw),
        ]);
        Some(ParsedEntry {
            kind: "conv",
            problem_coords: (coords, 4),
            estimate: conv_transfers(shape),
        })
    } else {
        None
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
    /// entries whose workload label the model cannot parse, and entries
    /// with a zero analytical estimate are skipped.
    pub fn fit(entries: &HashMap<CandidateKey, CachedEval>) -> Self {
        let mut model = TransferModel::default();
        for (key, eval) in entries {
            if !eval.verified {
                continue;
            }
            let Some(parsed) = parse_entry(key) else { continue };
            let words = parsed.estimate.words_total();
            if words == 0 || !eval.task_clock_ms.is_finite() || eval.task_clock_ms < 0.0 {
                continue;
            }
            let ratio = eval.task_clock_ms / words as f64;
            let (shape, dims) = parsed.problem_coords;
            model
                .exact
                .entry((
                    parsed.kind.to_owned(),
                    key.accel.clone(),
                    key.flow.clone(),
                    key.tile,
                    key.options,
                ))
                .or_default()
                .push(Observation { shape, dims, ratio });
            let (shape, dims) = with_tile_coords(parsed.problem_coords, key.tile);
            model
                .coarse
                .entry((parsed.kind.to_owned(), key.accel.clone(), key.flow.clone(), key.options))
                .or_default()
                .push(Observation { shape, dims, ratio });
            model.global.entry(parsed.kind.to_owned()).or_default().push(ratio);
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
    /// never seen the candidate's workload kind (or cannot parse the
    /// candidate's own shape).
    pub fn predict(&self, candidate: &Candidate) -> Option<Prediction> {
        let key = &candidate.key;
        let parsed = parse_entry(key)?;
        let words = candidate.estimate.words_total() as f64;
        let kind = parsed.kind.to_owned();
        let (query, dims) = parsed.problem_coords;
        if let Some(observations) = self.exact.get(&(
            kind.clone(),
            key.accel.clone(),
            key.flow.clone(),
            key.tile,
            key.options,
        )) {
            if let Some(ratio) = blend(observations, &query, dims) {
                return Some(Prediction { clock_ms: ratio * words, tier: Tier::Exact });
            }
        }
        let (query, dims) = with_tile_coords(parsed.problem_coords, key.tile);
        if let Some(observations) =
            self.coarse.get(&(kind.clone(), key.accel.clone(), key.flow.clone(), key.options))
        {
            if let Some(ratio) = blend(observations, &query, dims) {
                return Some(Prediction { clock_ms: ratio * words, tier: Tier::Coarse });
            }
        }
        let ratios = self.global.get(&kind).filter(|r| !r.is_empty())?;
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
            workload: workload.to_owned(),
            accel: "v4_8".to_owned(),
            flow: flow.to_owned(),
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
        let MatMulProblem { m, n, k } =
            parse_dims(workload.strip_prefix("matmul ").unwrap()).unwrap();
        Candidate {
            key: key(workload, flow, tile),
            estimate: matmul_transfers(
                FlowStrategy::from_short_name(flow).unwrap(),
                (m, n, k),
                tile,
            ),
        }
    }

    #[test]
    fn fit_skips_unverified_and_unparseable_entries() {
        let mut entries = HashMap::new();
        entries.insert(key("matmul 16x16x16", "Ns", (8, 8, 8)), eval(1.0));
        let mut unverified = eval(1.0);
        unverified.verified = false;
        entries.insert(key("matmul 32x32x32", "Ns", (8, 8, 8)), unverified);
        entries.insert(key("mystery 9q9", "Ns", (8, 8, 8)), eval(1.0));
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
        entries.insert(donor.key.clone(), eval(2.0));
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
        entries.insert(near.key.clone(), eval(1.0));
        entries.insert(far.key.clone(), eval(100.0));
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
            key: CandidateKey {
                workload: "conv 10_64_3_16_1".to_owned(),
                accel: "conv2d".to_owned(),
                flow: "FOs".to_owned(),
                tile: (0, 0, 0),
                options: OptionsPoint::default(),
                seed: 1,
            },
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
        let conv_key = CandidateKey {
            workload: "conv 10_64_3_16_1".to_owned(),
            accel: "conv2d".to_owned(),
            flow: "FOs".to_owned(),
            tile: (0, 0, 0),
            options: OptionsPoint::default(),
            seed: 1,
        };
        let mut entries = HashMap::new();
        entries.insert(conv_key.clone(), eval(3.0));
        let model = TransferModel::fit(&entries);
        assert_eq!(model.observations(), 1);
        // A neighboring layer predicts from the exact conv signature
        // (conv has one geometric point, so accel/flow/tile all match).
        let neighbor = Candidate {
            key: CandidateKey { workload: "conv 12_64_3_16_1".to_owned(), ..conv_key },
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

        /// A conv label in a cache key is read by `jobspec::parse_layer`
        /// and `space::conv_shape`, the functions the conv space itself is
        /// built from. Pinned against the conditions and the `out_hw`
        /// arithmetic this module used to carry as its own copy.
        #[test]
        fn conv_labels_are_read_as_the_conv_space_reads_them(
            parts in proptest::collection::vec(-2i64..40, 4..=6),
        ) {
            let label = parts.iter().map(i64::to_string).collect::<Vec<_>>().join("_");
            let entry = parse_entry(&key(&format!("conv {label}"), "FOs", (0, 0, 0)));
            let shape = match parts[..] {
                [in_hw, in_channels, filter_hw, out_channels, stride]
                    if in_channels >= 0
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
                entry.map(|entry| entry.estimate),
                shape.map(conv_transfers),
                "label {}",
                label
            );
        }
    }
}
