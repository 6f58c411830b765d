//! Workload-generic candidate enumeration for design-space exploration.
//!
//! The §IV-C search used to be MatMul-on-v4 only; this module factors the
//! *geometric* part of the space — which accelerator instantiations, flows,
//! and tiles are legal for a problem — out of the exploration engine so
//! every workload gets its own enumerator with its own legality rules:
//!
//! - [`matmul_points`]: reuses `candidate_edges` for flexible (v4)
//!   accelerators and contributes the fixed square tile for v1–v3
//!   generations, filtering flows by each generation's Table I reuse
//!   class and tiles by the v4 memory capacity;
//! - [`batched_points`]: the MatMul rules with traffic scaled by the
//!   batch extent;
//! - [`conv_point`]: the §IV-D Conv2D accelerator is configured to the
//!   layer (one geometric point), but the offload is only legal while the
//!   input window and the output slice fit the device buffers.
//!
//! Every point carries a [`TransferEstimate`] — the analytical cost hook
//! the explorer's pruning and successive-halving ranking run on.

use axi4mlir_accelerators::conv::{CONV_SLICE_CAPACITY, CONV_WINDOW_CAPACITY};
use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_accelerators::Device;
use axi4mlir_config::presets::matmul_flows;
use axi4mlir_config::{AcceleratorConfig, CacheTiling, CpuModel, FlowStrategy};
use axi4mlir_support::diag::Diagnostic;

use crate::best::{candidate_edges, instantiation_base, tile_words};
use crate::transfer::{
    batched_matmul_transfers, conv_transfers, matmul_transfers, ConvShapeEstimate, TransferEstimate,
};

/// The tunable options axis of a design space: the knobs that change
/// generated-driver behavior (and host cache behavior) without changing
/// the computed result.
///
/// Two axes widen the original coalesce/copies pair: the cache-hierarchy
/// tiling level ([`CacheTiling`]) and the named host CPU ([`CpuModel`])
/// whose cache sizes steer the `Auto` tiling heuristic. Both are
/// persisted in candidate keys, so the result-cache schema carries them
/// (`axi4mlir-explore-cache/v2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OptionsPoint {
    /// Batch same-site transfers into one DMA transaction (§V).
    pub coalesce: bool,
    /// Use the specialized (`memcpy`-style) staging copies.
    pub specialized_copies: bool,
    /// Cache-hierarchy tiling level (MatMul kernels only; conv never
    /// cache-tiles).
    pub cache_tiling: CacheTiling,
    /// The named host CPU whose cache sizes the `Auto` tiling level reads.
    pub cpu: CpuModel,
}

impl Default for OptionsPoint {
    /// The paper's headline configuration: specialized copies, no
    /// coalescing, auto cache tiling on the PYNQ-Z2 host.
    fn default() -> Self {
        Self {
            coalesce: false,
            specialized_copies: true,
            cache_tiling: CacheTiling::Auto,
            cpu: CpuModel::PynqZ2,
        }
    }
}

impl OptionsPoint {
    /// The classic copy/coalesce axis: all four combinations at the
    /// default tiling level and host, default point first.
    pub fn axis() -> Vec<OptionsPoint> {
        vec![
            OptionsPoint::default(),
            OptionsPoint { coalesce: true, ..OptionsPoint::default() },
            OptionsPoint { specialized_copies: false, ..OptionsPoint::default() },
            OptionsPoint { coalesce: true, specialized_copies: false, ..OptionsPoint::default() },
        ]
    }

    /// Crosses an options axis with a set of cache-tiling levels.
    pub fn cross_cache_tiling(axis: &[OptionsPoint], levels: &[CacheTiling]) -> Vec<OptionsPoint> {
        axis.iter()
            .flat_map(|point| {
                levels.iter().map(move |&cache_tiling| OptionsPoint { cache_tiling, ..*point })
            })
            .collect()
    }

    /// Crosses an options axis with a set of named hosts.
    pub fn cross_cpus(axis: &[OptionsPoint], cpus: &[CpuModel]) -> Vec<OptionsPoint> {
        axis.iter()
            .flat_map(|point| cpus.iter().map(move |&cpu| OptionsPoint { cpu, ..*point }))
            .collect()
    }

    /// Whether this point is *meaningful* for a MatMul-shaped candidate:
    /// a fixed cache tile must wrap at least one of the two outer loops
    /// of `flow`'s permutation legally (a multiple of the accelerator
    /// tile that divides the problem dimension), and a non-default host
    /// only matters under `Auto` tiling (the host cache sizes feed
    /// nothing else), so other combinations would re-measure an existing
    /// key's configuration under a new name.
    pub fn legal_for_matmul(
        &self,
        problem: (i64, i64, i64),
        tile: (i64, i64, i64),
        flow: FlowStrategy,
    ) -> bool {
        if self.cpu != CpuModel::default() && self.cache_tiling != CacheTiling::Auto {
            return false;
        }
        match self.cache_tiling {
            CacheTiling::Off | CacheTiling::Auto => true,
            CacheTiling::Fixed(edge) => {
                let sizes = [problem.0, problem.1, problem.2];
                let tiles = [tile.0, tile.1, tile.2];
                let dim_index = |name: &str| match name {
                    "m" => 0usize,
                    "n" => 1,
                    _ => 2,
                };
                // Only the two outermost permuted dims get a cache loop
                // (the streaming dim is never cache-tiled).
                let outer = flow.matmul_permutation();
                let outer = [dim_index(outer[0]), dim_index(outer[1])];
                let mut wraps_anything = false;
                for d in outer {
                    if edge < sizes[d] {
                        if edge % tiles[d] != 0 || sizes[d] % edge != 0 {
                            return false;
                        }
                        wraps_anything = true;
                    }
                }
                // A fixed edge covering both outer dims whole is `Off`
                // under a different key: reject the duplicate.
                wraps_anything
            }
        }
    }

    /// Label suffix: empty for the default point, otherwise the deviating
    /// knobs (`+co` coalescing on, `-sc` specialized copies off, `ct:off`
    /// / `ct:fixed:32` non-default tiling, `cpu:zcu102` non-default host).
    pub fn suffix(&self) -> String {
        let mut out = String::new();
        if self.coalesce {
            out.push_str(" +co");
        }
        if !self.specialized_copies {
            out.push_str(" -sc");
        }
        if self.cache_tiling != CacheTiling::Auto {
            out.push_str(&format!(" ct:{}", self.cache_tiling.label()));
        }
        if self.cpu != CpuModel::default() {
            out.push_str(&format!(" cpu:{}", self.cpu.label()));
        }
        out
    }
}

/// One MatMul accelerator instantiation a candidate can target: the
/// enumerators' handle on a MatMul [`Device`], sized in tile arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AccelInstance {
    /// Table I generation.
    pub version: MatMulVersion,
    /// v1–v3: the fixed square tile edge; v4: the base (divisibility) size.
    pub size: i64,
}

impl AccelInstance {
    /// A flexible v4 accelerator with the given base size.
    pub fn v4(base: i64) -> Self {
        Self { version: MatMulVersion::V4, size: base }
    }

    /// The MatMul instance `text` names ([`Device::parse`]); `None` for
    /// anything else, `conv2d` included.
    pub fn parse(text: &str) -> Option<Self> {
        let Device::MatMul { version, size } = Device::parse(text)? else { return None };
        Some(Self { version, size: size.get().into() })
    }

    /// The flows this generation's opcode set legalizes (its Table I
    /// reuse class), in figure order: the ones its preset ships
    /// ([`matmul_flows`]).
    pub fn flows(&self) -> Vec<FlowStrategy> {
        matmul_flows(self.version).iter().map(|&(flow, _)| flow).collect()
    }

    /// The instance [`Self::config`] instantiates to run `tile`: a v4 gets
    /// the base that divides every tile edge ([`instantiation_base`]).
    pub fn instantiated(&self, tile: (i64, i64, i64)) -> AccelInstance {
        match self.version {
            MatMulVersion::V4 => Self::v4(instantiation_base(self.size, tile)),
            _ => *self,
        }
    }

    /// The configuration that instantiates this accelerator at one
    /// `(tile, flow)` point — the one spelling of that conversion:
    /// [`Self::instantiated`] described as running `tile`. Whether it does
    /// is the device's to say ([`Device::tile_defect`]: keys, the lint and
    /// the plan audit ask); what [`matmul_points`] yields, it does.
    ///
    /// # Panics
    ///
    /// Panics if this generation does not offer `flow` ([`Self::flows`]).
    pub fn config(&self, tile: (i64, i64, i64), flow: FlowStrategy) -> AcceleratorConfig {
        let Self { version, size } = self.instantiated(tile);
        AcceleratorConfig::matmul_with_tile(version, size, tile)
            .with_selected_flow(flow.short_name())
    }

    /// The legal tiles for this instance on `problem`: the flexible v4
    /// search over [`candidate_edges`] multiples capacity-filtered by
    /// `capacity_words`; for fixed generations the square `size` tile when
    /// it divides every dimension (their buffers are sized to the tile, so
    /// no separate capacity check applies).
    fn tiles(&self, problem: (i64, i64, i64), capacity_words: u64) -> Vec<(i64, i64, i64)> {
        let (m, n, k) = problem;
        match self.version {
            MatMulVersion::V4 => {
                let mut out = Vec::new();
                for tm in candidate_edges(m, self.size) {
                    for tn in candidate_edges(n, self.size) {
                        for tk in candidate_edges(k, self.size) {
                            let tile = (tm, tn, tk);
                            if tile_words(tile) <= capacity_words {
                                out.push(tile);
                            }
                        }
                    }
                }
                out
            }
            _ => {
                let s = self.size;
                let divides = s > 0 && m % s == 0 && n % s == 0 && k % s == 0;
                if divides {
                    vec![(s, s, s)]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

impl std::fmt::Display for AccelInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Device::from(*self).fmt(f)
    }
}

impl From<AccelInstance> for Device {
    /// # Panics
    ///
    /// Panics unless `size` is a positive 32-bit number (an instance is
    /// written in code or parsed, never taken straight from input).
    fn from(accel: AccelInstance) -> Device {
        Device::matmul(accel.version, accel.size)
            .unwrap_or_else(|| panic!("{}_{} is no device", accel.version, accel.size))
    }
}

/// One geometric candidate: where to run, which flow, and which tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpacePoint {
    /// The accelerator instantiation.
    pub accel: AccelInstance,
    /// The dataflow strategy.
    pub flow: FlowStrategy,
    /// The `(tM, tN, tK)` tile.
    pub tile: (i64, i64, i64),
    /// Estimated traffic under this point.
    pub estimate: TransferEstimate,
}

/// Enumerates every legal `(accelerator, flow, tile)` point for a MatMul
/// problem in a fixed, deterministic order: accelerators in the given
/// order, tiles ascending per dimension, each generation's legal flows in
/// figure order.
pub fn matmul_points(
    problem: (i64, i64, i64),
    accels: &[AccelInstance],
    capacity_words: u64,
) -> Vec<SpacePoint> {
    let mut out = Vec::new();
    for &accel in accels {
        let legal = accel.flows();
        for tile in accel.tiles(problem, capacity_words) {
            for &flow in &legal {
                out.push(SpacePoint {
                    accel,
                    flow,
                    tile,
                    estimate: matmul_transfers(flow, problem, tile),
                });
            }
        }
    }
    out
}

/// Enumerates the batched-MatMul space: the per-element MatMul legality
/// rules with the traffic estimate scaled by `batch` (every element moves
/// the full per-element traffic).
pub fn batched_points(
    problem: (i64, i64, i64),
    batch: u64,
    accels: &[AccelInstance],
    capacity_words: u64,
) -> Vec<SpacePoint> {
    let mut out = matmul_points(problem, accels, capacity_words);
    for point in &mut out {
        point.estimate = batched_matmul_transfers(point.flow, problem, point.tile, batch);
    }
    out
}

/// The single geometric point of a Conv2D layer's space (the accelerator
/// is configured to the layer's channel/filter shape), with its legality
/// rules: the `iC x fHW x fHW` input window must fit the device window
/// buffer and the `oHW x oHW` output slice the accumulator buffer.
///
/// # Errors
///
/// Returns a [`Diagnostic`] naming the violated capacity.
pub fn conv_point(shape: ConvShapeEstimate) -> Result<TransferEstimate, Diagnostic> {
    let ConvShapeEstimate { in_channels, filter_hw, out_hw, .. } = shape;
    if in_channels <= 0 || filter_hw <= 0 || out_hw <= 0 {
        return Err(Diagnostic::error(format!(
            "conv layer is empty: {in_channels} channels x {filter_hw}x{filter_hw} filter, \
             {out_hw}x{out_hw} output"
        )));
    }
    // A product that overflows is over any capacity.
    let fits = |words: Option<i64>, capacity: usize| words.is_some_and(|w| w <= capacity as i64);
    let window = in_channels.checked_mul(filter_hw).and_then(|w| w.checked_mul(filter_hw));
    if !fits(window, CONV_WINDOW_CAPACITY) {
        return Err(Diagnostic::error(format!(
            "conv window ({in_channels} channels x {filter_hw}x{filter_hw} filter) exceeds the \
             device window capacity of {CONV_WINDOW_CAPACITY} words"
        )));
    }
    if !fits(out_hw.checked_mul(out_hw), CONV_SLICE_CAPACITY) {
        return Err(Diagnostic::error(format!(
            "conv output slice ({out_hw}x{out_hw}) exceeds the device slice capacity of \
             {CONV_SLICE_CAPACITY} words"
        )));
    }
    Ok(conv_transfers(shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_accelerators::matmul::V4_CAPACITY_WORDS;

    #[test]
    fn labels_round_trip() {
        for accel in [
            AccelInstance { version: MatMulVersion::V1, size: 4 },
            AccelInstance { version: MatMulVersion::V2, size: 8 },
            AccelInstance { version: MatMulVersion::V3, size: 16 },
            AccelInstance::v4(16),
        ] {
            assert_eq!(AccelInstance::parse(&accel.to_string()), Some(accel));
        }
        assert_eq!(AccelInstance::parse("v5_4"), None);
        assert_eq!(AccelInstance::parse("v3_x"), None);
        assert_eq!(AccelInstance::parse("v3_0"), None);
    }

    #[test]
    fn config_names_the_device_a_point_instantiates() {
        let v3 = AccelInstance { version: MatMulVersion::V3, size: 8 };
        let config = v3.config((8, 8, 8), FlowStrategy::OutputStationary);
        assert_eq!((config.device, config.selected_flow.as_str()), (v3.into(), "Cs"));
        assert_eq!(config.accel_dims, vec![8, 8, 8]);
        // v4 carries the tile, and a tile the base does not divide lowers
        // the instantiated base.
        let config = AccelInstance::v4(16).config((32, 16, 64), FlowStrategy::InputAStationary);
        assert_eq!(
            (config.device, config.selected_flow.as_str()),
            (AccelInstance::v4(16).into(), "As")
        );
        assert_eq!(config.accel_dims, vec![32, 16, 64]);
        let config = AccelInstance::v4(16).config((8, 8, 8), FlowStrategy::NothingStationary);
        assert_eq!(config.device.to_string(), "v4_8");
    }

    #[test]
    fn generation_flow_classes_match_table1() {
        assert_eq!(AccelInstance { version: MatMulVersion::V1, size: 4 }.flows().len(), 1);
        assert_eq!(AccelInstance { version: MatMulVersion::V2, size: 4 }.flows().len(), 3);
        assert_eq!(AccelInstance { version: MatMulVersion::V3, size: 4 }.flows().len(), 4);
        assert_eq!(AccelInstance::v4(4).flows().len(), 4);
    }

    #[test]
    fn fixed_generations_contribute_their_square_tile_only() {
        let accel = AccelInstance { version: MatMulVersion::V3, size: 8 };
        assert_eq!(accel.tiles((16, 16, 16), V4_CAPACITY_WORDS), vec![(8, 8, 8)]);
        // 8 does not divide 12: the fixed generation has no legal tile.
        assert!(accel.tiles((16, 12, 16), V4_CAPACITY_WORDS).is_empty());
    }

    #[test]
    fn multi_generation_enumeration_is_deterministic_and_legal() {
        let accels = [
            AccelInstance { version: MatMulVersion::V1, size: 8 },
            AccelInstance { version: MatMulVersion::V2, size: 8 },
            AccelInstance::v4(8),
        ];
        let points = matmul_points((16, 16, 16), &accels, V4_CAPACITY_WORDS);
        // v1: 1 tile x 1 flow; v2: 1 tile x 3 flows; v4: 8 tiles x 4 flows.
        assert_eq!(points.len(), 1 + 3 + 8 * 4);
        assert_eq!(points, matmul_points((16, 16, 16), &accels, V4_CAPACITY_WORDS));
        for p in &points {
            assert!(p.accel.flows().contains(&p.flow), "{p:?}");
            let (m, n, k) = (16i64, 16, 16);
            assert_eq!((m % p.tile.0, n % p.tile.1, k % p.tile.2), (0, 0, 0), "{p:?}");
            if p.accel.version == MatMulVersion::V4 {
                assert!(tile_words(p.tile) <= V4_CAPACITY_WORDS);
            }
        }
    }

    #[test]
    fn batched_points_scale_estimates() {
        let accels = [AccelInstance::v4(8)];
        let single = matmul_points((16, 16, 16), &accels, V4_CAPACITY_WORDS);
        let batched = batched_points((16, 16, 16), 3, &accels, V4_CAPACITY_WORDS);
        assert_eq!(single.len(), batched.len());
        for (s, b) in single.iter().zip(&batched) {
            assert_eq!((s.accel, s.flow, s.tile), (b.accel, b.flow, b.tile));
            assert_eq!(b.estimate.words_total(), 3 * s.estimate.words_total());
            assert_eq!(b.estimate.transactions, 3 * s.estimate.transactions);
        }
    }

    #[test]
    fn options_point_axis_and_suffix() {
        assert_eq!(OptionsPoint::axis().len(), 4);
        assert_eq!(OptionsPoint::axis()[0], OptionsPoint::default());
        assert_eq!(OptionsPoint::default().suffix(), "");
        let tiled =
            OptionsPoint { cache_tiling: CacheTiling::Fixed(32), ..OptionsPoint::default() };
        assert_eq!(tiled.suffix(), " ct:fixed:32");
        let hosted = OptionsPoint { cpu: CpuModel::Desktop, ..OptionsPoint::default() };
        assert_eq!(hosted.suffix(), " cpu:desktop");
        let crossed =
            OptionsPoint::cross_cache_tiling(&OptionsPoint::axis(), &CacheTiling::sweep_levels());
        assert_eq!(crossed.len(), 4 * 5);
        assert_eq!(crossed[0], OptionsPoint::default(), "default stays first");
        let cpus = OptionsPoint::cross_cpus(
            &[OptionsPoint::default()],
            &[CpuModel::PynqZ2, CpuModel::Desktop],
        );
        assert_eq!(cpus.len(), 2);
    }

    #[test]
    fn fixed_cache_tiling_legality_follows_the_flow_permutation() {
        let base = OptionsPoint::default();
        let fixed = |edge| OptionsPoint { cache_tiling: CacheTiling::Fixed(edge), ..base };
        // 64x64x64 with an 8-tile: 32 wraps m and n legally under Ns.
        assert!(fixed(32).legal_for_matmul(
            (64, 64, 64),
            (8, 8, 8),
            FlowStrategy::NothingStationary
        ));
        // An edge that does not divide the dimension is illegal...
        assert!(!fixed(24).legal_for_matmul(
            (64, 64, 64),
            (16, 16, 16),
            FlowStrategy::NothingStationary
        ));
        // ...and an edge covering every outer dim whole duplicates `Off`.
        assert!(!fixed(64).legal_for_matmul(
            (64, 64, 64),
            (8, 8, 8),
            FlowStrategy::NothingStationary
        ));
        // As permutes (m, k, n): the outer dims are m and k, so an edge
        // that only divides n cleanly is judged against m/k instead.
        assert!(fixed(32).legal_for_matmul(
            (64, 48, 64),
            (8, 8, 8),
            FlowStrategy::InputAStationary
        ));
        assert!(!fixed(32).legal_for_matmul(
            (64, 64, 48),
            (8, 8, 8),
            FlowStrategy::InputAStationary
        ));
        // Off and Auto are always legal.
        assert!(base.legal_for_matmul((64, 64, 64), (8, 8, 8), FlowStrategy::NothingStationary));
        // A non-default host is only meaningful under Auto tiling.
        let desktop_off =
            OptionsPoint { cpu: CpuModel::Desktop, cache_tiling: CacheTiling::Off, ..base };
        assert!(!desktop_off.legal_for_matmul(
            (64, 64, 64),
            (8, 8, 8),
            FlowStrategy::NothingStationary
        ));
        let desktop_auto = OptionsPoint { cpu: CpuModel::Desktop, ..base };
        assert!(desktop_auto.legal_for_matmul(
            (64, 64, 64),
            (8, 8, 8),
            FlowStrategy::NothingStationary
        ));
    }

    #[test]
    fn conv_capacity_violations_are_diagnostics() {
        let fits = ConvShapeEstimate {
            batch: 1,
            out_channels: 16,
            out_hw: 8,
            in_channels: 64,
            filter_hw: 3,
        };
        assert!(conv_point(fits).is_ok());
        let window_too_big = ConvShapeEstimate { in_channels: 4096, ..fits };
        let err = conv_point(window_too_big).unwrap_err();
        assert!(err.message.contains("window"), "{}", err.message);
        let slice_too_big = ConvShapeEstimate { out_hw: 200, ..fits };
        let err = conv_point(slice_too_big).unwrap_err();
        assert!(err.message.contains("slice"), "{}", err.message);
        // A product past i64 is over capacity, not a panic or a wrapped 0.
        let overflowing = ConvShapeEstimate { out_hw: 1 << 32, ..fits };
        let err = conv_point(overflowing).unwrap_err();
        assert!(err.message.contains("slice capacity"), "{}", err.message);
        let err = conv_point(ConvShapeEstimate { in_channels: i64::MAX, ..fits }).unwrap_err();
        assert!(err.message.contains("window capacity"), "{}", err.message);
        let err = conv_point(ConvShapeEstimate { in_channels: 0, ..fits }).unwrap_err();
        assert!(err.message.contains("empty"), "{}", err.message);
    }
}
