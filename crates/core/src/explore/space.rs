//! The design-space abstraction: what the explorer searches.
//!
//! A [`DesignSpace`] names a set of [`Candidate`]s — points combining a
//! workload problem, an accelerator instantiation, a dataflow, a tile,
//! and the tunable [`PipelineOptions`] axis — and knows how to *realize*
//! any of them into a runnable `(Workload, CompilePlan)` pair for the
//! [`Session`](crate::driver::Session) layer. Three spaces ship in-tree:
//!
//! - [`MatMulSpace`]: the §IV-C space, generalized from "v4 tiles only"
//!   to any mix of Table I generations (v1–v3 contribute their fixed
//!   square tile, v4 the full `candidate_edges` search);
//! - [`BatchedSpace`]: the MatMul space applied to a batch of independent
//!   GEMMs;
//! - [`ConvSpace`]: one §IV-D layer; its geometric point is fixed by the
//!   layer, so the space is the `PipelineOptions` axis.
//!
//! Candidates are identified by a typed, `Copy` [`CandidateKey`] — the
//! explorer's cache key. Each of [`Problem`], [`Device`] and [`Flow`] has
//! one `Display`/`parse` pair that owns its persisted spelling; text
//! becomes a key only in [`cache::key_from`](super::cache::key_from), and
//! a key is buildable iff its device runs its tile and accepts its
//! problem ([`CandidateKey::at`]).
//! Realization is a function of the key: [`CandidateKey::at`] derives
//! the fidelity-adjusted key and work, [`realize`] builds what it names,
//! and [`DesignSpace::realize`] is that function for every space.

use std::fmt;

use axi4mlir_config::presets::matmul_flows;
use axi4mlir_config::{CacheTiling, FlowStrategy};
use axi4mlir_heuristics::space::{batched_points, conv_point, matmul_points, SpacePoint};
use axi4mlir_heuristics::{best_choice, ConvShapeEstimate, TransferEstimate};
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_workloads::batched::BatchedMatMulProblem;
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::ConvLayer;

pub use axi4mlir_accelerators::matmul::MatMulVersion;
pub use axi4mlir_accelerators::Device;
pub use axi4mlir_heuristics::space::{AccelInstance, OptionsPoint};

use crate::driver::{BatchedMatMulWorkload, CompilePlan, ConvWorkload, MatMulWorkload, Workload};
use crate::options::PipelineOptions;

use super::jobspec::{parse_dims, parse_layer, JobSpec};

/// Applies an [`OptionsPoint`] onto a compile plan: the pipeline knobs
/// (coalescing, copy specialization, cache-tiling level) plus the named
/// host whose cache sizes the `Auto` tiling heuristic reads.
fn apply_options(plan: CompilePlan, options: &OptionsPoint) -> CompilePlan {
    let pipeline = PipelineOptions {
        coalesce_transfers: options.coalesce,
        specialized_copies: options.specialized_copies,
        cache_tiling: options.cache_tiling,
        ..PipelineOptions::default()
    };
    plan.options(pipeline).cpu_spec(options.cpu.spec())
}

/// The problem a candidate measures; renders as the key's `workload`
/// member (`matmul 16x16x16`, `batched 8x8x8 x3`, `conv 10_64_3_16_1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Problem {
    /// One GEMM.
    MatMul(MatMulProblem),
    /// A batch of independent same-shape GEMMs.
    Batched(BatchedMatMulProblem),
    /// One §IV-D convolution layer.
    Conv(ConvLayer),
}

impl Problem {
    /// The workload kind (`matmul`, `batched`, `conv`).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Problem::MatMul(_) => "matmul",
            Problem::Batched(_) => "batched",
            Problem::Conv(_) => "conv",
        }
    }

    /// The (per-element) GEMM of a MatMul-shaped problem.
    pub(crate) fn gemm(&self) -> Option<MatMulProblem> {
        match self {
            Problem::MatMul(problem) => Some(*problem),
            Problem::Batched(batch) => Some(batch.problem),
            Problem::Conv(_) => None,
        }
    }

    /// Multiply-accumulates of the whole problem — the workload types'
    /// `macs()` with checked products: `None` when the count does not fit
    /// `u64` (the extents of a key are outside input).
    fn macs(&self) -> Option<u64> {
        fn product<T: TryInto<u64>>(extents: impl IntoIterator<Item = T>) -> Option<u64> {
            extents.into_iter().try_fold(1u64, |acc, e| acc.checked_mul(e.try_into().ok()?))
        }
        match self {
            Problem::MatMul(p) => product([p.m, p.n, p.k]),
            Problem::Batched(batch) => {
                let p = batch.problem;
                product([p.m, p.n, p.k])?.checked_mul(batch.batch.try_into().ok()?)
            }
            Problem::Conv(l) => {
                let (hw, f) = (l.out_hw(), l.filter_hw);
                product([l.out_channels, hw, hw, l.in_channels, f, f])
            }
        }
    }

    /// Parses the `Display` spelling back; `None` for anything else,
    /// non-positive extents included.
    pub fn parse(text: &str) -> Option<Problem> {
        let (kind, shape) = text.split_once(' ')?;
        match kind {
            "matmul" => parse_dims(shape).map(Problem::MatMul),
            "batched" => {
                let (dims, batch) = shape.split_once(" x")?;
                let batch = batch.parse().ok().filter(|&batch| batch > 0)?;
                Some(Problem::Batched(BatchedMatMulProblem::new(parse_dims(dims)?, batch)))
            }
            "conv" => parse_layer(shape).map(Problem::Conv),
            _ => None,
        }
    }

    /// The proxy at `level` units per dimension (see [`Fidelity::Proxy`]).
    /// A batch shrinks both axes: one element stands in for the whole
    /// batch (the elements are independent and identically shaped, so one
    /// preserves the ranking).
    fn proxy(self, tile: (i64, i64, i64), level: u8) -> Problem {
        match self {
            Problem::MatMul(problem) => Problem::MatMul(proxy_problem(problem, tile, level)),
            Problem::Batched(batch) => Problem::Batched(BatchedMatMulProblem::new(
                proxy_problem(batch.problem, tile, level),
                1,
            )),
            Problem::Conv(layer) => Problem::Conv(conv_proxy_layer(layer, level)),
        }
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Problem::MatMul(problem) => write!(f, "matmul {problem}"),
            Problem::Batched(batch) => write!(f, "batched {batch}"),
            Problem::Conv(layer) => write!(f, "conv {layer}"),
        }
    }
}

/// The dataflow a candidate runs; renders as the key's `flow` member
/// (`Ns`/`As`/`Bs`/`Cs`, `FOs` for conv).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Flow {
    /// A MatMul stationarity strategy.
    MatMul(FlowStrategy),
    /// The Conv2D unit's one flow: filter and output slice stationary.
    FilterOutputStationary,
}

impl Flow {
    /// Parses the `Display` spelling back.
    pub fn parse(text: &str) -> Option<Flow> {
        match text {
            "FOs" => Some(Flow::FilterOutputStationary),
            _ => FlowStrategy::from_short_name(text).map(Flow::MatMul),
        }
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Flow::MatMul(flow) => flow.short_name(),
            Flow::FilterOutputStationary => "FOs",
        })
    }
}

/// The typed identity of one candidate — the explorer's cache key.
///
/// Every axis is a separate field: two candidates differing in *any* of
/// workload (problem dims included), accelerator instantiation, flow,
/// tile, pipeline options, or data seed get distinct keys. Not `Ord`:
/// documents order entries by the *rendered* members.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CandidateKey {
    /// Workload kind and problem.
    pub workload: Problem,
    /// The device it runs on (the `accel` member: `v4_16`, `conv2d`).
    pub accel: Device,
    /// Dataflow.
    pub flow: Flow,
    /// The `(tM, tN, tK)` tile; `(0, 0, 0)` for spaces without a tile
    /// axis (conv).
    pub tile: (i64, i64, i64),
    /// The tunable pipeline-options point.
    pub options: OptionsPoint,
    /// Data seed of the measurement.
    pub seed: u64,
}

impl CandidateKey {
    /// The per-space entry label: accelerator, flow, tile (when the space
    /// has a tile axis), and any non-default options.
    pub(crate) fn label(&self) -> String {
        let tile = if self.tile == (0, 0, 0) {
            String::new()
        } else {
            format!(" {} {} {}", self.tile.0, self.tile.1, self.tile.2)
        };
        format!("{} {}{}{}", self.accel, self.flow, tile, self.options.suffix())
    }

    /// The member that makes this key unbuildable and what it must be
    /// (the rule is stated on [`Self::at`]).
    pub(crate) fn defect(&self) -> Option<(&'static str, &'static str)> {
        let shape = match (self.workload, self.accel, self.flow) {
            (Problem::Conv(_), Device::Conv2d, Flow::FilterOutputStationary) => {
                (self.tile != (0, 0, 0)).then_some(("tile", "must be [0, 0, 0] on the conv2d unit"))
            }
            (Problem::Conv(_), Device::Conv2d, _) => Some(("flow", "must be FOs on conv2d")),
            (Problem::Conv(_), ..) => Some(("accel", "must be conv2d for a conv workload")),
            (_, Device::Conv2d, _) => Some(("accel", "must be a vN_SIZE MatMul instance")),
            (_, Device::MatMul { version, size }, Flow::MatMul(flow))
                if matmul_flows(version).iter().any(|&(offered, _)| offered == flow) =>
            {
                // Asked of the device `realize` instantiates for this tile.
                let accel = AccelInstance { version, size: size.get().into() };
                let device = Device::from(accel.instantiated(self.tile));
                device.tile_defect(&<[i64; 3]>::from(self.tile)).map(|must| ("tile", must))
            }
            _ => Some(("flow", "must be a flow the accelerator offers")),
        };
        // The device must accept the problem: the rule a `JobSpec` is
        // refused by, asked before anything is built or allocated.
        shape.or(match self.workload {
            Problem::Conv(layer) if conv_point(conv_shape(&layer)).is_err() => {
                Some(("workload", "must fit the conv2d unit's window and output-slice buffers"))
            }
            problem if problem.macs().is_none() => {
                Some(("workload", "must have a multiply-accumulate count that fits 64 bits"))
            }
            _ => None,
        })
    }

    /// The identity and work (MACs) of this candidate measured at
    /// `fidelity`, derived without building anything: a proxy carries the
    /// proxy problem in `workload` (a proxy covering the full problem
    /// *is* the full key), and a fixed cache tile the realized problem
    /// cannot run under is clamped (see `realized_options`).
    ///
    /// # Errors
    ///
    /// Names the offending member of a key outside the closed buildable
    /// world: a MatMul-shaped problem runs on a `vN_SIZE` instance under
    /// a flow that generation offers with a tile it runs
    /// ([`Device::tile_defect`]); a conv layer runs on `conv2d` under `FOs`
    /// with no tile; and the device accepts the problem — a conv layer passes
    /// `conv_point` (the rule `JobSpec::build` applies), any MAC count fits `u64`.
    pub fn at(&self, fidelity: Fidelity) -> Result<(CandidateKey, u64), Diagnostic> {
        if let Some((member, must)) = self.defect() {
            return Err(Diagnostic::error(format!("candidate key: `{member}` {must}")));
        }
        let workload = match fidelity {
            Fidelity::Full => self.workload,
            Fidelity::Proxy { level } => self.workload.proxy(self.tile, level),
        };
        let options = match (workload.gemm(), self.flow) {
            (Some(problem), Flow::MatMul(flow)) => {
                realized_options(self.options, problem, self.tile, flow)
            }
            _ => self.options,
        };
        let work = workload.macs().expect("no larger than the problem `defect` admitted");
        Ok((CandidateKey { workload, options, ..*self }, work))
    }
}

/// One point of a design space: its identity plus the analytical traffic
/// estimate (the cost hook pruning and halving rank on).
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Structured identity (also the cache key).
    pub key: CandidateKey,
    /// Estimated traffic under this candidate.
    pub estimate: TransferEstimate,
}

impl Candidate {
    /// The entry label (see `CandidateKey::label`).
    pub fn label(&self) -> String {
        self.key.label()
    }
}

/// How faithfully a candidate is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// A proxy problem capped at `level` units per dimension (tiles for
    /// MatMul spaces, output pixels/channels for conv, with a batch of
    /// one standing in for a batched sweep) — cheap, rank-preserving
    /// enough to steer successive halving. A proxy that already covers
    /// the full problem realizes identically to [`Fidelity::Full`] (the
    /// shared cache key then makes proxy rounds free).
    Proxy {
        /// Tiles per dimension the proxy problem keeps (at least 1).
        level: u8,
    },
    /// The full problem.
    Full,
}

impl Fidelity {
    /// The compact spelling used by progress events and the hub wire
    /// protocol: `full`, or `proxy:N` for [`Fidelity::Proxy`] level `N`.
    pub fn label(&self) -> String {
        match self {
            Fidelity::Full => "full".to_owned(),
            Fidelity::Proxy { level } => format!("proxy:{level}"),
        }
    }

    /// Parses a [`Fidelity::label`] spelling back (`None` for anything
    /// else).
    pub(crate) fn parse(label: &str) -> Option<Fidelity> {
        if label == "full" {
            return Some(Fidelity::Full);
        }
        let level = label.strip_prefix("proxy:")?.parse().ok()?;
        (level >= 1).then_some(Fidelity::Proxy { level })
    }
}

/// A realized candidate: what the measurement engine runs.
pub struct Realization {
    /// Identity of the *realized* measurement ([`CandidateKey::at`]).
    pub key: CandidateKey,
    /// The workload to run.
    pub workload: Box<dyn Workload>,
    /// The compile plan to run it under.
    pub plan: CompilePlan,
    /// Work (MACs) of the realized problem — the normalizer that makes
    /// proxy measurements of differently-sized proxies comparable.
    pub work: u64,
}

/// A searchable design space: an enumerable candidate set with an
/// analytical cost per candidate, plus the recipe turning any candidate
/// into a runnable workload/plan pair.
pub trait DesignSpace: Sync {
    /// Human-readable identity for reports and diagnostics.
    fn describe(&self) -> String;

    /// The workload kind (`matmul`, `batched`, `conv`).
    fn workload_kind(&self) -> &'static str;

    /// Every legal candidate in a fixed, deterministic order, each with
    /// its analytical estimate.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the space is structurally illegal
    /// (e.g. a conv layer exceeding the device buffer capacities).
    fn enumerate(&self) -> Result<Vec<Candidate>, Diagnostic>;

    /// [`realize`] of the candidate's key; no space overrides this.
    ///
    /// # Errors
    ///
    /// See [`realize`].
    fn realize(
        &self,
        candidate: &Candidate,
        fidelity: Fidelity,
    ) -> Result<Realization, Diagnostic> {
        realize(&candidate.key, fidelity)
    }

    /// The analytical heuristic pick this space's cost model would make,
    /// when it has one — measured alongside the sweep so reports can
    /// state the heuristic-vs-optimum gap.
    fn heuristic(&self) -> Option<Candidate> {
        None
    }

    /// The minimal [`JobSpec`] naming this space's problem shape and data
    /// seed. Kept only for the frozen benchmark's worker replay
    /// (`benchmark/src/layers.rs`), which passes it to `measure_request`
    /// as the ignored `job`; nothing in the measurement path calls it.
    fn wire_spec(&self) -> Option<JobSpec> {
        None
    }
}

// ---------------------------------------------------------------------
// MatMul
// ---------------------------------------------------------------------

/// The MatMul design space: one problem swept over accelerator
/// instantiations × flows × tiles × pipeline options.
#[derive(Clone, Debug)]
pub struct MatMulSpace {
    /// The GEMM to explore.
    pub problem: MatMulProblem,
    /// Accelerator instantiations to consider, in order.
    pub accels: Vec<AccelInstance>,
    /// Tile-memory budget for flexible (v4) candidates, in words.
    pub capacity_words: u64,
    /// Pipeline-options points to consider.
    pub options_axis: Vec<OptionsPoint>,
    /// Data seed for every measurement.
    pub seed: u64,
}

impl MatMulSpace {
    /// The standard space: the flexible v4 accelerator with base 16, every
    /// flow it offers, default options.
    pub fn new(problem: MatMulProblem) -> Self {
        Self {
            problem,
            accels: vec![AccelInstance::v4(16)],
            capacity_words: axi4mlir_accelerators::matmul::V4_CAPACITY_WORDS,
            options_axis: vec![OptionsPoint::default()],
            seed: 0xD5E,
        }
    }

    /// Overrides the accelerator instantiations.
    #[must_use]
    pub fn accels(mut self, accels: Vec<AccelInstance>) -> Self {
        self.accels = accels;
        self
    }

    /// Overrides the capacity budget.
    #[must_use]
    pub fn capacity_words(mut self, capacity_words: u64) -> Self {
        self.capacity_words = capacity_words;
        self
    }

    /// Overrides the options axis.
    #[must_use]
    pub fn options_axis(mut self, options_axis: Vec<OptionsPoint>) -> Self {
        self.options_axis = options_axis;
        self
    }

    /// Overrides the data seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn dims(&self) -> (i64, i64, i64) {
        (self.problem.m, self.problem.n, self.problem.k)
    }
}

/// Expands geometric points by an options axis into keyed candidates,
/// dropping points the options axis is not meaningful for (see
/// [`OptionsPoint::legal_for_matmul`]): illegal fixed cache tiles and
/// host variants that could not change the measurement.
fn keyed(
    points: Vec<SpacePoint>,
    workload: Problem,
    problem: (i64, i64, i64),
    options_axis: &[OptionsPoint],
    seed: u64,
) -> Vec<Candidate> {
    let mut out = Vec::with_capacity(points.len() * options_axis.len().max(1));
    for point in points {
        for &options in options_axis {
            if !options.legal_for_matmul(problem, point.tile, point.flow) {
                continue;
            }
            out.push(Candidate {
                key: CandidateKey {
                    workload,
                    accel: point.accel.into(),
                    flow: Flow::MatMul(point.flow),
                    tile: point.tile,
                    options,
                    seed,
                },
                estimate: point.estimate,
            });
        }
    }
    out
}

/// The proxy problem of a tile at `level` tiles per dimension: each
/// dimension capped at `level * tile_edge` (a multiple of the tile, so
/// divisibility is preserved).
fn proxy_problem(problem: MatMulProblem, tile: (i64, i64, i64), level: u8) -> MatMulProblem {
    let level = i64::from(level.max(1));
    MatMulProblem::new(
        problem.m.min(level * tile.0),
        problem.n.min(level * tile.1),
        problem.k.min(level * tile.2),
    )
}

/// The options a *realized* problem can actually run under: a fixed
/// cache-tile edge that was legal on the full problem may not divide a
/// shrunken proxy's dimensions (the enumeration legality check sees the
/// full problem only), and `matmul_plan` would reject it, aborting the
/// sweep. Such proxies fall back to `Off` — the proxy is an
/// approximation anyway, and the clamped options are reflected in the
/// realized cache key so the measurement is never served under the
/// fixed-tile identity.
fn realized_options(
    options: OptionsPoint,
    problem: MatMulProblem,
    tile: (i64, i64, i64),
    flow: FlowStrategy,
) -> OptionsPoint {
    match options.cache_tiling {
        CacheTiling::Fixed(_)
            if !options.legal_for_matmul((problem.m, problem.n, problem.k), tile, flow) =>
        {
            OptionsPoint { cache_tiling: CacheTiling::Off, ..options }
        }
        _ => options,
    }
}

/// Builds the workload and compile plan of `key.at(fidelity)`, seeded by
/// the key — the one realization.
///
/// # Errors
///
/// See [`CandidateKey::at`].
pub fn realize(key: &CandidateKey, fidelity: Fidelity) -> Result<Realization, Diagnostic> {
    let (key, work) = key.at(fidelity)?;
    let plan = match (key.workload, key.accel, key.flow) {
        (Problem::Conv(layer), ..) => CompilePlan::for_conv_layer(layer),
        (_, Device::MatMul { version, size }, Flow::MatMul(flow)) => {
            let accel = AccelInstance { version, size: size.get().into() };
            CompilePlan::for_accelerator(accel.config(key.tile, flow))
        }
        _ => unreachable!("`at` admits no MatMul problem off a MatMul instance and flow"),
    };
    let workload: Box<dyn Workload> = match key.workload {
        Problem::MatMul(problem) => Box::new(MatMulWorkload::new(problem)),
        Problem::Batched(batch) => Box::new(BatchedMatMulWorkload::new(batch)),
        Problem::Conv(layer) => Box::new(ConvWorkload::new(layer)),
    };
    let plan = apply_options(plan.seed(key.seed), &key.options);
    Ok(Realization { key, workload, plan, work })
}

impl DesignSpace for MatMulSpace {
    fn describe(&self) -> String {
        let accels: Vec<String> = self.accels.iter().map(AccelInstance::to_string).collect();
        format!("matmul {} on {}", self.problem, accels.join("+"))
    }

    fn workload_kind(&self) -> &'static str {
        "matmul"
    }

    fn enumerate(&self) -> Result<Vec<Candidate>, Diagnostic> {
        let points = matmul_points(self.dims(), &self.accels, self.capacity_words);
        let workload = Problem::MatMul(self.problem);
        Ok(keyed(points, workload, self.dims(), &self.options_axis, self.seed))
    }

    fn heuristic(&self) -> Option<Candidate> {
        let v4 = self.accels.iter().find(|a| a.version == MatMulVersion::V4)?;
        let choice = best_choice(self.dims(), v4.size, self.capacity_words).ok()?;
        Some(Candidate {
            key: CandidateKey {
                workload: Problem::MatMul(self.problem),
                accel: (*v4).into(),
                flow: Flow::MatMul(choice.flow),
                tile: choice.tile,
                options: self.options_axis.first().copied().unwrap_or_default(),
                seed: self.seed,
            },
            estimate: choice.estimate,
        })
    }

    fn wire_spec(&self) -> Option<JobSpec> {
        Some(JobSpec { dims: Some(self.dims()), seed: Some(self.seed), ..JobSpec::default() })
    }
}

// ---------------------------------------------------------------------
// Batched MatMul
// ---------------------------------------------------------------------

/// The batched-MatMul design space: the MatMul axes applied to a batch of
/// independent same-shape GEMMs (estimates scale with the batch).
#[derive(Clone, Debug)]
pub struct BatchedSpace {
    /// The batch to explore.
    pub batch: BatchedMatMulProblem,
    /// Accelerator instantiations to consider, in order.
    pub accels: Vec<AccelInstance>,
    /// Tile-memory budget for flexible (v4) candidates, in words.
    pub capacity_words: u64,
    /// Pipeline-options points to consider.
    pub options_axis: Vec<OptionsPoint>,
    /// Data seed for every measurement.
    pub seed: u64,
}

impl BatchedSpace {
    /// The standard batched space (see [`MatMulSpace::new`]).
    pub fn new(batch: BatchedMatMulProblem) -> Self {
        let base = MatMulSpace::new(batch.problem);
        Self {
            batch,
            accels: base.accels,
            capacity_words: base.capacity_words,
            options_axis: base.options_axis,
            seed: base.seed,
        }
    }

    /// Overrides the accelerator instantiations.
    #[must_use]
    pub fn accels(mut self, accels: Vec<AccelInstance>) -> Self {
        self.accels = accels;
        self
    }

    /// Overrides the capacity budget.
    #[must_use]
    pub(crate) fn capacity_words(mut self, capacity_words: u64) -> Self {
        self.capacity_words = capacity_words;
        self
    }

    /// Overrides the options axis.
    #[must_use]
    pub fn options_axis(mut self, options_axis: Vec<OptionsPoint>) -> Self {
        self.options_axis = options_axis;
        self
    }

    /// Overrides the data seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn dims(&self) -> (i64, i64, i64) {
        (self.batch.problem.m, self.batch.problem.n, self.batch.problem.k)
    }
}

impl DesignSpace for BatchedSpace {
    fn describe(&self) -> String {
        let accels: Vec<String> = self.accels.iter().map(AccelInstance::to_string).collect();
        format!("batched {} on {}", self.batch, accels.join("+"))
    }

    fn workload_kind(&self) -> &'static str {
        "batched"
    }

    fn enumerate(&self) -> Result<Vec<Candidate>, Diagnostic> {
        let points =
            batched_points(self.dims(), self.batch.batch as u64, &self.accels, self.capacity_words);
        let workload = Problem::Batched(self.batch);
        Ok(keyed(points, workload, self.dims(), &self.options_axis, self.seed))
    }

    fn heuristic(&self) -> Option<Candidate> {
        let v4 = self.accels.iter().find(|a| a.version == MatMulVersion::V4)?;
        let choice = best_choice(self.dims(), v4.size, self.capacity_words).ok()?;
        Some(Candidate {
            key: CandidateKey {
                workload: Problem::Batched(self.batch),
                accel: (*v4).into(),
                flow: Flow::MatMul(choice.flow),
                tile: choice.tile,
                options: self.options_axis.first().copied().unwrap_or_default(),
                seed: self.seed,
            },
            estimate: axi4mlir_heuristics::batched_matmul_transfers(
                choice.flow,
                self.dims(),
                choice.tile,
                self.batch.batch as u64,
            ),
        })
    }

    fn wire_spec(&self) -> Option<JobSpec> {
        Some(JobSpec {
            workload: "batched".to_owned(),
            dims: Some(self.dims()),
            batch: Some(self.batch.batch as i64),
            seed: Some(self.seed),
            ..JobSpec::default()
        })
    }
}

// ---------------------------------------------------------------------
// Conv2D
// ---------------------------------------------------------------------

/// The reduced-output-extent proxy of a conv layer at `level`: the
/// accelerator's configuration (input channels, filter shape, stride) is
/// kept — the §IV-D device is instantiated from them — while the output
/// is capped at `level` pixels per spatial dimension and `level` output
/// channels, shrinking the input window sweep proportionally. A level
/// covering the full output extent returns the layer itself, so halving's
/// saturation check converges exactly.
fn conv_proxy_layer(layer: ConvLayer, level: u8) -> ConvLayer {
    let level = usize::from(level.max(1));
    let out_hw = layer.out_hw().min(level);
    let out_channels = layer.out_channels.min(level);
    if out_hw == layer.out_hw() && out_channels == layer.out_channels {
        return layer;
    }
    ConvLayer { in_hw: (out_hw - 1) * layer.stride + layer.filter_hw, out_channels, ..layer }
}

/// The shape of `layer` as the analytical traffic model sees it (batch
/// 1): the one `ConvLayer` → [`ConvShapeEstimate`] conversion, shared by
/// the conv space and the transfer model's reading of cached labels.
pub(crate) fn conv_shape(layer: &ConvLayer) -> ConvShapeEstimate {
    // An extent past `i64` saturates; `conv_point` reads it as over capacity.
    let extent = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
    ConvShapeEstimate {
        batch: 1,
        out_channels: extent(layer.out_channels),
        out_hw: extent(layer.out_hw()),
        in_channels: extent(layer.in_channels),
        filter_hw: extent(layer.filter_hw),
    }
}

/// The Conv2D design space: one §IV-D layer. The accelerator is
/// configured to the layer's channel/filter shape, so the geometric point
/// is fixed and the explored axis is [`PipelineOptions`]; proxy
/// fidelities run a `conv_proxy_layer` with a reduced output extent.
#[derive(Clone, Debug)]
pub struct ConvSpace {
    /// The layer to explore.
    pub layer: ConvLayer,
    /// Data seed for every measurement.
    pub seed: u64,
}

impl ConvSpace {
    /// The standard conv space: the conventional conv data seed.
    pub fn new(layer: ConvLayer) -> Self {
        Self { layer, seed: 0xC02 }
    }

    /// Overrides the data seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl DesignSpace for ConvSpace {
    fn describe(&self) -> String {
        format!("conv {} on conv2d", self.layer)
    }

    fn workload_kind(&self) -> &'static str {
        "conv"
    }

    fn enumerate(&self) -> Result<Vec<Candidate>, Diagnostic> {
        let estimate = conv_point(conv_shape(&self.layer))?;
        // Conv kernels never cache-tile, so the explored axis is the
        // copy/coalesce one at the default tiling level and host.
        Ok(OptionsPoint::axis()
            .into_iter()
            .map(|options| Candidate {
                key: CandidateKey {
                    workload: Problem::Conv(self.layer),
                    accel: Device::Conv2d,
                    flow: Flow::FilterOutputStationary,
                    tile: (0, 0, 0),
                    options,
                    seed: self.seed,
                },
                estimate,
            })
            .collect())
    }

    fn heuristic(&self) -> Option<Candidate> {
        // The paper's configuration is the default options point.
        self.enumerate().ok()?.into_iter().find(|c| c.key.options == OptionsPoint::default())
    }

    fn wire_spec(&self) -> Option<JobSpec> {
        Some(JobSpec {
            workload: "conv".to_owned(),
            layer: Some(self.layer.label()),
            seed: Some(self.seed),
            ..JobSpec::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_layer() -> ConvLayer {
        ConvLayer { in_hw: 10, in_channels: 64, filter_hw: 3, out_channels: 16, stride: 1 }
    }

    #[test]
    fn options_suffix_marks_non_defaults() {
        assert_eq!(OptionsPoint::default().suffix(), "");
        assert_eq!(OptionsPoint { coalesce: true, ..OptionsPoint::default() }.suffix(), " +co");
        assert_eq!(
            OptionsPoint { specialized_copies: false, ..OptionsPoint::default() }.suffix(),
            " -sc"
        );
        assert_eq!(
            OptionsPoint { coalesce: true, specialized_copies: false, ..OptionsPoint::default() }
                .suffix(),
            " +co -sc"
        );
        assert_eq!(OptionsPoint::axis().len(), 4);
        assert_eq!(OptionsPoint::axis()[0], OptionsPoint::default());
    }

    #[test]
    fn widened_axes_enumerate_legally_and_key_distinctly() {
        use axi4mlir_config::{CacheTiling, CpuModel};
        // 64x64x64 on an 8-base v4: fixed edges 16/32 wrap legally, 64
        // covers the whole problem (duplicate of Off, dropped), and the
        // desktop host only appears under Auto tiling.
        let axis = OptionsPoint::cross_cache_tiling(
            &[OptionsPoint::default()],
            &CacheTiling::sweep_levels(),
        );
        let axis = OptionsPoint::cross_cpus(&axis, &[CpuModel::PynqZ2, CpuModel::Desktop]);
        let space = MatMulSpace::new(MatMulProblem::new(64, 64, 64))
            .accels(vec![AccelInstance::v4(8)])
            .options_axis(axis);
        let candidates = space.enumerate().unwrap();
        let keys: std::collections::HashSet<CandidateKey> =
            candidates.iter().map(|c| c.key).collect();
        assert_eq!(keys.len(), candidates.len(), "every widened key is unique");
        let tilings: std::collections::HashSet<String> =
            candidates.iter().map(|c| c.key.options.cache_tiling.label()).collect();
        assert!(tilings.contains("auto") && tilings.contains("off"));
        assert!(tilings.contains("fixed:16") && tilings.contains("fixed:32"));
        // A fixed-64 level survives only for tiles where it wraps
        // something; with 64-edge problems it never does.
        let sixty_four: Vec<_> = candidates
            .iter()
            .filter(|c| c.key.options.cache_tiling == CacheTiling::Fixed(64))
            .collect();
        assert!(sixty_four.is_empty(), "fixed:64 duplicates off on a 64^3 problem");
        // Desktop hosts appear, and only under Auto.
        let desktop: Vec<_> =
            candidates.iter().filter(|c| c.key.options.cpu == CpuModel::Desktop).collect();
        assert!(!desktop.is_empty());
        assert!(desktop.iter().all(|c| c.key.options.cache_tiling == CacheTiling::Auto));
    }

    #[test]
    fn proxy_realizations_clamp_unrunnable_fixed_cache_tiles() {
        use axi4mlir_config::CacheTiling;
        // Fixed(24) is legal on the 48^3 problem (24 % 8 == 0,
        // 48 % 24 == 0) but a level-4 proxy shrinks the dims to 32,
        // which 24 does not divide — the proxy must fall back to Off
        // (reflected in its cache key) instead of handing `matmul_plan`
        // an edge it rejects mid-sweep.
        let axis =
            vec![OptionsPoint { cache_tiling: CacheTiling::Fixed(24), ..OptionsPoint::default() }];
        let space = MatMulSpace::new(MatMulProblem::new(48, 48, 48))
            .accels(vec![AccelInstance::v4(8)])
            .options_axis(axis);
        let candidate = space
            .enumerate()
            .unwrap()
            .into_iter()
            .find(|c| c.key.tile == (8, 8, 8))
            .expect("the 8-tile survives enumeration legality");
        let full = space.realize(&candidate, Fidelity::Full).unwrap();
        assert_eq!(full.plan.options.cache_tiling, CacheTiling::Fixed(24));
        let proxy = space.realize(&candidate, Fidelity::Proxy { level: 4 }).unwrap();
        assert_eq!(proxy.key.workload, Problem::MatMul(MatMulProblem::new(32, 32, 32)));
        assert_eq!(proxy.plan.options.cache_tiling, CacheTiling::Off);
        assert_eq!(proxy.key.options.cache_tiling, CacheTiling::Off, "the key says what ran");
        // The clamped proxy actually runs (this aborted the sweep before).
        let report = crate::driver::Session::for_sweep()
            .run(proxy.workload.as_ref(), &proxy.plan)
            .expect("clamped proxy measures");
        assert!(report.verified);
        // A proxy the edge still wraps legally keeps it: level 8 covers
        // the full 48^3 problem, where Fixed(24) was legal all along.
        let covering = space.realize(&candidate, Fidelity::Proxy { level: 8 }).unwrap();
        assert_eq!(covering.key, full.key);
        assert_eq!(covering.plan.options.cache_tiling, CacheTiling::Fixed(24));
    }

    #[test]
    fn cache_tiling_levels_realize_distinct_plans() {
        use axi4mlir_config::{CacheTiling, CpuModel};
        let axis = OptionsPoint::cross_cache_tiling(
            &[OptionsPoint::default()],
            &[CacheTiling::Off, CacheTiling::Fixed(32)],
        );
        let space = MatMulSpace::new(MatMulProblem::new(64, 64, 64))
            .accels(vec![AccelInstance::v4(8)])
            .options_axis(axis);
        let candidates = space.enumerate().unwrap();
        let off = candidates
            .iter()
            .find(|c| c.key.options.cache_tiling == CacheTiling::Off)
            .expect("an off candidate");
        let fixed = candidates
            .iter()
            .find(|c| c.key.options.cache_tiling == CacheTiling::Fixed(32))
            .expect("a fixed candidate");
        let off_plan = space.realize(off, Fidelity::Full).unwrap().plan;
        let fixed_plan = space.realize(fixed, Fidelity::Full).unwrap().plan;
        assert_eq!(off_plan.options.cache_tiling, CacheTiling::Off);
        assert_eq!(fixed_plan.options.cache_tiling, CacheTiling::Fixed(32));
        // The host spec rides along with the cpu axis.
        let desktop = OptionsPoint { cpu: CpuModel::Desktop, ..OptionsPoint::default() };
        let plan = apply_options(CompilePlan::cpu(), &desktop);
        assert_eq!(plan.cpu, CpuModel::Desktop.spec());
    }

    #[test]
    fn keys_distinguish_every_axis() {
        let space = MatMulSpace::new(MatMulProblem::new(16, 16, 16))
            .accels(vec![
                AccelInstance { version: MatMulVersion::V3, size: 8 },
                AccelInstance::v4(8),
            ])
            .options_axis(OptionsPoint::axis());
        let candidates = space.enumerate().unwrap();
        let keys: std::collections::HashSet<CandidateKey> =
            candidates.iter().map(|c| c.key).collect();
        assert_eq!(keys.len(), candidates.len(), "every candidate key is unique");
        // The same (flow, tile) exists on both accelerators and under
        // several options points — only the structured key separates them.
        let ns = Flow::MatMul(FlowStrategy::NothingStationary);
        let same_geometry: Vec<&Candidate> =
            candidates.iter().filter(|c| c.key.flow == ns && c.key.tile == (8, 8, 8)).collect();
        assert_eq!(same_geometry.len(), 2 * 4, "two accels x four option points");
    }

    #[test]
    fn labels_extend_the_fig14_format() {
        let space = MatMulSpace::new(MatMulProblem::new(16, 16, 16));
        let c = &space.enumerate().unwrap()[0];
        assert!(c.label().starts_with("v4_16 "), "{}", c.label());
        let conv = ConvSpace::new(quick_layer());
        let labels: Vec<String> = conv.enumerate().unwrap().iter().map(Candidate::label).collect();
        assert_eq!(labels[0], "conv2d FOs");
        assert!(labels.contains(&"conv2d FOs +co -sc".to_owned()), "{labels:?}");
    }

    #[test]
    fn proxy_problems_preserve_divisibility_and_cap_at_full() {
        let p = MatMulProblem::new(256, 32, 512);
        let proxied = proxy_problem(p, (16, 32, 16), 2);
        assert_eq!((proxied.m, proxied.n, proxied.k), (32, 32, 32));
        assert_eq!(proxied.m % 16, 0);
        // Level large enough to cover the problem: the proxy is the
        // problem itself.
        let full = proxy_problem(p, (16, 32, 16), 255);
        assert_eq!(full, p);
    }

    #[test]
    fn realize_targets_the_named_generation() {
        let accels = [AccelInstance { version: MatMulVersion::V2, size: 8 }, AccelInstance::v4(8)];
        let space = MatMulSpace::new(MatMulProblem::new(16, 16, 16)).accels(accels.to_vec());
        let candidates = space.enumerate().unwrap();
        let on = |accel: AccelInstance| candidates.iter().find(|c| c.key.accel == accel.into());
        let v2 = on(accels[0]).unwrap();
        let r = space.realize(v2, Fidelity::Full).unwrap();
        assert_eq!(r.plan.config.as_ref().unwrap().device, v2.key.accel);
        assert_eq!(r.work, 16 * 16 * 16);
        let v4 = on(accels[1]).unwrap();
        let r = space.realize(v4, Fidelity::Proxy { level: 1 }).unwrap();
        let Problem::MatMul(proxy) = r.key.workload else { panic!("{}", r.key.workload) };
        assert_eq!((proxy.m, proxy.n, proxy.k), v4.key.tile, "one tile per dimension");
    }

    #[test]
    fn conv_space_is_the_options_axis() {
        let space = ConvSpace::new(quick_layer());
        let candidates = space.enumerate().unwrap();
        assert_eq!(candidates.len(), 4);
        let heuristic = space.heuristic().unwrap();
        assert_eq!(heuristic.key.options, OptionsPoint::default());
    }

    #[test]
    fn conv_proxy_reduces_output_extent_but_keeps_the_accelerator_shape() {
        let layer = quick_layer();
        let space = ConvSpace::new(layer);
        let candidates = space.enumerate().unwrap();
        let full = space.realize(&candidates[0], Fidelity::Full).unwrap();
        let proxy = space.realize(&candidates[0], Fidelity::Proxy { level: 2 }).unwrap();
        // The proxy is a genuinely smaller problem under its own cache key.
        assert!(proxy.work < full.work, "{} !< {}", proxy.work, full.work);
        assert_ne!(proxy.key, full.key);
        // Its accelerator configuration is the layer's, so the proxy
        // measures the same device the full layer targets.
        assert_eq!(
            proxy.plan.config.as_ref().unwrap().device,
            full.plan.config.as_ref().unwrap().device
        );
        // Doubling the level grows the proxy toward the layer, and a
        // covering level realizes the layer itself under the full key.
        let bigger = space.realize(&candidates[0], Fidelity::Proxy { level: 4 }).unwrap();
        assert!(proxy.work < bigger.work && bigger.work < full.work);
        let covering = space.realize(&candidates[0], Fidelity::Proxy { level: 255 }).unwrap();
        assert_eq!(covering.key, full.key);
        assert_eq!(covering.work, full.work);
    }

    #[test]
    fn conv_proxy_geometry_is_consistent() {
        // Stride > 1: the proxy input extent must reproduce the capped
        // output extent exactly.
        let layer =
            ConvLayer { in_hw: 30, in_channels: 8, filter_hw: 3, out_channels: 16, stride: 2 };
        for level in [1u8, 2, 3, 7] {
            let proxy = conv_proxy_layer(layer, level);
            assert_eq!(proxy.out_hw(), layer.out_hw().min(usize::from(level)));
            assert_eq!(proxy.out_channels, layer.out_channels.min(usize::from(level)));
            assert_eq!(
                (proxy.in_channels, proxy.filter_hw, proxy.stride),
                (layer.in_channels, layer.filter_hw, layer.stride)
            );
        }
    }

    #[test]
    fn batched_proxy_measures_a_single_element() {
        let batch = BatchedMatMulProblem::new(MatMulProblem::new(32, 32, 32), 3);
        let space = BatchedSpace::new(batch).accels(vec![AccelInstance::v4(8)]);
        let candidates = space.enumerate().unwrap();
        let full = space.realize(&candidates[0], Fidelity::Full).unwrap();
        let proxy = space.realize(&candidates[0], Fidelity::Proxy { level: 1 }).unwrap();
        assert_eq!(full.work, 3 * 32 * 32 * 32);
        assert!(proxy.work < full.work / 3, "batch of one on a reduced problem");
        assert_ne!(proxy.key, full.key);
        let Problem::Batched(one) = proxy.key.workload else { panic!("{}", proxy.key.workload) };
        assert_eq!(one.batch, 1);
    }

    #[test]
    fn oversized_conv_layers_are_rejected_at_enumeration() {
        let big =
            ConvLayer { in_hw: 10, in_channels: 4096, filter_hw: 3, out_channels: 4, stride: 1 };
        let err = ConvSpace::new(big).enumerate().unwrap_err();
        assert!(err.message.contains("window"), "{}", err.message);
    }
}
