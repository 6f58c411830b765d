//! The generic compile-and-run driver layer.
//!
//! Every experiment in this workspace runs the same loop: build an IR
//! module, push it through the AXI4MLIR pass pipeline, allocate and seed
//! SoC buffers, execute on the simulated system, and verify against a
//! reference kernel. This module factors that loop into three pieces so a
//! new kernel is one `Workload` implementation instead of a new monolith:
//!
//! - [`Workload`]: what varies per kernel — module construction, input
//!   data, the reference result, buffer binding, and the entry function.
//!   Implemented here for MatMul, Conv2D, and batched MatMul.
//! - [`CompilePlan`] + [`PipelineBuilder`]: what varies per compilation —
//!   the accelerator configuration (or none, for CPU-only execution), the
//!   selected flow, and [`PipelineOptions`].
//! - [`Session`]: the executor. It owns the simulated [`Soc`] and
//!   **reuses it across runs**: memory, cache, DMA, and device state are
//!   recycled (bit-identically to a fresh build) instead of reallocated,
//!   which amortizes per-run setup in benchmark sweeps, and the device is
//!   only re-instantiated when a plan targets a different accelerator.
//!   It also keeps the inputs and reference of the last few problems, so
//!   the candidates of one sweep, which share a `(problem, seed)`, compute
//!   the reference once.
//! - [`ProgramMemo`]: compiled modules by what determines them, which
//!   leaves the data seed out. A session compiles through one: its own
//!   one-entry memo ([`Session::for_sweep`]), or one that many sessions
//!   share ([`Session::with_programs`]), as a worker's slots do, so a
//!   module is compiled once however many seeds and jobs run it.
//!
//! There is no other harness. [`Session::run`] and [`Session::run_manual`]
//! are one execute body (retarget, recycle, bind, reset, drive, protocol
//! check, read-back, verify) under two drivers: the interpreter over the
//! compiled module, and a hand-written driver over the same bound buffers
//! — so the `cpp MANUAL` and generated sides of a figure row differ in the
//! driver and in nothing else. A one-off run is
//! `Session::for_sweep().run(&workload, &plan)`.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, Mutex, PoisonError};

use axi4mlir_accelerators::Device;
use axi4mlir_config::{AcceleratorConfig, CpuSpec, FlowStrategy, KernelKind};
use axi4mlir_interp::{Frame, Program, RtValue};
use axi4mlir_ir::ops::Module;
use axi4mlir_ir::pass::{IrSnapshot, PassManager, PassTiming};
use axi4mlir_runtime::kernels;
use axi4mlir_runtime::memref::MemRefDesc;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::axi::LoopbackAccelerator;
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_sim::mem::ElemType;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_workloads::batched::BatchedMatMulProblem;
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::ConvLayer;

use crate::annotate::MatchAndAnnotatePass;
use crate::codegen::GenerateAccelDriverPass;
use crate::lower::LowerAccelToRuntimePass;
use crate::options::{CacheTiling, PipelineOptions};
use crate::pipeline::{build_conv_module, build_matmul_module};

/// What one measured run produced — compiled or hand-written driver.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Accelerator (or `"cpu"`) the run used.
    pub accel_name: String,
    /// Flow name the driver implemented.
    pub flow: String,
    /// Perf counters for the whole kernel execution.
    pub counters: PerfCounters,
    /// Task clock in milliseconds.
    pub task_clock_ms: f64,
    /// Whether the numeric result matched the reference kernel.
    pub verified: bool,
    /// Cache-tiling edge the compiler chose (if any; never for a
    /// hand-written driver).
    pub cache_tile: Option<i64>,
    /// IR snapshots (when requested; empty for a hand-written driver).
    pub ir_after: Vec<IrSnapshot>,
    /// Wall-clock time each compiler pass took (empty for a hand-written
    /// driver).
    pub pass_timings: Vec<PassTiming>,
    /// The computed output buffer(s), concatenated.
    pub result: Vec<i32>,
}

/// SoC buffers bound for one run: interpreter arguments plus the output
/// descriptors to read back (in verification order).
pub struct BoundBuffers {
    /// Arguments for the entry function, in signature order.
    pub args: Vec<RtValue>,
    /// Output buffers, read back contiguously and concatenated.
    pub outputs: Vec<MemRefDesc>,
}

/// One kernel the driver layer can compile and run.
///
/// Implementations describe everything kernel-specific; [`Session`]
/// supplies everything execution-specific. The contract between the two:
/// [`Workload::inputs`] is a pure function of the seed, [`Workload::bind`]
/// is called on a freshly recycled SoC with those inputs, and after a
/// correct run the concatenated contents of [`BoundBuffers::outputs`]
/// equal [`Workload::reference`] of the same inputs.
pub trait Workload {
    /// Human-readable description for diagnostics.
    fn name(&self) -> String;

    /// Name of the entry `func.func` in the built module.
    fn entry_func(&self) -> &str;

    /// Builds the IR module containing the kernel(s).
    fn build_module(&self) -> Module;

    /// The input data a run with `seed` binds: the entry function's input
    /// operands in signature order (A, B for a MatMul; I, W for a
    /// convolution; A, B per element of a batch), each row-major.
    fn inputs(&self, seed: u64) -> Vec<Vec<i32>>;

    /// The result a correct run over `inputs` leaves in the concatenated
    /// [`BoundBuffers::outputs`].
    fn reference(&self, inputs: &[Vec<i32>]) -> Vec<i32>;

    /// Allocates the entry function's buffers on `soc` and stores `inputs`
    /// into them.
    fn bind(&self, soc: &mut Soc, inputs: &[Vec<i32>]) -> BoundBuffers;

    /// GEMM dimensions `(m, n, k)` if this workload is MatMul-shaped —
    /// consumed by the cache-tiling heuristic.
    fn matmul_dims(&self) -> Option<(i64, i64, i64)> {
        None
    }

    /// Stable identity of the module [`Workload::build_module`] would
    /// return, used by [`Session`] to reuse the compiled module across
    /// runs of the same workload and plan (see [`ProgramMemo`]). The
    /// default (`None`) opts out: every run recompiles. Implementations whose
    /// built module is a pure function of printable state should return
    /// that state here — and must include *all* of it. The session also
    /// keys its memo of [`Workload::inputs`] and [`Workload::reference`]
    /// by the fingerprint and the seed, so the fingerprint must determine
    /// those too.
    fn module_fingerprint(&self) -> Option<String> {
        None
    }
}

// ---------------------------------------------------------------------
// Workload implementations
// ---------------------------------------------------------------------

/// The single-GEMM workload of Figs. 10-14.
#[derive(Clone, Copy, Debug)]
pub struct MatMulWorkload {
    problem: MatMulProblem,
}

impl MatMulWorkload {
    /// A workload for one GEMM.
    pub fn new(problem: MatMulProblem) -> Self {
        Self { problem }
    }
}

impl Workload for MatMulWorkload {
    fn name(&self) -> String {
        format!("matmul {}", self.problem)
    }

    fn entry_func(&self) -> &str {
        "matmul_call"
    }

    fn build_module(&self) -> Module {
        build_matmul_module(self.problem)
    }

    fn inputs(&self, seed: u64) -> Vec<Vec<i32>> {
        let (a, b) = self.problem.generate_inputs(seed);
        vec![a, b]
    }

    fn reference(&self, inputs: &[Vec<i32>]) -> Vec<i32> {
        let [a, b] = inputs else { panic!("a MatMul has two inputs") };
        let p = self.problem;
        kernels::ref_matmul_i32(a, b, p.m as usize, p.n as usize, p.k as usize)
    }

    fn bind(&self, soc: &mut Soc, inputs: &[Vec<i32>]) -> BoundBuffers {
        let [a_data, b_data] = inputs else { panic!("a MatMul has two inputs") };
        let a = MemRefDesc::alloc(&mut soc.mem, &[self.problem.m, self.problem.k], ElemType::I32);
        let b = MemRefDesc::alloc(&mut soc.mem, &[self.problem.k, self.problem.n], ElemType::I32);
        let c = MemRefDesc::alloc(&mut soc.mem, &[self.problem.m, self.problem.n], ElemType::I32);
        soc.mem.store_i32_slice(a.base, a_data);
        soc.mem.store_i32_slice(b.base, b_data);
        BoundBuffers {
            args: vec![RtValue::MemRef(a), RtValue::MemRef(b), RtValue::MemRef(c.clone())],
            outputs: vec![c],
        }
    }

    fn matmul_dims(&self) -> Option<(i64, i64, i64)> {
        Some((self.problem.m, self.problem.n, self.problem.k))
    }

    fn module_fingerprint(&self) -> Option<String> {
        Some(self.name())
    }
}

/// One ResNet-style convolution layer on the §IV-D accelerator.
#[derive(Clone, Copy, Debug)]
pub struct ConvWorkload {
    layer: ConvLayer,
}

impl ConvWorkload {
    /// A workload for one layer.
    pub fn new(layer: ConvLayer) -> Self {
        Self { layer }
    }

    fn shape(&self) -> kernels::ConvShape {
        kernels::ConvShape {
            batch: 1,
            in_channels: self.layer.in_channels,
            in_hw: self.layer.in_hw,
            out_channels: self.layer.out_channels,
            filter_hw: self.layer.filter_hw,
            stride: self.layer.stride,
        }
    }
}

impl Workload for ConvWorkload {
    fn name(&self) -> String {
        format!("conv2d {}", self.layer)
    }

    fn entry_func(&self) -> &str {
        "conv_call"
    }

    fn build_module(&self) -> Module {
        build_conv_module(self.layer)
    }

    fn inputs(&self, seed: u64) -> Vec<Vec<i32>> {
        let (input, filter) = self.layer.generate_inputs(seed);
        vec![input, filter]
    }

    fn reference(&self, inputs: &[Vec<i32>]) -> Vec<i32> {
        let [input, filter] = inputs else { panic!("a convolution has two inputs") };
        kernels::ref_conv2d_i32(input, filter, self.shape())
    }

    fn bind(&self, soc: &mut Soc, inputs: &[Vec<i32>]) -> BoundBuffers {
        let [i_data, w_data] = inputs else { panic!("a convolution has two inputs") };
        let shape = self.shape();
        let i = MemRefDesc::alloc(
            &mut soc.mem,
            &[1, shape.in_channels as i64, shape.in_hw as i64, shape.in_hw as i64],
            ElemType::I32,
        );
        let w = MemRefDesc::alloc(
            &mut soc.mem,
            &[
                shape.out_channels as i64,
                shape.in_channels as i64,
                shape.filter_hw as i64,
                shape.filter_hw as i64,
            ],
            ElemType::I32,
        );
        let o = MemRefDesc::alloc(
            &mut soc.mem,
            &[1, shape.out_channels as i64, shape.out_hw() as i64, shape.out_hw() as i64],
            ElemType::I32,
        );
        soc.mem.store_i32_slice(i.base, i_data);
        soc.mem.store_i32_slice(w.base, w_data);
        BoundBuffers {
            args: vec![RtValue::MemRef(i), RtValue::MemRef(w), RtValue::MemRef(o.clone())],
            outputs: vec![o],
        }
    }

    fn module_fingerprint(&self) -> Option<String> {
        Some(self.name())
    }
}

/// A batch of independent same-shape GEMMs in one module/run — the
/// driver layer's extensibility proof, and the shape of per-head attention
/// GEMMs. The module carries one `linalg.generic` per element; annotate /
/// codegen / lower handle all of them, and the batch shares one SoC (and
/// one set of staging allocations) end to end.
#[derive(Clone, Copy, Debug)]
pub struct BatchedMatMulWorkload {
    batch: BatchedMatMulProblem,
}

impl BatchedMatMulWorkload {
    /// A workload for the given batch.
    pub fn new(batch: BatchedMatMulProblem) -> Self {
        Self { batch }
    }
}

impl Workload for BatchedMatMulWorkload {
    fn name(&self) -> String {
        format!("batched matmul {}", self.batch)
    }

    fn entry_func(&self) -> &str {
        "batched_matmul_call"
    }

    fn build_module(&self) -> Module {
        crate::pipeline::build_batched_matmul_module(self.batch)
    }

    fn inputs(&self, seed: u64) -> Vec<Vec<i32>> {
        let mut inputs = Vec::with_capacity(2 * self.batch.batch);
        for index in 0..self.batch.batch {
            let (a, b) = self.batch.generate_inputs(seed, index);
            inputs.extend([a, b]);
        }
        inputs
    }

    fn reference(&self, inputs: &[Vec<i32>]) -> Vec<i32> {
        let p = self.batch.problem;
        let mut expected = Vec::with_capacity(self.batch.batch * self.batch.output_elems());
        for pair in inputs.chunks_exact(2) {
            let (m, n, k) = (p.m as usize, p.n as usize, p.k as usize);
            expected.extend(kernels::ref_matmul_i32(&pair[0], &pair[1], m, n, k));
        }
        expected
    }

    fn bind(&self, soc: &mut Soc, inputs: &[Vec<i32>]) -> BoundBuffers {
        let p = self.batch.problem;
        let mut args = Vec::new();
        let mut outputs = Vec::new();
        for pair in inputs.chunks_exact(2) {
            let a = MemRefDesc::alloc(&mut soc.mem, &[p.m, p.k], ElemType::I32);
            let b = MemRefDesc::alloc(&mut soc.mem, &[p.k, p.n], ElemType::I32);
            let c = MemRefDesc::alloc(&mut soc.mem, &[p.m, p.n], ElemType::I32);
            soc.mem.store_i32_slice(a.base, &pair[0]);
            soc.mem.store_i32_slice(b.base, &pair[1]);
            args.push(RtValue::MemRef(a));
            args.push(RtValue::MemRef(b));
            args.push(RtValue::MemRef(c.clone()));
            outputs.push(c);
        }
        BoundBuffers { args, outputs }
    }

    fn matmul_dims(&self) -> Option<(i64, i64, i64)> {
        let p = self.batch.problem;
        Some((p.m, p.n, p.k))
    }

    fn module_fingerprint(&self) -> Option<String> {
        Some(self.name())
    }
}

// ---------------------------------------------------------------------
// Pipeline construction
// ---------------------------------------------------------------------

/// What the pipeline starts from.
#[derive(Clone, Debug, Default)]
enum PipelineInput {
    /// Plain `linalg` on the CPU: no passes at all.
    #[default]
    CpuOnly,
    /// IR that already carries the Fig. 6a trait attributes: codegen,
    /// optional lowering, and dialect verification only.
    PreAnnotated,
    /// Plain `linalg` plus a configuration: the full pipeline.
    Accelerator(Box<AcceleratorConfig>),
}

/// Builds the standard AXI4MLIR pass pipeline. This is the one place the
/// pass list is wired; `Session` and `axi4mlir-opt` both use it.
#[derive(Clone, Debug)]
pub struct PipelineBuilder {
    input: PipelineInput,
    cache_tile: Option<i64>,
    coalesce: bool,
    lower: bool,
    capture_ir: bool,
}

impl PipelineBuilder {
    /// An empty (CPU-only) pipeline with lowering enabled once a target is
    /// selected.
    pub fn new() -> Self {
        Self {
            input: PipelineInput::CpuOnly,
            cache_tile: None,
            coalesce: false,
            lower: true,
            capture_ir: false,
        }
    }

    /// Targets an accelerator: enables the annotate pass, given the MatMul
    /// loop permutation the selected flow's *structure* asks for
    /// ([`AcceleratorConfig::loop_order`]; its key is a free name).
    #[must_use]
    pub fn accelerator(mut self, config: AcceleratorConfig) -> Self {
        self.input = PipelineInput::Accelerator(Box::new(config));
        self
    }

    /// Declares the input IR already annotated (the `axi4mlir-opt`
    /// no-config mode): skip matching, run codegen and lowering only.
    #[must_use]
    pub fn pre_annotated(mut self) -> Self {
        self.input = PipelineInput::PreAnnotated;
        self
    }

    /// Records the cache-tiling edge on annotated ops.
    #[must_use]
    pub fn cache_tile(mut self, cache_tile: Option<i64>) -> Self {
        self.cache_tile = cache_tile;
        self
    }

    /// Batches same-site transfers into one DMA transaction (§V).
    #[must_use]
    pub fn coalesce(mut self, coalesce: bool) -> Self {
        self.coalesce = coalesce;
        self
    }

    /// Lowers `accel` ops to the DMA runtime calls of Fig. 9, the only
    /// form the interpreter runs; `false` compiles for printing only.
    #[must_use]
    pub fn lower(mut self, lower: bool) -> Self {
        self.lower = lower;
        self
    }

    /// Captures IR snapshots after each pass.
    #[must_use]
    pub fn capture_ir(mut self, capture_ir: bool) -> Self {
        self.capture_ir = capture_ir;
        self
    }

    /// Assembles the pass manager, consuming the builder (the accelerator
    /// configuration moves into the annotate pass without another clone).
    pub fn build(self) -> PassManager {
        let mut pm = PassManager::new();
        pm.capture_ir(self.capture_ir);
        match self.input {
            PipelineInput::CpuOnly => return pm,
            PipelineInput::PreAnnotated => {}
            PipelineInput::Accelerator(config) => {
                let permutation = match (config.kernel(), config.flow(&config.selected_flow)) {
                    (KernelKind::MatMul, Some(flow)) => config.loop_order(flow),
                    // Conv's nest is fixed; a missing flow is `validate`'s to report.
                    _ => Vec::new(),
                };
                pm.add(Box::new(MatchAndAnnotatePass::new(*config, permutation, self.cache_tile)));
            }
        }
        pm.add(Box::new(GenerateAccelDriverPass::new(self.coalesce)));
        if self.lower {
            pm.add(Box::new(LowerAccelToRuntimePass));
        }
        pm.add(Box::new(axi4mlir_dialects::verify::DialectVerifierPass));
        pm
    }
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------
// Compile plans
// ---------------------------------------------------------------------

/// Everything one run needs besides the workload: the target (an
/// accelerator configuration, or CPU-only execution), pipeline options,
/// host description, and data seed.
#[derive(Clone, Debug)]
pub struct CompilePlan {
    /// The accelerator to compile for; `None` executes the unannotated
    /// kernel on the host CPU.
    pub config: Option<AcceleratorConfig>,
    /// Pipeline options.
    pub options: PipelineOptions,
    /// Host CPU description (cache sizes for the tiling heuristic).
    pub cpu: CpuSpec,
    /// Data seed.
    pub seed: u64,
}

impl CompilePlan {
    /// A plan compiling for `config` with default options.
    pub fn for_accelerator(config: AcceleratorConfig) -> Self {
        Self { config: Some(config), ..Self::cpu() }
    }

    /// A plan for the §IV-D Conv2D accelerator matched to one layer, with
    /// the conventional conv data seed (shared by the bench harness and
    /// the examples).
    pub fn for_conv_layer(layer: ConvLayer) -> Self {
        let config = AcceleratorConfig::conv2d(layer.in_channels as i64, layer.filter_hw as i64);
        Self::for_accelerator(config).seed(0xC02)
    }

    /// A CPU-only plan: no passes run, and the interpreter executes the
    /// `linalg` op directly (the `mlir CPU` baseline of the figures) — no
    /// `accel` op exists, so no staging copy is ever reached.
    pub fn cpu() -> Self {
        Self {
            config: None,
            options: PipelineOptions::default(),
            cpu: CpuSpec::pynq_z2(),
            seed: 0xA41,
        }
    }

    /// Selects one of the paper's Ns/As/Bs/Cs flows. On a CPU-only plan
    /// (no accelerator configuration) this is a no-op: nothing is
    /// offloaded, so there is no flow to select.
    ///
    /// # Panics
    ///
    /// Panics if the plan's accelerator does not offer the flow.
    #[must_use]
    pub fn flow(mut self, flow: FlowStrategy) -> Self {
        self.config = self.config.map(|c| c.with_selected_flow(flow.short_name()));
        self
    }

    /// Overrides pipeline options.
    #[must_use]
    pub fn options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the host CPU description.
    #[must_use]
    pub(crate) fn cpu_spec(mut self, cpu: CpuSpec) -> Self {
        self.cpu = cpu;
        self
    }

    /// Overrides the data seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The name reported as `accel_name`.
    fn target_name(&self) -> String {
        self.config.as_ref().map_or_else(|| "cpu".to_owned(), |c| c.device.to_string())
    }

    /// The flow label reported in the run report.
    fn flow_name(&self) -> &str {
        self.config.as_ref().map_or("cpu", |c| c.selected_flow.as_str())
    }

    /// The accelerator tile sizes `(tm, tn, tk)`.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when a MatMul configuration lists fewer
    /// than three `accel_size` dimensions (previously a panic site).
    fn accel_tiles(config: &AcceleratorConfig) -> Result<(i64, i64, i64), Diagnostic> {
        match config.accel_dims[..] {
            [tm, tn, tk, ..] => Ok((tm, tn, tk)),
            _ => Err(Diagnostic::error(format!(
                "accelerator {}: accel_size must list at least three dimensions (m, n, k), got {:?}",
                config.device, config.accel_dims
            ))),
        }
    }

    /// Resolves the cache-tiling edge for a workload.
    fn resolve_cache_tile(&self, workload: &dyn Workload) -> Result<Option<i64>, Diagnostic> {
        let Some(config) = &self.config else { return Ok(None) };
        if config.kernel() != KernelKind::MatMul {
            return Ok(None);
        }
        let tiles = Self::accel_tiles(config)?;
        Ok(match self.options.cache_tiling {
            CacheTiling::Off => None,
            CacheTiling::Fixed(t) => Some(t),
            CacheTiling::Auto => workload
                .matmul_dims()
                .and_then(|dims| axi4mlir_heuristics::select_cache_tile(&self.cpu, dims, tiles)),
        })
    }
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// Everything that determines the compiled module a `(workload, plan)`
/// pair produces, and nothing else. Two runs whose keys compare equal
/// would compile the exact same module, so a [`ProgramMemo`] hands the
/// second the first one's program. The run-only options
/// (`specialized_copies` picks the interpreter's copy strategy,
/// `verify_result` the check after it), `cache_tiling` (resolved into
/// `cache_tile`) and the data seed never reach the pipeline. A run's key
/// borrows the plan's configuration; the memo owns a copy of it only for
/// a module it keeps.
#[derive(PartialEq, Eq, Hash)]
struct CompileKey<'a> {
    workload: String,
    config: Option<Cow<'a, AcceleratorConfig>>,
    cache_tile: Option<i64>,
    coalesce_transfers: bool,
    lower_to_runtime_calls: bool,
    capture_ir: bool,
}

impl CompileKey<'_> {
    fn into_owned(self) -> CompileKey<'static> {
        CompileKey {
            workload: self.workload,
            config: self.config.map(|config| Cow::Owned(config.into_owned())),
            cache_tile: self.cache_tile,
            coalesce_transfers: self.coalesce_transfers,
            lower_to_runtime_calls: self.lower_to_runtime_calls,
            capture_ir: self.capture_ir,
        }
    }
}

/// One compiled module: the program of its entry function, which is all
/// a run needs of it, and the pipeline's output that every report of it
/// carries. It never changes once compiled.
struct CompiledModule {
    program: Program,
    ir_after: Vec<IrSnapshot>,
    pass_timings: Vec<PassTiming>,
}

/// Modules a worker keeps compiled ([`ProgramMemo::new`]'s capacity for
/// the memo its slots share). A sweep measures a few dozen modules (32
/// for a 16³ MatMul on one v4, 24 for a 128³ one pruned to 24), so a
/// worker that serves the same space again compiles nothing. A kept
/// MatMul module holds about 15 KB (its program, key and pass timings), so
/// a full memo holds about 1 MB.
pub const KEPT_PROGRAMS: usize = 64;

/// Compiled modules by what determines them (the workload fingerprint,
/// the configuration, the resolved cache tile and the coalesce, lower and
/// capture options; never the seed), the least recently used leaving past
/// the memo's capacity. Sessions share one through an `Arc`
/// ([`Session::with_programs`]); each session keeps its own value frame.
///
/// A lookup hashes the key once and compares hashes; only an entry whose
/// hash matches is compared in full, and a hit clones no part of the key.
/// The compile itself runs outside the lock, so two sessions that miss the
/// same key at once both compile it, and the first to insert it is kept:
/// the output is the same module either way, and no session waits on
/// another's compile. The lock's invariant, true at every unlock, is that
/// each entry is a complete compile of its key; a session that panicked
/// while holding it left nothing half-written, so the next lock recovers
/// the state.
pub struct ProgramMemo {
    capacity: usize,
    /// Fixed per memo, so a key hashes the same for every lookup.
    hasher: RandomState,
    state: Mutex<MemoState>,
}

#[derive(Default)]
struct MemoState {
    /// Kept modules, in no order.
    kept: Vec<KeptModule>,
    /// Stamps each lookup, so the smallest `used` is the least recent.
    clock: u64,
    /// Modules compiled through the memo over its lifetime.
    compiled: usize,
}

impl MemoState {
    /// The kept module of `key` (whose hash is `hash`), stamped as the
    /// most recently used.
    fn hit(&mut self, hash: u64, key: &CompileKey<'_>) -> Option<Arc<CompiledModule>> {
        self.clock += 1;
        let used = self.clock;
        let kept = self.kept.iter_mut().find(|kept| kept.hash == hash && kept.key == *key)?;
        kept.used = used;
        Some(Arc::clone(&kept.module))
    }
}

struct KeptModule {
    hash: u64,
    key: CompileKey<'static>,
    module: Arc<CompiledModule>,
    used: u64,
}

impl ProgramMemo {
    /// An empty memo keeping at most `capacity` (at least one) modules.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            hasher: RandomState::new(),
            state: Mutex::new(MemoState::default()),
        }
    }

    /// Modules compiled through this memo so far: each miss that
    /// compiled, hits excluded.
    pub fn compiled(&self) -> usize {
        self.state().compiled
    }

    fn state(&self) -> std::sync::MutexGuard<'_, MemoState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The module `key` names: the kept one, or `compile`'s, which is
    /// kept in place of the least recently used past the capacity.
    fn module(
        &self,
        key: CompileKey<'_>,
        compile: impl FnOnce() -> Result<CompiledModule, Diagnostic>,
    ) -> Result<Arc<CompiledModule>, Diagnostic> {
        let hash = self.hasher.hash_one(&key);
        if let Some(module) = self.state().hit(hash, &key) {
            return Ok(module);
        }
        let module = Arc::new(compile()?);
        let mut state = self.state();
        state.compiled += 1;
        // Another session may have kept the same module meanwhile.
        if let Some(kept) = state.hit(hash, &key) {
            return Ok(kept);
        }
        let kept = KeptModule {
            hash,
            key: key.into_owned(),
            module: Arc::clone(&module),
            used: state.clock,
        };
        if state.kept.len() < self.capacity {
            state.kept.push(kept);
        } else if let Some(oldest) = state.kept.iter_mut().min_by_key(|kept| kept.used) {
            *oldest = kept;
        }
        Ok(module)
    }
}

/// Runs `plan`'s pipeline over a fresh build of `workload`'s module;
/// returns the module with the pipeline's IR snapshots and pass timings.
fn lowered_module(
    workload: &dyn Workload,
    plan: &CompilePlan,
    cache_tile: Option<i64>,
) -> Result<(Module, Vec<IrSnapshot>, Vec<PassTiming>), Diagnostic> {
    let mut builder = PipelineBuilder::new()
        .cache_tile(cache_tile)
        .coalesce(plan.options.coalesce_transfers)
        .lower(plan.options.lower_to_runtime_calls)
        .capture_ir(plan.options.capture_ir);
    if let Some(config) = &plan.config {
        builder = builder.accelerator(config.clone());
    }
    let mut module = workload.build_module();
    let mut pm = builder.build();
    let ir_after = pm.run(&mut module)?;
    Ok((module, ir_after, pm.timings().to_vec()))
}

/// Problems whose data a [`Session`] keeps: proxy rungs alternate problem
/// sizes, so one entry would be recomputed on every other run.
const KEPT_PROBLEMS: usize = 4;

/// One problem's data kept inside a [`Session`], keyed by
/// `(module fingerprint, seed)`.
struct ProblemData {
    inputs: Vec<Vec<i32>>,
    /// [`Workload::reference`] of `inputs`, from the first verifying run.
    expected: Option<Vec<i32>>,
}

impl ProblemData {
    /// The data of `workload`'s problem under `seed`: kept in `kept` when
    /// the workload has a fingerprint (the oldest entry leaves past
    /// [`KEPT_PROBLEMS`]), generated into `unkept` for this run otherwise.
    fn of<'a>(
        kept: &'a mut VecDeque<((String, u64), ProblemData)>,
        unkept: &'a mut Option<ProblemData>,
        workload: &dyn Workload,
        seed: u64,
    ) -> &'a mut ProblemData {
        let generate = || ProblemData { inputs: workload.inputs(seed), expected: None };
        let Some(fingerprint) = workload.module_fingerprint() else {
            return unkept.insert(generate());
        };
        let key = (fingerprint, seed);
        let at = match kept.iter().position(|(kept_key, _)| *kept_key == key) {
            Some(at) => at,
            None => {
                if kept.len() == KEPT_PROBLEMS {
                    kept.pop_front();
                }
                kept.push_back((key, generate()));
                kept.len() - 1
            }
        };
        &mut kept[at].1
    }
}

/// A reusable executor: one simulated SoC that compiles and runs
/// workloads. Successive [`Session::run`] calls recycle the SoC (memory
/// capacity and device instance are kept) instead of rebuilding it, so
/// sweeps pay allocation once; results and counters are bit-identical to
/// using a fresh `Session` per run. A run whose module was compiled
/// before skips recompilation entirely: the session compiles through a
/// [`ProgramMemo`] keyed by [`Workload::module_fingerprint`] and the
/// plan's compile-relevant fields, and keeps the inputs and reference of
/// the last few problems keyed by the fingerprint and the seed.
pub struct Session {
    soc: Soc,
    /// The model the SoC holds; `None` is the loopback device of a
    /// CPU-only session.
    device: Option<Device>,
    /// Where compiled modules come from, and stay.
    programs: Arc<ProgramMemo>,
    /// The value frame every run of this session's programs uses.
    frame: Frame,
    /// Inputs and references of the last [`KEPT_PROBLEMS`] problems, by
    /// `(module fingerprint, seed)`, oldest first.
    problems: VecDeque<((String, u64), ProblemData)>,
}

impl Session {
    /// A session of its own, one-off runs included: its memo keeps the
    /// last compiled module. The session starts on the loopback device (a
    /// CPU-only plan offloads nothing) and instantiates, and later swaps,
    /// the device each plan's configuration carries on [`run`](Self::run),
    /// while memory and cache structures persist across runs.
    pub fn for_sweep() -> Self {
        Self::with_programs(Arc::new(ProgramMemo::new(1)))
    }

    /// A session that compiles through `programs`, which other sessions
    /// may share (on other threads too): a module any of them compiled is
    /// not compiled again while the memo keeps it.
    pub fn with_programs(programs: Arc<ProgramMemo>) -> Self {
        Self {
            soc: Soc::new(Box::new(LoopbackAccelerator::new())),
            device: None,
            programs,
            frame: Frame::default(),
            problems: VecDeque::new(),
        }
    }

    /// The simulated system (for inspecting counters or cost model).
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Swaps the device when the plan targets a different accelerator
    /// than the current one; keeps it (and its warm allocations) otherwise.
    fn retarget(&mut self, plan: &CompilePlan) {
        let wanted = plan.config.as_ref().map(|config| config.device);
        if self.device != wanted {
            self.soc.replace_accelerator(match wanted {
                Some(device) => device.instantiate(),
                None => Box::new(LoopbackAccelerator::new()),
            });
            self.device = wanted;
        }
    }

    /// Compiles `workload` according to `plan`, executes it on this
    /// session's SoC, and verifies the result.
    ///
    /// # Errors
    ///
    /// Propagates compilation diagnostics, interpreter errors, DMA
    /// protocol violations, and accelerator protocol errors.
    pub fn run(
        &mut self,
        workload: &dyn Workload,
        plan: &CompilePlan,
    ) -> Result<RunReport, Diagnostic> {
        // Compile — unless the memo holds the identical module (same
        // workload fingerprint, accelerator configuration, resolved cache
        // tile, and pipeline options), in which case its program is run as
        // it is. A run changes nothing of a program, and the frame it uses
        // is cleared first, so a hit is bit-identical to recompiling.
        let cache_tile = plan.resolve_cache_tile(workload)?;
        let compile = || {
            let (module, ir_after, pass_timings) = lowered_module(workload, plan, cache_tile)?;
            let program = Program::compile(&module, workload.entry_func())?;
            Ok(CompiledModule { program, ir_after, pass_timings })
        };
        let compiled = match workload.module_fingerprint() {
            Some(fingerprint) => {
                let key = CompileKey {
                    workload: fingerprint,
                    config: plan.config.as_ref().map(Cow::Borrowed),
                    cache_tile,
                    coalesce_transfers: plan.options.coalesce_transfers,
                    lower_to_runtime_calls: plan.options.lower_to_runtime_calls,
                    capture_ir: plan.options.capture_ir,
                };
                self.programs.module(key, compile)?
            }
            None => Arc::new(compile()?),
        };

        // The frame leaves the session for the duration of the run.
        let mut frame = std::mem::take(&mut self.frame);
        let report = self
            .execute(workload, plan, |soc, args| {
                let copy_strategy = plan.options.copy_strategy(&soc.cost);
                compiled.program.run(soc, &mut frame, args, copy_strategy).map_err(Diagnostic::from)
            })
            .map(|report| RunReport {
                cache_tile,
                ir_after: compiled.ir_after.clone(),
                pass_timings: compiled.pass_timings.clone(),
                ..report
            });
        self.frame = frame;
        report
    }

    /// Runs a hand-written driver in place of compiled code: the same
    /// measured run as [`run`](Self::run) — the device `plan` describes,
    /// the buffers `workload` binds from `plan.seed`, counters reset after
    /// binding, the same checks afterwards — with `drive` as the code
    /// under measurement. `drive` receives the SoC and the bound memref
    /// arguments in entry-signature order (A, B, C for a MatMul; I, W, O
    /// for a convolution); nothing of `plan.options` but `verify_result`
    /// applies to it, and the report carries no compiler output
    /// (`cache_tile`, `ir_after`, `pass_timings` stay empty).
    ///
    /// # Errors
    ///
    /// Propagates whatever `drive` returns, and accelerator protocol errors.
    pub fn run_manual(
        &mut self,
        workload: &dyn Workload,
        plan: &CompilePlan,
        drive: impl FnOnce(&mut Soc, &[MemRefDesc]) -> Result<(), Diagnostic>,
    ) -> Result<RunReport, Diagnostic> {
        self.execute(workload, plan, |soc, args| {
            let buffers: Vec<MemRefDesc> =
                args.iter().filter_map(RtValue::as_memref).cloned().collect();
            drive(soc, &buffers)
        })
    }

    /// The one measured run: retarget, recycle, bind, reset the run state,
    /// drive, then check the device's protocol-error count, read the
    /// outputs back and compare them with the workload's reference. Inputs
    /// and reference come from the session's memo when the problem is in
    /// it; the run's buffers are copies, so no driver can change either.
    fn execute(
        &mut self,
        workload: &dyn Workload,
        plan: &CompilePlan,
        drive: impl FnOnce(&mut Soc, Vec<RtValue>) -> Result<(), Diagnostic>,
    ) -> Result<RunReport, Diagnostic> {
        self.retarget(plan);
        self.soc.recycle();
        let mut unkept = None;
        let problem = ProblemData::of(&mut self.problems, &mut unkept, workload, plan.seed);
        let buffers = workload.bind(&mut self.soc, &problem.inputs);
        self.soc.reset_run_state();
        drive(&mut self.soc, buffers.args)?;
        if self.soc.accel.protocol_errors() > 0 {
            return Err(Diagnostic::error(format!(
                "accelerator {} observed {} protocol errors running {}",
                self.soc.accel.name(),
                self.soc.accel.protocol_errors(),
                workload.name()
            )));
        }

        let elements = |output: &MemRefDesc| output.num_elements() as usize;
        let mut result = Vec::with_capacity(buffers.outputs.iter().map(elements).sum());
        for output in &buffers.outputs {
            let bytes = self.soc.mem.read_bytes(output.base, 4 * elements(output) as u64);
            result.extend(bytes.chunks_exact(4).map(|word| {
                i32::from_le_bytes(word.try_into().expect("chunks_exact(4) yields 4 bytes"))
            }));
        }
        let verified = !plan.options.verify_result || {
            let ProblemData { inputs, expected } = problem;
            result == *expected.get_or_insert_with(|| workload.reference(inputs))
        };
        Ok(RunReport {
            accel_name: plan.target_name(),
            flow: plan.flow_name().to_owned(),
            counters: self.soc.counters,
            task_clock_ms: self.soc.task_clock_ms(),
            verified,
            cache_tile: None,
            ir_after: Vec::new(),
            pass_timings: Vec::new(),
            result,
        })
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("device", &self.soc.accel.name()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_accelerators::matmul::MatMulVersion;

    fn v3(size: i64) -> AcceleratorConfig {
        AcceleratorConfig::matmul(MatMulVersion::V3, size)
    }

    #[test]
    fn session_runs_matmul_end_to_end() {
        let plan = CompilePlan::for_accelerator(v3(4)).flow(FlowStrategy::OutputStationary);
        let report = Session::for_sweep()
            .run(&MatMulWorkload::new(MatMulProblem::square(8)), &plan)
            .unwrap();
        assert!(report.verified);
        assert!(report.counters.dma_transactions > 0);
        assert!(!report.pass_timings.is_empty(), "pass timings are captured");
    }

    /// A hand-written v3 `Ns` driver for a problem of exactly one
    /// accelerator tile; `compute` is the word it sends where the compute
    /// opcode goes.
    fn one_tile_drive(
        soc: &mut Soc,
        buffers: &[MemRefDesc],
        compute: u32,
    ) -> Result<(), Diagnostic> {
        use axi4mlir_accelerators::isa;
        use axi4mlir_runtime::dma_lib::{
            copy_from_dma_region, copy_to_dma_region, dma_init, dma_start_recv, dma_start_send,
            dma_wait_recv_completion, dma_wait_send_completion, write_literal_to_dma_region,
        };
        let strategy = axi4mlir_runtime::copy::CopyStrategy::manual(&soc.cost);
        let dma_err = |e: axi4mlir_sim::dma::DmaError| Diagnostic::error(e.to_string());
        let [a, b, c] = buffers else { panic!("a MatMul workload binds A, B, C") };
        dma_init(soc, 0, 0xFF00, 0xFF00);
        let steps = [
            (isa::OP_RESET, None),
            (isa::OP_SEND_A, Some(a)),
            (isa::OP_SEND_B, Some(b)),
            (compute, None),
            (isa::OP_READ_C, None),
        ];
        for (literal, tile) in steps {
            let mut off = write_literal_to_dma_region(soc, literal, 0);
            if let Some(tile) = tile {
                off = copy_to_dma_region(soc, tile, off, strategy);
            }
            dma_start_send(soc, off, 0).map_err(dma_err)?;
            dma_wait_send_completion(soc);
        }
        dma_start_recv(soc, c.num_bytes(), 0).map_err(dma_err)?;
        dma_wait_recv_completion(soc);
        copy_from_dma_region(soc, c, 0, true, strategy);
        Ok(())
    }

    fn v3_drive(soc: &mut Soc, buffers: &[MemRefDesc]) -> Result<(), Diagnostic> {
        one_tile_drive(soc, buffers, axi4mlir_accelerators::isa::OP_COMPUTE)
    }

    #[test]
    fn session_reuse_is_bit_identical_to_fresh_sessions() {
        // One session alternating manual, generated and CPU runs across
        // two devices; every run must match a fresh session's.
        #[derive(Clone, Copy)]
        enum Kind {
            Manual,
            Generated,
            Cpu,
        }
        let run = |session: &mut Session, kind: Kind, size: i64| {
            let workload = MatMulWorkload::new(MatMulProblem::square(size));
            let plan = CompilePlan::for_accelerator(v3(size)).flow(FlowStrategy::InputAStationary);
            match kind {
                Kind::Manual => session.run_manual(&workload, &plan, v3_drive),
                Kind::Generated => session.run(&workload, &plan),
                Kind::Cpu => session.run(&workload, &CompilePlan::cpu()),
            }
            .unwrap()
        };
        let mut shared = Session::for_sweep();
        for (kind, size) in [
            (Kind::Manual, 4),
            (Kind::Generated, 8),
            (Kind::Generated, 8),
            (Kind::Cpu, 8),
            (Kind::Manual, 8),
            (Kind::Generated, 4),
            (Kind::Cpu, 4),
            (Kind::Manual, 4),
        ] {
            let reused = run(&mut shared, kind, size);
            let fresh = run(&mut Session::for_sweep(), kind, size);
            assert!(reused.verified && fresh.verified);
            assert_eq!(reused.counters, fresh.counters, "reuse matches a fresh session");
            assert_eq!(reused.task_clock_ms, fresh.task_clock_ms);
            assert_eq!(reused.result, fresh.result);
        }
    }

    /// `plan` with a run-only option flipped: the copy strategy, the
    /// result check, and both.
    fn run_only_flips(plan: &CompilePlan) -> Vec<CompilePlan> {
        let options = plan.options;
        [(true, false), (false, true), (true, true)]
            .into_iter()
            .map(|(copies, verify)| {
                plan.clone().options(PipelineOptions {
                    specialized_copies: options.specialized_copies != copies,
                    verify_result: options.verify_result != verify,
                    ..options
                })
            })
            .collect()
    }

    #[test]
    fn run_only_options_leave_the_compiled_module_byte_identical() {
        // The compile key's premise, over every candidate of a small mixed
        // sweep: a 16^3 matmul on v1-v4 across the options axis, a batched
        // space, and a conv layer across the options axis.
        use crate::explore::{realize, Fidelity, JobSpec};
        use axi4mlir_ir::printer::print_op;
        let labels = |accels: &[&str]| accels.iter().map(|a| (*a).to_owned()).collect();
        let specs = [
            JobSpec {
                dims: Some((16, 16, 16)),
                accels: labels(&["v1_8", "v2_8", "v3_8", "v4_8"]),
                sweep_options: true,
                ..JobSpec::default()
            },
            JobSpec {
                workload: "batched".to_owned(),
                dims: Some((16, 16, 16)),
                batch: Some(4),
                accels: labels(&["v3_8", "v4_8"]),
                ..JobSpec::default()
            },
            JobSpec {
                workload: "conv".to_owned(),
                layer: Some("8_64_3_8_1".to_owned()),
                sweep_options: true,
                ..JobSpec::default()
            },
        ];
        let mut candidates = 0;
        for spec in specs {
            for candidate in spec.build().unwrap().space.as_dyn().enumerate().unwrap() {
                let realized = realize(&candidate.key, Fidelity::Full).unwrap();
                let workload = &*realized.workload;
                let printed = |plan: &CompilePlan| {
                    let cache_tile = plan.resolve_cache_tile(workload).unwrap();
                    let (module, ..) = lowered_module(workload, plan, cache_tile).unwrap();
                    print_op(&module.ctx, module.top())
                };
                let module = printed(&realized.plan);
                for flipped in run_only_flips(&realized.plan) {
                    assert_eq!(printed(&flipped), module, "{:?}", candidate.key);
                }
                candidates += 1;
            }
        }
        assert!(candidates > 160 + 4, "{candidates} candidates");
    }

    #[test]
    fn a_run_only_option_flip_reuses_the_compiled_module() {
        let workload = MatMulWorkload::new(MatMulProblem::square(8));
        let plan = CompilePlan::for_accelerator(v3(4)).flow(FlowStrategy::OutputStationary);
        // Wall-clock pass timings repeat bit for bit only when no pass ran.
        let timings = |report: &RunReport| -> Vec<(String, u64)> {
            report.pass_timings.iter().map(|t| (t.pass.clone(), t.millis.to_bits())).collect()
        };
        let mut session = Session::for_sweep();
        let first = session.run(&workload, &plan).unwrap();
        for flipped in run_only_flips(&plan) {
            let reused = session.run(&workload, &flipped).unwrap();
            assert_eq!(timings(&reused), timings(&first), "the module was reused");
            let fresh = Session::for_sweep().run(&workload, &flipped).unwrap();
            assert!(reused.verified && fresh.verified);
            assert_eq!(reused.counters, fresh.counters, "reuse matches a fresh session");
            assert_eq!(reused.task_clock_ms, fresh.task_clock_ms);
            assert_eq!(reused.result, fresh.result);
        }
    }

    #[test]
    fn a_manual_run_reports_through_the_same_checks() {
        let workload = MatMulWorkload::new(MatMulProblem::square(4));
        let plan = CompilePlan::for_accelerator(v3(4)).flow(FlowStrategy::NothingStationary);
        let mut session = Session::for_sweep();

        let driven = session.run_manual(&workload, &plan, v3_drive).unwrap();
        assert!(driven.verified);
        assert_eq!((driven.accel_name.as_str(), driven.flow.as_str()), ("v3_4", "Ns"));
        assert_eq!(driven.result, session.run(&workload, &plan).unwrap().result);
        assert!(driven.pass_timings.is_empty() && driven.ir_after.is_empty());
        assert_eq!(driven.cache_tile, None);

        // A driver that does nothing leaves C unwritten: reported, not hidden.
        let idle = session.run_manual(&workload, &plan, |_, _| Ok(())).unwrap();
        assert!(!idle.verified);
        assert_eq!(idle.counters.dma_transactions, 0);

        // An opcode the device does not decode is the run's error.
        let err = session
            .run_manual(&workload, &plan, |soc, buffers| one_tile_drive(soc, buffers, 0x7B))
            .unwrap_err();
        assert!(err.message.contains("v3_4 observed"), "{}", err.message);
        assert!(err.message.contains("protocol errors"), "{}", err.message);

        // The driver's own diagnostic passes through.
        let err = session
            .run_manual(&workload, &plan, |_, _| Err(Diagnostic::error("tile does not divide")))
            .unwrap_err();
        assert_eq!(err.message, "tile does not divide");
    }

    /// Writes A over with sevens, then drives: a wrong product, made
    /// after the session bound the run's inputs.
    fn corrupting_drive(soc: &mut Soc, buffers: &[MemRefDesc]) -> Result<(), Diagnostic> {
        soc.mem.store_i32_slice(buffers[0].base, &vec![7; buffers[0].num_elements() as usize]);
        v3_drive(soc, buffers)
    }

    #[test]
    fn the_problem_memo_cannot_mask_a_wrong_answer() {
        let workload = MatMulWorkload::new(MatMulProblem::square(4));
        let plan = CompilePlan::for_accelerator(v3(4)).flow(FlowStrategy::NothingStationary);
        let mut session = Session::for_sweep();
        for _ in 0..2 {
            let run = session.run_manual(&workload, &plan, corrupting_drive).unwrap();
            assert!(!run.verified, "a corrupted result never verifies");
        }
        assert_eq!(session.problems.len(), 1, "both runs were one problem");
        // The corruption reached the SoC's copy only.
        assert!(session.run_manual(&workload, &plan, v3_drive).unwrap().verified);
        assert!(!session.run_manual(&workload, &plan, corrupting_drive).unwrap().verified);
    }

    #[test]
    fn an_unverified_run_defers_the_reference_to_the_first_verifying_one() {
        let workload = MatMulWorkload::new(MatMulProblem::square(8));
        let plan = CompilePlan::for_accelerator(v3(4)).flow(FlowStrategy::OutputStationary);
        let unverified =
            plan.clone().options(PipelineOptions { verify_result: false, ..plan.options });
        let mut session = Session::for_sweep();
        assert!(session.run(&workload, &unverified).unwrap().verified);
        assert!(session.problems[0].1.expected.is_none(), "no reference without a check");
        assert!(session.run(&workload, &plan).unwrap().verified);
        assert!(session.problems[0].1.expected.is_some());
        assert!(!session.run_manual(&workload, &plan, |_, _| Ok(())).unwrap().verified);
    }

    #[test]
    fn the_problem_memo_keeps_the_newest_problems_of_fingerprinted_workloads() {
        /// A MatMul that opts out of fingerprinting.
        struct Unnamed(MatMulWorkload);
        impl Workload for Unnamed {
            fn name(&self) -> String {
                self.0.name()
            }
            fn entry_func(&self) -> &str {
                self.0.entry_func()
            }
            fn build_module(&self) -> Module {
                self.0.build_module()
            }
            fn inputs(&self, seed: u64) -> Vec<Vec<i32>> {
                self.0.inputs(seed)
            }
            fn reference(&self, inputs: &[Vec<i32>]) -> Vec<i32> {
                self.0.reference(inputs)
            }
            fn bind(&self, soc: &mut Soc, inputs: &[Vec<i32>]) -> BoundBuffers {
                self.0.bind(soc, inputs)
            }
        }
        let square = |size: usize| MatMulWorkload::new(MatMulProblem::square(size as i64));
        let mut session = Session::for_sweep();
        assert!(session.run(&Unnamed(square(2)), &CompilePlan::cpu()).unwrap().verified);
        assert!(session.problems.is_empty(), "an unfingerprinted workload is never kept");

        for size in 1..=KEPT_PROBLEMS + 1 {
            assert!(session.run(&square(size), &CompilePlan::cpu()).unwrap().verified);
        }
        let kept: Vec<String> =
            session.problems.iter().map(|((name, _), _)| name.clone()).collect();
        let expect: Vec<String> = (2..=KEPT_PROBLEMS + 1).map(|size| square(size).name()).collect();
        assert_eq!(kept, expect, "one problem past the bound evicts the oldest");

        // The seed is half of the key.
        let reseeded = CompilePlan::cpu().seed(7);
        assert!(session.run(&square(KEPT_PROBLEMS + 1), &reseeded).unwrap().verified);
        assert_eq!(session.problems.back().map(|(key, _)| key.1), Some(7));
        assert_eq!(session.problems.len(), KEPT_PROBLEMS);
    }

    #[test]
    fn session_retargets_between_devices() {
        let mut session = Session::for_sweep();
        let cpu_plan = CompilePlan::cpu();
        let workload = MatMulWorkload::new(MatMulProblem::square(8));
        let cpu = session.run(&workload, &cpu_plan).unwrap();
        assert!(cpu.verified);
        assert_eq!(cpu.counters.dma_transactions, 0);
        // Same session, now on a v3 accelerator.
        let accel_plan = CompilePlan::for_accelerator(v3(4)).flow(FlowStrategy::NothingStationary);
        let accel = session.run(&workload, &accel_plan).unwrap();
        assert!(accel.verified);
        assert!(accel.counters.dma_transactions > 0);
        assert_eq!(accel.accel_name, "v3_4");
    }

    #[test]
    fn batched_matmul_runs_and_verifies() {
        let batch = BatchedMatMulProblem::new(MatMulProblem::square(8), 3);
        let plan = CompilePlan::for_accelerator(v3(4)).flow(FlowStrategy::OutputStationary);
        let report = Session::for_sweep().run(&BatchedMatMulWorkload::new(batch), &plan).unwrap();
        assert!(report.verified, "all batch elements must match their references");
        assert_eq!(report.result.len(), 3 * 64);
        // The batch moves roughly batch-times the data of one element.
        let single = Session::for_sweep()
            .run(&MatMulWorkload::new(MatMulProblem::square(8)), &plan)
            .unwrap();
        assert!(report.counters.dma_bytes_to_accel > 2 * single.counters.dma_bytes_to_accel);
    }

    #[test]
    fn too_few_accel_dims_is_a_diagnostic_not_a_panic() {
        let mut config = v3(4);
        config.accel_dims = vec![4, 4];
        let plan = CompilePlan::for_accelerator(config);
        let err = Session::for_sweep()
            .run(&MatMulWorkload::new(MatMulProblem::square(8)), &plan)
            .unwrap_err();
        assert!(err.message.contains("at least three dimensions"), "{}", err.message);
    }

    #[test]
    fn pipeline_builder_wires_the_standard_pipeline() {
        let pm = PipelineBuilder::new().accelerator(v3(8)).build();
        assert_eq!(pm.len(), 4, "annotate, codegen, lower, verify");
        let pm = PipelineBuilder::new().accelerator(v3(8)).lower(false).build();
        assert_eq!(pm.len(), 3);
        let pm = PipelineBuilder::new().build();
        assert!(pm.is_empty(), "CPU-only plans run no passes");
        let pm = PipelineBuilder::new().pre_annotated().build();
        assert_eq!(pm.len(), 3, "pre-annotated IR skips the matcher");
    }
}
