//! The AXI4MLIR compiler — the paper's primary contribution.
//!
//! Implements the numbered steps of the compiler flow (paper Fig. 4):
//!
//! 1./2. Accelerator + host description and parsing — `axi4mlir-config`.
//! 3. **Match and annotate** ([`annotate`]): find `linalg` operations whose
//!    traits match the accelerator's kernel and attach the Fig. 6a trait
//!    attributes (`dma_init_config`, `init_opcodes`, `accel_dim`,
//!    `permutation_map`, `opcode_map`, `opcode_flow`).
//! 4. **Tiling** for the CPU cache hierarchy and the accelerator size, and
//!    loop permutation for the selected stationary flow — [`plan`] decides,
//!    [`codegen`] emits the `scf` nest.
//! 5. **Host code transformations** ([`codegen`], [`lower`]): place `accel`
//!    dialect ops at the loop depth dictated by the `opcode_flow` (hoisting
//!    stationary transfers out of inner loops), then lower them to the
//!    seven DMA runtime library calls of Fig. 9.
//! 6. The DMA library itself — `axi4mlir-runtime`.
//!
//! # The driver layer
//!
//! Experiments consume the compiler through the [`driver`] module, which
//! splits the compile-and-run loop into three orthogonal pieces:
//!
//! - a [`driver::Workload`] describes one kernel: how to build its IR
//!   module, bind and seed its SoC buffers, and compute its reference
//!   result. MatMul ([`driver::MatMulWorkload`]), Conv2D
//!   ([`driver::ConvWorkload`]), and batched MatMul
//!   ([`driver::BatchedMatMulWorkload`]) ship in-tree; a new kernel is one
//!   new implementation of this trait.
//! - a [`driver::CompilePlan`] names the target (an accelerator
//!   configuration, or CPU-only execution), the selected flow, and the
//!   [`PipelineOptions`]; [`driver::PipelineBuilder`] turns it into the
//!   standard pass pipeline (the single place the pass list is wired —
//!   `axi4mlir-opt` uses it too).
//! - a [`driver::Session`] owns the simulated SoC, executes plans, and
//!   **recycles the system between runs** (same addresses, zeroed memory,
//!   reset device), so sweeps amortize allocation while staying
//!   bit-identical to fresh runs. It produces a [`driver::RunReport`] with
//!   counters, verification, IR snapshots, and per-pass timings.
//!
//! A [`driver::Session`] is the only harness — hand-written baseline
//! drivers run through [`driver::Session::run_manual`], on the same bound
//! buffers and under the same checks as compiled code; [`pipeline`] holds
//! the IR module builders the workloads use. Which functional device a
//! run gets is not decided here: a configuration carries a typed
//! [`Device`](axi4mlir_accelerators::Device), parsed from its name where
//! the text entered, and the session instantiates exactly that.
//!
//! On top of the driver layer, [`explore`] turns the §IV-C configuration
//! heuristics into a measured search that is generic over what it
//! searches: an [`explore::DesignSpace`] (MatMul, batched MatMul, or
//! Conv2D; accelerator generations v1–v4; flows, tiles, and pipeline
//! options) enumerated per workload, swept by an [`explore::Search`]
//! strategy (exhaustive, or successive halving over the transfer-model
//! ranking) across a pool of worker threads (one recycled SoC each),
//! behind a candidate-keyed result cache that persists to a sharded
//! `BENCH_cache/` directory. Each phase has one door — a
//! [`explore::JobSpec`] builds the request,
//! [`explore::Explorer::explore_streaming`] runs it — and reports state
//! how close the analytical pick comes to the explored optimum.

pub mod annotate;
pub mod codegen;
pub mod driver;
pub mod explore;
pub mod lower;
pub mod options;
pub mod pipeline;
pub mod plan;

pub use driver::{
    BatchedMatMulWorkload, CompilePlan, ConvWorkload, MatMulWorkload, PipelineBuilder, RunReport,
    Session, Workload,
};
pub use explore::{
    Candidate, CandidateKey, DesignSpace, Evaluation, ExploreReport, Explorer, Prune, Search,
};
pub use options::{CacheTiling, PipelineOptions};
