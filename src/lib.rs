//! # AXI4MLIR-rs
//!
//! A from-scratch Rust reproduction of *AXI4MLIR: User-Driven Automatic Host
//! Code Generation for Custom AXI-Based Accelerators* (CGO 2024).
//!
//! This facade crate re-exports the workspace members under stable module
//! names. See `DESIGN.md` at the repository root for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table/figure.
//!
//! # Quickstart
//!
//! ```
//! // Compile a MatMul for a simulated v3 (size 8) accelerator and run it.
//! use axi4mlir::prelude::*;
//!
//! let accel = AcceleratorConfig::matmul(MatMulVersion::V3, 8);
//! let plan = CompilePlan::for_accelerator(accel).flow(FlowStrategy::OutputStationary);
//! let report = Session::for_sweep()
//!     .run(&MatMulWorkload::new(MatMulProblem::square(16)), &plan)
//!     .expect("pipeline should succeed");
//! assert!(report.verified);
//! ```
//!
//! Sweeps should hold a [`Session`](prelude::Session) and reuse it, so
//! the simulated SoC is recycled between runs instead of rebuilt:
//!
//! ```
//! use axi4mlir::prelude::*;
//!
//! let mut session = Session::for_sweep();
//! let workload = MatMulWorkload::new(MatMulProblem::square(16));
//! for flow in FlowStrategy::all() {
//!     let config = AcceleratorConfig::matmul(MatMulVersion::V3, 8);
//!     let plan = CompilePlan::for_accelerator(config).flow(flow);
//!     let report = session.run(&workload, &plan).expect("run");
//!     assert!(report.verified);
//! }
//! ```

pub use axi4mlir_accelerators as accelerators;
pub use axi4mlir_baselines as baselines;
pub use axi4mlir_config as config;
pub use axi4mlir_core as compiler;
pub use axi4mlir_dialects as dialects;
pub use axi4mlir_heuristics as heuristics;
pub use axi4mlir_interp as interp;
pub use axi4mlir_ir as ir;
pub use axi4mlir_runtime as runtime;
pub use axi4mlir_sim as sim;
pub use axi4mlir_support as support;
pub use axi4mlir_workloads as workloads;

pub mod prelude;
