//! Hand-written manual driver baselines (`cpp MANUAL` in the figures).
//!
//! The paper's baselines are C++ drivers derived from the SECDA-TFLite
//! toolkit (§IV-A): written per accelerator and per dataflow, with
//!
//! - **accelerator-size tiling only** (no CPU cache-hierarchy tiling — that
//!   is AXI4MLIR's advantage),
//! - the **fewest data-transfer calls** the selected dataflow permits,
//! - bare-array staging copies that the cross-compiler autovectorizes to
//!   8-byte chunks ([`CopyStrategy::manual`]).
//!
//! These drivers call the same DMA library and run against the same
//! simulated SoC as the generated code, so `perf`-style comparisons are
//! apples-to-apples. This crate holds the drivers and no harness: a manual
//! run is `Session::run_manual(&workload, &plan, matmul_driver(..))` in
//! `axi4mlir-core` — the device, buffers, seed, counter window,
//! protocol-error check and reference comparison are the ones the
//! generated side of the same figure row gets.

pub mod conv;
pub mod matmul;

pub use conv::conv_driver;
pub use matmul::matmul_driver;

use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_support::diag::Diagnostic;

pub(crate) fn manual_strategy(soc: &Soc) -> CopyStrategy {
    CopyStrategy::manual(&soc.cost)
}

/// A driver handed some other workload's buffers.
pub(crate) fn wrong_buffer_count(kernel: &str, wanted: &str, found: usize) -> Diagnostic {
    Diagnostic::error(format!(
        "the manual {kernel} driver drives the buffers {wanted} of one kernel, found {found}"
    ))
}
