//! The host-code interpreter: executes compiled modules on the simulated
//! SoC.
//!
//! The paper compiles the generated host code to an ARM binary once; here
//! a function compiles once to a flat [`Program`] that runs against
//! [`axi4mlir_runtime::Soc`], charging for each operation what the
//! compiled code would pay (arithmetic cycles, cache-modelled
//! loads/stores, loop branches) and dispatching the DMA library
//! `func.call`s to `axi4mlir_runtime::dma_lib`. The `accel`
//! ops reach it only in that lowered form: `LowerAccelToRuntimePass` (in
//! `axi4mlir-core`) is their one definition, and an unlowered `accel` op
//! is an error naming it.
//!
//! `linalg` ops that were *not* offloaded execute through the instrumented
//! native CPU kernels (`axi4mlir_runtime::kernels`), which model the
//! paper's compiled `mlir CPU` baseline.

pub mod error;
pub mod interpreter;
pub mod value;

pub use error::InterpError;
pub use interpreter::{run_func, Frame, Program};
pub use value::RtValue;
