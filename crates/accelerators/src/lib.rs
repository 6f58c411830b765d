//! Accelerator models for the AXI4MLIR experiments.
//!
//! The paper evaluates a library of tile-based accelerators derived from
//! SECDA-TFLite, synthesized on the PYNQ-Z2 fabric (Table I), plus a
//! convolution accelerator (§IV-D). This crate implements functional +
//! timing models of each:
//!
//! - [`isa`]: the micro-ISA opcode literals shared between the accelerator
//!   FSMs, the default accelerator configurations, and the compiler.
//! - [`matmul`]: MatMul accelerators v1–v4 (Table I) — vector-MAC engines
//!   with internal A/B/C tile buffers, differing in which opcodes (and thus
//!   which *stationary* reuse patterns) they support.
//! - [`conv`]: the Conv2D accelerator of Fig. 15 — computes one output
//!   channel slice per iteration, with configurable `iC` and `fHW`.
//! - [`registry`]: Table I as data (type, reuse, opcodes, size, OPs/cycle).
//! - [`device`]: [`Device`], the one value an accelerator *name* becomes —
//!   its parser, its spelling, the model it instantiates, what it decodes.
//!
//! All models perform real `i32` arithmetic so end-to-end results can be
//! verified against reference kernels, and charge compute cycles at the
//! Table I throughput (OPs/cycle at 200 MHz).

pub mod conv;
pub mod device;
pub mod isa;
pub mod matmul;
pub mod registry;

pub use conv::ConvAccel;
pub use device::Device;
pub use matmul::{MatMulAccel, MatMulVersion};
pub use registry::{table1, AcceleratorSpec};

/// Copies little-endian AXI-Stream beats into `dst`, one per 4-byte chunk
/// of `bytes`, as far as the shorter of the two reaches: a device's burst
/// fill of a tile buffer.
fn copy_beats(dst: &mut [i32], bytes: &[u8]) {
    for (slot, beat) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *slot = i32::from_le_bytes(beat.try_into().expect("4-byte beat"));
    }
}
