//! The one device decision: what an accelerator *name* means. Text
//! becomes a [`Device`] in [`Device::parse`] and nowhere else; the lint's
//! ISA check, the session's device swap and the explorer's cache key all
//! carry the value, so they cannot disagree about which hardware a
//! configuration describes.

use std::fmt;
use std::num::NonZeroU32;

use axi4mlir_sim::axi::StreamAccelerator;

use crate::conv::ConvAccel;
use crate::isa;
use crate::matmul::{MatMulAccel, MatMulVersion, V4_CAPACITY_WORDS};

/// A device this simulator models. Renders as, and parses from, the
/// persisted spelling: `v4_16`, `conv2d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Device {
    /// A Table I MatMul accelerator.
    MatMul {
        /// Accelerator generation.
        version: MatMulVersion,
        /// v1–v3: the fixed square tile edge; v4: the base (divisibility)
        /// size.
        size: NonZeroU32,
    },
    /// The §IV-D Conv2D unit, configured by the layer at run time.
    Conv2d,
}

impl Device {
    /// The MatMul device of `version` and `size`; `None` unless `size` is
    /// a positive 32-bit number.
    pub fn matmul(version: MatMulVersion, size: i64) -> Option<Device> {
        let size = u32::try_from(size).ok().and_then(NonZeroU32::new)?;
        Some(Device::MatMul { version, size })
    }

    /// Parses exactly what `Display` writes: `vN_SIZE` for N in 1..=4 and
    /// a positive 32-bit SIZE, or `conv2d`. Anything else is `None` —
    /// `v3_0`, `v3_-4`, `v9_8`, a bare `v3`, `v3_08`, `mine`.
    pub fn parse(text: &str) -> Option<Device> {
        use MatMulVersion::{V1, V2, V3, V4};
        if text == "conv2d" {
            return Some(Device::Conv2d);
        }
        let (version, size) = text.split_once('_')?;
        let version = [V1, V2, V3, V4].into_iter().find(|v| v.to_string() == version)?;
        let device = Device::matmul(version, size.parse().ok()?)?;
        // `+4` and `04` are integers but not the spelling.
        (device.to_string() == text).then_some(device)
    }

    /// Builds the functional model.
    pub fn instantiate(self) -> Box<dyn StreamAccelerator> {
        match self {
            Device::MatMul { version, size } => Box::new(MatMulAccel::new(version, size.get())),
            Device::Conv2d => Box::new(ConvAccel::new()),
        }
    }

    /// `true` if this device decodes the instruction word `opcode` — the
    /// legality check the functional models and the IR lint share.
    pub fn decodes(self, opcode: u32) -> bool {
        match self {
            Device::MatMul { version, .. } => version.supports_opcode(opcode),
            Device::Conv2d => isa::conv_supports_opcode(opcode),
        }
    }

    /// Words of tile memory a runtime tile configuration must fit; only
    /// the flexible v4 takes one (fixed generations size their buffers
    /// with their tile).
    pub fn tile_memory_words(self) -> Option<u64> {
        match self {
            Device::MatMul { version: MatMulVersion::V4, .. } => Some(V4_CAPACITY_WORDS),
            _ => None,
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Device::MatMul { version, size } => write!(f, "{version}_{size}"),
            Device::Conv2d => f.write_str("conv2d"),
        }
    }
}
