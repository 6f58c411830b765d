//! The one device decision: what an accelerator *name* means. Text
//! becomes a [`Device`] in [`Device::parse`] and nowhere else; the lint's
//! ISA check, the session's device swap and the explorer's cache key all
//! carry the value, so they cannot disagree about which hardware a
//! configuration describes, what it decodes or which tiles it runs.

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

    /// The one statement of which tile (`accel_size`, `accel_dim`, a key's
    /// `tile`) this device runs — `None`, or what the member must be — for the
    /// v4 model's `cfg` decoder and every reader of a description alike.
    pub fn tile_defect(self, tile: &[i64]) -> Option<&'static str> {
        let Device::MatMul { version, size } = self else { return None }; // conv: no tile
        let size = i64::from(size.get());
        if version != MatMulVersion::V4 {
            return (tile != [size; 3]).then_some("must be the device's own [SIZE, SIZE, SIZE]");
        }
        // Edges within the capacity first: no product of two can overflow.
        let cap = V4_CAPACITY_WORDS as i64;
        let legal = matches!(*tile, [tm, tn, tk]
            if tile.iter().all(|t| (1..=cap).contains(t) && t % size == 0)
                && tm * tk + tk * tn + tm * tn <= cap);
        (!legal).then_some("must be multiples of SIZE whose A, B, C tiles fit the v4's tile memory")
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
