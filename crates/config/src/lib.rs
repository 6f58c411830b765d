//! Accelerator and host-CPU configuration (paper §III-B, Fig. 5).
//!
//! The developer integrates a new accelerator with AXI4MLIR by writing a
//! JSON configuration file naming the CPU cache sizes and describing the
//! accelerator: kernel, tile sizes, data layout, `opcode_map` (Fig. 7),
//! legal `opcode_flow`s (Fig. 8), and the selected flow. This crate:
//!
//! - parses that JSON ([`json`]) including the paper's `32K`-style sizes,
//! - validates it ([`accelerator::AcceleratorConfig::validate`]): every
//!   flow opcode must exist, every action argument must reference a real
//!   operand, the selected flow must be defined,
//! - ships ready-made configurations for the Table I accelerators and the
//!   Conv2D accelerator ([`presets`]),
//! - converts a configuration into the `linalg.generic` trait attributes of
//!   Fig. 6a ([`accelerator::AcceleratorConfig::to_trait_attrs`]) — the
//!   "parse and annotate" steps 1–3 of the compiler flow.

pub mod accelerator;
pub mod cpu;
pub mod flow;
pub mod json;
pub mod presets;
pub mod tiling;

pub use accelerator::{AcceleratorConfig, KernelKind};
pub use cpu::{CpuModel, CpuSpec};
pub use flow::FlowStrategy;
pub use json::SystemConfig;
pub use tiling::CacheTiling;
