//! Table I as data: the accelerator inventory used by the experiments.

use crate::device::Device;
use crate::matmul::MatMulVersion;

/// What a Table I accelerator can keep stationary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReuseKind {
    /// No reuse: every tile of A, B, and C moves every iteration.
    Nothing,
    /// One input (A or B) can stay resident.
    Inputs,
    /// Inputs and the output accumulator can stay resident.
    InputsAndOutput,
    /// Inputs and output, with a runtime-configurable (flexible) tile shape.
    InputsAndOutputFlex,
}

impl std::fmt::Display for ReuseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReuseKind::Nothing => write!(f, "Nothing"),
            ReuseKind::Inputs => write!(f, "Inputs"),
            ReuseKind::InputsAndOutput => write!(f, "Ins/Out"),
            ReuseKind::InputsAndOutputFlex => write!(f, "Ins/Out (flex size)"),
        }
    }
}

/// One row of Table I, crossed with one size configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcceleratorSpec {
    /// Accelerator type (v1..v4).
    pub version: MatMulVersion,
    /// Base (square) tile size.
    pub size: u32,
    /// Reuse the host can exploit.
    pub reuse: ReuseKind,
    /// Opcode mnemonics the type implements, as listed in Table I.
    pub opcodes: &'static [&'static str],
    /// Arithmetic throughput in OPs/cycle (one MAC = 2 OPs).
    pub ops_per_cycle: u32,
}

impl AcceleratorSpec {
    /// The device this row describes (displayed as `v3_16`).
    pub fn device(&self) -> Device {
        Device::matmul(self.version, i64::from(self.size)).expect("Table I sizes are positive")
    }
}

/// Table I throughput for a base tile size.
///
/// `(4, 10)`, `(8, 60)`, `(16, 112)` are the paper's synthesized
/// configurations; other sizes interpolate on the MAC-array area `size^2`
/// scaled by the same efficiency trend, which only matters for tests that
/// probe non-paper sizes.
pub(crate) fn ops_per_cycle_for_size(size: u32) -> u32 {
    match size {
        4 => 10,
        8 => 60,
        16 => 112,
        _ => ((size * size) as f64 * 0.45).max(1.0) as u32,
    }
}

/// The reuse kind of each Table I type.
fn reuse_for_version(version: MatMulVersion) -> ReuseKind {
    match version {
        MatMulVersion::V1 => ReuseKind::Nothing,
        MatMulVersion::V2 => ReuseKind::Inputs,
        MatMulVersion::V3 => ReuseKind::InputsAndOutput,
        MatMulVersion::V4 => ReuseKind::InputsAndOutputFlex,
    }
}

/// The opcode mnemonics of each Table I type.
fn opcodes_for_version(version: MatMulVersion) -> &'static [&'static str] {
    match version {
        MatMulVersion::V1 => &["sAsBcCrC"],
        MatMulVersion::V2 => &["sA", "sB", "cCrC"],
        MatMulVersion::V3 | MatMulVersion::V4 => &["sA", "sB", "cC", "rC"],
    }
}

/// The full Table I: four types crossed with the synthesized sizes
/// {4, 8, 16}.
pub fn table1() -> Vec<AcceleratorSpec> {
    let versions = [MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4];
    let sizes = [4u32, 8, 16];
    let mut specs = Vec::new();
    for version in versions {
        for size in sizes {
            specs.push(AcceleratorSpec {
                version,
                size,
                reuse: reuse_for_version(version),
                opcodes: opcodes_for_version(version),
                ops_per_cycle: ops_per_cycle_for_size(size),
            });
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_configurations() {
        let t = table1();
        assert_eq!(t.len(), 12);
        let has = |name: &str, ops| {
            t.iter().any(|s| s.device().to_string() == name && s.ops_per_cycle == ops)
        };
        assert!(has("v1_4", 10) && has("v3_8", 60) && has("v4_16", 112));
    }

    #[test]
    fn reuse_matches_paper() {
        assert_eq!(reuse_for_version(MatMulVersion::V1), ReuseKind::Nothing);
        assert_eq!(reuse_for_version(MatMulVersion::V2), ReuseKind::Inputs);
        assert_eq!(reuse_for_version(MatMulVersion::V3), ReuseKind::InputsAndOutput);
        assert_eq!(reuse_for_version(MatMulVersion::V4), ReuseKind::InputsAndOutputFlex);
        assert_eq!(ReuseKind::InputsAndOutputFlex.to_string(), "Ins/Out (flex size)");
    }

    #[test]
    fn bigger_accelerators_have_higher_throughput() {
        assert!(ops_per_cycle_for_size(4) < ops_per_cycle_for_size(8));
        assert!(ops_per_cycle_for_size(8) < ops_per_cycle_for_size(16));
    }

    #[test]
    fn instantiate_builds_matching_model() {
        let spec = &table1()[0];
        let model = spec.device().instantiate();
        assert_eq!(model.name(), "v1_4");
        assert_eq!(model.name(), spec.device().to_string());
    }

    #[test]
    fn opcode_lists_match_table1() {
        assert_eq!(opcodes_for_version(MatMulVersion::V1), &["sAsBcCrC"]);
        assert_eq!(opcodes_for_version(MatMulVersion::V2), &["sA", "sB", "cCrC"]);
        assert_eq!(opcodes_for_version(MatMulVersion::V3), &["sA", "sB", "cC", "rC"]);
    }
}
