//! Ready-made configurations for the paper's accelerators.
//!
//! Opcode literals follow Fig. 6a / Fig. 15a and the
//! `axi4mlir-accelerators` micro-ISA. Each MatMul preset ships every
//! flow its Table I reuse class legalizes — [`matmul_flows`] is that
//! table, and the design-space enumeration reads the same one; v4 adds
//! the runtime tile configuration, and conv2d ships the one
//! filter+output stationary flow of Fig. 15a.

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_ir::attrs::{OpcodeFlow, OpcodeMap};

use crate::accelerator::{AcceleratorConfig, DmaInfo, KernelKind};
use crate::flow::FlowStrategy;

/// Table I on the host side: the flows each MatMul generation's opcode
/// set legalizes, in figure order (Ns, As, Bs, Cs), each with the
/// `opcode_flow` its preset ships under that strategy's short name. v1
/// fuses everything (`Ns` only), v2 adds input reuse, v3/v4 add output
/// reuse.
pub fn matmul_flows(version: MatMulVersion) -> &'static [(FlowStrategy, &'static str)] {
    use FlowStrategy::{
        InputAStationary as As, InputBStationary as Bs, NothingStationary as Ns,
        OutputStationary as Cs,
    };
    match version {
        MatMulVersion::V1 => &[(Ns, "(sAsBcCrC)")],
        MatMulVersion::V2 => &[(Ns, "(sA sB cCrC)"), (As, "(sA (sBcCrC))"), (Bs, "(sB (sAcCrC))")],
        MatMulVersion::V3 | MatMulVersion::V4 => &[
            (Ns, "(sA sB cC rC)"),
            (As, "(sA (sB cC rC))"),
            (Bs, "(sB (sA cC rC))"),
            (Cs, "((sA sB cC) rC)"),
        ],
    }
}

/// The `flows` member of a MatMul preset, parsed from [`matmul_flows`].
fn preset_flows(version: MatMulVersion) -> Vec<(String, OpcodeFlow)> {
    matmul_flows(version)
        .iter()
        .map(|(strategy, flow)| (strategy.short_name().to_owned(), parse_flow(flow)))
        .collect()
}

/// Selects one of the paper's accelerators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcceleratorPreset {
    /// Table I v1 (no reuse) with square tile `size`.
    V1 {
        /// Base tile size (4, 8, or 16 in the paper).
        size: i64,
    },
    /// Table I v2 (input reuse).
    V2 {
        /// Base tile size.
        size: i64,
    },
    /// Table I v3 (input + output reuse).
    V3 {
        /// Base tile size.
        size: i64,
    },
    /// Table I v4 (flexible tile shapes); tile defaults to square `size`,
    /// adjustable with [`AcceleratorConfig::preset_v4_with_tile`].
    V4 {
        /// Base (divisibility) tile size.
        size: i64,
    },
    /// The §IV-D Conv2D accelerator, configured for `ic` input channels and
    /// a square `fhw` filter.
    Conv2d {
        /// Input channels per window.
        ic: i64,
        /// Filter height/width.
        fhw: i64,
    },
}

fn parse_map(text: &str) -> OpcodeMap {
    OpcodeMap::parse(text).expect("preset opcode_map must parse")
}

fn parse_flow(text: &str) -> OpcodeFlow {
    OpcodeFlow::parse(text).expect("preset opcode_flow must parse")
}

fn matmul_dims() -> Vec<String> {
    vec!["m".to_owned(), "n".to_owned(), "k".to_owned()]
}

fn matmul_data() -> Vec<(String, Vec<String>)> {
    vec![
        ("A".to_owned(), vec!["m".to_owned(), "k".to_owned()]),
        ("B".to_owned(), vec!["k".to_owned(), "n".to_owned()]),
        ("C".to_owned(), vec!["m".to_owned(), "n".to_owned()]),
    ]
}

impl AcceleratorConfig {
    /// Builds the configuration for a preset accelerator.
    pub fn preset(preset: AcceleratorPreset) -> AcceleratorConfig {
        match preset {
            AcceleratorPreset::V1 { size } => Self::v1(size),
            AcceleratorPreset::V2 { size } => Self::v2(size),
            AcceleratorPreset::V3 { size } => Self::v3(size),
            AcceleratorPreset::V4 { size } => Self::preset_v4_with_tile(size, size, size, size),
            AcceleratorPreset::Conv2d { ic, fhw } => Self::conv2d(ic, fhw),
        }
    }

    fn v1(size: i64) -> AcceleratorConfig {
        let cfg = AcceleratorConfig {
            name: MatMulVersion::V1.instance_name(size),
            kernel: KernelKind::MatMul,
            dma: DmaInfo::default(),
            dims: matmul_dims(),
            accel_dims: vec![size, size, size],
            data: matmul_data(),
            data_type: "int32".to_owned(),
            opcode_map: parse_map(
                "opcode_map<sAsBcCrC = [send_literal(0x20), send(0), send(1), recv(2)], \
                 reset = [send_literal(0xFF)]>",
            ),
            flows: preset_flows(MatMulVersion::V1),
            selected_flow: "Ns".to_owned(),
            init_opcodes: vec!["reset".to_owned()],
        };
        cfg.validate().expect("v1 preset is well-formed");
        cfg
    }

    fn v2(size: i64) -> AcceleratorConfig {
        let cfg = AcceleratorConfig {
            name: MatMulVersion::V2.instance_name(size),
            kernel: KernelKind::MatMul,
            dma: DmaInfo::default(),
            dims: matmul_dims(),
            accel_dims: vec![size, size, size],
            data: matmul_data(),
            data_type: "int32".to_owned(),
            opcode_map: parse_map(
                "opcode_map<sA = [send_literal(0x22), send(0)], \
                 sB = [send_literal(0x23), send(1)], \
                 cCrC = [send_literal(0x27), recv(2)], \
                 sBcCrC = [send_literal(0x25), send(1), recv(2)], \
                 sAcCrC = [send_literal(0x26), send(0), recv(2)], \
                 reset = [send_literal(0xFF)]>",
            ),
            flows: preset_flows(MatMulVersion::V2),
            selected_flow: "Ns".to_owned(),
            init_opcodes: vec!["reset".to_owned()],
        };
        cfg.validate().expect("v2 preset is well-formed");
        cfg
    }

    fn v3_like(name: String, size: i64) -> AcceleratorConfig {
        AcceleratorConfig {
            name,
            kernel: KernelKind::MatMul,
            dma: DmaInfo::default(),
            dims: matmul_dims(),
            accel_dims: vec![size, size, size],
            data: matmul_data(),
            data_type: "int32".to_owned(),
            opcode_map: parse_map(
                "opcode_map<sA = [send_literal(0x22), send(0)], \
                 sB = [send_literal(0x23), send(1)], \
                 cC = [send_literal(0xF0)], \
                 rC = [send_literal(0x24), recv(2)], \
                 reset = [send_literal(0xFF)]>",
            ),
            flows: preset_flows(MatMulVersion::V3),
            selected_flow: "Ns".to_owned(),
            init_opcodes: vec!["reset".to_owned()],
        }
    }

    fn v3(size: i64) -> AcceleratorConfig {
        let cfg = Self::v3_like(MatMulVersion::V3.instance_name(size), size);
        cfg.validate().expect("v3 preset is well-formed");
        cfg
    }

    /// A v4 accelerator with base `size` (divisibility constraint) and the
    /// given tile shape. The tile-shape configuration instruction
    /// (`0x30 tM tN tK`) is prepended to the per-kernel `init_opcodes`.
    pub fn preset_v4_with_tile(size: i64, tm: i64, tn: i64, tk: i64) -> AcceleratorConfig {
        let mut cfg = Self::v3_like(MatMulVersion::V4.instance_name(size), size);
        cfg.accel_dims = vec![tm, tn, tk];
        let mut entries: Vec<(String, Vec<axi4mlir_ir::attrs::OpcodeAction>)> =
            cfg.opcode_map.iter().map(|(n, a)| (n.to_owned(), a.to_vec())).collect();
        entries.push((
            "cfg".to_owned(),
            OpcodeMap::parse(&format!(
                "opcode_map<cfg = [send_literal(0x30), send_literal({tm}), send_literal({tn}), send_literal({tk})]>"
            ))
            .expect("cfg opcode parses")
            .get("cfg")
            .expect("cfg present")
            .to_vec(),
        ));
        cfg.opcode_map = OpcodeMap::new(entries).expect("unique opcode names");
        cfg.init_opcodes = vec!["reset".to_owned(), "cfg".to_owned()];
        cfg.validate().expect("v4 preset is well-formed");
        cfg
    }

    fn conv2d(ic: i64, fhw: i64) -> AcceleratorConfig {
        let dims: Vec<String> =
            ["b", "h", "w", "ic", "oc", "fh", "fw"].iter().map(|s| (*s).to_owned()).collect();
        let cfg = AcceleratorConfig {
            name: "conv2d".to_owned(),
            kernel: KernelKind::Conv2dNchwFchw,
            dma: DmaInfo::default(),
            dims,
            // Fig. 15a: (B,H,W,iC,oC,fH,fW) -> (0,0,0,ic,1,fhw,fhw).
            accel_dims: vec![0, 0, 0, ic, 1, fhw, fhw],
            data: vec![
                (
                    "I".to_owned(),
                    vec!["b".to_owned(), "ic".to_owned(), "h".to_owned(), "w".to_owned()],
                ),
                (
                    "W".to_owned(),
                    vec!["oc".to_owned(), "ic".to_owned(), "fh".to_owned(), "fw".to_owned()],
                ),
                (
                    "O".to_owned(),
                    vec!["b".to_owned(), "oc".to_owned(), "h".to_owned(), "w".to_owned()],
                ),
            ],
            data_type: "int32".to_owned(),
            opcode_map: parse_map(
                "opcode_map<sIcO = [send_literal(70), send(0)], \
                 sF = [send_literal(1), send(1)], \
                 rO = [send_literal(8), recv(2)], \
                 rst = [send_literal(32), send_dim(1, 3), send_literal(16), send_dim(0, 1)]>",
            ),
            flows: vec![("FOs".to_owned(), parse_flow("(sF (sIcO) rO)"))],
            selected_flow: "FOs".to_owned(),
            init_opcodes: vec!["rst".to_owned()],
        };
        cfg.validate().expect("conv preset is well-formed");
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for preset in [
            AcceleratorPreset::V1 { size: 4 },
            AcceleratorPreset::V2 { size: 8 },
            AcceleratorPreset::V3 { size: 16 },
            AcceleratorPreset::V4 { size: 16 },
            AcceleratorPreset::Conv2d { ic: 256, fhw: 3 },
        ] {
            let cfg = AcceleratorConfig::preset(preset);
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn v1_offers_only_nothing_stationary() {
        let cfg = AcceleratorConfig::preset(AcceleratorPreset::V1 { size: 4 });
        assert_eq!(cfg.flows.len(), 1);
        assert_eq!(cfg.flows[0].0, "Ns");
        assert_eq!(cfg.name, "v1_4");
    }

    #[test]
    fn v2_offers_input_stationary_flows() {
        let cfg = AcceleratorConfig::preset(AcceleratorPreset::V2 { size: 8 });
        let names: Vec<&str> = cfg.flows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Ns", "As", "Bs"]);
        assert_eq!(cfg.flow("As").unwrap().depth(), 2);
    }

    #[test]
    fn v3_flows_match_paper_examples() {
        let cfg = AcceleratorConfig::preset(AcceleratorPreset::V3 { size: 8 });
        for s in FlowStrategy::all() {
            assert!(cfg.flow(s.short_name()).is_some(), "v3 must offer {s}");
        }
        // Fig. 6a L23: (sA (sB cC rC)) is the A-stationary flow.
        assert_eq!(cfg.flow("As").unwrap().to_string(), "opcode_flow<(sA (sB cC rC))>");
        // Fig. 6a L24: ((sA sB cC) rC) is the C-stationary flow.
        assert_eq!(cfg.flow("Cs").unwrap().to_string(), "opcode_flow<((sA sB cC) rC)>");
    }

    #[test]
    fn v4_tile_configuration_lands_in_init_opcodes() {
        let cfg = AcceleratorConfig::preset_v4_with_tile(16, 32, 16, 64);
        assert_eq!(cfg.accel_dims, vec![32, 16, 64]);
        assert_eq!(cfg.init_opcodes, vec!["reset", "cfg"]);
        let actions = cfg.opcode_map.get("cfg").unwrap();
        assert_eq!(actions.len(), 4);
        assert_eq!(actions[1], axi4mlir_ir::attrs::OpcodeAction::SendLiteral { value: 32 });
    }

    #[test]
    fn conv_preset_matches_fig15a() {
        let cfg = AcceleratorConfig::preset(AcceleratorPreset::Conv2d { ic: 256, fhw: 3 });
        assert_eq!(cfg.accel_dims, vec![0, 0, 0, 256, 1, 3, 3]);
        assert_eq!(cfg.selected().to_string(), "opcode_flow<(sF (sIcO) rO)>");
        let rst = cfg.opcode_map.get("rst").unwrap();
        assert_eq!(rst.len(), 4);
        assert_eq!(cfg.init_opcodes, vec!["rst"]);
    }

    #[test]
    fn opcode_literals_agree_with_accelerator_isa() {
        // The preset literals must match the micro-ISA the accelerator
        // models decode, or every end-to-end run would hang.
        let cfg = AcceleratorConfig::preset(AcceleratorPreset::V3 { size: 8 });
        let first_action = |name: &str| cfg.opcode_map.get(name).unwrap()[0].clone();
        assert_eq!(
            first_action("sA"),
            axi4mlir_ir::attrs::OpcodeAction::SendLiteral { value: 0x22 }
        );
        assert_eq!(
            first_action("sB"),
            axi4mlir_ir::attrs::OpcodeAction::SendLiteral { value: 0x23 }
        );
        assert_eq!(
            first_action("cC"),
            axi4mlir_ir::attrs::OpcodeAction::SendLiteral { value: 0xF0 }
        );
        assert_eq!(
            first_action("rC"),
            axi4mlir_ir::attrs::OpcodeAction::SendLiteral { value: 0x24 }
        );
        assert_eq!(
            first_action("reset"),
            axi4mlir_ir::attrs::OpcodeAction::SendLiteral { value: 0xFF }
        );
    }
}
