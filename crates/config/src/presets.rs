//! Ready-made configurations for the paper's accelerators.
//!
//! Opcode literals follow Fig. 6a / Fig. 15a and the
//! `axi4mlir-accelerators` micro-ISA. Each MatMul preset ships every
//! flow its Table I reuse class legalizes — [`matmul_flows`] is that
//! table, and the design-space enumeration reads the same one; v4 adds
//! the runtime tile configuration, and conv2d ships the one
//! filter+output stationary flow of Fig. 15a.

use std::sync::OnceLock;

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_accelerators::Device;
use axi4mlir_ir::attrs::{OpcodeAction, OpcodeFlow, OpcodeMap};

use crate::accelerator::{AcceleratorConfig, DmaInfo};
use crate::flow::{FlowStrategy, MATMUL_DATA, MATMUL_DIMS};

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

/// The micro-ISA each MatMul generation decodes, as the entries of its
/// `opcode_map` (the row beside [`matmul_flows`]): v1 one fused opcode,
/// v2 separate sends plus fused compute-and-read variants, v3/v4 one
/// opcode per action. v4's runtime tile configuration (`cfg`) depends on
/// the tile and is appended by the builder.
fn matmul_opcodes(version: MatMulVersion) -> &'static str {
    match version {
        MatMulVersion::V1 => {
            "sAsBcCrC = [send_literal(0x20), send(0), send(1), recv(2)], \
             reset = [send_literal(0xFF)]"
        }
        MatMulVersion::V2 => {
            "sA = [send_literal(0x22), send(0)], \
             sB = [send_literal(0x23), send(1)], \
             cCrC = [send_literal(0x27), recv(2)], \
             sBcCrC = [send_literal(0x25), send(1), recv(2)], \
             sAcCrC = [send_literal(0x26), send(0), recv(2)], \
             reset = [send_literal(0xFF)]"
        }
        MatMulVersion::V3 | MatMulVersion::V4 => {
            "sA = [send_literal(0x22), send(0)], \
             sB = [send_literal(0x23), send(1)], \
             cC = [send_literal(0xF0)], \
             rC = [send_literal(0x24), recv(2)], \
             reset = [send_literal(0xFF)]"
        }
    }
}

/// A MatMul generation's `opcode_map` (without v4's `cfg`) and `flows`,
/// parsed from [`matmul_opcodes`] and [`matmul_flows`].
struct MatMulTables {
    opcode_map: OpcodeMap,
    flows: Vec<(String, OpcodeFlow)>,
}

/// The tables of `version`, parsed on first use and shared by every
/// preset of the generation after that (v3 and v4 share one).
fn matmul_tables(version: MatMulVersion) -> &'static MatMulTables {
    static TABLES: [OnceLock<MatMulTables>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = match version {
        MatMulVersion::V1 => 0,
        MatMulVersion::V2 => 1,
        MatMulVersion::V3 | MatMulVersion::V4 => 2,
    };
    TABLES[slot].get_or_init(|| MatMulTables {
        opcode_map: parse_map(matmul_opcodes(version)),
        flows: matmul_flows(version)
            .iter()
            .map(|(strategy, flow)| (strategy.short_name().to_owned(), parse_flow(flow)))
            .collect(),
    })
}

fn parse_map(text: &str) -> OpcodeMap {
    OpcodeMap::parse(text).expect("preset opcode_map must parse")
}

fn parse_flow(text: &str) -> OpcodeFlow {
    OpcodeFlow::parse(text).expect("preset opcode_flow must parse")
}

impl AcceleratorConfig {
    /// The Table I accelerator of generation `version` with base size
    /// `size` (4, 8, or 16 in the paper): the fixed square tile of v1–v3,
    /// the divisibility base — and default square tile — of v4.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a positive 32-bit number (a preset is built
    /// in code; a size read from text goes through `Device::parse`).
    pub fn matmul(version: MatMulVersion, size: i64) -> AcceleratorConfig {
        Self::matmul_with_tile(version, size, (size, size, size))
    }

    /// [`Self::matmul`] described as running `tile` (`Device::tile_defect`
    /// says whether it does). A v4's tile-shape configuration instruction
    /// (`0x30 tM tN tK`) joins the per-kernel `init_opcodes`.
    pub fn matmul_with_tile(
        version: MatMulVersion,
        size: i64,
        (tm, tn, tk): (i64, i64, i64),
    ) -> AcceleratorConfig {
        let tables = matmul_tables(version);
        let mut opcode_map = tables.opcode_map.clone();
        let mut init_opcodes = vec!["reset".to_owned()];
        if version == MatMulVersion::V4 {
            // `cfg = [send_literal(0x30), send_literal(tM), ...]`, each
            // word truncated to 32 bits as the text's parser does.
            let cfg =
                [0x30, tm, tn, tk].map(|word| OpcodeAction::SendLiteral { value: word as u32 });
            opcode_map.push("cfg".to_owned(), cfg.to_vec()).expect("`cfg` is a new opcode");
            init_opcodes.push("cfg".to_owned());
        }
        let cfg = AcceleratorConfig {
            device: Device::matmul(version, size).expect("a preset's size is positive"),
            dma: DmaInfo::default(),
            dims: MATMUL_DIMS.map(str::to_owned).to_vec(),
            accel_dims: vec![tm, tn, tk],
            data: MATMUL_DATA
                .map(|(arg, dims)| (arg.to_owned(), dims.map(str::to_owned).to_vec()))
                .to_vec(),
            opcode_map,
            flows: tables.flows.clone(),
            selected_flow: "Ns".to_owned(),
            init_opcodes,
        };
        cfg.validate().expect("MatMul preset is well-formed");
        cfg
    }

    /// The §IV-D Conv2D accelerator, configured for `ic` input channels
    /// per window and a square `fhw` filter.
    pub fn conv2d(ic: i64, fhw: i64) -> AcceleratorConfig {
        let dims: Vec<String> =
            ["b", "h", "w", "ic", "oc", "fh", "fw"].iter().map(|s| (*s).to_owned()).collect();
        let cfg = AcceleratorConfig {
            device: Device::Conv2d,
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
        for cfg in [
            AcceleratorConfig::matmul(MatMulVersion::V1, 4),
            AcceleratorConfig::matmul(MatMulVersion::V2, 8),
            AcceleratorConfig::matmul(MatMulVersion::V3, 16),
            AcceleratorConfig::matmul(MatMulVersion::V4, 16),
            AcceleratorConfig::conv2d(256, 3),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn v1_offers_only_nothing_stationary() {
        let cfg = AcceleratorConfig::matmul(MatMulVersion::V1, 4);
        assert_eq!(cfg.flows.len(), 1);
        assert_eq!(cfg.flows[0].0, "Ns");
        assert_eq!(cfg.device.to_string(), "v1_4");
    }

    #[test]
    fn v2_offers_input_stationary_flows() {
        let cfg = AcceleratorConfig::matmul(MatMulVersion::V2, 8);
        let names: Vec<&str> = cfg.flows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Ns", "As", "Bs"]);
        assert_eq!(cfg.flow("As").unwrap().depth(), 2);
    }

    #[test]
    fn v3_flows_match_paper_examples() {
        let cfg = AcceleratorConfig::matmul(MatMulVersion::V3, 8);
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
        let cfg = AcceleratorConfig::matmul_with_tile(MatMulVersion::V4, 16, (32, 16, 64));
        assert_eq!(cfg.accel_dims, vec![32, 16, 64]);
        assert_eq!(cfg.init_opcodes, vec!["reset", "cfg"]);
        let actions = cfg.opcode_map.get("cfg").unwrap();
        assert_eq!(actions.len(), 4);
        assert_eq!(actions[1], axi4mlir_ir::attrs::OpcodeAction::SendLiteral { value: 32 });
    }

    #[test]
    fn conv_preset_matches_fig15a() {
        let cfg = AcceleratorConfig::conv2d(256, 3);
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
        let cfg = AcceleratorConfig::matmul(MatMulVersion::V3, 8);
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

    /// A MatMul preset built the way every build made it before the
    /// tables were parsed once: its whole `opcode_map` text, v4's `cfg`
    /// included, and each flow parsed anew.
    fn parsed_from_text(
        version: MatMulVersion,
        size: i64,
        (tm, tn, tk): (i64, i64, i64),
    ) -> AcceleratorConfig {
        let mut opcodes = matmul_opcodes(version).to_owned();
        let mut init_opcodes = vec!["reset".to_owned()];
        if version == MatMulVersion::V4 {
            opcodes.push_str(&format!(
                ", cfg = [send_literal(0x30), send_literal({tm}), send_literal({tn}), send_literal({tk})]"
            ));
            init_opcodes.push("cfg".to_owned());
        }
        AcceleratorConfig {
            device: Device::matmul(version, size).unwrap(),
            dma: DmaInfo::default(),
            dims: MATMUL_DIMS.map(str::to_owned).to_vec(),
            accel_dims: vec![tm, tn, tk],
            data: MATMUL_DATA
                .map(|(arg, dims)| (arg.to_owned(), dims.map(str::to_owned).to_vec()))
                .to_vec(),
            opcode_map: parse_map(&format!("opcode_map<{opcodes}>")),
            flows: matmul_flows(version)
                .iter()
                .map(|(strategy, flow)| (strategy.short_name().to_owned(), parse_flow(flow)))
                .collect(),
            selected_flow: "Ns".to_owned(),
            init_opcodes,
        }
    }

    #[test]
    fn a_preset_equals_its_text_parsed() {
        let mut cases = Vec::new();
        for size in [4, 8, 16] {
            for version in
                [MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4]
            {
                cases.push((version, size, (size, size, size)));
            }
        }
        for (size, tile) in [
            (4, (8, 4, 12)),
            (8, (16, 8, 24)),
            (16, (32, 16, 64)),
            (16, (64, 64, 64)),
            (256, (256, 8, 256)),
        ] {
            cases.push((MatMulVersion::V4, size, tile));
        }
        for (version, size, tile) in cases {
            let built = AcceleratorConfig::matmul_with_tile(version, size, tile);
            let parsed = parsed_from_text(version, size, tile);
            assert_eq!(built, parsed, "{version:?} {size} {tile:?}");
            let printed =
                |cfg: &AcceleratorConfig| cfg.to_trait_attrs(None)["opcode_map"].to_string();
            assert_eq!(printed(&built), printed(&parsed), "{version:?} {size} {tile:?}");
        }
    }

    #[test]
    fn each_generation_is_parsed_once() {
        let v3 = matmul_tables(MatMulVersion::V3);
        assert!(std::ptr::eq(v3, matmul_tables(MatMulVersion::V3)));
        assert!(std::ptr::eq(v3, matmul_tables(MatMulVersion::V4)), "v3 and v4 share a table");
        assert!(!std::ptr::eq(v3, matmul_tables(MatMulVersion::V2)));
    }

    /// `name accel_dims opcode_map [flows] init_opcodes selected_flow`.
    fn render(cfg: &AcceleratorConfig) -> String {
        let flows: Vec<String> = cfg.flows.iter().map(|(n, f)| format!("{n}={f}")).collect();
        format!(
            "{} {:?} {} [{}] {:?} {}",
            cfg.device,
            cfg.accel_dims,
            cfg.opcode_map,
            flows.join(", "),
            cfg.init_opcodes,
            cfg.selected_flow
        )
    }

    #[test]
    fn generation_constructor_renders_what_the_preset_enum_did() {
        // Written by the last commit that had `AcceleratorConfig::preset`:
        // sizes 4, 8, 16 x v1..v4, then conv2d (256, 3).
        #[rustfmt::skip]
        let expected = [
            r#"v1_4 [4, 4, 4] opcode_map<sAsBcCrC = [send_literal(32), send(0), send(1), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sAsBcCrC)>] ["reset"] Ns"#,
            r#"v2_4 [4, 4, 4] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cCrC = [send_literal(39), recv(2)], sBcCrC = [send_literal(37), send(1), recv(2)], sAcCrC = [send_literal(38), send(0), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sA sB cCrC)>, As=opcode_flow<(sA (sBcCrC))>, Bs=opcode_flow<(sB (sAcCrC))>] ["reset"] Ns"#,
            r#"v3_4 [4, 4, 4] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cC = [send_literal(240)], rC = [send_literal(36), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sA sB cC rC)>, As=opcode_flow<(sA (sB cC rC))>, Bs=opcode_flow<(sB (sA cC rC))>, Cs=opcode_flow<((sA sB cC) rC)>] ["reset"] Ns"#,
            r#"v4_4 [4, 4, 4] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cC = [send_literal(240)], rC = [send_literal(36), recv(2)], reset = [send_literal(255)], cfg = [send_literal(48), send_literal(4), send_literal(4), send_literal(4)]> [Ns=opcode_flow<(sA sB cC rC)>, As=opcode_flow<(sA (sB cC rC))>, Bs=opcode_flow<(sB (sA cC rC))>, Cs=opcode_flow<((sA sB cC) rC)>] ["reset", "cfg"] Ns"#,
            r#"v1_8 [8, 8, 8] opcode_map<sAsBcCrC = [send_literal(32), send(0), send(1), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sAsBcCrC)>] ["reset"] Ns"#,
            r#"v2_8 [8, 8, 8] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cCrC = [send_literal(39), recv(2)], sBcCrC = [send_literal(37), send(1), recv(2)], sAcCrC = [send_literal(38), send(0), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sA sB cCrC)>, As=opcode_flow<(sA (sBcCrC))>, Bs=opcode_flow<(sB (sAcCrC))>] ["reset"] Ns"#,
            r#"v3_8 [8, 8, 8] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cC = [send_literal(240)], rC = [send_literal(36), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sA sB cC rC)>, As=opcode_flow<(sA (sB cC rC))>, Bs=opcode_flow<(sB (sA cC rC))>, Cs=opcode_flow<((sA sB cC) rC)>] ["reset"] Ns"#,
            r#"v4_8 [8, 8, 8] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cC = [send_literal(240)], rC = [send_literal(36), recv(2)], reset = [send_literal(255)], cfg = [send_literal(48), send_literal(8), send_literal(8), send_literal(8)]> [Ns=opcode_flow<(sA sB cC rC)>, As=opcode_flow<(sA (sB cC rC))>, Bs=opcode_flow<(sB (sA cC rC))>, Cs=opcode_flow<((sA sB cC) rC)>] ["reset", "cfg"] Ns"#,
            r#"v1_16 [16, 16, 16] opcode_map<sAsBcCrC = [send_literal(32), send(0), send(1), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sAsBcCrC)>] ["reset"] Ns"#,
            r#"v2_16 [16, 16, 16] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cCrC = [send_literal(39), recv(2)], sBcCrC = [send_literal(37), send(1), recv(2)], sAcCrC = [send_literal(38), send(0), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sA sB cCrC)>, As=opcode_flow<(sA (sBcCrC))>, Bs=opcode_flow<(sB (sAcCrC))>] ["reset"] Ns"#,
            r#"v3_16 [16, 16, 16] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cC = [send_literal(240)], rC = [send_literal(36), recv(2)], reset = [send_literal(255)]> [Ns=opcode_flow<(sA sB cC rC)>, As=opcode_flow<(sA (sB cC rC))>, Bs=opcode_flow<(sB (sA cC rC))>, Cs=opcode_flow<((sA sB cC) rC)>] ["reset"] Ns"#,
            r#"v4_16 [16, 16, 16] opcode_map<sA = [send_literal(34), send(0)], sB = [send_literal(35), send(1)], cC = [send_literal(240)], rC = [send_literal(36), recv(2)], reset = [send_literal(255)], cfg = [send_literal(48), send_literal(16), send_literal(16), send_literal(16)]> [Ns=opcode_flow<(sA sB cC rC)>, As=opcode_flow<(sA (sB cC rC))>, Bs=opcode_flow<(sB (sA cC rC))>, Cs=opcode_flow<((sA sB cC) rC)>] ["reset", "cfg"] Ns"#,
            r#"conv2d [0, 0, 0, 256, 1, 3, 3] opcode_map<sIcO = [send_literal(70), send(0)], sF = [send_literal(1), send(1)], rO = [send_literal(8), recv(2)], rst = [send_literal(32), send_dim(1, 3), send_literal(16), send_dim(0, 1)]> [FOs=opcode_flow<(sF (sIcO) rO)>] ["rst"] FOs"#,
        ];
        let mut built = Vec::new();
        for size in [4, 8, 16] {
            for version in
                [MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4]
            {
                built.push(AcceleratorConfig::matmul(version, size));
            }
        }
        built.push(AcceleratorConfig::conv2d(256, 3));
        assert_eq!(built.len(), expected.len());
        for (cfg, expected) in built.iter().zip(expected) {
            assert_eq!(render(cfg), expected);
        }
    }
}
