//! The description's decisions, each made in one place. The device
//! ([`Device::parse`]): an accelerator name is read once, and what it
//! parsed to is what the lint checks opcodes against, what the session
//! instantiates and what the report names; the two text boundaries — a
//! Fig. 5 JSON `name`, an `accel_name` attribute in a parsed `.mlir` —
//! refuse every other spelling. The loop order
//! (`AcceleratorConfig::loop_order`): a function of the selected flow's
//! structure, whatever key `opcode_flow_map` files it under. The tile
//! ([`Device::tile_defect`]): the named device's to accept or refuse.

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_accelerators::Device;
use axi4mlir_config::presets::matmul_flows;
use axi4mlir_config::SystemConfig;
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, PipelineBuilder, Session};
use axi4mlir_core::pipeline::build_matmul_module;
use axi4mlir_dialects::lint::{check_isa, lint_module, LINT_FIFO_CAPACITY, LINT_ISA_OPCODE};
use axi4mlir_heuristics::space::AccelInstance;
use axi4mlir_ir::parser::parse_module;
use axi4mlir_ir::printer::print_op;
use axi4mlir_support::diag::DiagnosticEngine;
use axi4mlir_workloads::matmul::MatMulProblem;

/// The `tests/malformed/unknown_device.json` description — a valid
/// v1-opcode MatMul accelerator but for its name — renamed and resized.
fn v1_opcode_document(name: &str, size: u32) -> String {
    include_str!("../../../tests/malformed/unknown_device.json")
        .replace("\"mine\"", &format!("\"{name}\""))
        .replace("[4, 4, 4]", &format!("[{size}, {size}, {size}]"))
}

/// The parser's table, and one story downstream of it: for a v1-opcode
/// configuration under every spelling the parser accepts, the device the
/// lint judges the opcodes by, the device the session builds and the
/// name the report carries are the same [`Device`].
#[test]
fn the_name_parsers_and_the_device_decision_agree() {
    use MatMulVersion::{V1, V2, V3, V4};
    let workload = MatMulWorkload::new(MatMulProblem::square(16));
    for (version, n) in [(V1, 1), (V2, 2), (V3, 3), (V4, 4)] {
        for size in [4u32, 8, 16] {
            let name = format!("v{n}_{size}");
            let device = Device::parse(&name).unwrap_or_else(|| panic!("`{name}` is a device"));
            assert_eq!(device, Device::MatMul { version, size: size.try_into().unwrap() });
            assert_eq!(device.to_string(), name, "Display is the spelling parse reads");
            let instance = AccelInstance::parse(&name).expect("the enumerators' handle agrees");
            assert_eq!(Device::from(instance), device);

            let system = SystemConfig::from_json(&v1_opcode_document(&name, size)).unwrap();
            let config = system.accelerator(&name).expect("found under its spelling").clone();
            assert_eq!(config.device, device, "the JSON boundary parsed `{name}`");
            let decodes_v1 = check_isa(config.device, &config.opcode_map).is_empty();
            assert_eq!(decodes_v1, version == V1, "the lint judges `{name}` by its generation");

            let mut session = Session::for_sweep();
            let outcome = session.run(&workload, &CompilePlan::for_accelerator(config));
            assert_eq!(session.soc().accel.name(), name, "the session built that device");
            match outcome {
                Ok(report) => {
                    assert!(version == V1 && report.verified, "`{name}` ran v1 opcodes");
                    assert_eq!(report.accel_name, name);
                }
                Err(err) => assert!(version != V1, "`{name}`: {}", err.message),
            }
        }
    }
    assert_eq!(Device::parse("conv2d"), Some(Device::Conv2d));
    assert_eq!(Device::Conv2d.to_string(), "conv2d");
    assert_eq!(AccelInstance::parse("conv2d"), None, "no MatMul instance");
    for text in ["v3_0", "v3_-4", "v9_8", "v3", "v3_banana", "conv", "mine", "v3_08", "V3_8", ""] {
        assert_eq!(Device::parse(text), None, "`{text}`");
        assert_eq!(AccelInstance::parse(text), None, "`{text}`");
    }
}

/// A name is outside input at two boundaries. A Fig. 5 document whose
/// `name` is no device (or not one for its `kernel`) is refused by name —
/// `v3_0` once passed validation and panicked in the model's constructor,
/// `mine` ran on a `v3_4` after a lint that checked nothing — and an
/// `accel_name` attribute that names no device is a `lint::isa-opcode`
/// error, not a switch that turns the ISA check off.
#[test]
fn a_name_asking_for_an_unbuildable_device_is_a_diagnostic_not_a_panic() {
    for name in ["mine", "conv_like", "v3", "v3_0", "v3_-4", "v9_8", "conv2d"] {
        let err = SystemConfig::from_json(&v1_opcode_document(name, 4)).unwrap_err();
        assert!(err.message.contains(&format!("accelerator {name}:")), "{name}: {}", err.message);
    }

    let fixture = include_str!("../../../tests/lint/isa_opcode.mlir");
    for (accel_name, unchecked) in [("v1_4", false), ("mine", true)] {
        let text =
            fixture.replace("accel_name = \"v1_4\"", &format!("accel_name = \"{accel_name}\""));
        let module = parse_module(&text).expect("the fixture is well-formed text");
        let mut diags = DiagnosticEngine::new();
        lint_module(&module.ctx, module.top(), &mut diags).expect_err("an undecodable opcode");
        let isa: Vec<_> = diags
            .diagnostics()
            .iter()
            .filter(|d| d.code.as_deref() == Some(LINT_ISA_OPCODE))
            .collect();
        assert!(!isa.is_empty(), "`{accel_name}`: {}", diags.render());
        let says_unchecked = isa.iter().any(|d| d.message.contains("names no modelled device"));
        assert_eq!(says_unchecked, unchecked, "`{accel_name}`: {}", diags.render());
    }
}

/// The `tests/malformed/tile_device_mismatch.json` description — valid v3
/// opcodes — as a v3_4 (so its tile is right) offering one flow, `flow`,
/// filed under `key`.
fn v3_4_document(key: &str, flow: &str) -> String {
    include_str!("../../../tests/malformed/tile_device_mismatch.json")
        .replace("\"v3_8\"", "\"v3_4\"")
        .replace("\"Ns\"", &format!("\"{key}\""))
        .replace("(sA sB cC rC)", flow)
}

/// An `opcode_flow_map` key is a free name: each v3 flow compiles to the
/// same bytes (the `axi4mlir-opt --config` path) and runs to the same
/// counters under its own strategy's name, under names no strategy has,
/// and under *another* strategy's name. At the parent the key chose the
/// loop order, so `(sA (sB cC rC))` keyed `keepA` or `zz` was a compile
/// error ("the permutation does not legalize this stationarity"), a
/// B-stationary flow keyed `As` likewise, and `(sA sB cC rC)` keyed `Bs`
/// printed a (k, n, m) nest instead of `Ns`'s (m, n, k).
#[test]
fn a_flow_key_is_a_free_name_the_flow_decides_the_loop_order() {
    let problem = MatMulProblem::square(8);
    let compile_and_run = |key: &str, flow: &str| {
        let system = SystemConfig::from_json(&v3_4_document(key, flow)).expect(key);
        let config = system.accelerators[0].clone();
        let mut module = build_matmul_module(problem);
        let mut pipeline = PipelineBuilder::new().accelerator(config.clone()).build();
        pipeline.run(&mut module).unwrap_or_else(|d| panic!("{flow} keyed {key}: {}", d.message));
        let plan = CompilePlan::for_accelerator(config);
        let report = Session::for_sweep().run(&MatMulWorkload::new(problem), &plan).expect(key);
        assert!(report.verified, "{flow} keyed {key}");
        (print_op(&module.ctx, module.top()), report.counters)
    };
    for &(strategy, flow) in matmul_flows(MatMulVersion::V3) {
        let own = compile_and_run(strategy.short_name(), flow);
        for key in ["keepA", "zz", "Ns", "As", "Bs", "Cs"] {
            assert!(
                own == compile_and_run(key, flow),
                "{flow}: keyed {key} differs from {strategy}"
            );
        }
    }
}

/// An `accel_dim` the `accel_name` device does not run is a lint error —
/// the parent printed `ok` for this input and the run it describes died
/// on the bus (`recv requested 16 beats but accelerator produced 0`).
#[test]
fn a_tile_its_device_does_not_run_is_a_lint_error() {
    let golden = include_str!("../../../tests/golden/matmul16_v3_as_tiled.mlir");
    for (accel_name, refused) in [("v3_4", false), ("v3_8", true), ("v4_4", false), ("v4_8", true)]
    {
        let text =
            golden.replace("accel_name = \"v3_4\"", &format!("accel_name = \"{accel_name}\""));
        let module = parse_module(&text).expect("the golden is well-formed text");
        let mut diags = DiagnosticEngine::new();
        let verdict = lint_module(&module.ctx, module.top(), &mut diags);
        assert_eq!(verdict.is_err(), refused, "`{accel_name}`: {}", diags.render());
        let blames_the_tile = diags.diagnostics().iter().any(|d| {
            d.code.as_deref() == Some(LINT_FIFO_CAPACITY) && d.message.contains("`accel_dim`")
        });
        assert_eq!(blames_the_tile, refused, "`{accel_name}`: {}", diags.render());
    }
}
