//! Failure-injection tests: the toolchain must reject broken
//! configurations and driver-generation bugs *loudly*, because on real
//! hardware they hang the board.

use axi4mlir::accelerators::isa;
use axi4mlir::accelerators::matmul::{MatMulAccel, MatMulVersion};
use axi4mlir::ir::attrs::OpcodeMap;
use axi4mlir::prelude::*;
use axi4mlir::runtime::dma_lib;
use axi4mlir::runtime::Soc;
use axi4mlir::sim::axi::StreamAccelerator;
use axi4mlir::support::diag::Diagnostic;

/// Compiles and runs `config` on a one-shot session, expecting failure.
fn run_err(config: AcceleratorConfig, dims: i64) -> Diagnostic {
    let plan = CompilePlan::for_accelerator(config);
    Session::for_sweep().run(&MatMulWorkload::new(MatMulProblem::square(dims)), &plan).unwrap_err()
}

/// An A-stationary flow with a permutation that does not legalize it must
/// be rejected at compile time, not hang at runtime.
#[test]
fn illegal_stationarity_rejected_at_compile_time() {
    let mut config = AcceleratorConfig::matmul(MatMulVersion::V3, 4);
    // Force the As flow but sabotage the permutation by selecting As while
    // the annotate pass is given the identity permutation.
    config = config.with_selected_flow("As");
    use axi4mlir::compiler::annotate::MatchAndAnnotatePass;
    use axi4mlir::compiler::codegen::GenerateAccelDriverPass;
    use axi4mlir::compiler::pipeline::build_matmul_module;
    use axi4mlir::ir::pass::PassManager;
    let mut module = build_matmul_module(MatMulProblem::square(8));
    let mut pm = PassManager::new();
    pm.add(Box::new(MatchAndAnnotatePass::new(
        config,
        vec!["m".to_owned(), "n".to_owned(), "k".to_owned()], // identity: illegal for As
        None,
    )));
    pm.add(Box::new(GenerateAccelDriverPass::default()));
    let err = pm.run(&mut module).unwrap_err();
    assert!(err.message.contains("does not legalize"), "{}", err.message);
}

/// Tiles that do not divide the problem are a compile-time error.
#[test]
fn non_dividing_tiles_rejected() {
    let config = AcceleratorConfig::matmul(MatMulVersion::V3, 8);
    let err = run_err(config, 20);
    assert!(err.message.contains("must divide"), "{}", err.message);
}

/// A flow referencing an opcode the accelerator does not define fails
/// configuration validation.
#[test]
fn undefined_opcode_in_flow_rejected() {
    let mut config = AcceleratorConfig::matmul(MatMulVersion::V3, 4);
    config.opcode_map = OpcodeMap::parse(
        "opcode_map<sA = [send_literal(0x22), send(0)], sB = [send_literal(0x23), send(1)], \
         rC = [send_literal(0x24), recv(2)], reset = [send_literal(0xFF)]>",
    )
    .unwrap(); // note: no `cC`
    let err = run_err(config, 8);
    assert!(err.message.contains("undefined opcode `cC`"), "{}", err.message);
}

/// Driving an accelerator with an opcode its version does not implement is
/// detected by the device model (protocol error), which the pipeline turns
/// into a hard failure.
#[test]
fn wrong_isa_surfaces_as_protocol_error() {
    // Build a v1 device but hand the pipeline a v3-style configuration by
    // lying about the device.
    let mut config = AcceleratorConfig::matmul(MatMulVersion::V3, 4);
    config.device = AcceleratorConfig::matmul(MatMulVersion::V1, 4).device;
    let err = run_err(config, 8);
    assert!(
        err.message.contains("protocol errors") || err.message.contains("beats"),
        "{}",
        err.message
    );
}

/// Underflowing the output stream (asking for results before any compute)
/// is the simulated bus hang and must be reported.
#[test]
fn recv_underflow_is_a_hard_error() {
    let mut soc = Soc::new(Box::new(MatMulAccel::new(MatMulVersion::V3, 4)));
    dma_lib::dma_init(&mut soc, 0, 1024, 1024);
    let err = dma_lib::dma_start_recv(&mut soc, 64, 0).unwrap_err();
    assert!(err.to_string().contains("hang"), "{err}");
}

/// Oversized v4 tile configurations are protocol errors on the device.
#[test]
fn v4_capacity_violation_detected() {
    let mut accel = MatMulAccel::new(MatMulVersion::V4, 16);
    let mut counters = axi4mlir::sim::counters::PerfCounters::new();
    for w in [isa::OP_CFG_DIMS, 256, 256, 256] {
        accel.consume_word(w, &mut counters);
    }
    assert_eq!(accel.protocol_errors(), 1);
}

/// The staging buffer size from the configuration is enforced: a tile
/// bigger than the DMA region cannot be staged.
#[test]
fn staging_region_overflow_rejected() {
    let mut config = AcceleratorConfig::matmul(MatMulVersion::V3, 8);
    config.dma.input_buffer_size = 64; // 16 words: an 8x8 tile cannot fit
    let err = run_err(config, 8);
    assert!(
        err.message.contains("exceeds staging region") || err.message.contains("out-of-bounds"),
        "{}",
        err.message
    );
}

/// Malformed JSON configuration errors carry actionable messages.
#[test]
fn json_errors_are_actionable() {
    let missing_kernel = r#"{
      "cpu": { "cache-levels": [32768] },
      "accelerators": [{
        "name": "x",
        "dma_config": { "id": 0, "inputAddress": 0, "inputBufferSize": 64,
                        "outputAddress": 64, "outputBufferSize": 64 },
        "kernel": "linalg.fill",
        "accel_size": [4, 4, 4],
        "dims": ["m", "n", "k"],
        "data": { "A": ["m", "k"], "B": ["k", "n"], "C": ["m", "n"] },
        "opcode_map": "opcode_map<a = [send(0)]>",
        "opcode_flow_map": { "f": "(a)" },
        "selected_flow": "f"
      }]
    }"#;
    let err = SystemConfig::from_json(missing_kernel).unwrap_err();
    assert!(err.message.contains("unsupported kernel"), "{}", err.message);

    // A `name` that is no device, or not one for its `kernel`, is refused
    // by name with what would have been accepted.
    let unknown = include_str!("malformed/unknown_device.json");
    let mismatch = include_str!("malformed/name_kernel_mismatch.json");
    for (document, blamed, says) in [
        (unknown.to_owned(), "accelerator mine:", "`mine` is no device this simulator models"),
        (unknown.replace("\"mine\"", "\"v3_0\""), "accelerator v3_0:", "v4_SIZE"),
        (mismatch.to_owned(), "accelerator conv2d:", "for kernel `linalg.matmul`"),
    ] {
        let err = SystemConfig::from_json(&document).unwrap_err();
        assert!(err.message.contains(blamed), "{}", err.message);
        assert!(err.message.contains(says), "{}", err.message);
    }

    // An `accel_size` the named device does not run, or a `data_type` the
    // simulator does not model, is refused naming the accelerator and the
    // member (the first used to die at run time on a hung bus, the second
    // ran as int32).
    let tile = include_str!("malformed/tile_device_mismatch.json");
    let float = include_str!("malformed/float_data.json");
    let retiled = |name: &str, size: &str| {
        tile.replace("\"v3_8\"", &format!("\"{name}\"")).replace("[4, 4, 4]", size)
    };
    for (document, accelerator, member, says) in [
        (tile.to_owned(), "v3_8", "`accel_size`", "the device's own [SIZE, SIZE, SIZE]"),
        (retiled("v3_4", "[8, 8, 8]"), "v3_4", "`accel_size`", "the device's own"),
        (retiled("v4_8", "[12, 8, 8]"), "v4_8", "`accel_size`", "multiples of SIZE"),
        (retiled("v4_16", "[64, 64, 64]"), "v4_16", "`accel_size`", "tile memory"),
        (float.to_owned(), "v1_4", "`data_type`", "int32"),
    ] {
        let err = SystemConfig::from_json(&document).unwrap_err();
        assert!(err.message.contains(&format!("accelerator {accelerator}:")), "{}", err.message);
        assert!(err.message.contains(member), "{}", err.message);
        assert!(err.message.contains(says), "{}", err.message);
    }
    SystemConfig::from_json(&retiled("v3_4", "[4, 4, 4]")).expect("its own tile");
    SystemConfig::from_json(&retiled("v4_8", "[16, 8, 24]")).expect("base multiples in capacity");
}

/// A pre-annotated conv whose operands cannot be a convolution's — the
/// `tests/malformed/*.mlir` fixtures — is a diagnostic naming the
/// operand, never an index panic in codegen.
#[test]
fn malformed_conv_operands_are_diagnostics() {
    use axi4mlir::compiler::driver::PipelineBuilder;
    use axi4mlir::ir::parser::parse_module;
    for (fixture, blamed) in [
        ("conv_rank2", "conv input operand must be a rank-4 memref"),
        ("conv_two_operands", "(input, filter, output), found 2"),
    ] {
        let path = format!("{}/tests/malformed/{fixture}.mlir", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut module = parse_module(&text).expect("the fixture is well-formed text");
        let err = PipelineBuilder::new().pre_annotated().build().run(&mut module).unwrap_err();
        assert!(err.message.contains(blamed), "{fixture}: {}", err.message);
    }
}
