//! JSON configuration files (Fig. 5).
//!
//! ```json
//! {
//!   "cpu": { "cache-levels": ["32K", "512K"], "cache-types": ["data", "shared"] },
//!   "accelerators": [{
//!     "name": "v3_8", "version": "1.0", "description": "...",
//!     "dma_config": { "id": 0, "inputAddress": 66, "inputBufferSize": 65280,
//!                     "outputAddress": 65346, "outputBufferSize": 65280 },
//!     "kernel": "linalg.matmul",
//!     "accel_size": [8, 8, 8],
//!     "data_type": "int32",
//!     "dims": ["m", "n", "k"],
//!     "data": { "A": ["m", "k"], "B": ["k", "n"], "C": ["m", "n"] },
//!     "opcode_map": "opcode_map<sA = [send_literal(0x22), send(0)], ...>",
//!     "opcode_flow_map": { "Ns": "(sA sB cC rC)", "Cs": "((sA sB cC) rC)" },
//!     "selected_flow": "Ns",
//!     "init_opcodes": "(reset)"
//!   }]
//! }
//! ```
//!
//! Cache sizes accept integers or `"32K"`/`"1M"` strings. The `"data"`
//! object's member order defines the operand order (A = argument 0, ...),
//! which the order-preserving [`JsonValue`] object representation keeps.

use axi4mlir_accelerators::Device;
use axi4mlir_ir::attrs::{OpcodeFlow, OpcodeMap};
use axi4mlir_ir::kind::OpKind;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};

use crate::accelerator::{AcceleratorConfig, DmaInfo, KernelKind};
use crate::cpu::CpuSpec;

/// Reads a list of sizes given as integers or `"32K"` strings.
pub(crate) fn sizes_from(members: &Members<'_>, field: &str) -> Result<Vec<u64>, Diagnostic> {
    members
        .array(field)?
        .iter()
        .map(|item| match item {
            JsonValue::Int(_) => {
                item.as_u64().ok_or_else(|| members.invalid(field, "sizes must be non-negative"))
            }
            JsonValue::Str(text) => parse_size(text).map_err(Diagnostic::error),
            other => Err(members.invalid(
                field,
                &format!("entries must be integers or size strings, found {}", other.type_name()),
            )),
        })
        .collect()
}

/// Parses `"32K"`, `"512k"`, `"1M"`, or a plain integer string into bytes.
///
/// # Errors
///
/// Returns a message if the string is not a size.
fn parse_size(text: &str) -> Result<u64, String> {
    let t = text.trim();
    let (digits, multiplier) = match t.chars().last() {
        Some('k') | Some('K') => (&t[..t.len() - 1], 1024),
        Some('m') | Some('M') => (&t[..t.len() - 1], 1024 * 1024),
        _ => (t, 1),
    };
    digits
        .trim()
        .parse::<u64>()
        .map(|v| v * multiplier)
        .map_err(|_| format!("invalid size `{text}` (expected e.g. 32768 or \"32K\")"))
}

/// A parsed, validated system configuration: the host CPU plus one or more
/// accelerators.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Host CPU description.
    pub cpu: CpuSpec,
    /// Validated accelerator descriptions.
    pub accelerators: Vec<AcceleratorConfig>,
}

impl SystemConfig {
    /// Parses and validates a Fig. 5 JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for JSON syntax errors, grammar errors in
    /// the embedded `opcode_map`/`opcode_flow` strings, or semantic
    /// validation failures.
    pub fn from_json(text: &str) -> Result<SystemConfig, Diagnostic> {
        let doc = JsonValue::parse(text)
            .map_err(|e| Diagnostic::error(format!("configuration JSON error: {}", e.message)))?;
        let doc = doc.members("configuration")?;
        let cpu = CpuSpec::from_value(doc.require("cpu")?)?;
        let accelerators =
            doc.array("accelerators")?.iter().map(convert).collect::<Result<_, _>>()?;
        Ok(SystemConfig { cpu, accelerators })
    }

    /// The accelerator with the given name.
    pub fn accelerator(&self, name: &str) -> Option<&AcceleratorConfig> {
        self.accelerators.iter().find(|a| a.device.to_string() == name)
    }
}

fn convert(value: &JsonValue) -> Result<AcceleratorConfig, Diagnostic> {
    let name = value.members("every accelerator")?.str("name")?;
    let context = format!("accelerator {name}");
    let blame =
        |what: &str, d: Diagnostic| Diagnostic::error(format!("{context}: {what}{}", d.message));
    let m = value.members(&context)?;

    let (matmul, conv) = (KernelKind::MatMul.op_kind(), KernelKind::Conv2dNchwFchw.op_kind());
    let kernel_name = m.str("kernel")?;
    let kernel = KernelKind::from_op_kind(&OpKind::parse(kernel_name)).ok_or_else(|| {
        Diagnostic::error(format!(
            "{context}: unsupported kernel `{kernel_name}` (expected {matmul} or {conv})"
        ))
    })?;
    // Where a Fig. 5 `name` becomes a device, or is refused: nothing
    // downstream reads the text again.
    let no_device = || {
        Diagnostic::error(format!(
            "{context}: `{name}` is no device this simulator models for kernel `{kernel_name}` \
             (it models v1_SIZE, v2_SIZE, v3_SIZE, v4_SIZE — SIZE a positive integer — for \
             {matmul}, and conv2d for {conv})"
        ))
    };
    let device = Device::parse(name).ok_or_else(no_device)?;

    let dma_members = m.object("dma_config")?;
    let dma = DmaInfo {
        id: dma_members.uint("id")?,
        input_address: dma_members.u64("inputAddress")?,
        input_buffer_size: dma_members.u64("inputBufferSize")?,
        output_address: dma_members.u64("outputAddress")?,
        output_buffer_size: dma_members.u64("outputBufferSize")?,
    };

    let opcode_map = OpcodeMap::parse(m.str("opcode_map")?).map_err(|d| blame("", d))?;

    let mut flows = Vec::new();
    let flow_members = m.object("opcode_flow_map")?;
    for (flow_name, _) in flow_members.iter() {
        let flow = OpcodeFlow::parse(flow_members.str(flow_name)?)
            .map_err(|d| blame(&format!("flow `{flow_name}`: "), d))?;
        flows.push((flow_name.to_owned(), flow));
    }

    let mut data = Vec::new();
    let data_members = m.object("data")?;
    for (arg, _) in data_members.iter() {
        data.push((arg.to_owned(), data_members.str_list(arg)?));
    }

    let init_opcodes = match m.get("init_opcodes") {
        None | Some(JsonValue::Null) => Vec::new(),
        Some(_) => OpcodeFlow::parse(m.str("init_opcodes")?)
            .map_err(|d| blame("init_opcodes: ", d))?
            .opcode_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
    };

    // The simulator models `int32` only: a member that decides nothing.
    if m.opt("data_type", Members::str)?.is_some_and(|ty| ty != "int32") {
        return Err(m.invalid("data_type", "must be \"int32\", the one element type modelled"));
    }
    let config = AcceleratorConfig {
        device,
        dma,
        dims: m.str_list("dims")?,
        accel_dims: m.i64_list("accel_size")?,
        data,
        opcode_map,
        flows,
        selected_flow: m.str("selected_flow")?.to_owned(),
        init_opcodes,
    };
    if config.kernel() != kernel {
        return Err(no_device());
    }
    if let Some(must) = device.tile_defect(&config.accel_dims) {
        return Err(m.invalid("accel_size", must));
    }
    config.validate()?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_accelerators::matmul::MatMulVersion;

    /// A faithful Fig. 5-style document for a v3_8 accelerator.
    pub(crate) const SAMPLE: &str = r#"{
      "cpu": { "cache-levels": ["32K", "512K"], "cache-types": ["data", "shared"] },
      "accelerators": [{
        "name": "v3_8",
        "version": "1.0",
        "description": "MatMul 8x8x8 with input/output reuse",
        "dma_config": { "id": 0, "inputAddress": 66, "inputBufferSize": 65280,
                        "outputAddress": 65346, "outputBufferSize": 65280 },
        "kernel": "linalg.matmul",
        "accel_size": [8, 8, 8],
        "data_type": "int32",
        "dims": ["m", "n", "k"],
        "data": { "A": ["m", "k"], "B": ["k", "n"], "C": ["m", "n"] },
        "opcode_map": "opcode_map<sA = [send_literal(0x22), send(0)], sB = [send_literal(0x23), send(1)], cC = [send_literal(0xF0)], rC = [send_literal(0x24), recv(2)], reset = [send_literal(0xFF)]>",
        "opcode_flow_map": { "Ns": "(sA sB cC rC)", "As": "(sA (sB cC rC))", "Cs": "((sA sB cC) rC)" },
        "selected_flow": "Cs",
        "init_opcodes": "(reset)"
      }]
    }"#;

    #[test]
    fn parses_fig5_style_document() {
        let sys = SystemConfig::from_json(SAMPLE).unwrap();
        assert_eq!(sys.cpu.l1_bytes(), 32 * 1024);
        assert_eq!(sys.accelerators.len(), 1);
        let acc = sys.accelerator("v3_8").unwrap();
        assert_eq!(acc.kernel(), KernelKind::MatMul);
        assert_eq!(acc.accel_dims, vec![8, 8, 8]);
        assert_eq!(acc.selected_flow, "Cs");
        assert_eq!(acc.dma.input_buffer_size, 65280);
        assert_eq!(acc.init_opcodes, vec!["reset"]);
        // Operand order follows the JSON member order.
        let operands: Vec<&str> = acc.data.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(operands, ["A", "B", "C"]);
    }

    #[test]
    fn parsed_config_equals_preset_modulo_flows() {
        let sys = SystemConfig::from_json(SAMPLE).unwrap();
        let parsed = sys.accelerator("v3_8").unwrap();
        let preset = AcceleratorConfig::matmul(MatMulVersion::V3, 8).with_selected_flow("Cs");
        assert_eq!(parsed.opcode_map, preset.opcode_map);
        assert_eq!(parsed.accel_dims, preset.accel_dims);
        assert_eq!(parsed.flow("Cs"), preset.flow("Cs"));
    }

    #[test]
    fn bad_kernel_is_rejected() {
        for kernel in ["linalg.fill", "linalg.generic", "test.op"] {
            let text = SAMPLE.replace("linalg.matmul", kernel);
            let err = SystemConfig::from_json(&text).unwrap_err();
            let expected = format!(
                "unsupported kernel `{kernel}` (expected linalg.matmul or linalg.conv_2d_nchw_fchw)"
            );
            assert!(err.message.ends_with(&expected), "{}", err.message);
        }
    }

    #[test]
    fn bad_flow_string_is_rejected() {
        let text = SAMPLE.replace("(sA sB cC rC)", "(sA sB cC rC");
        let err = SystemConfig::from_json(&text).unwrap_err();
        assert!(err.message.contains("flow `Ns`"), "{}", err.message);
    }

    #[test]
    fn undefined_selected_flow_is_rejected() {
        let text = SAMPLE.replace("\"selected_flow\": \"Cs\"", "\"selected_flow\": \"Zs\"");
        let err = SystemConfig::from_json(&text).unwrap_err();
        assert!(err.message.contains("selected_flow"));
    }

    #[test]
    fn malformed_json_is_reported() {
        let err = SystemConfig::from_json("{not json").unwrap_err();
        assert!(err.message.contains("JSON error"));
    }

    #[test]
    fn missing_fields_name_the_field() {
        let text = SAMPLE.replace("\"opcode_map\":", "\"not_opcode_map\":");
        let err = SystemConfig::from_json(&text).unwrap_err();
        assert!(err.message.contains("missing `opcode_map`"), "{}", err.message);
    }

    #[test]
    fn out_of_range_dma_id_is_rejected() {
        let text = SAMPLE.replace("\"id\": 0", "\"id\": 4294967296");
        let err = SystemConfig::from_json(&text).unwrap_err();
        assert!(err.message.contains("`dma_config.id` must fit in 32 bits"), "{}", err.message);
    }

    #[test]
    fn size_suffix_parsing() {
        assert_eq!(parse_size("32K").unwrap(), 32768);
        assert_eq!(parse_size("512k").unwrap(), 512 * 1024);
        assert_eq!(parse_size("1M").unwrap(), 1024 * 1024);
        assert_eq!(parse_size("12345").unwrap(), 12345);
        assert!(parse_size("huge").is_err());
    }
}
