//! The validated accelerator description.

use std::collections::BTreeMap;

use axi4mlir_accelerators::Device;
use axi4mlir_ir::affine::{AffineExpr, AffineMap};
use axi4mlir_ir::attrs::{Attribute, FlowElem, OpcodeAction, OpcodeFlow, OpcodeMap};
use axi4mlir_ir::kind::OpKind;
use axi4mlir_support::diag::Diagnostic;

/// Kernels AXI4MLIR can offload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// `linalg.matmul` / matmul-traited `linalg.generic`.
    MatMul,
    /// `linalg.conv_2d_nchw_fchw`.
    Conv2dNchwFchw,
}

impl KernelKind {
    /// The op the configuration's `"kernel"` field names.
    pub fn op_kind(self) -> OpKind {
        match self {
            KernelKind::MatMul => OpKind::LinalgMatmul,
            KernelKind::Conv2dNchwFchw => OpKind::LinalgConv2dNchwFchw,
        }
    }

    /// The kernel a `"kernel"` field's op names, if it names one.
    pub fn from_op_kind(kind: &OpKind) -> Option<Self> {
        match kind {
            OpKind::LinalgMatmul => Some(KernelKind::MatMul),
            OpKind::LinalgConv2dNchwFchw => Some(KernelKind::Conv2dNchwFchw),
            _ => None,
        }
    }
}

/// The `dma_config` entry (Fig. 6a `dma_init_config`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaInfo {
    /// DMA engine id.
    pub id: u32,
    /// Device-space address of the input staging buffer.
    pub input_address: u64,
    /// Input staging capacity in bytes.
    pub input_buffer_size: u64,
    /// Device-space address of the output staging buffer.
    pub output_address: u64,
    /// Output staging capacity in bytes.
    pub output_buffer_size: u64,
}

impl Default for DmaInfo {
    fn default() -> Self {
        // The Fig. 6a example values: 0xFF00-byte buffers.
        Self {
            id: 0,
            input_address: 0x42,
            input_buffer_size: 0xFF00,
            output_address: 0xFF42,
            output_buffer_size: 0xFF00,
        }
    }
}

/// A fully described accelerator: the in-memory form of one entry of the
/// Fig. 5 `"accelerators"` array.
#[derive(Clone, Debug, PartialEq)]
pub struct AcceleratorConfig {
    /// The device it describes; its `Display` (`v3_16`, `conv2d`) is the
    /// accelerator's name in diagnostics, reports and `accel_name`.
    pub device: Device,
    /// DMA configuration.
    pub dma: DmaInfo,
    /// Loop dimension names, outermost problem order (e.g. `m, n, k`).
    pub dims: Vec<String>,
    /// Tile size per dimension (`0` = dimension is not tiled; Fig. 15a).
    pub accel_dims: Vec<i64>,
    /// Data arguments in operand order: `(name, dims each uses)`
    /// (Fig. 5: `"data": {"A": [m,k], "B": [k,n], "C": [m,n]}`).
    pub data: Vec<(String, Vec<String>)>,
    /// The micro-ISA description.
    pub opcode_map: OpcodeMap,
    /// Named legal flows (Fig. 5 `opcode_flow_map`).
    pub flows: Vec<(String, OpcodeFlow)>,
    /// Key into `flows` to use (a free name: the flow decides the order).
    pub selected_flow: String,
    /// Opcodes sent once per kernel launch (Fig. 6a `init_opcodes`).
    pub init_opcodes: Vec<String>,
}

impl AcceleratorConfig {
    /// Which kernel the device implements.
    pub fn kernel(&self) -> KernelKind {
        match self.device {
            Device::MatMul { .. } => KernelKind::MatMul,
            Device::Conv2d => KernelKind::Conv2dNchwFchw,
        }
    }

    /// The flow selected by `selected_flow`.
    ///
    /// # Panics
    ///
    /// Panics if the config was not validated and the key is missing.
    pub fn selected(&self) -> &OpcodeFlow {
        self.flow(&self.selected_flow).expect("selected_flow must name a defined flow")
    }

    /// Looks up a flow by name.
    pub fn flow(&self, name: &str) -> Option<&OpcodeFlow> {
        self.flows.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }

    /// The loop order (outermost first) `plan::place_flow` accepts `flow`
    /// under: the dims of the operands that opcodes in *enclosing* scopes
    /// send or receive first, scope by scope, the rest in configuration
    /// order — `(sA (sB cC rC))` keeps `A[m, k]`, so it runs `(m, k, n)`.
    pub fn loop_order(&self, flow: &OpcodeFlow) -> Vec<String> {
        let (mut outer, mut scope) = (Vec::new(), &flow.root);
        // Down the scope chain (`place_flow` refuses sibling scopes).
        while let Some(FlowElem::Scope(inner)) =
            scope.iter().find(|elem| matches!(elem, FlowElem::Scope(_)))
        {
            let opcodes = scope.iter().filter_map(|elem| match elem {
                FlowElem::Opcode(name) => self.opcode_map.get(name),
                FlowElem::Scope(_) => None,
            });
            for action in opcodes.flatten() {
                if let OpcodeAction::Send { arg } | OpcodeAction::Recv { arg } = action {
                    let operand = self.data.get(*arg as usize);
                    outer.extend(operand.iter().flat_map(|(_, dims)| dims.iter().cloned()));
                }
            }
            scope = inner;
        }
        crate::flow::outer_first(&self.dims, &outer)
    }

    /// Selects a different flow (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the flow is not defined.
    #[must_use]
    pub fn with_selected_flow(mut self, name: &str) -> Self {
        assert!(self.flow(name).is_some(), "flow `{name}` is not defined for {}", self.device);
        self.selected_flow = name.to_owned();
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Reports the first of: dimension-count mismatches, flows referencing
    /// unknown opcodes, actions referencing out-of-range arguments,
    /// `send_idx` naming unknown dims, missing selected flow, or unknown
    /// init opcodes.
    pub fn validate(&self) -> Result<(), Diagnostic> {
        if self.dims.len() != self.accel_dims.len() {
            return Err(Diagnostic::error(format!(
                "accelerator {}: {} dims but {} accel_dim entries",
                self.device,
                self.dims.len(),
                self.accel_dims.len()
            )));
        }
        for (arg, dims) in &self.data {
            for d in dims {
                if !self.dims.contains(d) {
                    return Err(Diagnostic::error(format!(
                        "accelerator {}: data argument {arg} uses unknown dim `{d}`",
                        self.device
                    )));
                }
            }
        }
        for (_, actions) in self.opcode_map.iter().map(|(n, a)| (n.to_owned(), a)) {
            for action in actions {
                match action {
                    OpcodeAction::Send { arg }
                    | OpcodeAction::Recv { arg }
                    | OpcodeAction::SendDim { arg, .. } => {
                        if *arg as usize >= self.data.len() {
                            return Err(Diagnostic::error(format!(
                                "accelerator {}: action {action} references argument {arg} but only {} data arguments exist",
                                self.device,
                                self.data.len()
                            )));
                        }
                    }
                    OpcodeAction::SendIdx { dim } => {
                        if !self.dims.contains(dim) {
                            return Err(Diagnostic::error(format!(
                                "accelerator {}: send_idx references unknown dim `{dim}`",
                                self.device
                            )));
                        }
                    }
                    OpcodeAction::SendLiteral { .. } => {}
                }
            }
        }
        for (flow_name, flow) in &self.flows {
            for opcode in flow.opcode_names() {
                if self.opcode_map.get(opcode).is_none() {
                    return Err(Diagnostic::error(format!(
                        "accelerator {}: flow `{flow_name}` references undefined opcode `{opcode}`",
                        self.device
                    )));
                }
            }
        }
        if self.flow(&self.selected_flow).is_none() {
            return Err(Diagnostic::error(format!(
                "accelerator {}: selected_flow `{}` is not defined",
                self.device, self.selected_flow
            )));
        }
        for opcode in &self.init_opcodes {
            if self.opcode_map.get(opcode).is_none() {
                return Err(Diagnostic::error(format!(
                    "accelerator {}: init opcode `{opcode}` is not defined",
                    self.device
                )));
            }
        }
        Ok(())
    }

    /// The `accel_dim` affine map of Fig. 6a:
    /// `map<(m, n, k) -> (4, 4, 4)>`.
    fn accel_dim_map(&self) -> AffineMap {
        AffineMap::new(
            self.dims.clone(),
            self.accel_dims.iter().map(|t| AffineExpr::Const(*t)).collect(),
        )
    }

    /// Builds the Fig. 6a trait-attribute dictionary to annotate a matched
    /// `linalg` op with (compiler flow step 3), including the selected flow
    /// and a `permutation_map` if `permutation` is given (outermost-first
    /// dim names).
    pub fn to_trait_attrs(
        &self,
        permutation: Option<&[&str]>,
    ) -> BTreeMap<&'static str, Attribute> {
        let mut attrs = BTreeMap::new();
        let mut dma = BTreeMap::new();
        dma.insert("id".to_owned(), Attribute::Int(i64::from(self.dma.id)));
        dma.insert("inputAddress".to_owned(), Attribute::Int(self.dma.input_address as i64));
        dma.insert("inputBufferSize".to_owned(), Attribute::Int(self.dma.input_buffer_size as i64));
        dma.insert("outputAddress".to_owned(), Attribute::Int(self.dma.output_address as i64));
        dma.insert(
            "outputBufferSize".to_owned(),
            Attribute::Int(self.dma.output_buffer_size as i64),
        );
        attrs.insert("dma_init_config", Attribute::Dict(dma));
        attrs.insert(
            "init_opcodes",
            Attribute::Flow(OpcodeFlow::new(
                self.init_opcodes.iter().map(|n| FlowElem::Opcode(n.clone())).collect(),
            )),
        );
        attrs.insert("accel_dim", Attribute::Map(self.accel_dim_map()));
        if let Some(perm) = permutation {
            let results = perm
                .iter()
                .map(|name| {
                    let idx = self
                        .dims
                        .iter()
                        .position(|d| d == name)
                        .expect("permutation must use configured dims");
                    AffineExpr::Dim(idx)
                })
                .collect();
            attrs.insert(
                "permutation_map",
                Attribute::Map(AffineMap::new(self.dims.clone(), results)),
            );
        }
        attrs.insert("opcode_map", Attribute::Opcodes(self.opcode_map.clone()));
        attrs.insert("opcode_flow", Attribute::Flow(self.selected().clone()));
        attrs.insert("accel_name", Attribute::Str(self.device.to_string()));
        attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_accelerators::matmul::MatMulVersion;

    fn v3() -> AcceleratorConfig {
        AcceleratorConfig::matmul(MatMulVersion::V3, 8)
    }

    #[test]
    fn kernel_names_roundtrip() {
        for k in [KernelKind::MatMul, KernelKind::Conv2dNchwFchw] {
            assert_eq!(KernelKind::from_op_kind(&OpKind::parse(k.op_kind().name())), Some(k));
        }
        for other in ["linalg.fill", "linalg.generic"] {
            assert_eq!(KernelKind::from_op_kind(&OpKind::parse(other)), None);
        }
    }

    #[test]
    fn presets_validate() {
        v3().validate().unwrap();
    }

    #[test]
    fn with_selected_flow_switches() {
        let cfg = v3().with_selected_flow("Cs");
        assert_eq!(cfg.selected_flow, "Cs");
        assert_eq!(cfg.selected().depth(), 2);
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn unknown_flow_panics() {
        let _ = v3().with_selected_flow("Zs");
    }

    #[test]
    fn validation_catches_bad_flow_reference() {
        let mut cfg = v3();
        cfg.flows.push((
            "broken".to_owned(),
            OpcodeFlow::new(vec![FlowElem::Opcode("nope".to_owned())]),
        ));
        let err = cfg.validate().unwrap_err();
        assert!(err.message.contains("undefined opcode `nope`"));
    }

    #[test]
    fn validation_catches_out_of_range_arg() {
        let mut cfg = v3();
        cfg.data.truncate(1);
        let err = cfg.validate().unwrap_err();
        assert!(err.message.contains("references argument"));
    }

    #[test]
    fn validation_catches_missing_selected_flow() {
        let mut cfg = v3();
        cfg.selected_flow = "missing".to_owned();
        let err = cfg.validate().unwrap_err();
        assert!(err.message.contains("selected_flow"));
    }

    #[test]
    fn trait_attrs_match_fig6a_shape() {
        let cfg = v3();
        let attrs = cfg.to_trait_attrs(Some(&["m", "k", "n"]));
        assert!(attrs.contains_key("dma_init_config"));
        assert!(attrs.contains_key("init_opcodes"));
        let accel_dim = attrs["accel_dim"].as_map().unwrap();
        assert_eq!(accel_dim.eval(&[0, 0, 0]), vec![8, 8, 8]);
        let perm = attrs["permutation_map"].as_map().unwrap();
        assert_eq!(perm.as_permutation(), Some(vec![0, 2, 1]), "(m,n,k) -> (m,k,n)");
        assert!(attrs["opcode_map"].as_opcodes().is_some());
        assert!(attrs["opcode_flow"].as_flow().is_some());
    }

    #[test]
    fn accel_dim_map_prints_like_paper() {
        let cfg = AcceleratorConfig::matmul(MatMulVersion::V3, 4);
        assert_eq!(cfg.accel_dim_map().to_string(), "(m, n, k) -> (4, 4, 4)");
    }
}
