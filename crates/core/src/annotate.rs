//! Step 3: match `linalg` operations and annotate them with the
//! accelerator trait attributes (Fig. 6a).

use axi4mlir_config::{AcceleratorConfig, KernelKind};
use axi4mlir_dialects::linalg;
use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::ops::{Module, OpId};
use axi4mlir_ir::pass::Pass;
use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};

/// Finds offloadable ops and attaches the accelerator trait.
///
/// Matching is trait-based, as in the paper: for MatMul accelerators any
/// `linalg.generic` with the Fig. 2a indexing maps and iterator types (or a
/// `linalg.matmul` named op, converted first); for Conv2D accelerators the
/// `linalg.conv_2d_nchw_fchw` named op.
pub struct MatchAndAnnotatePass {
    config: AcceleratorConfig,
    /// Loop permutation (outermost first, dim names), usually derived from
    /// the selected flow's stationarity.
    permutation: Vec<String>,
    /// Optional cache-tiling edge to record on the op (consumed by codegen).
    cache_tile: Option<i64>,
}

impl MatchAndAnnotatePass {
    /// Creates the pass for one accelerator.
    pub fn new(
        config: AcceleratorConfig,
        permutation: Vec<String>,
        cache_tile: Option<i64>,
    ) -> Self {
        Self { config, permutation, cache_tile }
    }

    fn matches(&self, module: &Module, op: OpId) -> bool {
        match self.config.kernel() {
            KernelKind::MatMul => linalg::is_matmul_generic(&module.ctx, op),
            kernel @ KernelKind::Conv2dNchwFchw => module.ctx.op(op).kind == kernel.op_kind(),
        }
    }
}

impl Pass for MatchAndAnnotatePass {
    fn name(&self) -> &str {
        "axi4mlir-match-and-annotate"
    }

    fn run(
        &mut self,
        module: &mut Module,
        _diags: &mut DiagnosticEngine,
    ) -> Result<(), Diagnostic> {
        self.config.validate()?;
        // Named matmuls become generics first (compiler flow box "convert
        // named ops to linalg.generic").
        let top = module.top();
        linalg::convert_named_to_generic(&mut module.ctx, top);
        let candidates: Vec<OpId> =
            module.ctx.walk(top).into_iter().filter(|op| self.matches(module, *op)).collect();
        if candidates.is_empty() {
            return Err(Diagnostic::error(format!(
                "no operation matches accelerator {} (kernel {})",
                self.config.device,
                self.config.kernel().op_kind()
            )));
        }
        let perm: Vec<&str> = self.permutation.iter().map(String::as_str).collect();
        let attrs = self.config.to_trait_attrs(if perm.is_empty() { None } else { Some(&perm) });
        for op in candidates {
            for (&k, v) in &attrs {
                module.ctx.set_attr(op, k, v.clone());
            }
            if let Some(tile) = self.cache_tile {
                module.ctx.set_attr(op, "cache_tile", Attribute::Int(tile));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_accelerators::matmul::MatMulVersion;
    use axi4mlir_dialects::{func, memref};
    use axi4mlir_ir::kind::OpKind;
    use axi4mlir_ir::pass::PassManager;
    use axi4mlir_ir::types::Type;

    fn matmul_module(dims: i64) -> Module {
        let mut m = Module::new();
        let f = func::func(&mut m, "matmul_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![dims, dims], Type::i32());
        let bb = memref::alloc(&mut b, vec![dims, dims], Type::i32());
        let c = memref::alloc(&mut b, vec![dims, dims], Type::i32());
        linalg::named_matmul(&mut b, a, bb, c);
        m
    }

    #[test]
    fn annotates_matched_matmul() {
        let mut module = matmul_module(16);
        let cfg = AcceleratorConfig::matmul(MatMulVersion::V3, 8).with_selected_flow("As");
        let mut pass = MatchAndAnnotatePass::new(
            cfg,
            vec!["m".to_owned(), "k".to_owned(), "n".to_owned()],
            Some(16),
        );
        let pm = PassManager::new();
        let mut diags = DiagnosticEngine::new();
        pass.run(&mut module, &mut diags).unwrap();
        let _ = pm;
        let generics = module.ctx.find_ops(module.top(), OpKind::LinalgGeneric);
        assert_eq!(generics.len(), 1);
        let op = generics[0];
        assert!(module.ctx.attr(op, "opcode_map").is_some());
        assert!(module.ctx.attr(op, "opcode_flow").is_some());
        assert!(module.ctx.attr(op, "dma_init_config").is_some());
        assert_eq!(module.ctx.attr(op, "cache_tile").and_then(|a| a.as_int()), Some(16));
        let perm = module.ctx.attr(op, "permutation_map").unwrap().as_map().unwrap();
        assert_eq!(perm.as_permutation(), Some(vec![0, 2, 1]));
    }

    #[test]
    fn no_match_is_an_error() {
        let mut module = Module::new();
        func::func(&mut module, "empty", vec![], vec![]);
        let cfg = AcceleratorConfig::matmul(MatMulVersion::V3, 8);
        let mut pass = MatchAndAnnotatePass::new(cfg, vec![], None);
        let mut diags = DiagnosticEngine::new();
        let err = pass.run(&mut module, &mut diags).unwrap_err();
        assert!(err.message.contains("no operation matches"));
    }

    #[test]
    fn conv_accelerator_matches_conv_op() {
        let mut m = Module::new();
        let f = func::func(&mut m, "conv_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let i = memref::alloc(&mut b, vec![1, 256, 7, 7], Type::i32());
        let w = memref::alloc(&mut b, vec![64, 256, 3, 3], Type::i32());
        let o = memref::alloc(&mut b, vec![1, 64, 5, 5], Type::i32());
        linalg::conv_2d_nchw_fchw(&mut b, i, w, o, 1);
        let cfg = AcceleratorConfig::conv2d(256, 3);
        let mut pass = MatchAndAnnotatePass::new(cfg, vec![], None);
        let mut diags = DiagnosticEngine::new();
        pass.run(&mut m, &mut diags).unwrap();
        let op = m.ctx.find_ops(m.top(), OpKind::LinalgConv2dNchwFchw)[0];
        assert!(m.ctx.attr(op, "opcode_flow").is_some());
        assert!(m.ctx.attr(op, "permutation_map").is_none(), "no permutation requested");
    }
}
