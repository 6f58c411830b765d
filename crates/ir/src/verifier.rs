//! Structural IR verification.
//!
//! Checks the invariants every pass must preserve:
//!
//! - parent links (op ↔ block ↔ region) are mutually consistent;
//! - SSA visibility: every operand is a block argument or op result defined
//!   *before* its use, in the same block or an enclosing one (structured
//!   control flow dominance);
//! - no dead (erased) op is reachable.
//!
//! Dialect-specific rules (e.g. "`scf.for` takes three `index` operands")
//! live in `axi4mlir-dialects`; the pass manager runs both.

use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};
use axi4mlir_support::entity::EntityId;

use crate::ops::{BlockId, IrCtx, OpId, RegionId, ValueId};

/// Verifies the subtree rooted at `root`.
///
/// # Errors
///
/// Returns the first violation (all violations are recorded in `diags`).
pub fn verify(ctx: &IrCtx, root: OpId, diags: &mut DiagnosticEngine) -> Result<(), Diagnostic> {
    let mut scope = Scope { visible: vec![false; ctx.value_count()], defined: Vec::new() };
    scope.verify_op(ctx, root, diags);
    diags.result()
}

/// Convenience wrapper returning only the result.
///
/// # Errors
///
/// Returns the first violation.
pub fn verify_ok(ctx: &IrCtx, root: OpId) -> Result<(), Diagnostic> {
    let mut diags = DiagnosticEngine::new();
    verify(ctx, root, &mut diags)
}

/// The values visible at the current point of the walk: a flag per value
/// slot of the arena, plus the values each open block made visible, so
/// leaving a block hides exactly those.
struct Scope {
    visible: Vec<bool>,
    /// Values to hide again, innermost open block last.
    defined: Vec<ValueId>,
}

impl Scope {
    fn is_visible(&self, value: ValueId) -> bool {
        self.visible.get(value.index()).copied().unwrap_or(false)
    }

    /// Marks `value` visible; `false` when it already was.
    fn insert(&mut self, value: ValueId) -> bool {
        !std::mem::replace(&mut self.visible[value.index()], true)
    }

    fn verify_op(&mut self, ctx: &IrCtx, op: OpId, diags: &mut DiagnosticEngine) {
        let data = ctx.op(op);
        if data.dead {
            diags.error(format!("reachable op {op} ({}) is marked dead", data.kind));
            return;
        }
        for (i, operand) in data.operands.iter().enumerate() {
            if !self.is_visible(*operand) {
                diags.error(format!(
                    "op {op} ({}) operand #{i} ({operand}) is not visible at its use (use-before-def or cross-region leak)",
                    data.kind
                ));
            }
        }
        // Results become visible to subsequent ops *and* to nested regions
        // (which may capture values from enclosing scopes).
        for r in &data.results {
            self.insert(*r);
        }
        for region in &data.regions {
            let rdata = ctx.region(*region);
            if rdata.parent != Some(op) {
                diags.error(format!("region {region} parent link does not point to op {op}"));
            }
            for block in &rdata.blocks {
                self.verify_block(ctx, *block, *region, diags);
            }
        }
    }

    fn verify_block(
        &mut self,
        ctx: &IrCtx,
        block: BlockId,
        region: RegionId,
        diags: &mut DiagnosticEngine,
    ) {
        let bdata = ctx.block(block);
        if bdata.parent != Some(region) {
            diags.error(format!("block {block} parent link does not point to region {region}"));
        }
        // Block args are visible inside the block (and its nested regions)
        // only: track what we add so we can remove it on exit.
        let opened = self.defined.len();
        for arg in &bdata.args {
            if self.insert(*arg) {
                self.defined.push(*arg);
            }
        }
        for op in &bdata.ops {
            let odata = ctx.op(*op);
            if odata.parent != Some(block) {
                diags.error(format!(
                    "op {op} ({}) parent link does not point to block {block}",
                    odata.kind
                ));
            }
            self.verify_op(ctx, *op, diags);
            for r in &odata.results {
                self.insert(*r);
                self.defined.push(*r);
            }
        }
        // Values defined in this block stop being visible outside it.
        for v in self.defined.drain(opened..) {
            self.visible[v.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attribute;
    use crate::builder::OpBuilder;
    use crate::kind::OpKind;
    use crate::ops::Module;
    use crate::types::Type;

    fn well_formed_module() -> Module {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let c = b.insert_op(
            OpKind::ArithConstant,
            vec![],
            vec![Type::index()],
            [("value", Attribute::Int(1))],
        );
        let v = b.result(c);
        let (_, inner) =
            b.insert_region_op(OpKind::ScfFor, vec![v, v, v], vec![], [], vec![Type::index()]);
        b.set_insertion_end(inner);
        // Captures `v` from the enclosing scope: legal.
        b.insert_op(OpKind::parse("test.use"), vec![v], vec![], []);
        m
    }

    #[test]
    fn well_formed_ir_verifies() {
        let m = well_formed_module();
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
    }

    #[test]
    fn use_before_def_is_caught() {
        let mut m = Module::new();
        let body = m.body();
        // Create the constant but insert the use *before* it.
        let c = m.ctx.create_op(
            OpKind::ArithConstant,
            vec![],
            vec![Type::index()],
            std::collections::BTreeMap::new(),
        );
        let v = m.ctx.result(c, 0);
        let use_op = m.ctx.create_op(
            OpKind::parse("test.use"),
            vec![v],
            vec![],
            std::collections::BTreeMap::new(),
        );
        m.ctx.append_op(body, use_op);
        m.ctx.append_op(body, c);
        let err = verify_ok(&m.ctx, m.top()).unwrap_err();
        assert!(err.message.contains("not visible"));
    }

    #[test]
    fn cross_region_leak_is_caught() {
        // A value defined inside one loop body used in a sibling loop body.
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let (_, block1) =
            b.insert_region_op(OpKind::ScfFor, vec![], vec![], [], vec![Type::index()]);
        let (_, block2) =
            b.insert_region_op(OpKind::ScfFor, vec![], vec![], [], vec![Type::index()]);
        b.set_insertion_end(block1);
        let c = b.insert_op(
            OpKind::ArithConstant,
            vec![],
            vec![Type::i32()],
            [("value", Attribute::Int(0))],
        );
        let leaked = b.result(c);
        b.set_insertion_end(block2);
        b.insert_op(OpKind::parse("test.use"), vec![leaked], vec![], []);
        let err = verify_ok(&m.ctx, m.top()).unwrap_err();
        assert!(err.message.contains("not visible"));
    }

    #[test]
    fn induction_variable_not_visible_outside_loop() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let (_, inner) =
            b.insert_region_op(OpKind::ScfFor, vec![], vec![], [], vec![Type::index()]);
        let iv = m.ctx.block_arg(inner, 0);
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        b.insert_op(OpKind::parse("test.use"), vec![iv], vec![], []);
        let err = verify_ok(&m.ctx, m.top()).unwrap_err();
        assert!(err.message.contains("not visible"));
    }

    #[test]
    fn broken_parent_link_is_caught() {
        let mut m = well_formed_module();
        let fors = m.ctx.find_ops(m.top(), OpKind::ScfFor);
        m.ctx.op_mut(fors[0]).parent = None;
        let err = verify_ok(&m.ctx, m.top()).unwrap_err();
        assert!(err.message.contains("parent link"));
    }

    #[test]
    fn multiple_errors_collected() {
        let mut m = Module::new();
        let body = m.body();
        let c = m.ctx.create_op(
            OpKind::ArithConstant,
            vec![],
            vec![Type::index()],
            std::collections::BTreeMap::new(),
        );
        let v = m.ctx.result(c, 0);
        // Two uses of an undefined-at-use value (constant is never attached).
        for _ in 0..2 {
            let u = m.ctx.create_op(
                OpKind::parse("test.use"),
                vec![v],
                vec![],
                std::collections::BTreeMap::new(),
            );
            m.ctx.append_op(body, u);
        }
        let mut diags = DiagnosticEngine::new();
        let _ = verify(&m.ctx, m.top(), &mut diags);
        assert_eq!(diags.diagnostics().len(), 2);
    }
}
