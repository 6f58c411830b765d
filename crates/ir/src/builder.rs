//! Insertion-point style IR construction.
//!
//! [`OpBuilder`] wraps an [`IrCtx`] with a current insertion point (a block
//! and position). Dialect crates layer typed constructors on top.

use std::borrow::Cow;

use crate::attrs::Attribute;
use crate::ops::{AttrDict, BlockId, IrCtx, OpId, ValueId};
use crate::types::Type;

/// A builder that inserts operations at a movable insertion point.
///
/// # Examples
///
/// ```
/// use axi4mlir_ir::builder::OpBuilder;
/// use axi4mlir_ir::ops::Module;
/// use axi4mlir_ir::types::Type;
/// use axi4mlir_ir::attrs::Attribute;
///
/// let mut module = Module::new();
/// let body = module.body();
/// let mut b = OpBuilder::at_end(&mut module.ctx, body);
/// let op = b.insert_op("arith.constant", vec![], vec![Type::index()], [("value", Attribute::Int(4))]);
/// let _result = b.ctx().result(op, 0);
/// assert_eq!(module.ctx.block(body).ops.len(), 1);
/// ```
pub struct OpBuilder<'a> {
    ctx: &'a mut IrCtx,
    block: BlockId,
    index: usize,
}

impl<'a> OpBuilder<'a> {
    /// Positions the builder at the end of `block`.
    pub fn at_end(ctx: &'a mut IrCtx, block: BlockId) -> Self {
        let index = ctx.block(block).ops.len();
        Self { ctx, block, index }
    }

    /// Positions the builder at `index` within `block`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is past the end of the block.
    pub fn at(ctx: &'a mut IrCtx, block: BlockId, index: usize) -> Self {
        assert!(index <= ctx.block(block).ops.len(), "insertion index out of range");
        Self { ctx, block, index }
    }

    /// The underlying arena.
    pub fn ctx(&mut self) -> &mut IrCtx {
        self.ctx
    }

    /// Read-only access to the arena.
    pub fn ctx_ref(&self) -> &IrCtx {
        self.ctx
    }

    /// The current insertion block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Moves the insertion point to the end of another block.
    pub fn set_insertion_end(&mut self, block: BlockId) {
        self.block = block;
        self.index = self.ctx.block(block).ops.len();
    }

    /// Creates an op and inserts it at the insertion point, advancing the
    /// point past it. Returns the new op.
    pub fn insert_op<A>(
        &mut self,
        name: &'static str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: A,
    ) -> OpId
    where
        A: IntoIterator<Item = (&'static str, Attribute)>,
    {
        let attrs: AttrDict = attrs.into_iter().map(|(k, v)| (Cow::Borrowed(k), v)).collect();
        let op = self.ctx.create_op(name, operands, result_types, attrs);
        self.ctx.insert_op(self.block, self.index, op);
        self.index += 1;
        op
    }

    /// Creates an op with a single region + single block (the shape of all
    /// structured control flow), inserts it, and returns `(op, body_block)`.
    /// The insertion point stays in the *outer* block, after the op.
    pub fn insert_region_op<A>(
        &mut self,
        name: &'static str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: A,
        block_arg_types: Vec<Type>,
    ) -> (OpId, BlockId)
    where
        A: IntoIterator<Item = (&'static str, Attribute)>,
    {
        let op = self.insert_op(name, operands, result_types, attrs);
        let region = self.ctx.add_region(op);
        let block = self.ctx.add_block(region, block_arg_types);
        (op, block)
    }

    /// Result 0 of an op — the common case.
    pub fn result(&self, op: OpId) -> ValueId {
        self.ctx.result(op, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Module;

    #[test]
    fn builder_inserts_in_order() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        b.insert_op("a.x", vec![], vec![], []);
        b.insert_op("a.y", vec![], vec![], []);
        let names: Vec<&str> = m.ctx.block(body).ops.iter().map(|o| &*m.ctx.op(*o).name).collect();
        assert_eq!(names, vec!["a.x", "a.y"]);
    }

    #[test]
    fn builder_at_position_prepends() {
        let mut m = Module::new();
        let body = m.body();
        {
            let mut b = OpBuilder::at_end(&mut m.ctx, body);
            b.insert_op("a.second", vec![], vec![], []);
        }
        {
            let mut b = OpBuilder::at(&mut m.ctx, body, 0);
            b.insert_op("a.first", vec![], vec![], []);
        }
        let names: Vec<&str> = m.ctx.block(body).ops.iter().map(|o| &*m.ctx.op(*o).name).collect();
        assert_eq!(names, vec!["a.first", "a.second"]);
    }

    #[test]
    fn region_op_creates_nested_block() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let (op, block) = b.insert_region_op("scf.for", vec![], vec![], [], vec![Type::index()]);
        assert_eq!(m.ctx.op(op).regions.len(), 1);
        assert_eq!(m.ctx.block(block).args.len(), 1);
        assert_eq!(m.ctx.sole_block(op, 0), block);
    }

    #[test]
    fn insertion_point_can_dive_into_blocks() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let (_, inner) = b.insert_region_op("scf.for", vec![], vec![], [], vec![Type::index()]);
        b.set_insertion_end(inner);
        b.insert_op("a.inside", vec![], vec![], []);
        assert_eq!(m.ctx.block(inner).ops.len(), 1);
        assert_eq!(m.ctx.block(body).ops.len(), 1);
    }
}
