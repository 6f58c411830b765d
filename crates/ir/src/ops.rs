//! Arena-based SSA IR: operations, regions, blocks, and values.
//!
//! Entities live in dense arenas inside [`IrCtx`] and reference each other
//! by typed identifiers, which makes the transformation the paper leans on —
//! *hoisting `accel` operations to an outer loop level* (§III-C) — a simple
//! matter of splicing identifier lists rather than fighting ownership.
//!
//! The structure mirrors MLIR:
//!
//! ```text
//! Operation ── has ──> Regions ── have ──> Blocks ── have ──> Operations
//!     │                                       │
//!     └── results: Values                     └── arguments: Values
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;

use axi4mlir_support::entity::PrimaryMap;
use axi4mlir_support::entity_id;

use crate::attrs::Attribute;
use crate::kind::OpKind;
use crate::types::Type;

entity_id!(pub struct OpId, "op");
entity_id!(pub struct BlockId, "bb");
entity_id!(pub struct RegionId, "region");
entity_id!(pub struct ValueId, "v");

/// An attribute key or an unregistered op's name: borrowed when a builder
/// passes a literal (every dialect constructor does), owned when the
/// parser read it from text — so building IR copies no names. A
/// registered op's name is its [`OpKind`], spelled from the table.
pub type Name = Cow<'static, str>;

/// An op's attribute dictionary, printed in key order.
pub type AttrDict = BTreeMap<Name, Attribute>;

/// Where a value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th result of an operation.
    OpResult {
        /// Producing operation.
        op: OpId,
        /// Result position.
        index: usize,
    },
    /// The `index`-th argument of a block (e.g. a loop induction variable).
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: usize,
    },
}

/// A value: its type and definition site.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueData {
    /// Static type.
    pub ty: Type,
    /// Definition site.
    pub def: ValueDef,
}

/// An operation: kind, operands, results, attributes, nested regions.
#[derive(Clone, Debug, PartialEq)]
pub struct OpData {
    /// What the op is, e.g. [`OpKind::ScfFor`]; set when it is created.
    pub kind: OpKind,
    /// SSA operands.
    pub operands: Vec<ValueId>,
    /// SSA results.
    pub results: Vec<ValueId>,
    /// Attribute dictionary.
    pub attrs: AttrDict,
    /// Nested regions.
    pub regions: Vec<RegionId>,
    /// Owning block, if attached.
    pub parent: Option<BlockId>,
    /// `true` once erased; dead ops stay in the arena but are unreachable.
    pub dead: bool,
}

/// A block: arguments and an ordered list of operations.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockData {
    /// Block arguments.
    pub args: Vec<ValueId>,
    /// Operations in execution order.
    pub ops: Vec<OpId>,
    /// Owning region.
    pub parent: Option<RegionId>,
}

/// A region: an ordered list of blocks owned by an operation.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionData {
    /// Blocks (our structured dialects only ever use one).
    pub blocks: Vec<BlockId>,
    /// Owning operation.
    pub parent: Option<OpId>,
}

/// The IR arena.
#[derive(Clone, Debug, Default)]
pub struct IrCtx {
    ops: PrimaryMap<OpId, OpData>,
    blocks: PrimaryMap<BlockId, BlockData>,
    regions: PrimaryMap<RegionId, RegionData>,
    values: PrimaryMap<ValueId, ValueData>,
}

impl IrCtx {
    /// Creates an empty arena.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Creation
    // ------------------------------------------------------------------

    /// Creates a detached operation with fresh result values.
    pub fn create_op(
        &mut self,
        kind: OpKind,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: AttrDict,
    ) -> OpId {
        let op = self.ops.push(OpData {
            kind,
            operands,
            results: Vec::new(),
            attrs,
            regions: Vec::new(),
            parent: None,
            dead: false,
        });
        let results: Vec<ValueId> = result_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                self.values.push(ValueData { ty, def: ValueDef::OpResult { op, index } })
            })
            .collect();
        self.ops[op].results = results;
        op
    }

    /// Adds an empty region to `op`.
    pub fn add_region(&mut self, op: OpId) -> RegionId {
        let region = self.regions.push(RegionData { blocks: Vec::new(), parent: Some(op) });
        self.ops[op].regions.push(region);
        region
    }

    /// Adds a block with the given argument types to `region`.
    pub fn add_block(&mut self, region: RegionId, arg_types: Vec<Type>) -> BlockId {
        let block =
            self.blocks.push(BlockData { args: Vec::new(), ops: Vec::new(), parent: Some(region) });
        let args: Vec<ValueId> = arg_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                self.values.push(ValueData { ty, def: ValueDef::BlockArg { block, index } })
            })
            .collect();
        self.blocks[block].args = args;
        self.regions[region].blocks.push(block);
        block
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The data of `op`.
    pub fn op(&self, op: OpId) -> &OpData {
        &self.ops[op]
    }

    /// Mutable data of `op`.
    pub fn op_mut(&mut self, op: OpId) -> &mut OpData {
        &mut self.ops[op]
    }

    /// The data of `block`.
    pub fn block(&self, block: BlockId) -> &BlockData {
        &self.blocks[block]
    }

    /// The data of `region`.
    pub fn region(&self, region: RegionId) -> &RegionData {
        &self.regions[region]
    }

    /// The data of `value`.
    pub fn value(&self, value: ValueId) -> &ValueData {
        &self.values[value]
    }

    /// Type of `value`.
    pub fn value_type(&self, value: ValueId) -> &Type {
        &self.values[value].ty
    }

    /// The `index`-th result of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn result(&self, op: OpId, index: usize) -> ValueId {
        self.ops[op].results[index]
    }

    /// The `index`-th argument of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block_arg(&self, block: BlockId, index: usize) -> ValueId {
        self.blocks[block].args[index]
    }

    /// An attribute of `op` by name.
    pub fn attr<'a>(&'a self, op: OpId, name: &str) -> Option<&'a Attribute> {
        self.ops[op].attrs.get(name)
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, op: OpId, name: impl Into<Name>, value: Attribute) {
        self.ops[op].attrs.insert(name.into(), value);
    }

    /// The sole block of `op`'s `index`-th region.
    ///
    /// # Panics
    ///
    /// Panics if the region does not have exactly one block.
    pub fn sole_block(&self, op: OpId, index: usize) -> BlockId {
        let region = self.ops[op].regions[index];
        let blocks = &self.regions[region].blocks;
        assert_eq!(
            blocks.len(),
            1,
            "expected exactly one block in region {index} of {}",
            self.ops[op].kind
        );
        blocks[0]
    }

    // ------------------------------------------------------------------
    // Structural mutation
    // ------------------------------------------------------------------

    /// Appends a detached op to the end of `block`.
    ///
    /// # Panics
    ///
    /// Panics if the op is already attached.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        let len = self.blocks[block].ops.len();
        self.insert_op(block, len, op);
    }

    /// Inserts a detached op into `block` at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the op is already attached or `index` is out of range.
    pub(crate) fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        assert!(self.ops[op].parent.is_none(), "op {op} is already attached");
        assert!(!self.ops[op].dead, "op {op} is erased");
        self.blocks[block].ops.insert(index, op);
        self.ops[op].parent = Some(block);
    }

    /// Detaches `op` from its block (keeping it alive for re-insertion —
    /// the primitive behind accel-op hoisting).
    ///
    /// # Panics
    ///
    /// Panics if the op is not attached.
    fn detach_op(&mut self, op: OpId) {
        let block = self.ops[op].parent.expect("op is not attached");
        let ops = &mut self.blocks[block].ops;
        let pos = ops.iter().position(|o| *o == op).expect("op missing from parent block");
        ops.remove(pos);
        self.ops[op].parent = None;
    }

    /// Position of `op` within its parent block.
    pub fn position_in_block(&self, op: OpId) -> Option<usize> {
        let block = self.ops[op].parent?;
        self.blocks[block].ops.iter().position(|o| *o == op)
    }

    /// Erases `op` and everything nested inside it.
    pub fn erase_op(&mut self, op: OpId) {
        if self.ops[op].parent.is_some() {
            self.detach_op(op);
        }
        let mut stack = vec![op];
        while let Some(current) = stack.pop() {
            self.ops[current].dead = true;
            for region in &self.ops[current].regions {
                for block in &self.regions[*region].blocks {
                    stack.extend(self.blocks[*block].ops.iter().copied());
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Pre-order walk of `root` and all nested operations.
    pub fn walk(&self, root: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(op) = stack.pop() {
            if self.ops[op].dead {
                continue;
            }
            out.push(op);
            // Push nested ops last-first so the walk stays pre-order.
            for region in self.ops[op].regions.iter().rev() {
                for block in self.regions[*region].blocks.iter().rev() {
                    stack.extend(self.blocks[*block].ops.iter().rev().copied());
                }
            }
        }
        out
    }

    /// All live ops under `root` of the given kind.
    pub fn find_ops(&self, root: OpId, kind: OpKind) -> Vec<OpId> {
        self.walk(root).into_iter().filter(|op| self.ops[*op].kind == kind).collect()
    }

    /// Number of live operations in the arena (for tests/metrics).
    pub fn live_op_count(&self) -> usize {
        self.ops.values().filter(|o| !o.dead).count()
    }

    /// Total number of operation slots ever minted (live or dead) — the
    /// bound for dense `OpId`-indexed side tables.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Total number of value slots ever minted — the bound for dense
    /// `ValueId`-indexed side tables (e.g. interpreter value frames).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }
}

/// A module: an [`IrCtx`] plus the distinguished top-level op.
#[derive(Clone, Debug)]
pub struct Module {
    /// The arena.
    pub ctx: IrCtx,
    top: OpId,
}

impl Module {
    /// Creates an empty `builtin.module` with one region and one block.
    pub fn new() -> Self {
        let mut ctx = IrCtx::new();
        let top = ctx.create_op(OpKind::BuiltinModule, vec![], vec![], BTreeMap::new());
        let region = ctx.add_region(top);
        ctx.add_block(region, vec![]);
        Self { ctx, top }
    }

    /// Assembles a module from a pre-built arena and its top-level op (used
    /// by the parser).
    ///
    /// # Panics
    ///
    /// Panics unless `top` is a `builtin.module` op in `ctx`.
    pub(crate) fn from_parts(ctx: IrCtx, top: OpId) -> Self {
        assert_eq!(ctx.op(top).kind, OpKind::BuiltinModule, "top op must be builtin.module");
        Self { ctx, top }
    }

    /// The top-level operation.
    pub fn top(&self) -> OpId {
        self.top
    }

    /// The module body block.
    pub fn body(&self) -> BlockId {
        self.ctx.sole_block(self.top, 0)
    }

    /// All `func.func` ops in the module.
    pub fn funcs(&self) -> Vec<OpId> {
        self.ctx.find_ops(self.top, OpKind::FuncFunc)
    }

    /// Finds a module-level function by its `sym_name` attribute, without
    /// walking (or allocating for) function bodies.
    pub fn func_named(&self, name: &str) -> Option<OpId> {
        let top = self.ctx.op(self.top);
        let blocks = top.regions.iter().flat_map(|r| &self.ctx.region(*r).blocks);
        blocks.flat_map(|b| &self.ctx.block(*b).ops).copied().find(|&f| {
            self.ctx.op(f).kind == OpKind::FuncFunc
                && self.ctx.attr(f, "sym_name").and_then(|a| a.as_str()) == Some(name)
        })
    }
}

impl Default for Module {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn const_op(ctx: &mut IrCtx, value: i64) -> OpId {
        let mut attrs = BTreeMap::new();
        attrs.insert("value".into(), Attribute::Int(value));
        ctx.create_op(OpKind::ArithConstant, vec![], vec![Type::index()], attrs)
    }

    #[test]
    fn create_and_query_op() {
        let mut ctx = IrCtx::new();
        let c = const_op(&mut ctx, 4);
        assert_eq!(ctx.op(c).kind, OpKind::ArithConstant);
        assert_eq!(ctx.op(c).results.len(), 1);
        let r = ctx.result(c, 0);
        assert_eq!(*ctx.value_type(r), Type::index());
        assert_eq!(ctx.value(r).def, ValueDef::OpResult { op: c, index: 0 });
        assert_eq!(ctx.attr(c, "value").and_then(|a| a.as_int()), Some(4));
    }

    #[test]
    fn module_structure() {
        let m = Module::new();
        assert_eq!(m.ctx.op(m.top()).kind, OpKind::BuiltinModule);
        assert_eq!(m.ctx.block(m.body()).ops.len(), 0);
        assert!(m.funcs().is_empty());
    }

    #[test]
    fn append_insert_and_order() {
        let mut m = Module::new();
        let body = m.body();
        let a = const_op(&mut m.ctx, 1);
        let b = const_op(&mut m.ctx, 2);
        let c = const_op(&mut m.ctx, 3);
        m.ctx.append_op(body, a);
        m.ctx.append_op(body, c);
        m.ctx.insert_op(body, 1, b);
        let order: Vec<i64> = m
            .ctx
            .block(body)
            .ops
            .iter()
            .map(|o| m.ctx.attr(*o, "value").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(m.ctx.position_in_block(b), Some(1));
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let mut m = Module::new();
        let body = m.body();
        let a = const_op(&mut m.ctx, 1);
        m.ctx.append_op(body, a);
        m.ctx.append_op(body, a);
    }

    #[test]
    fn detach_and_move_models_hoisting() {
        // Build: module { outer { inner { op } } } then hoist `op` from the
        // inner block to the outer block.
        let mut m = Module::new();
        let body = m.body();
        let outer = m.ctx.create_op(OpKind::ScfFor, vec![], vec![], BTreeMap::new());
        let outer_region = m.ctx.add_region(outer);
        let outer_block = m.ctx.add_block(outer_region, vec![Type::index()]);
        m.ctx.append_op(body, outer);
        let inner = m.ctx.create_op(OpKind::ScfFor, vec![], vec![], BTreeMap::new());
        let inner_region = m.ctx.add_region(inner);
        let inner_block = m.ctx.add_block(inner_region, vec![Type::index()]);
        m.ctx.append_op(outer_block, inner);
        let send = m.ctx.create_op(OpKind::AccelSend, vec![], vec![], BTreeMap::new());
        m.ctx.append_op(inner_block, send);

        assert_eq!(m.ctx.op(send).parent, Some(inner_block));
        m.ctx.detach_op(send);
        m.ctx.insert_op(outer_block, 0, send);
        assert_eq!(m.ctx.op(send).parent, Some(outer_block));
        assert_eq!(m.ctx.block(outer_block).ops, vec![send, inner]);
        assert!(m.ctx.block(inner_block).ops.is_empty());
    }

    #[test]
    fn erase_is_recursive() {
        let mut m = Module::new();
        let body = m.body();
        let outer = m.ctx.create_op(OpKind::ScfFor, vec![], vec![], BTreeMap::new());
        let region = m.ctx.add_region(outer);
        let block = m.ctx.add_block(region, vec![]);
        m.ctx.append_op(body, outer);
        let nested = const_op(&mut m.ctx, 9);
        m.ctx.append_op(block, nested);
        assert_eq!(m.ctx.live_op_count(), 3);
        m.ctx.erase_op(outer);
        assert_eq!(m.ctx.live_op_count(), 1, "module only");
        assert!(m.ctx.op(nested).dead);
        assert!(m.ctx.block(body).ops.is_empty());
    }

    #[test]
    fn walk_is_preorder() {
        let mut m = Module::new();
        let body = m.body();
        let a = const_op(&mut m.ctx, 1);
        m.ctx.append_op(body, a);
        let f = m.ctx.create_op(OpKind::ScfFor, vec![], vec![], BTreeMap::new());
        let region = m.ctx.add_region(f);
        let block = m.ctx.add_block(region, vec![]);
        m.ctx.append_op(body, f);
        let b = const_op(&mut m.ctx, 2);
        m.ctx.append_op(block, b);
        let kinds: Vec<&OpKind> = m.ctx.walk(m.top()).iter().map(|o| &m.ctx.op(*o).kind).collect();
        use OpKind::{ArithConstant, BuiltinModule, ScfFor};
        assert_eq!(kinds, [&BuiltinModule, &ArithConstant, &ScfFor, &ArithConstant]);
    }

    #[test]
    fn find_ops_by_name() {
        let mut m = Module::new();
        let body = m.body();
        for v in 0..3 {
            let op = const_op(&mut m.ctx, v);
            m.ctx.append_op(body, op);
        }
        assert_eq!(m.ctx.find_ops(m.top(), OpKind::ArithConstant).len(), 3);
        assert!(m.ctx.find_ops(m.top(), OpKind::ScfFor).is_empty());
    }

    #[test]
    fn func_named_lookup() {
        let mut m = Module::new();
        let body = m.body();
        let mut attrs = BTreeMap::new();
        attrs.insert("sym_name".into(), Attribute::Str("matmul_call".to_owned()));
        let f = m.ctx.create_op(OpKind::FuncFunc, vec![], vec![], attrs);
        m.ctx.append_op(body, f);
        assert_eq!(m.func_named("matmul_call"), Some(f));
        assert_eq!(m.func_named("missing"), None);
    }

    #[test]
    fn block_args_define_values() {
        let mut ctx = IrCtx::new();
        let op = ctx.create_op(OpKind::ScfFor, vec![], vec![], BTreeMap::new());
        let region = ctx.add_region(op);
        let block = ctx.add_block(region, vec![Type::index(), Type::i32()]);
        let iv = ctx.block_arg(block, 0);
        assert_eq!(*ctx.value_type(iv), Type::index());
        assert_eq!(ctx.value(iv).def, ValueDef::BlockArg { block, index: 0 });
    }
}
