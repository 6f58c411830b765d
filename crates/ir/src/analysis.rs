//! Dataflow analysis over the structured-control-flow IR.
//!
//! The IR has no unstructured CFG: control flow is region nesting
//! (`scf.for` bodies, function bodies), every block executes straight
//! through, and SSA visibility follows the region tree. That makes
//! dataflow simple but not trivial — loop induction variables couple a
//! block argument to the facts of the enclosing op's operands, so each
//! analysis iterates the whole region tree to a fixpoint instead of
//! assuming one pass suffices. There are two, each a fact per SSA value
//! stored densely by value index and joined monotonically:
//!
//! - [`Liveness`] (backward): which values and ops feed an observable
//!   effect.
//! - [`integer_ranges`] (forward): [`IntRange`] bounds for index
//!   arithmetic — constants, `arith` ops and `scf.for` induction
//!   variables. (Use-before-def is the structural verifier's check,
//!   [`crate::verifier`].)
//!
//! The lint suite in `axi4mlir-dialects` builds on these: dead-annotation
//! detection uses [`Liveness`], and the DMA bounds checks use
//! [`integer_ranges`] to bound subview offsets statically.

use std::collections::HashSet;

use axi4mlir_support::entity::EntityId;

use crate::attrs::Attribute;
use crate::kind::OpKind;
use crate::ops::{IrCtx, OpId, ValueId};

/// A dense table of one fact per SSA value.
#[derive(Clone, Debug)]
pub struct ValueTable<L> {
    facts: Vec<L>,
}

impl<L> ValueTable<L> {
    /// The fact for `value`.
    pub fn get(&self, value: ValueId) -> &L {
        &self.facts[value.index()]
    }
}

/// Safety valve: the region tree is acyclic (no loop-carried SSA values —
/// `scf.for` bodies take only the induction variable), so fixpoints
/// converge in a handful of passes; the cap only guards against a
/// non-monotone analysis looping forever.
const MAX_PASSES: usize = 64;

// ---------------------------------------------------------------------
// Liveness (backward)
// ---------------------------------------------------------------------

/// `true` for ops whose execution is observable regardless of whether
/// their results are used (stores, `accel` traffic, calls, terminators,
/// and anything we don't recognize — unknown ops are conservatively
/// effectful).
fn has_side_effects(kind: &OpKind) -> bool {
    use OpKind::{MemrefAlloc, MemrefAlloca, MemrefLoad, MemrefSubview};
    let pure =
        kind.is_arith() || matches!(kind, MemrefLoad | MemrefSubview | MemrefAlloc | MemrefAlloca);
    !pure
}

/// The computed liveness of a subtree: per-value facts plus the op-level
/// root set.
#[derive(Debug)]
pub struct Liveness {
    live: Vec<bool>,
    /// Ops that are live by themselves: side-effecting, or (for
    /// region-owning ops) transitively containing a side-effecting op.
    rooted: HashSet<OpId>,
}

impl Liveness {
    /// Runs the backward liveness analysis over the subtree at `root`.
    pub fn compute(ctx: &IrCtx, root: OpId) -> Self {
        // Seed the root set: an op is rooted if it (or anything nested in
        // it) has side effects. Computed bottom-up over the region tree.
        let mut rooted = HashSet::new();
        let order = ctx.walk(root);
        for &op in order.iter().rev() {
            let data = ctx.op(op);
            let nested_rooted = data.regions.iter().any(|r| {
                ctx.region(*r)
                    .blocks
                    .iter()
                    .any(|b| ctx.block(*b).ops.iter().any(|o| rooted.contains(o)))
            });
            if nested_rooted || (data.regions.is_empty() && has_side_effects(&data.kind)) {
                rooted.insert(op);
            }
        }
        // A live op makes its operands live; visit uses before defs.
        let mut live = vec![false; ctx.value_count()];
        for _ in 0..MAX_PASSES {
            let mut changed = false;
            for &op in order.iter().rev() {
                let data = ctx.op(op);
                if rooted.contains(&op) || data.results.iter().any(|r| live[r.index()]) {
                    for operand in &data.operands {
                        changed |= !std::mem::replace(&mut live[operand.index()], true);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Self { live, rooted }
    }

    /// `true` if `op` must execute: it is side-effecting (directly or via
    /// a nested op) or produces a live value.
    pub fn op_is_live(&self, ctx: &IrCtx, op: OpId) -> bool {
        self.rooted.contains(&op) || ctx.op(op).results.iter().any(|r| self.live[r.index()])
    }
}

// ---------------------------------------------------------------------
// Integer ranges (forward)
// ---------------------------------------------------------------------

/// An inclusive integer interval; `i64::MIN`/`i64::MAX` bounds act as
/// minus/plus infinity (saturating arithmetic preserves them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntRange {
    /// Bottom: no execution reaches this value yet.
    Unreached,
    /// The value always lies in `[lo, hi]`.
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

impl IntRange {
    /// The full (unknown) range.
    const FULL: IntRange = IntRange::Range { lo: i64::MIN, hi: i64::MAX };

    /// The singleton range `[v, v]`.
    fn exact(v: i64) -> Self {
        IntRange::Range { lo: v, hi: v }
    }

    /// The bounds, if reached and not fully unknown on both sides.
    pub fn bounds(&self) -> Option<(i64, i64)> {
        match self {
            IntRange::Range { lo, hi } => Some((*lo, *hi)),
            IntRange::Unreached => None,
        }
    }

    fn add(self, other: Self) -> Self {
        match (self, other) {
            (IntRange::Range { lo: a, hi: b }, IntRange::Range { lo: c, hi: d }) => {
                IntRange::Range { lo: a.saturating_add(c), hi: b.saturating_add(d) }
            }
            _ => IntRange::Unreached,
        }
    }

    fn mul(self, other: Self) -> Self {
        match (self, other) {
            (IntRange::Range { lo: a, hi: b }, IntRange::Range { lo: c, hi: d }) => {
                let products = [
                    a.saturating_mul(c),
                    a.saturating_mul(d),
                    b.saturating_mul(c),
                    b.saturating_mul(d),
                ];
                IntRange::Range {
                    lo: *products.iter().min().expect("non-empty"),
                    hi: *products.iter().max().expect("non-empty"),
                }
            }
            _ => IntRange::Unreached,
        }
    }

    /// Joins `other` into `self` (the interval hull); `true` on change.
    fn join_with(&mut self, other: Self) -> bool {
        let joined = match (*self, other) {
            (joined, IntRange::Unreached) | (IntRange::Unreached, joined) => joined,
            (IntRange::Range { lo: a, hi: b }, IntRange::Range { lo: c, hi: d }) => {
                IntRange::Range { lo: a.min(c), hi: b.max(d) }
            }
        };
        joined != std::mem::replace(self, joined)
    }
}

/// The range of block argument `index` of a region of `owner`: an
/// `scf.for` induction variable lies in `[lb.lo, ub.hi - 1]` (the
/// canonical positive step); any other argument is unknown.
fn block_arg_range(
    ctx: &IrCtx,
    owner: OpId,
    index: usize,
    table: &ValueTable<IntRange>,
) -> IntRange {
    let data = ctx.op(owner);
    if data.kind != OpKind::ScfFor || index != 0 || data.operands.len() != 3 {
        return IntRange::FULL;
    }
    match (*table.get(data.operands[0]), *table.get(data.operands[1])) {
        (IntRange::Range { lo, .. }, IntRange::Range { hi, .. }) => {
            let hi = if hi == i64::MAX { hi } else { hi.saturating_sub(1) };
            IntRange::Range { lo, hi: hi.max(lo) }
        }
        _ => IntRange::Unreached,
    }
}

/// The range of every result of `op`: `arith.constant` pins a singleton,
/// `arith.addi`/`arith.muli` propagate interval arithmetic, and anything
/// else is the full range.
fn result_range(ctx: &IrCtx, op: OpId, table: &ValueTable<IntRange>) -> IntRange {
    let data = ctx.op(op);
    let operand = |i: usize| *table.get(data.operands[i]);
    match data.kind {
        OpKind::ArithConstant => match ctx.attr(op, "value") {
            Some(Attribute::Int(v)) => IntRange::exact(*v),
            _ => IntRange::FULL,
        },
        OpKind::ArithAddi if data.operands.len() == 2 => operand(0).add(operand(1)),
        OpKind::ArithMuli if data.operands.len() == 2 => operand(0).mul(operand(1)),
        _ => IntRange::FULL,
    }
}

/// The integer-range table for a subtree, solved forward to a fixpoint.
pub fn integer_ranges(ctx: &IrCtx, root: OpId) -> ValueTable<IntRange> {
    let mut table = ValueTable { facts: vec![IntRange::Unreached; ctx.value_count()] };
    // Pre-order: an op precedes its nested regions, and block ops appear
    // in execution order — so operand facts are usually ready when a use
    // is visited, and the fixpoint loop mops up the rest.
    let order = ctx.walk(root);
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for &op in &order {
            let data = ctx.op(op);
            for &region in &data.regions {
                for &block in &ctx.region(region).blocks {
                    for (index, arg) in ctx.block(block).args.iter().enumerate() {
                        let fact = block_arg_range(ctx, op, index, &table);
                        changed |= table.facts[arg.index()].join_with(fact);
                    }
                }
            }
            if !data.results.is_empty() {
                let fact = result_range(ctx, op, &table);
                for result in &data.results {
                    changed |= table.facts[result.index()].join_with(fact);
                }
            }
        }
        if !changed {
            break;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::ops::Module;
    use crate::types::Type;

    fn const_index(b: &mut OpBuilder, v: i64) -> ValueId {
        let op = b.insert_op(
            OpKind::ArithConstant,
            vec![],
            vec![Type::index()],
            [("value", Attribute::Int(v))],
        );
        b.result(op)
    }

    #[test]
    fn constants_and_arith_have_exact_ranges() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let x = const_index(&mut b, 6);
        let y = const_index(&mut b, 7);
        let sum_op = b.insert_op(OpKind::ArithAddi, vec![x, y], vec![Type::index()], []);
        let sum = b.result(sum_op);
        let prod_op = b.insert_op(OpKind::ArithMuli, vec![x, y], vec![Type::index()], []);
        let prod = b.result(prod_op);
        let ranges = integer_ranges(&m.ctx, m.top());
        assert_eq!(ranges.get(sum).bounds(), Some((13, 13)));
        assert_eq!(ranges.get(prod).bounds(), Some((42, 42)));
    }

    #[test]
    fn induction_variable_is_bounded_by_the_loop() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let lb = const_index(&mut b, 0);
        let ub = const_index(&mut b, 64);
        let step = const_index(&mut b, 8);
        let (_, inner) =
            b.insert_region_op(OpKind::ScfFor, vec![lb, ub, step], vec![], [], vec![Type::index()]);
        let iv = m.ctx.block_arg(inner, 0);
        // iv * 4 inside the body.
        let mut b = OpBuilder::at_end(&mut m.ctx, inner);
        let scale = const_index(&mut b, 4);
        let scaled_op = b.insert_op(OpKind::ArithMuli, vec![iv, scale], vec![Type::index()], []);
        let scaled = b.result(scaled_op);
        let ranges = integer_ranges(&m.ctx, m.top());
        assert_eq!(ranges.get(iv).bounds(), Some((0, 63)));
        assert_eq!(ranges.get(scaled).bounds(), Some((0, 252)));
    }

    #[test]
    fn unknown_ops_get_the_full_range() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let op = b.insert_op(OpKind::parse("test.opaque"), vec![], vec![Type::index()], []);
        let v = b.result(op);
        let ranges = integer_ranges(&m.ctx, m.top());
        assert_eq!(*ranges.get(v), IntRange::FULL);
    }

    #[test]
    fn liveness_separates_dead_arith_from_stored_values() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        // Dead chain: two constants feeding an unused add.
        let d0 = const_index(&mut b, 1);
        let d1 = const_index(&mut b, 2);
        let dead_add = b.insert_op(OpKind::ArithAddi, vec![d0, d1], vec![Type::index()], []);
        let dead = b.result(dead_add);
        // Live chain: a value stored to memory.
        let buf_op = b.insert_op(
            OpKind::MemrefAlloc,
            vec![],
            vec![Type::MemRef(crate::types::MemRefType::contiguous(vec![4], Type::index()))],
            [],
        );
        let buf = b.result(buf_op);
        let idx = const_index(&mut b, 0);
        let live = const_index(&mut b, 9);
        b.insert_op(OpKind::MemrefStore, vec![live, buf, idx], vec![], []);
        let liveness = Liveness::compute(&m.ctx, m.top());
        assert!(!liveness.live[dead.index()]);
        assert!(!liveness.op_is_live(&m.ctx, dead_add));
        assert!(liveness.live[live.index()]);
        assert!(liveness.live[buf.index()]);
        assert!(liveness.op_is_live(&m.ctx, buf_op));
    }

    #[test]
    fn loop_containing_a_store_keeps_its_bounds_live() {
        let mut m = Module::new();
        let body = m.body();
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let lb = const_index(&mut b, 0);
        let ub = const_index(&mut b, 8);
        let step = const_index(&mut b, 1);
        let (for_op, inner) =
            b.insert_region_op(OpKind::ScfFor, vec![lb, ub, step], vec![], [], vec![Type::index()]);
        let iv = m.ctx.block_arg(inner, 0);
        let mut b = OpBuilder::at_end(&mut m.ctx, inner);
        let buf_op = b.insert_op(
            OpKind::MemrefAlloc,
            vec![],
            vec![Type::MemRef(crate::types::MemRefType::contiguous(vec![8], Type::index()))],
            [],
        );
        let buf = b.result(buf_op);
        b.insert_op(OpKind::MemrefStore, vec![iv, buf, iv], vec![], []);
        let liveness = Liveness::compute(&m.ctx, m.top());
        assert!(liveness.op_is_live(&m.ctx, for_op), "the loop body has effects");
        assert!(liveness.live[ub.index()], "loop bounds feed a live loop");
        // An empty sibling loop is dead.
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let (empty_for, _) =
            b.insert_region_op(OpKind::ScfFor, vec![lb, ub, step], vec![], [], vec![Type::index()]);
        let liveness = Liveness::compute(&m.ctx, m.top());
        assert!(!liveness.op_is_live(&m.ctx, empty_for), "a loop with no effects is dead");
    }
}
