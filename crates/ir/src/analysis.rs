//! Reusable dataflow analysis over the structured-control-flow IR.
//!
//! The IR has no unstructured CFG: control flow is region nesting
//! (`scf.for` bodies, function bodies), every block executes straight
//! through, and SSA visibility follows the region tree. That makes
//! dataflow simple but not trivial — loop induction variables couple a
//! block argument to the facts of the enclosing op's operands, so the
//! solvers here iterate the whole region tree to a fixpoint instead of
//! assuming one pass suffices.
//!
//! Three layers:
//!
//! - [`Lattice`] + [`ValueTable`]: a fact per SSA value, stored densely by
//!   value index, joined monotonically.
//! - `ForwardAnalysis` / `BackwardAnalysis` + `solve_forward` /
//!   `solve_backward`: the generic fixpoint engines. Forward transfer
//!   functions compute result facts from operand facts (with a hook for
//!   block arguments, where induction-variable facts are born); backward
//!   transfer functions push facts from uses to operands.
//! - Concrete analyses: [`Liveness`] (backward — which values and ops
//!   feed an observable effect) and [`IntRange`] integer-range analysis
//!   over index arithmetic (forward — constant/interval bounds for
//!   `arith` ops and `scf.for` induction variables). (Use-before-def is
//!   the structural verifier's check, [`crate::verifier`].)
//!
//! The lint suite in `axi4mlir-dialects` builds on these: dead-annotation
//! detection uses [`Liveness`], and the DMA bounds checks use
//! [`integer_ranges`] to bound subview offsets statically.

use std::collections::HashSet;

use axi4mlir_support::entity::EntityId;

use crate::attrs::Attribute;
use crate::ops::{BlockId, IrCtx, OpId, ValueId};

/// A join-semilattice of dataflow facts.
///
/// `bottom` is the "no information yet / unreached" element; joining must
/// be monotone (facts only ever move up) so the fixpoint terminates.
pub trait Lattice: Clone + PartialEq {
    /// The least element (unreached / undefined).
    fn bottom() -> Self;

    /// Joins `other` into `self`; returns `true` if `self` changed.
    fn join_with(&mut self, other: &Self) -> bool;
}

/// A dense table of one fact per SSA value.
#[derive(Clone, Debug)]
pub struct ValueTable<L> {
    facts: Vec<L>,
}

impl<L: Lattice> ValueTable<L> {
    /// A table of `len` bottom facts.
    fn new(len: usize) -> Self {
        Self { facts: vec![L::bottom(); len] }
    }

    /// The fact for `value`.
    pub fn get(&self, value: ValueId) -> &L {
        &self.facts[value.index()]
    }

    /// Joins `fact` into the entry for `value`; returns `true` on change.
    fn join(&mut self, value: ValueId, fact: &L) -> bool {
        self.facts[value.index()].join_with(fact)
    }
}

/// Safety valve: the region tree is acyclic (no loop-carried SSA values —
/// `scf.for` bodies take only the induction variable), so fixpoints
/// converge in a handful of passes; the cap only guards against a
/// non-monotone analysis looping forever.
const MAX_PASSES: usize = 64;

/// A forward dataflow analysis: facts flow from operands to results.
trait ForwardAnalysis {
    /// The fact domain.
    type Fact: Lattice;

    /// The fact for block argument `index` of `block`, whose region is
    /// owned by `owner`. This is where facts enter a region: an `scf.for`
    /// induction variable derives its fact from the loop-bound operands
    /// (available in `table`), a function argument gets a boundary fact.
    fn block_arg_fact(
        &self,
        ctx: &IrCtx,
        owner: OpId,
        block: BlockId,
        index: usize,
        table: &ValueTable<Self::Fact>,
    ) -> Self::Fact;

    /// Pushes one fact per result of `op`, given the operand facts in
    /// `table`.
    fn transfer(
        &self,
        ctx: &IrCtx,
        op: OpId,
        table: &ValueTable<Self::Fact>,
        results: &mut Vec<Self::Fact>,
    );
}

/// Runs `analysis` to a fixpoint over the subtree rooted at `root`.
fn solve_forward<A: ForwardAnalysis>(ctx: &IrCtx, root: OpId, analysis: &A) -> ValueTable<A::Fact> {
    let mut table = ValueTable::new(ctx.value_count());
    // Pre-order: an op precedes its nested regions, and block ops appear
    // in execution order — so operand facts are usually ready when a use
    // is visited, and the fixpoint loop mops up the rest.
    let order = ctx.walk(root);
    let mut results = Vec::new();
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for &op in &order {
            for &region in &ctx.op(op).regions {
                for &block in &ctx.region(region).blocks {
                    for index in 0..ctx.block(block).args.len() {
                        let fact = analysis.block_arg_fact(ctx, op, block, index, &table);
                        let arg = ctx.block(block).args[index];
                        changed |= table.join(arg, &fact);
                    }
                }
            }
            results.clear();
            analysis.transfer(ctx, op, &table, &mut results);
            for (index, fact) in results.iter().enumerate() {
                let value = ctx.op(op).results[index];
                changed |= table.join(value, fact);
            }
        }
        if !changed {
            break;
        }
    }
    table
}

/// A backward dataflow analysis: facts flow from uses to operands.
trait BackwardAnalysis {
    /// The fact domain.
    type Fact: Lattice;

    /// Pushes facts onto arbitrary values (typically `op`'s operands),
    /// given the facts currently in `table`.
    fn transfer(
        &self,
        ctx: &IrCtx,
        op: OpId,
        table: &ValueTable<Self::Fact>,
        out: &mut Vec<(ValueId, Self::Fact)>,
    );
}

/// Runs `analysis` to a fixpoint, visiting ops in reverse execution order.
fn solve_backward<A: BackwardAnalysis>(
    ctx: &IrCtx,
    root: OpId,
    analysis: &A,
) -> ValueTable<A::Fact> {
    let mut table = ValueTable::new(ctx.value_count());
    let mut order = ctx.walk(root);
    order.reverse();
    let mut out = Vec::new();
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for &op in &order {
            out.clear();
            analysis.transfer(ctx, op, &table, &mut out);
            for (value, fact) in &out {
                changed |= table.join(*value, fact);
            }
        }
        if !changed {
            break;
        }
    }
    table
}

// ---------------------------------------------------------------------
// Liveness (backward)
// ---------------------------------------------------------------------

/// Liveness fact: `Live(true)` once some observable effect needs the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Live(pub bool);

impl Lattice for Live {
    fn bottom() -> Self {
        Live(false)
    }

    fn join_with(&mut self, other: &Self) -> bool {
        if !self.0 && other.0 {
            self.0 = true;
            return true;
        }
        false
    }
}

/// `true` for ops whose execution is observable regardless of whether
/// their results are used (stores, `accel` traffic, calls, terminators,
/// and anything we don't recognize — unknown ops are conservatively
/// effectful).
fn has_side_effects(name: &str) -> bool {
    let pure = name.starts_with("arith.")
        || matches!(name, "memref.load" | "memref.subview" | "memref.alloc" | "memref.alloca");
    !pure
}

struct LivenessAnalysis<'a> {
    /// Ops that are live by themselves: side-effecting, or (for
    /// region-owning ops) transitively containing a side-effecting op.
    rooted: &'a HashSet<OpId>,
}

impl BackwardAnalysis for LivenessAnalysis<'_> {
    type Fact = Live;

    fn transfer(
        &self,
        ctx: &IrCtx,
        op: OpId,
        table: &ValueTable<Live>,
        out: &mut Vec<(ValueId, Live)>,
    ) {
        let data = ctx.op(op);
        let live = self.rooted.contains(&op) || data.results.iter().any(|r| table.get(*r).0);
        if live {
            out.extend(data.operands.iter().map(|o| (*o, Live(true))));
        }
    }
}

/// The computed liveness of a subtree: per-value facts plus the op-level
/// root set.
#[derive(Debug)]
pub struct Liveness {
    values: ValueTable<Live>,
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
            if nested_rooted || (data.regions.is_empty() && has_side_effects(&data.name)) {
                rooted.insert(op);
            }
        }
        let values = solve_backward(ctx, root, &LivenessAnalysis { rooted: &rooted });
        Self { values, rooted }
    }

    /// `true` if `value` feeds an observable effect.
    fn value_is_live(&self, value: ValueId) -> bool {
        self.values.get(value).0
    }

    /// `true` if `op` must execute: it is side-effecting (directly or via
    /// a nested op) or produces a live value.
    pub fn op_is_live(&self, ctx: &IrCtx, op: OpId) -> bool {
        self.rooted.contains(&op) || ctx.op(op).results.iter().any(|r| self.value_is_live(*r))
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
}

impl Lattice for IntRange {
    fn bottom() -> Self {
        IntRange::Unreached
    }

    fn join_with(&mut self, other: &Self) -> bool {
        match (*self, *other) {
            (_, IntRange::Unreached) => false,
            (IntRange::Unreached, r) => {
                *self = r;
                true
            }
            (IntRange::Range { lo: a, hi: b }, IntRange::Range { lo: c, hi: d }) => {
                let joined = IntRange::Range { lo: a.min(c), hi: b.max(d) };
                let changed = joined != *self;
                *self = joined;
                changed
            }
        }
    }
}

/// Integer-range analysis over index arithmetic: `arith.constant` pins a
/// singleton, `arith.addi`/`arith.muli` propagate interval arithmetic,
/// and an `scf.for` induction variable is bounded by the loop's
/// lower/upper bound facts (`[lb.lo, ub.hi - 1]` — the canonical positive
/// step). Everything else is the full range.
#[derive(Debug, Default)]
struct IntRangeAnalysis;

impl ForwardAnalysis for IntRangeAnalysis {
    type Fact = IntRange;

    fn block_arg_fact(
        &self,
        ctx: &IrCtx,
        owner: OpId,
        _block: BlockId,
        index: usize,
        table: &ValueTable<IntRange>,
    ) -> IntRange {
        let data = ctx.op(owner);
        if data.name == "scf.for" && index == 0 && data.operands.len() == 3 {
            let lb = *table.get(data.operands[0]);
            let ub = *table.get(data.operands[1]);
            if let (IntRange::Range { lo, .. }, IntRange::Range { hi, .. }) = (lb, ub) {
                let hi = if hi == i64::MAX { hi } else { hi.saturating_sub(1) };
                return IntRange::Range { lo, hi: hi.max(lo) };
            }
            return IntRange::Unreached;
        }
        IntRange::FULL
    }

    fn transfer(
        &self,
        ctx: &IrCtx,
        op: OpId,
        table: &ValueTable<IntRange>,
        results: &mut Vec<IntRange>,
    ) {
        let data = ctx.op(op);
        if data.results.is_empty() {
            return;
        }
        let operand = |i: usize| *table.get(data.operands[i]);
        let fact = match &*data.name {
            "arith.constant" => match ctx.attr(op, "value") {
                Some(Attribute::Int(v)) => IntRange::exact(*v),
                _ => IntRange::FULL,
            },
            "arith.addi" if data.operands.len() == 2 => operand(0).add(operand(1)),
            "arith.muli" if data.operands.len() == 2 => operand(0).mul(operand(1)),
            _ => IntRange::FULL,
        };
        results.extend(data.results.iter().map(|_| fact));
    }
}

/// Convenience wrapper: the integer-range table for a subtree.
pub fn integer_ranges(ctx: &IrCtx, root: OpId) -> ValueTable<IntRange> {
    solve_forward(ctx, root, &IntRangeAnalysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::ops::Module;
    use crate::types::Type;

    fn const_index(b: &mut OpBuilder, v: i64) -> ValueId {
        let op = b.insert_op(
            "arith.constant",
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
        let sum_op = b.insert_op("arith.addi", vec![x, y], vec![Type::index()], []);
        let sum = b.result(sum_op);
        let prod_op = b.insert_op("arith.muli", vec![x, y], vec![Type::index()], []);
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
            b.insert_region_op("scf.for", vec![lb, ub, step], vec![], [], vec![Type::index()]);
        let iv = m.ctx.block_arg(inner, 0);
        // iv * 4 inside the body.
        let mut b = OpBuilder::at_end(&mut m.ctx, inner);
        let scale = const_index(&mut b, 4);
        let scaled_op = b.insert_op("arith.muli", vec![iv, scale], vec![Type::index()], []);
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
        let op = b.insert_op("test.opaque", vec![], vec![Type::index()], []);
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
        let dead_add = b.insert_op("arith.addi", vec![d0, d1], vec![Type::index()], []);
        let dead = b.result(dead_add);
        // Live chain: a value stored to memory.
        let buf_op = b.insert_op(
            "memref.alloc",
            vec![],
            vec![Type::MemRef(crate::types::MemRefType::contiguous(vec![4], Type::index()))],
            [],
        );
        let buf = b.result(buf_op);
        let idx = const_index(&mut b, 0);
        let live = const_index(&mut b, 9);
        b.insert_op("memref.store", vec![live, buf, idx], vec![], []);
        let liveness = Liveness::compute(&m.ctx, m.top());
        assert!(!liveness.value_is_live(dead));
        assert!(!liveness.op_is_live(&m.ctx, dead_add));
        assert!(liveness.value_is_live(live));
        assert!(liveness.value_is_live(buf));
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
            b.insert_region_op("scf.for", vec![lb, ub, step], vec![], [], vec![Type::index()]);
        let iv = m.ctx.block_arg(inner, 0);
        let mut b = OpBuilder::at_end(&mut m.ctx, inner);
        let buf_op = b.insert_op(
            "memref.alloc",
            vec![],
            vec![Type::MemRef(crate::types::MemRefType::contiguous(vec![8], Type::index()))],
            [],
        );
        let buf = b.result(buf_op);
        b.insert_op("memref.store", vec![iv, buf, iv], vec![], []);
        let liveness = Liveness::compute(&m.ctx, m.top());
        assert!(liveness.op_is_live(&m.ctx, for_op), "the loop body has effects");
        assert!(liveness.value_is_live(ub), "loop bounds feed a live loop");
        // An empty sibling loop is dead.
        let mut b = OpBuilder::at_end(&mut m.ctx, body);
        let (empty_for, _) =
            b.insert_region_op("scf.for", vec![lb, ub, step], vec![], [], vec![Type::index()]);
        let liveness = Liveness::compute(&m.ctx, m.top());
        assert!(!liveness.op_is_live(&m.ctx, empty_for), "a loop with no effects is dead");
    }
}
