//! The tree-walking interpreter.
//!
//! # Hot-path design
//!
//! A sweep executes the same few dozen ops millions of times, so the
//! interpreter avoids per-executed-op allocation entirely:
//!
//! - **Interned opcodes** — before execution, every op in the [`IrCtx`] is
//!   resolved once into a dense `OpCode` side-table indexed by `OpId`.
//!   Dispatch is a jump on the enum instead of a string match, and
//!   attribute lookups (constant values, subview sizes, callee symbols)
//!   and operand-count and rank checks are paid once per module, not
//!   once per executed op. An op that fails resolution (unknown name,
//!   missing attribute, region, operand or result, unsupported type, an
//!   `accel` op not yet lowered) gets `OpCode::Invalid` holding the
//!   error; it is returned only if the op is ever executed, so there is
//!   one definition of each op's semantics and malformed IR is a
//!   diagnostic, never a panic.
//! - **Dense value frames** — SSA values live in a `Vec<Option<RtValue>>`
//!   indexed by `ValueId` instead of a `HashMap`, and error construction
//!   sits behind `#[cold]` builders so the success path never formats a
//!   string.
//! - **Borrowed operands** — ops read memref descriptors in place from
//!   the frame while they charge the SoC, and a `memref.subview` writes
//!   over its result slot's previous descriptor, reusing its buffers.
//! - **Reusable scratch** — [`InterpScratch`] owns the frame and opcode
//!   buffers so a driver `Session` can keep their capacity warm across
//!   `Soc::recycle`. A steady-state sweep run allocates here once per
//!   `memref.alloc` and on a subview's first execution, never per loop
//!   iteration: a warm run allocates as often at 64³ as at 32³
//!   (`crates/core/tests/run_allocations.rs`).

use axi4mlir_dialects::{accel, linalg};
use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::ops::{BlockId, IrCtx, Module, OpId, ValueId};
use axi4mlir_ir::types::Type;
use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_runtime::dma_lib::{self, names};
use axi4mlir_runtime::kernels::{self, ConvShape};
use axi4mlir_runtime::memref::MemRefDesc;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::cache::AccessKind;
use axi4mlir_sim::mem::{ElemType, SimAddr};
use axi4mlir_support::entity::EntityId;

use crate::error::InterpError;
use crate::value::RtValue;

/// Highest memref rank an op may index: its indices gather into a stack
/// buffer of this size.
const MAX_RANK: usize = 8;

/// A runtime-library callee, resolved from the `callee` attribute once.
#[derive(Clone, Copy, Debug)]
enum RtFn {
    DmaInit,
    WriteLiteral,
    CopyTo,
    StartSend,
    WaitSend,
    StartRecv,
    WaitRecv,
    CopyFrom,
}

/// One op's pre-resolved dispatch record (see module docs).
#[derive(Clone, Debug)]
enum OpCode {
    /// `arith.constant`, folded to its runtime value.
    Const(RtValue),
    /// `arith.addi` / `arith.muli` (`add` selects addition).
    IntBin { add: bool },
    /// `arith.addf` / `arith.mulf` (`add` selects addition).
    FloatBin { add: bool },
    /// `arith.index_cast` producing an `index`.
    CastToIndex,
    /// `arith.index_cast` producing an integer.
    CastToI32,
    /// `scf.for` with its body block and induction variable.
    For { body: BlockId, iv: ValueId },
    /// `scf.yield` / `func.return`.
    Nop,
    /// `memref.alloc` with its static shape.
    Alloc { shape: Vec<i64>, elem: ElemType },
    /// `memref.subview` with its `static_sizes`.
    Subview { sizes: Vec<i64> },
    /// `memref.load`.
    Load,
    /// `memref.store`.
    Store,
    /// `memref.dim` with its `dimension` attribute.
    Dim(i64),
    /// `linalg.matmul` / matmul-trait `linalg.generic`.
    CpuMatMul,
    /// `linalg.conv_2d_nchw_fchw`.
    CpuConv { stride: usize },
    /// `func.call` to a known runtime-library symbol.
    Call(RtFn),
    /// Resolution failed or the op is unknown: executing the op returns
    /// this error. (Boxed so the rare case does not widen every slot.)
    Invalid(Box<InterpError>),
}

/// Reusable interpreter buffers: the dense value frame and the opcode
/// side-table. Owning one across runs (the driver `Session` does) keeps
/// their capacity warm so steady-state sweeps allocate nothing per run.
#[derive(Debug, Default)]
pub struct InterpScratch {
    frame: Frame,
    codes: Vec<OpCode>,
}

impl InterpScratch {
    /// Creates empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Interprets one function of a module against a simulated SoC.
struct Interpreter<'a> {
    /// The system everything executes against.
    pub soc: &'a mut Soc,
    /// Staging copy strategy for DMA-library calls (the Fig. 12 toggle).
    pub copy_strategy: CopyStrategy,
    env: Frame,
    codes: Vec<OpCode>,
}

/// The dense value frame: one slot per `ValueId` of the module. Its
/// accessors borrow from the frame alone, so an op can hold an operand's
/// descriptor while it charges the SoC.
#[derive(Debug, Default)]
struct Frame {
    slots: Vec<Option<RtValue>>,
}

/// Runs `func_name` from `module` with the given arguments.
///
/// # Errors
///
/// Returns [`InterpError`] for unsupported IR, runtime type mismatches, or
/// DMA protocol violations.
pub fn run_func(
    soc: &mut Soc,
    module: &Module,
    func_name: &str,
    args: Vec<RtValue>,
    copy_strategy: CopyStrategy,
) -> Result<(), InterpError> {
    let mut scratch = InterpScratch::new();
    run_func_with_scratch(soc, module, func_name, args, copy_strategy, &mut scratch)
}

/// [`run_func`] with caller-owned scratch buffers, reused across runs.
///
/// # Errors
///
/// See [`run_func`].
pub fn run_func_with_scratch(
    soc: &mut Soc,
    module: &Module,
    func_name: &str,
    args: Vec<RtValue>,
    copy_strategy: CopyStrategy,
    scratch: &mut InterpScratch,
) -> Result<(), InterpError> {
    let Some(func) = module.func_named(func_name) else {
        return Err(no_such_function(func_name));
    };
    let mut interp = Interpreter {
        soc,
        copy_strategy,
        env: std::mem::take(&mut scratch.frame),
        codes: std::mem::take(&mut scratch.codes),
    };
    let result = interp.run(&module.ctx, func, args);
    scratch.frame = std::mem::take(&mut interp.env);
    scratch.codes = std::mem::take(&mut interp.codes);
    result
}

// ---------------------------------------------------------------------
// Opcode resolution (once per module)
// ---------------------------------------------------------------------

fn build_table(ctx: &IrCtx, codes: &mut Vec<OpCode>) {
    codes.clear();
    codes.reserve(ctx.op_count());
    for index in 0..ctx.op_count() {
        let code = resolve(ctx, OpId::from_index(index));
        codes.push(code.unwrap_or_else(|why| OpCode::Invalid(Box::new(why))));
    }
}

/// The first result of `op`, whose type decides what the op produces.
fn first_result(ctx: &IrCtx, op: OpId) -> Result<ValueId, InterpError> {
    let data = ctx.op(op);
    data.results.first().copied().ok_or_else(|| other(&format!("{} without a result", data.name)))
}

/// The only block of the only region of `op`.
fn sole_body(ctx: &IrCtx, op: OpId) -> Result<BlockId, InterpError> {
    let data = ctx.op(op);
    if let [region] = data.regions[..] {
        if let [body] = ctx.region(region).blocks[..] {
            return Ok(body);
        }
    }
    Err(other(&format!("{} must have exactly one region of exactly one block", data.name)))
}

/// Resolves `op` to its dispatch record, or to the reason it cannot be
/// executed. The `accel` dialect has no record: `LowerAccelToRuntimePass`
/// alone says what its ops do, so one reaches here only unlowered.
fn resolve(ctx: &IrCtx, op: OpId) -> Result<OpCode, InterpError> {
    let data = ctx.op(op);
    let code = match &*data.name {
        "arith.constant" => {
            let value = ctx
                .attr(op, "value")
                .and_then(Attribute::as_int)
                .ok_or_else(|| other("constant without value"))?;
            OpCode::Const(match ctx.value_type(first_result(ctx, op)?) {
                Type::Index => RtValue::Index(value),
                Type::Int(_) => RtValue::I32(value as i32),
                Type::Float(_) => RtValue::F32(value as f32),
                ty => return Err(type_mismatch(&format!("constant of type {ty}"))),
            })
        }
        "arith.addi" => OpCode::IntBin { add: true },
        "arith.muli" => OpCode::IntBin { add: false },
        "arith.addf" => OpCode::FloatBin { add: true },
        "arith.mulf" => OpCode::FloatBin { add: false },
        "arith.index_cast" => match ctx.value_type(first_result(ctx, op)?) {
            Type::Index => OpCode::CastToIndex,
            Type::Int(_) => OpCode::CastToI32,
            ty => return Err(type_mismatch(&format!("index_cast to {ty}"))),
        },
        "scf.for" => {
            let body = sole_body(ctx, op)?;
            let iv = ctx
                .block(body)
                .args
                .first()
                .copied()
                .ok_or_else(|| other("scf.for body without an induction variable"))?;
            OpCode::For { body, iv }
        }
        "scf.yield" | "func.return" => OpCode::Nop,
        "memref.alloc" => {
            let m = ctx
                .value_type(first_result(ctx, op)?)
                .as_memref()
                .ok_or_else(|| type_mismatch("alloc result"))?;
            let elem = elem_type(&m.elem)?;
            if m.shape.iter().any(|d| *d < 0) {
                return Err(other("cannot alloc dynamic shape"));
            }
            OpCode::Alloc { shape: m.shape.clone(), elem }
        }
        "memref.subview" => {
            let sizes = ctx
                .attr(op, "static_sizes")
                .and_then(Attribute::as_array)
                .map(|a| a.iter().filter_map(Attribute::as_int).collect::<Vec<_>>())
                .ok_or_else(|| other("subview without static_sizes"))?;
            OpCode::Subview { sizes }
        }
        "memref.load" => OpCode::Load,
        "memref.store" => OpCode::Store,
        "memref.dim" => OpCode::Dim(
            ctx.attr(op, "dimension")
                .and_then(Attribute::as_int)
                .ok_or_else(|| other("memref.dim without dimension"))?,
        ),
        "linalg.generic" | "linalg.matmul" => {
            if data.name == "linalg.generic" && !linalg::is_matmul_generic(ctx, op) {
                return Err(unsupported_op("linalg.generic without the MatMul trait"));
            }
            OpCode::CpuMatMul
        }
        "linalg.conv_2d_nchw_fchw" => {
            let stride = ctx
                .attr(op, "strides")
                .and_then(Attribute::as_array)
                .and_then(|a| a.first())
                .and_then(Attribute::as_int)
                .unwrap_or(1);
            // A negative stride becomes 0, which the signature check refuses.
            OpCode::CpuConv { stride: usize::try_from(stride).unwrap_or(0) }
        }
        "func.call" => {
            let callee = ctx
                .attr(op, "callee")
                .and_then(Attribute::as_str)
                .ok_or_else(|| other("call without callee"))?;
            OpCode::Call(match callee {
                names::DMA_INIT => RtFn::DmaInit,
                names::WRITE_LITERAL => RtFn::WriteLiteral,
                names::COPY_TO => RtFn::CopyTo,
                names::START_SEND => RtFn::StartSend,
                names::WAIT_SEND => RtFn::WaitSend,
                names::START_RECV => RtFn::StartRecv,
                names::WAIT_RECV => RtFn::WaitRecv,
                names::COPY_FROM => RtFn::CopyFrom,
                _ => return Err(InterpError::UnknownCallee { name: callee.to_owned() }),
            })
        }
        name if accel::is_accel_op(ctx, op) => return Err(unlowered(name)),
        name => return Err(unsupported_op(name)),
    };
    check_signature(ctx, op, &code)?;
    Ok(code)
}

/// Checks that `op` has every operand and result `code` reads or writes,
/// that its memrefs have the rank `code` indexes, and that a CPU kernel's
/// memrefs have the shapes it indexes, so execution can index them
/// unchecked.
fn check_signature(ctx: &IrCtx, op: OpId, code: &OpCode) -> Result<(), InterpError> {
    let data = ctx.op(op);
    // The static rank of operand `i`; 0 for no memref, which execution
    // then refuses by type.
    let rank = |i: usize| {
        let memref = data.operands.get(i).and_then(|v| ctx.value_type(*v).as_memref());
        memref.map_or(0, |m| m.shape.len())
    };
    let kernel = |want: usize| (0..3).all(|i| rank(i) == want);
    // (operands, or `None` where none is read; results; ranks agree)
    let (operands, results, ranked) = match code {
        OpCode::Const(_) | OpCode::Alloc { .. } => (None, 1, true),
        OpCode::Nop | OpCode::Invalid(_) => (None, 0, true),
        OpCode::IntBin { .. } | OpCode::FloatBin { .. } => (Some(2), 1, true),
        OpCode::CastToIndex | OpCode::CastToI32 | OpCode::Dim(_) => (Some(1), 1, true),
        OpCode::For { .. } => (Some(3), 0, true),
        OpCode::Subview { sizes } => {
            (Some(1 + sizes.len()), 1, rank(0) == sizes.len() && sizes.len() <= MAX_RANK)
        }
        OpCode::Load => (Some(1 + rank(0)), 1, rank(0) <= MAX_RANK),
        OpCode::Store => (Some(2 + rank(1)), 0, rank(1) <= MAX_RANK),
        OpCode::CpuMatMul => (Some(3), 0, kernel(2)),
        OpCode::CpuConv { .. } => (Some(3), 0, kernel(4)),
        OpCode::Call(RtFn::WaitSend | RtFn::WaitRecv) => (Some(0), 0, true),
        OpCode::Call(RtFn::StartSend | RtFn::StartRecv) => (Some(2), 0, true),
        OpCode::Call(RtFn::WriteLiteral | RtFn::CopyTo) => (Some(2), 1, true),
        OpCode::Call(RtFn::CopyFrom) => (Some(3), 1, true),
        OpCode::Call(RtFn::DmaInit) => (Some(5), 0, true),
    };
    let found = (data.operands.len(), data.results.len());
    if !ranked || operands.is_some_and(|n| n != found.0) || found.1 < results {
        return Err(bad_signature(&data.name, operands.unwrap_or(found.0), results, found));
    }
    check_kernel_shapes(ctx, op, code)
}

/// Checks that a CPU kernel's three memrefs have static extents that
/// agree: `A[m, k]`, `B[k, n]`, `C[m, n]` for a MatMul; for a Conv2D a
/// square NCHW input, a square FCHW filter no larger than it, and the
/// output they make at the op's (positive) stride.
fn check_kernel_shapes(ctx: &IrCtx, op: OpId, code: &OpCode) -> Result<(), InterpError> {
    let data = ctx.op(op);
    let shape = |i: usize| {
        let memref = data.operands.get(i).and_then(|v| ctx.value_type(*v).as_memref());
        memref.map_or(&[][..], |m| m.shape.as_slice())
    };
    let shapes = (shape(0), shape(1), shape(2));
    let fixed = [shapes.0, shapes.1, shapes.2].iter().all(|s| s.iter().all(|&e| e >= 0));
    let (agree, rule) = match (code, shapes) {
        (OpCode::CpuMatMul, (&[m, k], &[k2, n], &[m2, n2])) => {
            (k == k2 && m == m2 && n == n2, "A[m, k], B[k, n], C[m, n]".to_owned())
        }
        (&OpCode::CpuConv { stride }, (&[b, ic, h, w], &[oc, ic2, f, f2], &[b2, oc2, o, o2])) => (
            fixed
                && stride > 0
                && (h, f, ic, b, oc, o) == (w, f2, ic2, b2, oc2, o2)
                && f <= h
                && o == ((h - f) as usize / stride + 1) as i64,
            format!(
                "input[b, c, h, h], filter[oc, c, f, f], output[b, oc, o, o] with f <= h \
                 and o = (h - f) / {stride} + 1"
            ),
        ),
        _ => return Ok(()),
    };
    if fixed && agree {
        return Ok(());
    }
    let found = data.operands.iter().map(|v| ctx.value_type(*v).to_string());
    Err(InterpError::Other {
        message: format!(
            "{} operands must be memrefs {rule} of static extents; found {}",
            data.name,
            found.collect::<Vec<_>>().join(", ")
        ),
    })
}

impl Frame {
    fn get(&self, v: ValueId) -> Result<&RtValue, InterpError> {
        match self.slots.get(v.index()) {
            Some(Some(value)) => Ok(value),
            _ => Err(undefined_value(v)),
        }
    }

    fn index(&self, v: ValueId) -> Result<i64, InterpError> {
        match self.get(v)?.as_index() {
            Some(i) => Ok(i),
            None => Err(not_a(v, "an index")),
        }
    }

    fn int_any(&self, v: ValueId) -> Result<i64, InterpError> {
        match self.get(v)?.as_int_any() {
            Some(i) => Ok(i),
            None => Err(not_a(v, "an integer")),
        }
    }

    fn memref(&self, v: ValueId) -> Result<&MemRefDesc, InterpError> {
        match self.get(v)?.as_memref() {
            Some(d) => Ok(d),
            None => Err(not_a(v, "a memref")),
        }
    }

    /// Gathers index operands into a stack buffer; resolution caps
    /// their number at [`MAX_RANK`].
    fn indices<'b>(
        &self,
        operands: &[ValueId],
        buf: &'b mut [i64; MAX_RANK],
    ) -> Result<&'b [i64], InterpError> {
        for (slot, v) in buf.iter_mut().zip(operands) {
            *slot = self.index(*v)?;
        }
        Ok(&buf[..operands.len()])
    }

    /// Resolves `memref[indices...]` for the op `name` without cloning
    /// the descriptor; an index outside the view is that op's error.
    fn addressed_elem(
        &self,
        name: &str,
        memref: ValueId,
        index_operands: &[ValueId],
    ) -> Result<(SimAddr, ElemType), InterpError> {
        let desc = self.memref(memref)?;
        let mut buf = [0i64; MAX_RANK];
        let indices = self.indices(index_operands, &mut buf)?;
        let inside = indices.len() == desc.sizes.len()
            && indices.iter().zip(&desc.sizes).all(|(index, size)| (0..*size).contains(index));
        if !inside {
            return Err(outside_view(name, indices, &desc.sizes));
        }
        Ok((desc.elem_addr(indices), desc.elem))
    }
}

impl<'a> Interpreter<'a> {
    /// Executes a `func.func` op with the given arguments.
    ///
    /// # Errors
    ///
    /// See [`run_func`].
    fn run(&mut self, ctx: &IrCtx, func: OpId, args: Vec<RtValue>) -> Result<(), InterpError> {
        let mut codes = std::mem::take(&mut self.codes);
        build_table(ctx, &mut codes);
        self.env.slots.clear();
        self.env.slots.resize(ctx.value_count(), None);

        let result = sole_body(ctx, func).and_then(|entry| {
            let params = &ctx.block(entry).args;
            if params.len() != args.len() {
                return Err(bad_arg_count(params.len(), args.len()));
            }
            for (p, a) in params.iter().zip(args) {
                self.env.slots[p.index()] = Some(a);
            }
            self.exec_block(ctx, &codes, entry)
        });
        self.codes = codes;
        result
    }

    fn set(&mut self, op: OpId, ctx: &IrCtx, index: usize, value: RtValue) {
        self.env.slots[ctx.result(op, index).index()] = Some(value);
    }

    fn exec_block(
        &mut self,
        ctx: &IrCtx,
        codes: &[OpCode],
        block: BlockId,
    ) -> Result<(), InterpError> {
        // No clone of the op list: `ctx` is never mutated during
        // execution, so its blocks can be iterated alongside `&mut self`.
        for &op in &ctx.block(block).ops {
            self.exec_op(ctx, codes, op)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn exec_op(&mut self, ctx: &IrCtx, codes: &[OpCode], op: OpId) -> Result<(), InterpError> {
        match &codes[op.index()] {
            // Constants fold into compiled code: free.
            OpCode::Const(value) => {
                let value = value.clone();
                self.set(op, ctx, 0, value);
            }
            OpCode::IntBin { add } => {
                self.soc.charge_arith(1);
                let operands = &ctx.op(op).operands;
                let rt = match (self.env.get(operands[0])?, self.env.get(operands[1])?) {
                    (RtValue::Index(a), RtValue::Index(b)) => {
                        RtValue::Index(if *add { a + b } else { a * b })
                    }
                    (RtValue::I32(a), RtValue::I32(b)) => {
                        RtValue::I32(if *add { a.wrapping_add(*b) } else { a.wrapping_mul(*b) })
                    }
                    _ => return Err(int_bin_mismatch(&ctx.op(op).name)),
                };
                self.set(op, ctx, 0, rt);
            }
            OpCode::FloatBin { add } => {
                self.soc.charge_arith(1);
                let operands = &ctx.op(op).operands;
                let (RtValue::F32(a), RtValue::F32(b)) =
                    (self.env.get(operands[0])?, self.env.get(operands[1])?)
                else {
                    return Err(type_mismatch("float operands"));
                };
                let rt = RtValue::F32(if *add { a + b } else { a * b });
                self.set(op, ctx, 0, rt);
            }
            OpCode::CastToIndex => {
                self.soc.charge_arith(1);
                let v = self.env.int_any(ctx.op(op).operands[0])?;
                self.set(op, ctx, 0, RtValue::Index(v));
            }
            OpCode::CastToI32 => {
                self.soc.charge_arith(1);
                let v = self.env.int_any(ctx.op(op).operands[0])?;
                self.set(op, ctx, 0, RtValue::I32(v as i32));
            }
            OpCode::For { body, iv } => {
                let operands = &ctx.op(op).operands;
                let lb = self.env.index(operands[0])?;
                let ub = self.env.index(operands[1])?;
                let step = self.env.index(operands[2])?;
                if step <= 0 {
                    return Err(other("scf.for step must be positive"));
                }
                let mut i = lb;
                while i < ub {
                    // Compiled loop overhead: compare + increment + branch.
                    self.soc.charge_arith(2);
                    self.soc.charge_branch(1);
                    self.env.slots[iv.index()] = Some(RtValue::Index(i));
                    self.exec_block(ctx, codes, *body)?;
                    i += step;
                }
            }
            OpCode::Nop => {}
            OpCode::Alloc { shape, elem } => {
                self.soc.charge_host_cycles(40); // allocator call
                let desc = MemRefDesc::alloc(&mut self.soc.mem, shape, *elem);
                self.set(op, ctx, 0, RtValue::MemRef(desc));
            }
            OpCode::Subview { sizes } => {
                let operands = &ctx.op(op).operands;
                // The result slot's last descriptor lends its buffers, so a
                // subview re-taken in a loop allocates nothing.
                let result = ctx.result(op, 0).index();
                let mut view = match self.env.slots[result].take() {
                    Some(RtValue::MemRef(view)) => view,
                    _ => self.env.memref(operands[0])?.clone(),
                };
                let mut buf = [0i64; MAX_RANK];
                let offsets = self.env.indices(&operands[1..], &mut buf)?;
                self.env
                    .memref(operands[0])?
                    .subview_into(offsets, sizes, &mut view)
                    .map_err(|e| InterpError::Other { message: format!("memref.subview {e}") })?;
                // Descriptor arithmetic (Fig. 3): one multiply-add per dim.
                self.soc.charge_arith(2 * sizes.len() as u64);
                self.env.slots[result] = Some(RtValue::MemRef(view));
            }
            OpCode::Load => {
                let operands = &ctx.op(op).operands;
                let (addr, elem) =
                    self.env.addressed_elem("memref.load", operands[0], &operands[1..])?;
                self.soc.charge_arith((operands.len() - 1) as u64);
                self.soc.cached_access(addr, 4, AccessKind::Read);
                let rt = match elem {
                    ElemType::F32 => RtValue::F32(self.soc.mem.read_f32(addr)),
                    _ => RtValue::I32(self.soc.mem.read_i32(addr)),
                };
                self.set(op, ctx, 0, rt);
            }
            OpCode::Store => {
                let operands = &ctx.op(op).operands;
                let (addr, _) =
                    self.env.addressed_elem("memref.store", operands[1], &operands[2..])?;
                self.soc.charge_arith((operands.len() - 2) as u64);
                self.soc.cached_access(addr, 4, AccessKind::Write);
                let word = match self.env.get(operands[0])? {
                    RtValue::I32(v) => *v as u32,
                    RtValue::F32(v) => v.to_bits(),
                    RtValue::Index(v) => *v as i32 as u32,
                    other => return Err(cannot_store(other)),
                };
                self.soc.mem.write_u32(addr, word);
            }
            OpCode::Dim(dim) => {
                let operands = &ctx.op(op).operands;
                let Some(&size) = self.env.memref(operands[0])?.sizes.get(*dim as usize) else {
                    return Err(dim_out_of_range(*dim));
                };
                self.set(op, ctx, 0, RtValue::Index(size));
            }
            OpCode::CpuMatMul => {
                let operands = &ctx.op(op).operands;
                let a = self.env.memref(operands[0])?;
                let b = self.env.memref(operands[1])?;
                let c = self.env.memref(operands[2])?;
                kernels::cpu_matmul_i32(self.soc, a, b, c, None);
            }
            OpCode::CpuConv { stride } => {
                let operands = &ctx.op(op).operands;
                let input = self.env.memref(operands[0])?;
                let filter = self.env.memref(operands[1])?;
                let output = self.env.memref(operands[2])?;
                let shape = ConvShape {
                    batch: input.sizes[0] as usize,
                    in_channels: input.sizes[1] as usize,
                    in_hw: input.sizes[2] as usize,
                    out_channels: filter.sizes[0] as usize,
                    filter_hw: filter.sizes[2] as usize,
                    stride: *stride,
                };
                kernels::cpu_conv2d_i32(self.soc, input, filter, output, shape);
            }
            OpCode::Call(callee) => self.exec_call(ctx, op, *callee)?,
            OpCode::Invalid(why) => return Err((**why).clone()),
        }
        Ok(())
    }

    fn exec_call(&mut self, ctx: &IrCtx, op: OpId, callee: RtFn) -> Result<(), InterpError> {
        let operands = &ctx.op(op).operands;
        match callee {
            RtFn::DmaInit => {
                let vals: Vec<i64> =
                    operands.iter().map(|v| self.env.int_any(*v)).collect::<Result<_, _>>()?;
                dma_lib::dma_init(self.soc, vals[0] as u32, vals[2] as u64, vals[4] as u64);
            }
            RtFn::WriteLiteral => {
                let word = self.env.int_any(operands[0])? as u32;
                let off = self.env.int_any(operands[1])? as u64;
                let new = dma_lib::write_literal_to_dma_region(self.soc, word, off);
                self.set(op, ctx, 0, RtValue::I32(new as i32));
            }
            RtFn::CopyTo => {
                let view = self.env.memref(operands[0])?;
                let off = self.env.int_any(operands[1])? as u64;
                let new = dma_lib::copy_to_dma_region(self.soc, view, off, self.copy_strategy);
                self.set(op, ctx, 0, RtValue::I32(new as i32));
            }
            RtFn::StartSend => {
                let len = self.env.int_any(operands[0])? as u64;
                let off = self.env.int_any(operands[1])? as u64;
                dma_lib::dma_start_send(self.soc, len, off)?;
            }
            RtFn::WaitSend => dma_lib::dma_wait_send_completion(self.soc),
            RtFn::StartRecv => {
                let len = self.env.int_any(operands[0])? as u64;
                let off = self.env.int_any(operands[1])? as u64;
                dma_lib::dma_start_recv(self.soc, len, off)?;
            }
            RtFn::WaitRecv => dma_lib::dma_wait_recv_completion(self.soc),
            RtFn::CopyFrom => {
                let view = self.env.memref(operands[0])?;
                let off = self.env.int_any(operands[1])? as u64;
                let accumulate = self.env.int_any(operands[2])? != 0;
                let bytes = dma_lib::copy_from_dma_region(
                    self.soc,
                    view,
                    off,
                    accumulate,
                    self.copy_strategy,
                );
                self.set(op, ctx, 0, RtValue::I32(bytes as i32));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Cold error builders: the hot path never formats a string.
// ---------------------------------------------------------------------

#[cold]
#[inline(never)]
fn no_such_function(func_name: &str) -> InterpError {
    InterpError::BadArguments { context: format!("no function named {func_name}") }
}

#[cold]
#[inline(never)]
fn bad_arg_count(expected: usize, got: usize) -> InterpError {
    InterpError::BadArguments {
        context: format!("function expects {expected} arguments, got {got}"),
    }
}

#[cold]
#[inline(never)]
fn undefined_value(v: ValueId) -> InterpError {
    InterpError::Other { message: format!("value {v} evaluated before definition") }
}

#[cold]
#[inline(never)]
fn not_a(v: ValueId, what: &str) -> InterpError {
    InterpError::TypeMismatch { context: format!("{v} is not {what}") }
}

#[cold]
#[inline(never)]
fn type_mismatch(context: &str) -> InterpError {
    InterpError::TypeMismatch { context: context.to_owned() }
}

#[cold]
#[inline(never)]
fn other(message: &str) -> InterpError {
    InterpError::Other { message: message.to_owned() }
}

#[cold]
#[inline(never)]
fn outside_view(name: &str, indices: &[i64], sizes: &[i64]) -> InterpError {
    InterpError::Other {
        message: format!("{name} index {indices:?} is outside its view {sizes:?}"),
    }
}

#[cold]
#[inline(never)]
fn unsupported_op(name: &str) -> InterpError {
    InterpError::UnsupportedOp { name: name.to_owned() }
}

#[cold]
#[inline(never)]
fn unlowered(name: &str) -> InterpError {
    InterpError::Other {
        message: format!("`{name}` must be lowered to runtime calls before it runs"),
    }
}

#[cold]
#[inline(never)]
fn bad_signature(
    name: &str,
    operands: usize,
    results: usize,
    found: (usize, usize),
) -> InterpError {
    InterpError::Other {
        message: format!(
            "{name} takes {operands} operands and {results} results, with memrefs of the rank \
             it indexes (at most {MAX_RANK}); found {} operands and {} results",
            found.0, found.1
        ),
    }
}

#[cold]
#[inline(never)]
fn int_bin_mismatch(name: &str) -> InterpError {
    InterpError::TypeMismatch { context: format!("{name} operands must both be index or both i32") }
}

#[cold]
#[inline(never)]
fn cannot_store(value: &RtValue) -> InterpError {
    InterpError::TypeMismatch { context: format!("cannot store {value:?}") }
}

#[cold]
#[inline(never)]
fn dim_out_of_range(dim: i64) -> InterpError {
    InterpError::Other { message: format!("memref.dim {dim} out of range") }
}

fn elem_type(ty: &Type) -> Result<ElemType, InterpError> {
    match ty {
        Type::Int(32) => Ok(ElemType::I32),
        Type::Float(32) => Ok(ElemType::F32),
        Type::Int(64) => Ok(ElemType::I64),
        Type::Float(64) => Ok(ElemType::F64),
        other => {
            Err(InterpError::TypeMismatch { context: format!("unsupported element type {other}") })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_dialects::{arith, func, memref, scf};

    use axi4mlir_sim::axi::LoopbackAccelerator;

    fn soc() -> Soc {
        Soc::new(Box::new(LoopbackAccelerator::new()))
    }

    /// sum = 0; for i in 0..10 { sum += i } via memory cell.
    #[test]
    fn loop_accumulation() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let cell = memref::alloc(&mut b, vec![1], Type::i32());
        let c0 = arith::const_index(&mut b, 0);
        let c10 = arith::const_index(&mut b, 10);
        let c1 = arith::const_index(&mut b, 1);
        let l = scf::for_loop(&mut b, c0, c10, c1);
        let mut bb = scf::body_builder(&mut m.ctx, &l);
        let old = memref::load(&mut bb, cell, vec![c0]);
        let iv32 = arith::index_cast(&mut bb, l.iv, Type::i32());
        let new = arith::addi(&mut bb, old, iv32);
        memref::store(&mut bb, new, cell, vec![c0]);

        let mut s = soc();
        run_func(&mut s, &m, "main", vec![], CopyStrategy::ElementWise).unwrap();
        // Find the cell: it is the only allocation.
        assert_eq!(s.counters.branch_instructions, 10, "one back-edge per iteration");
        // 10 loads + 10 stores.
        assert_eq!(s.counters.cache_references, 20);
        let base = axi4mlir_sim::mem::BASE_ADDR;
        let _ = base;
    }

    #[test]
    fn function_arguments_bind() {
        let mut m = Module::new();
        let mr = Type::MemRef(axi4mlir_ir::types::MemRefType::contiguous(vec![4], Type::i32()));
        let f = func::func(&mut m, "writer", vec![mr], vec![]);
        let arg = func::arg(&m.ctx, f.op, 0);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let c0 = arith::const_index(&mut b, 0);
        let c7 = arith::constant(&mut b, 7, Type::i32());
        memref::store(&mut b, c7, arg, vec![c0]);

        let mut s = soc();
        let desc = MemRefDesc::alloc(&mut s.mem, &[4], ElemType::I32);
        run_func(
            &mut s,
            &m,
            "writer",
            vec![RtValue::MemRef(desc.clone())],
            CopyStrategy::ElementWise,
        )
        .unwrap();
        assert_eq!(s.mem.read_i32(desc.base), 7);
    }

    #[test]
    fn wrong_argument_count_is_reported() {
        let mut m = Module::new();
        func::func(&mut m, "noargs", vec![], vec![]);
        let mut s = soc();
        let err =
            run_func(&mut s, &m, "noargs", vec![RtValue::Index(1)], CopyStrategy::ElementWise)
                .unwrap_err();
        assert!(matches!(err, InterpError::BadArguments { .. }));
        let err2 = run_func(&mut s, &m, "missing", vec![], CopyStrategy::ElementWise).unwrap_err();
        assert!(err2.to_string().contains("no function named"));
    }

    #[test]
    fn unsupported_op_is_reported() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        b.insert_op("test.mystery", vec![], vec![], []);
        let mut s = soc();
        let err = run_func(&mut s, &m, "main", vec![], CopyStrategy::ElementWise).unwrap_err();
        assert_eq!(err, InterpError::UnsupportedOp { name: "test.mystery".into() });
    }

    #[test]
    fn linalg_generic_dispatches_to_cpu_kernel() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![4, 4], Type::i32());
        let bb = memref::alloc(&mut b, vec![4, 4], Type::i32());
        let c = memref::alloc(&mut b, vec![4, 4], Type::i32());
        axi4mlir_dialects::linalg::generic_matmul(&mut b, a, bb, c);
        let mut s = soc();
        run_func(&mut s, &m, "main", vec![], CopyStrategy::ElementWise).unwrap();
        // Zero-initialized inputs: result is zero, but the kernel ran:
        assert!(s.counters.cache_references > 0);
        assert_eq!(s.counters.accel_macs, 0);
    }

    #[test]
    fn subview_addressing_matches_runtime() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![8, 8], Type::i32());
        let c2 = arith::const_index(&mut b, 2);
        let c3 = arith::const_index(&mut b, 3);
        let tile = memref::subview(&mut b, buf, vec![c2, c3], vec![2, 2]);
        let c0 = arith::const_index(&mut b, 0);
        let c9 = arith::constant(&mut b, 9, Type::i32());
        memref::store(&mut b, c9, tile, vec![c0, c0]);
        let mut s = soc();
        run_func(&mut s, &m, "main", vec![], CopyStrategy::ElementWise).unwrap();
        // The store landed at flat index 2*8+3 = 19 of the 8x8 buffer.
        let base = s.mem.load_i32_slice(axi4mlir_sim::mem::SimAddr(0x1_0000), 0);
        let _ = base;
        // Locate the buffer through a fresh descriptor with the same
        // deterministic allocation order: first alloc starts at the arena
        // base (64-aligned).
        let addr = axi4mlir_sim::mem::SimAddr(0x1_0000);
        assert_eq!(s.mem.read_i32(addr.offset(19 * 4)), 9);
    }

    /// Reusing one scratch across recycled runs must be bit-identical to
    /// fresh per-run scratch.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let cell = memref::alloc(&mut b, vec![1], Type::i32());
        let c0 = arith::const_index(&mut b, 0);
        let c8 = arith::const_index(&mut b, 8);
        let c1 = arith::const_index(&mut b, 1);
        let l = scf::for_loop(&mut b, c0, c8, c1);
        let mut bb = scf::body_builder(&mut m.ctx, &l);
        let old = memref::load(&mut bb, cell, vec![c0]);
        let iv32 = arith::index_cast(&mut bb, l.iv, Type::i32());
        let new = arith::addi(&mut bb, old, iv32);
        memref::store(&mut bb, new, cell, vec![c0]);

        let mut fresh = soc();
        run_func(&mut fresh, &m, "main", vec![], CopyStrategy::ElementWise).unwrap();

        let mut reused = soc();
        let mut scratch = InterpScratch::new();
        for _ in 0..3 {
            reused.recycle();
            run_func_with_scratch(
                &mut reused,
                &m,
                "main",
                vec![],
                CopyStrategy::ElementWise,
                &mut scratch,
            )
            .unwrap();
        }
        assert_eq!(reused.counters, fresh.counters, "scratch reuse must not change counters");
    }

    /// Every op a realistic lowered module contains resolves to a real
    /// opcode; `Invalid` is reserved for broken IR.
    #[test]
    fn known_ops_do_not_fall_back() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let buf = memref::alloc(&mut b, vec![4, 4], Type::i32());
        let c0 = arith::const_index(&mut b, 0);
        let c4 = arith::const_index(&mut b, 4);
        let c1 = arith::const_index(&mut b, 1);
        let l = scf::for_loop(&mut b, c0, c4, c1);
        let mut bb = scf::body_builder(&mut m.ctx, &l);
        let v = memref::load(&mut bb, buf, vec![l.iv, c0]);
        let doubled = arith::addi(&mut bb, v, v);
        memref::store(&mut bb, doubled, buf, vec![l.iv, c0]);

        let mut codes = Vec::new();
        build_table(&m.ctx, &mut codes);
        for (index, code) in codes.iter().enumerate() {
            let op = OpId::from_index(index);
            let name = &*m.ctx.op(op).name;
            if matches!(name, "builtin.module" | "func.func") {
                continue; // containers are never executed
            }
            assert!(
                !matches!(code, OpCode::Invalid(_)),
                "op `{name}` unexpectedly failed resolution"
            );
        }
    }
}
