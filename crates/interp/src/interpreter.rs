//! The tree-walking interpreter.
//!
//! # What it refuses
//!
//! A module's own rules have one owner, the dialect verifier: resolution
//! runs its per-op check (`axi4mlir_dialects::verify::check_op`) first
//! and returns a broken rule as [`InterpError::Unverified`]. What is left
//! here is what the verifier cannot know:
//!
//! - *Capabilities*: an unknown op, an unlowered `accel` op, a
//!   `linalg.generic` without the MatMul trait, an element type the
//!   simulator does not model, and a runtime-library callee and its arity
//!   (the library's ABI, one table: `RT_FNS`).
//! - *Arguments*: each must fit its parameter's type, so a memref
//!   descriptor's shape is always its static type, which the CPU kernels
//!   index unchecked.
//! - *Run-time values*: an undefined value or one of the wrong kind, an
//!   index or subview outside its view, an `scf.for` step that is not
//!   positive, DMA errors, more indices than `MAX_RANK`, and `dma_init`
//!   regions that are negative or past the room left in the simulated
//!   memory (`axi4mlir_sim::mem::CAPACITY`, which the verifier applies
//!   to a `memref.alloc`, whose size is static).
//!
//! # Hot-path design
//!
//! A sweep executes the same few dozen ops millions of times, so the
//! interpreter avoids per-executed-op allocation entirely:
//!
//! - **Interned opcodes** — before execution, every op in the [`IrCtx`] is
//!   resolved once into a dense `OpCode` side-table indexed by `OpId`.
//!   Dispatch is a jump on the enum instead of a string match, and
//!   attribute lookups and the checks that need no run-time value are
//!   paid once per module, not once per executed op. An op that fails
//!   resolution gets `OpCode::Invalid` holding the error; it is returned
//!   only if the op is ever executed, so there is one definition of each
//!   op's semantics and malformed IR is a diagnostic, never a panic.
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

use axi4mlir_dialects::{func, linalg, verify};
use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::kind::OpKind;
use axi4mlir_ir::ops::{BlockId, IrCtx, Module, OpId, ValueId};
use axi4mlir_ir::types::{Type, DYNAMIC};
use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_runtime::dma_lib::{self, names};
use axi4mlir_runtime::kernels::{self, ConvShape};
use axi4mlir_runtime::memref::MemRefDesc;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::cache::AccessKind;
use axi4mlir_sim::dma::Direction;
use axi4mlir_sim::mem::{ElemType, SimAddr, CAPACITY};
use axi4mlir_support::entity::EntityId;

use crate::error::InterpError;
use crate::value::RtValue;

/// Highest memref rank an op may index: its indices gather into a stack
/// buffer of this size.
const MAX_RANK: usize = 8;

/// Why resolution may read what it reads unchecked: `resolve` runs the
/// dialect verifier's rules for the op first.
const VERIFIED: &str = "the dialect verifier checked this op";

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

/// The runtime library's ABI: each callee's symbol, its record, and the
/// operands and results a call to it has.
const RT_FNS: [(&str, RtFn, usize, usize); 8] = [
    (names::DMA_INIT, RtFn::DmaInit, 5, 0),
    (names::WRITE_LITERAL, RtFn::WriteLiteral, 2, 1),
    (names::COPY_TO, RtFn::CopyTo, 2, 1),
    (names::START_SEND, RtFn::StartSend, 2, 0),
    (names::WAIT_SEND, RtFn::WaitSend, 0, 0),
    (names::START_RECV, RtFn::StartRecv, 2, 0),
    (names::WAIT_RECV, RtFn::WaitRecv, 0, 0),
    (names::COPY_FROM, RtFn::CopyFrom, 3, 1),
];

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
    /// `memref.subview` with its result shape, which is its `static_sizes`.
    Subview { sizes: Vec<i64> },
    /// `memref.load`.
    Load,
    /// `memref.store`.
    Store,
    /// `memref.dim` with its `dimension` attribute.
    Dim(usize),
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
        let op = OpId::from_index(index);
        // An erased op is in no block, so it never runs.
        let code = if ctx.op(op).dead { Ok(OpCode::Nop) } else { resolve(ctx, op) };
        codes.push(code.unwrap_or_else(|why| OpCode::Invalid(Box::new(why))));
    }
}

/// Resolves `op` to its dispatch record, or to the reason it cannot be
/// executed. The dialect verifier's rules come first, so the arms below
/// read every operand, result, region and attribute those rules require
/// without checking for it again. The `accel` dialect has no record:
/// `LowerAccelToRuntimePass` alone says what its ops do, so one reaches
/// here only unlowered.
fn resolve(ctx: &IrCtx, op: OpId) -> Result<OpCode, InterpError> {
    verify::check_op(ctx, op).map_err(unverified)?;
    use OpKind::*;
    let data = ctx.op(op);
    let result_type = || ctx.value_type(ctx.result(op, 0));
    Ok(match &data.kind {
        ArithConstant => {
            let value = ctx.attr(op, "value").and_then(Attribute::as_int).expect(VERIFIED);
            OpCode::Const(match result_type() {
                Type::Index => RtValue::Index(value),
                Type::Float(_) => RtValue::F32(value as f32),
                _ => RtValue::I32(value as i32),
            })
        }
        ArithAddi => OpCode::IntBin { add: true },
        ArithMuli => OpCode::IntBin { add: false },
        ArithAddf => OpCode::FloatBin { add: true },
        ArithMulf => OpCode::FloatBin { add: false },
        ArithIndexCast => match result_type() {
            Type::Index => OpCode::CastToIndex,
            _ => OpCode::CastToI32,
        },
        ScfFor => {
            let body = ctx.sole_block(op, 0);
            OpCode::For { body, iv: ctx.block_arg(body, 0) }
        }
        ScfYield | FuncReturn => OpCode::Nop,
        MemrefAlloc => {
            let m = result_type().as_memref().expect(VERIFIED);
            OpCode::Alloc { shape: m.shape.clone(), elem: elem_type(&m.elem)? }
        }
        MemrefSubview => {
            OpCode::Subview { sizes: result_type().as_memref().expect(VERIFIED).shape.clone() }
        }
        MemrefLoad => OpCode::Load,
        MemrefStore => OpCode::Store,
        MemrefDim => {
            let dim = ctx.attr(op, "dimension").and_then(Attribute::as_int).expect(VERIFIED);
            OpCode::Dim(dim as usize)
        }
        kind @ LinalgGeneric if !linalg::is_matmul_generic(ctx, op) => {
            return Err(InterpError::UnsupportedOp {
                name: format!("{kind} without the MatMul trait"),
            });
        }
        LinalgGeneric | LinalgMatmul => OpCode::CpuMatMul,
        LinalgConv2dNchwFchw => OpCode::CpuConv { stride: linalg::conv_stride(ctx, op) as usize },
        FuncCall => {
            let callee = func::callee(ctx, op).expect(VERIFIED);
            let Some(&(_, rt, operands, results)) =
                RT_FNS.iter().find(|(name, ..)| *name == callee)
            else {
                return Err(InterpError::UnknownCallee { name: callee.to_owned() });
            };
            if (data.operands.len(), data.results.len()) != (operands, results) {
                let (o, r) = (data.operands.len(), data.results.len());
                let message = format!(
                    "{kind} @{callee} takes {operands} operands and {results} results; found {o} and {r}",
                    kind = data.kind
                );
                return Err(InterpError::Other { message });
            }
            OpCode::Call(rt)
        }
        kind if kind.is_accel() => {
            let message = format!("`{kind}` must be lowered to runtime calls before it runs");
            return Err(InterpError::Other { message });
        }
        kind => return Err(InterpError::UnsupportedOp { name: kind.to_string() }),
    })
}

impl Frame {
    fn get(&self, v: ValueId) -> Result<&RtValue, InterpError> {
        self.slots.get(v.index()).and_then(Option::as_ref).ok_or_else(|| undefined_value(v))
    }

    fn index(&self, v: ValueId) -> Result<i64, InterpError> {
        self.get(v)?.as_index().ok_or_else(|| not_a(v, "an index"))
    }

    fn int_any(&self, v: ValueId) -> Result<i64, InterpError> {
        self.get(v)?.as_int_any().ok_or_else(|| not_a(v, "an integer"))
    }

    fn memref(&self, v: ValueId) -> Result<&MemRefDesc, InterpError> {
        self.get(v)?.as_memref().ok_or_else(|| not_a(v, "a memref"))
    }

    /// Gathers the op `name`'s index operands into a stack buffer;
    /// more than [`MAX_RANK`] of them is that op's error.
    fn indices<'b>(
        &self,
        kind: &OpKind,
        operands: &[ValueId],
        buf: &'b mut [i64; MAX_RANK],
    ) -> Result<&'b [i64], InterpError> {
        if operands.len() > MAX_RANK {
            return Err(too_many_indices(kind, operands.len()));
        }
        for (slot, v) in buf.iter_mut().zip(operands) {
            *slot = self.index(*v)?;
        }
        Ok(&buf[..operands.len()])
    }

    /// Resolves `memref[indices...]` for an op of `kind` without cloning
    /// the descriptor; an index outside the view is that op's error.
    fn addressed_elem(
        &self,
        kind: &OpKind,
        memref: ValueId,
        index_operands: &[ValueId],
    ) -> Result<(SimAddr, ElemType), InterpError> {
        let desc = self.memref(memref)?;
        let mut buf = [0i64; MAX_RANK];
        let indices = self.indices(kind, index_operands, &mut buf)?;
        let inside = indices.len() == desc.sizes.len()
            && indices.iter().zip(&desc.sizes).all(|(index, size)| (0..*size).contains(index));
        if !inside {
            return Err(outside_view(kind, indices, &desc.sizes));
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

        let result = verify::check_op(ctx, func).map_err(unverified).and_then(|()| {
            let entry = ctx.sole_block(func, 0);
            let params = &ctx.block(entry).args;
            if params.len() != args.len() {
                return Err(bad_arg_count(params.len(), args.len()));
            }
            for (index, (p, a)) in params.iter().zip(args).enumerate() {
                let ty = ctx.value_type(*p);
                if !fits(ty, &a) {
                    return Err(bad_argument(index, ty, &a));
                }
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
                    _ => return Err(int_bin_mismatch(&ctx.op(op).kind)),
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
                    return Err(not_positive(step));
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
                let offsets = self.env.indices(&OpKind::MemrefSubview, &operands[1..], &mut buf)?;
                self.env.memref(operands[0])?.subview_into(offsets, sizes, &mut view).map_err(
                    |e| InterpError::Other { message: format!("{} {e}", OpKind::MemrefSubview) },
                )?;
                // Descriptor arithmetic (Fig. 3): one multiply-add per dim.
                self.soc.charge_arith(2 * sizes.len() as u64);
                self.env.slots[result] = Some(RtValue::MemRef(view));
            }
            OpCode::Load => {
                let operands = &ctx.op(op).operands;
                let (addr, elem) =
                    self.env.addressed_elem(&OpKind::MemrefLoad, operands[0], &operands[1..])?;
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
                    self.env.addressed_elem(&OpKind::MemrefStore, operands[1], &operands[2..])?;
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
                let size = self.env.memref(ctx.op(op).operands[0])?.sizes[*dim];
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
                let room = self.soc.mem.room();
                let sizes = u64::try_from(vals[2]).ok().zip(u64::try_from(vals[4]).ok());
                if sizes.is_none_or(|(input, output)| input.saturating_add(output) > room) {
                    let message = format!(
                        "{} @{}: byte sizes {:?} must be non-negative and fit the {room} of \
                         {CAPACITY} simulated bytes left",
                        ctx.op(op).kind,
                        names::DMA_INIT,
                        [vals[2], vals[4]]
                    );
                    return Err(InterpError::Other { message });
                }
                dma_lib::dma_init(self.soc, vals[0] as u32, vals[2] as u64, vals[4] as u64);
            }
            RtFn::WriteLiteral => {
                let word = self.env.int_any(operands[0])? as u32;
                let off = self.env.int_any(operands[1])? as u64;
                self.soc.dma.check(Direction::Send, off, 4)?;
                let new = dma_lib::write_literal_to_dma_region(self.soc, word, off);
                self.set(op, ctx, 0, RtValue::I32(new as i32));
            }
            RtFn::CopyTo => {
                let view = staged(self.env.memref(operands[0])?)?;
                let off = self.env.int_any(operands[1])? as u64;
                self.soc.dma.check(Direction::Send, off, view.num_bytes())?;
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
                let view = staged(self.env.memref(operands[0])?)?;
                let off = self.env.int_any(operands[1])? as u64;
                self.soc.dma.check(Direction::Recv, off, view.num_bytes())?;
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
fn not_positive(step: i64) -> InterpError {
    InterpError::Other {
        message: format!("{} step must be positive, found {step}", OpKind::ScfFor),
    }
}

#[cold]
#[inline(never)]
fn outside_view(kind: &OpKind, indices: &[i64], sizes: &[i64]) -> InterpError {
    InterpError::Other {
        message: format!("{kind} index {indices:?} is outside its view {sizes:?}"),
    }
}

#[cold]
#[inline(never)]
fn unverified(message: String) -> InterpError {
    InterpError::Unverified { message }
}

#[cold]
#[inline(never)]
fn too_many_indices(kind: &OpKind, count: usize) -> InterpError {
    InterpError::Other {
        message: format!("{kind} indexes {count} dimensions; at most {MAX_RANK} are supported"),
    }
}

#[cold]
#[inline(never)]
fn bad_argument(index: usize, ty: &Type, value: &RtValue) -> InterpError {
    InterpError::BadArguments {
        context: format!("argument {index} of type {ty} cannot be {value:?}"),
    }
}

#[cold]
#[inline(never)]
fn int_bin_mismatch(kind: &OpKind) -> InterpError {
    InterpError::TypeMismatch { context: format!("{kind} operands must both be index or both i32") }
}

#[cold]
#[inline(never)]
fn cannot_store(value: &RtValue) -> InterpError {
    InterpError::TypeMismatch { context: format!("cannot store {value:?}") }
}

/// Whether an argument `value` can bind a parameter of type `ty`: the
/// same kind of scalar, or a memref descriptor of the type's element
/// type, rank and static extents.
fn fits(ty: &Type, value: &RtValue) -> bool {
    match (ty, value) {
        (Type::Index, RtValue::Index(_))
        | (Type::Int(_), RtValue::I32(_))
        | (Type::Float(_), RtValue::F32(_)) => true,
        (Type::MemRef(m), RtValue::MemRef(desc)) => {
            elem_type(&m.elem).is_ok_and(|elem| elem == desc.elem)
                && m.shape.len() == desc.sizes.len()
                && m.shape.iter().zip(&desc.sizes).all(|(&s, &d)| s == DYNAMIC || s == d)
        }
        _ => false,
    }
}

/// `view`, if the 32-bit AXI stream can stage its elements.
fn staged(view: &MemRefDesc) -> Result<&MemRefDesc, InterpError> {
    if view.elem.byte_width() == 4 {
        return Ok(view);
    }
    Err(type_mismatch(&format!("cannot stage {} elements in 32-bit beats", view.elem)))
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
        b.insert_op(OpKind::parse("test.mystery"), vec![], vec![], []);
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
            let kind = &m.ctx.op(op).kind;
            if matches!(kind, OpKind::BuiltinModule | OpKind::FuncFunc) {
                continue; // containers are never executed
            }
            assert!(
                !matches!(code, OpCode::Invalid(_)),
                "op `{kind}` unexpectedly failed resolution"
            );
        }
    }
}
