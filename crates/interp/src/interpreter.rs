//! The interpreter: a function compiled once to a flat [`Program`], then
//! run as often as asked.
//!
//! [`Program::compile`] walks the function's entry block, and the body of
//! each `scf.for` in it, once and in execution order. Each op becomes one
//! instruction carrying its opcode, its operands (a range of the program's
//! one pool) and its result; a loop's body is the contiguous range after
//! its `For`, which execution recurses over. `scf.yield` and `func.return`
//! emit nothing. [`Program::run`] binds the arguments into a caller's
//! [`Frame`] and runs the array against a [`Soc`], reading no IR;
//! [`run_func`] is both in one call. A program never changes after its
//! compile, so one `Arc`-shared program runs on any number of threads at
//! once, each with its own frame and system: a driver `Session` keeps its
//! frame, and takes programs from a memo that other sessions may share.
//!
//! # What it refuses, and where
//!
//! A module's own rules have one owner, the dialect verifier: the compile
//! runs its per-op check (`axi4mlir_dialects::verify::check_op`) on the
//! function and each op it emits, and returns a broken rule as
//! [`InterpError::Unverified`]. What is left here is what the verifier
//! cannot know.
//!
//! - *Capabilities*, refused by the compile: an unknown op, an unlowered
//!   `accel` op, a `linalg.generic` without the MatMul trait, an element
//!   type the simulator does not model, a runtime-library callee and its
//!   arity (the library's ABI, one table: `RT_FNS`), and more indices than
//!   `MAX_RANK`. A program holds no instruction that cannot run, so such
//!   an op is refused even inside a loop of zero trips.
//! - *Arguments*, refused by the run: each must fit its parameter's type,
//!   so a memref descriptor's shape is always its static type, which the
//!   CPU kernels index unchecked.
//! - *Run-time values*, refused by the run: an undefined value or one of
//!   the wrong kind, an index or subview outside its view, `index`
//!   arithmetic that overflows `i64`, an `scf.for` step that is not
//!   positive, DMA errors, and a `dma_init` region or a
//!   `memref.alloc` past the room left in the simulated memory
//!   (`axi4mlir_sim::mem::CAPACITY`; the verifier bounds one static
//!   buffer, but a loop may allocate it on every trip).
//!
//! # Hot-path design
//!
//! A sweep executes the same few dozen instructions millions of times.
//! Dispatch is a jump on the opcode; attribute lookups and the checks
//! that need no run-time value are paid once per compile. SSA values live
//! in a dense frame indexed by `ValueId` that the caller keeps across
//! runs, and errors are built in `#[cold]` functions, so the success path
//! never formats a string. Ops read memref descriptors in place while
//! they charge the SoC, and a `memref.subview` writes over its result
//! slot's previous descriptor, reusing its buffers. A steady-state run
//! allocates here once per `memref.alloc` and on a subview's first
//! execution, never per loop iteration: a warm run allocates as often at
//! 64³ as at 32³ (`crates/core/tests/run_allocations.rs`).

use std::fmt;
use std::ops::Range;

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

/// Why the compile and the run may read what they read unchecked: the
/// compile runs the dialect verifier's rules for each op first.
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

/// What one instruction does (see module docs).
#[derive(Debug)]
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
    /// `scf.for` with its induction variable; its body is the
    /// instructions from the next one up to `end`.
    For { iv: ValueId, end: usize },
    /// `memref.alloc` with its static shape and size in bytes.
    Alloc { shape: Vec<i64>, elem: ElemType, bytes: u64 },
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
}

/// One executable op.
#[derive(Debug)]
struct Instr {
    code: OpCode,
    /// The op's operands, as a range of [`Program::operands`].
    operands: Range<u32>,
    /// The op's result, for an op that has one.
    result: Option<ValueId>,
}

/// One function of a verified module, resolved once into a flat
/// instruction array that runs without the IR. It is immutable after its
/// compile, and so `Send + Sync`: runs share it and bring their own
/// [`Frame`].
#[derive(Debug)]
pub struct Program {
    code: Vec<Instr>,
    /// Every instruction's operands, back to back.
    operands: Vec<ValueId>,
    /// The entry block's parameters with their types.
    params: Vec<(ValueId, Type)>,
    /// The module's value count: the slots a run's frame needs.
    values: usize,
}

/// The dense value frame of a run: one slot per `ValueId` of the
/// program's module. A caller keeps one across runs of any programs, so
/// its slots are allocated once. Its accessors borrow from the frame
/// alone, so an op can hold an operand's descriptor while it charges the
/// SoC.
#[derive(Debug, Default)]
pub struct Frame {
    slots: Vec<Option<RtValue>>,
}

/// Runs `func_name` from `module` with the given arguments: compiles it
/// to a [`Program`] and runs that once.
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
    Program::compile(module, func_name)?.run(soc, &mut Frame::default(), args, copy_strategy)
}

impl Program {
    /// Compiles the function `func_name` of `module`.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] for a missing function, a broken dialect
    /// rule, or an op the interpreter cannot run (see module docs).
    pub fn compile(module: &Module, func_name: &str) -> Result<Self, InterpError> {
        let Some(func) = module.func_named(func_name) else {
            let context = format!("no function named {func_name}");
            return Err(InterpError::BadArguments { context });
        };
        let ctx = &module.ctx;
        verify::check_op(ctx, func).map_err(unverified)?;
        let entry = ctx.sole_block(func, 0);
        let params = ctx.block(entry).args.iter().map(|p| (*p, ctx.value_type(*p).clone()));
        let mut program = Self {
            code: Vec::new(),
            operands: Vec::new(),
            params: params.collect(),
            values: ctx.value_count(),
        };
        program.emit(ctx, entry)?;
        Ok(program)
    }

    /// Appends the instructions of `block`'s ops, loop bodies inline.
    fn emit(&mut self, ctx: &IrCtx, block: BlockId) -> Result<(), InterpError> {
        for &op in &ctx.block(block).ops {
            let Some(code) = resolve(ctx, op)? else { continue };
            let data = ctx.op(op);
            let start = self.operands.len() as u32;
            self.operands.extend(&data.operands);
            let operands = start..self.operands.len() as u32;
            let at = self.code.len();
            self.code.push(Instr { code, operands, result: data.results.first().copied() });
            if let OpCode::For { .. } = self.code[at].code {
                self.emit(ctx, ctx.sole_block(op, 0))?;
                let body_end = self.code.len();
                if let OpCode::For { end, .. } = &mut self.code[at].code {
                    *end = body_end;
                }
            }
        }
        Ok(())
    }

    /// Runs the program on `soc` with the given arguments, its values in
    /// `frame` (cleared first, so any frame will do).
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] for arguments that do not fit the
    /// function's parameters, and for the run-time errors of the module
    /// docs.
    pub fn run(
        &self,
        soc: &mut Soc,
        frame: &mut Frame,
        args: Vec<RtValue>,
        copy_strategy: CopyStrategy,
    ) -> Result<(), InterpError> {
        let Self { code, operands, params, values } = self;
        frame.slots.clear();
        frame.slots.resize(*values, None);
        if params.len() != args.len() {
            let context =
                format!("function expects {} arguments, got {}", params.len(), args.len());
            return Err(InterpError::BadArguments { context });
        }
        for (index, ((param, ty), arg)) in params.iter().zip(args).enumerate() {
            if !fits(ty, &arg) {
                let context = format!("argument {index} of type {ty} cannot be {arg:?}");
                return Err(InterpError::BadArguments { context });
            }
            frame.slots[param.index()] = Some(arg);
        }
        Exec { soc, copy_strategy, code, operands, env: frame }.exec(0..code.len())
    }
}

/// Resolves `op` to its instruction's opcode (`None` for one that emits
/// nothing), or to the reason it cannot run. The dialect verifier's rules
/// come first, so the arms below read every operand, result, region and
/// attribute those rules require without checking for it again. The
/// `accel` dialect has no opcode: `LowerAccelToRuntimePass` alone says
/// what its ops do, so one reaches here only unlowered.
fn resolve(ctx: &IrCtx, op: OpId) -> Result<Option<OpCode>, InterpError> {
    verify::check_op(ctx, op).map_err(unverified)?;
    use OpKind::*;
    let data = ctx.op(op);
    let result_type = || ctx.value_type(ctx.result(op, 0));
    let indexed = |first: usize| {
        let count = data.operands.len().saturating_sub(first);
        if count > MAX_RANK {
            let message = format!(
                "{} indexes {count} dimensions; at most {MAX_RANK} are supported",
                data.kind
            );
            return Err(InterpError::Other { message });
        }
        Ok(())
    };
    Ok(Some(match &data.kind {
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
        ScfFor => OpCode::For { iv: ctx.block_arg(ctx.sole_block(op, 0), 0), end: 0 },
        ScfYield | FuncReturn => return Ok(None),
        MemrefAlloc => {
            let m = result_type().as_memref().expect(VERIFIED);
            let elem = elem_type(&m.elem)?;
            let bytes = m.shape.iter().product::<i64>().max(1) as u64 * elem.byte_width();
            OpCode::Alloc { shape: m.shape.clone(), elem, bytes }
        }
        MemrefSubview => {
            indexed(1)?;
            OpCode::Subview { sizes: result_type().as_memref().expect(VERIFIED).shape.clone() }
        }
        MemrefLoad => indexed(1).map(|()| OpCode::Load)?,
        MemrefStore => indexed(2).map(|()| OpCode::Store)?,
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
    }))
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

    /// Gathers index operands into a stack buffer; the compile bounds
    /// their count by [`MAX_RANK`].
    fn indices<'b>(
        &self,
        operands: &[ValueId],
        buf: &'b mut [i64; MAX_RANK],
    ) -> Result<&'b [i64], InterpError> {
        let indices = &mut buf[..operands.len()];
        for (slot, v) in indices.iter_mut().zip(operands) {
            *slot = self.index(*v)?;
        }
        Ok(indices)
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
        let indices = self.indices(index_operands, &mut buf)?;
        let inside = indices.len() == desc.sizes.len()
            && indices.iter().zip(&desc.sizes).all(|(index, size)| (0..*size).contains(index));
        if !inside {
            return Err(outside_view(kind, indices, &desc.sizes));
        }
        Ok((desc.elem_addr(indices), desc.elem))
    }
}

/// One run of a program: its instructions and operand pool, the frame,
/// and the system everything executes against.
struct Exec<'a> {
    soc: &'a mut Soc,
    /// Staging copy strategy for DMA-library calls (the Fig. 12 toggle).
    copy_strategy: CopyStrategy,
    code: &'a [Instr],
    operands: &'a [ValueId],
    env: &'a mut Frame,
}

impl Exec<'_> {
    fn set(&mut self, instr: &Instr, value: RtValue) {
        self.env.slots[instr.result.expect(VERIFIED).index()] = Some(value);
    }

    /// Executes the instructions in `range`, a loop body's with each trip.
    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, range: Range<usize>) -> Result<(), InterpError> {
        let (code, pool) = (self.code, self.operands);
        let mut pc = range.start;
        while pc < range.end {
            let instr = &code[pc];
            pc += 1;
            let operands = &pool[instr.operands.start as usize..instr.operands.end as usize];
            match &instr.code {
                // Constants fold into compiled code: free.
                OpCode::Const(value) => self.set(instr, value.clone()),
                OpCode::IntBin { add } => {
                    self.soc.charge_arith(1);
                    let rt = match (self.env.get(operands[0])?, self.env.get(operands[1])?) {
                        (RtValue::Index(a), RtValue::Index(b)) => {
                            let value = if *add { a.checked_add(*b) } else { a.checked_mul(*b) };
                            RtValue::Index(value.ok_or_else(|| index_overflow(*add, *a, *b))?)
                        }
                        (RtValue::I32(a), RtValue::I32(b)) => {
                            RtValue::I32(if *add { a.wrapping_add(*b) } else { a.wrapping_mul(*b) })
                        }
                        _ => return Err(int_bin_mismatch(*add)),
                    };
                    self.set(instr, rt);
                }
                OpCode::FloatBin { add } => {
                    self.soc.charge_arith(1);
                    let (RtValue::F32(a), RtValue::F32(b)) =
                        (self.env.get(operands[0])?, self.env.get(operands[1])?)
                    else {
                        return Err(type_mismatch("float operands"));
                    };
                    let rt = RtValue::F32(if *add { a + b } else { a * b });
                    self.set(instr, rt);
                }
                OpCode::CastToIndex => {
                    self.soc.charge_arith(1);
                    let v = self.env.int_any(operands[0])?;
                    self.set(instr, RtValue::Index(v));
                }
                OpCode::CastToI32 => {
                    self.soc.charge_arith(1);
                    let v = self.env.int_any(operands[0])?;
                    self.set(instr, RtValue::I32(v as i32));
                }
                OpCode::For { iv, end } => {
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
                        self.exec(pc..*end)?;
                        // An increment past `i64::MAX` is past `ub` too: the
                        // loop is done.
                        let Some(next) = i.checked_add(step) else { break };
                        i = next;
                    }
                    pc = *end;
                }
                OpCode::Alloc { shape, elem, bytes } => {
                    let room = self.soc.mem.room();
                    if *bytes > room {
                        let what = format_args!("{} of {bytes} bytes must", OpKind::MemrefAlloc);
                        return Err(no_room(what, room));
                    }
                    self.soc.charge_host_cycles(40); // allocator call
                    let desc = MemRefDesc::alloc(&mut self.soc.mem, shape, *elem);
                    self.set(instr, RtValue::MemRef(desc));
                }
                OpCode::Subview { sizes } => {
                    // The result slot's last descriptor lends its buffers, so a
                    // subview re-taken in a loop allocates nothing.
                    let result = instr.result.expect(VERIFIED).index();
                    let mut view = match self.env.slots[result].take() {
                        Some(RtValue::MemRef(view)) => view,
                        _ => self.env.memref(operands[0])?.clone(),
                    };
                    let mut buf = [0i64; MAX_RANK];
                    let offsets = self.env.indices(&operands[1..], &mut buf)?;
                    self.env.memref(operands[0])?.subview_into(offsets, sizes, &mut view).map_err(
                        |e| InterpError::Other {
                            message: format!("{} {e}", OpKind::MemrefSubview),
                        },
                    )?;
                    // Descriptor arithmetic (Fig. 3): one multiply-add per dim.
                    self.soc.charge_arith(2 * sizes.len() as u64);
                    self.env.slots[result] = Some(RtValue::MemRef(view));
                }
                OpCode::Load => {
                    let (addr, elem) = self.env.addressed_elem(
                        &OpKind::MemrefLoad,
                        operands[0],
                        &operands[1..],
                    )?;
                    self.soc.charge_arith((operands.len() - 1) as u64);
                    self.soc.cached_access(addr, 4, AccessKind::Read);
                    let rt = match elem {
                        ElemType::F32 => RtValue::F32(self.soc.mem.read_f32(addr)),
                        _ => RtValue::I32(self.soc.mem.read_i32(addr)),
                    };
                    self.set(instr, rt);
                }
                OpCode::Store => {
                    let (addr, _) = self.env.addressed_elem(
                        &OpKind::MemrefStore,
                        operands[1],
                        &operands[2..],
                    )?;
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
                    let size = self.env.memref(operands[0])?.sizes[*dim];
                    self.set(instr, RtValue::Index(size));
                }
                OpCode::CpuMatMul => {
                    let a = self.env.memref(operands[0])?;
                    let b = self.env.memref(operands[1])?;
                    let c = self.env.memref(operands[2])?;
                    kernels::cpu_matmul_i32(self.soc, a, b, c, None);
                }
                OpCode::CpuConv { stride } => {
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
                OpCode::Call(callee) => self.call(instr, operands, *callee)?,
            }
        }
        Ok(())
    }

    fn call(
        &mut self,
        instr: &Instr,
        operands: &[ValueId],
        callee: RtFn,
    ) -> Result<(), InterpError> {
        match callee {
            RtFn::DmaInit => {
                let vals: Vec<i64> =
                    operands.iter().map(|v| self.env.int_any(*v)).collect::<Result<_, _>>()?;
                let room = self.soc.mem.room();
                let sizes = u64::try_from(vals[2]).ok().zip(u64::try_from(vals[4]).ok());
                if sizes.is_none_or(|(input, output)| input.saturating_add(output) > room) {
                    let sizes = [vals[2], vals[4]];
                    let (call, callee) = (OpKind::FuncCall, names::DMA_INIT);
                    let what = format_args!(
                        "{call} @{callee}: byte sizes {sizes:?} must be non-negative and"
                    );
                    return Err(no_room(what, room));
                }
                dma_lib::dma_init(self.soc, vals[0] as u32, vals[2] as u64, vals[4] as u64);
            }
            RtFn::WriteLiteral => {
                let word = self.env.int_any(operands[0])? as u32;
                let off = self.env.int_any(operands[1])? as u64;
                self.soc.dma.check(Direction::Send, off, 4)?;
                let new = dma_lib::write_literal_to_dma_region(self.soc, word, off);
                self.set(instr, RtValue::I32(new as i32));
            }
            RtFn::CopyTo => {
                let view = staged(self.env.memref(operands[0])?)?;
                let off = self.env.int_any(operands[1])? as u64;
                self.soc.dma.check(Direction::Send, off, view.num_bytes())?;
                let new = dma_lib::copy_to_dma_region(self.soc, view, off, self.copy_strategy);
                self.set(instr, RtValue::I32(new as i32));
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
                self.set(instr, RtValue::I32(bytes as i32));
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

/// `what` bytes do not fit the `room` left in the simulated memory.
#[cold]
#[inline(never)]
fn no_room(what: fmt::Arguments<'_>, room: u64) -> InterpError {
    InterpError::Other {
        message: format!("{what} fit the {room} of {CAPACITY} simulated bytes left"),
    }
}

#[cold]
#[inline(never)]
fn unverified(message: String) -> InterpError {
    InterpError::Unverified { message }
}

#[cold]
#[inline(never)]
fn int_bin_mismatch(add: bool) -> InterpError {
    let kind = if add { OpKind::ArithAddi } else { OpKind::ArithMuli };
    InterpError::TypeMismatch { context: format!("{kind} operands must both be index or both i32") }
}

#[cold]
#[inline(never)]
fn index_overflow(add: bool, a: i64, b: i64) -> InterpError {
    let (kind, op) = if add { (OpKind::ArithAddi, '+') } else { (OpKind::ArithMuli, '*') };
    InterpError::Other { message: format!("{kind} overflows index: {a} {op} {b}") }
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
        // Locate the buffer through a fresh descriptor with the same
        // deterministic allocation order: first alloc starts at the arena
        // base (64-aligned).
        let addr = axi4mlir_sim::mem::SimAddr(0x1_0000);
        assert_eq!(s.mem.read_i32(addr.offset(19 * 4)), 9);
    }

    /// A program compiled once and run again on a recycled system is
    /// bit-identical to a fresh compile-and-run.
    #[test]
    fn a_program_reruns_bit_identically() {
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
        let (program, mut frame) = (Program::compile(&m, "main").unwrap(), Frame::default());
        for _ in 0..3 {
            reused.recycle();
            program.run(&mut reused, &mut frame, vec![], CopyStrategy::ElementWise).unwrap();
            assert_eq!(reused.counters, fresh.counters, "a rerun must not change counters");
        }
        let cell = axi4mlir_sim::mem::SimAddr(0x1_0000);
        assert_eq!(reused.mem.read_i32(cell), fresh.mem.read_i32(cell));
    }

    /// Every op of a realistic module compiles to exactly one
    /// instruction, a loop's body inline after it; its `scf.yield` and
    /// the function's `func.return` compile to none.
    #[test]
    fn each_executed_op_is_one_instruction() {
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

        let program = Program::compile(&m, "main").unwrap();
        let codes: Vec<&OpCode> = program.code.iter().map(|instr| &instr.code).collect();
        assert!(
            matches!(
                codes[..],
                [
                    OpCode::Alloc { .. },
                    OpCode::Const(_),
                    OpCode::Const(_),
                    OpCode::Const(_),
                    OpCode::For { end: 8, .. },
                    OpCode::Load,
                    OpCode::IntBin { add: true },
                    OpCode::Store,
                ]
            ),
            "{codes:?}"
        );
    }
}
