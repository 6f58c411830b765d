//! The `accel` dialect — the paper's new abstraction (§III-C, Fig. 6b/9).
//!
//! Operations abstract host↔accelerator transactions at a level where they
//! can be *relocated* during transformation passes (the flow-placement /
//! hoisting step) without the complex analyses a lower-level representation
//! would need:
//!
//! | op                  | semantics (lowered to DMA library calls)        |
//! |---------------------|--------------------------------------------------|
//! | `accel.dma_init`    | one-time engine + staging-region initialization |
//! | `accel.sendLiteral` | stage one instruction word at `offset`          |
//! | `accel.sendDim`     | stage a tile-dimension word                     |
//! | `accel.sendIdx`     | stage a loop-index word                         |
//! | `accel.send`        | stage a tile, then **flush** everything staged  |
//! |                     | in `[0, offset+len)` as one DMA send            |
//! | `accel.recv`        | DMA recv into a tile (`mode = "accumulate"` adds|
//! |                     | into the destination)                           |
//!
//! Staging ops return the next free offset, enabling the instruction+payload
//! batching the paper describes ("a single send operation"). Staging ops
//! that are not followed by an `accel.send` in their opcode carry
//! `flush = true` and transfer the staged prefix themselves (e.g. the
//! compute-only `cC` opcode).

use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::kind::OpKind;
use axi4mlir_ir::ops::{IrCtx, OpId, ValueId};
use axi4mlir_ir::types::Type;

/// Builds `accel.dma_init(%id, %inAddr, %inSize, %outAddr, %outSize)`.
pub fn dma_init(
    b: &mut OpBuilder<'_>,
    id: ValueId,
    input_addr: ValueId,
    input_size: ValueId,
    output_addr: ValueId,
    output_size: ValueId,
) -> OpId {
    b.insert_op(
        OpKind::AccelDmaInit,
        vec![id, input_addr, input_size, output_addr, output_size],
        vec![],
        [],
    )
}

/// Builds `%next = accel.sendLiteral(%literal, %offset)`.
///
/// With `flush = true` the staged prefix `[0, next)` is transferred
/// immediately (the compute-only opcode case).
pub fn send_literal(
    b: &mut OpBuilder<'_>,
    literal: ValueId,
    offset: ValueId,
    flush: bool,
) -> ValueId {
    let attrs: Vec<(&'static str, Attribute)> =
        if flush { vec![("flush", Attribute::Bool(true))] } else { vec![] };
    let op = b.insert_op(OpKind::AccelSendLiteral, vec![literal, offset], vec![Type::i32()], attrs);
    b.result(op)
}

/// Builds `%next = accel.send(%view, %offset)`: stages the tile and — when
/// `flush` is set (the common case; the last staging action of an opcode) —
/// transfers the whole staged range `[0, next)` as one DMA transaction.
pub fn send(b: &mut OpBuilder<'_>, view: ValueId, offset: ValueId, flush: bool) -> ValueId {
    let attrs: Vec<(&'static str, Attribute)> =
        if flush { vec![("flush", Attribute::Bool(true))] } else { vec![] };
    let op = b.insert_op(OpKind::AccelSend, vec![view, offset], vec![Type::i32()], attrs);
    b.result(op)
}

/// Builds `%next = accel.sendDim(%view, %offset) {dim = N}`: stages the
/// size of the view's dimension `dim` as one instruction word.
pub fn send_dim(
    b: &mut OpBuilder<'_>,
    view: ValueId,
    dim: i64,
    offset: ValueId,
    flush: bool,
) -> ValueId {
    let mut attrs: Vec<(&'static str, Attribute)> = vec![("dim", Attribute::Int(dim))];
    if flush {
        attrs.push(("flush", Attribute::Bool(true)));
    }
    let op = b.insert_op(OpKind::AccelSendDim, vec![view, offset], vec![Type::i32()], attrs);
    b.result(op)
}

/// Builds `%next = accel.sendIdx(%index, %offset)`: stages a loop index.
pub fn send_idx(b: &mut OpBuilder<'_>, index: ValueId, offset: ValueId, flush: bool) -> ValueId {
    let attrs: Vec<(&'static str, Attribute)> =
        if flush { vec![("flush", Attribute::Bool(true))] } else { vec![] };
    let op = b.insert_op(OpKind::AccelSendIdx, vec![index, offset], vec![Type::i32()], attrs);
    b.result(op)
}

/// Builds `%next = accel.recv {mode=...}(%view, %offset)`.
pub fn recv(b: &mut OpBuilder<'_>, view: ValueId, offset: ValueId, accumulate: bool) -> ValueId {
    let mode = if accumulate { "accumulate" } else { "overwrite" };
    let op = b.insert_op(
        OpKind::AccelRecv,
        vec![view, offset],
        vec![Type::i32()],
        [("mode", Attribute::Str(mode.to_owned()))],
    );
    b.result(op)
}

/// `true` if this staging op carries `flush = true`.
pub fn has_flush(ctx: &IrCtx, op: OpId) -> bool {
    ctx.attr(op, "flush").and_then(|a| a.as_bool()).unwrap_or(false)
}

/// The `dim` attribute of an `accel.sendDim`.
pub fn dim_of(ctx: &IrCtx, op: OpId) -> Option<i64> {
    ctx.attr(op, "dim").and_then(|a| a.as_int())
}

/// Whether an `accel.recv` accumulates into its destination.
pub fn recv_accumulates(ctx: &IrCtx, op: OpId) -> bool {
    ctx.attr(op, "mode").and_then(|a| a.as_str()) == Some("accumulate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arith, func, memref};
    use axi4mlir_ir::ops::Module;
    use axi4mlir_ir::printer::print_op;
    use axi4mlir_ir::verifier::verify_ok;

    /// Rebuilds the skeleton of Fig. 6b and checks structure + round-trip.
    #[test]
    fn fig6b_style_sequence() {
        let mut m = Module::new();
        let f = func::func(&mut m, "matmul_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let c0 = arith::const_i32(&mut b, 0);
        let c66 = arith::const_i32(&mut b, 66);
        let c65280 = arith::const_i32(&mut b, 65280);
        let c65346 = arith::const_i32(&mut b, 65346);
        dma_init(&mut b, c0, c66, c65280, c65346, c65280);
        let reset = arith::const_i32(&mut b, 0xFF);
        send_literal(&mut b, reset, c0, true);
        let a = memref::alloc(&mut b, vec![60, 80], Type::i32());
        let z = arith::const_index(&mut b, 0);
        let tile = memref::subview(&mut b, a, vec![z, z], vec![4, 4]);
        let lit = arith::const_i32(&mut b, 0x22);
        let off = send_literal(&mut b, lit, c0, false);
        let off2 = send(&mut b, tile, off, true);
        let _ = recv(&mut b, tile, c0, true);
        let _ = off2;
        assert!(verify_ok(&m.ctx, m.top()).is_ok());
        let printed = print_op(&m.ctx, m.top());
        assert!(printed.contains("accel.dma_init"));
        assert!(printed.contains("accel.sendLiteral"));
        assert!(printed.contains("mode = \"accumulate\""));
        // Round-trip.
        let m2 = axi4mlir_ir::parser::parse_module(&printed).unwrap();
        assert_eq!(print_op(&m2.ctx, m2.top()), printed);
    }

    #[test]
    fn flush_flag_is_recorded() {
        let mut m = Module::new();
        let f = func::func(&mut m, "f", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let lit = arith::const_i32(&mut b, 0xF0);
        let off = arith::const_i32(&mut b, 0);
        send_literal(&mut b, lit, off, true);
        send_literal(&mut b, lit, off, false);
        let sends = m.ctx.find_ops(m.top(), OpKind::AccelSendLiteral);
        assert!(has_flush(&m.ctx, sends[0]));
        assert!(!has_flush(&m.ctx, sends[1]));
    }

    #[test]
    fn send_dim_records_dimension() {
        let mut m = Module::new();
        let f = func::func(&mut m, "f", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let w = memref::alloc(&mut b, vec![64, 256, 3, 3], Type::i32());
        let off = arith::const_i32(&mut b, 0);
        send_dim(&mut b, w, 3, off, false);
        let op = m.ctx.find_ops(m.top(), OpKind::AccelSendDim)[0];
        assert_eq!(dim_of(&m.ctx, op), Some(3));
        assert!(m.ctx.op(op).kind.is_accel());
    }

    #[test]
    fn recv_modes() {
        let mut m = Module::new();
        let f = func::func(&mut m, "f", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let c = memref::alloc(&mut b, vec![4, 4], Type::i32());
        let off = arith::const_i32(&mut b, 0);
        recv(&mut b, c, off, true);
        recv(&mut b, c, off, false);
        let recvs = m.ctx.find_ops(m.top(), OpKind::AccelRecv);
        assert!(recv_accumulates(&m.ctx, recvs[0]));
        assert!(!recv_accumulates(&m.ctx, recvs[1]));
    }
}
