//! Micro-ISA opcode literals.
//!
//! The paper's accelerators are driven by instruction words streamed over
//! AXI-S. Literal values below follow Fig. 6a and Fig. 15a where the paper
//! spells them out; the rest (v1's fused opcode, v2's compute-and-stream,
//! v4's tile-shape configuration) are assigned in the same style.

/// MatMul: reset the accelerator (Fig. 6a `reset = [send_literal(0xFF)]`).
pub const OP_RESET: u32 = 0xFF;
/// MatMul v1: fused send-A, send-B, compute, stream-C instruction.
pub const OP_FUSED_SABC: u32 = 0x20;
/// MatMul: fill the A tile buffer (Fig. 6a `sA = [send_literal(0x22), send(0)]`).
pub const OP_SEND_A: u32 = 0x22;
/// MatMul: fill the B tile buffer (Fig. 6a `sB = [send_literal(0x23), send(1)]`).
pub const OP_SEND_B: u32 = 0x23;
/// MatMul v3/v4: compute `C += A*B` into the internal C buffer
/// (Fig. 6a `cC = [send_literal(0xF0)]`).
pub const OP_COMPUTE: u32 = 0xF0;
/// MatMul v3/v4: stream the C buffer out and clear it
/// (Fig. 6a `rC = [send_literal(0x24), recv(2)]`).
pub const OP_READ_C: u32 = 0x24;
/// MatMul v2: fill B, compute `A*B`, stream the product immediately
/// (Fig. 6a `sBcCrC = [send_literal(0x25), send(1), recv(2)]`).
pub const OP_SEND_B_COMPUTE_READ: u32 = 0x25;
/// MatMul v2 (symmetric form for B-stationary flows): fill A, compute,
/// stream the product.
pub const OP_SEND_A_COMPUTE_READ: u32 = 0x26;
/// MatMul v2: compute `A*B` from the current buffers and stream the product.
pub const OP_COMPUTE_READ: u32 = 0x27;
/// MatMul v4: configure the tile shape; followed by three words
/// `(tM, tN, tK)`.
pub const OP_CFG_DIMS: u32 = 0x30;

/// Conv2D: send a 3-D input window and compute one output element
/// (Fig. 15a `sIcO = [send_literal(70), send(0)]`).
pub const CONV_OP_SEND_INPUT_COMPUTE: u32 = 70;
/// Conv2D: send a 3-D filter slice (Fig. 15a `sF = [send_literal(1), send(1)]`).
pub const CONV_OP_SEND_FILTER: u32 = 1;
/// Conv2D: stream the accumulated output slice (Fig. 15a `rO = [send_literal(8), recv(2)]`).
pub const CONV_OP_READ_OUTPUT: u32 = 8;
/// Conv2D: set the filter size; followed by one word
/// (Fig. 15a `rst` prefix `send_literal(32), send_dim(1,3)`).
pub const CONV_OP_SET_FILTER_SIZE: u32 = 32;
/// Conv2D: set the input-channel count; followed by one word
/// (Fig. 15a `rst` suffix `send_literal(16), send_dim(0,1)`).
pub const CONV_OP_SET_IN_CHANNELS: u32 = 16;

/// `true` if the Conv2D accelerator decodes `opcode`.
pub(crate) fn conv_supports_opcode(opcode: u32) -> bool {
    matches!(
        opcode,
        CONV_OP_SEND_INPUT_COMPUTE
            | CONV_OP_SEND_FILTER
            | CONV_OP_READ_OUTPUT
            | CONV_OP_SET_FILTER_SIZE
            | CONV_OP_SET_IN_CHANNELS
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_assigned_literals_match_fig6a() {
        assert_eq!(OP_SEND_A, 0x22);
        assert_eq!(OP_SEND_B, 0x23);
        assert_eq!(OP_READ_C, 0x24);
        assert_eq!(OP_SEND_B_COMPUTE_READ, 0x25);
        assert_eq!(OP_COMPUTE, 0xF0);
        assert_eq!(OP_RESET, 0xFF);
    }

    #[test]
    fn paper_assigned_literals_match_fig15a() {
        assert_eq!(CONV_OP_SEND_INPUT_COMPUTE, 70);
        assert_eq!(CONV_OP_SEND_FILTER, 1);
        assert_eq!(CONV_OP_READ_OUTPUT, 8);
        assert_eq!(CONV_OP_SET_FILTER_SIZE, 32);
        assert_eq!(CONV_OP_SET_IN_CHANNELS, 16);
    }

    #[test]
    fn literals_are_distinct_within_each_isa() {
        let matmul = [
            OP_RESET,
            OP_FUSED_SABC,
            OP_SEND_A,
            OP_SEND_B,
            OP_COMPUTE,
            OP_READ_C,
            OP_SEND_B_COMPUTE_READ,
            OP_SEND_A_COMPUTE_READ,
            OP_COMPUTE_READ,
            OP_CFG_DIMS,
        ];
        for (i, a) in matmul.iter().enumerate() {
            for b in &matmul[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let conv = [
            CONV_OP_SEND_INPUT_COMPUTE,
            CONV_OP_SEND_FILTER,
            CONV_OP_READ_OUTPUT,
            CONV_OP_SET_FILTER_SIZE,
            CONV_OP_SET_IN_CHANNELS,
        ];
        for (i, a) in conv.iter().enumerate() {
            for b in &conv[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
