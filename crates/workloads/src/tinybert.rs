//! The TinyBERT end-to-end workload (Fig. 17).
//!
//! TinyBERT (4 layers, hidden 312, FFN 1200, 12 heads) with batch size 2
//! and sequence length 128, as in the paper. The per-layer MatMuls are
//! enumerated below; dimensions are padded up to multiples of 16 — the
//! v4_16 accelerator's divisibility constraint — exactly as a deployment
//! would pad (312 -> 320, head size 26 -> 32).
//!
//! The non-MatMul operators (embeddings, softmax, layer norm, GELU,
//! residuals) stay on the CPU in every configuration; the paper reports
//! MatMuls at ~75% of CPU-only runtime, so the harness models "other
//! layers" as one third of the measured CPU MatMul time (see
//! `EXPERIMENTS.md`).

use crate::matmul::MatMulProblem;

/// Number of transformer layers.
const LAYERS: usize = 4;
/// Hidden size after padding (312 -> 320).
const HIDDEN: i64 = 320;
/// FFN intermediate size (1200 -> 1216).
const FFN: i64 = 1216;
/// Attention heads.
const HEADS: i64 = 12;
/// Per-head size after padding (26 -> 32).
const HEAD_DIM: i64 = 32;
/// Batch size (Fig. 17 caption).
const BATCH: i64 = 2;
/// Sequence length.
const SEQ: i64 = 128;
/// Tokens processed per pass.
const TOKENS: i64 = BATCH * SEQ;

/// One MatMul of the model, with its multiplicity per forward pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TinyBertMatMul {
    /// Which weight this is (`"qkv"`, `"scores"`, ...).
    pub role: &'static str,
    /// The GEMM shape.
    pub problem: MatMulProblem,
    /// How many times it runs per forward pass (all layers included).
    pub count: u64,
}

/// The full MatMul inventory of one TinyBERT forward pass.
pub fn tinybert_matmuls() -> Vec<TinyBertMatMul> {
    let l = LAYERS as u64;
    vec![
        // Q, K, V projections: tokens x hidden @ hidden x hidden.
        TinyBertMatMul {
            role: "qkv",
            problem: MatMulProblem::new(TOKENS, HIDDEN, HIDDEN),
            count: 3 * l,
        },
        // Attention scores: per (batch, head): seq x head_dim @ head_dim x seq.
        TinyBertMatMul {
            role: "scores",
            problem: MatMulProblem::new(SEQ, SEQ, HEAD_DIM),
            count: (BATCH * HEADS) as u64 * l,
        },
        // Attention context: per (batch, head): seq x seq @ seq x head_dim.
        TinyBertMatMul {
            role: "context",
            problem: MatMulProblem::new(SEQ, HEAD_DIM, SEQ),
            count: (BATCH * HEADS) as u64 * l,
        },
        // Attention output projection.
        TinyBertMatMul {
            role: "attn_out",
            problem: MatMulProblem::new(TOKENS, HIDDEN, HIDDEN),
            count: l,
        },
        // FFN up and down projections.
        TinyBertMatMul {
            role: "ffn_up",
            problem: MatMulProblem::new(TOKENS, FFN, HIDDEN),
            count: l,
        },
        TinyBertMatMul {
            role: "ffn_down",
            problem: MatMulProblem::new(TOKENS, HIDDEN, FFN),
            count: l,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_the_model() {
        let inv = tinybert_matmuls();
        assert_eq!(inv.len(), 6);
        let qkv = inv.iter().find(|m| m.role == "qkv").unwrap();
        assert_eq!(qkv.count, 12, "3 projections x 4 layers");
        let scores = inv.iter().find(|m| m.role == "scores").unwrap();
        assert_eq!(scores.count, 2 * 12 * 4);
    }

    #[test]
    fn every_dimension_is_16_divisible() {
        for m in tinybert_matmuls() {
            assert_eq!(m.problem.m % 16, 0, "{}: m", m.role);
            assert_eq!(m.problem.n % 16, 0, "{}: n", m.role);
            assert_eq!(m.problem.k % 16, 0, "{}: k", m.role);
        }
    }

    #[test]
    fn total_macs_is_gemm_scale() {
        // Order of magnitude: a few hundred MMACs for the padded model.
        let macs: u64 = tinybert_matmuls().iter().map(|m| m.problem.macs() * m.count).sum();
        assert!(macs > 100_000_000, "{macs}");
        assert!(macs < 5_000_000_000, "{macs}");
    }
}
