//! Batched MatMul: one problem shape executed over a batch of independent
//! operand sets, as transformer inference does per attention head.
//!
//! The batch is the driver layer's extensibility proof: it compiles to a
//! module containing one `linalg.generic` per batch element, all annotated
//! and rewritten by the same passes, and executes in a single session so
//! SoC and staging allocations amortize across the batch.

use crate::matmul::MatMulProblem;

/// A batch of identical-shape, independent MatMuls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BatchedMatMulProblem {
    /// The per-element GEMM shape.
    pub problem: MatMulProblem,
    /// Number of independent operand sets.
    pub batch: usize,
}

impl BatchedMatMulProblem {
    /// A batch of `batch` copies of `problem`.
    pub fn new(problem: MatMulProblem, batch: usize) -> Self {
        assert!(batch > 0, "a batch needs at least one element");
        Self { problem, batch }
    }

    /// Total multiply-accumulates across the batch.
    pub fn macs(&self) -> u64 {
        self.problem.macs() * self.batch as u64
    }

    /// Deterministic `(A, B)` data for one batch element. Elements get
    /// decorrelated streams derived from the run seed.
    pub fn generate_inputs(&self, seed: u64, index: usize) -> (Vec<i32>, Vec<i32>) {
        self.problem.generate_inputs(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Elements of one output buffer.
    pub fn output_elems(&self) -> usize {
        (self.problem.m * self.problem.n) as usize
    }
}

impl std::fmt::Display for BatchedMatMulProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} x{}", self.problem, self.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_macs_scale_with_batch() {
        let b = BatchedMatMulProblem::new(MatMulProblem::new(8, 16, 4), 3);
        assert_eq!(b.macs(), 3 * 8 * 16 * 4);
        assert_eq!(b.to_string(), "8x16x4 x3");
        assert_eq!(b.output_elems(), 8 * 16);
    }

    #[test]
    fn elements_get_distinct_deterministic_data() {
        let b = BatchedMatMulProblem::new(MatMulProblem::square(8), 2);
        let (a0, b0) = b.generate_inputs(5, 0);
        let (a0b, b0b) = b.generate_inputs(5, 0);
        assert_eq!(a0, a0b);
        assert_eq!(b0, b0b);
        let (a1, _) = b.generate_inputs(5, 1);
        assert_ne!(a0, a1, "batch elements see different data");
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn empty_batch_is_rejected() {
        BatchedMatMulProblem::new(MatMulProblem::square(4), 0);
    }
}
