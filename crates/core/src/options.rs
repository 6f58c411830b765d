//! Compilation options.

use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_sim::cost::CostModel;

// `CacheTiling` moved down into `axi4mlir-config` so the design-space
// enumerators can treat the tiling level as a candidate axis; re-exported
// here because it is still, first of all, a pipeline option.
pub use axi4mlir_config::CacheTiling;

/// Options steering the AXI4MLIR pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineOptions {
    /// Cache-hierarchy tiling level.
    pub cache_tiling: CacheTiling,
    /// Use the specialized (`memcpy`-style) staging copies. `false`
    /// reproduces the pre-optimization AXI4MLIR of Fig. 12a.
    pub specialized_copies: bool,
    /// Lower `accel` ops to DMA library calls. `false` leaves them in the
    /// module, which then can be printed but not run: the interpreter
    /// executes only the lowered calls (`axi4mlir-opt --no-lower`).
    pub lower_to_runtime_calls: bool,
    /// Batch same-site transfers into one DMA transaction per receive
    /// boundary — the coalescing optimization the paper lists as future
    /// work (§V). Off by default to match the published system.
    pub coalesce_transfers: bool,
    /// Capture IR snapshots after each pass.
    pub capture_ir: bool,
    /// Verify results against the reference kernel after execution.
    pub verify_result: bool,
}

impl PipelineOptions {
    /// The settings used by the paper's headline results: auto cache
    /// tiling + specialized copies + full lowering.
    pub fn optimized() -> Self {
        Self {
            cache_tiling: CacheTiling::Auto,
            specialized_copies: true,
            lower_to_runtime_calls: true,
            coalesce_transfers: false,
            capture_ir: false,
            verify_result: true,
        }
    }

    /// The pre-copy-optimization configuration of Fig. 12a.
    pub fn unoptimized_copies() -> Self {
        Self { specialized_copies: false, ..Self::optimized() }
    }

    /// The copy strategy implied by `specialized_copies`.
    pub(crate) fn copy_strategy(&self, cost: &CostModel) -> CopyStrategy {
        if self.specialized_copies {
            CopyStrategy::specialized(cost)
        } else {
            CopyStrategy::ElementWise
        }
    }
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_defaults() {
        let o = PipelineOptions::default();
        assert_eq!(o.cache_tiling, CacheTiling::Auto);
        assert!(o.specialized_copies);
        assert!(o.lower_to_runtime_calls);
    }

    #[test]
    fn copy_strategy_follows_flag() {
        let cost = CostModel::pynq_z2();
        let o = PipelineOptions::optimized();
        assert_eq!(o.copy_strategy(&cost), CopyStrategy::Chunked { chunk_bytes: 16 });
        let u = PipelineOptions::unoptimized_copies();
        assert_eq!(u.copy_strategy(&cost), CopyStrategy::ElementWise);
    }
}
