//! Tiling and dataflow selection heuristics.
//!
//! Three pieces, mirroring how the paper's compiler flow (step 4) and the
//! §IV-C design-space exploration choose configurations:
//!
//! - [`cache`]: pick the CPU cache-tiling edge from the host cache sizes
//!   (the "exploit the CPU memory hierarchy" step).
//! - [`transfer`]: an analytical host↔accelerator traffic model per
//!   dataflow strategy — the quantity the §IV-C heuristics minimize.
//! - [`best`]: the Fig. 14 heuristics: `As/Bs/Cs-squareTile` (largest
//!   square tile that fits the accelerator memory) and `Best` (free search
//!   over non-square tiles and flows).
//! - [`space`]: per-workload design-space enumerators (MatMul over
//!   accelerator generations and tiles, batched MatMul, Conv2D) feeding
//!   the `axi4mlir-core` exploration engine.
//! - [`objective`]: the objectives a search can minimize (task-clock,
//!   DMA words, DMA transactions, occupancy) with their analytical
//!   extractors over [`transfer`] estimates.

pub mod best;
pub mod cache;
pub mod objective;
pub mod space;
pub mod transfer;

pub use best::{best_choice, instantiation_base, square_tile_choice, tile_words, TileChoice};
pub use cache::select_cache_tile;
pub use objective::Objective;
pub use space::{
    batched_points, conv_point, matmul_points, AccelInstance, OptionsPoint, SpacePoint,
};
pub use transfer::{
    batched_matmul_transfers, conv_transfers, matmul_transfers, ConvShapeEstimate, TransferEstimate,
};
