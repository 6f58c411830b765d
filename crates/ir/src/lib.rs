//! A miniature MLIR: just enough compiler infrastructure for AXI4MLIR.
//!
//! The paper extends the (C++) MLIR framework. Rust bindings to MLIR
//! (`melior`) do not yet support defining dialect attributes and
//! transformations of the kind AXI4MLIR needs, so this crate re-implements
//! the required slice of MLIR from scratch:
//!
//! - [`types`]: `i32`/`f32`/`index`/`memref<...>` types.
//! - [`affine`]: affine expressions and maps (`affine_map<(m,n,k) -> (m,k)>`),
//!   used for `linalg` indexing maps and AXI4MLIR's `permutation_map`.
//! - [`attrs`]: attributes, including the two *new attribute kinds the paper
//!   contributes*: `opcode_map` (Fig. 7) and `opcode_flow` (Fig. 8), with
//!   parsers for their textual grammars.
//! - [`kind`]: the op registry — [`kind::OpKind`], one variant per op a consumer
//!   matches, and the one table that spells each.
//! - [`ops`]: arena-based SSA IR — operations, regions, blocks, values —
//!   with insertion, erasure, and op-motion primitives (the `accel`-op
//!   hoisting transformation relies on these).
//! - [`builder`]: insertion-point style IR construction.
//! - [`printer`] / [`parser`]: round-trippable generic textual form
//!   (`%0 = "arith.addi"(%a, %b) : (i32, i32) -> i32`).
//! - [`verifier`]: structural invariants (SSA dominance in structured
//!   control flow, parent links, type sanity).
//! - [`pass`]: a pass manager with per-pass verification.
//! - [`analysis`]: the liveness and integer-range dataflow analyses the
//!   lint layer builds on.
//!
//! This crate holds the op table, so it names every registered op; the
//! dialect-specific builders and semantics live in the
//! `axi4mlir-dialects` crate.

pub mod affine;
pub mod analysis;
pub mod attrs;
pub mod builder;
pub mod kind;
pub mod ops;
pub mod parser;
pub mod pass;
pub mod printer;
pub mod types;
pub mod verifier;

pub use affine::{AffineExpr, AffineMap};
pub use analysis::{IntRange, Liveness, ValueTable};
pub use attrs::{Attribute, FlowElem, OpcodeAction, OpcodeFlow, OpcodeMap};
pub use builder::OpBuilder;
pub use ops::{BlockId, IrCtx, OpId, ValueId};
pub use types::{MemRefType, Type};
