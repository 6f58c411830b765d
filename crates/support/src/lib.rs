//! Shared infrastructure for the AXI4MLIR workspace.
//!
//! This crate provides the small, dependency-free building blocks used by
//! every other crate in the workspace:
//!
//! - [`entity`]: typed entity identifiers and dense [`entity::PrimaryMap`]
//!   arenas, in the style used by production compilers (cranelift's
//!   `entity`, rustc's `IndexVec`).
//! - [`diag`]: structured diagnostics ([`diag::Diagnostic`]) with source
//!   locations, severities, and a collecting [`diag::DiagnosticEngine`].
//! - [`fmtutil`]: plain-text table rendering used by the experiment harness
//!   to print paper-style rows.
//! - [`text`]: the one text cursor every grammar in the workspace lexes
//!   through (`.mlir`, the attribute and affine grammars, JSON), with the
//!   shared nesting guard.
//! - [`json`]: a small order-preserving JSON reader/writer (the build
//!   environment vendors no serde) and [`json::Members`], the one typed,
//!   field-blaming member reader under every JSON decoder.
//! - [`args`]: the argv helpers every binary parses its flags with.
//! - [`proto`]: newline-delimited JSON framing shared by the hub daemon
//!   and its clients, and the daemons' serve loop.
//! - [`signal`]: SIGINT/SIGTERM as one stop flag, for the daemons.
//! - [`fault`]: deterministic, seeded fault injection (scripted connection
//!   drops, torn frames, delays, crashes) used to drive release binaries
//!   through failure paths in chaos tests and CI.
//!
//! # Examples
//!
//! ```
//! use axi4mlir_support::entity::PrimaryMap;
//! use axi4mlir_support::entity_id;
//!
//! entity_id!(pub struct NodeId, "node");
//! let mut nodes: PrimaryMap<NodeId, &str> = PrimaryMap::new();
//! let a = nodes.push("a");
//! assert_eq!(nodes[a], "a");
//! ```

pub mod args;
pub mod diag;
pub mod entity;
pub mod fault;
pub mod fmtutil;
pub mod json;
pub mod proto;
pub mod signal;
pub mod text;

pub use diag::{Diagnostic, DiagnosticEngine, Severity};
pub use entity::{EntityId, PrimaryMap};
pub use json::JsonValue;
