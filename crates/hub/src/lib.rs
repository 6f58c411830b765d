//! Exploration-as-a-service: the `axi4mlir-hub` daemon and its client.
//!
//! A sweep of a design space is expensive and its result cache is the
//! asset: every full-fidelity simulation banked once benefits every
//! later sweep that touches the same configuration. Running sweeps as
//! isolated CLI processes wastes that asset — two engineers exploring
//! neighbouring problems re-simulate each other's candidates, and the
//! caches they persist race on the same file. The hub inverts the
//! arrangement: one long-running daemon owns a single in-memory
//! [`Explorer`](axi4mlir_core::explore::Explorer) (shared result cache,
//! in-flight dedup registry, warm-start transfer model) and clients
//! submit exploration *jobs* over a newline-delimited JSON protocol
//! (`axi4mlir-hub/v2`, see `docs/PROTOCOL.md`), watching queued →
//! running → rung-complete → done progress events stream back.
//!
//! The crate splits into:
//!
//! - [`protocol`]: the wire vocabulary — request parsing, reply and
//!   event builders, the schema tag;
//! - [`server`]: the daemon — bounded job queue with backpressure,
//!   executor pool over the shared explorer, incremental cache
//!   checkpoints at rung boundaries, graceful SIGTERM shutdown;
//! - [`client`]: a small blocking client used by
//!   `axi4mlir-explore --hub` and the integration tests.
//!
//! Framing (one compact JSON value per line) lives in
//! [`axi4mlir_support::proto`] so protocol and tests share it with any
//! future wire speaker.

#![deny(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{run_resilient, HubClient};
pub use protocol::SCHEMA;
pub use server::{Hub, HubConfig, HubSummary};
