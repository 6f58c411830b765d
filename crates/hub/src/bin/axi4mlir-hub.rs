//! The `axi4mlir-hub` daemon binary.
//!
//! ```text
//! axi4mlir-hub [--bind ADDR] [--workers N] [--sim-workers N]
//!              [--queue N] [--cache-dir DIR]
//!              [--worker ADDR]... [--faults SPEC]
//! ```
//!
//! Binds, prints `axi4mlir-hub listening on ADDR` (port 0 in `--bind`
//! resolves to a free port — scripts parse this line), and serves the
//! `axi4mlir-hub/v1` protocol until SIGTERM/ctrl-c or a client
//! `shutdown` request; either path drains gracefully and flushes the
//! cache. See `docs/PROTOCOL.md` for the wire protocol and
//! `docs/ARCHITECTURE.md` for where the hub sits in the stack.

use std::path::PathBuf;
use std::process::ExitCode;

use axi4mlir_hub::{Hub, HubConfig};
use axi4mlir_support::{args, fault, signal};

const USAGE: &str = "usage: axi4mlir-hub [--bind ADDR] [--workers N] [--sim-workers N] \
                     [--queue N] [--cache-dir DIR] [--worker ADDR]... [--faults SPEC]

  --bind ADDR        listen address (default 127.0.0.1:0 — a free port)
  --workers N        concurrent jobs (executor threads; default 2)
  --sim-workers N    measurement threads per job (default: host parallelism, max 4)
  --queue N          job-queue capacity; submits beyond it are rejected (default 16)
  --cache-dir DIR    load/checkpoint the shared result cache, sharded across DIR
                     (checkpoints rewrite dirty shards only)
  --worker ADDR      fan measurements out to an axi4mlir-worker at ADDR (repeatable;
                     default: measure in-process)
  --faults SPEC      arm a deterministic fault plan, e.g.
                     'seed=7,hub.event:drop@2' (chaos testing; wins over
                     the AXI4MLIR_FAULTS environment variable)";

const KNOWN_FLAGS: [&str; 7] =
    ["--bind", "--workers", "--sim-workers", "--queue", "--cache-dir", "--worker", "--faults"];

fn parse_args(args: &[String]) -> Result<(HubConfig, Option<String>), String> {
    if args::wants_help(args) {
        return Err(USAGE.to_owned());
    }
    args::reject_unknown(args, &KNOWN_FLAGS, USAGE)?;
    let defaults = HubConfig::default();
    let config = HubConfig {
        bind: args::value(args, "--bind")?.unwrap_or(defaults.bind),
        workers: args::number(args, "--workers")?.unwrap_or(defaults.workers),
        sim_workers: args::number(args, "--sim-workers")?.unwrap_or(defaults.sim_workers),
        queue_capacity: args::number(args, "--queue")?.unwrap_or(defaults.queue_capacity),
        cache_dir: args::value(args, "--cache-dir")?.map(PathBuf::from),
        measure_workers: args::values(args, "--worker")?,
        stop: Some(signal::stop_on_termination()),
    };
    Ok((config, args::value(args, "--faults")?))
}

fn main() -> ExitCode {
    let (config, faults) = match parse_args(&args::argv()) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = fault::install_from(faults.as_deref()) {
        eprintln!("axi4mlir-hub: {}", err.message);
        return ExitCode::FAILURE;
    }
    let hub = match Hub::bind(config) {
        Ok(hub) => hub,
        Err(err) => {
            eprintln!("axi4mlir-hub: {}", err.message);
            return ExitCode::FAILURE;
        }
    };
    // Scripts (and the integration tests) parse this line for the
    // resolved port; stdout is line-buffered, so it flushes here.
    println!("axi4mlir-hub listening on {}", hub.local_addr());
    match hub.run() {
        Ok(summary) => {
            println!(
                "axi4mlir-hub: {} completed, {} failed, cache holds {} entries",
                summary.completed, summary.failed, summary.cache_entries
            );
            if let Some(plan) = fault::active() {
                for fired in plan.fired() {
                    eprintln!("axi4mlir-hub: fault fired: {fired}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("axi4mlir-hub: {}", err.message);
            ExitCode::FAILURE
        }
    }
}
