//! The `axi4mlir-worker` daemon binary.
//!
//! ```text
//! axi4mlir-worker [--bind ADDR] [--slots N] [--faults SPEC]
//! ```
//!
//! Binds, prints `axi4mlir-worker listening on ADDR` (port 0 in
//! `--bind` resolves to a free port — scripts parse this line), and
//! serves the `axi4mlir-worker/v2` measurement protocol until
//! SIGTERM/ctrl-c. A worker holds no state a sweep depends on: killing
//! one mid-sweep only makes the scheduler requeue its outstanding
//! measurements elsewhere. See `docs/PROTOCOL.md` for the wire
//! protocol.

use std::process::ExitCode;

use axi4mlir_support::{args, fault, signal};
use axi4mlir_worker::{Worker, WorkerConfig};

const USAGE: &str = "usage: axi4mlir-worker [--bind ADDR] [--slots N] [--faults SPEC]

  --bind ADDR    listen address (default 127.0.0.1:0 — a free port)
  --slots N      concurrent measurements per connection (default: host parallelism, max 4)
  --faults SPEC  arm a deterministic fault plan, e.g.
                 'seed=7,worker.reply:torn@3,worker.measure:crash@5' (chaos
                 testing; wins over the AXI4MLIR_FAULTS environment variable)";

fn parse_args(args: &[String]) -> Result<(WorkerConfig, Option<String>), String> {
    if args::wants_help(args) {
        return Err(USAGE.to_owned());
    }
    args::reject_unknown(args, &["--bind", "--slots", "--faults"], USAGE)?;
    let defaults = WorkerConfig::default();
    let config = WorkerConfig {
        bind: args::value(args, "--bind")?.unwrap_or(defaults.bind),
        slots: args::number(args, "--slots")?.unwrap_or(defaults.slots),
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
        eprintln!("axi4mlir-worker: {}", err.message);
        return ExitCode::FAILURE;
    }
    let worker = match Worker::bind(config) {
        Ok(worker) => worker,
        Err(err) => {
            eprintln!("axi4mlir-worker: {}", err.message);
            return ExitCode::FAILURE;
        }
    };
    // Scripts (and the integration tests) parse this line for the
    // resolved port; stdout is line-buffered, so it flushes here.
    println!("axi4mlir-worker listening on {}", worker.local_addr());
    match worker.run() {
        Ok(summary) => {
            println!(
                "axi4mlir-worker: served {} connections, measured {} candidates",
                summary.connections, summary.measured
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("axi4mlir-worker: {}", err.message);
            ExitCode::FAILURE
        }
    }
}
