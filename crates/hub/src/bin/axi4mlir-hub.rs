//! The `axi4mlir-hub` daemon binary.
//!
//! ```text
//! axi4mlir-hub [--bind ADDR] [--workers N] [--sim-workers N]
//!              [--queue N] [--cache-dir DIR]
//!              [--worker ADDR]... [--event-buffer N] [--faults SPEC]
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
use std::sync::atomic::{AtomicBool, Ordering};

use axi4mlir_hub::{Hub, HubConfig};
use axi4mlir_support::fault;

/// Set by the signal handler, polled by every hub loop.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    STOP.store(true, Ordering::SeqCst);
}

// `signal` comes from libc, which every Rust binary already links; an
// inline declaration avoids a dependency the build image lacks.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

const USAGE: &str = "usage: axi4mlir-hub [--bind ADDR] [--workers N] [--sim-workers N] \
                     [--queue N] [--cache-dir DIR] [--worker ADDR]... \
                     [--event-buffer N] [--faults SPEC]

  --bind ADDR        listen address (default 127.0.0.1:0 — a free port)
  --workers N        concurrent jobs (executor threads; default 2)
  --sim-workers N    measurement threads per job (default: host parallelism, max 4)
  --queue N          job-queue capacity; submits beyond it are rejected (default 16)
  --cache-dir DIR    load/checkpoint the shared result cache, sharded across DIR
                     (checkpoints rewrite dirty shards only)
  --worker ADDR      fan measurements out to an axi4mlir-worker at ADDR (repeatable;
                     default: measure in-process)
  --event-buffer N   events retained per job for `follow` replay (default 64)
  --faults SPEC      arm a deterministic fault plan, e.g.
                     'seed=7,hub.event:drop@2' (chaos testing; wins over
                     the AXI4MLIR_FAULTS environment variable)";

/// What typing the removed single-file `--cache PATH` flag answers.
const REMOVED_CACHE_FLAG: &str = "--cache was removed: pass --cache-dir DIR (to keep an old \
                                  BENCH_cache.json, move it into DIR; the next save re-shards it)";

fn parse_args(args: &[String]) -> Result<(HubConfig, Option<String>), String> {
    let mut config = HubConfig { stop: Some(&STOP), ..HubConfig::default() };
    let mut faults = None;
    let mut at = 0;
    let value = |at: &mut usize, flag: &str| -> Result<String, String> {
        *at += 1;
        args.get(*at).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while at < args.len() {
        let flag = args[at].as_str();
        match flag {
            "--bind" => config.bind = value(&mut at, flag)?,
            "--workers" => {
                config.workers =
                    value(&mut at, flag)?.parse().map_err(|_| "--workers needs an integer")?;
            }
            "--sim-workers" => {
                config.sim_workers =
                    value(&mut at, flag)?.parse().map_err(|_| "--sim-workers needs an integer")?;
            }
            "--queue" => {
                config.queue_capacity =
                    value(&mut at, flag)?.parse().map_err(|_| "--queue needs an integer")?;
            }
            "--cache" => return Err(REMOVED_CACHE_FLAG.to_owned()),
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value(&mut at, flag)?)),
            "--worker" => config.measure_workers.push(value(&mut at, flag)?),
            "--event-buffer" => {
                config.event_buffer =
                    value(&mut at, flag)?.parse().map_err(|_| "--event-buffer needs an integer")?;
            }
            "--faults" => faults = Some(value(&mut at, flag)?),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        at += 1;
    }
    Ok((config, faults))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, faults) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // `--faults` wins over AXI4MLIR_FAULTS (first install sticks).
    let armed = match faults {
        Some(spec) => fault::FaultPlan::parse(&spec).map(|plan| {
            fault::install(plan);
        }),
        None => fault::install_from_env().map(|_| ()),
    };
    if let Err(err) = armed {
        eprintln!("axi4mlir-hub: {}", err.message);
        return ExitCode::FAILURE;
    }
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
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
