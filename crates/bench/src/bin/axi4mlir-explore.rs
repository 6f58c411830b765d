//! `axi4mlir-explore`: parallel design-space exploration over workloads,
//! accelerator generations, flows, tiles, and pipeline options, with a
//! machine-readable `BENCH_explore.json` report and a persistent result
//! cache.
//!
//! Usage:
//! `cargo run --release -p axi4mlir-bench --bin axi4mlir-explore -- \
//!     [--smoke] [--workload matmul|conv|batched] [--accel v1..v4[:SIZE],...] \
//!     [--search exhaustive|halving] [--cache-dir DIR] [--warm-start [DIR]] \
//!     [--hub ADDR] [--objectives clock,traffic,transactions,occupancy] \
//!     [--dims MxNxK] [--batch N] [--layer iHW_iC_fHW_oC_stride] \
//!     [--base B] [--capacity WORDS] [--sweep-options] \
//!     [--sweep-cache-tiling] [--cpu pynq_z2|zcu102|desktop,...] \
//!     [--workers N] [--prune none|keep:N|factor:F] [--seed S] [--json DIR]`
//!
//! The flags become one [`JobSpec`] — the same wire-form job the hub
//! protocol carries — and [`JobSpec::build`] is the only validation:
//! the resulting request runs in-process, or the identical spec is
//! submitted with `--hub`, so the two paths cannot drift.
//!
//! `--smoke` is the CI entry point: a tiny space that sweeps in well
//! under a second but exercises the whole engine — enumeration, pruning,
//! the search strategy, the parallel session pool, the result cache, and
//! the JSON reporter. With `--cache-dir`, results persist sharded by
//! workload signature (`DIR/<shard>.json`, loaded before the sweep,
//! order-invariant merge, dirty-shard-only saves after), so a repeated
//! invocation reports 0 new simulations.
//!
//! `--objectives` turns the sweep multi-objective: every evaluation is
//! scored under each named objective (the first is the primary the prune
//! and halving rank by), and `BENCH_explore.json` gains a top-level
//! `pareto` section listing the non-dominated front plus context members
//! locating the paper's analytical pick relative to it.
//!
//! `--warm-start [DIR]` fits the cross-problem transfer model from a
//! persisted cache directory (`DIR` defaults to `--cache-dir`) and
//! ranks the halving search by its calibrated clock predictions:
//! measurements banked on *other* problem shapes cut both the proxy
//! rungs and the full-fidelity finalist count on this one.
//! `--sweep-cache-tiling` and `--cpu` widen the options axis with the
//! cache-hierarchy tiling levels (off/auto/fixed 16-64) and named host
//! CPUs (meaningful under auto tiling only; illegal combinations are
//! dropped by the per-candidate legality rules).
//!
//! `--hub ADDR` runs the sweep on a running `axi4mlir-hub` daemon
//! instead of in-process: the job is submitted over the
//! `axi4mlir-hub/v2` protocol (see `docs/PROTOCOL.md`), progress
//! events stream to stdout, and the `done` event's report renders the
//! *same* `BENCH_explore.json` the local path writes. The hub owns the
//! result cache, so `--cache-dir`/`--warm-start` are rejected alongside
//! `--hub`.

use std::path::PathBuf;
use std::process::ExitCode;

use axi4mlir_bench::report::{BenchEntry, BenchReport};
use axi4mlir_core::explore::jobspec::parse_dims;
use axi4mlir_core::explore::{
    shard, ExploreReport, ExploreRequest, Explorer, JobSpec, Objective, TransferModel,
};
use axi4mlir_hub::{run_resilient, HubClient};
use axi4mlir_support::args;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::fmtutil::{fmt_ms, TextTable};
use axi4mlir_support::json::JsonValue;

/// The smoke-scale conv layer (the Fig. 16 quick shape), also the
/// default `--layer`.
const QUICK_LAYER: &str = "10_64_3_16_1";

/// The wire-form job the flags describe — a pure function of `args`.
/// Only the *spelling* is resolved here (`--accel v3` takes its size
/// from `--base`, `--smoke` picks small defaults); every semantic check
/// is [`JobSpec::build`]'s, exactly as for a job submitted to a hub.
fn job_from_args(args: &[String]) -> Result<JobSpec, String> {
    let smoke = args::flag(args, "--smoke");
    let defaults = JobSpec::default();
    let mut job = JobSpec {
        workload: args::value(args, "--workload")?.unwrap_or(defaults.workload),
        search: args::value(args, "--search")?.unwrap_or(defaults.search),
        prune: args::value(args, "--prune")?.unwrap_or(defaults.prune),
        sweep_options: args::flag(args, "--sweep-options"),
        sweep_cache_tiling: args::flag(args, "--sweep-cache-tiling"),
        cpus: args::list(args, "--cpu")?,
        objectives: args::list(args, "--objectives")?,
        seed: args::number(args, "--seed")?,
        ..defaults
    };
    if job.workload == "conv" {
        // The §IV-D accelerator is configured by the layer alone.
        job.layer = Some(args::value(args, "--layer")?.unwrap_or_else(|| QUICK_LAYER.to_owned()));
        return Ok(job);
    }
    let batched = job.workload == "batched";
    job.dims = Some(match args::value(args, "--dims")? {
        Some(text) => {
            let p = parse_dims(&text).ok_or(format!("invalid --dims `{text}` (want MxNxK)"))?;
            (p.m, p.n, p.k)
        }
        None if smoke && batched => (8, 8, 8),
        None if smoke => (16, 16, 16),
        None => (256, 256, 256),
    });
    if batched {
        job.batch = args::number(args, "--batch")?.or(smoke.then_some(2));
    }
    let base: i64 = args::number(args, "--base")?.unwrap_or(if smoke { 8 } else { 16 });
    // `v3` (size defaults to `--base`) or `v4:8`, normalized to the
    // `v4_8` preset-name form the job carries.
    job.accels = match args::value(args, "--accel")? {
        Some(text) => text
            .split(',')
            .map(|token| match token.split_once(':') {
                Some((name, size)) => format!("{name}_{size}"),
                None => format!("{token}_{base}"),
            })
            .collect(),
        None => vec![format!("v4_{base}")],
    };
    job.capacity_words = args::number(args, "--capacity")?;
    Ok(job)
}

/// What the command line asked for: the job, plus the flags only this
/// process acts on.
struct Cli {
    job: JobSpec,
    workers: usize,
    /// Load the result cache from, and persist it to, this sharded
    /// directory.
    cache_dir: Option<PathBuf>,
    /// Fit the cross-problem transfer model from this cache directory
    /// before the sweep.
    warm_start: Option<PathBuf>,
    /// Run on this `axi4mlir-hub` daemon instead of in-process.
    hub: Option<String>,
}

/// Every flag the binary understands; anything else starting with `--`
/// is rejected so a typo (`--objective`) cannot silently fall back to a
/// default sweep.
const KNOWN_FLAGS: [&str; 20] = [
    "--smoke",
    "--workload",
    "--accel",
    "--search",
    "--cache-dir",
    "--warm-start",
    "--hub",
    "--objectives",
    "--dims",
    "--batch",
    "--layer",
    "--base",
    "--capacity",
    "--sweep-options",
    "--sweep-cache-tiling",
    "--cpu",
    "--workers",
    "--prune",
    "--seed",
    "--json",
];

fn cli_from_args(args: &[String]) -> Result<Cli, String> {
    args::reject_unknown(args, &KNOWN_FLAGS, &format!("known flags: {}", KNOWN_FLAGS.join(" ")))?;
    let job = job_from_args(args)?;
    if job.workload == "conv" {
        for flag in ["--accel", "--dims", "--capacity", "--base", "--batch"] {
            if args::flag(args, flag) {
                eprintln!(
                    "axi4mlir-explore: note: {flag} is ignored for conv (the \u{a7}IV-D \
                     accelerator is configured by the layer; use --layer)"
                );
            }
        }
        if job.sweep_cache_tiling || !job.cpus.is_empty() {
            eprintln!(
                "axi4mlir-explore: note: conv kernels never cache-tile; the tiling/host axes \
                 are dropped by the conv legality rules"
            );
        }
    }
    let smoke = args::flag(args, "--smoke");
    let workers = args::number(args, "--workers")?.unwrap_or_else(|| {
        let host = std::thread::available_parallelism().map_or(2, |n| n.get());
        host.min(if smoke { 2 } else { 8 })
    });
    let cache_dir = args::value(args, "--cache-dir")?.map(PathBuf::from);
    // `--warm-start` takes an optional DIR; without one it reads the
    // `--cache-dir` (the common case: one persistent cache doing both
    // jobs).
    let warm_start = match args::optional_value(args, "--warm-start") {
        None => None,
        Some(explicit) => {
            Some(explicit.map(PathBuf::from).or_else(|| cache_dir.clone()).ok_or(
                "--warm-start needs a cache directory (give it a DIR or pass --cache-dir)",
            )?)
        }
    };
    let hub = args::value(args, "--hub")?;
    if hub.is_some() && (cache_dir.is_some() || warm_start.is_some()) {
        return Err("--hub is incompatible with --cache-dir/--warm-start (the hub owns the \
                    shared cache and warm start; configure them on the daemon)"
            .to_owned());
    }
    Ok(Cli { job, workers, cache_dir, warm_start, hub })
}

/// Runs the job on a hub daemon, streaming progress to stdout, and
/// returns the report the `done` event carried. The sweep itself goes
/// through [`run_resilient`]: a dropped event stream is recovered by
/// reconnecting and `follow`ing the job, so a long sweep survives the
/// network hiccups the chaos suite injects.
fn run_on_hub(addr: &str, job: &JobSpec) -> Result<ExploreReport, String> {
    let fail = |diag: Diagnostic| diag.message;
    {
        // A short-lived connection for the handshake banner; the job
        // runs on `run_resilient`'s own (reconnectable) connections.
        let client = HubClient::connect(addr).map_err(fail)?;
        println!(
            "hub {addr}: {} cached results, {} workers, queue capacity {}",
            client.info().cache_entries,
            client.info().workers,
            client.info().queue_capacity
        );
    }
    let mut on_event = |event: &JsonValue| {
        let Ok(event) = event.members("hub event") else { return };
        let get = |name: &str| event.u64(name).unwrap_or(0);
        match event.str("state").ok() {
            Some("queued") => println!("hub: job {} queued", get("job")),
            Some("running") => println!("hub: job {} running", get("job")),
            Some("space-ready") => println!(
                "hub: space ready — {} legal candidates, {} survive the prune",
                get("space_size"),
                get("survivors")
            ),
            Some("rung-complete") => println!(
                "hub: rung {} complete — {} sims ({} full), {} cache hits, {} survivors",
                event.str("fidelity").unwrap_or("?"),
                get("sims_performed"),
                get("full_sims_performed"),
                get("cache_hits"),
                get("survivors")
            ),
            Some("done") => {
                println!("hub: job {} done — {} full sims", get("job"), get("full_sims_performed"))
            }
            _ => {}
        }
    };
    run_resilient(addr, job, 3, &mut on_event).map_err(fail)
}

/// Converts an exploration into the `BENCH_explore.json` document:
/// per-candidate cycles and transfers, per-pass compile timing, the
/// best-choice-vs-explored-optimum gap in the context block, and (since
/// schema v2) a top-level `pareto` section with the non-dominated front
/// under the requested objectives.
fn to_report(workers: usize, report: &ExploreReport, front: &[usize]) -> BenchReport {
    let mut out = BenchReport::new("explore")
        .context("workload", report.workload.clone())
        .context("space", report.space.clone())
        .context("search", report.search.clone())
        .context("workers", workers)
        .context("objectives", objectives_json(report))
        .context("space_size", report.space_size)
        .context("pruned_out", report.pruned_out)
        .context("lint_rejected", report.lint_rejected)
        .context("measured", report.evaluations.len())
        .context("cache_hits", report.cache_hits)
        .context("sims_performed", report.sims_performed)
        .context("full_sims_performed", report.full_sims_performed)
        .context("warm_start", report.warm_started)
        .context("warm_informed", report.warm_informed)
        .context("measure_backend", report.measure_backend.clone());
    // Per-worker simulation counts (worker address -> sims), present
    // whenever this sweep ran simulations.
    if !report.worker_sims.is_empty() {
        out = out.context(
            "worker_sims",
            JsonValue::object(
                report.worker_sims.iter().map(|(worker, sims)| (worker.clone(), (*sims).into())),
            ),
        );
    }
    // Per-worker re-registration counts (worker address -> reconnects),
    // present only when the sweep actually lost and recovered workers —
    // a fault-free run must keep emitting byte-identical context.
    if !report.worker_reconnects.is_empty() {
        out = out.context(
            "worker_reconnects",
            JsonValue::object(
                report.worker_reconnects.iter().map(|(worker, n)| (worker.clone(), (*n).into())),
            ),
        );
    }
    // Simulator throughput over this sweep's full-fidelity runs (wall
    // clock). Absent when every candidate came out of the cache.
    if let Some(rate) = report.sims_per_sec() {
        out = out.context("sims_per_sec", rate);
    }
    if let Some(optimum) = report.optimum() {
        out = out
            .context("optimum_config", optimum.candidate.label())
            .context("optimum_ms", optimum.task_clock_ms);
    }
    if let (Some(h), Some(eval)) = (&report.heuristic, &report.heuristic_eval) {
        out =
            out.context("heuristic_config", h.label()).context("heuristic_ms", eval.task_clock_ms);
    }
    if let Some(gap) = report.heuristic_gap() {
        out = out.context("heuristic_gap", gap);
    }
    // Where the paper's analytical pick lands relative to the front.
    if let Some(dominated_by) = report.heuristic_dominated_by() {
        out = out
            .context("heuristic_on_front", dominated_by == 0)
            .context("heuristic_dominated_by", dominated_by);
    }
    for (index, eval) in report.evaluations.iter().enumerate() {
        let c = &eval.counters;
        let key = &eval.candidate.key;
        let pass_ms =
            JsonValue::object(eval.pass_ms.iter().map(|(p, ms)| (p.clone(), (*ms).into())));
        let mut entry = BenchEntry::new(eval.candidate.label())
            .metric("accel", key.accel.to_string())
            .metric("flow", key.flow.to_string())
            .metric("tile_m", key.tile.0)
            .metric("tile_n", key.tile.1)
            .metric("tile_k", key.tile.2)
            .metric("coalesce", key.options.coalesce)
            .metric("specialized_copies", key.options.specialized_copies)
            .metric("cache_tiling", key.options.cache_tiling.label())
            .metric("cpu", key.options.cpu.label())
            .metric("estimated_words", eval.candidate.estimate.words_total())
            .metric("estimated_transactions", eval.candidate.estimate.transactions)
            .metric("task_clock_ms", eval.task_clock_ms)
            .metric("host_cycles", c.host_cycles)
            .metric("device_cycles", c.device_cycles)
            .metric("cache_references", c.cache_references)
            .metric("dma_bytes_to_accel", c.dma_bytes_to_accel)
            .metric("dma_bytes_from_accel", c.dma_bytes_from_accel)
            .metric("dma_transactions", c.dma_transactions)
            .metric("dma_words", eval.dma_words())
            .metric("occupancy", eval.occupancy())
            .metric("accel_macs", c.accel_macs)
            .metric("verified", eval.verified)
            .metric("from_cache", eval.from_cache)
            .metric("on_pareto_front", front.contains(&index));
        entry = entry.metric("compile_ms", eval.pass_ms.iter().map(|(_, ms)| ms).sum::<f64>());
        entry = entry.metric("pass_ms", pass_ms);
        out.push(entry);
    }
    out.section("pareto", pareto_section(report, front))
}

/// The report's objective labels as a JSON array (shared by the context
/// block and the `pareto` section).
fn objectives_json(report: &ExploreReport) -> JsonValue {
    JsonValue::Array(report.objectives.iter().map(|o| JsonValue::from(o.label())).collect())
}

/// The `pareto` section: the objectives and, per front member, its label
/// and minimized score under each objective. Scores are keyed by
/// [`Objective::metric_key`], so clock/traffic/transactions line up with
/// the entry metrics of the same name while occupancy's score — the
/// *idle* fraction — is distinguished from the raw `occupancy` entry
/// metric.
fn pareto_section(report: &ExploreReport, front: &[usize]) -> JsonValue {
    let members: Vec<JsonValue> = front
        .iter()
        .map(|&index| {
            let eval = &report.evaluations[index];
            let mut fields = vec![("id".to_owned(), JsonValue::from(eval.candidate.label()))];
            fields.extend(report.objectives.iter().map(|&objective| {
                (
                    objective.metric_key().to_owned(),
                    JsonValue::Float(eval.objective_value(objective)),
                )
            }));
            JsonValue::object(fields)
        })
        .collect();
    JsonValue::object([
        ("objectives".to_owned(), objectives_json(report)),
        ("size".to_owned(), JsonValue::from(front.len() as u64)),
        ("front".to_owned(), JsonValue::Array(members)),
    ])
}

/// Loads the cache, fits the warm start, runs the sweep in-process.
fn run_locally(
    cli: &Cli,
    request: &ExploreRequest,
) -> Result<(ExploreReport, Explorer), Diagnostic> {
    let mut explorer = match &cli.cache_dir {
        Some(dir) => {
            let explorer = Explorer::with_cache_dir(dir)?;
            let shards = explorer.shard_counts();
            println!(
                "loaded {} cached results across {} shards from {}",
                explorer.cache_len(),
                shards.len(),
                dir.display()
            );
            for (shard, count) in &shards {
                println!("  shard {shard}: {count} entries");
            }
            explorer
        }
        None => Explorer::new(),
    };
    if let Some(dir) = &cli.warm_start {
        // The common case points --warm-start at the --cache-dir the
        // explorer just loaded: fit from the in-memory entries instead
        // of parsing the same shards twice.
        let model = if cli.cache_dir.as_ref() == Some(dir) {
            explorer.transfer_model()
        } else {
            TransferModel::fit(&shard::load_dir(dir)?)
        };
        if model.is_empty() {
            println!("warm start: no usable observations in {} (running cold)", dir.display());
        } else {
            println!(
                "warm start: {} observations fitted from {}",
                model.observations(),
                dir.display()
            );
            explorer.set_warm_start(model);
        }
    }

    let objective_labels: Vec<&str> = request.objectives.iter().map(Objective::label).collect();
    println!(
        "exploring {} ({} search, {} workers, prune {:?}, objectives {})\n",
        request.space.as_dyn().describe(),
        request.search.label(),
        cli.workers,
        request.prune,
        objective_labels.join("+"),
    );
    let report = explorer.explore_streaming(
        request.space.as_dyn(),
        request.prune,
        &request.search,
        cli.workers,
        &request.objectives,
        &|_| true,
    )?;
    Ok((report, explorer))
}

fn main() -> ExitCode {
    let args = args::argv();
    let cli = match cli_from_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("axi4mlir-explore: {message}");
            return ExitCode::FAILURE;
        }
    };
    // One validation for both paths: the request runs here, or the
    // spec it was built from goes to the hub.
    let outcome =
        cli.job.build().map_err(|diag| diag.to_string()).and_then(|request| match &cli.hub {
            Some(addr) => run_on_hub(addr, &cli.job).map(|report| (report, None)),
            None => run_locally(&cli, &request)
                .map(|(report, explorer)| (report, Some(explorer)))
                .map_err(|diag| diag.to_string()),
        });
    match outcome {
        Ok((report, explorer)) => render(&cli, &report, &args, explorer.as_ref()),
        Err(message) => {
            eprintln!("axi4mlir-explore: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Renders the human summary and `BENCH_explore.json`, then persists
/// the cache (local sweeps only — hub sweeps pass no explorer because
/// the daemon owns the cache). Shared verbatim by the local and `--hub`
/// paths: the output document cannot depend on where the sweep ran.
fn render(
    cli: &Cli,
    report: &ExploreReport,
    args: &[String],
    explorer: Option<&Explorer>,
) -> ExitCode {
    let objective_labels: Vec<&str> = report.objectives.iter().map(Objective::label).collect();
    // The measured space, best first.
    let mut ranked: Vec<_> = report.evaluations.iter().collect();
    ranked.sort_by(|a, b| a.task_clock_ms.total_cmp(&b.task_clock_ms));
    let mut table =
        TextTable::new(vec!["config", "est. words", "task-clock [ms]", "dma bytes", "dma txns"]);
    for eval in ranked.iter().take(10) {
        table.row(vec![
            eval.candidate.label(),
            eval.candidate.estimate.words_total().to_string(),
            fmt_ms(eval.task_clock_ms),
            eval.counters.dma_bytes_total().to_string(),
            eval.counters.dma_transactions.to_string(),
        ]);
    }
    println!("{}", table.render());
    if ranked.len() > 10 {
        println!("({} more candidates measured)", ranked.len() - 10);
    }
    println!(
        "space: {} legal, {} lint-rejected, {} pruned, {} measured — {} new simulations \
         ({} at full fidelity), {} cache hits",
        report.space_size,
        report.lint_rejected,
        report.pruned_out,
        report.evaluations.len(),
        report.sims_performed,
        report.full_sims_performed,
        report.cache_hits,
    );
    if report.warm_started {
        // `warm_informed` counts over the field the search actually
        // ranked: the post-prune survivors, not the whole space.
        println!(
            "warm start: the transfer model was informed about {} of {} surviving candidates",
            report.warm_informed,
            report.space_size - report.lint_rejected - report.pruned_out
        );
    }
    if let Some(optimum) = report.optimum() {
        println!(
            "explored optimum: {} at {}",
            optimum.candidate.label(),
            fmt_ms(optimum.task_clock_ms)
        );
    }
    let front = report.pareto_front();
    if report.objectives.len() > 1 {
        println!(
            "pareto front ({}): {} of {} measured candidates",
            objective_labels.join(" vs "),
            front.len(),
            report.evaluations.len()
        );
        for &index in &front {
            let eval = &report.evaluations[index];
            let scores: Vec<String> = report
                .objectives
                .iter()
                .map(|&o| format!("{}={:.6}", o.label(), eval.objective_value(o)))
                .collect();
            println!("  {}  {}", eval.candidate.label(), scores.join(" "));
        }
    }
    match (&report.heuristic, report.heuristic_gap()) {
        (Some(h), Some(gap)) => {
            println!("heuristic pick: {} — gap vs optimum: {gap:.3}x", h.label());
            if let Some(dominated_by) = report.heuristic_dominated_by() {
                if dominated_by == 0 {
                    println!("the analytical pick is on the Pareto front");
                } else {
                    println!(
                        "the analytical pick is dominated by {dominated_by} measured \
                         configuration(s)"
                    );
                }
            }
        }
        _ => println!("this space has no analytical heuristic pick"),
    }

    // Write the report before touching the cache: the sweep's
    // output must survive even when cache persistence fails.
    let dir = axi4mlir_bench::report::json_dir_from_args(args.iter().cloned())
        .unwrap_or_else(|| PathBuf::from("."));
    match to_report(cli.workers, report, &front).write_to_dir(&dir) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("axi4mlir-explore: writing the report failed: {err}");
            return ExitCode::FAILURE;
        }
    }

    if let (Some(dir), Some(explorer)) = (&cli.cache_dir, explorer) {
        match explorer.save_cache_dir(dir) {
            Ok(stats) => {
                println!(
                    "cache: {} results persisted to {} ({} shards written, {} clean)",
                    stats.entries,
                    dir.display(),
                    stats.written.len(),
                    stats.skipped
                );
                for (shard, count) in explorer.shard_counts() {
                    println!("  shard {shard}: {count} entries");
                }
            }
            Err(diag) => {
                eprintln!("axi4mlir-explore: saving the cache failed: {diag}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|f| (*f).to_owned()).collect()
    }

    fn job(flags: &[&str]) -> JobSpec {
        let job = job_from_args(&args(flags)).expect("flags parse");
        // Whatever the flags spell travels: the hub receives exactly
        // the job the local path would have run.
        assert_eq!(JobSpec::from_json(&job.to_json()).expect("wire form parses"), job);
        job
    }

    #[test]
    fn smoke_defaults_become_job_fields() {
        let matmul = job(&["--smoke"]);
        assert_eq!(
            matmul,
            JobSpec {
                dims: Some((16, 16, 16)),
                accels: vec!["v4_8".to_owned()],
                ..JobSpec::default()
            }
        );
        let batched = job(&["--smoke", "--workload", "batched"]);
        assert_eq!(
            batched,
            JobSpec {
                workload: "batched".to_owned(),
                dims: Some((8, 8, 8)),
                batch: Some(2),
                accels: vec!["v4_8".to_owned()],
                ..JobSpec::default()
            }
        );
        let conv = job(&["--smoke", "--workload", "conv"]);
        assert_eq!(
            conv,
            JobSpec {
                workload: "conv".to_owned(),
                layer: Some(QUICK_LAYER.to_owned()),
                ..JobSpec::default()
            }
        );
        for spec in [matmul, batched, conv] {
            spec.build().expect("every smoke default is a valid job");
        }
    }

    #[test]
    fn accel_sizes_default_to_the_base_and_seeds_carry() {
        let spec = job(&["--dims", "32x16x16", "--base", "4", "--accel", "v3,v4:8", "--seed", "9"]);
        assert_eq!(spec.accels, ["v3_4", "v4_8"]);
        assert_eq!(spec.dims, Some((32, 16, 16)));
        assert_eq!(spec.seed, Some(9));
        // Without --smoke the size defaults to the standard base 16.
        assert_eq!(job(&["--accel", "v3"]).accels, ["v3_16"]);
        assert_eq!(job(&[]).dims, Some((256, 256, 256)));
    }

    #[test]
    fn list_and_choice_flags_pass_through_for_build_to_judge() {
        let spec = job(&[
            "--smoke",
            "--search",
            "halving",
            "--prune",
            "keep:5",
            "--objectives",
            "clock, traffic",
            "--cpu",
            "pynq_z2,zcu102",
            "--sweep-options",
            "--capacity",
            "4096",
        ]);
        assert_eq!((spec.search.as_str(), spec.prune.as_str()), ("halving", "keep:5"));
        assert_eq!(spec.objectives, ["clock", "traffic"]);
        assert_eq!(spec.cpus, ["pynq_z2", "zcu102"]);
        assert!(spec.sweep_options && !spec.sweep_cache_tiling);
        assert_eq!(spec.capacity_words, Some(4096));
        // Spelling errors are the CLI's; semantic ones are `build`'s.
        assert!(job_from_args(&args(&["--seed", "x"])).unwrap_err().contains("--seed"));
        assert!(job_from_args(&args(&["--dims", "16x16"])).unwrap_err().contains("--dims"));
        let err = job(&["--smoke", "--search", "binary"]).build().unwrap_err();
        assert!(err.message.contains("search"), "{}", err.message);
    }
}
