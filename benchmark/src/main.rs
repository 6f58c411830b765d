//! The repository's benchmark runner.
//!
//! ```text
//! axi4mlir-benchmark --workload NAME --seed S [--seconds N] [--trace 0|1]
//! axi4mlir-benchmark --list | --smoke | --check-determinism
//! axi4mlir-benchmark --record RUNS [--seconds N] [--commit HASH] [--date YYYY-MM-DD]
//! ```
//!
//! One run measures one workload for `--seconds` seconds, checks every
//! op's output, and prints each metric by name with its unit; the last
//! line of stdout is the run's JSON result. `--trace 0` (the default)
//! reports the end-to-end metrics, `--trace 1` the per-layer ledger. See
//! `README.md` beside the manifest.

mod host;
mod layers;
mod ops;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use axi4mlir_support::json::JsonValue;

use run::{run_traced, run_untraced, Outcome, Sizing};
use workloads::{Kind, WorkloadDef, WORKLOADS};

/// Seconds a run measures when `--seconds` is not given; `run_seconds`
/// in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;

/// The largest share of a sweep op's time the serial replay may fail to
/// account for before the outside view stops being trusted.
const MAX_UNATTRIBUTED_PCT: f64 = 15.0;

/// Whether `bench.unattributed_pct` in this workload's traced run is its
/// own (it sweeps) rather than the reference workload's.
fn sweeps(workload: &WorkloadDef) -> bool {
    workload.kinds.contains(&Kind::Sweep)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|workload| workload.name).collect();
    format!(
        "usage: axi4mlir-benchmark --workload <{}> --seed S [--seconds N] [--trace 0|1]\n       \
         axi4mlir-benchmark --list | --smoke | --check-determinism\n       \
         axi4mlir-benchmark --record RUNS [--seconds N] [--commit HASH] [--date YYYY-MM-DD]",
        names.join("|")
    )
}

enum Mode {
    Run { workload: &'static WorkloadDef, trace: bool },
    List,
    Smoke,
    CheckDeterminism,
    Record { runs: usize, commit: String, date: String },
}

struct Options {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut trace = false;
    let mut mode = None;
    let mut record_runs = None;
    let (mut commit, mut date) = ("unknown".to_owned(), "unknown".to_owned());
    let mut options = Options { mode: Mode::List, seed: 1, seconds: RUN_SECONDS };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a name")?;
                workload = Some(
                    workloads::find(name)
                        .ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?,
                );
            }
            "--seed" => {
                options.seed = value("a number")?.parse().map_err(|_| "--seed must be a u64")?;
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|seconds: &f64| *seconds > 0.0 && seconds.is_finite())
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` for people.
                trace = match args.peek().map(|next| next.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--list" => mode = Some(Mode::List),
            "--smoke" => mode = Some(Mode::Smoke),
            "--check-determinism" => mode = Some(Mode::CheckDeterminism),
            "--record" => {
                record_runs = Some(
                    value("a run count")?
                        .parse()
                        .ok()
                        .filter(|runs| *runs >= 2)
                        .ok_or("--record needs at least 2 runs")?,
                );
            }
            "--commit" => commit = value("a hash")?.clone(),
            "--date" => date = value("a date")?.clone(),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let mode = mode.or(record_runs.map(|runs| Mode::Record { runs, commit, date }));
    options.mode = match (mode, workload) {
        (Some(mode), None) => mode,
        (None, Some(workload)) => Mode::Run { workload, trace },
        (None, None) => return Err(usage()),
        (Some(_), Some(_)) => return Err(format!("--workload runs alone\n{}", usage())),
    };
    Ok(options)
}

/// Prints every metric by name with its unit (for people), then the
/// run's JSON result as the last line (for the driver).
fn report(workload: &WorkloadDef, outcome: &Outcome) {
    println!("workload {}: {}", workload.name, workload.why);
    println!(
        "  {} ops, {} failed; work_per_s counts {}",
        outcome.attempted, outcome.failed, workload.work_unit
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<52} {value:>16.4} {unit}");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("{}", outcome.to_json().to_json_string());
}

fn value_of(outcome: &Outcome, name: &str) -> Option<f64> {
    outcome.metrics.iter().find(|(metric, _, _)| *metric == name).map(|(_, value, _)| *value)
}

/// Every check a run must pass besides its ops: finite metrics, and on
/// the sweep workloads a replay that accounts for the op.
fn audit(workload: &WorkloadDef, outcome: &Outcome) -> Result<(), String> {
    if outcome.failed > 0 {
        let why = outcome.first_failure.as_deref().unwrap_or("unknown");
        return Err(format!("{}: {} ops failed: {why}", workload.name, outcome.failed));
    }
    if let Some((name, value, _)) = outcome.metrics.iter().find(|(_, value, _)| !value.is_finite())
    {
        return Err(format!("{}: {name} is {value}", workload.name));
    }
    if let Some(unattributed) = value_of(outcome, "bench.unattributed_pct") {
        if sweeps(workload) && unattributed.abs() > MAX_UNATTRIBUTED_PCT {
            return Err(format!(
                "{}: the serial replay leaves {unattributed:.1}% of the op unattributed \
                 (limit {MAX_UNATTRIBUTED_PCT}%)",
                workload.name
            ));
        }
    }
    Ok(())
}

/// Three ops of every workload with all checks on, and a traced run of
/// each sweep workload — between them those exercise every reference loop
/// and every replay.
fn smoke(seed: u64) -> Result<(), String> {
    let sizing = Sizing::fixed(3);
    for workload in &WORKLOADS {
        let started = std::time::Instant::now();
        audit(workload, &run_untraced(workload, seed, &sizing)?)?;
        if sweeps(workload) {
            // A slow spell on the host can tip one replay over the
            // unattributed limit; only two in a row count.
            if audit(workload, &run_traced(workload, seed, &sizing)?).is_err() {
                audit(workload, &run_traced(workload, seed, &sizing)?)?;
            }
        }
        println!("smoke {:<20} ok ({:.1} s)", workload.name, started.elapsed().as_secs_f64());
    }
    Ok(())
}

/// The first three ops of every workload, twice: everything simulated or
/// counted must repeat exactly.
fn check_determinism(seed: u64) -> Result<(), String> {
    let sizing = Sizing::fixed(3);
    for workload in &WORKLOADS {
        let (first, second) =
            (run_untraced(workload, seed, &sizing)?, run_untraced(workload, seed, &sizing)?);
        audit(workload, &first)?;
        if first.counts != second.counts {
            return Err(format!(
                "{}: counts differ between identical runs:\n  {:?}\n  {:?}",
                workload.name, first.counts, second.counts
            ));
        }
        let (first, second) =
            (run_traced(workload, seed, &sizing)?, run_traced(workload, seed, &sizing)?);
        audit(workload, &first)?;
        for metric in spec::PER_LAYER.iter().filter(|metric| spec::is_exact(metric)) {
            let (a, b) = (value_of(&first, metric.name), value_of(&second, metric.name));
            if a.map(f64::to_bits) != b.map(f64::to_bits) {
                return Err(format!("{}: {} differs: {a:?} vs {b:?}", workload.name, metric.name));
            }
        }
        // The done frame carries wall-clock floats and ephemeral ports,
        // so its size may move by a few bytes — not by a percent.
        let (a, b) = (
            value_of(&first, "support.json.doc_kb.done_frame").unwrap_or(0.0),
            value_of(&second, "support.json.doc_kb.done_frame").unwrap_or(0.0),
        );
        if (a - b).abs() > 0.01 * a.max(b) {
            return Err(format!("{}: wire bytes per job differ: {a} vs {b} KiB", workload.name));
        }
        println!("deterministic {}", workload.name);
    }
    Ok(())
}

/// Runs every workload `runs` times in child processes (one process per
/// run, so peak memory is the run's own) and prints one trajectory row:
/// median and quartiles of every end-to-end metric per workload.
fn record(runs: usize, seed: u64, seconds: f64, commit: &str, date: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find myself: {err}"))?;
    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
        for run in 0..runs {
            let output = Command::new(&exe)
                .args(["--workload", workload.name, "--trace", "0"])
                .args(["--seed", &(seed + run as u64).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output()
                .map_err(|err| format!("cannot run {}: {err}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout
                .lines()
                .last()
                .and_then(|line| JsonValue::parse(line).ok())
                .filter(|result| result.get("correct").and_then(JsonValue::as_bool) == Some(true))
                .ok_or_else(|| {
                    format!(
                        "{} run {run} failed:\n{stdout}{}",
                        workload.name,
                        String::from_utf8_lossy(&output.stderr)
                    )
                })?;
            let metrics = result.get("metrics").and_then(JsonValue::as_object).unwrap_or(&[]);
            for (name, entry) in metrics {
                let value = entry.get("value").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                match samples.iter_mut().find(|(metric, _)| metric == name) {
                    Some((_, values)) => values.push(value),
                    None => samples.push((name.clone(), vec![value])),
                }
            }
            eprintln!("recorded {} run {}/{runs}", workload.name, run + 1);
        }
        let metrics = samples.into_iter().map(|(name, values)| {
            let (q1, q2, q3) = stats::quartiles(&values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            let summary = JsonValue::object([
                ("median".to_owned(), q2.into()),
                ("q1".to_owned(), q1.into()),
                ("q3".to_owned(), q3.into()),
                ("spread".to_owned(), stats::spread(&values).unwrap_or(f64::NAN).into()),
            ]);
            (name, summary)
        });
        workloads.push((workload.name.to_owned(), JsonValue::object(metrics)));
    }
    let row = JsonValue::object([
        ("commit".to_owned(), commit.into()),
        ("date".to_owned(), date.into()),
        ("nproc".to_owned(), host::nproc().into()),
        ("run_seconds".to_owned(), seconds.into()),
        ("runs".to_owned(), runs.into()),
        ("first_seed".to_owned(), seed.into()),
        ("workloads".to_owned(), JsonValue::object(workloads)),
    ]);
    println!("{}", row.to_json_string());
    Ok(())
}

fn run(options: &Options) -> Result<(), String> {
    // A daemon left over from an earlier session shares the two cores the
    // measurement needs. The modes whose numbers are kept (the trajectory
    // row) or judged (smoke, determinism) refuse to run beside one; a
    // single run only says so, because an idle daemon sleeps in its accept
    // loop and a refused run would tell the driver nothing at all.
    let strays = host::stray_daemons();
    if !strays.is_empty() {
        match options.mode {
            Mode::List => {}
            Mode::Run { .. } => eprintln!("axi4mlir-benchmark: stray daemons alive: {strays:?}"),
            _ => return Err(format!("stray daemons are running, stop them first: {strays:?}")),
        }
    }
    match &options.mode {
        Mode::List => {
            print!("{}", spec::listing());
            Ok(())
        }
        Mode::Smoke => smoke(options.seed),
        Mode::CheckDeterminism => check_determinism(options.seed),
        Mode::Record { runs, commit, date } => {
            record(*runs, options.seed, options.seconds, commit, date)
        }
        Mode::Run { workload, trace } => {
            let sizing = Sizing::timed(options.seconds);
            let outcome = if *trace {
                run_traced(workload, options.seed, &sizing)?
            } else {
                run_untraced(workload, options.seed, &sizing)?
            };
            report(workload, &outcome);
            // A measured run always reports; what it found wanting goes
            // to stderr, and `--smoke` is where it fails.
            if let Err(finding) = audit(workload, &outcome) {
                eprintln!("axi4mlir-benchmark: {finding}");
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|options| run(&options)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("axi4mlir-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
