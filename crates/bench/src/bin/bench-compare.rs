//! `bench-compare`: the CI regression gate. Compares two bench report
//! collections (`BENCH_all.json`, or directories containing one) and
//! fails when any simulated task-clock metric regressed beyond a
//! threshold.
//!
//! Usage:
//! `cargo run --release -p axi4mlir-bench --bin bench-compare -- \
//!     BASELINE CURRENT [--threshold 0.10]`
//!
//! The gate's semantics live in [`axi4mlir_bench::compare`] (unit-tested
//! there): only simulated `_ms` metrics are gated, wall-clock
//! `compile_ms`/`pass_ms` are excluded as machine noise, one-sided
//! entries and pre-schema-bump `pareto` sections are notes rather than
//! failures. This binary only loads the documents and renders the
//! outcome.
//!
//! Unknown `--flags` are rejected with exit code 2 — silently treating a
//! typo like `--treshold 0.2` as two path arguments used to produce a
//! baffling IO error instead.
//!
//! Exit status: 0 when clean, 1 on regressions, 2 on usage/IO errors.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use axi4mlir_bench::compare::{gate, is_rate_metric, Comparison};
use axi4mlir_support::args;
use axi4mlir_support::fmtutil::TextTable;
use axi4mlir_support::json::JsonValue;

const USAGE: &str = "usage: bench-compare BASELINE CURRENT [--threshold 0.10]";

/// Loads a collection (`BENCH_all.json`) or single-report document.
fn load_document(path: &Path) -> Result<JsonValue, String> {
    let file = if path.is_dir() { path.join("BENCH_all.json") } else { path.to_path_buf() };
    let text = fs::read_to_string(&file)
        .map_err(|err| format!("cannot read {}: {err}", file.display()))?;
    JsonValue::parse(&text).map_err(|diag| format!("{}: {diag}", file.display()))
}

fn main() -> ExitCode {
    let args = args::argv();
    let parsed = args::reject_unknown(&args, &["--threshold"], USAGE).and_then(|()| {
        let threshold = args::number::<f64>(&args, "--threshold")?.unwrap_or(0.10);
        let paths = args::positionals(&args, &["--threshold"], USAGE)?;
        Ok((threshold, paths))
    });
    let (threshold, paths) = match parsed {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("bench-compare: {message}");
            return ExitCode::from(2);
        }
    };
    let [baseline_path, current_path] = &paths[..] else {
        eprintln!("bench-compare: {USAGE}");
        return ExitCode::from(2);
    };
    let (baseline_path, current_path) = (Path::new(baseline_path), Path::new(current_path));

    let (baseline, current) = match (load_document(baseline_path), load_document(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("bench-compare: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = gate(&baseline, &current, threshold);

    // The per-figure diff table: worst delta per report.
    let mut per_report: Vec<(String, usize, usize, Option<&Comparison>)> = Vec::new();
    for c in &outcome.compared {
        match per_report.iter_mut().find(|(name, ..)| *name == c.sample.report) {
            Some((_, metrics, regressions, worst)) => {
                *metrics += 1;
                if c.delta > threshold {
                    *regressions += 1;
                }
                if worst.is_none_or(|w| c.delta > w.delta) {
                    *worst = Some(c);
                }
            }
            None => per_report.push((
                c.sample.report.clone(),
                1,
                usize::from(c.delta > threshold),
                Some(c),
            )),
        }
    }
    let mut table =
        TextTable::new(vec!["report", "metrics", "regressions", "worst Δ", "worst metric"]);
    for (name, metrics, regressions, worst) in &per_report {
        let (delta, label) = worst.map_or((String::new(), String::new()), |w| {
            (format!("{:+.1}%", w.delta * 100.0), format!("{} {}", w.sample.entry, w.sample.metric))
        });
        table.row(vec![name.clone(), metrics.to_string(), regressions.to_string(), delta, label]);
    }
    println!("{}", table.render());

    for &index in &outcome.regressions {
        let r = &outcome.compared[index];
        let unit = if is_rate_metric(&r.sample.metric) { "sims/s" } else { "ms" };
        println!(
            "REGRESSION {} / {} / {}: {:.4} {unit} -> {:.4} {unit} ({:+.1}%, threshold {:+.1}%)",
            r.sample.report,
            r.sample.entry,
            r.sample.metric,
            r.baseline,
            r.sample.value,
            r.delta * 100.0,
            threshold * 100.0,
        );
    }
    if outcome.unmatched_current + outcome.unmatched_baseline > 0 {
        println!(
            "note: {} new and {} disappeared metric(s) were not compared (space changed)",
            outcome.unmatched_current, outcome.unmatched_baseline,
        );
    }
    // Pareto sections are informational: when the baseline predates the
    // schema-v2 bump (or has no front), skip them instead of failing.
    for name in &outcome.pareto_skipped {
        println!(
            "note: report `{name}` carries a pareto section the baseline lacks (older \
             schema?) — skipped, not gated"
        );
    }
    println!(
        "compared {} metric(s): {} regression(s) beyond {:+.1}%",
        outcome.compared.len(),
        outcome.regressions.len(),
        threshold * 100.0
    );
    ExitCode::from(outcome.exit_code())
}
