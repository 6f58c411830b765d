//! `bench-collect`: merges every `BENCH_*.json` report in a directory
//! into one `BENCH_all.json` collection and prints an inventory — the
//! last step of `scripts/bench.sh`.
//!
//! Reports are embedded whole, so schema-v2 top-level sections (the
//! explorer's `pareto` front) pass through to the collection untouched.
//!
//! Usage: `cargo run --release -p axi4mlir-bench --bin bench-collect -- [DIR]`
//! (default: the current directory).

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use axi4mlir_support::args;
use axi4mlir_support::fmtutil::TextTable;
use axi4mlir_support::json::JsonValue;

const USAGE: &str = "usage: bench-collect [DIR]";

/// The schema tag of the merged collection document.
const COLLECTION_SCHEMA: &str = "axi4mlir-bench-collection/v1";

fn main() -> ExitCode {
    let args = args::argv();
    let dirs =
        args::reject_unknown(&args, &[], USAGE).and_then(|()| args::positionals(&args, &[], USAGE));
    let dir = match dirs {
        Ok(dirs) => dirs.first().map_or_else(|| PathBuf::from("."), PathBuf::from),
        Err(message) => {
            eprintln!("bench-collect: {message}");
            return ExitCode::FAILURE;
        }
    };

    let mut files: Vec<PathBuf> = match fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|name| {
                    name.starts_with("BENCH_")
                        && name.ends_with(".json")
                        && name != "BENCH_all.json"
                })
            })
            .collect(),
        Err(err) => {
            eprintln!("bench-collect: cannot read {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("bench-collect: no BENCH_*.json files in {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut table = TextTable::new(vec!["report", "entries", "sims/s", "file"]);
    let mut reports = Vec::new();
    let mut failures = 0;
    let mut skipped_foreign = 0;
    for path in &files {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("bench-collect: skipping {}: {err}", path.display());
                failures += 1;
                continue;
            }
        };
        let doc = match JsonValue::parse(&text) {
            Ok(doc) => doc,
            Err(diag) => {
                eprintln!("bench-collect: skipping {}: {diag}", path.display());
                failures += 1;
                continue;
            }
        };
        // Only bench reports belong in the collection; sibling BENCH_*
        // files with other schemas (the explorer's persistent
        // BENCH_cache.json) are quietly left out.
        let report = doc.members("bench report").ok();
        let report = report.filter(|r| r.str("schema") == Ok(axi4mlir_bench::report::SCHEMA));
        let Some(report) = report else {
            skipped_foreign += 1;
            continue;
        };
        let mut name = report.str("name").unwrap_or("?").to_owned();
        if report.get("pareto").is_some() {
            name.push_str(" (+pareto)");
        }
        let entries = report.array("entries").map_or(0, <[_]>::len);
        // The explorer reports its simulator throughput; other reports
        // leave the column blank.
        let sims_per_sec = report
            .object("context")
            .and_then(|context| context.f64("sims_per_sec"))
            .map_or_else(|_| String::new(), |rate| format!("{rate:.1}"));
        let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_owned();
        table.row(vec![name, entries.to_string(), sims_per_sec, file]);
        reports.push(doc);
    }
    if reports.is_empty() {
        eprintln!("bench-collect: nothing parseable to collect");
        return ExitCode::FAILURE;
    }

    let collection = JsonValue::object([
        ("schema".to_owned(), JsonValue::from(COLLECTION_SCHEMA)),
        ("reports".to_owned(), JsonValue::Array(reports)),
    ]);
    let out = dir.join("BENCH_all.json");
    let mut text = collection.to_json_pretty();
    text.push('\n');
    if let Err(err) = fs::write(&out, text) {
        eprintln!("bench-collect: writing {} failed: {err}", out.display());
        return ExitCode::FAILURE;
    }

    println!("{}", table.render());
    println!(
        "collected {} reports into {}",
        files.len() - failures - skipped_foreign,
        out.display()
    );
    if skipped_foreign > 0 {
        println!("({skipped_foreign} non-report BENCH_* files left out, e.g. the result cache)");
    }
    if failures > 0 {
        eprintln!("bench-collect: {failures} files skipped");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
