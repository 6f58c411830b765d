//! Pins the *values* behind every reproduced table and figure: each
//! `tests/golden/BENCH_*.json` is the exact report a release build
//! wrote, and a freshly produced report must match it member for
//! member. The simulated counters are deterministic, so the comparison
//! is exact; only the three wall-clock members in [`WALL_CLOCK`] are
//! skipped. The shape tests keep asserting *who wins*; this asserts
//! that no number moved unnoticed.
//!
//! Regenerate after an intended change, then review the diff and commit
//! it (there is no update switch):
//!
//! ```sh
//! G=crates/bench/tests/golden
//! cargo run --release -p axi4mlir-bench --bin all_figures -- --quick --json $G
//! cargo run --release -p axi4mlir-bench --bin axi4mlir-explore -- --smoke \
//!     --objectives clock,traffic --workers 2 --json $G \
//!     && mv $G/BENCH_explore.json $G/BENCH_explore_smoke.json
//! cargo run --release -p axi4mlir-bench --bin axi4mlir-explore -- --smoke \
//!     --workload conv --search halving --objectives clock,occupancy --workers 2 --json $G \
//!     && mv $G/BENCH_explore.json $G/BENCH_explore_conv_halving.json
//! ```

use std::process::Command;

use axi4mlir_bench::report::BenchReport;
use axi4mlir_bench::{fig10, fig11, fig12, fig13, fig14, fig16, fig17, table1, Scale};
use axi4mlir_support::json::JsonValue;

/// The `(parent, member)` pairs that hold host wall-clock time and so
/// differ between two runs of one binary.
const WALL_CLOCK: [(&str, &str); 3] =
    [("context", "sims_per_sec"), ("metrics", "compile_ms"), ("metrics", "pass_ms")];

/// Appends one line per member where `got` departs from `want`.
fn diff(path: &str, parent: &str, got: &JsonValue, want: &JsonValue, out: &mut Vec<String>) {
    match (got, want) {
        (JsonValue::Object(got), JsonValue::Object(want)) => {
            let names = |members: &[(String, JsonValue)]| {
                members.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>().join(", ")
            };
            if names(got) != names(want) {
                out.push(format!("{path}: members [{}], golden has [{}]", names(got), names(want)));
                return;
            }
            for ((name, got), (_, want)) in got.iter().zip(want) {
                if !WALL_CLOCK.contains(&(parent, name.as_str())) {
                    diff(&format!("{path}.{name}"), name, got, want, out);
                }
            }
        }
        (JsonValue::Array(got), JsonValue::Array(want)) => {
            if got.len() != want.len() {
                out.push(format!("{path}: {} elements, golden has {}", got.len(), want.len()));
                return;
            }
            for (i, (got, want)) in got.iter().zip(want).enumerate() {
                diff(&format!("{path}[{i}]"), parent, got, want, out);
            }
        }
        _ if got != want => out.push(format!(
            "{path}: got {}, golden has {}",
            got.to_json_string(),
            want.to_json_string()
        )),
        _ => {}
    }
}

/// Compares `got` against `tests/golden/<file>`.
fn check(file: &str, got: &JsonValue) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{path}: {err}"));
    let want = JsonValue::parse(&text).unwrap_or_else(|err| panic!("{path}: {err}"));
    let mut mismatches = Vec::new();
    diff("$", "", got, &want, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "{file} drifted from its golden in {} place(s):\n  {}\n\
         if the change is intended, regenerate as the header of tests/golden_reports.rs says \
         and review the diff",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

#[test]
fn every_figure_report_matches_its_golden() {
    let scale = Scale::Quick;
    let reports: [BenchReport; 9] = [
        table1::report(&table1::rows()),
        fig10::report(scale, &fig10::rows(scale)),
        fig11::report(scale, &fig11::rows(scale)),
        fig12::report(scale, fig12::Variant::A, &fig12::rows(scale, fig12::Variant::A)),
        fig12::report(scale, fig12::Variant::B, &fig12::rows(scale, fig12::Variant::B)),
        fig13::report(scale, &fig13::rows(scale)),
        fig14::report(scale, &fig14::rows(scale)),
        fig16::report(scale, &fig16::rows(scale)),
        fig17::report(scale, &fig17::bars(scale)),
    ];
    for report in &reports {
        check(&report.file_name(), &report.to_json());
    }
}

/// Runs the real `axi4mlir-explore` binary with `flags` (CI's sweep
/// command, space-separated) and compares the `BENCH_explore.json` it
/// writes against `golden`. `--workers 2` pins the one context member
/// that otherwise follows the host's core count.
fn check_sweep(golden: &str, flags: &str) {
    let scratch = std::env::temp_dir().join(format!("axi4mlir-{golden}-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_axi4mlir-explore"))
        .args(flags.split(' '))
        .args(["--workers", "2", "--json"])
        .arg(&scratch)
        .current_dir(&scratch)
        .output()
        .expect("run axi4mlir-explore");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(scratch.join("BENCH_explore.json")).unwrap();
    check(golden, &JsonValue::parse(&text).expect("the report parses"));
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn the_matmul_smoke_sweep_matches_its_golden() {
    check_sweep("BENCH_explore_smoke.json", "--smoke --objectives clock,traffic");
}

#[test]
fn the_conv_halving_smoke_sweep_matches_its_golden() {
    check_sweep(
        "BENCH_explore_conv_halving.json",
        "--smoke --workload conv --search halving --objectives clock,occupancy",
    );
}
