//! Pins the *values* behind every reproduced table and figure: each
//! `tests/golden/BENCH_*.json` is the exact report a release build
//! wrote, and a freshly produced report must match it member for
//! member. The simulated counters are deterministic, so the comparison
//! is exact; only the three wall-clock members in [`WALL_CLOCK`] are
//! skipped. This asserts that no number moved unnoticed; the second half
//! of the file asserts, over the same freshly built reports, *who wins*:
//! one table of reproduction targets per figure module, every target its
//! module header states (a target the quick scale cannot show is named
//! in its table with the reason, not dropped).
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
use std::sync::OnceLock;

use axi4mlir_accelerators::matmul::{MatMulVersion, V4_CAPACITY_WORDS};
use axi4mlir_bench::report::BenchReport;
use axi4mlir_bench::{fig10, fig11, fig12, fig13, fig14, fig16, fig17, table1, Scale};
use axi4mlir_config::FlowStrategy;
use axi4mlir_core::explore::jobspec::{parse_dims, parse_layer};
use axi4mlir_core::explore::AccelInstance;
use axi4mlir_heuristics::square_tile_choice;
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

/// The nine quick-scale figure reports, built once for every test here.
fn figure_reports() -> &'static [BenchReport; 9] {
    static REPORTS: OnceLock<[BenchReport; 9]> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let scale = Scale::Quick;
        [
            table1::report(&table1::rows()),
            fig10::report(scale, &fig10::rows(scale)),
            fig11::report(scale, &fig11::rows(scale)),
            fig12::report(scale, fig12::Variant::A, &fig12::rows(scale, fig12::Variant::A)),
            fig12::report(scale, fig12::Variant::B, &fig12::rows(scale, fig12::Variant::B)),
            fig13::report(scale, &fig13::rows(scale)),
            fig14::report(scale, &fig14::rows(scale)),
            fig16::report(scale, &fig16::rows(scale)),
            fig17::report(scale, &fig17::bars(scale)),
        ]
    })
}

#[test]
fn every_figure_report_matches_its_golden() {
    for report in figure_reports() {
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

// ---------------------------------------------------------------------
// The paper's claims, as assertions over the reports above
// ---------------------------------------------------------------------

/// What a report says about one reproduction target.
enum Verdict {
    /// The target is asserted: does the quick-scale report bear it out?
    Holds(bool),
    /// The quick sweep cannot show the target; the reason it takes
    /// `Scale::Full`.
    FullScaleOnly(&'static str),
}

/// `(id, metrics)` of every entry of the report named `name`.
fn entries(name: &str) -> Vec<(String, JsonValue)> {
    let report = figure_reports().iter().find(|r| r.name() == name).expect("a figure report");
    let json = report.to_json();
    let entries = json.get("entries").and_then(JsonValue::as_array).expect("entries");
    assert!(!entries.is_empty(), "{name} has entries");
    entries
        .iter()
        .map(|entry| {
            let id = entry.get("id").and_then(JsonValue::as_str).expect("id").to_owned();
            (id, entry.get("metrics").expect("metrics").clone())
        })
        .collect()
}

fn num(metrics: &JsonValue, name: &str) -> f64 {
    metrics.get(name).and_then(JsonValue::as_f64).unwrap_or_else(|| panic!("no metric `{name}`"))
}

/// Fails, printing the whole table, when an asserted target of `figure`
/// does not hold.
fn assert_targets(figure: &str, targets: Vec<(String, Verdict)>) {
    let table: Vec<String> = targets
        .iter()
        .map(|(target, verdict)| match verdict {
            Verdict::Holds(true) => format!("ok            {target}"),
            Verdict::Holds(false) => format!("CONTRADICTED  {target}"),
            Verdict::FullScaleOnly(reason) => format!("full scale    {target} — {reason}"),
        })
        .collect();
    assert!(table.iter().any(|row| row.starts_with("ok")), "{figure}: no target asserted");
    assert!(
        !table.iter().any(|row| row.starts_with("CONTRADICTED")),
        "{figure}: the quick-scale report contradicts a reproduction target:\n  {}",
        table.join("\n  ")
    );
}

#[test]
fn table1_flow_classes_and_nominal_throughput() {
    let mut targets = Vec::new();
    let rows = entries("table1");
    targets.push(("three sizes of each of v1..v4".to_owned(), Verdict::Holds(rows.len() == 12)));
    for (id, m) in &rows {
        let accel = AccelInstance::parse(id).expect("a vN_SIZE id");
        // Table I's possible-reuse column: v1 offers 1 flow, v2 3, v3 and v4 all 4.
        let flows = match accel.version {
            MatMulVersion::V1 => 1,
            MatMulVersion::V2 => 3,
            MatMulVersion::V3 | MatMulVersion::V4 => 4,
        };
        targets.push((
            format!("{id}: {flows} flow class(es)"),
            Verdict::Holds(accel.flows().len() == flows),
        ));
        let nominal = match accel.size {
            4 => 10.0,
            8 => 60.0,
            _ => 112.0,
        };
        let measured = num(m, "measured_ops_per_cycle");
        targets.push((
            format!("{id}: nominal {nominal} OPs/cycle, measured within 10% ({measured:.1})"),
            Verdict::Holds(
                num(m, "nominal_ops_per_cycle") == nominal
                    && (0.9..=1.1).contains(&(measured / nominal)),
            ),
        ));
    }
    assert_targets("table1", targets);
}

#[test]
fn fig10_offload_pays_only_for_large_problems_on_large_accelerators() {
    let mut targets = vec![(
        "size-16 accelerators".to_owned(),
        Verdict::FullScaleOnly("the quick sweep runs accelerator sizes 4 and 8 only"),
    )];
    for (id, m) in entries("fig10") {
        let Some(size) = m.get("accel_size").and_then(JsonValue::as_i64) else { continue };
        let pays = num(&m, "dims") >= 64.0 && size >= 8;
        targets.push((
            format!("{id}: offload {} the CPU", if pays { "beats" } else { "loses to" }),
            Verdict::Holds((num(&m, "manual_ms") < num(&m, "cpu_ms")) == pays),
        ));
    }
    assert_targets("fig10", targets);
}

#[test]
fn fig11_generated_ns_loses_before_the_copy_optimization() {
    let mut targets = Vec::new();
    for (id, m) in entries("fig11") {
        let (manual, ns) = (num(&m, "manual_ns_ms"), num(&m, "generated_Ns_ms"));
        targets
            .push((format!("{id}: generated Ns loses to manual Ns"), Verdict::Holds(ns > manual)));
        if id.contains("v3") {
            let cs = num(&m, "generated_Cs_ms");
            targets.push((format!("{id}: Cs beats generated Ns"), Verdict::Holds(cs < ns)));
            targets.push((format!("{id}: Cs still beats manual Ns"), Verdict::Holds(cs < manual)));
        }
    }
    assert_targets("fig11", targets);
}

#[test]
fn fig12_the_copy_optimization_closes_the_gap_to_the_manual_driver() {
    let mut targets = Vec::new();
    for (name, optimized) in [("fig12a", false), ("fig12b", true)] {
        let rows = entries(name);
        let manual =
            rows.iter().find(|(id, _)| id.starts_with("cpp_MANUAL")).expect("manual").1.clone();
        for (id, m) in rows.iter().filter(|(id, _)| id.starts_with("mlir_AXI4MLIR")) {
            let ratio = |metric: &str| num(m, metric) / num(&manual, metric);
            if optimized {
                // Branch counts come out near-identical (the extra
                // cache-tiling loops add a fraction of a percent), as in
                // the paper's Fig. 12b: "matches".
                let holds = ratio("branch_ratio") <= 1.05
                    && ratio("cache_ratio") < 1.0
                    && ratio("clock_ratio") < 1.0;
                targets.push((
                    format!("(b) {id}: matches or beats manual on every metric"),
                    Verdict::Holds(holds),
                ));
            } else {
                let holds = ratio("branch_ratio") > 1.0 && ratio("cache_ratio") > 1.0;
                targets.push((
                    format!("(a) {id}: more branches and cache references than manual"),
                    Verdict::Holds(holds),
                ));
            }
        }
    }
    assert_targets("fig12", targets);
}

#[test]
fn fig13_generated_wins_in_every_row() {
    let mut targets = vec![(
        "1.18x mean / 1.65x max speedup, 10% mean / 56% max cache-reference reduction".to_owned(),
        Verdict::FullScaleOnly(
            "averages over the dims x sizes grid; the quick sweep has the one (64, 8) point",
        ),
    )];
    for (id, m) in entries("fig13") {
        targets.push((
            format!("{id}: generated wins on task-clock"),
            Verdict::Holds(num(&m, "generated_ms") < num(&m, "manual_ms")),
        ));
        targets.push((
            format!("{id}: generated wins on cache references"),
            Verdict::Holds(num(&m, "generated_cache_refs") < num(&m, "manual_cache_refs")),
        ));
    }
    assert_targets("fig13", targets);
}

#[test]
fn fig14_best_adapts_to_the_permutation_and_beats_square_tiles() {
    let squares = ["As-squareTile_ms", "Bs-squareTile_ms", "Cs-squareTile_ms"];
    let mut targets = vec![(
        "the permutations of [32, 256, 512]".to_owned(),
        Verdict::FullScaleOnly("the quick sweep permutes [32, 64, 128]"),
    )];
    let mut winners = std::collections::BTreeSet::new();
    for (id, m) in entries("fig14") {
        let best = num(&m, "best_ms");
        for square in squares {
            targets.push((
                format!("{id}: Best at least as fast as {square}"),
                Verdict::Holds(best <= num(&m, square)),
            ));
        }
        let fastest = squares.into_iter().min_by(|a, b| num(&m, a).total_cmp(&num(&m, b)));
        winners.insert(fastest.expect("three square strategies"));
        let problem = parse_dims(&id.replace('_', "x")).expect("an M_N_K id");
        let dims = (problem.m, problem.n, problem.k);
        let flows = [
            FlowStrategy::InputAStationary,
            FlowStrategy::InputBStationary,
            FlowStrategy::OutputStationary,
        ];
        let tops_out = flows.into_iter().all(|flow| {
            square_tile_choice(flow, dims, 16, V4_CAPACITY_WORDS)
                .is_ok_and(|c| c.tile == (32, 32, 32))
        });
        targets.push((format!("{id}: square tiles top out at T = 32"), Verdict::Holds(tops_out)));
    }
    targets.push((
        format!("the best square flow changes with the problem shape ({winners:?})"),
        Verdict::Holds(winners.len() > 1),
    ));
    assert_targets("fig14", targets);
}

#[test]
fn fig16_wide_filters_win_and_pointwise_filters_do_not() {
    let mut targets = vec![(
        "the 56_64_1_128_2 slowdown".to_owned(),
        Verdict::FullScaleOnly("the quick sweep runs two small stand-in layers, not ResNet18's"),
    )];
    let rows = entries("fig16");
    let clock = |m: &JsonValue| num(m, "clock_ratio");
    for (id, m) in &rows {
        let layer = parse_layer(id).expect("a layer-label id");
        if layer.filter_hw > 1 {
            targets.push((
                format!("{id}: fHW > 1 beats the manual driver"),
                Verdict::Holds(clock(m) < 1.0),
            ));
        } else {
            let wide =
                rows.iter().filter(|(id, _)| parse_layer(id).is_some_and(|l| l.filter_hw > 1));
            let gains_least = wide.clone().all(|(_, w)| clock(w) < clock(m));
            targets.push((
                format!("{id}: fHW == 1 shows little or no gain ({:.3})", clock(m)),
                Verdict::Holds(clock(m) > 0.95 && gains_least),
            ));
        }
    }
    assert_targets("fig16", targets);
}

#[test]
fn fig17_co_execution_wins_end_to_end_and_best_leads() {
    let rows = entries("fig17");
    let bar = |label: &str| rows.iter().find(|(id, _)| id == label).expect("a bar").1.clone();
    let (cpu, ns, best) = (bar("CPU (MLIR)"), bar("Ns-SquareTile"), bar("AXI4MLIR Best"));
    let e2e = num(&cpu, "e2e_ms") / num(&best, "e2e_ms");
    let matmul = num(&cpu, "matmul_ms") / num(&best, "matmul_ms");
    let targets = vec![
        (format!("> 2x end to end ({e2e:.2}x)"), Verdict::Holds(e2e > 2.0)),
        (format!("> 5x on the MatMuls alone ({matmul:.2}x)"), Verdict::Holds(matmul > 5.0)),
        (
            "Best ahead of Ns-SquareTile".to_owned(),
            Verdict::Holds(num(&best, "e2e_ms") < num(&ns, "e2e_ms")),
        ),
        (
            "MatMuls are 75% of the CPU-only bar".to_owned(),
            Verdict::Holds((num(&cpu, "matmul_ms") / num(&cpu, "e2e_ms") - 0.75).abs() < 1e-9),
        ),
    ];
    assert_targets("fig17", targets);
}
