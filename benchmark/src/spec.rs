//! What the benchmark declares: its metrics, by name, unit and direction.
//!
//! `BENCHMARK.json` at the repository root repeats these lists for the
//! driver; a unit test fails when the two differ in either direction.
//! Host time and simulated time are never mixed in one number: every
//! metric here is host time or a host-side ratio unless its unit says
//! `sim_ms` or `count`.

use crate::workloads::WORKLOADS;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: something a user of the system would see.
pub struct EndToEnd {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
    /// The share of the parent's median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them, from
/// the untraced run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "op_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "work_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// One per-layer metric, from the traced run.
pub struct PerLayer {
    /// `<layer>.<what>`; the layer prefix is the module's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// The per-layer ledger, outside in. The README's table says which
/// end-to-end metric each entry should move, and on which workload.
pub const PER_LAYER: [PerLayer; 67] = [
    // The paper's figures of merit and the generated code's size: exact,
    // per op, identical run to run.
    lower("sim_task_clock_ms", "sim_ms"),
    lower("sim_cache_refs", "count"),
    lower("code_size_ops", "count"),
    // interp / sim / runtime / accelerators
    lower("interp.ns_per_sim_instr.matmul", "ns"),
    lower("interp.ns_per_sim_instr.conv", "ns"),
    lower("interp.loop_ns_per_iter", "ns"),
    lower("sim.dma.roundtrip_us_per_kb", "us"),
    lower("sim.cache.ns_per_access", "ns"),
    lower("runtime.copy.ns_per_word", "ns"),
    lower("accelerators.matmul.ns_per_mac", "ns"),
    lower("sim.instr_per_sim", "count"),
    lower("sim.dma_txns_per_sim", "count"),
    lower("sim.cache_refs_per_sim", "count"),
    // core::driver + workloads
    lower("core.driver.run_cold_us", "us"),
    lower("core.driver.run_warm_us", "us"),
    lower("core.driver.compile_us", "us"),
    lower("core.driver.verify_us", "us"),
    lower("workloads.build_module_us", "us"),
    // ir / dialects / core passes
    lower("ir.parser.us_per_kb", "us"),
    lower("ir.printer.us_per_kb", "us"),
    lower("dialects.lint.us_per_module", "us"),
    lower("core.annotate.us", "us"),
    lower("core.codegen.us", "us"),
    lower("core.lower.us", "us"),
    lower("dialects.verify.us", "us"),
    lower("ir.ops_after_pipeline", "count"),
    // heuristics / core::explore front end
    lower("heuristics.space.enumerate_us_per_candidate", "us"),
    lower("core.explore.audit.us_per_candidate", "us"),
    lower("core.explore.prune.us_per_candidate", "us"),
    lower("core.explore.space.realize_us", "us"),
    lower("core.explore.transfer.fit_us_per_entry", "us"),
    lower("core.explore.front_ms", "ms"),
    lower("core.explore.rung_ms", "ms"),
    lower("core.explore.tail_ms", "ms"),
    lower("core.explore.cache.hit_us_per_candidate", "us"),
    // core::explore::measure
    lower("core.explore.measure.run_candidate_us", "us"),
    higher("core.explore.measure.local_efficiency", "ratio"),
    lower("core.explore.measure.remote_overhead_us_per_sim", "us"),
    // worker
    lower("worker.handle_measure_us", "us"),
    lower("worker.rebuild_overhead_us", "us"),
    higher("worker.sims_balance", "ratio"),
    lower("worker.reconnects", "count"),
    // support
    higher("support.json.parse_mb_s.shard", "MB/s"),
    higher("support.json.parse_mb_s.done_frame", "MB/s"),
    higher("support.json.render_mb_s", "MB/s"),
    lower("support.json.doc_kb.shard", "KiB"),
    lower("support.json.doc_kb.done_frame", "KiB"),
    lower("support.proto.frame_rtt_us", "us"),
    // core::explore::{shard, cache, wire}
    lower("core.explore.shard.load_ms", "ms"),
    lower("core.explore.shard.save_dirty_ms", "ms"),
    lower("core.explore.shard.bytes", "count"),
    lower("core.explore.shard.entries", "count"),
    lower("core.explore.wire.report_encode_ms", "ms"),
    lower("core.explore.wire.report_decode_ms", "ms"),
    // hub
    lower("hub.connect_ms", "ms"),
    lower("hub.status_rtt_ms", "ms"),
    lower("hub.submit_to_running_ms", "ms"),
    lower("hub.running_to_space_ready_ms", "ms"),
    lower("hub.measure_phase_ms", "ms"),
    lower("hub.last_rung_to_done_ms", "ms"),
    lower("hub.job_ms_p50.fresh", "ms"),
    lower("hub.job_ms_p50.repeat", "ms"),
    lower("hub.wait_share", "ratio"),
    lower("hub.events_per_job", "count"),
    lower("hub.rejected", "count"),
    // the harness itself
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.unattributed_pct", "%"),
];

/// The per-layer metrics that are simulated quantities or counts made by
/// the program: for a given `--seed` they must repeat exactly, and
/// `--check-determinism` asserts that they do.
pub fn is_exact(metric: &PerLayer) -> bool {
    matches!(metric.unit, "count" | "sim_ms")
}

/// What `--list` prints: every workload and metric the runner emits, one
/// per line — `workload NAME`, `end_to_end NAME UNIT BETTER BOUND`,
/// `per_layer NAME UNIT BETTER`.
pub fn listing() -> String {
    let mut out = String::new();
    for workload in &WORKLOADS {
        out.push_str(&format!("workload {}\n", workload.name));
    }
    for metric in &END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} {} {}\n",
            metric.name,
            metric.unit,
            metric.better.label(),
            metric.bound
        ));
    }
    for metric in &PER_LAYER {
        out.push_str(&format!(
            "per_layer {} {} {}\n",
            metric.name,
            metric.unit,
            metric.better.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_support::json::JsonValue;

    /// `BENCHMARK.json`, rendered the way [`listing`] renders the runner's
    /// own declarations.
    fn declared() -> String {
        let text = include_str!("../../BENCHMARK.json");
        let doc = JsonValue::parse(text).expect("BENCHMARK.json parses with support::json");
        let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).expect(key).to_vec();
        let text_of = |entry: &JsonValue, key: &str| {
            entry.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("{key}")).to_owned()
        };
        let mut out = String::new();
        for workload in list("workloads") {
            assert!(text_of(&workload, "why").len() <= 200, "a why is one short line");
            out.push_str(&format!("workload {}\n", text_of(&workload, "name")));
        }
        for metric in list("end_to_end") {
            out.push_str(&format!(
                "end_to_end {} {} {} {}\n",
                text_of(&metric, "name"),
                text_of(&metric, "unit"),
                text_of(&metric, "better"),
                metric.get("bound").and_then(JsonValue::as_f64).expect("bound"),
            ));
        }
        for metric in list("per_layer") {
            out.push_str(&format!(
                "per_layer {} {} {}\n",
                text_of(&metric, "name"),
                text_of(&metric, "unit"),
                text_of(&metric, "better"),
            ));
        }
        out
    }

    #[test]
    fn the_runner_and_benchmark_json_declare_the_same_names() {
        let (runner, declared) = (listing(), declared());
        for line in runner.lines() {
            assert!(declared.lines().any(|d| d == line), "BENCHMARK.json lacks `{line}`");
        }
        for line in declared.lines() {
            assert!(runner.lines().any(|r| r == line), "the runner does not emit `{line}`");
        }
        assert_eq!(runner, declared, "same entries in the same order");
    }

    #[test]
    fn benchmark_json_carries_each_workloads_recorded_reason() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads = doc.get("workloads").and_then(JsonValue::as_array).unwrap();
        for (declared, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(declared.get("why").and_then(JsonValue::as_str), Some(workload.why));
        }
        assert_eq!(
            doc.get("paths").and_then(JsonValue::as_array).map(<[JsonValue]>::len),
            Some(1),
            "`benchmark` is the only path"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "{name}");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
