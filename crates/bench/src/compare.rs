//! The regression-gate engine behind the `bench-compare` binary.
//!
//! Extracted from the binary so the gate's semantics are unit-testable:
//! only *simulated* milliseconds are gated (metric keys ending in `_ms`
//! except the wall-clock `compile_ms`/`pass_ms`, which are machine
//! noise), entries present on one side only are notes rather than
//! failures, a zero baseline regresses only if the current value rose
//! above zero, and schema-v2 `pareto` sections are compared
//! presence-wise only — a baseline that predates the schema bump skips
//! the front instead of failing the gate.
//!
//! One *throughput* metric is also gated: the explorer's `sims_per_sec`
//! context member (full-fidelity simulations per second of in-simulator
//! wall time). Its delta is inverted — a *drop* in rate is the
//! regression — and, like the pareto section, it is skipped with a note
//! when the baseline predates it.

use axi4mlir_support::json::JsonValue;

/// Wall-clock (non-deterministic) keys excluded from the gate.
pub const EXCLUDED_METRICS: [&str; 2] = ["compile_ms", "pass_ms"];

/// Report-level `context` members gated as throughput (higher is
/// better): the delta is inverted so a rate drop reads as a slowdown.
pub const RATE_CONTEXT_METRICS: [&str; 1] = ["sims_per_sec"];

/// The placeholder entry id of report-level context samples.
pub const CONTEXT_ENTRY: &str = "@context";

/// One comparable measurement: report name, entry id, metric key.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The report the sample came from (`fig14`, `explore`, ...).
    pub report: String,
    /// The entry id within the report.
    pub entry: String,
    /// The metric key (`task_clock_ms`, ...).
    pub metric: String,
    /// The measured value.
    pub value: f64,
}

/// Whether a metric key participates in the regression gate.
pub fn is_gated_metric(key: &str) -> bool {
    key.ends_with("_ms") && !EXCLUDED_METRICS.contains(&key)
}

/// Whether a key is gated as a rate (higher is better, delta inverted).
pub fn is_rate_metric(key: &str) -> bool {
    RATE_CONTEXT_METRICS.contains(&key)
}

/// Extracts every gated sample of one report document.
fn samples_of_report(doc: &JsonValue, out: &mut Vec<Sample>) {
    // The gate is lenient by design: what a document lacks is simply not
    // compared, so the reader's complaints are dropped.
    let Ok(doc) = doc.members("bench report") else { return };
    let name = doc.str("name").unwrap_or("?");
    let mut sample = |entry: &str, metric: &str, value: f64| {
        out.push(Sample {
            report: name.to_owned(),
            entry: entry.to_owned(),
            metric: metric.to_owned(),
            value,
        });
    };
    if let Ok(context) = doc.object("context") {
        for (key, value) in context.iter() {
            if let (true, Some(value)) = (is_rate_metric(key), value.as_f64()) {
                sample(CONTEXT_ENTRY, key, value);
            }
        }
    }
    for entry in doc.array("entries").unwrap_or(&[]) {
        let Ok(entry) = entry.members("bench entry") else { continue };
        let Ok(metrics) = entry.object("metrics") else { continue };
        let id = entry.str("id").unwrap_or("?");
        for (key, value) in metrics.iter() {
            if let (true, Some(value)) = (is_gated_metric(key), value.as_f64()) {
                sample(id, key, value);
            }
        }
    }
}

/// The reports of a collection (`BENCH_all.json`), or the document
/// itself when it is a single report.
fn reports_of(doc: &JsonValue) -> &[JsonValue] {
    let collection = doc.members("bench collection").and_then(|m| m.array("reports"));
    collection.unwrap_or(std::slice::from_ref(doc))
}

/// Flattens a collection (`BENCH_all.json`) or single-report document
/// into its gated samples.
pub fn samples_of(doc: &JsonValue) -> Vec<Sample> {
    let mut out = Vec::new();
    for report in reports_of(doc) {
        samples_of_report(report, &mut out);
    }
    out
}

/// Names of reports in a document that carry a schema-v2 `pareto`
/// section (compared presence-wise only, never gated).
pub fn pareto_reports_of(doc: &JsonValue) -> Vec<String> {
    let with_front = |report: &JsonValue| {
        let report = report.members("bench report").ok()?;
        report.get("pareto").map(|_| report.str("name").unwrap_or("?").to_owned())
    };
    reports_of(doc).iter().filter_map(with_front).collect()
}

/// One baseline-vs-current pair.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The current-side sample.
    pub sample: Sample,
    /// The baseline value it is compared against.
    pub baseline: f64,
    /// `current / baseline - 1`; positive is slower.
    pub delta: f64,
}

/// What one gate run concluded.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Every matched metric, in current-document order.
    pub compared: Vec<Comparison>,
    /// Indices (into [`Self::compared`]) beyond the threshold, sorted
    /// worst first.
    pub regressions: Vec<usize>,
    /// Current-side metrics with no baseline counterpart (space grew).
    pub unmatched_current: usize,
    /// Baseline metrics that disappeared (space shrank).
    pub unmatched_baseline: usize,
    /// Reports whose `pareto` section the baseline lacks (pre-bump
    /// baseline or frontless run): noted, skipped, never gated.
    pub pareto_skipped: Vec<String>,
}

impl GateOutcome {
    /// `true` when no gated metric regressed beyond the threshold.
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// The process exit code the gate maps to: 0 clean, 1 regressions.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.clean())
    }
}

/// Runs the gate over two parsed documents (collections or single
/// reports) at `threshold` (a fraction: 0.10 fails >10% slowdowns).
pub fn gate(baseline: &JsonValue, current: &JsonValue, threshold: f64) -> GateOutcome {
    let mut index = std::collections::HashMap::new();
    for s in samples_of(baseline) {
        index.insert((s.report.clone(), s.entry.clone(), s.metric.clone()), s.value);
    }
    let mut outcome = GateOutcome::default();
    for s in samples_of(current) {
        let key = (s.report.clone(), s.entry.clone(), s.metric.clone());
        match index.remove(&key) {
            Some(old) => {
                // A zero baseline cannot form a ratio: unchanged-at-zero
                // is clean, anything above zero is an unbounded
                // regression. Rate metrics invert the ratio — there a
                // *drop* (including to zero) is the slowdown.
                let delta = if is_rate_metric(&s.metric) {
                    if old <= 0.0 {
                        0.0
                    } else if s.value > 0.0 {
                        old / s.value - 1.0
                    } else {
                        f64::INFINITY
                    }
                } else if old > 0.0 {
                    s.value / old - 1.0
                } else if s.value > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                outcome.compared.push(Comparison { delta, baseline: old, sample: s });
            }
            None => outcome.unmatched_current += 1,
        }
    }
    outcome.unmatched_baseline = index.len();
    let mut regressions: Vec<usize> =
        (0..outcome.compared.len()).filter(|&i| outcome.compared[i].delta > threshold).collect();
    regressions.sort_by(|&a, &b| outcome.compared[b].delta.total_cmp(&outcome.compared[a].delta));
    outcome.regressions = regressions;

    let baseline_pareto = pareto_reports_of(baseline);
    outcome.pareto_skipped = pareto_reports_of(current)
        .into_iter()
        .filter(|name| !baseline_pareto.contains(name))
        .collect();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-report document with one entry carrying `metrics`.
    fn report(name: &str, entry: &str, metrics: &[(&str, f64)]) -> JsonValue {
        JsonValue::object([
            ("schema".to_owned(), crate::report::SCHEMA.into()),
            ("name".to_owned(), name.into()),
            (
                "entries".to_owned(),
                JsonValue::Array(vec![JsonValue::object([
                    ("id".to_owned(), entry.into()),
                    (
                        "metrics".to_owned(),
                        JsonValue::object(
                            metrics.iter().map(|(k, v)| ((*k).to_owned(), JsonValue::Float(*v))),
                        ),
                    ),
                ])]),
            ),
        ])
    }

    fn with_context(mut doc: JsonValue, key: &str, value: f64) -> JsonValue {
        if let JsonValue::Object(members) = &mut doc {
            members.push((
                "context".to_owned(),
                JsonValue::object([(key.to_owned(), JsonValue::Float(value))]),
            ));
        }
        doc
    }

    fn with_pareto(mut doc: JsonValue, front_size: u64) -> JsonValue {
        if let JsonValue::Object(members) = &mut doc {
            members.push((
                "pareto".to_owned(),
                JsonValue::object([("size".to_owned(), front_size.into())]),
            ));
        }
        doc
    }

    #[test]
    fn a_regression_beyond_ten_percent_fires_exit_1() {
        let baseline = report("fig14", "Cs 16", &[("task_clock_ms", 1.0)]);
        let slower = report("fig14", "Cs 16", &[("task_clock_ms", 1.11)]);
        let outcome = gate(&baseline, &slower, 0.10);
        assert_eq!(outcome.compared.len(), 1);
        assert_eq!(outcome.regressions.len(), 1);
        assert!(!outcome.clean());
        assert_eq!(outcome.exit_code(), 1);
        let worst = &outcome.compared[outcome.regressions[0]];
        assert!((worst.delta - 0.11).abs() < 1e-12);

        // Exactly at the threshold is clean — the gate fires strictly
        // beyond it (binary-exact values, so the ratio is exact too) —
        // and so is a speedup.
        let at = report("fig14", "Cs 16", &[("task_clock_ms", 1.25)]);
        assert_eq!(gate(&baseline, &at, 0.25).exit_code(), 0);
        let faster = report("fig14", "Cs 16", &[("task_clock_ms", 0.5)]);
        assert_eq!(gate(&baseline, &faster, 0.10).exit_code(), 0);
    }

    #[test]
    fn wall_clock_and_non_ms_metrics_are_not_gated() {
        // compile_ms/pass_ms are machine noise; dma_words is not a
        // millisecond metric. None of them may fire the gate.
        let baseline = report(
            "explore",
            "v4_8 Ns",
            &[("task_clock_ms", 1.0), ("compile_ms", 1.0), ("dma_words", 100.0)],
        );
        let current = report(
            "explore",
            "v4_8 Ns",
            &[("task_clock_ms", 1.0), ("compile_ms", 50.0), ("dma_words", 900.0)],
        );
        let outcome = gate(&baseline, &current, 0.10);
        assert_eq!(outcome.compared.len(), 1, "only task_clock_ms is gated");
        assert_eq!(outcome.compared[0].sample.metric, "task_clock_ms");
        assert!(outcome.clean());
        assert!(is_gated_metric("task_clock_ms"));
        assert!(is_gated_metric("generated_accel_ms"));
        assert!(!is_gated_metric("compile_ms"));
        assert!(!is_gated_metric("pass_ms"));
        assert!(!is_gated_metric("dma_words"));
    }

    #[test]
    fn a_sims_per_sec_drop_is_gated_with_inverted_delta() {
        let sweep = || report("explore", "v4_8 Ns", &[("task_clock_ms", 1.0)]);
        let base = with_context(sweep(), "sims_per_sec", 100.0);
        let slower = with_context(sweep(), "sims_per_sec", 80.0);
        let outcome = gate(&base, &slower, 0.10);
        assert_eq!(outcome.compared.len(), 2, "context rate + entry metric");
        assert_eq!(outcome.regressions.len(), 1);
        let worst = &outcome.compared[outcome.regressions[0]];
        assert_eq!(worst.sample.metric, "sims_per_sec");
        assert_eq!(worst.sample.entry, CONTEXT_ENTRY);
        assert!((worst.delta - 0.25).abs() < 1e-12, "100/80 - 1, not 80/100 - 1");

        // A faster simulator is clean; a stalled one (rate zero against a
        // positive baseline) is an unbounded regression.
        let faster = with_context(sweep(), "sims_per_sec", 300.0);
        assert!(gate(&base, &faster, 0.10).clean());
        let stalled = with_context(sweep(), "sims_per_sec", 0.0);
        let outcome = gate(&base, &stalled, 0.10);
        assert!(outcome.compared[outcome.regressions[0]].delta.is_infinite());
    }

    #[test]
    fn baselines_without_sims_per_sec_note_instead_of_failing() {
        // A baseline recorded before the metric existed: the current-side
        // rate has no counterpart, which is a note, never a regression.
        let base = report("explore", "v4_8 Ns", &[("task_clock_ms", 1.0)]);
        let current = with_context(
            report("explore", "v4_8 Ns", &[("task_clock_ms", 1.0)]),
            "sims_per_sec",
            100.0,
        );
        let outcome = gate(&base, &current, 0.10);
        assert!(outcome.clean());
        assert_eq!(outcome.unmatched_current, 1);
        assert!(is_rate_metric("sims_per_sec"));
        assert!(!is_rate_metric("task_clock_ms"));
    }

    #[test]
    fn missing_pareto_and_pre_bump_baselines_skip_cleanly() {
        // The baseline predates the schema bump: no pareto section. The
        // current run carries one. Skipped with a note, never a failure.
        let baseline = report("explore", "v4_8 Ns", &[("task_clock_ms", 1.0)]);
        let current = with_pareto(report("explore", "v4_8 Ns", &[("task_clock_ms", 1.0)]), 3);
        let outcome = gate(&baseline, &current, 0.10);
        assert!(outcome.clean());
        assert_eq!(outcome.pareto_skipped, vec!["explore".to_owned()]);
        // Both sides carrying a front: nothing to skip.
        let both = gate(&with_pareto(baseline, 2), &current, 0.10);
        assert!(both.pareto_skipped.is_empty());
    }

    #[test]
    fn one_sided_entries_are_notes_not_failures() {
        let baseline = report("fig14", "old entry", &[("task_clock_ms", 1.0)]);
        let current = report("fig14", "new entry", &[("task_clock_ms", 9.0)]);
        let outcome = gate(&baseline, &current, 0.10);
        assert!(outcome.compared.is_empty());
        assert_eq!(outcome.unmatched_current, 1);
        assert_eq!(outcome.unmatched_baseline, 1);
        assert!(outcome.clean(), "a changed space is a note, not a regression");
    }

    #[test]
    fn zero_baselines_regress_only_when_the_current_value_rises() {
        let zero = report("t", "e", &[("cpu_ms", 0.0)]);
        let still_zero = report("t", "e", &[("cpu_ms", 0.0)]);
        assert!(gate(&zero, &still_zero, 0.10).clean());
        let rose = report("t", "e", &[("cpu_ms", 0.001)]);
        let outcome = gate(&zero, &rose, 0.10);
        assert!(!outcome.clean());
        assert!(outcome.compared[outcome.regressions[0]].delta.is_infinite());
    }

    #[test]
    fn collections_flatten_every_report() {
        let collection = JsonValue::object([
            ("schema".to_owned(), "axi4mlir-bench-collection/v1".into()),
            (
                "reports".to_owned(),
                JsonValue::Array(vec![
                    report("fig10", "a", &[("task_clock_ms", 1.0)]),
                    with_pareto(report("explore", "b", &[("task_clock_ms", 2.0)]), 1),
                ]),
            ),
        ]);
        assert_eq!(samples_of(&collection).len(), 2);
        assert_eq!(pareto_reports_of(&collection), vec!["explore".to_owned()]);
        let outcome = gate(&collection, &collection, 0.10);
        assert_eq!(outcome.compared.len(), 2);
        assert!(outcome.clean());
        assert!(outcome.pareto_skipped.is_empty());
    }
}
