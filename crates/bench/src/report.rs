//! Machine-readable benchmark reports (`BENCH_*.json`).
//!
//! Every figure module and the explorer emit a [`BenchReport`]: a named
//! set of entries, each a flat `id → metrics` record, serialized with
//! `axi4mlir-support`'s JSON writer. The format is the contract between
//! the bench binaries, `scripts/bench.sh`, and CI (which uploads the
//! files as workflow artifacts), so regressions are diffable across
//! commits:
//!
//! ```json
//! {
//!   "schema": "axi4mlir-bench/v2",
//!   "name": "fig10",
//!   "context": { "scale": "quick" },
//!   "entries": [ { "id": "...", "metrics": { "cpu_ms": 1.25 } } ]
//! }
//! ```
//!
//! Since `v2`, a report may also carry named top-level *sections* after
//! its entries — structured documents that are not per-entry metrics,
//! like the explorer's `pareto` front. Consumers that only understand
//! entries ignore sections they do not know.
//!
//! Member order is stable (insertion order), floats always carry a
//! decimal point, and `parse(render())` round-trips — all guaranteed by
//! [`axi4mlir_support::json`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use axi4mlir_support::args;
use axi4mlir_support::json::JsonValue;

use crate::Scale;

/// The schema tag every report file carries. `v2` added free-form
/// top-level sections (e.g. the explorer's `pareto` block).
const SCHEMA: &str = "axi4mlir-bench/v2";

/// One measured record: an identifier plus named metrics.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    id: String,
    metrics: Vec<(String, JsonValue)>,
}

impl BenchEntry {
    /// An entry identified by `id` (the figure's x-axis label).
    pub fn new(id: impl Into<String>) -> Self {
        Self { id: id.into(), metrics: Vec::new() }
    }

    /// Appends one metric (builder-style).
    #[must_use]
    pub fn metric(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.metrics.push((key.to_owned(), value.into()));
        self
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("id".to_owned(), JsonValue::from(self.id.clone())),
            ("metrics".to_owned(), JsonValue::object(self.metrics.clone())),
        ])
    }
}

/// A named collection of [`BenchEntry`]s plus free-form context, written
/// as `BENCH_<name>.json`.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    name: String,
    context: Vec<(String, JsonValue)>,
    entries: Vec<BenchEntry>,
    sections: Vec<(String, JsonValue)>,
}

impl BenchReport {
    /// An empty report named `name` (e.g. `"fig10"`, `"explore"`).
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), context: Vec::new(), entries: Vec::new(), sections: Vec::new() }
    }

    /// Records one context member (scale, problem, worker count, ...).
    #[must_use]
    pub fn context(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.context.push((key.to_owned(), value.into()));
        self
    }

    /// Records the [`Scale`] a sweep ran at.
    #[must_use]
    pub(crate) fn scale(self, scale: Scale) -> Self {
        self.context("scale", if scale == Scale::Full { "full" } else { "quick" })
    }

    /// Appends one entry.
    pub fn push(&mut self, entry: BenchEntry) {
        self.entries.push(entry);
    }

    /// Records one named top-level section (schema `v2`): a structured
    /// document alongside the entries, e.g. the explorer's `pareto`
    /// front. Sections are serialized after `entries` in insertion
    /// order.
    #[must_use]
    pub fn section(mut self, key: &str, value: JsonValue) -> Self {
        self.sections.push((key.to_owned(), value));
        self
    }

    /// The report name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The canonical file name, `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The full document as a JSON value.
    pub fn to_json(&self) -> JsonValue {
        let mut members = vec![
            ("schema".to_owned(), JsonValue::from(SCHEMA)),
            ("name".to_owned(), JsonValue::from(self.name.clone())),
            ("context".to_owned(), JsonValue::object(self.context.clone())),
            (
                "entries".to_owned(),
                JsonValue::Array(self.entries.iter().map(BenchEntry::to_json).collect()),
            ),
        ];
        members.extend(self.sections.iter().cloned());
        JsonValue::object(members)
    }

    /// Pretty-printed document text (with a trailing newline).
    fn render(&self) -> String {
        let mut text = self.to_json().to_json_pretty();
        text.push('\n');
        text
    }

    /// Writes `BENCH_<name>.json` into `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        fs::write(&path, self.render())?;
        Ok(path)
    }
}

/// The `--json [DIR]` convention shared by every bench binary: when the
/// flag is present, writes the report (into `DIR`, default the current
/// directory) and returns the path; without the flag this is a no-op.
///
/// # Errors
///
/// Propagates filesystem errors from the write.
pub fn emit_from_args(report: &BenchReport) -> io::Result<Option<PathBuf>> {
    match json_dir_from_args(args::argv()) {
        Some(dir) => {
            let path = report.write_to_dir(&dir)?;
            eprintln!("wrote {}", path.display());
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

/// Parses the `--json [DIR]` flag out of an argument list.
pub fn json_dir_from_args(args: impl IntoIterator<Item = String>) -> Option<PathBuf> {
    let args: Vec<String> = args.into_iter().collect();
    args::optional_value(&args, "--json").map(|dir| PathBuf::from(dir.unwrap_or(".")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("sample").scale(Scale::Quick).context("dims", 64i64);
        r.push(BenchEntry::new("(64, 8)").metric("cpu_ms", 1.25).metric("dma_transactions", 40u64));
        r.push(BenchEntry::new("(64, 16)").metric("verified", true));
        r
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let r = sample();
        let parsed = JsonValue::parse(&r.render()).unwrap();
        assert_eq!(parsed, r.to_json());
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("sample"));
        assert_eq!(parsed.get("context").unwrap().get("scale").unwrap().as_str(), Some("quick"));
        let entries = parsed.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get("id").unwrap().as_str(), Some("(64, 8)"));
        assert_eq!(
            entries[0].get("metrics").unwrap().get("dma_transactions").unwrap().as_u64(),
            Some(40)
        );
    }

    #[test]
    fn file_name_follows_the_convention() {
        assert_eq!(sample().file_name(), "BENCH_sample.json");
    }

    #[test]
    fn sections_ride_after_the_entries() {
        let front = JsonValue::object([
            ("objectives".to_owned(), JsonValue::Array(vec!["clock".into(), "traffic".into()])),
            ("front".to_owned(), JsonValue::Array(vec![])),
        ]);
        let r = sample().section("pareto", front.clone());
        let parsed = JsonValue::parse(&r.render()).unwrap();
        assert_eq!(parsed.get("pareto"), Some(&front));
        // Entries are untouched, so entry-only consumers keep working.
        assert_eq!(parsed.get("entries").unwrap().as_array().unwrap().len(), 2);
        let members = parsed.as_object().unwrap();
        assert_eq!(members.last().unwrap().0, "pareto", "sections serialize last");
    }

    #[test]
    fn write_to_dir_creates_the_file() {
        let dir =
            std::env::temp_dir().join(format!("axi4mlir-bench-report-{}", std::process::id()));
        let path = sample().write_to_dir(&dir).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(JsonValue::parse(&text).unwrap(), sample().to_json());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(json_dir_from_args(args(&[])), None);
        assert_eq!(json_dir_from_args(args(&["--quick"])), None);
        assert_eq!(json_dir_from_args(args(&["--json"])), Some(PathBuf::from(".")));
        assert_eq!(json_dir_from_args(args(&["--json", "out"])), Some(PathBuf::from("out")));
        assert_eq!(
            json_dir_from_args(args(&["--json", "--quick"])),
            Some(PathBuf::from(".")),
            "a following flag is not a directory"
        );
    }
}
