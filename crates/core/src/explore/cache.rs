//! The result-cache *document* format: what one shard file holds.
//!
//! Exploration results are deterministic functions of their
//! [`CandidateKey`], so they can be shared across processes: repeated
//! local sweeps and CI runs load the cache, serve overlapping candidates
//! without re-simulating them, and merge-save what they measured — and
//! the cross-problem transfer model ([`super::transfer`]) mines the same
//! entries to warm-start sweeps of *new* problem shapes. Persistence is
//! the sharded directory of [`super::shard`] (the only thing ever
//! written); this module owns what each `<shard>.json` inside it looks
//! like — [`render`], [`parse`], the tolerant [`load`] — a plain
//! `axi4mlir-support` JSON document:
//!
//! ```json
//! {
//!   "schema": "axi4mlir-explore-cache/v2",
//!   "entries": [
//!     { "key": { "workload": "matmul 16x16x16", "accel": "v4_8",
//!                "flow": "Cs", "tile": [16, 8, 8], "coalesce": false,
//!                "specialized_copies": true, "cache_tiling": "auto",
//!                "cpu": "pynq_z2", "seed": 7 },
//!       "counters": { "host_cycles": 1, ... },
//!       "task_clock_ms": 0.25, "verified": true }
//!   ]
//! }
//! ```
//!
//! A document under any other schema tag loads as an empty cache. Key
//! members are text on disk and typed in memory: [`key_from`] is the one
//! place they are decoded (a wire frame calls the same function).
//!
//! Entries are written in the order of their *rendered* key members
//! (`v4_16` before `v4_8`, `As < Bs < Cs < Ns`), whatever the typed key
//! compares like, so the file diffs cleanly. Counters are exact integers
//! and `task_clock_ms` uses Rust's shortest-roundtrip float formatting,
//! so a loaded entry is bit-identical to the measured one. Wall-clock pass timings are *not* persisted (they are
//! host-machine noise, excluded from determinism comparisons); cache
//! hits served from disk report empty pass timings.
//!
//! Robustness policy: a cache is disposable. A missing file loads as an
//! empty cache, a file with an unknown schema tag is ignored (the CI
//! cache key embeds the schema version, so this only happens across
//! versions locally), unparseable *entries* are skipped (a key that
//! names no buildable configuration — `v3_0`, a zero MatMul tile, a conv
//! layer past the unit's buffers — is one), and a syntactically broken
//! file loads as an empty cache with a stderr warning (it is rewritten
//! whole on the next save); only unreadable files are reported as errors.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use axi4mlir_config::{CacheTiling, CpuModel};
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};

use super::space::{CandidateKey, Device, Flow, OptionsPoint, Problem};

/// The schema tag of the persistent cache document. Bump on any change
/// to the key or payload layout (the CI cache key embeds this value).
pub const CACHE_SCHEMA: &str = "axi4mlir-explore-cache/v2";

/// The deterministic payload a cache entry stores.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedEval {
    /// Simulator counters for the whole run.
    pub counters: PerfCounters,
    /// Simulated task-clock in milliseconds.
    pub task_clock_ms: f64,
    /// Whether the run matched the reference kernel.
    pub verified: bool,
    /// Wall-clock pass timings of the run that measured; informational,
    /// never persisted and not kept in an engine's cache.
    pub pass_ms: Vec<(String, f64)>,
}

/// Serializes a [`CandidateKey`] as the JSON object the cache document
/// (and the hub wire protocol, via [`super::wire`]) spells keys in.
pub fn key_to_json(key: &CandidateKey) -> JsonValue {
    JsonValue::object([
        ("workload".to_owned(), key.workload.to_string().into()),
        ("accel".to_owned(), key.accel.to_string().into()),
        ("flow".to_owned(), key.flow.to_string().into()),
        (
            "tile".to_owned(),
            JsonValue::Array(vec![key.tile.0.into(), key.tile.1.into(), key.tile.2.into()]),
        ),
        ("coalesce".to_owned(), key.options.coalesce.into()),
        ("specialized_copies".to_owned(), key.options.specialized_copies.into()),
        ("cache_tiling".to_owned(), key.options.cache_tiling.label().into()),
        ("cpu".to_owned(), key.options.cpu.label().into()),
        ("seed".to_owned(), key.seed.into()),
    ])
}

/// A string member read through its field's one `parse`.
fn text_member<T>(
    m: &Members<'_>,
    name: &str,
    parse: impl FnOnce(&str) -> Option<T>,
    must: &str,
) -> Result<T, Diagnostic> {
    parse(m.str(name)?).ok_or_else(|| m.invalid(name, must))
}

/// Reads a [`CandidateKey`] from its object's members — the decode
/// boundary of shard entries and wire frames alike. No member defaults:
/// that would serve another configuration's measurement under this key.
///
/// # Errors
///
/// Returns a [`Diagnostic`] blaming the first missing or malformed
/// member, or the one that makes the key unbuildable (the rule is stated
/// on [`CandidateKey::at`]).
pub fn key_from(m: &Members<'_>) -> Result<CandidateKey, Diagnostic> {
    let workload =
        text_member(m, "workload", Problem::parse, "must be a matmul|batched|conv problem label")?;
    let accel = text_member(m, "accel", Device::parse, "must be a vN_SIZE instance or conv2d")?;
    let flow = text_member(m, "flow", Flow::parse, "must be a flow name")?;
    let cache_tiling =
        text_member(m, "cache_tiling", CacheTiling::parse, "must be a cache-tiling label")?;
    let cpu = text_member(m, "cpu", CpuModel::parse, "must name a known host")?;
    let tile = match m.i64_list("tile")?[..] {
        [tm, tn, tk] => (tm, tn, tk),
        _ => return Err(m.invalid("tile", "must be a [m, n, k] array of integers")),
    };
    let key = CandidateKey {
        workload,
        accel,
        flow,
        tile,
        options: OptionsPoint {
            coalesce: m.bool("coalesce")?,
            specialized_copies: m.bool("specialized_copies")?,
            cache_tiling,
            cpu,
        },
        seed: m.u64("seed")?,
    };
    match key.defect() {
        Some((member, must)) => Err(m.invalid(member, must)),
        None => Ok(key),
    }
}

type CounterField = (&'static str, fn(&PerfCounters) -> u64, fn(&mut PerfCounters, u64));

/// `(name, getter, setter)` for every [`PerfCounters`] field, the single
/// place the serialized counter list is spelled.
const COUNTER_FIELDS: [CounterField; 13] = [
    ("host_cycles", |c| c.host_cycles, |c, v| c.host_cycles = v),
    ("device_cycles", |c| c.device_cycles, |c, v| c.device_cycles = v),
    ("cache_references", |c| c.cache_references, |c, v| c.cache_references = v),
    ("l1_misses", |c| c.l1_misses, |c, v| c.l1_misses = v),
    ("l2_misses", |c| c.l2_misses, |c, v| c.l2_misses = v),
    ("branch_instructions", |c| c.branch_instructions, |c, v| c.branch_instructions = v),
    ("instructions", |c| c.instructions, |c, v| c.instructions = v),
    ("uncached_accesses", |c| c.uncached_accesses, |c, v| c.uncached_accesses = v),
    ("dma_bytes_to_accel", |c| c.dma_bytes_to_accel, |c, v| c.dma_bytes_to_accel = v),
    ("dma_bytes_from_accel", |c| c.dma_bytes_from_accel, |c, v| c.dma_bytes_from_accel = v),
    ("dma_transactions", |c| c.dma_transactions, |c, v| c.dma_transactions = v),
    ("accel_compute_cycles", |c| c.accel_compute_cycles, |c, v| c.accel_compute_cycles = v),
    ("accel_macs", |c| c.accel_macs, |c, v| c.accel_macs = v),
];

/// A total order on *persisted* entry payloads (wall-clock pass timings
/// are never persisted and do not contribute). The sharded layout's
/// commutative merge uses it to pick a deterministic winner when two
/// caches disagree about one key — possible only with corrupt or foreign
/// data, since measurements are deterministic functions of the key.
pub(crate) fn payload_rank(eval: &CachedEval) -> (u64, bool, [u64; 13]) {
    let mut counters = [0u64; 13];
    for (slot, (_, get, _)) in counters.iter_mut().zip(&COUNTER_FIELDS) {
        *slot = get(&eval.counters);
    }
    (eval.task_clock_ms.to_bits(), eval.verified, counters)
}

/// Serializes the full counter set as a JSON object (one member per
/// [`PerfCounters`] field).
fn counters_to_json(counters: &PerfCounters) -> JsonValue {
    JsonValue::object(
        COUNTER_FIELDS.iter().map(|(name, get, _)| ((*name).to_owned(), get(counters).into())),
    )
}

/// A measurement's deterministic payload as members, in document order
/// — the one spelling shard documents, worker `result` frames and wire
/// reports all embed (each adds its own members around it).
pub(crate) fn payload_members(
    counters: &PerfCounters,
    task_clock_ms: f64,
    verified: bool,
) -> [(String, JsonValue); 3] {
    [
        ("counters".to_owned(), counters_to_json(counters)),
        ("task_clock_ms".to_owned(), JsonValue::Float(task_clock_ms)),
        ("verified".to_owned(), verified.into()),
    ]
}

impl CachedEval {
    /// Reads the payload [`payload_members`] wrote out of
    /// the object that embeds it; every counter must be present. Pass
    /// timings are never serialized and come back empty.
    pub(crate) fn from_members(m: &Members<'_>) -> Result<CachedEval, Diagnostic> {
        let fields = m.object("counters")?;
        let mut counters = PerfCounters::new();
        for (name, _, set) in &COUNTER_FIELDS {
            set(&mut counters, fields.u64(name)?);
        }
        Ok(CachedEval {
            counters,
            task_clock_ms: m.f64("task_clock_ms")?,
            verified: m.bool("verified")?,
            pass_ms: Vec::new(),
        })
    }
}

/// Serializes a cache snapshot, entries ordered by their *rendered* key
/// members — the order shard files have always been written in.
pub fn render(entries: &HashMap<CandidateKey, CachedEval>) -> String {
    let mut ordered: Vec<(&CandidateKey, &CachedEval)> = entries.iter().collect();
    ordered.sort_by_cached_key(|&(key, _)| {
        let text = (key.workload.to_string(), key.accel.to_string(), key.flow.to_string());
        (text, key.tile, key.options, key.seed)
    });
    let entries = ordered
        .into_iter()
        .map(|(key, eval)| {
            let key = ("key".to_owned(), key_to_json(key));
            let payload = payload_members(&eval.counters, eval.task_clock_ms, eval.verified);
            JsonValue::object(std::iter::once(key).chain(payload))
        })
        .collect();
    let mut text = JsonValue::object([
        ("schema".to_owned(), CACHE_SCHEMA.into()),
        ("entries".to_owned(), JsonValue::Array(entries)),
    ])
    .to_json_pretty();
    text.push('\n');
    text
}

/// Parses a cache document; a document under any other schema tag is an
/// empty cache.
pub fn parse(text: &str) -> Result<HashMap<CandidateKey, CachedEval>, Diagnostic> {
    let doc = JsonValue::parse(text)?;
    let mut out = HashMap::new();
    let Ok(doc) = doc.members("result cache") else { return Ok(out) };
    if doc.str("schema").ok() != Some(CACHE_SCHEMA) {
        return Ok(out);
    }
    for entry in doc.array("entries").unwrap_or(&[]) {
        // A cache is disposable: a broken entry is skipped, not fatal —
        // the reader's complaint about it is dropped on purpose.
        let decoded = entry.members("cache entry").and_then(|entry| {
            Ok((key_from(&entry.object("key")?)?, CachedEval::from_members(&entry)?))
        });
        if let Ok((key, eval)) = decoded {
            out.insert(key, eval);
        }
    }
    Ok(out)
}

/// Loads a cache file. A missing file is an empty cache; so is a
/// syntactically broken one (with a stderr warning) — a corrupt cache
/// must never fail the sweep it was meant to speed up, and the next save
/// rewrites it whole.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for unreadable files (permissions, IO).
pub fn load(path: &Path) -> Result<HashMap<CandidateKey, CachedEval>, Diagnostic> {
    match fs::read_to_string(path) {
        Ok(text) => match parse(&text) {
            Ok(entries) => Ok(entries),
            Err(diag) => {
                eprintln!(
                    "warning: ignoring corrupt result cache {}: {} (it will be rewritten on the \
                     next save)",
                    path.display(),
                    diag.message
                );
                Ok(HashMap::new())
            }
        },
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(HashMap::new()),
        Err(err) => Err(Diagnostic::error(format!("cannot read {}: {err}", path.display()))),
    }
}

/// The sibling temporary path [`super::shard::save_dir`] stages a shard
/// document in before the rename (same directory, so the rename stays
/// within one filesystem).
/// Unique per process *and* per call, so concurrent saves in one
/// process cannot interleave writes into a shared staging file.
pub(crate) fn staging_path(path: &Path) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("BENCH_cache.json");
    path.with_file_name(format!(
        ".{file}.tmp-{}-{}",
        std::process::id(),
        SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key(seed: u64) -> CandidateKey {
        CandidateKey {
            workload: Problem::parse("matmul 16x16x16").unwrap(),
            accel: Device::parse("v4_8").unwrap(),
            flow: Flow::parse("Cs").unwrap(),
            tile: (16, 8, 8),
            options: OptionsPoint::default(),
            seed,
        }
    }

    fn sample_eval() -> CachedEval {
        CachedEval {
            counters: PerfCounters {
                host_cycles: 123,
                device_cycles: 456,
                dma_transactions: 7,
                accel_macs: u64::MAX,
                ..PerfCounters::new()
            },
            task_clock_ms: 0.1 + 0.2, // deliberately non-representable
            verified: true,
            pass_ms: vec![("annotate".to_owned(), 0.5)],
        }
    }

    #[test]
    fn cache_round_trips_bit_identically() {
        let mut entries = HashMap::new();
        entries.insert(sample_key(7), sample_eval());
        entries.insert(sample_key(8), sample_eval());
        let parsed = parse(&render(&entries)).unwrap();
        assert_eq!(parsed.len(), 2);
        let back = &parsed[&sample_key(7)];
        assert_eq!(back.counters, sample_eval().counters, "counters are exact");
        assert_eq!(
            back.task_clock_ms.to_bits(),
            sample_eval().task_clock_ms.to_bits(),
            "floats survive shortest-roundtrip formatting"
        );
        assert!(back.verified);
        assert!(back.pass_ms.is_empty(), "wall-clock timings are not persisted");
    }

    #[test]
    fn render_is_deterministic_regardless_of_insertion_order() {
        let mut a = HashMap::new();
        a.insert(sample_key(1), sample_eval());
        a.insert(sample_key(2), sample_eval());
        let mut b = HashMap::new();
        b.insert(sample_key(2), sample_eval());
        b.insert(sample_key(1), sample_eval());
        assert_eq!(render(&a), render(&b));
    }

    #[test]
    fn foreign_schemas_and_broken_entries_parse_empty() {
        assert!(parse("{\"schema\": \"something-else/v9\", \"entries\": []}").unwrap().is_empty());
        assert!(parse("not json").is_err(), "parse itself still reports syntax errors");
        // Unparseable entries are skipped, not fatal.
        let text = "{\"schema\": \"axi4mlir-explore-cache/v2\", \"entries\": [ {\"key\": 5} ]}";
        assert!(parse(text).unwrap().is_empty());
        // A malformed member is a broken entry.
        let text = r#"{"schema": "axi4mlir-explore-cache/v2", "entries": [ {"key": {
            "workload": "matmul 8x8x8", "accel": "v4_8", "flow": "Ns",
            "tile": [8, 8, 8], "coalesce": false, "specialized_copies": true,
            "cache_tiling": "sideways", "cpu": "pynq_z2", "seed": 1},
            "counters": {}, "task_clock_ms": 1.0, "verified": true} ]}"#;
        assert!(parse(text).unwrap().is_empty());
        // So is an *absent* member: defaulting it would serve a foreign
        // measurement under the default-axes key.
        let text = r#"{"schema": "axi4mlir-explore-cache/v2", "entries": [ {"key": {
            "workload": "matmul 8x8x8", "accel": "v4_8", "flow": "Ns",
            "tile": [8, 8, 8], "coalesce": false, "specialized_copies": true,
            "seed": 1},
            "counters": {}, "task_clock_ms": 1.0, "verified": true} ]}"#;
        assert!(parse(text).unwrap().is_empty());
    }

    #[test]
    fn staging_paths_are_unique_per_call() {
        let path = Path::new("some/dir/BENCH_cache.json");
        let a = staging_path(path);
        let b = staging_path(path);
        assert_ne!(a, b, "concurrent saves must not share a staging file");
        assert_eq!(a.parent(), path.parent(), "staged in the same directory as the target");
        let name = a.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with(".BENCH_cache.json.tmp-"), "a dot-file `load_dir` skips: {name}");
    }
}
