//! The sharded, mergeable cache layout (`BENCH_cache/<shard>.json`) —
//! the one persisted form of the result cache, and the only code that
//! writes it.
//!
//! A single blob stops scaling once many workers and CI runs append to
//! it: every rung checkpoint rewrites every entry ever measured, and
//! two writers cannot combine results without replaying each other's
//! saves. This module splits the cache by *workload/shape signature*
//! instead: every [`CandidateKey`] belongs to exactly one shard, named
//! after its rendered `workload` (`matmul 16x16x16` and its proxies
//! `matmul 8x8x8`, … land in different shards, which is what makes rung
//! checkpoints cheap — a rung touches one fidelity's shards only). Each
//! shard file is an ordinary [`super::cache`] document (corrupt-tolerant
//! loads), written atomically: [`save_dir`] stages the
//! merged shard in a sibling temporary file and renames it into place,
//! so a crash mid-save leaves the old shard intact rather than a
//! truncated JSON file.
//!
//! Entries are content-addressed by their [`CandidateKey`] — a key fully
//! determines its measurement, so combining caches is a plain union. The
//! [`merge`] is *commutative and idempotent* over persisted payloads:
//! `merge(a, b) == merge(b, a)` and `merge(a, a) == a`, with a
//! deterministic total order breaking the (corruption-only) case of two
//! caches disagreeing about one key. N workers or N CI runs can
//! therefore combine shard directories in any order without a
//! coordinator and converge on the same bytes.
//!
//! [`load_dir`] reads every `*.json` file in the directory, whatever its
//! name: a file that is not one of this layout's shards (copied in by
//! hand) still contributes its entries in memory. It is never rewritten
//! or removed — [`save_dir`] writes shard files only.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

use axi4mlir_support::diag::Diagnostic;

use super::cache::{self, CachedEval};
use super::space::CandidateKey;

/// Per-shard entry cap: a save that would exceed it compacts the shard
/// first, keeping the newest (highest) seed per seed-less configuration.
const SHARD_CAP: usize = 1024;

/// The shard a workload signature belongs to: a filesystem-safe slug of
/// the workload string plus a 32-bit FNV-1a tag of the *exact* string,
/// so two workloads that sanitize identically still shard apart.
pub fn shard_name(workload: &str) -> String {
    let mut slug = String::new();
    for ch in workload.chars() {
        if ch.is_ascii_alphanumeric() || matches!(ch, '.' | '-') {
            slug.push(ch.to_ascii_lowercase());
        } else if !slug.ends_with('_') {
            slug.push('_');
        }
    }
    let slug = slug.trim_matches('_');
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in workload.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let slug = if slug.is_empty() { "shard" } else { slug };
    format!("{slug}-{:08x}", hash & 0xffff_ffff)
}

/// The shard `key` belongs to.
pub fn shard_of(key: &CandidateKey) -> String {
    shard_name(&key.workload.to_string())
}

/// The file a shard lives in.
pub fn shard_path(dir: &Path, shard: &str) -> PathBuf {
    dir.join(format!("{shard}.json"))
}

/// Combines two caches: a union of entries, with the deterministic
/// payload order of [`cache`] breaking the (corruption-only) case of two
/// caches holding different payloads for one key. Commutative and
/// idempotent over persisted payloads — wall-clock pass timings are
/// never persisted and are excluded from the payload identity.
pub fn merge(
    a: &HashMap<CandidateKey, CachedEval>,
    b: &HashMap<CandidateKey, CachedEval>,
) -> HashMap<CandidateKey, CachedEval> {
    let mut out = a.clone();
    merge_into(&mut out, b);
    out
}

/// [`merge`] in place: folds `fresh` into `out`, copying only the entries
/// that win.
fn merge_into<'a>(
    out: &mut HashMap<CandidateKey, CachedEval>,
    fresh: impl IntoIterator<Item = (&'a CandidateKey, &'a CachedEval)>,
) {
    for (key, theirs) in fresh {
        match out.get(key) {
            Some(ours) if cache::payload_rank(ours) <= cache::payload_rank(theirs) => {}
            _ => {
                out.insert(*key, theirs.clone());
            }
        }
    }
}

/// Entry counts per shard, in shard order.
pub fn shard_counts(entries: &HashMap<CandidateKey, CachedEval>) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for key in entries.keys() {
        *counts.entry(shard_of(key)).or_insert(0) += 1;
    }
    counts
}

/// Loads a shard directory: every `*.json` file in it, through the
/// tolerant [`cache::load`], merged. A missing directory is an empty
/// cache.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for unreadable directories or files.
pub fn load_dir(dir: &Path) -> Result<HashMap<CandidateKey, CachedEval>, Diagnostic> {
    let mut entries = HashMap::new();
    let reader = match fs::read_dir(dir) {
        Ok(reader) => reader,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(entries),
        Err(err) => return Err(Diagnostic::error(format!("cannot read {}: {err}", dir.display()))),
    };
    let mut files: Vec<PathBuf> = reader
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("json"))
        .filter(|path| {
            // Skip staging leftovers from interrupted saves.
            !path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with('.'))
        })
        .collect();
    files.sort();
    for path in files {
        entries = merge(&entries, &cache::load(&path)?);
    }
    Ok(entries)
}

/// What one [`save_dir`] actually touched.
#[derive(Debug, Default)]
pub struct SaveStats {
    /// Shards written this save (the dirty ones), in shard order.
    pub written: Vec<String>,
    /// Shards left untouched because nothing in them changed.
    pub skipped: usize,
    /// Total in-memory entries at save time.
    pub entries: usize,
    /// Entries dropped by per-shard compaction.
    pub compacted: usize,
}

/// Compaction: keep, for every seed-less configuration, only the entry
/// with the newest (highest) seed.
fn compact(entries: HashMap<CandidateKey, CachedEval>) -> HashMap<CandidateKey, CachedEval> {
    let mut newest: HashMap<CandidateKey, u64> = HashMap::new();
    for key in entries.keys() {
        let base = CandidateKey { seed: 0, ..*key };
        let best = newest.entry(base).or_insert(key.seed);
        *best = (*best).max(key.seed);
    }
    entries
        .into_iter()
        .filter(|(key, _)| newest[&CandidateKey { seed: 0, ..*key }] == key.seed)
        .collect()
}

/// Writes the *dirty* shards of `entries` into `dir`, merging each with
/// whatever its file already holds; clean shards are skipped entirely —
/// this is what makes rung-boundary checkpoints cheap. A merged shard
/// exceeding `SHARD_CAP` is compacted first (newest seed per
/// configuration wins), with a stderr note. Each shard write is atomic:
/// the merged document goes to a staging file in the same directory and
/// is renamed over the shard, so a process killed mid-save leaves the
/// previous shard loadable. The load/merge/rename *sequence* is not
/// atomic — two processes saving one shard concurrently can each miss
/// the other's additions — which a cache tolerates: a lost entry is
/// simply re-measured later.
///
/// # Errors
///
/// Propagates filesystem errors as [`Diagnostic`]s — including an
/// *unreadable* existing shard (overwriting it would silently discard
/// every accumulated entry; corrupt shards have already warned inside
/// [`cache::load`] and are deliberately rewritten).
pub fn save_dir(
    dir: &Path,
    entries: &HashMap<CandidateKey, CachedEval>,
    dirty: &BTreeSet<String>,
) -> Result<SaveStats, Diagnostic> {
    let mut by_shard: BTreeMap<String, Vec<(&CandidateKey, &CachedEval)>> = BTreeMap::new();
    for entry in entries {
        by_shard.entry(shard_of(entry.0)).or_default().push(entry);
    }
    let mut stats = SaveStats { entries: entries.len(), ..SaveStats::default() };
    if dirty.is_empty() {
        stats.skipped = by_shard.len();
        return Ok(stats);
    }
    fs::create_dir_all(dir)
        .map_err(|err| Diagnostic::error(format!("cannot create {}: {err}", dir.display())))?;
    for (shard, fresh) in &by_shard {
        if !dirty.contains(shard) {
            stats.skipped += 1;
            continue;
        }
        let path = shard_path(dir, shard);
        let mut merged = cache::load(&path)?;
        merge_into(&mut merged, fresh.iter().copied());
        if merged.len() > SHARD_CAP {
            let before = merged.len();
            merged = compact(merged);
            stats.compacted += before - merged.len();
            if merged.len() < before {
                eprintln!(
                    "cache: compacted shard {shard}: {before} -> {} entries (kept the newest \
                     seed per configuration)",
                    merged.len()
                );
            }
        }
        let staging = cache::staging_path(&path);
        fs::write(&staging, cache::render(&merged)).map_err(|err| {
            Diagnostic::error(format!("cannot write {}: {err}", staging.display()))
        })?;
        if let Err(err) = fs::rename(&staging, &path) {
            fs::remove_file(&staging).ok();
            return Err(Diagnostic::error(format!(
                "cannot move {} into {}: {err}",
                staging.display(),
                path.display()
            )));
        }
        stats.written.push(shard.clone());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::space::{Device, Flow, OptionsPoint, Problem};
    use axi4mlir_sim::counters::PerfCounters;

    fn key(workload: &str, seed: u64) -> CandidateKey {
        CandidateKey {
            workload: Problem::parse(workload).unwrap(),
            accel: Device::parse("v4_8").unwrap(),
            flow: Flow::parse("Cs").unwrap(),
            tile: (8, 8, 8),
            options: OptionsPoint::default(),
            seed,
        }
    }

    fn eval(clock: f64) -> CachedEval {
        CachedEval {
            counters: PerfCounters { host_cycles: 9, ..PerfCounters::new() },
            task_clock_ms: clock,
            verified: true,
            pass_ms: Vec::new(),
        }
    }

    #[test]
    fn shard_names_are_filesystem_safe_and_collision_tagged() {
        let a = shard_name("matmul 16x16x16");
        assert!(a.starts_with("matmul_16x16x16-"), "{a}");
        assert!(a.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')));
        // Same slug, different exact string: the FNV tag keeps them apart.
        assert_ne!(shard_name("matmul 8x8x8"), shard_name("matmul 8X8x8"));
        // Deterministic.
        assert_eq!(a, shard_name("matmul 16x16x16"));
        assert!(shard_name("///").starts_with("shard-"));
    }

    #[test]
    fn merge_is_commutative_idempotent_and_a_union() {
        let mut a = HashMap::new();
        a.insert(key("matmul 8x8x8", 1), eval(1.0));
        let mut b = HashMap::new();
        b.insert(key("matmul 8x8x8", 2), eval(2.0));
        b.insert(key("matmul 16x16x16", 1), eval(3.0));
        let ab = merge(&a, &b);
        assert_eq!(ab.len(), 3);
        assert_eq!(ab, merge(&b, &a));
        assert_eq!(merge(&a, &a), a);
        // Conflicting payloads (corruption-only) resolve deterministically.
        let mut c = a.clone();
        c.insert(key("matmul 8x8x8", 1), eval(0.5));
        assert_eq!(merge(&a, &c), merge(&c, &a));
    }

    #[test]
    fn save_writes_only_dirty_shards_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("axi4mlir-shard-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut entries = HashMap::new();
        entries.insert(key("matmul 8x8x8", 1), eval(1.0));
        entries.insert(key("matmul 16x16x16", 1), eval(2.0));
        let all: BTreeSet<String> = entries.keys().map(shard_of).collect();
        let stats = save_dir(&dir, &entries, &all).unwrap();
        assert_eq!(stats.written.len(), 2);
        assert_eq!(stats.skipped, 0);
        assert_eq!(load_dir(&dir).unwrap(), entries);

        // A second save with one dirty shard touches exactly one file.
        let dirty: BTreeSet<String> = [shard_name("matmul 8x8x8")].into();
        entries.insert(key("matmul 8x8x8", 2), eval(1.5));
        let stats = save_dir(&dir, &entries, &dirty).unwrap();
        assert_eq!(stats.written, vec![shard_name("matmul 8x8x8")]);
        assert_eq!(stats.skipped, 1);
        assert_eq!(load_dir(&dir).unwrap(), entries);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_shards_compact_to_the_newest_seed() {
        let dir =
            std::env::temp_dir().join(format!("axi4mlir-shard-compact-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // SHARD_CAP+1 seeds of one configuration: compaction keeps the max.
        let mut entries = HashMap::new();
        for seed in 1..=(SHARD_CAP as u64 + 1) {
            entries.insert(key("matmul 8x8x8", seed), eval(seed as f64));
        }
        let dirty: BTreeSet<String> = [shard_name("matmul 8x8x8")].into();
        let stats = save_dir(&dir, &entries, &dirty).unwrap();
        assert_eq!(stats.compacted, SHARD_CAP);
        let back = load_dir(&dir).unwrap();
        assert_eq!(back.len(), 1);
        assert!(back.contains_key(&key("matmul 8x8x8", SHARD_CAP as u64 + 1)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
