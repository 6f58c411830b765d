//! Property-based tests of the sharded result cache: the shard merge
//! must be a commutative, idempotent union over *arbitrary* entry maps
//! of typed keys, `load_dir(save_dir(x))` must be the identity per
//! shard, and a file in the directory that is not one of the layout's
//! shards must load without ever being rewritten or removed. The plain
//! tests at the end pin what a save does to the file already on disk:
//! merge with it, survive a crash beside it, replace it when it is
//! corrupt.

mod common;

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use proptest::prelude::*;

use axi4mlir_core::explore::cache::{self, CachedEval};
use axi4mlir_core::explore::shard::{
    load_dir, merge, save_dir, shard_counts, shard_name, shard_of, shard_path,
};
use axi4mlir_core::explore::{CandidateKey, Device, Flow, OptionsPoint, Problem};
use axi4mlir_sim::counters::PerfCounters;
use common::{assert_same, entries};

fn scratch_dir(tag: u64, what: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("axi4mlir-shard-prop-{what}-{}-{tag}", std::process::id()))
}

fn save_all(dir: &Path, entries: &HashMap<CandidateKey, CachedEval>) {
    let dirty: BTreeSet<String> = entries.keys().map(shard_of).collect();
    save_dir(dir, entries, &dirty).expect("save_dir");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(a, b) == merge(b, a): order-invariance is what lets N
    /// workers or CI runs combine caches without a coordinator.
    #[test]
    fn merge_is_commutative(a in entries(10), b in entries(10)) {
        assert_same(&merge(&a, &b), &merge(&b, &a))?;
    }

    /// merge(a, a) == a, and merging is a union that loses no key.
    #[test]
    fn merge_is_idempotent_and_total(a in entries(10), b in entries(10)) {
        assert_same(&merge(&a, &a), &a)?;
        let merged = merge(&a, &b);
        for key in a.keys().chain(b.keys()) {
            prop_assert!(merged.contains_key(key), "union lost {:?}", key);
        }
        // Every merged payload came verbatim from one side.
        for (key, eval) in &merged {
            let from_a = a.get(key).is_some_and(|e| {
                e.counters == eval.counters
                    && e.task_clock_ms.to_bits() == eval.task_clock_ms.to_bits()
                    && e.verified == eval.verified
            });
            let from_b = b.get(key).is_some_and(|e| {
                e.counters == eval.counters
                    && e.task_clock_ms.to_bits() == eval.task_clock_ms.to_bits()
                    && e.verified == eval.verified
            });
            prop_assert!(from_a || from_b, "merge invented a payload for {:?}", key);
        }
    }
}

proptest! {
    // Filesystem cases are slower; fewer of them still covers the
    // sharded save/load path on arbitrary keys.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// load_dir(save_dir(x)) == x, shard by shard.
    #[test]
    fn save_load_round_trips_through_a_shard_directory(
        entries in entries(8),
        tag in 0u64..u64::MAX,
    ) {
        let dir = scratch_dir(tag, "roundtrip");
        save_all(&dir, &entries);
        let loaded = load_dir(&dir).expect("load_dir");
        std::fs::remove_dir_all(&dir).ok();
        assert_same(&entries, &loaded)?;
        // Per-shard accounting agrees with the in-memory partition.
        prop_assert_eq!(shard_counts(&entries), shard_counts(&loaded));
    }

    /// A file that is not one of the layout's shards (a document holding
    /// every workload at once, copied in by hand) still loads — and a
    /// save of every shard neither rewrites nor removes it.
    #[test]
    fn foreign_documents_load_and_are_left_alone(entries in entries(8), tag in 0u64..u64::MAX) {
        let dir = scratch_dir(tag, "foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let blob = dir.join("BENCH_cache.json");
        std::fs::write(&blob, cache::render(&entries)).expect("foreign blob");

        let loaded = load_dir(&dir).expect("load_dir");
        assert_same(&entries, &loaded)?;
        save_all(&dir, &loaded);
        let after = std::fs::read_to_string(&blob);
        let reloaded = load_dir(&dir).expect("reload");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(after.ok(), Some(cache::render(&entries)), "the blob is untouched");
        assert_same(&entries, &reloaded)?;
    }
}

const WORKLOAD: &str = "matmul 8x8x8";

/// One entry of [`WORKLOAD`]'s shard, told apart by `seed`.
fn one_entry(seed: u64) -> HashMap<CandidateKey, CachedEval> {
    let key = CandidateKey {
        workload: Problem::parse(WORKLOAD).unwrap(),
        accel: Device::parse("v4_8").unwrap(),
        flow: Flow::parse("Cs").unwrap(),
        tile: (8, 8, 8),
        options: OptionsPoint::default(),
        seed,
    };
    let eval = CachedEval {
        counters: PerfCounters { host_cycles: seed, ..PerfCounters::new() },
        task_clock_ms: seed as f64,
        verified: true,
        pass_ms: Vec::new(),
    };
    [(key, eval)].into()
}

fn fresh_dir(what: &str) -> std::path::PathBuf {
    let dir = scratch_dir(0, what);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn save_merges_with_the_shard_on_disk() {
    let dir = fresh_dir("merge");
    let first = one_entry(1);
    save_all(&dir, &first);
    // A second saver that never saw the first one's entry.
    let second = one_entry(2);
    save_all(&dir, &second);
    assert_eq!(load_dir(&dir).unwrap(), merge(&first, &second), "old entries survive");
    let leftovers = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
        .count();
    assert_eq!(leftovers, 0, "no staging file left behind");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crash_mid_save_leaves_the_old_shard_loadable() {
    let dir = fresh_dir("crash");
    let first = one_entry(1);
    save_all(&dir, &first);

    // Model a process killed mid-save: the staging file (a dot-file
    // sibling of the shard, `.<shard>.json.tmp-<pid>-<seq>`) holds a
    // half-written document, the rename never happened. The real shard
    // is untouched and still loads, and the leftover bothers nobody.
    let staging = dir.join(format!(".{}.json.tmp-4242-0", shard_name(WORKLOAD)));
    std::fs::write(staging, "{\"schema\": \"axi4mlir-explore-c").unwrap();
    assert_eq!(load_dir(&dir).unwrap(), first, "old contents intact after the crash");

    // A later save still merges and completes the rename.
    save_all(&dir, &one_entry(2));
    assert_eq!(load_dir(&dir).unwrap().len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_shards_load_empty_and_are_rewritten_by_save() {
    let dir = fresh_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    // A truncated document (the non-atomic failure mode) must not error
    // the sweep: it loads as an empty cache...
    let shard = shard_path(&dir, &shard_name(WORKLOAD));
    std::fs::write(shard, "{\"schema\": \"axi4mlir-explore-cache/v2\", \"entr").unwrap();
    assert!(load_dir(&dir).unwrap().is_empty(), "corrupt shards are disposable");
    // ...and the next save replaces it with a valid document.
    let entries = one_entry(1);
    save_all(&dir, &entries);
    assert_eq!(load_dir(&dir).unwrap(), entries);
    std::fs::remove_dir_all(&dir).ok();
}
