//! Property-based tests of the sharded result cache: the shard merge
//! must be a commutative, idempotent union over *arbitrary* entry maps
//! (hostile workload strings included), `load_dir(save_dir(x))` must be
//! the identity per shard, and a legacy single-file `BENCH_cache.json`
//! (schema v2) dropped into a cache directory must migrate into the
//! sharded layout without losing a single entry or counter bit. The
//! plain tests at the end pin what a save does to the file already on
//! disk: merge with it, survive a crash beside it, replace it when it is
//! corrupt.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use proptest::collection::vec;
use proptest::prelude::*;

use axi4mlir_config::{CacheTiling, CpuModel};
use axi4mlir_core::explore::cache::{self, CachedEval};
use axi4mlir_core::explore::shard::{
    load_dir, merge, save_dir, shard_counts, shard_name, shard_of, shard_path,
};
use axi4mlir_core::explore::{CandidateKey, OptionsPoint};
use axi4mlir_sim::counters::PerfCounters;

fn options_point() -> impl Strategy<Value = OptionsPoint> {
    let cache_tiling = prop_oneof![
        Just(CacheTiling::Off),
        Just(CacheTiling::Auto),
        (1i64..=4096).prop_map(CacheTiling::Fixed),
    ];
    let cpu = prop_oneof![Just(CpuModel::PynqZ2), Just(CpuModel::Zcu102), Just(CpuModel::Desktop)];
    (any::<bool>(), any::<bool>(), cache_tiling, cpu).prop_map(
        |(coalesce, specialized_copies, cache_tiling, cpu)| OptionsPoint {
            coalesce,
            specialized_copies,
            cache_tiling,
            cpu,
        },
    )
}

/// Workload strings steer sharding, so bias toward a few realistic
/// labels (entries sharing shards exercise the merge) plus hostile ones.
fn workload_string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("matmul 16x16x16".to_owned()),
        Just("matmul 64x64x64".to_owned()),
        Just("batched 8x8x8 x3".to_owned()),
        Just("conv 10_64_3_16_1".to_owned()),
        "[ -~]{0,24}", // printable ASCII incl. quotes/backslashes
        "\\PC{0,12}",  // arbitrary non-control unicode
    ]
}

fn candidate_key() -> impl Strategy<Value = CandidateKey> {
    (
        workload_string(),
        "[a-z0-9_]{1,8}",
        "[A-Z][a-z]{0,3}",
        (1i64..64, 1i64..64, 1i64..64),
        options_point(),
        any::<u64>(),
    )
        .prop_map(|(workload, accel, flow, tile, options, seed)| CandidateKey {
            workload,
            accel,
            flow,
            tile,
            options,
            seed,
        })
}

fn cached_eval() -> impl Strategy<Value = CachedEval> {
    (vec(any::<u64>(), 13), any::<u64>(), any::<bool>()).prop_map(|(v, clock_bits, verified)| {
        let f = f64::from_bits(clock_bits);
        let task_clock_ms =
            if f.is_finite() { f } else { f64::from_bits(clock_bits & !(1u64 << 62)) };
        CachedEval {
            counters: PerfCounters {
                host_cycles: v[0],
                device_cycles: v[1],
                cache_references: v[2],
                l1_misses: v[3],
                l2_misses: v[4],
                branch_instructions: v[5],
                instructions: v[6],
                uncached_accesses: v[7],
                dma_bytes_to_accel: v[8],
                dma_bytes_from_accel: v[9],
                dma_transactions: v[10],
                accel_compute_cycles: v[11],
                accel_macs: v[12],
            },
            task_clock_ms,
            verified,
            pass_ms: Vec::new(),
        }
    })
}

fn entries(max: usize) -> impl Strategy<Value = HashMap<CandidateKey, CachedEval>> {
    vec((candidate_key(), cached_eval()), 0..max).prop_map(|list| list.into_iter().collect())
}

/// Bit-exact map equality (`==` on floats conflates 0.0 and -0.0).
fn assert_same(
    a: &HashMap<CandidateKey, CachedEval>,
    b: &HashMap<CandidateKey, CachedEval>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (key, eval) in a {
        let other = b.get(key);
        prop_assert!(other.is_some(), "key lost: {:?}", key);
        let other = other.unwrap();
        prop_assert_eq!(eval.counters, other.counters);
        prop_assert_eq!(eval.task_clock_ms.to_bits(), other.task_clock_ms.to_bits());
        prop_assert_eq!(eval.verified, other.verified);
    }
    Ok(())
}

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
        assert_same(&entries, &loaded.entries)?;
        prop_assert!(loaded.dirty.is_empty(), "a fresh sharded layout is clean");
        prop_assert!(loaded.legacy.is_empty());
        // Per-shard accounting agrees with the in-memory partition.
        let expected = shard_counts(&entries);
        let observed = shard_counts(&loaded.entries);
        prop_assert_eq!(expected, observed);
    }

    /// A legacy single-file `BENCH_cache.json` (schema v2, the PR-4
    /// layout) dropped into the cache directory migrates losslessly:
    /// every entry is loaded, its shards are marked dirty, and one
    /// save later the directory is pure sharded layout holding the
    /// same bits.
    #[test]
    fn legacy_v2_blobs_migrate_losslessly(entries in entries(8), tag in 0u64..u64::MAX) {
        let dir = scratch_dir(tag, "legacy");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_cache.json"), cache::render(&entries)).expect("legacy blob");

        let loaded = load_dir(&dir).expect("load_dir");
        assert_same(&entries, &loaded.entries)?;
        let expected_dirty: BTreeSet<String> = entries.keys().map(shard_of).collect();
        prop_assert_eq!(&loaded.dirty, &expected_dirty, "migrated shards must be rewritten");
        if !entries.is_empty() {
            prop_assert_eq!(loaded.legacy.len(), 1, "the blob is scheduled for cleanup");
        }

        // Re-persist sharded, drop the blob (as Explorer::save_cache_dir
        // does), and confirm nothing was lost in migration.
        save_dir(&dir, &loaded.entries, &loaded.dirty).expect("migrating save");
        for blob in &loaded.legacy {
            std::fs::remove_file(blob).ok();
        }
        let migrated = load_dir(&dir).expect("reload");
        std::fs::remove_dir_all(&dir).ok();
        assert_same(&entries, &migrated.entries)?;
        prop_assert!(migrated.legacy.is_empty(), "no legacy blobs remain");
    }
}

const WORKLOAD: &str = "matmul 8x8x8";

/// One entry of [`WORKLOAD`]'s shard, told apart by `seed`.
fn one_entry(seed: u64) -> HashMap<CandidateKey, CachedEval> {
    let key = CandidateKey {
        workload: WORKLOAD.to_owned(),
        accel: "v4_8".to_owned(),
        flow: "Cs".to_owned(),
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
    assert_eq!(load_dir(&dir).unwrap().entries, merge(&first, &second), "old entries survive");
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
    assert_eq!(load_dir(&dir).unwrap().entries, first, "old contents intact after the crash");

    // A later save still merges and completes the rename.
    save_all(&dir, &one_entry(2));
    assert_eq!(load_dir(&dir).unwrap().entries.len(), 2);
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
    assert!(load_dir(&dir).unwrap().entries.is_empty(), "corrupt shards are disposable");
    // ...and the next save replaces it with a valid document.
    let entries = one_entry(1);
    save_all(&dir, &entries);
    assert_eq!(load_dir(&dir).unwrap().entries, entries);
    std::fs::remove_dir_all(&dir).ok();
}
