//! Property-based tests of the persistent result cache: for *arbitrary*
//! candidate keys — hostile workload strings included, and every point
//! of the widened options axes (cache-tiling levels, named hosts) —
//! `load(render(x)) == x` must hold bit-exactly, and schema-`v1` documents
//! must migrate without losing a single entry or counter. (The write
//! path — `shard::save_dir` — has its own properties in
//! `shard_properties.rs`.)

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use axi4mlir_config::{CacheTiling, CpuModel};
use axi4mlir_core::explore::cache::{load, parse, render, CachedEval, CACHE_SCHEMA_V1};
use axi4mlir_core::explore::{CandidateKey, OptionsPoint};
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::json::JsonValue;

fn cache_tiling() -> impl Strategy<Value = CacheTiling> {
    prop_oneof![
        Just(CacheTiling::Off),
        Just(CacheTiling::Auto),
        (1i64..=4096).prop_map(CacheTiling::Fixed),
    ]
}

fn cpu_model() -> impl Strategy<Value = CpuModel> {
    prop_oneof![Just(CpuModel::PynqZ2), Just(CpuModel::Zcu102), Just(CpuModel::Desktop)]
}

fn options_point() -> impl Strategy<Value = OptionsPoint> {
    (any::<bool>(), any::<bool>(), cache_tiling(), cpu_model()).prop_map(
        |(coalesce, specialized_copies, cache_tiling, cpu)| OptionsPoint {
            coalesce,
            specialized_copies,
            cache_tiling,
            cpu,
        },
    )
}

/// Key strings: realistic labels and hostile ones (escapes, unicode,
/// empties) — the JSON layer must round-trip them all.
fn key_string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("matmul 16x16x16".to_owned()),
        Just("batched 8x8x8 x3".to_owned()),
        Just("conv 10_64_3_16_1".to_owned()),
        "[ -~]{0,24}", // printable ASCII incl. quotes/backslashes
        "\\PC{0,12}",  // arbitrary non-control unicode
    ]
}

fn candidate_key() -> impl Strategy<Value = CandidateKey> {
    (
        key_string(),
        key_string(),
        key_string(),
        (any::<i64>(), any::<i64>(), any::<i64>()),
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

fn counters() -> impl Strategy<Value = PerfCounters> {
    vec(any::<u64>(), 13).prop_map(|v| PerfCounters {
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
    })
}

/// Any finite task-clock, bit-pattern-arbitrary (subnormals included):
/// the shortest-roundtrip float formatting must preserve all of them.
/// Non-finite bit patterns have their exponent's top bit cleared, which
/// maps them onto finite values without biasing the rest.
fn task_clock() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            f
        } else {
            f64::from_bits(bits & !(1u64 << 62))
        }
    })
}

fn cached_eval() -> impl Strategy<Value = CachedEval> {
    (counters(), task_clock(), any::<bool>()).prop_map(|(counters, task_clock_ms, verified)| {
        CachedEval { counters, task_clock_ms, verified, pass_ms: Vec::new() }
    })
}

fn entries(max: usize) -> impl Strategy<Value = HashMap<CandidateKey, CachedEval>> {
    vec((candidate_key(), cached_eval()), 0..max).prop_map(|list| list.into_iter().collect())
}

/// The bit-exact equality the round-trip properties assert: `==` on
/// `CachedEval` compares floats by value, which conflates 0.0 and -0.0.
fn assert_same(
    a: &HashMap<CandidateKey, CachedEval>,
    b: &HashMap<CandidateKey, CachedEval>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (key, eval) in a {
        let other = b.get(key);
        prop_assert!(other.is_some(), "key lost in the round trip: {:?}", key);
        let other = other.unwrap();
        prop_assert_eq!(eval.counters, other.counters);
        prop_assert_eq!(eval.task_clock_ms.to_bits(), other.task_clock_ms.to_bits());
        prop_assert_eq!(eval.verified, other.verified);
        prop_assert!(other.pass_ms.is_empty(), "wall-clock timings are never persisted");
    }
    Ok(())
}

/// Renders one entry as a schema-`v1` document: the same members minus
/// the v2 `cache_tiling`/`cpu` keys (a v1 writer could not express them).
fn render_v1(entries: &HashMap<CandidateKey, CachedEval>) -> String {
    let doc = JsonValue::parse(&render(entries)).expect("v2 render parses");
    let rewritten: Vec<JsonValue> = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("entries array")
        .iter()
        .map(|entry| {
            let key = entry.get("key").and_then(JsonValue::as_object).expect("key object");
            let v1_key = JsonValue::object(
                key.iter()
                    .filter(|(name, _)| name != "cache_tiling" && name != "cpu")
                    .map(|(name, value)| (name.clone(), value.clone())),
            );
            JsonValue::object([
                ("key".to_owned(), v1_key),
                ("counters".to_owned(), entry.get("counters").expect("counters").clone()),
                (
                    "task_clock_ms".to_owned(),
                    entry.get("task_clock_ms").expect("task_clock_ms").clone(),
                ),
                ("verified".to_owned(), entry.get("verified").expect("verified").clone()),
            ])
        })
        .collect();
    let mut text = JsonValue::object([
        ("schema".to_owned(), CACHE_SCHEMA_V1.into()),
        ("entries".to_owned(), JsonValue::Array(rewritten)),
    ])
    .to_json_pretty();
    text.push('\n');
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// In-memory round trip over arbitrary keys: parse(render(x)) == x.
    #[test]
    fn render_parse_round_trips_arbitrary_keys(entries in entries(12)) {
        let parsed = parse(&render(&entries)).expect("rendered caches parse");
        assert_same(&entries, &parsed)?;
    }

    /// A v1 document carrying the same (default-axes) keys loads without
    /// data loss: every entry survives with its payload bit-identical and
    /// the migrated axes at the defaults v1 measured under.
    #[test]
    fn v1_documents_migrate_losslessly(raw in entries(8)) {
        // A v1 cache can only hold default-axes keys; two raw keys that
        // differ *only* in the new axes collapse to one v1 key, so
        // normalize first (keeping the deterministic winner).
        let mut v1_shaped: HashMap<CandidateKey, CachedEval> = HashMap::new();
        for (key, eval) in raw {
            let key = CandidateKey {
                options: OptionsPoint {
                    cache_tiling: CacheTiling::Auto,
                    cpu: CpuModel::PynqZ2,
                    ..key.options
                },
                ..key
            };
            v1_shaped.entry(key).or_insert(eval);
        }
        let migrated = parse(&render_v1(&v1_shaped)).expect("v1 caches parse");
        assert_same(&v1_shaped, &migrated)?;
        for key in migrated.keys() {
            prop_assert_eq!(key.options.cache_tiling, CacheTiling::Auto);
            prop_assert_eq!(key.options.cpu, CpuModel::PynqZ2);
        }
    }
}

proptest! {
    // Filesystem cases are slower; fewer of them still covers the
    // file-load path on arbitrary keys.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The document through a real file: load(write(render(x))) == x.
    #[test]
    fn load_save_round_trips_through_the_filesystem(entries in entries(6), tag in 0u64..u64::MAX) {
        let dir = std::env::temp_dir()
            .join(format!("axi4mlir-cache-prop-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_cache.json");
        std::fs::write(&path, render(&entries)).expect("write");
        let loaded = load(&path).expect("load");
        std::fs::remove_dir_all(&dir).ok();
        assert_same(&entries, &loaded)?;
    }
}
