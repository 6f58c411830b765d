//! Property-based tests of the persistent result cache: for *arbitrary*
//! typed candidate keys — every problem kind, accelerator instance and
//! flow, and every point of the widened options axes (cache-tiling
//! levels, named hosts) — `load(render(x)) == x` must hold bit-exactly.
//! (Hostile strings are the JSON layer's business:
//! `support/tests/json_properties.rs`. The write path —
//! `shard::save_dir` — has its own properties in `shard_properties.rs`.)

mod common;

use proptest::prelude::*;

use axi4mlir_core::explore::cache::{load, parse, render};
use common::{assert_same, entries};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// In-memory round trip over arbitrary keys: parse(render(x)) == x.
    #[test]
    fn render_parse_round_trips_arbitrary_keys(entries in entries(12)) {
        let parsed = parse(&render(&entries)).expect("rendered caches parse");
        assert_same(&entries, &parsed)?;
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
