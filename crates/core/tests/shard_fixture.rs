//! A shard directory written by the *parent* commit's
//! `axi4mlir-explore --smoke [--workload conv] --cache-dir` (before the
//! key became typed) is this commit's native format: it loads, re-saves
//! with every shard dirty to byte-identical files under identical names,
//! and serves the same two sweeps without a single new simulation.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use axi4mlir_core::explore::shard::{load_dir, save_dir, shard_of};
use axi4mlir_core::explore::{Explorer, JobSpec};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_shards")
}

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn a_parent_written_directory_resaves_byte_identically() {
    let entries = load_dir(&fixture()).unwrap();
    assert_eq!(entries.len(), 32 + 4, "every parent-written entry decodes");
    let dirty: BTreeSet<String> = entries.keys().map(shard_of).collect();
    assert_eq!(dirty.len(), 2);

    let out = std::env::temp_dir().join(format!("axi4mlir-shard-fixture-{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();
    let stats = save_dir(&out, &entries, &dirty).unwrap();
    assert_eq!(stats.written.len(), 2);
    let (theirs, ours) = (files(&fixture()), files(&out));
    std::fs::remove_dir_all(&out).ok();
    assert_eq!(ours.keys().collect::<Vec<_>>(), theirs.keys().collect::<Vec<_>>(), "shard names");
    for (name, bytes) in &theirs {
        assert!(ours[name] == *bytes, "{name} re-saved with different bytes");
    }
}

#[test]
fn a_parent_written_directory_serves_the_smoke_sweeps_from_cache() {
    let explorer = Explorer::with_cache_dir(&fixture()).unwrap();
    let matmul =
        JobSpec { dims: Some((16, 16, 16)), accels: vec!["v4_8".to_owned()], ..JobSpec::default() };
    let conv = JobSpec {
        workload: "conv".to_owned(),
        layer: Some("10_64_3_16_1".to_owned()),
        ..JobSpec::default()
    };
    for (job, measured) in [(matmul, 32), (conv, 4)] {
        let request = job.build().unwrap();
        let report = explorer
            .explore_streaming(
                request.space.as_dyn(),
                request.prune,
                &request.search,
                2,
                &request.objectives,
                &|_| true,
            )
            .unwrap();
        assert_eq!(report.evaluations.len(), measured);
        assert_eq!(report.sims_performed, 0, "{} re-simulated", report.space);
        assert_eq!(report.cache_hits, measured);
    }
    assert_eq!(explorer.evals_performed(), 0);
}
