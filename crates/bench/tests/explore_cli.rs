//! Drives the real `axi4mlir-explore` binary through its persistence
//! flags: the sharded `--cache-dir` is the only cache form, and
//! `--warm-start DIR` reads any such directory.

use std::path::Path;
use std::process::{Command, Output};

fn explore(scratch: &Path, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_axi4mlir-explore"))
        .args(flags)
        .arg("--json")
        .arg(scratch)
        .current_dir(scratch)
        .output()
        .expect("run axi4mlir-explore")
}

/// Regression: an explicit `--warm-start DIR` that was not also the
/// `--cache-dir` went through the single-file loader and died with
/// `cannot read DIR: Is a directory`.
#[test]
fn warm_start_reads_a_cache_directory_other_than_the_cache_dir() {
    let scratch = std::env::temp_dir().join(format!("axi4mlir-cli-warm-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();

    let donor = explore(&scratch, &["--smoke", "--cache-dir", "donor"]);
    assert!(donor.status.success(), "{}", String::from_utf8_lossy(&donor.stderr));
    assert!(scratch.join("donor").is_dir(), "the donor sweep persisted a shard directory");

    let warm = explore(
        &scratch,
        &["--smoke", "--dims", "32x16x16", "--search", "halving", "--warm-start", "donor"],
    );
    let (stdout, stderr) =
        (String::from_utf8_lossy(&warm.stdout), String::from_utf8_lossy(&warm.stderr));
    assert!(warm.status.success(), "the warm-started sweep must run: {stderr}");
    assert!(stdout.contains("observations fitted from donor"), "{stdout}");
    assert!(stdout.contains("warm start: the transfer model was informed"), "{stdout}");
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn the_removed_cache_flag_points_at_cache_dir() {
    let scratch = std::env::temp_dir().join(format!("axi4mlir-cli-flag-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let out = explore(&scratch, &["--smoke", "--cache", "BENCH_cache.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("unknown flag `--cache`"), "{stderr}");
    assert!(stderr.contains("--cache-dir"), "the known flags name its successor: {stderr}");
    assert!(!scratch.join("BENCH_explore.json").exists(), "nothing ran");
    std::fs::remove_dir_all(&scratch).ok();
}

/// Regression: the figure binaries scanned argv for `--quick` and
/// ignored everything else, so `fig10 --quik` silently ran the
/// minutes-long full-scale sweep.
/// Every binary now rejects an unknown flag with its usage text, before
/// doing any work.
#[test]
fn a_typoed_flag_is_rejected_with_the_usage_text() {
    for (bin, typo, usage) in [
        (env!("CARGO_BIN_EXE_fig10"), "--quik", "usage: fig10 [--quick] [--json [DIR]]"),
        (env!("CARGO_BIN_EXE_all_figures"), "--jsno", "usage: all_figures [--quick]"),
        (env!("CARGO_BIN_EXE_table1"), "--jsno", "usage: table1 [--json [DIR]]"),
    ] {
        let out = Command::new(bin).arg(typo).output().expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} {typo} must fail");
        assert!(stderr.contains(&format!("unknown flag `{typo}`")), "{bin}: {stderr}");
        assert!(stderr.contains(usage), "{bin}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{bin} did no work: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
