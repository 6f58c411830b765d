#!/usr/bin/env bash
# Build, unit tests, smoke (three ops of every workload, all checks on) and
# the determinism check. Run from anywhere; everything it writes lands in
# this directory's target/ and out/ (or in CARGO_TARGET_DIR when set).
set -euo pipefail

manifest="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/Cargo.toml"
cargo_run=(cargo run --release --offline --quiet --manifest-path "$manifest" --)

cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --quiet --manifest-path "$manifest"
"${cargo_run[@]}" --smoke
"${cargo_run[@]}" --check-determinism
echo "benchmark/check.sh: ok"
