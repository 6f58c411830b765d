#!/usr/bin/env bash
# Runs the full figure suite plus the design-space explorer, each writing
# its BENCH_*.json report into one directory.
#
# Usage: [HUB=1] [WORKERS=N] scripts/bench.sh [--quick] [OUT_DIR]
#   --quick   reduced sweep sizes (seconds instead of minutes)
#   OUT_DIR   where the reports land (default: bench-out)
#   HUB=1     additionally drive the explorer sweep through a freshly
#             started axi4mlir-hub daemon (sharing the same cache
#             directory, so it costs no extra simulations) and verify the hub-path
#             BENCH_explore.json is schema-identical to the local one
#   WORKERS=N spawn N axi4mlir-worker daemons and start the hub with
#             --worker flags pointing at them, so the hub-path sweep's
#             measurements run out-of-process (implies HUB=1)
#
# Where the numbers are checked
# ------------------------------
# The reports hold simulated counters (deterministic: pinned exactly by
# the goldens under crates/bench/tests/golden/) and one wall-clock
# member, `sims_per_sec` in the context block of BENCH_explore.json:
# full-fidelity simulations per second of in-simulator wall time (cache
# hits excluded, so reruns against a warm bench-cache/ may omit it).
# Wall-clock speed is measured by benchmark/ (see benchmark/README.md),
# per workload and per layer; the README's "Simulator performance model"
# section explains what keeps the hot path fast and which equivalence
# tests pin its accounting.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=()
OUT_DIR="bench-out"
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=(--quick) ;;
        --*) echo "bench.sh: unknown flag $arg" >&2; exit 2 ;;
        *) OUT_DIR="$arg" ;;
    esac
done
mkdir -p "$OUT_DIR"

echo "== building (release) =="
cargo build --release -p axi4mlir-bench

echo "== figure suite =="
for bin in table1 fig10 fig11 fig12 fig13 fig14 fig16 fig17; do
    echo "-- $bin --"
    cargo run --release -p axi4mlir-bench --bin "$bin" -- ${QUICK[@]+"${QUICK[@]}"} --json "$OUT_DIR"
done

echo "== design-space explorer =="
# The persistent result cache makes local reruns warm twice over:
# candidates measured by a previous sweep are loaded from the sharded
# bench-cache/ directory instead of re-simulated, and --warm-start fits
# the cross-problem transfer model from the same shards so even sweeps
# of NEW shapes start from calibrated rankings.
CACHE="$OUT_DIR/bench-cache"
if [ "${#QUICK[@]}" -gt 0 ]; then
    cargo run --release -p axi4mlir-bench --bin axi4mlir-explore -- --smoke --objectives clock,traffic --cache-dir "$CACHE" --warm-start --json "$OUT_DIR"
else
    cargo run --release -p axi4mlir-bench --bin axi4mlir-explore -- --objectives clock,traffic --cache-dir "$CACHE" --warm-start --json "$OUT_DIR"
fi

WORKERS="${WORKERS:-0}"
if [ "${HUB:-0}" = "1" ] || [ "$WORKERS" -gt 0 ]; then
    echo "== design-space explorer (through axi4mlir-hub, $WORKERS workers) =="
    cargo build --release -p axi4mlir-hub -p axi4mlir-worker
    source scripts/daemons.sh
    # WORKERS=N: spawn N measurement daemons and point the hub at them.
    WORKER_FLAGS=()
    WORKER_PIDS=()
    trap 'kill -TERM ${HUB_PID:-} ${WORKER_PIDS[@]+"${WORKER_PIDS[@]}"} 2>/dev/null || true' EXIT
    for _ in $(seq "$WORKERS"); do
        start_worker
        WORKER_PIDS+=("$WORKER_PID")
        WORKER_FLAGS+=(--worker "$WORKER_ADDR")
    done
    HUB_OUT=$(mktemp -d)
    # The daemon owns the same cache directory the local sweep just
    # saved, so the hub-path sweep is pure cache hits.
    start_hub --cache-dir "$CACHE" ${WORKER_FLAGS[@]+"${WORKER_FLAGS[@]}"}
    ADDR=$HUB_ADDR
    cargo run --release -p axi4mlir-bench --bin axi4mlir-explore -- \
        ${QUICK[@]+--smoke} --objectives clock,traffic --hub "$ADDR" --json "$HUB_OUT"
    kill -TERM "$HUB_PID"
    wait "$HUB_PID"
    for pid in ${WORKER_PIDS[@]+"${WORKER_PIDS[@]}"}; do
        kill -TERM "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    trap - EXIT
    # Schema identity: same report schema/name, same entry ids, same
    # metric members per entry, same pareto objectives. Context *values*
    # legitimately differ (e.g. sims_per_sec is absent on a pure
    # cache-hit sweep), so they are not compared.
    python3 - "$OUT_DIR/BENCH_explore.json" "$HUB_OUT/BENCH_explore.json" <<'PYEOF'
import json, sys
def shape(path):
    with open(path) as f:
        r = json.load(f)
    return {
        "schema": r["schema"],
        "name": r["name"],
        "entries": [(e["id"], sorted(e["metrics"])) for e in r["entries"]],
        "pareto_objectives": r.get("pareto", {}).get("objectives"),
    }
local_shape, hub_shape = shape(sys.argv[1]), shape(sys.argv[2])
if local_shape != hub_shape:
    sys.exit(f"hub-path report diverges from the local path:\n"
             f"  local: {local_shape}\n  hub:   {hub_shape}")
print("hub-path BENCH_explore.json is schema-identical to the local path")
PYEOF
fi

if command -v python3 >/dev/null 2>&1; then
    echo "== pareto plot =="
    python3 scripts/plot_pareto.py "$OUT_DIR/BENCH_explore.json" -o "$OUT_DIR/pareto.svg" || true
fi
echo "== reports =="
ls "$OUT_DIR"/BENCH_*.json
