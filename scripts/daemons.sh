#!/usr/bin/env bash
# Start-and-wait helpers for the two daemons, sourced by scripts/bench.sh
# and the distributed-smoke / chaos-smoke CI jobs. Both binaries print
# `<name> listening on ADDR` once bound (`--bind 127.0.0.1:0` picks a
# free port); these functions start a release binary in the background,
# wait for that line, and report the address through variables — not
# stdout, so the caller keeps the PID too.
#
#   start_worker [FAULTS]   sets WORKER_ADDR, WORKER_PID
#   start_hub ARGS...       sets HUB_ADDR, HUB_PID, HUB_LOG
#
# Build first: cargo build --release -p axi4mlir-hub -p axi4mlir-worker.
# A daemon's stdout and stderr both go to its log file (the hub's is
# $HUB_LOG; it holds the `fault fired` lines chaos-smoke greps for).

DAEMON_BIN_DIR="${CARGO_TARGET_DIR:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/target}/release"

# _start_daemon NAME ARGS...: sets DAEMON_ADDR, DAEMON_PID, DAEMON_LOG.
_start_daemon() {
    local name=$1
    shift
    DAEMON_LOG=$(mktemp)
    "$DAEMON_BIN_DIR/$name" --bind 127.0.0.1:0 "$@" >"$DAEMON_LOG" 2>&1 &
    DAEMON_PID=$!
    DAEMON_ADDR=""
    for _ in $(seq 100); do
        DAEMON_ADDR=$(sed -n "s/^$name listening on //p" "$DAEMON_LOG")
        [ -n "$DAEMON_ADDR" ] && return 0
        sleep 0.1
    done
    echo "$name did not start:" >&2
    cat "$DAEMON_LOG" >&2
    exit 1
}

start_worker() {
    local faults=${1:-}
    _start_daemon axi4mlir-worker ${faults:+--faults "$faults"}
    WORKER_ADDR=$DAEMON_ADDR WORKER_PID=$DAEMON_PID
}

start_hub() {
    _start_daemon axi4mlir-hub "$@"
    HUB_ADDR=$DAEMON_ADDR HUB_PID=$DAEMON_PID HUB_LOG=$DAEMON_LOG
}
