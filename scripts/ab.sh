#!/usr/bin/env bash
# One command for a perf claim: an alternating A/B of the frozen benchmark
# (benchmark/) at two commits.
#
# Usage: scripts/ab.sh [--pairs N] [--seconds S] [--trace 0|1]
#                      [--workloads a,b,...] [--work DIR] [--out FILE] BASE HEAD
#
#   BASE, HEAD   the two commits (anything `git rev-parse` takes). To measure
#                uncommitted work, stage it (`git add -A`) and pass
#                "$(git stash create)" as HEAD: a commit of the index and
#                working tree that moves no branch.
#   --pairs      pairs per workload (default 5)
#   --seconds    --seconds of each run (default 15, as in BENCHMARK.json)
#   --trace      1 adds the per-layer ledger to every run (default 0: the
#                end-to-end metrics the benchmark driver compares)
#   --workloads  comma-separated subset (default: every BENCHMARK.json workload)
#   --work       where the two source trees and their builds go
#                (default: ${TMPDIR:-/tmp}/axi4mlir-ab)
#   --out        the JSON artefact (default: bench-out/ab-BASE-HEAD.json)
#
# Each side is exported with `git archive` (the committed files only, as the
# benchmark driver sees them) into its own directory and built there with
# its own CARGO_TARGET_DIR, so neither build touches this checkout — its
# benchmark/Cargo.lock included. Pair i runs both sides on the same seed
# (from a fixed list); even pairs run BASE first, odd pairs HEAD first, so a
# host speed plateau that starts mid-pair hurts both sides alike.
#
# Per workload and metric it prints both sides' median and quartiles, the
# change of the medians, HEAD's wins out of the pairs that differ, and a
# one-sided sign-test p in the direction the medians moved. A metric is
# "better" or "worse" only when p <= 0.05 *and* the medians differ by more
# than BASE's interquartile distance; otherwise it is "unresolved" (or
# "identical" when every pair agrees to float rounding).
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=5
SECONDS_PER_RUN=15
TRACE=0
WORKLOADS=""
WORK="${TMPDIR:-/tmp}/axi4mlir-ab"
OUT=""
REVS=()
usage() { sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) PAIRS="$2"; shift 2 ;;
        --seconds) SECONDS_PER_RUN="$2"; shift 2 ;;
        --trace) TRACE="$2"; shift 2 ;;
        --workloads) WORKLOADS="$2"; shift 2 ;;
        --work) WORK="$2"; shift 2 ;;
        --out) OUT="$2"; shift 2 ;;
        --*) echo "ab.sh: unknown flag $1" >&2; usage ;;
        *) REVS+=("$1"); shift ;;
    esac
done
[ "${#REVS[@]}" -eq 2 ] || usage
BASE=$(git rev-parse --short=10 "${REVS[0]}^{commit}")
HEAD_REV=$(git rev-parse --short=10 "${REVS[1]}^{commit}")
[ -n "$WORKLOADS" ] || WORKLOADS=$(python3 -c \
    'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
[ -n "$OUT" ] || OUT="bench-out/ab-$BASE-$HEAD_REV.json"
SEEDS=(11 23 37 41 53 67 79 83 97 101 113 127 131 149 157 163 173 181 191 199)

# Exports and builds one side; prints its directory.
build() {
    local rev=$1 dir="$WORK/$1"
    if [ ! -f "$dir/.built" ]; then
        rm -rf "$dir" && mkdir -p "$dir"
        git archive "$rev" | tar -x -C "$dir"
        echo "ab.sh: building the benchmark at $rev" >&2
        CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
            --manifest-path "$dir/benchmark/Cargo.toml" >&2
        touch "$dir/.built"
    fi
    echo "$dir"
}

# Runs one workload once on one side; prints the run's JSON result line.
run_one() {
    local dir=$1 workload=$2 seed=$3
    (cd "$dir" && CARGO_TARGET_DIR="$dir/target" cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- --workload "$workload" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace "$TRACE") | tail -n 1
}

BASE_DIR=$(build "$BASE")
HEAD_DIR=$(build "$HEAD_REV")
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT
IFS=, read -r -a WORKLOAD_LIST <<<"$WORKLOADS"
for workload in "${WORKLOAD_LIST[@]}"; do
    for ((pair = 0; pair < PAIRS; pair++)); do
        seed=${SEEDS[pair % ${#SEEDS[@]}]}
        if ((pair % 2 == 0)); then order=(base head); else order=(head base); fi
        for side in "${order[@]}"; do
            if [ "$side" = base ]; then dir=$BASE_DIR; else dir=$HEAD_DIR; fi
            echo "ab.sh: $workload pair $((pair + 1))/$PAIRS $side (seed $seed)" >&2
            printf '%s\t%s\t%s\t%s\n' "$workload" "$pair" "$side" "$(run_one "$dir" "$workload" "$seed")" >>"$RAW"
        done
    done
done

mkdir -p "$(dirname "$OUT")"
python3 - "$RAW" "$OUT" "$BASE" "$HEAD_REV" "$PAIRS" "$SECONDS_PER_RUN" "$TRACE" <<'PY'
import json, math, sys

raw, out, base, head, pairs, seconds, trace = sys.argv[1:]
declared = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
runs = {}  # workload -> side -> pair -> result
for line in open(raw):
    workload, pair, side, result = line.rstrip("\n").split("\t", 3)
    runs.setdefault(workload, {}).setdefault(side, {})[int(pair)] = json.loads(result)

def quartiles(values):
    s = sorted(values)
    def at(q):
        x = q * (len(s) - 1)
        lo = math.floor(x)
        return s[lo] + (s[min(lo + 1, len(s) - 1)] - s[lo]) * (x - lo)
    return at(0.25), at(0.5), at(0.75)

def same(x, y):
    return abs(x - y) <= 1e-9 * max(abs(x), abs(y))

def sign_p(k, n):
    """P(X >= k) for X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(k, n + 1)) / 2 ** n if n else 1.0

report = {"base": base, "head": head, "pairs": int(pairs), "seconds": float(seconds),
          "trace": trace == "1", "workloads": {}}
print(f"{'workload':<20} {'metric':<44} {'base p50 [q1, q3]':>30} {'head p50 [q1, q3]':>30}"
      f" {'change':>8} {'wins':>6} {'p':>6}  verdict")
for workload, sides in runs.items():
    indices = sorted(set(sides.get("base", {})) & set(sides.get("head", {})))
    names = [n for n in sides["base"][indices[0]]["metrics"] if n in better] if indices else []
    summary = {"correct": all(sides[s][i]["correct"] for s in sides for i in indices), "metrics": {}}
    for name in names:
        pairs_v = [(sides["base"][i]["metrics"][name]["value"],
                    sides["head"][i]["metrics"][name]["value"]) for i in indices
                   if name in sides["head"][i]["metrics"]]
        b = [p[0] for p in pairs_v]
        h = [p[1] for p in pairs_v]
        bq, hq = quartiles(b), quartiles(h)
        sign = -1 if better[name] == "lower" else 1
        # A pair ties when its two runs agree to float rounding: exact
        # entries are averaged over however many ops each run timed.
        gain = [0 if same(x, y) else sign * (y - x) for x, y in pairs_v]
        wins = sum(g > 0 for g in gain)
        losses = sum(g < 0 for g in gain)
        improved = sign * (hq[1] - bq[1]) > 0
        p = sign_p(wins if improved else losses, wins + losses)
        if wins + losses == 0:
            verdict = "identical"
        elif p <= 0.05 and abs(hq[1] - bq[1]) > bq[2] - bq[0]:
            verdict = "better" if improved else "worse"
        else:
            verdict = "unresolved"
        change = (hq[1] / bq[1] - 1) * 100 if bq[1] else float("nan")
        summary["metrics"][name] = {
            "better": better[name], "base": b, "head": h,
            "base_quartiles": bq, "head_quartiles": hq, "change_pct": change,
            "wins": wins, "losses": losses, "sign_p": p, "verdict": verdict}
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{workload:<20} {name:<44} {fmt(bq):>30} {fmt(hq):>30} {change:>+7.1f}%"
              f" {wins:>2}/{wins + losses:<3} {p:>6.3f}  {verdict}")
    report["workloads"][workload] = summary
json.dump(report, open(out, "w"), indent=1)
print(f"wrote {out}")
PY
