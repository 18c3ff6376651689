#!/usr/bin/env bash
# Build Release and run the micro benches, maintaining the perf trajectory
# in BENCH_micro.json: the previous run's numbers rotate into "before" and
# the fresh run becomes "after", so every committed file carries a
# before/after pair.  Each run's "context" carries google-benchmark's host
# metadata (num_cpus, caches, ...) plus the compiler and IUP_ARCH level the
# benches were built with.
#
# Usage:
#   scripts/bench.sh            full run (MIN_TIME=0.1s per benchmark)
#   MIN_TIME=0.01 scripts/bench.sh   CI smoke run
#   FILTER='BM_Reconstruct' scripts/bench.sh   subset
#   IUP_ARCH=x86-64-v3 scripts/bench.sh   pin the SIMD dispatch level
#   BASE=<rev> scripts/bench.sh   same-host pair: build <rev> (in a git
#                                 worktree) beside this tree, run every row
#                                 REPS times (default 5) on the two binaries
#                                 alternately, switching which goes first,
#                                 and write "before" (<rev>) and "after"
#                                 (this tree) from the per-row medians
#
# A plain run records one suite after the previous one, so host drift
# between the two halves lands on every row; BASE mode interleaves the two
# binaries row by row instead, so a change is not confused with the host's
# phase.
#
# Benches build at -march=native by default (IUP_ARCH=native): perf
# numbers are a property of the machine that ran them anyway, and native
# activates the AVX2 kernel level the solver hot path is written for.
# The CI bench gate benches base and head on the SAME runner, so the
# comparison stays apples-to-apples even across dispatch levels.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
MIN_TIME=${MIN_TIME:-0.1}
FILTER=${FILTER:-.}
OUT=${OUT:-BENCH_micro.json}
IUP_ARCH=${IUP_ARCH:-native}

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release -DIUP_API_WERROR=ON
            -DIUP_ARCH="$IUP_ARCH")
if command -v ccache > /dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
# build_benches <source dir> <build dir>
build_benches() {
  cmake -B "$2" -S "$1" "${CMAKE_ARGS[@]}"
  cmake --build "$2" -j "$(nproc)" \
        --target bench_micro_solvers bench_serve_throughput
}

# Both google-benchmark binaries feed one merged BENCH_micro.json: the
# solver micro benches and the serving-path throughput/latency rows.
bench_bins() {
  echo "$1/bench/bench_micro_solvers" "$1/bench/bench_serve_throughput"
}

build_benches . "$BUILD_DIR"
read -r -a BINS <<< "$(bench_bins "$BUILD_DIR")"
BASE_BINS=()
TMPS=()
WORKTREE=""
cleanup() {
  rm -f "${TMPS[@]}"
  if [ -n "$WORKTREE" ]; then
    git worktree remove --force "$WORKTREE" > /dev/null 2>&1 || true
    rm -rf "$(dirname "$WORKTREE")"
  fi
}
trap cleanup EXIT
if [ -n "${BASE:-}" ]; then
  WORKTREE=$(mktemp -d "${TMPDIR:-/tmp}/iup-bench-base.XXXXXX")/tree
  git worktree add --detach "$WORKTREE" "$BASE" > /dev/null
  # Built beside its worktree, so both go when the run ends.
  build_benches "$WORKTREE" "$(dirname "$WORKTREE")/build"
  read -r -a BASE_BINS <<< "$(bench_bins "$(dirname "$WORKTREE")/build")"
fi
for BIN in "${BINS[@]}" "${BASE_BINS[@]}"; do
  if [ ! -x "$BIN" ]; then
    echo "$BIN was not built (google-benchmark missing?)" >&2
    exit 1
  fi
done

if [ -z "${BASE:-}" ]; then
  for BIN in "${BINS[@]}"; do
    TMP=$(mktemp)
    TMPS+=("$TMP")
    # Older google-benchmark wants a plain double for --benchmark_min_time;
    # newer releases accept it too (with a deprecation warning).
    "$BIN" --benchmark_min_time="$MIN_TIME" --benchmark_filter="$FILTER" \
           --benchmark_format=json > "$TMP"
  done
fi

CXX_PATH=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' \
           "$BUILD_DIR/CMakeCache.txt")
COMPILER=$("$CXX_PATH" --version | sed -n 1p)

if [ -n "${BASE:-}" ]; then
  BASE_REV=$(git -C "$WORKTREE" rev-parse HEAD)
else
  BASE_REV=""
fi
COMPILER="$COMPILER" IUP_ARCH="$IUP_ARCH" BASE_REV="$BASE_REV" \
MIN_TIME="$MIN_TIME" FILTER="$FILTER" REPS="${REPS:-5}" \
HEAD_BINS="${BINS[*]}" BASE_BINS="${BASE_BINS[*]}" \
python3 - "${TMPS[@]}" "$OUT" <<'EOF'
import json
import os
import re
import statistics
import subprocess
import sys

out_path = sys.argv[-1]
env = os.environ


def run(binary, row_filter):
    proc = subprocess.run(
        [binary, f"--benchmark_min_time={env['MIN_TIME']}",
         f"--benchmark_filter={row_filter}", "--benchmark_format=json"],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def row_names(binary):
    proc = subprocess.run(
        [binary, "--benchmark_list_tests",
         f"--benchmark_filter={env['FILTER']}"],
        check=True, capture_output=True, text=True)
    return proc.stdout.split()


def median_row(samples):
    """One row from repeated runs: the first sample with real_time,
    cpu_time and every numeric counter replaced by its median."""
    row = dict(samples[0])
    for key, value in samples[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            row[key] = statistics.median(s[key] for s in samples)
    return row


def with_context(context, rows, rev=None):
    context = dict(context)
    context["compiler"] = env["COMPILER"]
    context["iup_arch"] = env["IUP_ARCH"]
    if rev:
        context["revision"] = rev
    return {"context": context, "benchmarks": rows}


if env["BASE_BINS"]:
    # Row by row, REPS rounds, alternating which binary runs first.
    reps = int(env["REPS"])
    before, after, context = [], [], {}
    for head, base in zip(env["HEAD_BINS"].split(), env["BASE_BINS"].split()):
        base_rows = set(row_names(base))
        for name in row_names(head):
            row_filter = "^" + re.escape(name) + "$"
            sides = [("head", head)]
            if name in base_rows:
                sides.append(("base", base))
            samples = {"head": [], "base": []}
            for rep in range(reps):
                for side, binary in sides if rep % 2 else sides[::-1]:
                    doc = run(binary, row_filter)
                    context = context or doc.get("context", {})
                    samples[side] += [b for b in doc.get("benchmarks", [])
                                      if b["name"] == name]
            after.append(median_row(samples["head"]))
            if samples["base"]:
                before.append(median_row(samples["base"]))
            print(f"{name:40s} interleaved x{reps}", file=sys.stderr)
    entry = with_context(context, after)
    doc = {"before": with_context(context, before, env["BASE_REV"]),
           "after": entry}
else:
    runs = [json.load(open(path)) for path in sys.argv[1:-1]]
    entry = with_context(runs[0].get("context", {}),
                         [b for run in runs for b in run.get("benchmarks", [])])
    try:
        with open(out_path) as f:
            prev = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        prev = {}
    doc = {"before": prev.get("after") or prev.get("before"), "after": entry}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")

for b in entry["benchmarks"]:
    print(f"{b['name']:40s} {b['real_time'] / 1e6:10.3f} ms")
print(f"wrote {out_path}")
EOF
