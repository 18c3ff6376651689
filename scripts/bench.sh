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
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target bench_micro_solvers bench_serve_throughput

# Both google-benchmark binaries feed one merged BENCH_micro.json: the
# solver micro benches and the serving-path throughput/latency rows.
BINS=("$BUILD_DIR/bench/bench_micro_solvers"
      "$BUILD_DIR/bench/bench_serve_throughput")
TMPS=()
trap 'rm -f "${TMPS[@]}"' EXIT
for BIN in "${BINS[@]}"; do
  if [ ! -x "$BIN" ]; then
    echo "$(basename "$BIN") was not built (google-benchmark missing?)" >&2
    exit 1
  fi
  TMP=$(mktemp)
  TMPS+=("$TMP")
  # Older google-benchmark wants a plain double for --benchmark_min_time;
  # newer releases accept it too (with a deprecation warning).
  "$BIN" --benchmark_min_time="$MIN_TIME" --benchmark_filter="$FILTER" \
         --benchmark_format=json > "$TMP"
done

CXX_PATH=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' \
           "$BUILD_DIR/CMakeCache.txt")
COMPILER=$("$CXX_PATH" --version | sed -n 1p)

COMPILER="$COMPILER" IUP_ARCH="$IUP_ARCH" python3 - "${TMPS[@]}" "$OUT" <<'EOF'
import json
import os
import sys

runs = [json.load(open(path)) for path in sys.argv[1:-1]]
out_path = sys.argv[-1]
context = dict(runs[0].get("context", {}))
context["compiler"] = os.environ["COMPILER"]
context["iup_arch"] = os.environ["IUP_ARCH"]
entry = {"context": context,
         "benchmarks": [b for run in runs
                        for b in run.get("benchmarks", [])]}
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
