#!/usr/bin/env bash
# Configure + build + test, exactly what CI runs on every push.
#
# Environment knobs (all optional), matching the CI job matrix:
#   BUILD_DIR        build tree (default: build)
#   CMAKE_BUILD_TYPE Debug / Release (default: Release)
#   SANITIZE         -fsanitize list, e.g. "address,undefined" or "thread";
#                    forwarded as -DIUP_SANITIZE and skips the bench smoke
#                    (numbers under instrumentation are meaningless)
#   CTEST_FILTER     regex for ctest -R (the TSan job restricts itself to
#                    the thread-pool / determinism suites)
#   ARCH             -march target forwarded as -DIUP_ARCH (the AVX2 cell
#                    passes x86-64-v3 to exercise the SIMD kernel level)
# ccache is picked up automatically when it is on PATH (the CI matrix
# installs it via hendrikmuhs/ccache-action so warm builds stay fast).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

# .gitignore hygiene: build trees must never be tracked (they bloat every
# clone this script runs in).  The repo ignores build/ and build-*/ — fail
# fast if anything slipped past that.
if git -C . rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  TRACKED_BUILD=$(git ls-files | grep -E '^build(/|-[^/]*/)' || true)
  if [ -n "$TRACKED_BUILD" ]; then
    echo "error: tracked files inside build trees (commit ignores them):" >&2
    echo "$TRACKED_BUILD" >&2
    exit 1
  fi
fi

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}"
            -DIUP_API_WERROR=ON)
if [ -n "${SANITIZE:-}" ]; then
  CMAKE_ARGS+=(-DIUP_SANITIZE="$SANITIZE")
fi
if [ -n "${ARCH:-}" ]; then
  CMAKE_ARGS+=(-DIUP_ARCH="$ARCH")
fi
if command -v ccache > /dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

CTEST_ARGS=(--output-on-failure -j "$(nproc)")
if [ -n "${CTEST_FILTER:-}" ]; then
  CTEST_ARGS+=(-R "$CTEST_FILTER")
fi
ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}"

# Bench smoke: make sure the micro benches still run (tiny min_time; the
# numbers are meaningless on shared CI hardware, the exercise is not).
# Skipped under sanitizers, where the regression gate has its own job.
if [ -z "${SANITIZE:-}" ] && [ -x "$BUILD_DIR/bench/bench_micro_solvers" ]; then
  "$BUILD_DIR/bench/bench_micro_solvers" --benchmark_min_time=0.01 \
      --benchmark_filter='BM_Reconstruct|BM_LocalizeBatch|BM_SpdSolveLanes|BM_OmpLocalizeNoisy|BM_CommitUpdate'
fi
if [ -z "${SANITIZE:-}" ] && [ -x "$BUILD_DIR/bench/bench_serve_throughput" ]; then
  "$BUILD_DIR/bench/bench_serve_throughput" --benchmark_min_time=0.01 \
      --benchmark_filter='BM_ServeThroughput/1'
fi
