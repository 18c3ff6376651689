#!/usr/bin/env bash
# Default-bits check: does this working tree commit exactly the same bits
# as <rev> under the default EngineConfig?
#
# Usage:
#   scripts/bits_check.sh <rev> [ARCH]
#
# Extracts <rev> with `git archive` into a temporary directory, builds its
# iup library and this working tree's iup library at the same SIMD level
# (ARCH is forwarded as -DIUP_ARCH: empty = toolchain default, e.g.
# x86-64-v3 or native), compiles this tree's bench/default_bits_probe.cpp
# against each library, runs both and diffs their output.  The probe uses
# only API both sides have, so <rev> may predate it.  When the outputs
# agree it prints "bits identical" and the probe output (exit status 0);
# otherwise the diff (exit status 1).
#
# Not a ctest: the probe's hashes legitimately differ between dispatch
# levels, so only two builds at the same ARCH are comparable.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <rev> [ARCH]" >&2
  exit 2
fi
REV=$1
ARCH=${2:-}
ROOT=$(cd "$(dirname "$0")/.." && pwd)

WORK=$(mktemp -d "${TMPDIR:-/tmp}/iup-bits.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/base"
git -C "$ROOT" archive "$REV" | tar -x -C "$WORK/base"

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=Release -DIUP_ARCH="$ARCH")
PROBE_FLAGS=(-std=c++20 -O3 -DNDEBUG -pthread)
if [ -n "$ARCH" ]; then
  PROBE_FLAGS+=(-march="$ARCH")
fi

# build_and_probe <source dir> <name>: library + probe binary + output.
build_and_probe() {
  local src=$1 name=$2
  cmake -S "$src" -B "$WORK/$name-build" "${CMAKE_ARGS[@]}" > /dev/null
  cmake --build "$WORK/$name-build" --target iup -j "$(nproc)" > /dev/null
  "${CXX:-c++}" "${PROBE_FLAGS[@]}" -I"$src/src" \
      "$ROOT/bench/default_bits_probe.cpp" "$WORK/$name-build/src/libiup.a" \
      -o "$WORK/$name-probe"
  "$WORK/$name-probe" > "$WORK/$name.out"
}

echo "building $REV and the working tree (ARCH='${ARCH}')..."
build_and_probe "$WORK/base" base
build_and_probe "$ROOT" head

if diff -u --label "$REV" --label "working tree" \
       "$WORK/base.out" "$WORK/head.out"; then
  echo "bits identical ($(wc -l < "$WORK/head.out") probe lines)"
  cat "$WORK/head.out"
else
  exit 1
fi
