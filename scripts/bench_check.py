#!/usr/bin/env python3
"""Bench regression gate.

Compares a fresh micro-bench run against a baseline and FAILS (exit 1)
when any benchmark's wall-clock real_time regressed by more than
--max-regression (default 25%).  Two baseline sources:

- default: the "before" half of BENCH_micro.json.  After
  `BASE=<rev> scripts/bench.sh` it is <rev> benched on the same host,
  row by row interleaved with this tree (what CI gates on); after a plain
  scripts/bench.sh it is the previously committed run, only meaningful on
  the machine that produced it.
- --baseline FILE: compare against another file's run, e.g. a suite
  recorded separately on the same machine.

Known-noisy rows are skipped by default: the multi-thread wall-clock rows
(BM_UpdateBatchFourSites/4, BM_LocalizeBatch/8, ...) measure the fan-out
against however many cores the host happens to have, so their wall clock
is a property of the machine, not the code.  Additional rows can
be skipped with --skip (regex, repeatable).

Rows faster than --noise-floor-ns in BOTH runs are reported as warnings
only: at microsecond scale a shared CI box jitters past any reasonable
threshold.

Usage:
    scripts/bench.sh && python3 scripts/bench_check.py
    python3 scripts/bench_check.py --file BENCH_micro.json \
        --max-regression 0.25 --skip 'BM_RassTraining'
"""

import argparse
import json
import re
import sys

# Wall-clock depends on the host's core count for these, not on the code.
DEFAULT_SKIP = [
    r"^BM_UpdateBatchFourSites/(?!1$)\d+$",
    r"^BM_LocalizeBatch/(?!1$)\d+$",
    r"^BM_RassGridSearch/(?!1$)\d+$",
    # Multi-reader serve rows overlap R threads on however many cores the
    # host has; the /1 rows (and their latency counters) stay gated.
    r"^BM_ServeThroughput/(?!1/)\d",
]

# Latency counters gated alongside real_time.  Only "smaller is better"
# counters belong here — a throughput counter like qps would be read
# backwards by the ratio check.  Stored in the row table as
# "<benchmark>@<counter>", in ns, so the skip regexes and the report
# format apply unchanged.
LATENCY_COUNTERS = ("p50_us", "p99_us")

# Per-row noise-floor overrides (regex -> ns).  The dot micro-kernel rows
# run in nanoseconds: on a shared CI box their wall clock is dominated by
# frequency/turbo state, so they get a floor generous enough that they
# only ever warn.  Matched before --noise-floor-ns; first hit wins.
ROW_NOISE_FLOORS = [
    (r"^BM_KernelDot", 50000.0),
    # The office R-update's 96 rank-8 solves, one by one or lane-batched:
    # tens of microseconds of divide/sqrt chains, turbo lottery likewise.
    (r"^BM_SpdSolveLanes", 50000.0),
    # Tail latency needs far more samples than a 0.1 s bench window
    # collects; below 100 us the p99 row is sampling noise, not a signal.
    (r"@p99_us$", 100000.0),
    # Single-observation ingest validation and one EWMA step run in tens
    # of nanoseconds: mutex-acquire + hash-map wall clock on a shared box
    # is turbo lottery, so these rows warn rather than gate.
    (r"^BM_IngestObservation", 50000.0),
    (r"^BM_DriftDetector", 50000.0),
    # Durability rows measure the filesystem (page cache, fsync, rename),
    # not the solver code: on a shared CI box their wall clock swings with
    # whatever else is hitting the disk, so they warn rather than gate.
    (r"^BM_CheckpointSave", 1.0e8),
    (r"^BM_WalAppend", 1.0e8),
    (r"^BM_Recover", 1.0e8),
    (r"^BM_CommitUpdate/1$", 1.0e8),
]


def load_rows(section):
    rows = {}
    for b in section.get("benchmarks", []):
        rows[b["name"]] = b["real_time"]
        for counter in LATENCY_COUNTERS:
            if counter in b:
                rows[f"{b['name']}@{counter}"] = b[counter] * 1000.0  # -> ns
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--file", default="BENCH_micro.json")
    parser.add_argument("--baseline", default=None,
                        help="compare --file's 'after' against this file's "
                             "run instead of --file's own 'before'.  CI "
                             "benches the base commit on the same runner "
                             "and passes it here, so the gate never "
                             "compares timings across machines")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional slowdown (0.25 = +25%%)")
    parser.add_argument("--skip", action="append", default=[],
                        help="extra row-name regex to skip (repeatable)")
    parser.add_argument("--no-default-skips", action="store_true",
                        help="gate the thread-scaling rows too")
    parser.add_argument("--noise-floor-ns", type=float, default=20000.0,
                        help="rows faster than this in both runs only warn")
    args = parser.parse_args()

    with open(args.file) as f:
        doc = json.load(f)
    after = doc.get("after") or {}
    if args.baseline:
        with open(args.baseline) as f:
            base_doc = json.load(f)
        before = base_doc.get("after") or base_doc.get("before") or {}
        src = args.baseline
    else:
        before = doc.get("before") or {}
        src = f"{args.file} ('before')"
    if not before or not after:
        print(f"need both a fresh run in {args.file} and a baseline in "
              f"{src} (run scripts/bench.sh, or commit a baseline first)")
        return 1
    print(f"baseline: {src}")

    skips = list(args.skip)
    if not args.no_default_skips:
        skips += DEFAULT_SKIP
    skip_res = [re.compile(p) for p in skips]

    base = load_rows(before)
    fresh = load_rows(after)
    failures = []
    print(f"{'benchmark':44s} {'before':>12s} {'after':>12s} {'ratio':>8s}")
    for name in fresh:
        if name not in base:
            print(f"{name:44s} {'(new)':>12s} {fresh[name] / 1e6:9.3f} ms")
            continue
        ratio = fresh[name] / base[name] if base[name] > 0 else float("inf")
        line = (f"{name:44s} {base[name] / 1e6:9.3f} ms {fresh[name] / 1e6:9.3f} ms "
                f"{ratio:7.2f}x")
        if any(r.search(name) for r in skip_res):
            print(line + "  [skipped: noisy row]")
            continue
        if ratio > 1.0 + args.max_regression:
            floor = args.noise_floor_ns
            for pattern, row_floor in ROW_NOISE_FLOORS:
                if re.search(pattern, name):
                    floor = row_floor
                    break
            if base[name] < floor and fresh[name] < floor:
                print(line + "  [warn: below noise floor]")
                continue
            failures.append((name, ratio))
            print(line + "  [FAIL]")
        else:
            print(line)
    for name in base:
        if name not in fresh:
            print(f"{name:44s} removed from the fresh run")

    if failures:
        limit = 1.0 + args.max_regression
        print(f"\n{len(failures)} benchmark(s) regressed past {limit:.2f}x:")
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x")
        print("If intentional (trade-off documented in the PR), refresh the "
              "baseline with scripts/bench.sh and commit BENCH_micro.json.")
        return 1
    print("\nbench gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
