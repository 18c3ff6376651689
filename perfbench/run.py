#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (and through it the iup
library from src/) under $CARGO_TARGET_DIR (default .bench_build) and runs
the workload: one untraced process, and with --trace 1 a second, traced
process of the same seed.  Echoes the binary's report and prints as its last
line one JSON object with the keys correct / attempted / failed / metrics:
the end-to-end metrics BENCHMARK.json lists with --trace 0, its per-layer
metrics with --trace 1.  Exits nonzero when the build fails, the
correctness gate fails (the result then says "correct": false), or a listed
metric is missing.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then an incremental build (a no-op when current)."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(build_dir), "--target", "perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def run_pass(binary, args, trace, data_dir):
    """One process of the binary: echo its lines and return its metrics
    ({name: (value, unit)}), operation counts and whether its gate passed."""
    print(f"pass {'traced' if trace else 'measured'}", flush=True)
    run = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(trace),
         "--data-dir", str(data_dir)],
        stdout=subprocess.PIPE, text=True)
    metrics, attempted, failed, passed = {}, 0, 0, False
    for line in run.stdout.splitlines():
        print(line)
        fields = line.split()
        if fields[:1] == ["metric"]:
            metrics[fields[1]] = (float(fields[2]), fields[3])
        elif fields[:1] == ["ops"]:
            counts = dict(f.split("=") for f in fields[2:])
            attempted += int(counts["attempted"])
            failed += int(counts["failed"])
        elif line == "gate PASS":
            passed = True
    return metrics, attempted, failed, passed and run.returncode == 0


def add_ratio(out, name, numerator, denominator, offset):
    """out[name] = (numerator / denominator - offset) * 100, in %, when both
    figures were printed."""
    if numerator is not None and denominator is not None:
        value = (numerator[0] / denominator[0] - offset) * 100.0
        out[name] = (value, "%")
        print(f"metric {name:28s} {value!r:24s} %      n=0")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    binary = build(target / "perfbench")
    data_dir = target / "perfbench-data" / args.workload

    # End-to-end figures always come from an untraced process.  The traced
    # process is a separate one of the same seed, so both start equally
    # cold and their difference is the tracing overhead.
    metrics, attempted, failed, correct = run_pass(binary, args, 0, data_dir)
    if args.trace and correct:
        measured = metrics
        traced, t_attempted, t_failed, correct = run_pass(
            binary, args, 1, data_dir)
        attempted += t_attempted
        failed += t_failed
        metrics = {k: v for k, v in traced.items() if "." in k}
        add_ratio(metrics, "tracing.update_overhead_pct",
                  traced.get("update_p50_ms"), measured.get("update_p50_ms"),
                  1.0)
        add_ratio(metrics, "tracing.localize_overhead_pct",
                  traced.get("localize_p50_us"),
                  measured.get("localize_p50_us"), 1.0)
        add_ratio(metrics, "reconcile.update_pct",
                  traced.get("stage_sum.update_ms"),
                  measured.get("update_p50_ms"), 0.0)
        add_ratio(metrics, "reconcile.freshness_pct",
                  traced.get("stage_sum.freshness_ms"),
                  measured.get("freshness_p50_ms"), 0.0)

    result = {}
    for entry in listed:
        value, unit = metrics.get(entry["name"], (math.nan, None))
        if not math.isfinite(value) or unit != entry["unit"]:
            if correct:
                fail(f"metric {entry['name']} [{entry['unit']}] missing "
                     f"from {args.workload}")
            continue
        result[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
