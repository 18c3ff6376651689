#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny size (--seconds 0.3) under two seeds, once
measured (--trace 0) and once traced (--trace 1), through perfbench/run.py.
Checks that the correctness gate passes, that every metric the workload
produces is printed by name with its unit, and that the last line carries
exactly the metrics BENCHMARK.json lists.  Exits nonzero on any failure.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
SECONDS = "0.3"

# Measured-run metrics (name -> unit) by workload.
COMMON = {
    "setup_s": "s", "peak_rss_mb": "MB", "update_p50_ms": "ms",
    "localize_p50_us": "us", "localize_p90_us": "us",
    "loc_err_median_m": "m", "loc_err_p90_m": "m",
    "recon_err_median_db": "dB",
}
MEASURED = {
    "fleet_update": {**COMMON, "update_p90_ms": "ms"},
    "serve_under_update": {**COMMON, "writer_max_lateness_ms": "ms",
                           "update_service_p50_ms": "ms"},
    "stream_durable": {
        **COMMON, "update_p90_ms": "ms", "observe_p50_ns": "ns",
        "observe_p90_ns": "ns", "freshness_p50_ms": "ms",
        "freshness_p90_ms": "ms", "recover_ms": "ms",
    },
}

# Traced-run per-layer metrics by workload.
LAYERS = {
    "api.register_ms": "ms", "api.commit_ms": "ms", "core.solve_ms": "ms",
    "core.refresh_ms": "ms", "core.solve_iters": "count",
    "core.lrr_iters": "count", "core.grouped_share": "ratio",
    "core.warm_hit_share": "ratio", "loc.build_ms": "ms",
    "loc.match_us": "us", "serve.overhead_us": "us",
    "serve.read_path_violations": "count", "linalg.spd_fallbacks": "count",
    "reconcile.update_pct": "%", "tracing.update_overhead_pct": "%",
    "tracing.localize_overhead_pct": "%",
}
TRACED = {
    "fleet_update": LAYERS,
    "serve_under_update": LAYERS,
    "stream_durable": {
        **LAYERS, "ingest.collect_us": "us", "ingest.accepted": "count",
        "ingest.quarantined": "count", "persist.wal_append_us": "us",
        "persist.checkpoint_ms": "ms", "persist.wal_appends": "count",
        "persist.checkpoints": "count", "persist.dir_bytes": "bytes",
        "trace.import_ms": "ms", "trace.rows": "count",
        "reconcile.freshness_pct": "%",
    },
}

# Operation types counted by the gate, by workload.
OPS = {
    "fleet_update": {"update", "localize"},
    "serve_under_update": {"update", "localize"},
    "stream_durable": {"update", "localize", "observe", "restore"},
}

METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")


def check_run(spec, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} seed={seed} trace={trace}"
    errors = []
    if run.returncode != 0:
        errors.append(f"{where}: exit {run.returncode}\n{run.stderr[-2000:]}")
    lines = run.stdout.strip().splitlines()
    printed = {}
    ops = set()
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = m.group(3)
        if line.startswith("ops "):
            ops.add(line.split()[1])
    expected = dict(MEASURED[workload])
    if trace:
        expected.update(TRACED[workload])
    for name, unit in expected.items():
        if printed.get(name) != unit:
            errors.append(f"{where}: metric {name} [{unit}] not printed "
                          f"(got {printed.get(name)})")
    if OPS[workload] - ops:
        errors.append(f"{where}: no operation counts for "
                      f"{sorted(OPS[workload] - ops)}")
    if "gate PASS" not in lines or "gate FAIL" in lines:
        errors.append(f"{where}: correctness gate did not pass")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return errors + [f"{where}: last line is not the JSON result"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result.get("metrics", {})) != {m["name"] for m in listed}:
        errors.append(f"{where}: result metrics differ from BENCHMARK.json")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in MEASURED:
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(spec, workload, seed, trace)
                status = "ok" if not found else "FAIL"
                print(f"{workload} seed={seed} trace={trace}: {status}",
                      flush=True)
                errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
