"""Benchmark sweep drain across execution backends and record an artifact.

Runs the same grid through the serial and process-pool backends, times
each drain, and cross-checks that the produced records
are field-identical modulo ``duration_s`` -- the backend seam's core
invariant, measured instead of assumed.  Writes one JSON file
(``BENCH_pr3.json`` by default).

Usage::

    python benchmarks/backend_drain.py --out BENCH_pr3.json
    python benchmarks/backend_drain.py --quick --workers 2   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro.experiments import expand_grid, get_scenario, run_sweep


def _comparable(records) -> list[dict]:
    stripped = []
    for record in records:
        data = asdict(record)
        data.pop("duration_s")
        stripped.append(data)
    return stripped


def drain(points, backend: str, workers: int) -> tuple[dict, list[dict]]:
    start = time.perf_counter()
    report = run_sweep(points, store=None, backend=backend, workers=workers)
    elapsed = time.perf_counter() - start
    return (
        {
            "backend": backend,
            "workers": workers if backend != "serial" else 1,
            "points": len(points),
            "failed": report.failed,
            "seconds": elapsed,
        },
        _comparable(report.records),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pr3.json")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--quick", action="store_true", help="smaller grid for CI")
    args = parser.parse_args()

    scenario = get_scenario("spanner-skeleton")
    grid = {"n": [24, 36]} if args.quick else {"n": [30, 60, 90, 120]}
    points = expand_grid(scenario, grid)

    runs = []
    baseline = None
    for backend in ("serial", "pool"):
        timing, records = drain(points, backend, args.workers)
        if baseline is None:
            baseline = records
        timing["records_match_serial"] = records == baseline
        runs.append(timing)
        print(
            f"{backend:6s}: {timing['seconds']:.2f}s for {timing['points']} point(s), "
            f"match={timing['records_match_serial']}"
        )

    payload = {
        "benchmark": "backend_drain",
        "scenario": scenario.name,
        "grid": grid,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    print(
        f"chart it: python -m repro.experiments report --html report-site "
        f"--bench {args.out}"
    )
    return 0 if all(r["records_match_serial"] and r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
