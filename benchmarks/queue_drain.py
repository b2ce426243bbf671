"""Benchmark the work-queue spool: drain throughput, scan cost, stealing.

Two measurement groups plus a correctness check, all landing in one
artifact (``BENCH_pr9.json``):

- **Drain** (``queue-drain-1e3``, ``queue-drain-1e4``): enqueue N
  synthetic noop tickets and drain them with one in-process worker
  (inline execution, so spool mechanics dominate).  Each group reports
  the best-of-N tickets/sec and, for every drain, its ``SpoolStats``
  counters.  The counters are deterministic, so they -- not the
  wall-clock rate -- are the gate: every drain must serve each ticket
  from the ready index (``claimed == index_hits == N``), with at most
  :data:`MAX_FULL_SCANS` full directory listings and
  :data:`MAX_INDEX_READS` index reads, and no rename misses or
  compactions.
- **Steal effectiveness** (``queue-drain-steal``): a deliberately skewed
  spool -- one big block ticket of slow points plus a tail of small
  tickets -- drained by two worker daemons, with work stealing off and
  on.  Without stealing the worker stuck with the block rides it out
  alone; with it, the idle daemon carves off the block's unstarted
  points.  ``speedup`` = makespan(no steal) / makespan(steal).

A store-backed equivalence pass (worker shard -> ``ResultStore.merge``)
cross-checks that spool-drained records are field-identical to a serial
run of the same sweep, modulo ``duration_s``.  The script exits 1 unless
the equivalence check and every drain's counter gate hold.

Usage::

    python benchmarks/queue_drain.py --out BENCH_pr9.json
    python benchmarks/queue_drain.py --quick     # CI smoke: 10^3 only
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))  # make `benchmarks.*` importable from a script run

import repro
from benchmarks.queue_scenarios import MODULE
from repro.experiments import ResultStore, expand_grid, get_scenario, run_sweep
from repro.experiments.backends.base import Task
from repro.experiments.backends.queue import WorkQueueBackend, run_worker
from repro.experiments.backends.spool import SpoolStats
from repro.experiments.store import cache_key

#: Idle period after which the draining worker concludes the spool is dry.
_IDLE = 0.3

#: Counter ceilings for one drain, measured at 10^3 and 10^4 tickets: one
#: verification scan when the spool runs dry, one index read per shard.
MAX_FULL_SCANS = 1
MAX_INDEX_READS = 8


def _tasks(scenario_name: str, grid: dict, **task_kwargs) -> list[Task]:
    points = expand_grid(get_scenario(scenario_name), grid)
    return [
        Task(
            point=p,
            key=cache_key(p.scenario, p.params, p.seed),
            scenario_version=get_scenario(scenario_name).version,
            code_version=repro.__version__,
            scenario_modules=(MODULE,),
            **task_kwargs,
        )
        for p in points
    ]


def drain_once(n: int) -> dict:
    """Enqueue ``n`` noop tickets, drain in-process, return rate + stats."""
    with tempfile.TemporaryDirectory(prefix="queue-drain-") as tmp:
        qdir = Path(tmp) / "q"
        backend = WorkQueueBackend(qdir, workers=0)
        t0 = time.perf_counter()
        for task in _tasks("queue-drain-noop", {"i": list(range(n))}):
            backend.submit(task)
        enqueue_s = time.perf_counter() - t0
        stats = SpoolStats()
        t0 = time.perf_counter()
        done = run_worker(qdir, max_idle=_IDLE, poll_interval=0.01, inline=True, stats=stats)
        drain_s = time.perf_counter() - t0 - _IDLE  # idle-out is not drain time
        assert done == n, f"drained {done}/{n}"
        return {
            "tickets": n,
            "enqueue_s": round(enqueue_s, 4),
            "drain_s": round(drain_s, 4),
            "tickets_per_s": round(done / drain_s, 1),
            "stats": stats.as_dict(),
        }


def counters_ok(drain: dict) -> bool:
    """The deterministic scan-cost gate for one drain."""
    s = drain["stats"]
    return (
        s["claimed"] == s["index_hits"] == drain["tickets"]
        and s["full_scans"] <= MAX_FULL_SCANS
        and s["index_reads"] <= MAX_INDEX_READS
        and s["rename_misses"] == s["compactions"] == 0
    )


def bench_drain(n: int, repeats: int = 2) -> dict:
    """Drains of an ``n``-ticket spool: best-of-N rate, every drain's counters."""
    drain_once(64)  # warmup: imports, allocator, page cache
    runs = [drain_once(n) for _ in range(repeats)]
    best = max(runs, key=lambda r: r["tickets_per_s"])
    return {
        "group": f"queue-drain-1e{len(str(n)) - 1}",
        "tickets": n,
        "tickets_per_s": best["tickets_per_s"],
        "runs": runs,
        "counters_ok": all(counters_ok(run) for run in runs),
    }


def _worker_env() -> dict[str, str]:
    """Daemon subprocesses must import repro and this benchmark module."""
    src = Path(repro.__file__).resolve().parents[1]
    root = src.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(root), env.get("PYTHONPATH", "")) if p
    )
    return env


def bench_steal(block_points: int, tail: int, delay: float) -> dict:
    """Skewed-spool makespan with 2 daemons, stealing off vs on."""

    def run(steal: bool) -> float:
        with tempfile.TemporaryDirectory(prefix="queue-steal-") as tmp:
            qdir = Path(tmp) / "q"
            # One big block ticket (the skew) plus single-point tickets.
            big = WorkQueueBackend(qdir, workers=0, points_per_ticket=block_points)
            grid = {"i": list(range(block_points)), "delay": [delay]}
            for task in _tasks("queue-drain-slow", grid):
                big.submit(task)
            small = WorkQueueBackend(qdir, workers=0)
            grid = {"i": list(range(block_points, block_points + tail)), "delay": [delay]}
            for task in _tasks("queue-drain-slow", grid):
                small.submit(task)
            expected = block_points + tail
            argv = [
                sys.executable, "-m", "repro.experiments", "worker", str(qdir),
                "--max-idle", "1.0", "--poll-interval", "0.02", "--inline",
            ]
            if not steal:
                argv.append("--no-steal")
            t0 = time.perf_counter()
            procs = [subprocess.Popen(argv, env=_worker_env()) for _ in range(2)]
            landed = 0
            deadline = t0 + 120.0
            while landed < expected and time.perf_counter() < deadline:
                landed = len(big.poll()) + len(small.poll())
                # poll() pops landed results; accumulate instead.
                if landed:
                    expected -= landed
                    landed = 0
                time.sleep(0.02)
            makespan = time.perf_counter() - t0
            for proc in procs:
                proc.wait(timeout=30.0)
            assert expected == 0, f"{expected} point(s) never landed"
            return makespan

    no_steal = run(steal=False)
    with_steal = run(steal=True)
    return {
        "group": "queue-drain-steal",
        "block_points": block_points,
        "tail_tickets": tail,
        "point_delay_s": delay,
        "workers": 2,
        "no_steal_s": round(no_steal, 3),
        "steal_s": round(with_steal, 3),
        "speedup": round(no_steal / with_steal, 3),
    }


def _comparable(records) -> list[dict]:
    stripped = []
    for record in records:
        data = asdict(record)
        data.pop("duration_s")
        stripped.append(data)
    return stripped


def check_equivalence(n: int) -> dict:
    """Spool drain + shard merge vs a serial run: field-identical."""
    points = expand_grid(get_scenario("queue-drain-noop"), {"i": list(range(n))})
    with tempfile.TemporaryDirectory(prefix="queue-equiv-") as tmp:
        tmp_path = Path(tmp)
        serial_store = ResultStore(tmp_path / "serial")
        serial = run_sweep(points, store=serial_store, backend="serial")
        qdir = tmp_path / "q"
        # Submit through the backend as block tickets, drain with a
        # store-writing worker, then merge the worker's shard -- the
        # external-daemon topology, in-process.
        backend = WorkQueueBackend(qdir, workers=0, points_per_ticket=4)
        shard = ResultStore(tmp_path / "shard")
        for task in _tasks("queue-drain-noop", {"i": list(range(n))}):
            backend.submit(task)
        backend.poll()  # seal any partial block ticket
        run_worker(qdir, store=shard, max_idle=_IDLE, poll_interval=0.01, inline=True)
        merged = ResultStore(tmp_path / "merged")
        imported = merged.merge(shard.root)
        merged_records = sorted(merged.iter_records(), key=lambda r: r.key)
        serial_records = sorted(serial.records, key=lambda r: r.key)
        match = _comparable(merged_records) == _comparable(serial_records)
        return {
            "check": "merged-records-vs-serial",
            "points": n,
            "merged": int(imported),
            "records_match_serial": match,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_pr9.json")
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: 10^3 drain + small steal run"
    )
    args = parser.parse_args()

    drains = [bench_drain(n) for n in ((1000,) if args.quick else (1000, 10_000))]
    steal = bench_steal(*((12, 8, 0.05) if args.quick else (30, 12, 0.05)))
    equivalence = check_equivalence(100)

    for group in drains:
        print(
            f"{group['group']}: {group['tickets_per_s']} tickets/s, "
            f"counters_ok={group['counters_ok']}"
        )
        for run in group["runs"]:
            print(f"  stats {run['stats']}")
    print(f"{steal['group']}: speedup {steal['speedup']}x")
    print(f"equivalence: match={equivalence['records_match_serial']}")

    payload = {
        "benchmark": "queue_drain",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "groups": [*drains, steal],
        "equivalence": equivalence,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    ok = equivalence["records_match_serial"] and all(g["counters_ok"] for g in drains)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
