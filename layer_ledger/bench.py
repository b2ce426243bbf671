"""Workloads, timed sweeps and metrics of the layer ledger (see ``run.py``).

Each workload is one or more real scenario sweeps through the public
``repro.experiments.run_sweep`` API, run serially in this process into a
fresh ``ResultStore`` (so no point is served from cache).  Every parameter
stays at the scenario's default grid; only replicates vary, with the
workload seed as ``base_seed``.  The number of replicates is fixed work
sized from ``--seconds`` by the workload's nominal rate, so one seed always
gives the same points and the same simulated rounds and bits.

A run sets up (imports, registry, grid expansion, store), runs one untimed
warm-up pass (replicate 0 of each grid), runs the timed sweep, then checks
every output.  Set-up time is taken in this process and in child processes
that repeat the set-up and stop at the first submitted point; the median
is reported.  Host times are scaled to reference host speed (``CAL_REF_S``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import networkx
import numpy

import checks
import repro
import repro.experiments as experiments
from layers import FAULT_COUNTS, LAYERS, Ledger
from repro.experiments import ResultStore, expand_grid, get_scenario, load_builtin_scenarios
from repro.obs.trace import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


@dataclass(frozen=True)
class Workload:
    #: (scenario, replicates of its default grid in one block of the run).
    scenarios: tuple[tuple[str, int], ...]
    #: Points per second at the reference commit on a 2-core host; sizes
    #: the fixed work of a run as ``seconds * rate`` points.
    rate: float


WORKLOADS = {
    "fig3-sweep": Workload((("fig3-mst-tradeoff", 1),), 11.0),
    "spanner-oracle": Workload((("spanner-skeleton", 1),), 6.5),
    # Three bfs-restabilization replicates per mst-under-faults replicate:
    # bfs points take about twice as long, and with an even mix the median
    # gap would fall between the two scenarios' clusters and jump between
    # them from seed to seed.
    "fault-recovery": Workload((("mst-under-faults", 1), ("bfs-restabilization", 3)), 18.0),
}

#: Set-up samples per run: this process plus child probes.
SETUP_SAMPLES = 5

#: Largest share of traced wall-clock a traced run may leave outside every
#: layer (at least 90% must be attributed); more fails the run.
MAX_UNATTRIBUTED = 0.10

#: Median time of :func:`calibrate` on the reference 2-core host.  Wall
#: times are reported at reference speed: seconds x CAL_REF_S / the
#: calibration measured next to them.  Hosts of this class drift by 15% over
#: seconds and by up to 2x over tens of minutes, which raw wall-clock would
#: report as changes of the program; the calibration loop slows and speeds
#: up with them (host drift in 5-s windows of a sweep: 17-19% raw, 4-6%
#: calibrated).
CAL_REF_S = 0.0044


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop (dict updates, the access pattern
    of networkx and the node programs); median of three."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(20000):
            table[i % 977] = table.get(i % 977, 0) + i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class HostSpeed:
    """Reference-speed factors from calibrations taken between sweeps.

    A sweep's factor uses the calibrations just before and just after it;
    none is taken before the first sweep, so set-up time holds no
    calibration.  (A median over the calibrations of a 1-4 s window
    instead followed short slow spells worse: on the same spanner-oracle
    runs it spread point_s_tail 8.5% across seeds against 3.7%.)
    """

    def __init__(self) -> None:
        self.first: float | None = None
        self.last: float | None = None

    def factor(self) -> float:
        """Calibrate now; the factor for the sweep that just ended."""
        now = calibrate()
        around = now if self.last is None else (self.last + now) / 2
        if self.first is None:
            self.first = now
        self.last = now
        return CAL_REF_S / around


class _SetupDone(Exception):
    """Raised by a set-up probe at the first submitted point."""


class SubmitClock(Tracer):
    """Notes when ``run_sweep`` submits its first point (optionally stops there)."""

    def __init__(self, abort: bool = False) -> None:
        self.first: float | None = None
        self.abort = abort

    def task(self, state: str, index: int, **attrs) -> None:
        if state == "submitted" and self.first is None:
            self.first = time.perf_counter()
            if self.abort:
                raise _SetupDone


@dataclass
class Pass:
    """One pass over a workload's sweeps."""

    records: list = field(default_factory=list)
    #: Gaps between successive point completions seen by the caller, at
    #: reference speed; the first gap of each sweep runs from the
    #: ``run_sweep`` call.
    gaps: list[float] = field(default_factory=list)
    #: Per block: [points completed, wall-clock of its sweeps at
    #: reference speed].
    blocks: dict[int, list] = field(default_factory=dict)
    #: Raw wall-clock of all sweeps.
    wall_s: float = 0.0
    first_submit: float | None = None

    def block_rates(self) -> list[float]:
        """Points per second of each block."""
        return [n / s for n, s in self.blocks.values()]


def run_one(
    result: Pass, store: ResultStore, block: int, points, clock: SubmitClock, speed: HostSpeed | None
) -> None:
    """Run one sweep of ``block`` serially, adding its records, gaps and
    wall-clock to ``result``; with ``speed``, times are scaled to reference
    speed."""
    gaps: list[float] = []
    last = [time.perf_counter()]

    def progress(_msg: str) -> None:
        now = time.perf_counter()
        gaps.append(now - last[0])
        last[0] = now

    start = last[0]
    report = experiments.run_sweep(
        points, store=store, backend="serial", progress=progress, trace=clock
    )
    wall = time.perf_counter() - start
    factor = speed.factor() if speed is not None else 1.0
    result.wall_s += wall
    result.records.extend(report.records)
    result.gaps.extend(gap * factor for gap in gaps)
    entry = result.blocks.setdefault(block, [0, 0.0])
    entry[0] += len(points)
    entry[1] += wall * factor


def run_pass(sweeps, work: Path, tag: str, speed: HostSpeed | None = None, probe: bool = False) -> Pass:
    """Run ``sweeps`` into a fresh store; a probe stops at the first submit."""
    result = Pass()
    store = ResultStore(work / f"store-{tag}")
    clock = SubmitClock(abort=probe)
    try:
        for block, points in sweeps:
            run_one(result, store, block, points, clock, speed)
    except _SetupDone:
        pass
    result.first_submit = clock.first
    return result


def paired_passes(sweeps, work: Path) -> tuple[Pass, Pass, Ledger]:
    """Untraced and traced passes over ``sweeps``, alternating sweep by
    sweep so that both see the same host speed; the traced sweeps run
    with every layer wrapped from outside."""
    ledger = Ledger()
    plain, traced = Pass(), Pass()
    plain_store = ResultStore(work / "store-untraced")
    traced_store = ResultStore(work / "store-traced")
    clock = SubmitClock()
    for block, points in sweeps:
        run_one(plain, plain_store, block, points, clock, None)
        ledger.install()
        try:
            run_one(traced, traced_store, block, points, clock, None)
        finally:
            ledger.uninstall()
    return plain, traced, ledger


def plan(workload: Workload, seed: int, seconds: int):
    """(warm-up sweeps, timed sweeps, blocks) for one run; a sweep is a
    ``(block, points)`` pair.

    The timed sweeps run block by block, each one the workload's
    replicates of one scenario's default grid, so every grid point and
    every scenario is spread over the whole run.  Gap percentiles then
    average over the run instead of sampling the few seconds one grid point
    would otherwise occupy (the host's speed drifts over seconds).  The
    warm-up is replicate 0 of each scenario's grid.
    """
    scenarios = [(get_scenario(name), weight) for name, weight in workload.scenarios]
    per_block = sum(weight * len(expand_grid(s, base_seed=seed)) for s, weight in scenarios)
    blocks = max(1, round(seconds * workload.rate / per_block))
    grids = [
        (expand_grid(s, replicates=blocks * weight, base_seed=seed), weight) for s, weight in scenarios
    ]
    timed = [
        (b, [p for p in points if p.replicate // weight == b])
        for b in range(blocks)
        for points, weight in grids
    ]
    warm = [(0, [p for p in points if p.replicate == 0]) for points, _ in grids]
    return warm, timed, blocks


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest integer percentile
    that leaves at least ten samples beyond it (nearest-rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1], pct, n - rank


def sim_totals(records) -> dict[str, int]:
    ok = [r for r in records if r.status == "ok"]
    return {
        "sim_rounds": sum(int(r.meta.get("engine_rounds", 0)) for r in ok),
        "sim_bits": sum(int(r.meta.get("engine_total_bits", 0)) for r in ok),
        "node_steps": sum(int(r.meta.get("engine_node_steps", 0)) for r in ok),
        "skipped_rounds": sum(int(r.meta.get("engine_skipped_rounds", 0)) for r in ok),
    }


def code_identity() -> str:
    """Hash of the program under test and of this benchmark: every ``.py``
    file of the imported ``repro`` package and of this directory."""
    digest = hashlib.sha256()
    package = Path(repro.__file__).resolve().parent
    for root, files in ((package, package.rglob("*.py")), (HERE, HERE.glob("*.py"))):
        for path in sorted(files):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def fingerprint_mismatches(name: str, seed: int, blocks: int, counts: dict) -> list[str]:
    """Compare deterministic counts with earlier runs of this seed on the
    same code, then record them.  The file is keyed by :func:`code_identity`,
    so a change of the program that legitimately changes the counts starts
    a fresh record instead of failing against the old one."""
    path = OUT / "fingerprints" / f"{name}-seed{seed}-blocks{blocks}-{code_identity()}.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    bad = [
        f"{key} {counts[key]} != {known[key]} from an earlier run"
        for key in counts
        if key in known and known[key] != counts[key]
    ]
    if not bad:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**known, **counts}, sort_keys=True, indent=1))
    return bad


def setup_probes(name: str, seed: int, seconds: int, count: int) -> list[float]:
    """Set-up time measured by ``count`` child processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "0",
                "--setup-probe",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def layer_metrics(ledger: Ledger, traced: Pass, timed: Pass) -> dict:
    wall = traced.wall_s
    m = {}
    attributed = 0.0
    for layer in LAYERS:
        self_s = ledger.self_s(layer)
        attributed += self_s
        m[f"{layer}.self_s"] = metric(self_s, "s")
        m[f"{layer}.share"] = metric(self_s / wall, "frac")
    for layer in (
        "congest.network",
        "congest.message.bit_size",
        "congest.transport",
        "oracle",
        "experiments.store",
    ):
        m[f"{layer}.calls"] = metric(ledger.calls(layer), "count")
    totals = sim_totals(traced.records)
    m["congest.engine.node_steps"] = metric(totals["node_steps"], "count")
    m["congest.engine.skipped_rounds"] = metric(totals["skipped_rounds"], "count")
    m["congest.engine.host_us_per_step"] = metric(
        1e6 * ledger.run_seconds / max(totals["node_steps"], 1), "us"
    )
    m["oracle.dijkstra_calls"] = metric(ledger.dijkstra_calls, "count")
    for counter in FAULT_COUNTS.values():
        m[f"congest.faults.{counter}"] = metric(ledger.faults[counter], "count")
    # Harness share of the untraced sweep: wall-clock not spent inside
    # the points themselves (one process runs them all).
    points_s = sum(r.duration_s for r in timed.records)
    m["experiments.backends.overhead_share"] = metric(1.0 - points_s / timed.wall_s, "frac")
    m["unattributed.share"] = metric(1.0 - attributed / wall, "frac")
    m["obs.trace_overhead"] = metric(wall / timed.wall_s - 1.0, "frac")
    return m


def run(name: str, seed: int, seconds: int, trace: bool, probe: bool, t_start: float) -> int:
    workload = WORKLOADS[name]
    load_builtin_scenarios()
    warm, timed, blocks = plan(workload, seed, seconds)
    work = OUT / f"work-{os.getpid()}"
    try:
        warm_pass = run_pass(warm, work, "warm")
        if trace:
            timed_pass, traced, ledger = paired_passes(timed, work)
        else:
            speed = HostSpeed()
            timed_pass = run_pass(timed, work, "timed", speed=speed, probe=probe)
        if probe:
            setup_s = (timed_pass.first_submit - t_start) * CAL_REF_S / calibrate()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = timed_pass.records

        failures: dict[int, list[str]] = {}

        def note(found: dict[int, str]) -> None:
            for pos, reason in found.items():
                failures.setdefault(pos, []).append(reason)

        note(checks.verdict_failures(records))
        note(checks.fig3_failures(records))
        note(checks.counter_mismatches(records, warm_pass.records, "warm-up pass"))
        counts = sim_totals(records)
        if trace:
            note(checks.verdict_failures(traced.records))
            note(checks.counter_mismatches(traced.records, records, "untraced sweep"))
            counts.update({f"faults.{k}": v for k, v in ledger.faults.items()})
            metrics = layer_metrics(ledger, traced, timed_pass)
            ledger.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
        run_errors = [f"determinism: {e}" for e in fingerprint_mismatches(name, seed, blocks, counts)]
        if trace:
            unattributed = metrics["unattributed.share"]["value"]
            if unattributed > MAX_UNATTRIBUTED:
                run_errors.append(
                    f"attribution: unattributed.share {unattributed:.4f} > {MAX_UNATTRIBUTED}"
                    f" (wrap targets not found: {ledger.missing or 'none'})"
                )

        attempted = len(records)
        failed = len(failures)
        value, pct, beyond = tail(timed_pass.gaps)
        if not trace:
            samples = [(timed_pass.first_submit - t_start) * CAL_REF_S / speed.first]
            samples += setup_probes(name, seed, seconds, SETUP_SAMPLES - 1)
            metrics = {
                "setup_s": metric(statistics.median(samples), "s"),
                "points_per_s": metric(statistics.median(timed_pass.block_rates()), "1/s"),
                "point_s_p50": metric(statistics.median(timed_pass.gaps), "s"),
                "point_s_tail": metric(value, "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
                "ok_frac": metric(1.0 - failed / attempted, "frac"),
                "sim_rounds": metric(counts["sim_rounds"], "rounds"),
                "sim_bits": metric(counts["sim_bits"], "bits"),
            }

        for pos, reasons in sorted(failures.items()):
            r = records[pos]
            print(f"FAILED {r.scenario} seed={r.seed} params={r.params}: {'; '.join(reasons)}")
        for error in run_errors:
            print(f"FAILED {error}")
        if trace:
            for target in ledger.missing:
                print(f"WARNING wrap target not found, its time is unattributed: {target}")
        info = {
            "workload": name,
            "seed": seed,
            "blocks": blocks,
            "points": attempted,
            "point_s_tail_percentile": pct,
            "point_s_tail_beyond": beyond,
            "host": host_facts(),
        }
        if trace:
            info["unwrapped_targets"] = ledger.missing
        print("info " + json.dumps(info, sort_keys=True))
        result = {
            "correct": failed == 0 and not run_errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps({**info, **result}, indent=1, sort_keys=True)
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
