"""Sweep orchestration: cache resolution + backend dispatch + reassembly.

The runner resolves each sweep point against the result store first
(skip-if-cached), hands the misses to an execution backend
(:mod:`repro.experiments.backends`: serial inline or a local process
pool), captures failures as records instead of crashing the sweep, and
returns records in deterministic grid order regardless of completion
order.

Which backend runs the tasks is a dispatch detail: all of them execute
:func:`~repro.experiments.backends.base.execute_point`, so the records a
sweep produces are field-identical (modulo ``duration_s``) across
backends -- ``tests/test_backends.py`` asserts exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: How often the collector polls an idle backend, in seconds.
_POLL_INTERVAL = 0.02

import repro
from repro.experiments.backends import ExecutionBackend, Task, resolve_backend
from repro.experiments.registry import get_scenario
from repro.experiments.store import ResultRecord, ResultStore, cache_key
from repro.experiments.sweep import SweepPoint
from repro.obs.trace import Tracer, current_tracer


@dataclass
class SweepReport:
    """Outcome of one sweep: records in grid order plus cache accounting."""

    scenario: str
    records: list[ResultRecord] = field(default_factory=list)
    cached: int = 0
    executed: int = 0
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def results(self) -> list[dict]:
        """The per-point result payloads, grid-ordered (None for failures)."""
        return [r.result for r in self.records]


def run_sweep(
    points: list[SweepPoint],
    store: ResultStore | None = None,
    workers: int = 1,
    task_timeout: float | None = None,
    force: bool = False,
    scenario_modules: tuple[str, ...] = (),
    progress: Callable[[str], None] | None = None,
    mp_start_method: str = "spawn",
    maxtasksperchild: int | None = 16,
    backend: str | ExecutionBackend = "auto",
    trace: Tracer | None = None,
) -> SweepReport:
    """Run a sweep; returns records in the order of ``points``.

    ``backend`` picks the execution backend: ``"auto"`` (serial for a
    single worker with no timeout, else a process pool -- the historical
    behaviour), ``"serial"`` or ``"pool"``.  An
    :class:`ExecutionBackend` instance is used as-is and left open for
    the caller; named backends are constructed and shut down here.

    With a store, points whose cache key already has a record are served
    from cache unless ``force``; fresh records are persisted as they
    complete.

    ``task_timeout`` bounds the wall-clock runtime per point.  The pool
    backend approximates it with per-task deadlines measured from when a
    worker slot becomes available (a hung worker is terminated rather
    than joined, so ``run_sweep`` returns).  A pool worker that dies
    mid-point yields an ``error`` record for that point, with or without
    a timeout.

    ``mp_start_method`` picks the multiprocessing context (``spawn`` by
    default: clean workers, no fork-inherited state) and
    ``maxtasksperchild`` recycles pool workers so long sweeps cannot
    accumulate per-worker state (``0`` means never recycle, for
    ``multiprocessing.Pool`` parity).

    ``trace`` receives sweep telemetry (``task`` lifecycle lines:
    submitted, cached, ok/error/timeout) and is handed to the backend for
    its internal spans; defaults to the ambient tracer (the no-op null
    tracer unless a ``repro.obs.use_tracer`` block is active).
    """
    if not points:
        raise ValueError("empty sweep")
    names = {p.scenario for p in points}
    if len(names) != 1:
        raise ValueError(f"sweep mixes scenarios {sorted(names)}; run them separately")
    if maxtasksperchild == 0:
        # Pool parity for library callers: 0 is a natural "never recycle"
        # spelling but an invalid multiprocessing.Pool argument.
        maxtasksperchild = None
    scenario = get_scenario(points[0].scenario)
    report = SweepReport(scenario=scenario.name)
    say = progress or (lambda _msg: None)
    tracer = trace if trace is not None else current_tracer()
    tracer.event("sweep_start", scenario=scenario.name, points=len(points))

    keys = {
        p.index: cache_key(p.scenario, p.params, p.seed, scenario_version=scenario.version)
        for p in points
    }
    slots: dict[int, ResultRecord] = {}
    pending: list[SweepPoint] = []
    for point in points:
        cached = None if (force or store is None) else store.get(scenario.name, keys[point.index])
        if cached is not None:
            slots[point.index] = cached
            report.cached += 1
            if cached.status != "ok":
                # A persisted failure served from cache still fails the
                # sweep -- callers gating on report.ok must see it.
                report.failed += 1
            say(f"[cache:{cached.status}] {scenario.name} #{point.index} {point.params}")
            tracer.task("cached", point.index, status=cached.status)
        else:
            pending.append(point)

    def finish(point: SweepPoint, outcome: dict) -> None:
        record = ResultRecord(
            key=keys[point.index],
            scenario=point.scenario,
            params=point.params,
            seed=point.seed,
            replicate=point.replicate,
            status=outcome["status"],
            result=outcome.get("result"),
            error=outcome.get("error"),
            duration_s=outcome.get("duration_s", 0.0),
            scenario_version=scenario.version,
            code_version=repro.__version__,
            meta=outcome.get("meta") or {},
        )
        slots[point.index] = record
        report.executed += 1
        tracer.task(record.status, point.index, duration_s=record.duration_s)
        if record.status != "ok":
            report.failed += 1
            say(f"[{record.status}] {scenario.name} #{point.index} {point.params}")
        else:
            say(
                f"[done] {scenario.name} #{point.index} {point.params} "
                f"({record.duration_s:.2f}s)"
            )
        # Failures are persisted too: a sweep that died at point 37 resumes
        # there, and `report` can show what broke.  `force` re-runs them.
        if store is not None:
            store.put(record)

    # Ship the scenario's defining module to workers so pools work under
    # spawn/forkserver too, where the parent's registry is not inherited.
    # (A __main__ registration can't be re-imported by name; it still
    # works under fork, the Linux default.)
    if scenario.fn.__module__ not in ("__main__", None):
        scenario_modules = tuple(dict.fromkeys((*scenario_modules, scenario.fn.__module__)))

    if pending:
        owned = not isinstance(backend, ExecutionBackend)
        engine = (
            resolve_backend(
                backend,
                workers=workers,
                n_tasks=len(pending),
                task_timeout=task_timeout,
                mp_start_method=mp_start_method,
                maxtasksperchild=maxtasksperchild,
            )
            if owned
            else backend
        )
        engine.trace = tracer
        tasks = [
            Task(point=point, scenario_modules=scenario_modules, timeout=task_timeout)
            for point in pending
        ]
        outstanding = 0
        try:
            for task in tasks:
                tracer.task("submitted", task.index, backend=engine.name)
                engine.submit(task)
                outstanding += 1
                if not engine.synchronous:
                    continue
                # Serial execution finished the point inside submit();
                # drain now so progress streams instead of batching.
                for done_task, outcome in engine.poll():
                    finish(done_task.point, outcome)
                    outstanding -= 1
            while outstanding:
                batch = engine.poll()
                if not batch:
                    time.sleep(_POLL_INTERVAL)
                    continue
                for done_task, outcome in batch:
                    finish(done_task.point, outcome)
                    outstanding -= 1
        finally:
            if owned:
                engine.shutdown()

    report.records = [slots[p.index] for p in points]
    tracer.event(
        "sweep_end",
        scenario=scenario.name,
        cached=report.cached,
        executed=report.executed,
        failed=report.failed,
    )
    return report
