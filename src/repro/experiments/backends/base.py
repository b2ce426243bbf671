"""The execution-backend seam: how sweep tasks reach compute.

``run_sweep`` resolves caching and grid order; everything between "this
point must run" and "here is its outcome dict" is a backend.  A backend
receives :class:`Task`\\ s (the sweep point, the scenario modules a fresh
worker process must re-import, and the runtime budget), executes them in
whatever way it likes, and hands back ``(task, outcome)`` pairs in
completion order -- the runner reassembles grid order and builds the
records.

Outcome dicts are the same shape everywhere (and must be JSON-serializable,
since records are persisted and replayed as JSON)::

    {"status": "ok",      "result": {...}, "duration_s": 1.2, "meta": {...}}
    {"status": "error",   "error": "<traceback>", "duration_s": 0.3, "meta": {...}}
    {"status": "timeout", "error": "...", "duration_s": 5.0}

``meta`` is the uniform timing/engine block (see
:class:`repro.obs.trace.RunMetaCollector`): every execution path fills it
with wall-clock duration plus the engine round/skip/step counts of the
CONGEST runs the point performed, so records carry the same schema whether
they ran serially or in a pool worker.  (A ``timeout`` outcome, and the
``error`` outcome of a pool worker that died mid-point, is synthesized by
the backend, not by the task, so it has no ``meta``.)

:func:`execute_point` is the single task-execution entry point shared by
every backend (inline and pool worker), so a serial run is bit-identical
to a pool one.  When the ``REPRO_TRACE_DIR`` environment variable names a
directory (exported by ``run --trace`` and inherited by every worker
process), each execution also writes a per-task JSONL trace there.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass

from repro.experiments.registry import (
    BUILTIN_SCENARIO_MODULES,
    get_scenario,
    load_builtin_scenarios,
)
from repro.experiments.sweep import SweepPoint
from repro.obs.trace import (
    RunMetaCollector,
    TeeTracer,
    Tracer,
    TraceWriter,
    task_trace_path,
    trace_dir_from_env,
    use_tracer,
)


@dataclass(frozen=True)
class Task:
    """One unit of sweep work: the point, the scenario modules a fresh
    worker process must re-import to find it, and its runtime budget."""

    point: SweepPoint
    scenario_modules: tuple[str, ...] = ()
    timeout: float | None = None

    @property
    def index(self) -> int:
        return self.point.index


def _json_equal(a, b) -> bool:
    """Equality after a JSON round-trip: NaN equals itself (it serializes
    and replays identically), but a tuple is not the list it comes back as
    and non-string dict keys are not the strings they come back as."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    return a == b


class ExecutionBackend:
    """submit / poll / shutdown lifecycle shared by all backends.

    Contract: every submitted task eventually appears in exactly one
    ``poll()`` batch (as ``(task, outcome)``), even on worker crash or
    timeout -- backends capture failures as outcome dicts, never raise them
    through ``poll``.  ``shutdown`` must release resources and is called
    exactly once, also on error paths.
    """

    #: Registry name ("serial", "pool"); set by subclasses.
    name = "abstract"

    #: Where backend-side telemetry (task lifecycle, pool timeouts and dead
    #: workers) goes; the null tracer by default, assigned by ``run_sweep``
    #: when the sweep is traced.
    trace: Tracer = Tracer()

    #: True when submit() completes the task before returning (the runner
    #: then drains after every submit so progress streams per point;
    #: asynchronous backends are only drained from the collection loop).
    synchronous = False

    def submit(self, task: Task) -> None:
        """Accept one task for execution (synchronous backends finish it here)."""
        raise NotImplementedError

    def poll(self) -> list[tuple[Task, dict]]:
        """Completed tasks since the last poll (possibly empty, non-blocking)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (worker processes)."""
        raise NotImplementedError


def execute_point(
    scenario_name: str,
    params: dict,
    seed: int,
    scenario_modules: tuple[str, ...] = (),
) -> dict:
    """Run one sweep point; capture success or failure as an outcome dict.

    The single execution path for every backend.  Results must be
    JSON-serializable dicts: a payload that cannot round-trip through JSON
    would replay differently from cache than it ran fresh, so it is failed
    here, at the point of production, with a clear error.

    Every outcome carries the uniform ``meta`` block (engine round/skip/step
    counts via the ambient :class:`~repro.obs.trace.RunMetaCollector`); when
    ``REPRO_TRACE_DIR`` is set, a per-task JSONL trace is written there too.
    """
    load_builtin_scenarios(tuple(m for m in scenario_modules if m not in BUILTIN_SCENARIO_MODULES))
    collector = RunMetaCollector()
    tracer: Tracer = collector
    writer = None
    trace_dir = trace_dir_from_env()
    if trace_dir is not None:
        try:
            writer = TraceWriter(
                task_trace_path(trace_dir, scenario_name, seed),
                source="task",
                scenario=scenario_name,
                seed=seed,
            )
            tracer = TeeTracer(collector, writer)
        except OSError:
            writer = None  # an unwritable trace dir must never fail the task
    start = time.perf_counter()
    try:
        with use_tracer(tracer):
            scn = get_scenario(scenario_name)
            result = scn.run(params, seed)
        if not isinstance(result, dict):
            raise TypeError(
                f"scenario {scenario_name!r} must return a dict, got {type(result).__name__}"
            )
        # Full round-trip check, not just dumps(): tuples and non-string
        # dict keys serialize fine but come back as lists / string keys, so
        # a cached replay would differ from the fresh run.
        try:
            round_tripped = json.loads(json.dumps(result))
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"scenario {scenario_name!r} returned a non-JSON-serializable result "
                f"({exc}); results are persisted and replayed as JSON, so every value "
                f"must round-trip"
            ) from exc
        if not _json_equal(round_tripped, result):
            raise TypeError(
                f"scenario {scenario_name!r} returned a result that does not survive "
                f"a JSON round-trip (e.g. tuples or non-string dict keys); a cached "
                f"replay would differ from the fresh run"
            )
        outcome = {
            "status": "ok",
            "result": result,
            "duration_s": time.perf_counter() - start,
            "meta": collector.meta(),
        }
    except Exception:
        outcome = {
            "status": "error",
            "error": traceback.format_exc(),
            "duration_s": time.perf_counter() - start,
            "meta": collector.meta(),
        }
    if writer is not None:
        writer.event(
            "task_result", status=outcome["status"], duration_s=outcome["duration_s"]
        )
        writer.close()
    return outcome
