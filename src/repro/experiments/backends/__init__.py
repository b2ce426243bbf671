"""Pluggable sweep-execution backends.

``run_sweep`` resolves caching and grid order; a backend turns pending
points into outcome dicts behind the :class:`ExecutionBackend`
``submit / poll / shutdown`` seam:

- :class:`SerialBackend` -- inline, in-process (the reference path);
- :class:`ProcessPoolBackend` -- local ``multiprocessing`` pool with
  spawn hygiene, worker recycling, out-of-order collection, per-task
  deadlines and dead-worker detection.  Worker start-up costs about a
  second, so it beats serial only on long sweeps; its reasons to exist
  are ``--timeout`` and crash isolation.
"""

from __future__ import annotations

from repro.experiments.backends.base import ExecutionBackend, Task, execute_point
from repro.experiments.backends.pool import ProcessPoolBackend
from repro.experiments.backends.serial import SerialBackend

#: CLI-facing backend names ("auto" additionally picks serial or pool from
#: the workers/timeout arguments, preserving the historical behaviour).
BACKEND_NAMES = ("auto", "serial", "pool")


def resolve_backend(
    spec: str,
    *,
    workers: int = 1,
    n_tasks: int = 1,
    task_timeout: float | None = None,
    mp_start_method: str = "spawn",
    maxtasksperchild: int | None = 16,
) -> ExecutionBackend:
    """Build a backend from a CLI-style name.

    ``auto`` keeps the historical ``run_sweep`` semantics: serial for a
    single worker with no timeout, otherwise a process pool (a timeout
    forces pool execution even with ``workers=1``, because it cannot be
    enforced on in-process execution).  Pool size never exceeds the task
    count.
    """
    if spec == "auto":
        spec = "pool" if (workers > 1 or task_timeout is not None) else "serial"
    if spec == "serial":
        if task_timeout is not None:
            # Reject up front, before any point executes (SerialBackend's
            # own submit() guard would only fire mid-sweep).
            raise ValueError(
                "serial backend cannot enforce a per-task timeout on in-process "
                "execution; use the pool backend"
            )
        return SerialBackend()
    if spec == "pool":
        return ProcessPoolBackend(
            workers=min(max(workers, 1), max(n_tasks, 1)),
            mp_start_method=mp_start_method,
            maxtasksperchild=maxtasksperchild,
        )
    raise ValueError(f"unknown backend {spec!r}; known: {BACKEND_NAMES}")


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "Task",
    "execute_point",
    "resolve_backend",
]
