"""Pluggable sweep-execution backends.

``run_sweep`` resolves caching and grid order; a backend turns pending
points into outcome dicts behind the :class:`ExecutionBackend`
``submit / poll / shutdown`` seam:

- :class:`SerialBackend` -- inline, in-process (the reference path);
- :class:`ProcessPoolBackend` -- local ``multiprocessing`` pool with
  spawn hygiene, worker recycling and out-of-order collection;
- :class:`WorkQueueBackend` -- a hash-sharded file spool drained by one
  or many ``python -m repro.experiments worker`` daemons (same machine or
  shared filesystem) with atomic rename-leases, heartbeats, a worker-side
  runtime watchdog, block tickets and point-granular work stealing
  (:mod:`~repro.experiments.backends.spool` holds the layout,
  :mod:`~repro.experiments.backends.fleet` the elastic supervisor).
"""

from __future__ import annotations

import os

from repro.experiments.backends.base import ExecutionBackend, Task, execute_point
from repro.experiments.backends.fleet import FleetController, FleetReport, run_fleet
from repro.experiments.backends.pool import ProcessPoolBackend
from repro.experiments.backends.queue import WorkQueueBackend, run_worker
from repro.experiments.backends.serial import SerialBackend
from repro.experiments.backends.spool import QueuePaths, ShardedSpool, SpoolStats

#: CLI-facing backend names ("auto" additionally picks serial or pool from
#: the workers/timeout arguments, preserving the historical behaviour).
BACKEND_NAMES = ("auto", "serial", "pool", "queue")


def resolve_backend(
    spec: str,
    *,
    workers: int = 1,
    n_tasks: int = 1,
    task_timeout: float | None = None,
    mp_start_method: str = "spawn",
    maxtasksperchild: int | None = 16,
    queue_dir: str | os.PathLike | None = None,
    points_per_ticket: int = 1,
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
                "execution; use the pool or queue backend"
            )
        return SerialBackend()
    if spec == "pool":
        return ProcessPoolBackend(
            workers=min(max(workers, 1), max(n_tasks, 1)),
            mp_start_method=mp_start_method,
            maxtasksperchild=maxtasksperchild,
        )
    if spec == "queue":
        if queue_dir is None:
            raise ValueError("queue backend needs queue_dir (the spool directory)")
        return WorkQueueBackend(
            queue_dir,
            workers=max(workers, 0),
            mp_start_method=mp_start_method,
            points_per_ticket=points_per_ticket,
        )
    raise ValueError(f"unknown backend {spec!r}; known: {BACKEND_NAMES}")


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "FleetController",
    "FleetReport",
    "ProcessPoolBackend",
    "QueuePaths",
    "SerialBackend",
    "ShardedSpool",
    "SpoolStats",
    "Task",
    "WorkQueueBackend",
    "execute_point",
    "resolve_backend",
    "run_fleet",
    "run_worker",
]
