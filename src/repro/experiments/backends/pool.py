"""Local process-pool backend.

Pool hygiene: workers come from an explicit ``spawn`` context by default
(no fork-inherited state; scenario modules are shipped by name and
re-imported), are recycled after ``maxtasksperchild`` tasks, and completed
futures are collected as they finish -- not in grid order -- so one slow
point never delays timeout detection for the points behind it.

Per-task deadlines approximate "timeout from actual start": at most
``workers`` tasks hold a deadline at once; a new one is armed (in submit
order) whenever a slot resolves.  A task that outlives its deadline is
reported as a ``timeout`` outcome and its worker is abandoned -- shutdown
then terminates the pool rather than joining it, so the sweep returns.

Crash isolation: ``multiprocessing.Pool`` silently replaces a worker that
dies mid-task and never resolves that task's result.  So every worker
reports ``(index, pid)`` when it starts a point, and ``poll`` turns a
running point whose worker is no longer among
``multiprocessing.active_children()`` into an ``error`` outcome naming the
dead pid.  A short grace period keeps a worker that exits right after
delivering its result (a ``maxtasksperchild`` recycle) from being misread
as a crash.

Speed, measured on a 2-core host with 2 workers: worker start-up costs
about a second, so the pool loses to serial on the default grids (0.6 s
serial vs 1.5 s pool for ``spanner-skeleton``) and wins only on long
sweeps (about 1.25x on sweeps of 60 s serial).  Its reasons to exist are
per-point timeouts and crash isolation.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback

from repro.experiments.backends.base import ExecutionBackend, Task, execute_point

#: Seconds a running point's worker must stay gone before the point is
#: declared dead (covers a recycled worker whose result is still in flight).
_DEAD_WORKER_GRACE = 1.0

#: Per-worker channel for ``(index, pid)`` start reports; set by the pool
#: initializer in each worker process.
_started = None


def _init_worker(started) -> None:
    global _started
    _started = started


def _run_task(index: int, scenario: str, params: dict, seed: int, modules: tuple) -> dict:
    """Pool-worker entry: report the start, then run the point."""
    _started.put((index, os.getpid()))
    return execute_point(scenario, params, seed, modules)


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out to a local ``multiprocessing.Pool``."""

    name = "pool"

    def __init__(
        self,
        workers: int = 2,
        mp_start_method: str = "spawn",
        maxtasksperchild: int | None = 16,
    ) -> None:
        self.workers = max(workers, 1)
        ctx = multiprocessing.get_context(mp_start_method)
        self._started = ctx.SimpleQueue()
        self._pool = ctx.Pool(
            processes=self.workers,
            maxtasksperchild=maxtasksperchild,
            initializer=_init_worker,
            initargs=(self._started,),
        )
        self._tasks: dict[int, Task] = {}
        self._asyncs: dict[int, multiprocessing.pool.AsyncResult] = {}
        self._submit_order: list[int] = []
        self._deadlines: dict[int, float] = {}
        self._running: dict[int, int] = {}  # index -> pid of the worker running it
        self._gone_since: dict[int, float] = {}  # index -> when its worker was first missing
        self._abandoned = False
        self._any_timeout = False

    def submit(self, task: Task) -> None:
        """Dispatch the task to the pool and arm its deadline if it has one."""
        point = task.point
        self._tasks[task.index] = task
        self._submit_order.append(task.index)
        self.trace.task("dispatched", task.index, backend=self.name)
        self._asyncs[task.index] = self._pool.apply_async(
            _run_task,
            (task.index, point.scenario, point.params, point.seed, task.scenario_modules),
        )
        if task.timeout is not None:
            self._any_timeout = True
        self._rearm_deadlines()

    def _rearm_deadlines(self) -> None:
        if not self._any_timeout:
            return
        # Drop already-finished indices so long sweeps stay O(outstanding).
        if len(self._submit_order) > 2 * len(self._tasks) + 16:
            self._submit_order = [i for i in self._submit_order if i in self._tasks]
        armed = sum(1 for idx in self._deadlines if idx in self._tasks)
        for idx in self._submit_order:
            if armed >= self.workers:
                break
            task = self._tasks.get(idx)
            if task is None or task.timeout is None or idx in self._deadlines:
                continue
            self._deadlines[idx] = time.monotonic() + task.timeout
            armed += 1

    def _abandon(self, idx: int, outcome: dict) -> tuple[Task, dict]:
        """Give up on an unresolved task; shutdown must then terminate."""
        self._abandoned = True
        self._asyncs.pop(idx)
        self._forget(idx)
        return self._tasks.pop(idx), outcome

    def _forget(self, idx: int) -> None:
        self._running.pop(idx, None)
        self._gone_since.pop(idx, None)

    def poll(self) -> list[tuple[Task, dict]]:
        """Collect ready results, points whose worker died, and tasks past
        their deadline."""
        batch: list[tuple[Task, dict]] = []
        for idx in list(self._tasks):
            if not self._asyncs[idx].ready():
                continue
            task = self._tasks.pop(idx)
            self._forget(idx)
            try:
                outcome = self._asyncs.pop(idx).get()
            except Exception:
                # The worker lived but could not ship the outcome back
                # (e.g. a result that fails to pickle).
                outcome = {
                    "status": "error",
                    "error": traceback.format_exc(),
                    "duration_s": 0.0,
                }
            batch.append((task, outcome))
        while not self._started.empty():
            idx, pid = self._started.get()
            if idx in self._tasks:
                self._running[idx] = pid
        now = time.monotonic()
        if self._running:
            alive = {p.pid for p in multiprocessing.active_children()}
            for idx, pid in list(self._running.items()):
                if pid in alive:
                    self._gone_since.pop(idx, None)
                    continue
                if now - self._gone_since.setdefault(idx, now) < _DEAD_WORKER_GRACE:
                    continue
                self.trace.event("pool_worker_died", index=idx, pid=pid)
                batch.append(
                    self._abandon(
                        idx,
                        {
                            "status": "error",
                            "error": f"pool worker pid {pid} died while running this point",
                            "duration_s": 0.0,
                        },
                    )
                )
        for idx in list(self._tasks):
            deadline = self._deadlines.get(idx)
            if deadline is not None and now > deadline:
                task = self._tasks[idx]
                self.trace.event("pool_timeout", index=idx, timeout_s=task.timeout)
                batch.append(
                    self._abandon(
                        idx,
                        {
                            "status": "timeout",
                            "error": f"task exceeded {task.timeout}s",
                            "duration_s": float(task.timeout),
                        },
                    )
                )
        if batch:
            self._rearm_deadlines()
        return batch

    def shutdown(self) -> None:
        """Close the pool (terminate instead when a task was abandoned)."""
        if self._abandoned:
            # A hung worker, or a lost result the pool still waits for,
            # would make close()+join() block forever.
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()
        self._started.close()
