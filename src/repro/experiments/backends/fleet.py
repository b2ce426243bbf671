"""Fleet controller: launch and retire worker daemons from spool depth.

The work-queue backend decouples sweep submission from execution, but
someone still has to decide *how many* daemons drain the spool.  This
module is that someone: a supervisor loop that watches spool depth and
drain rate and keeps a local fleet of ``python -m repro.experiments
worker`` daemons sized to the backlog::

    python -m repro.experiments fleet /shared/q --max-workers 8 --drain

Control loop (one tick per ``interval`` seconds):

- **Scale up** when the backlog per live worker exceeds
  ``backlog_per_worker`` -- straight to the target size (a deep spool
  should not wait N ticks for N workers), capped at ``max_workers``.
- **Scale down** with hysteresis: only after the spool has stayed below
  the scale-down threshold for ``cooldown`` consecutive seconds, and one
  worker per tick -- a brief lull never mass-retires a warm fleet.
  Retirement is cooperative: the controller touches the worker's private
  stop sentinel and the daemon exits after its current point, never
  mid-task.
- **Drain mode** (``drain=True``) exits once the spool is empty, every
  claim has resolved and the fleet is retired -- the batch configuration
  the drain benchmark and CI use.  Without it the controller runs until
  the operator's ``STOP`` sentinel (service mode).

Every tick emits telemetry (``spool_depth``, ``fleet_workers``,
``drain_rate`` gauges; ``worker_spawned`` / ``worker_retired`` events)
through the ambient tracer or a ``fleet-<pid>.jsonl`` trace when
``REPRO_TRACE_DIR`` is set, which the timeline page renders as the fleet
utilisation chart (see ``docs/observability.md``).

Workers retired or crashed are reaped on every tick, so the controller's
exit guarantee is strong: when :meth:`FleetController.run` returns, no
daemon it spawned is left running (asserted by ``tests/test_fleet.py``).
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.experiments.backends.spool import QueuePaths, ShardedSpool
from repro.obs.trace import NULL_TRACER, TraceWriter, current_tracer, trace_dir_from_env

logger = logging.getLogger("repro.experiments.fleet")


@dataclass
class FleetReport:
    """What one controller run did: provisioning counts and peaks."""

    spawned: int = 0
    retired: int = 0
    peak_workers: int = 0
    ticks: int = 0
    final_depth: int = 0
    #: Worker exit codes observed while reaping (diagnostics).
    exit_codes: list[int] = field(default_factory=list)


class _Worker:
    """One spawned daemon plus its private stop sentinel."""

    def __init__(self, proc: subprocess.Popen, stop_file: Path):
        self.proc = proc
        self.stop_file = stop_file
        self.retiring = False


class FleetController:
    """Supervise a local worker fleet against one spool directory.

    ``store_prefix`` gives each worker its own result-store shard
    (``<prefix>-<n>``) for later ``merge``; ``inline`` / ``max_idle`` /
    ``mp_start_method`` are passed through to the workers.
    ``worker_env`` extends the daemons' environment (tests use it for
    ``PYTHONPATH``).
    """

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        min_workers: int = 0,
        max_workers: int = 4,
        backlog_per_worker: int = 4,
        interval: float = 0.5,
        cooldown: float = 2.0,
        store_prefix: str | None = None,
        inline: bool = False,
        max_idle: float | None = None,
        mp_start_method: str = "spawn",
        worker_env: dict[str, str] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if min_workers > max_workers:
            raise ValueError("min_workers cannot exceed max_workers")
        self.paths = QueuePaths(queue_dir)
        self.paths.ensure()
        self.spool = ShardedSpool(self.paths)
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.backlog_per_worker = max(1, backlog_per_worker)
        self.interval = interval
        self.cooldown = cooldown
        self.store_prefix = store_prefix
        self.inline = inline
        self.max_idle = max_idle
        self.mp_start_method = mp_start_method
        self.say = progress or logger.info
        self.nonce = uuid.uuid4().hex[:8]
        self._workers: list[_Worker] = []
        self._spawn_serial = 0
        self._env = dict(os.environ)
        if worker_env:
            self._env.update(worker_env)
        self.report = FleetReport()

    # -- provisioning ----------------------------------------------------------

    def _spawn(self) -> None:
        serial = self._spawn_serial
        self._spawn_serial += 1
        stop_file = self.paths.root / f"STOP.fleet-{self.nonce}-{serial}"
        argv = [
            sys.executable,
            "-m",
            "repro.experiments",
            "worker",
            str(self.paths.root),
            "--stop-file",
            str(stop_file),
            "--mp-start",
            self.mp_start_method,
        ]
        if self.store_prefix is not None:
            argv += ["--store", f"{self.store_prefix}-{serial}"]
        if self.max_idle is not None:
            argv += ["--max-idle", str(self.max_idle)]
        if self.inline:
            argv.append("--inline")
        proc = subprocess.Popen(
            argv, env=self._env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        self._workers.append(_Worker(proc, stop_file))
        self.report.spawned += 1
        self.report.peak_workers = max(self.report.peak_workers, len(self._workers))

    def _retire_one(self) -> None:
        # Newest first: the longest-running daemon keeps its warm caches.
        for worker in reversed(self._workers):
            if not worker.retiring:
                worker.retiring = True
                worker.stop_file.touch()
                self.report.retired += 1
                return

    def _reap(self) -> None:
        """Drop exited workers (retired or crashed) from the live list."""
        alive = []
        for worker in self._workers:
            code = worker.proc.poll()
            if code is None:
                alive.append(worker)
            else:
                self.report.exit_codes.append(code)
                worker.stop_file.unlink(missing_ok=True)
        self._workers = alive

    def _live_count(self) -> int:
        return sum(1 for w in self._workers if not w.retiring)

    def _claims_outstanding(self) -> int:
        try:
            with os.scandir(self.paths.claims) as entries:
                return sum(1 for e in entries if e.name.endswith(".json"))
        except FileNotFoundError:
            return 0

    # -- the control loop ------------------------------------------------------

    def run(self, drain: bool = False, max_runtime: float | None = None) -> FleetReport:
        """Run the control loop; returns when drained (``drain=True``),
        when the operator's ``STOP`` sentinel appears, or after
        ``max_runtime`` seconds.  All spawned daemons have exited by the
        time this returns -- the zero-orphan guarantee."""
        tracer = current_tracer()
        own_trace = None
        trace_dir = trace_dir_from_env()
        if tracer is NULL_TRACER and trace_dir is not None:
            try:
                own_trace = TraceWriter(
                    Path(trace_dir) / f"fleet-{os.getpid()}.jsonl",
                    source="fleet",
                    queue_dir=str(self.paths.root),
                )
                tracer = own_trace
            except OSError:
                tracer = NULL_TRACER
        start = time.monotonic()
        below_since: float | None = None
        prev_depth: int | None = None
        prev_tick = start
        try:
            while True:
                self.report.ticks += 1
                self._reap()
                depth = self.spool.depth()
                claims = self._claims_outstanding()
                now = time.monotonic()
                drain_rate = 0.0
                if prev_depth is not None and now > prev_tick:
                    drain_rate = max(0.0, (prev_depth - depth) / (now - prev_tick))
                prev_depth, prev_tick = depth, now
                live = self._live_count()
                tracer.gauge("spool_depth", depth)
                tracer.gauge("fleet_workers", live)
                tracer.gauge("drain_rate", round(drain_rate, 3))
                if self.paths.stop.exists():
                    self.say("fleet: operator STOP sentinel seen")
                    break
                if max_runtime is not None and now - start > max_runtime:
                    self.say("fleet: max runtime reached")
                    break
                if drain and depth == 0 and claims == 0:
                    self.say("fleet: spool drained")
                    break
                backlog = depth + claims
                target = min(
                    self.max_workers,
                    max(
                        self.min_workers,
                        -(-backlog // self.backlog_per_worker),  # ceil div
                    ),
                )
                if target > live:
                    for _ in range(target - live):
                        self._spawn()
                    tracer.event("worker_spawned", count=target - live, workers=target)
                    self.say(f"fleet: scaled up to {target} worker(s) (depth {depth})")
                    below_since = None
                elif target < live:
                    # Hysteresis: a backlog must stay low for a full
                    # cooldown before anyone is dismissed, then one per
                    # tick -- lulls are cheap, respawns are not.
                    if below_since is None:
                        below_since = now
                    elif now - below_since >= self.cooldown:
                        self._retire_one()
                        tracer.event("worker_retired", workers=self._live_count())
                        self.say(f"fleet: retiring one worker (depth {depth})")
                else:
                    below_since = None
                time.sleep(self.interval)
        finally:
            self._shutdown()
            self.report.final_depth = self.spool.depth()
            tracer.event(
                "fleet_exit",
                spawned=self.report.spawned,
                retired=self.report.retired,
                peak=self.report.peak_workers,
                depth=self.report.final_depth,
            )
            if own_trace is not None:
                own_trace.close()
        return self.report

    def _shutdown(self) -> None:
        """Stop every remaining worker and wait for it -- no orphans."""
        for worker in self._workers:
            worker.stop_file.touch()
        deadline = time.monotonic() + 15.0
        for worker in self._workers:
            try:
                worker.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                worker.proc.terminate()
                try:
                    worker.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    worker.proc.kill()
                    worker.proc.wait()
            self.report.exit_codes.append(worker.proc.returncode)
            worker.stop_file.unlink(missing_ok=True)
        self._workers.clear()


def run_fleet(
    queue_dir: str | os.PathLike,
    drain: bool = False,
    max_runtime: float | None = None,
    **kwargs,
) -> FleetReport:
    """Convenience wrapper: build a :class:`FleetController` and run it."""
    return FleetController(queue_dir, **kwargs).run(drain=drain, max_runtime=max_runtime)
