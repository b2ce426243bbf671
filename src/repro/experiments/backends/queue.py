"""Shared work-queue backend: a sharded file spool drained by worker daemons.

The spool is a directory (local disk or shared filesystem) whose layout
lives in :mod:`repro.experiments.backends.spool`::

    <queue-dir>/
        spool.json                  # layout guard ({"shards": 8})
        shards/sNN/<name>.json      # unclaimed tickets, hash-sharded
        index/sNN.log               # per-shard ready index (append-on-enqueue)
        claims/<name>.json          # claimed tickets (atomic-rename leases)
        claims/<name>.hb            # heartbeat, touched while the ticket runs
        claims/<name>.rest          # owner-published not-yet-started points
        claims/<name>.steal         # thief-claimed point positions
        results/<point>.json        # one result per *point*, written atomically
        STOP                        # operator sentinel: every daemon exits
        STOP.<nonce>                # per-sweep sentinel for spawned daemons

Claiming is an atomic ``os.rename`` from the spool into ``claims/``:
exactly one of any number of racing daemons wins; the losers see the file
gone and move on.  The per-shard ready index makes a claim O(1)
amortised instead of O(spool) -- see ``spool.py`` for the scan-cost
story.

**Tickets carry one or more sweep points.**  A multi-point ("block")
ticket amortises claim overhead over its points and is the unit of
**work stealing**: while executing, the owner publishes the positions it
has not started yet in ``<name>.rest``; an idle daemon that finds the
spool empty reads the rest files, carves off the tail half of the
deepest one by exclusively creating ``<name>.steal``, and republishes
the carved points as a fresh ticket.  The owner re-reads the steal file
before each point and skips carved positions.  Both sides write results
under per-*point* filenames derived from the content-hash cache key, so
the occasional race (owner already executing a point the thief carved)
costs duplicate work but never divergent records -- the store stays
field-identical to a serial run.

A claimed ticket whose heartbeat goes stale (daemon died) is requeued by
the collecting backend: the points that neither landed in ``results/``
nor were stolen are republished as a new ticket, up to ``max_requeues``
attempts.

Workers run ``python -m repro.experiments worker <queue-dir>`` -- any
number, started before or after the sweep, on the same machine or any
machine sharing the filesystem; ``python -m repro.experiments fleet``
(:mod:`repro.experiments.backends.fleet`) provisions and retires them
automatically from spool depth.  Each ticket point normally executes in
a *subprocess watchdog* (true worker-side runtime enforcement);
``--inline`` skips the subprocess for trusted, short, timeout-less
tickets -- the drain-benchmark configuration.

Workers given ``--store`` also persist full ``ResultRecord`` shards
locally (same cache keys as the submitting run), which
``ResultStore.merge`` / ``python -m repro.experiments merge`` integrate
into a central store.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Callable

from repro.experiments.backends.base import ExecutionBackend, Task, execute_point
from repro.experiments.backends.spool import SHARDS, QueuePaths, ShardedSpool, SpoolStats
from repro.experiments.store import ResultRecord, ResultStore, atomic_write_text
from repro.obs.trace import NULL_TRACER, TraceWriter, trace_dir_from_env

#: Daemon/collector diagnostics; ``progress=`` callbacks override it, the
#: CLI's ``--verbose/-q`` flags set its effective level.
logger = logging.getLogger("repro.experiments.queue")

#: How long (seconds) a claim may go without a heartbeat before the
#: collector treats the daemon as dead and requeues the ticket.  Heartbeats
#: are touched every watchdog tick (~0.1 s), so this is very conservative
#: on one machine.  Staleness compares the collector's clock against mtimes
#: written by the worker's host: on a shared filesystem keep clocks
#: NTP-synced and raise ``lease_timeout`` above the skew plus any attribute
#: -caching delay (NFS actimeo), or healthy workers will be requeued.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Watchdog tick: heartbeat period and result-poll granularity.
_WATCHDOG_TICK = 0.1

#: A thief only carves tickets with at least this many unstarted points.
MIN_STEAL_POINTS = 2


def _write_json_atomic(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True))


# -- tickets -------------------------------------------------------------------


def point_payload(task: Task) -> dict:
    """One sweep point as it rides inside a ticket (self-contained)."""
    point = task.point
    return {
        "index": point.index,
        "scenario": point.scenario,
        "params": point.params,
        "seed": point.seed,
        "replicate": point.replicate,
        "key": task.key,
    }


def point_result_name(point: dict, nonce: str) -> str:
    """The per-point result filename: the index prefix keeps listings in
    grid order, the content-hash key makes duplicate executions land on
    the same file, and the per-sweep nonce keeps concurrent sweeps with
    overlapping points on a shared spool from clobbering each other's
    in-flight state."""
    return f"{point['index']:06d}-{point['key']}-{nonce}.json"


def ticket_name(points: list[dict], nonce: str, tag: str | None = None) -> str:
    """Ticket filename ``<index>-blk<k>[-<tag>]-<digest>-<nonce>.json``.

    ``points`` are ticket point dicts (see :func:`point_payload`); the
    digest hashes their cache keys.  ``tag`` distinguishes republished
    generations (reclaims, steals, stop-time remainders) so a fresh claim
    can never collide with a stale lease of the same name.
    """
    digest = hashlib.sha256("/".join(p["key"] for p in points).encode()).hexdigest()[:12]
    parts = [f"{points[0]['index']:06d}", f"blk{len(points)}", tag, digest, nonce]
    return "-".join(part for part in parts if part) + ".json"


def ticket_payload(tasks: list[Task], nonce: str) -> dict:
    """The self-contained JSON body a daemon needs to execute the ticket."""
    first = tasks[0]
    points = []
    for task in tasks:
        point = point_payload(task)
        point["result_name"] = point_result_name(point, nonce)
        points.append(point)
    return {
        "schema": 2,
        "points": points,
        "scenario_version": first.scenario_version,
        "code_version": first.code_version,
        "scenario_modules": list(first.scenario_modules),
        "timeout": first.timeout,
        "attempts": 0,
        "nonce": nonce,
    }


def record_from_point(ticket: dict, point: dict, outcome: dict) -> ResultRecord:
    """Reconstruct the full result record a ticket point + outcome describe."""
    return ResultRecord(
        key=point["key"],
        scenario=point["scenario"],
        params=point["params"],
        seed=point["seed"],
        replicate=point["replicate"],
        status=outcome["status"],
        result=outcome.get("result"),
        error=outcome.get("error"),
        duration_s=outcome.get("duration_s", 0.0),
        scenario_version=ticket.get("scenario_version", "1"),
        code_version=ticket.get("code_version", ""),
        meta=outcome.get("meta") or {},
    )


def _read_positions(path: Path) -> set[int]:
    """The point positions listed in a rest/steal sidecar (empty if none)."""
    try:
        return set(json.loads(path.read_text()).get("positions", ()))
    except (OSError, json.JSONDecodeError, AttributeError):
        return set()


# -- worker daemon -------------------------------------------------------------


def _watchdog_child(conn, scenario: str, params: dict, seed: int, modules: list) -> None:
    """Task subprocess entry: run the point, report the outcome, exit."""
    conn.send(execute_point(scenario, params, seed, tuple(modules)))
    conn.close()


def _execute_with_watchdog(
    point: dict,
    timeout: float | None,
    modules: list,
    heartbeat: Path,
    mp_start_method: str = "spawn",
) -> dict:
    """Run one ticket point in a child process under a runtime-limit watchdog.

    The daemon heartbeats while the child runs; a child that overruns the
    ticket's ``timeout`` is terminated (then killed) and reported as a
    ``timeout`` outcome, and a child that dies without reporting (crash,
    OOM-kill) becomes an ``error`` outcome -- the point never goes
    unanswered.
    """
    ctx = multiprocessing.get_context(mp_start_method)
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_watchdog_child,
        args=(send, point["scenario"], point["params"], point["seed"], modules),
        # Daemonic: a daemon that exits (STOP, idle-out, unhandled error)
        # takes the in-flight task process with it instead of orphaning it.
        daemon=True,
    )
    start = time.monotonic()
    proc.start()
    send.close()  # parent's copy: the child's death now shows up as EOF
    deadline = None if timeout is None else start + float(timeout)
    outcome = None
    try:
        while outcome is None:
            heartbeat.touch()
            if recv.poll(_WATCHDOG_TICK):
                try:
                    outcome = recv.recv()
                except EOFError:
                    outcome = {
                        "status": "error",
                        "error": (
                            f"task process died without reporting "
                            f"(exitcode={proc.exitcode})"
                        ),
                        "duration_s": time.monotonic() - start,
                    }
            elif deadline is not None and time.monotonic() > deadline:
                outcome = {
                    "status": "timeout",
                    "error": f"task exceeded {timeout}s runtime limit (killed by worker watchdog)",
                    "duration_s": float(timeout),
                }
    finally:
        # Timeout, KeyboardInterrupt, anything: never leave the task
        # process running unsupervised.
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
        proc.join(timeout=5.0)
        recv.close()
    return outcome


def try_steal(
    paths: QueuePaths, spool: ShardedSpool, tracer=NULL_TRACER, say=None
) -> bool:
    """Carve the tail half off the deepest in-flight block ticket.

    Called by an idle daemon when the spool is empty.  Scans the owner
    -published ``.rest`` sidecars, picks the ticket with the most
    unstarted points (at least :data:`MIN_STEAL_POINTS`), claims the tail
    half by *exclusively creating* the ``.steal`` sidecar (one thief per
    ticket, ever), and republishes the carved points as a fresh spool
    ticket.  Returns True when a carve-off was published -- the caller's
    next claim pass will pick it up.

    Races are benign by construction: the owner re-reads the steal file
    before each point, and a point the owner had already started lands on
    the same per-point result filename the thief's copy would -- duplicate
    work, identical record.
    """
    try:
        rest_entries = [
            entry
            for entry in os.scandir(paths.claims)
            if entry.name.endswith(".rest")
        ]
    except FileNotFoundError:
        return False
    best_name, best_positions = None, ()
    for entry in rest_entries:
        name = entry.name[: -len(".rest")]
        if not (paths.claims / name).exists():
            # The owner finished and cleaned up mid-scan; drop the
            # orphaned sidecar so the next scan is clean.
            Path(entry.path).unlink(missing_ok=True)
            paths.steal(name).unlink(missing_ok=True)
            continue
        if paths.steal(name).exists():
            continue  # already carved once; one thief per ticket
        positions = sorted(_read_positions(Path(entry.path)))
        if len(positions) >= max(len(best_positions), MIN_STEAL_POINTS):
            best_name, best_positions = name, positions
    if best_name is None:
        return False
    take = best_positions[(len(best_positions) + 1) // 2 :]
    if not take:
        return False
    steal_path = paths.steal(best_name)
    try:
        fd = os.open(steal_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False  # another thief won the carve
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"positions": take}, sort_keys=True))
    try:
        ticket = json.loads((paths.claims / best_name).read_text())
    except (OSError, json.JSONDecodeError):
        # The owner completed between the scan and the carve; retract.
        steal_path.unlink(missing_ok=True)
        return False
    points = ticket["points"]
    carved = [points[q] for q in take if q < len(points)]
    if not carved:
        steal_path.unlink(missing_ok=True)
        return False
    payload = dict(ticket)
    payload["points"] = carved
    new_name = ticket_name(carved, ticket["nonce"], f"s{uuid.uuid4().hex[:6]}")
    spool.enqueue(new_name, payload)
    tracer.event("steal", ticket=best_name, points=len(carved), carved=new_name)
    if say is not None:
        say(f"worker: stole {len(carved)} point(s) from {best_name}")
    return True


def run_worker(
    queue_dir: str | os.PathLike,
    store: ResultStore | None = None,
    max_idle: float | None = None,
    poll_interval: float = 0.2,
    mp_start_method: str = "spawn",
    progress: Callable[[str], None] | None = None,
    stop_file: str | os.PathLike | None = None,
    inline: bool = False,
    steal: bool = True,
    stats: SpoolStats | None = None,
) -> int:
    """Drain tickets from ``queue_dir`` until STOP (or ``max_idle`` seconds
    without work); returns the number of ticket *points* executed.

    Two stop sentinels: the spool-global ``STOP`` (an operator winding the
    whole fleet down) and an optional ``stop_file`` (how a sweep or fleet
    controller dismisses only the daemons it spawned, without touching
    external ones).

    The daemon claims one ticket at a time (an index-entry read, not a
    directory scan -- see ``spool.py``).  Stop sentinels are honoured
    between points: the claimed ticket's unexecuted points are
    republished to the spool as one fresh ticket.

    ``inline`` executes timeout-less points in-process instead of under
    the subprocess watchdog -- much faster per point, but a crashing task
    takes the daemon with it and nothing heartbeats *during* a point, so
    reserve it for trusted, short tasks (the drain benchmark).  Points
    with a runtime budget always get the watchdog.

    ``steal`` lets an idle daemon carve unstarted points off another
    daemon's in-flight block ticket (see :func:`try_steal`).

    With ``store``, every outcome is also persisted as a full
    ``ResultRecord`` in a local shard -- same cache keys as the submitting
    run, so ``ResultStore.merge`` integrates it later.

    Diagnostics go to the ``repro.experiments.queue`` logger unless a
    ``progress`` callback overrides them.  When ``REPRO_TRACE_DIR`` names a
    directory, the daemon also writes a ``worker-<pid>`` JSONL trace there:
    lease/run/done task lines plus watchdog-kill, steal and requeue events.
    """
    paths = QueuePaths(queue_dir)
    paths.ensure()
    spool = ShardedSpool(paths, stats=stats)
    say = progress or logger.info
    trace_dir = trace_dir_from_env()
    tracer = NULL_TRACER
    if trace_dir is not None:
        try:
            tracer = TraceWriter(
                Path(trace_dir) / f"worker-{os.getpid()}.jsonl",
                source="worker",
                queue_dir=str(paths.root),
            )
        except OSError:
            tracer = NULL_TRACER  # an unwritable trace dir never stops a daemon
    own_stop = None if stop_file is None else Path(stop_file)

    def stop_seen() -> bool:
        return paths.stop.exists() or (own_stop is not None and own_stop.exists())

    def owned(name: str, ticket: dict) -> bool:
        # A claim is still ours only while its attempts count matches: a
        # collector that judged this daemon dead (e.g. it was suspended
        # past the lease timeout) has republished the ticket's remaining
        # points and deleted this claim, or a stale same-name claim was
        # requeued with a bumped count.
        try:
            return (
                json.loads((paths.claims / name).read_text()).get("attempts")
                == ticket.get("attempts")
            )
        except (OSError, json.JSONDecodeError):
            return False

    def clear_claim(name: str) -> None:
        for path in (
            paths.claims / name,
            paths.heartbeat(name),
            paths.rest(name),
            paths.steal(name),
        ):
            path.unlink(missing_ok=True)

    def release(name: str, ticket: dict) -> None:
        if owned(name, ticket):
            clear_claim(name)

    def republish_remaining(name: str, ticket: dict, positions: list[int]) -> None:
        """Republish a ticket's unexecuted tail (stop mid-ticket)."""
        points = ticket["points"]
        remaining = [points[q] for q in positions if q < len(points)]
        if remaining:
            payload = dict(ticket)
            payload["points"] = remaining
            spool.enqueue(
                ticket_name(remaining, ticket["nonce"], f"q{uuid.uuid4().hex[:6]}"), payload
            )
            tracer.event("ticket_requeued", ticket=name, points=len(remaining))
        clear_claim(name)

    def run_ticket(name: str, ticket: dict) -> int:
        """Execute one ticket's points; returns the number executed."""
        points = ticket["points"]
        block = len(points) > 1
        stolen = _read_positions(paths.steal(name)) if block else set()
        modules = ticket.get("scenario_modules") or []
        timeout = ticket.get("timeout")
        done = 0
        for pos, point in enumerate(points):
            if pos in stolen:
                continue
            if stop_seen():
                republish_remaining(
                    name, ticket, [q for q in range(pos, len(points)) if q not in stolen]
                )
                return done
            if block:
                stolen |= _read_positions(paths.steal(name))
                if pos in stolen:
                    continue
                if pos > 0 and not owned(name, ticket):
                    # The collector reclaimed this lease mid-ticket (e.g.
                    # the daemon was suspended past the lease timeout);
                    # the remaining points now belong to someone else.
                    say(f"worker: lease on {name} was reclaimed mid-ticket; stopping it")
                    return done
                # Publish what a thief may carve: strictly-after positions.
                _write_json_atomic(
                    paths.rest(name),
                    {"positions": [q for q in range(pos + 1, len(points)) if q not in stolen]},
                )
            result_path = paths.results / point["result_name"]
            if result_path.exists():
                continue  # landed in an earlier attempt (half-run ticket)
            say(f"worker: running {name} ({point['scenario']} #{point['index']})")
            tracer.task(
                "running", point["index"], ticket=name, attempts=ticket.get("attempts", 0)
            )
            paths.heartbeat(name).touch()
            if inline and timeout is None:
                outcome = execute_point(
                    point["scenario"], point["params"], point["seed"], tuple(modules)
                )
            else:
                outcome = _execute_with_watchdog(
                    point, timeout, modules, paths.heartbeat(name), mp_start_method
                )
            if store is not None:
                store.put(record_from_point(ticket, point, outcome))
            _write_json_atomic(
                result_path, {"ticket": ticket, "point": point, "outcome": outcome}
            )
            done += 1
            say(
                f"worker: [{outcome['status']}] {point['result_name']} "
                f"({outcome.get('duration_s', 0.0):.2f}s)"
            )
            tracer.task(
                outcome["status"],
                point["index"],
                ticket=name,
                duration_s=outcome.get("duration_s", 0.0),
            )
            if outcome["status"] == "timeout":
                tracer.event("watchdog_kill", ticket=name, timeout_s=timeout)
        release(name, ticket)
        return done

    last_work = time.monotonic()
    n_done = 0
    while True:
        if stop_seen():
            say(f"worker: stop sentinel seen after {n_done} point(s)")
            break
        claimed = spool.claim()
        if claimed is None:
            if steal and try_steal(paths, spool, tracer, say):
                last_work = time.monotonic()
                continue
            if max_idle is not None and time.monotonic() - last_work > max_idle:
                say(f"worker: idle for {max_idle}s after {n_done} point(s)")
                break
            time.sleep(poll_interval)
            continue
        name, ticket = claimed
        if tracer.enabled:
            for point in ticket["points"]:
                tracer.task("leased", point["index"], ticket=name)
        done = run_ticket(name, ticket)
        if done:
            n_done += done
            last_work = time.monotonic()
    tracer.event("worker_exit", executed=n_done)
    tracer.close()
    return n_done


# -- collecting backend --------------------------------------------------------


class WorkQueueBackend(ExecutionBackend):
    """Submit tickets to a spool directory; collect results as they land.

    ``workers > 0`` spawns that many local worker daemons (terminated at
    shutdown via the STOP sentinel); ``workers == 0`` relies entirely on
    externally-started daemons pointed at the same directory -- same
    machine or any machine sharing the filesystem -- or on a fleet
    controller (``python -m repro.experiments fleet``).

    ``points_per_ticket > 1`` groups consecutive sweep points into block
    tickets: fewer claims per sweep, and the unit the work-stealing
    protocol splits.
    """

    name = "queue"

    def __init__(
        self,
        queue_dir: str | os.PathLike,
        workers: int = 0,
        mp_start_method: str = "spawn",
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_requeues: int = 3,
        worker_poll_interval: float = 0.05,
        worker_env: dict[str, str] | None = None,
        points_per_ticket: int = 1,
        inline_workers: bool = False,
    ) -> None:
        if points_per_ticket < 1:
            raise ValueError("points_per_ticket must be at least 1")
        self.paths = QueuePaths(queue_dir)
        self.paths.ensure()
        self.spool = ShardedSpool(self.paths)
        # Distinguishes this sweep's tickets and spawned daemons on a
        # shared spool (the global STOP sentinel belongs to the operator).
        self.nonce = uuid.uuid4().hex[:8]
        self._stop_file = self.paths.root / f"STOP.{self.nonce}"
        self.lease_timeout = lease_timeout
        self.max_requeues = max_requeues
        self.mp_start_method = mp_start_method
        self.points_per_ticket = points_per_ticket
        #: Outstanding work, keyed by per-point result filename.
        self._tasks: dict[str, Task] = {}
        self._buffer: list[Task] = []
        self._procs: list[subprocess.Popen] = []
        # Lease checks stat claim/heartbeat files per outstanding ticket, so
        # run them on a fraction of the lease timeout, not on every poll.
        self._reclaim_interval = min(1.0, max(lease_timeout / 2.0, 0.05))
        self._next_reclaim = time.monotonic() + self._reclaim_interval
        env = dict(os.environ)
        if worker_env:
            env.update(worker_env)
        for _ in range(max(workers, 0)):
            argv = [
                sys.executable,
                "-m",
                "repro.experiments",
                "worker",
                str(self.paths.root),
                "--poll-interval",
                str(worker_poll_interval),
                "--mp-start",
                mp_start_method,
                "--stop-file",
                str(self._stop_file),
            ]
            if inline_workers:
                argv.append("--inline")
            self._procs.append(
                subprocess.Popen(
                    argv,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )

    def submit(self, task: Task) -> None:
        """Enqueue the task (buffered into a block ticket when configured)."""
        self._buffer.append(task)
        if len(self._buffer) >= self.points_per_ticket:
            self._flush()

    def _flush(self) -> None:
        """Publish the buffered tasks as one spool ticket."""
        if not self._buffer:
            return
        tasks = self._buffer
        self._buffer = []
        payload = ticket_payload(tasks, self.nonce)
        name = ticket_name(payload["points"], self.nonce)
        for task, point in zip(tasks, payload["points"]):
            self._tasks[point["result_name"]] = task
            self.trace.task("queued", task.index, ticket=name)
        self.spool.enqueue(name, payload)

    def poll(self) -> list[tuple[Task, dict]]:
        """Collect results from the spool, requeueing stale-leased tickets."""
        # A partial block left in the buffer is sealed at the first poll:
        # the runner only polls once every pending task was submitted.
        self._flush()
        # Reclaim first, so a ticket that just exhausted its lease attempts
        # surfaces as an error outcome in this same poll.
        if time.monotonic() >= self._next_reclaim:
            self._next_reclaim = time.monotonic() + self._reclaim_interval
            self._reclaim_dead_leases()
        batch: list[tuple[Task, dict]] = []
        # One directory scan per poll, not one stat per outstanding task.
        with os.scandir(self.paths.results) as entries:
            landed = [e.name for e in entries if e.name in self._tasks]
        for name in landed:
            path = self.paths.results / name
            payload = json.loads(path.read_text())
            batch.append((self._tasks.pop(name), payload["outcome"]))
            path.unlink(missing_ok=True)
        batch.extend(self._check_daemons())
        return batch

    def _own_claims(self) -> list[str]:
        """This sweep's claim names (ticket files only, not sidecars)."""
        suffix = f"-{self.nonce}.json"
        try:
            with os.scandir(self.paths.claims) as entries:
                return [e.name for e in entries if e.name.endswith(suffix)]
        except FileNotFoundError:
            return []

    def _reclaim_dead_leases(self) -> None:
        """Republish outstanding claims whose daemon stopped heartbeating.

        Scans the claims directory for this sweep's nonce rather than a
        task map: steal carve-offs and republished remainders are claims
        the collector never submitted itself, and their daemons can die
        too.  Only the points that neither landed in ``results/`` nor
        were carved off by a thief are republished.
        """
        now = time.time()
        trace = self.trace
        if trace.enabled:
            trace.gauge("spool_outstanding", len(self._tasks))
        max_age = 0.0
        for name in self._own_claims():
            claim = self.paths.claims / name
            beat = self.paths.heartbeat(name)
            try:
                last = beat.stat().st_mtime if beat.exists() else claim.stat().st_mtime
            except FileNotFoundError:
                continue  # completed (or requeued) between the checks
            age = now - last
            if age > max_age:
                max_age = age
            if age <= self.lease_timeout:
                continue
            try:
                ticket = json.loads(claim.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            points = ticket["points"]
            stolen = _read_positions(self.paths.steal(name))
            remaining = [
                point
                for pos, point in enumerate(points)
                if pos not in stolen and not (self.paths.results / point["result_name"]).exists()
            ]
            attempts = ticket.get("attempts", 0) + 1
            logger.warning(
                "lease on %s stale for %.1fs (attempt %d/%d, %d point(s) left)",
                name, age, attempts, self.max_requeues, len(remaining),
            )
            trace.event(
                "lease_reclaimed",
                ticket=name,
                heartbeat_age_s=round(age, 3),
                attempts=attempts,
                points=len(remaining),
            )
            if remaining and attempts > self.max_requeues:
                for point in remaining:
                    _write_json_atomic(
                        self.paths.results / point["result_name"],
                        {
                            "ticket": ticket,
                            "point": point,
                            "outcome": {
                                "status": "error",
                                "error": (
                                    f"ticket lease expired {attempts} time(s) "
                                    f"(worker died mid-task); giving up"
                                ),
                                "duration_s": 0.0,
                            },
                        },
                    )
            elif remaining:
                payload = dict(ticket)
                payload["points"] = remaining
                payload["attempts"] = attempts
                # Republish under a fresh generation name *before* retiring
                # the stale claim: a crash in between costs a duplicate
                # ticket (deduped by per-point result files), never a loss.
                self.spool.enqueue(ticket_name(remaining, self.nonce, f"r{attempts}"), payload)
            for stale in (claim, beat, self.paths.rest(name), self.paths.steal(name)):
                stale.unlink(missing_ok=True)
        if trace.enabled and max_age:
            trace.gauge("max_heartbeat_age_s", round(max_age, 3))

    def _check_daemons(self) -> list[tuple[Task, dict]]:
        """Fail outstanding tasks if every spawned daemon is gone.

        Nothing would ever drain them, so surface the dead fleet as error
        outcomes (the backend contract: failures become outcome dicts, the
        sweep's finished records survive) rather than raising.
        """
        if not self._procs or not self._tasks:
            return []
        if any(proc.poll() is None for proc in self._procs):
            return []
        codes = [proc.returncode for proc in self._procs]
        now = time.time()
        hb_suffix = f"-{self.nonce}.json.hb"

        def any_heartbeat_fresh() -> bool:
            try:
                with os.scandir(self.paths.claims) as entries:
                    beats = [e for e in entries if e.name.endswith(hb_suffix)]
            except FileNotFoundError:
                return False
            for entry in beats:
                try:
                    if now - entry.stat().st_mtime <= self.lease_timeout:
                        return True
                except FileNotFoundError:
                    continue
            return False

        # A fresh heartbeat on any of our tickets means an external daemon
        # is also draining this spool; leave everything to it rather than
        # discarding work it would have picked up.
        if any_heartbeat_fresh():
            return []
        logger.error(
            "all %d spawned queue workers exited (exit codes %s) with %d task(s) outstanding",
            len(self._procs), codes, len(self._tasks),
        )
        self.trace.event("worker_fleet_dead", exit_codes=codes, outstanding=len(self._tasks))
        batch = []
        for name in list(self._tasks):
            landed = self.paths.results / name
            if landed.exists():
                # A daemon finished this one on its way out; take the
                # real outcome over a synthesized failure.
                payload = json.loads(landed.read_text())
                batch.append((self._tasks.pop(name), payload["outcome"]))
                landed.unlink(missing_ok=True)
                continue
            batch.append(
                (
                    self._tasks.pop(name),
                    {
                        "status": "error",
                        "error": (
                            f"all {len(self._procs)} spawned queue workers exited "
                            f"(exit codes {codes}) before this task ran"
                        ),
                        "duration_s": 0.0,
                    },
                )
            )
        # Sweep this sweep's stranded spool tickets and claims so a shared
        # spool is not littered with work nothing will ever drain.
        suffix = f"-{self.nonce}.json"
        for directory in map(self.paths.shard_dir, range(SHARDS)):
            try:
                with os.scandir(directory) as entries:
                    stale = [e.path for e in entries if e.name.endswith(suffix)]
            except FileNotFoundError:
                continue
            for path in stale:
                Path(path).unlink(missing_ok=True)
        for name in self._own_claims():
            for path in (
                self.paths.claims / name,
                self.paths.heartbeat(name),
                self.paths.rest(name),
                self.paths.steal(name),
            ):
                path.unlink(missing_ok=True)
        return batch

    def shutdown(self) -> None:
        """Dismiss the daemons this sweep spawned (external ones keep going)."""
        if not self._procs:
            return  # external daemons keep draining other sweeps
        # Dismiss only the daemons this sweep spawned: the per-instance
        # sentinel leaves external daemons (and the operator's global STOP
        # semantics) untouched.
        self._stop_file.touch()
        deadline = time.monotonic() + 10.0
        for proc in self._procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait()
        self._procs.clear()
        self._stop_file.unlink(missing_ok=True)
