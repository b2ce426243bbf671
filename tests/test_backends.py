"""Execution backends: cross-backend equivalence, watchdog, spool, merge.

The queue-backend tests spawn real worker daemons (``python -m
repro.experiments worker``) or drain the spool in-process with
:func:`run_worker`; scenario registrations below are shipped to workers by
module name (``tests.test_backends``), exactly like user scenarios are.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    ParamSpec,
    ResultStore,
    SerialBackend,
    WorkQueueBackend,
    expand_grid,
    get_scenario,
    run_sweep,
    run_worker,
    scenario,
)
from repro.experiments.backends import resolve_backend
from repro.experiments.backends.base import Task
from repro.experiments.backends.queue import ticket_name
from repro.experiments.backends.spool import SHARDS, ShardedSpool
from repro.experiments.store import ResultRecord, cache_key


def _task(point, **overrides) -> Task:
    fields = dict(
        point=point,
        key=cache_key(point.scenario, point.params, point.seed),
        scenario_version="1",
        code_version=repro.__version__,
        scenario_modules=("tests.test_backends",),
    )
    fields.update(overrides)
    return Task(**fields)

_SRC = Path(repro.__file__).resolve().parents[1]
_ROOT = _SRC.parent
#: Daemon subprocesses must import both `repro` and this test module.
_WORKER_ENV = {
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(_SRC), str(_ROOT), os.environ.get("PYTHONPATH", "")) if p
    )
}


@scenario("bk-echo", params=[ParamSpec("x", int, 1)], default_grid={"x": [1, 2, 3]})
def _bk_echo(*, seed, x):
    return {"x": x, "seed_mod": seed % 1000, "squared": x * x}


@scenario("bk-sleepy", params=[ParamSpec("delay", float, 5.0)])
def _bk_sleepy(*, seed, delay):
    time.sleep(delay)
    return {"slept": delay}


@scenario("bk-crash", params=[ParamSpec("x", int, 1)])
def _bk_crash(*, seed, x):
    os.kill(os.getpid(), signal.SIGKILL)
    return {"unreachable": True}  # pragma: no cover


@scenario("bk-unjson", params=[ParamSpec("x", int, 1)])
def _bk_unjson(*, seed, x):
    return {"x": x, "bad": object()}


def _comparable(record) -> dict:
    data = asdict(record)
    data.pop("duration_s")
    return data


class TestCrossBackendEquivalence:
    def test_same_sweep_identical_records_across_backends(self, tmp_path):
        """Acceptance: serial, pool and a 2-daemon queue produce
        field-identical records (modulo duration_s)."""
        points = expand_grid(get_scenario("bk-echo"), {"x": [1, 2, 3, 4]})
        serial = run_sweep(points, store=None, backend="serial")
        pool = run_sweep(
            points, store=None, backend="pool", workers=2, mp_start_method="fork"
        )
        queue_backend = WorkQueueBackend(
            tmp_path / "spool",
            workers=2,
            mp_start_method="fork",
            worker_env=_WORKER_ENV,
        )
        try:
            queued = run_sweep(
                points, store=ResultStore(tmp_path / "store"), backend=queue_backend
            )
        finally:
            queue_backend.shutdown()
        assert serial.ok and pool.ok and queued.ok
        assert queued.executed == 4
        serial_records = [_comparable(r) for r in serial.records]
        assert [_comparable(r) for r in pool.records] == serial_records
        assert [_comparable(r) for r in queued.records] == serial_records

    def test_auto_backend_preserves_historical_selection(self):
        assert resolve_backend("auto", workers=1).name == "serial"
        assert resolve_backend("auto", workers=4, n_tasks=2).name == "pool"
        assert resolve_backend("auto", workers=1, task_timeout=1.0).name == "pool"
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("bogus")
        with pytest.raises(ValueError, match="queue_dir"):
            resolve_backend("queue")

    def test_serial_backend_rejects_timeout(self):
        points = expand_grid(get_scenario("bk-echo"), {"x": [1]})
        with pytest.raises(ValueError, match="timeout"):
            run_sweep(points, store=None, backend="serial", task_timeout=1.0)

    def test_maxtasksperchild_zero_means_never_recycle(self):
        # Library callers passing 0 must not hand an invalid value to
        # multiprocessing.Pool (which requires a positive int or None).
        points = expand_grid(get_scenario("bk-echo"), {"x": [1, 2]})
        report = run_sweep(
            points, store=None, workers=2, maxtasksperchild=0, mp_start_method="fork"
        )
        assert report.ok and report.executed == 2


class TestQueueBackend:
    def test_watchdog_kills_over_budget_task_and_persists_timeout(self, tmp_path):
        """Acceptance: a worker-side runtime limit actually kills an
        over-budget task and a `timeout` record lands in the store."""
        store = ResultStore(tmp_path / "store")
        points = expand_grid(get_scenario("bk-sleepy"), {"delay": [30.0]})
        backend = WorkQueueBackend(
            tmp_path / "spool", workers=1, mp_start_method="fork", worker_env=_WORKER_ENV
        )
        start = time.monotonic()
        try:
            report = run_sweep(points, store=store, backend=backend, task_timeout=1.0)
        finally:
            backend.shutdown()
        assert time.monotonic() - start < 20.0
        record = report.records[0]
        assert record.status == "timeout"
        assert "killed by worker watchdog" in record.error
        assert report.failed == 1 and not report.ok
        persisted = store.get("bk-sleepy", record.key)
        assert persisted is not None and persisted.status == "timeout"

    def test_worker_crash_mid_task_becomes_error_record(self, tmp_path):
        points = expand_grid(get_scenario("bk-crash"), {"x": [1]})
        backend = WorkQueueBackend(
            tmp_path / "spool", workers=1, mp_start_method="fork", worker_env=_WORKER_ENV
        )
        try:
            report = run_sweep(points, store=None, backend=backend)
        finally:
            backend.shutdown()
        record = report.records[0]
        assert record.status == "error"
        assert "died without reporting" in record.error
        assert report.failed == 1

    def test_external_worker_drains_and_writes_shard(self, tmp_path):
        """workers=0: tickets wait for an external daemon; the daemon's
        --store shard holds full records under the same cache keys."""
        shard = ResultStore(tmp_path / "shard")
        points = expand_grid(get_scenario("bk-echo"), {"x": [5, 6]})
        backend = WorkQueueBackend(tmp_path / "spool", workers=0)
        for p in points:
            backend.submit(_task(p))
        assert backend.spool.depth() == 2
        n_done = run_worker(
            tmp_path / "spool",
            store=shard,
            max_idle=0.5,
            poll_interval=0.05,
            mp_start_method="fork",
        )
        assert n_done == 2
        collected = backend.poll()
        assert len(collected) == 2
        assert shard.count("bk-echo") == 2
        for task, outcome in collected:
            assert outcome["status"] == "ok"
            record = shard.get("bk-echo", task.key)
            assert record is not None
            assert record.result == outcome["result"]
            assert record.seed == task.point.seed

    def test_dead_worker_fleet_fails_outstanding_tasks(self, tmp_path):
        """A fully-exited spawned fleet becomes error outcomes, not an
        exception out of poll() -- finished records must survive."""
        backend = WorkQueueBackend(tmp_path / "spool", workers=0)
        backend.submit(_task(expand_grid(get_scenario("bk-echo"), {"x": [7]})[0]))
        dead = subprocess.Popen([sys.executable, "-c", ""])
        dead.wait()
        backend._procs = [dead]
        batch = backend.poll()
        assert len(batch) == 1
        _, outcome = batch[0]
        assert outcome["status"] == "error"
        assert "workers exited" in outcome["error"]
        backend._procs = []  # the dummy is not a real daemon; skip STOP logic
        backend.shutdown()

    def test_claimed_ticket_is_leased_and_drains_to_serial_records(self, tmp_path):
        """A claim moves exactly one ticket into claims/ and heartbeats it;
        a worker then drains the spool to records matching a serial run
        field for field."""
        points = expand_grid(get_scenario("bk-echo"), {"x": [1, 2, 3, 4, 5]})
        backend = WorkQueueBackend(tmp_path / "spool", workers=0)
        paths = backend.paths
        for p in points:
            backend.submit(_task(p))

        name, ticket = ShardedSpool(paths).claim()
        [point] = ticket["points"]
        claimed = points[point["index"]]
        assert point["key"] == cache_key("bk-echo", claimed.params, claimed.seed)
        assert backend.spool.depth() == 4
        assert (paths.claims / name).exists() and paths.heartbeat(name).exists()
        # Hand it back so the worker below sees the full spool.
        paths.heartbeat(name).unlink()
        (paths.claims / name).unlink()
        backend.spool.enqueue(name, ticket)

        shard = ResultStore(tmp_path / "shard")
        n_done = run_worker(
            tmp_path / "spool",
            store=shard,
            max_idle=0.5,
            poll_interval=0.05,
            mp_start_method="fork",
        )
        assert n_done == 5
        assert not list(paths.claims.glob("*"))  # all leases released
        collected = backend.poll()
        assert sorted(t.index for t, _ in collected) == [0, 1, 2, 3, 4]
        assert all(outcome["status"] == "ok" for _, outcome in collected)

        serial = run_sweep(points, store=None, backend="serial")
        by_index = {t.index: o for t, o in collected}
        for record, point in zip(serial.records, points):
            assert by_index[point.index]["result"] == record.result
            shard_record = shard.get("bk-echo", cache_key("bk-echo", point.params, point.seed))
            assert shard_record is not None
            assert _comparable(shard_record) == _comparable(record)

    def test_ticket_name_is_one_content_addressed_format(self):
        points = [{"index": 3, "key": "k1"}, {"index": 4, "key": "k2"}]
        name = ticket_name(points, "n0nce")
        assert re.fullmatch(r"000003-blk2-[0-9a-f]{12}-n0nce\.json", name)
        assert ticket_name([dict(p) for p in points], "n0nce") == name
        assert ticket_name(points, "n0nce", "r1") == name.replace("-blk2-", "-blk2-r1-")
        # The digest covers every point's cache key, not just the first.
        assert ticket_name([points[0], {"index": 4, "key": "k9"}], "n0nce") != name

    def test_stale_lease_is_requeued_then_failed(self, tmp_path):
        backend = WorkQueueBackend(
            tmp_path / "spool", workers=0, lease_timeout=0.1, max_requeues=1
        )
        paths = backend.paths
        points = expand_grid(get_scenario("bk-echo"), {"x": [9]})
        backend.submit(_task(points[0]))

        def spooled() -> list[Path]:
            return [t for i in range(SHARDS) for t in paths.shard_dir(i).glob("*.json")]

        def fake_dead_claim():
            # A worker claims the ticket, then dies without heartbeating.
            [ticket] = spooled()
            os.rename(ticket, paths.claims / ticket.name)
            stale = time.time() - 60.0
            os.utime(paths.claims / ticket.name, (stale, stale))

        fake_dead_claim()
        time.sleep(0.15)
        assert backend.poll() == []  # first expiry: republished
        # Reclaim republishes under a fresh generation name (a resumed
        # owner must never collide with the new claimant's lease).
        requeued = spooled()
        assert len(requeued) == 1
        assert "-r1-" in requeued[0].name
        assert json.loads(requeued[0].read_text())["attempts"] == 1

        fake_dead_claim()
        time.sleep(0.15)
        batch = backend.poll()  # second expiry: attempts exhausted
        assert len(batch) == 1
        task, outcome = batch[0]
        assert outcome["status"] == "error"
        assert "lease expired" in outcome["error"]


class TestResultIntegrity:
    def test_non_serializable_result_fails_point_with_clear_error(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("bk-unjson"), {"x": [1]})
        report = run_sweep(points, store=store)
        record = report.records[0]
        assert record.status == "error" and not report.ok
        assert "non-JSON-serializable" in record.error
        # The persisted failure replays identically: still an error, still
        # failing report.ok -- never a repr-stringified "success".
        replay = run_sweep(points, store=store)
        assert (replay.cached, replay.executed) == (1, 0)
        assert not replay.ok
        assert _comparable(replay.records[0]) == _comparable(record)

    def test_to_json_is_strict(self):
        record = ResultRecord(
            key="k", scenario="s", params={"x": 1}, seed=0, replicate=0,
            status="ok", result={"bad": object()},
        )
        with pytest.raises(TypeError):
            record.to_json()

    def test_pool_timeout_record_accounting(self):
        points = expand_grid(get_scenario("bk-sleepy"), {"delay": [30.0, 0.01]})
        report = run_sweep(
            points, store=None, workers=2, task_timeout=1.0, mp_start_method="fork"
        )
        timeout_record = report.records[0]
        assert timeout_record.status == "timeout"
        assert timeout_record.duration_s == 1.0
        assert timeout_record.result is None
        assert report.records[1].status == "ok"
        assert (report.executed, report.failed) == (2, 1)
        assert not report.ok


class TestStoreMerge:
    def test_merge_imports_shards_under_same_keys(self, tmp_path):
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        run_sweep(expand_grid(get_scenario("bk-echo"), {"x": [1, 2]}), store=left)
        run_sweep(expand_grid(get_scenario("bk-echo"), {"x": [2, 3]}), store=right)
        dest = ResultStore(tmp_path / "dest")
        assert dest.merge(left) == 2
        assert dest.merge(right) == 1  # x=2 already present (same cache key)
        assert dest.count("bk-echo") == 3
        # A merged store serves the same cache hits a central run would.
        report = run_sweep(expand_grid(get_scenario("bk-echo"), {"x": [1, 2, 3]}), store=dest)
        assert (report.cached, report.executed) == (3, 0)

    def test_merge_rejects_self(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="itself"):
            store.merge(tmp_path)

    def test_merge_summary_reports_what_happened(self, tmp_path):
        left = ResultStore(tmp_path / "left")
        run_sweep(expand_grid(get_scenario("bk-echo"), {"x": [1, 2, 3]}), store=left)
        dest = ResultStore(tmp_path / "dest")
        run_sweep(expand_grid(get_scenario("bk-echo"), {"x": [3]}), store=dest)
        summary = dest.merge(left)
        assert summary.scanned == 3
        assert summary.imported == 2
        assert summary.skipped == 1  # x=3 already present, store is write-once
        assert summary.replaced == 0
        assert summary.per_scenario == {"bk-echo": 2}
        assert summary == 2  # int back-compat (the imported count)
        assert int(summary) == 2
        again = dest.merge(left, overwrite=True)
        assert (again.imported, again.replaced, again.skipped) == (3, 3, 0)
        # The staging file never outlives the merge.
        assert not list((tmp_path / "dest").rglob(".merge-*"))

    def test_merge_under_concurrent_writer_keeps_all_records(self, tmp_path):
        """A worker put()-ing into the destination mid-merge races only on
        atomic renames: every record from both sides survives intact."""
        import threading

        source = ResultStore(tmp_path / "source")
        run_sweep(
            expand_grid(get_scenario("bk-echo"), {"x": list(range(1, 30))}), store=source
        )
        live = run_sweep(
            expand_grid(get_scenario("bk-echo"), {"x": list(range(30, 60))}), store=None
        )
        dest = ResultStore(tmp_path / "dest")

        def writer():
            for record in live.records:
                dest.put(record)

        thread = threading.Thread(target=writer)
        thread.start()
        summary = dest.merge(source)
        thread.join()
        assert summary.imported == 29
        records = list(dest.iter_records("bk-echo"))
        assert len(records) == 59  # nothing lost, nothing truncated
        assert {r.params["x"] for r in records} == set(range(1, 60))
