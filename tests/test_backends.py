"""Execution backends: cross-backend equivalence, pool crash isolation,
timeouts, result integrity and store merge.

Scenario registrations below are shipped to spawn-started pool workers by
module name (``tests.test_backends``), exactly like user scenarios are.
"""

import json
import multiprocessing
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
    ProcessPoolBackend,
    ResultStore,
    expand_grid,
    get_scenario,
    run_sweep,
    scenario,
)
from repro.experiments.backends import BACKEND_NAMES, resolve_backend
from repro.experiments.cli import main as cli_main
from repro.experiments.reporting import builtin_scenarios
from repro.experiments.store import ResultRecord

_SRC = Path(repro.__file__).resolve().parents[1]
_ROOT = _SRC.parent
#: Sweep subprocesses (and their spawned workers) must import both `repro`
#: and this test module.
_SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(_SRC), str(_ROOT), os.environ.get("PYTHONPATH", "")) if p
    ),
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
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"x": x}


@scenario("bk-unjson", params=[ParamSpec("x", int, 1)])
def _bk_unjson(*, seed, x):
    return {"x": x, "bad": object()}


def _comparable(record) -> dict:
    data = asdict(record)
    data.pop("duration_s")
    return data


class TestCrossBackendEquivalence:
    def test_same_sweep_identical_records_across_backends(self):
        """Acceptance: serial and pool produce field-identical records
        (modulo duration_s)."""
        points = expand_grid(get_scenario("bk-echo"), {"x": [1, 2, 3, 4]})
        serial = run_sweep(points, store=None, backend="serial")
        pool = run_sweep(
            points, store=None, backend="pool", workers=2, mp_start_method="fork"
        )
        assert serial.ok and pool.ok
        assert pool.executed == 4
        assert [_comparable(r) for r in pool.records] == [
            _comparable(r) for r in serial.records
        ]

    def test_auto_backend_preserves_historical_selection(self):
        assert resolve_backend("auto", workers=1).name == "serial"
        assert resolve_backend("auto", workers=4, n_tasks=2).name == "pool"
        assert resolve_backend("auto", workers=1, task_timeout=1.0).name == "pool"
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("bogus")

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


#: Runs the 3-point ``bk-crash`` sweep on a 2-worker pool in a fresh
#: interpreter and prints ``[status, error]`` per record as JSON.
_CRASH_SWEEP = """
import json, sys
import tests.test_backends
from repro.experiments import expand_grid, get_scenario, run_sweep
report = run_sweep(
    expand_grid(get_scenario("bk-crash"), {"x": [1, 2, 3]}),
    store=None, backend="pool", workers=2, mp_start_method=sys.argv[1],
)
print(json.dumps([[r.status, r.error] for r in report.records]))
"""


class TestPoolCrashIsolation:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_killed_mid_point_becomes_error_record(self, start_method):
        """A worker SIGKILLed at x=2 with no timeout set: that point is an
        `error` naming the dead worker, the others finish `ok`, and the
        sweep returns.  It runs in a subprocess so a hang fails here
        instead of stalling the suite."""
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_SWEEP, start_method],
            capture_output=True,
            text=True,
            timeout=30,
            cwd=_ROOT,
            env=_SUBPROCESS_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        (ok1, died, ok3) = json.loads(proc.stdout.strip().splitlines()[-1])
        assert ok1 == ["ok", None] and ok3 == ["ok", None]
        status, error = died
        assert status == "error"
        assert re.search(r"pool worker pid \d+ died while running this point", error)

    def test_timed_out_sweep_leaves_no_child_processes(self):
        points = expand_grid(get_scenario("bk-sleepy"), {"delay": [30.0]})
        report = run_sweep(
            points, store=None, workers=1, task_timeout=0.5, mp_start_method="fork"
        )
        assert report.records[0].status == "timeout"
        assert multiprocessing.active_children() == []


#: Wall-clock fields of ``fig3-engine-speedup``: the only result values
#: that legitimately differ between two runs of the same point.
_WALL_CLOCK = {"fig3-engine-speedup": {"dense_seconds", "event_seconds", "speedup"}}


@pytest.fixture(scope="class")
def fork_pool():
    backend = ProcessPoolBackend(workers=2, mp_start_method="fork")
    yield backend
    backend.shutdown()


class TestEveryScenarioAcrossBackends:
    @pytest.mark.parametrize("name", [scn.name for scn in builtin_scenarios()])
    def test_first_default_point_identical_on_serial_and_pool(self, name, fork_pool):
        point = expand_grid(get_scenario(name))[:1]
        records = []
        for backend in ("serial", fork_pool):
            (record,) = run_sweep(point, store=None, backend=backend).records
            assert record.status == "ok", record.error
            data = _comparable(record)
            for field in _WALL_CLOCK.get(name, ()):
                data["result"].pop(field)
            records.append(data)
        assert records[0] == records[1]


class TestRemovedInterface:
    def test_backend_names_are_serial_and_pool(self):
        assert BACKEND_NAMES == ("auto", "serial", "pool")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("queue")

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker", "spool"],
            ["fleet", "spool"],
            ["run", "bk-echo", "--no-store", "--backend", "queue"],
            ["run", "bk-echo", "--no-store", "--queue-dir", "spool"],
            ["run", "bk-echo", "--no-store", "--points-per-ticket", "2"],
        ],
        ids=["worker", "fleet", "backend-queue", "queue-dir", "points-per-ticket"],
    )
    def test_cli_rejects_removed_commands_and_options(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2


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
        """A sweep put()-ing into the destination mid-merge races only on
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
