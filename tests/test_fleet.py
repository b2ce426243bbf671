"""Work stealing, stale-lease reclaim and the fleet controller.

The acceptance bar for every concurrency path here is the same: however
tickets were split, stolen, reclaimed or duplicated, the records that
land are **field-identical to a serial run** (modulo ``duration_s``) --
per-point result names are content-addressed, so duplicate executions
converge on one record instead of forking history.

Fleet tests spawn real daemons (``python -m repro.experiments worker``)
via the controller; the scenario below is shipped to them by module name
(``tests.test_fleet``), exactly like user scenarios are.
"""

import json
import os
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    ParamSpec,
    ResultStore,
    WorkQueueBackend,
    expand_grid,
    get_scenario,
    run_sweep,
    run_worker,
    scenario,
)
from repro.experiments.backends.base import Task
from repro.experiments.backends.fleet import FleetController
from repro.experiments.backends.queue import try_steal
from repro.experiments.backends.spool import SHARDS, ShardedSpool
from repro.experiments.store import cache_key

_SRC = Path(repro.__file__).resolve().parents[1]
_ROOT = _SRC.parent
#: Daemon subprocesses must import both `repro` and this test module.
_WORKER_ENV = {
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(_SRC), str(_ROOT), os.environ.get("PYTHONPATH", "")) if p
    )
}


@scenario("fl-echo", params=[ParamSpec("x", int, 1)])
def _fl_echo(*, seed, x):
    return {"x": x, "seed_mod": seed % 1000, "cubed": x * x * x}


#: Stop file the ``fl-stop`` scenario touches while it runs (when set).
_STOP_ENV = "FL_STOP_FILE"


@scenario("fl-stop", params=[ParamSpec("x", int, 1)])
def _fl_stop(*, seed, x):
    stop = os.environ.get(_STOP_ENV)
    if stop:
        Path(stop).touch()  # the worker sees it before its next point
    return {"x": x, "seed_mod": seed % 1000}


def _task(point) -> Task:
    return Task(
        point=point,
        key=cache_key(point.scenario, point.params, point.seed),
        scenario_version="1",
        code_version=repro.__version__,
        scenario_modules=("tests.test_fleet",),
    )


def _submit_block(tmp_path, xs, points_per_ticket, scenario_name="fl-echo", **backend_kwargs):
    """One sealed block ticket holding the grid points for ``xs``."""
    points = expand_grid(get_scenario(scenario_name), {"x": xs})
    backend = WorkQueueBackend(
        tmp_path / "spool",
        workers=0,
        points_per_ticket=points_per_ticket,
        **backend_kwargs,
    )
    for p in points:
        backend.submit(_task(p))
    backend.poll()  # seal the block ticket into the spool
    return backend, points


def _serial_results(points):
    report = run_sweep(points, store=None, backend="serial")
    return {r.params["x"]: r.result for r in report.records}


def _comparable(record) -> dict:
    data = asdict(record)
    data.pop("duration_s")
    return data


def _spooled(paths) -> dict[str, dict]:
    """Every unclaimed ticket in the spool, by name."""
    return {
        ticket.name: json.loads(ticket.read_text())
        for shard in range(SHARDS)
        for ticket in paths.shard_dir(shard).glob("*.json")
    }


def _hand_back(spool, name, ticket):
    """Undo a claim: drop the lease and heartbeat, re-enqueue the ticket."""
    spool.paths.heartbeat(name).unlink(missing_ok=True)
    (spool.paths.claims / name).unlink()
    spool.enqueue(name, ticket)


class TestWorkStealing:
    def test_thief_carves_tail_half_of_published_rest(self, tmp_path):
        """An idle daemon carves the tail half of the deepest in-flight
        block ticket; owner and thief together produce exactly the
        serial sweep's results."""
        backend, points = _submit_block(tmp_path, [1, 2, 3, 4], points_per_ticket=4)
        paths = backend.paths
        owner = ShardedSpool(paths)
        name, ticket = owner.claim()
        # The owner is "executing point 0": positions 1..3 are stealable.
        paths.rest(name).write_text(json.dumps({"positions": [1, 2, 3]}))

        thief = ShardedSpool(paths)
        assert try_steal(paths, thief)
        stolen = json.loads(paths.steal(name).read_text())["positions"]
        assert stolen == [3]  # the tail half (owner keeps ceil(3/2))
        assert owner.depth() == 1  # the carve-off is back in the spool
        # One thief per ticket, ever: the second attempt must not carve.
        assert not try_steal(paths, ShardedSpool(paths))

        carve_name, carve = thief.claim()
        carve_points = carve["points"]
        original = ticket["points"]
        assert [p["index"] for p in carve_points] == [3]
        # Same result name as the original's point: duplicate completions
        # converge on one file.
        assert carve_points[0]["result_name"] == original[3]["result_name"]

        # Hand both claims back and drain: the owner's ticket skips its
        # stolen positions, the carve supplies them.
        _hand_back(owner, name, ticket)
        _hand_back(thief, carve_name, carve)
        n_done = run_worker(
            tmp_path / "spool", max_idle=0.3, poll_interval=0.02, inline=True
        )
        assert n_done == 4
        collected = backend.poll()
        assert len(collected) == 4
        expected = _serial_results(points)
        for task, outcome in collected:
            assert outcome["status"] == "ok"
            assert outcome["result"] == expected[task.point.params["x"]]

    def test_duplicate_ticket_converges_on_single_result(self, tmp_path):
        """A republished duplicate (resumed owner vs reclaim, thief vs
        owner) executes at most once per point: the second ticket sees
        the landed result file and skips."""
        backend, points = _submit_block(tmp_path, [7], points_per_ticket=1)
        spool = ShardedSpool(backend.paths)
        name, ticket = spool.claim()
        _hand_back(spool, name, ticket)
        spool.enqueue(f"dup-{name}", ticket)  # same points, same result_name
        n_done = run_worker(
            tmp_path / "spool", max_idle=0.3, poll_interval=0.02, inline=True
        )
        assert n_done == 1  # the duplicate claimed, matched, skipped
        results = list(backend.paths.results.glob("*.json"))
        assert len(results) == 1
        [(task, outcome)] = backend.poll()
        assert outcome["status"] == "ok"
        assert outcome["result"] == _serial_results(points)[7]


class TestStopAfterClaim:
    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "watchdog"])
    def test_stop_mid_ticket_republishes_unexecuted_points(
        self, tmp_path, monkeypatch, inline
    ):
        """A worker that sees its stop file after claiming a block ticket
        republishes the unexecuted points as one ticket, leaves no claim
        state behind, and a second worker drains the remainder to records
        field-identical to a serial run."""
        backend, points = _submit_block(tmp_path, [1, 2, 3, 4], 4, scenario_name="fl-stop")
        paths = backend.paths
        [(name, original)] = _spooled(paths).items()
        stop = tmp_path / "STOP.first"
        monkeypatch.setenv(_STOP_ENV, str(stop))
        first = ResultStore(tmp_path / "shard-first")
        n_done = run_worker(
            tmp_path / "spool",
            store=first,
            stop_file=stop,
            poll_interval=0.02,
            inline=inline,
            mp_start_method="fork",
        )
        assert n_done == 1  # point 0 ran, then the stop file was seen

        for leftover in (
            paths.claims / name,
            paths.heartbeat(name),
            paths.rest(name),
            paths.steal(name),
        ):
            assert not leftover.exists(), leftover.name
        assert not list(paths.claims.iterdir())
        [(rest_name, rest)] = _spooled(paths).items()
        assert "-blk3-q" in rest_name
        assert rest["points"] == original["points"][1:]
        assert rest["attempts"] == original["attempts"]

        monkeypatch.delenv(_STOP_ENV)
        second = ResultStore(tmp_path / "shard-second")
        n_done = run_worker(
            tmp_path / "spool", store=second, max_idle=0.3, poll_interval=0.02, inline=True
        )
        assert n_done == 3
        assert len(backend.poll()) == 4
        merged = ResultStore(tmp_path / "merged")
        merged.merge(first.root)
        merged.merge(second.root)
        serial = run_sweep(points, store=None, backend="serial")
        merged_records = sorted(merged.iter_records(), key=lambda r: r.key)
        serial_records = sorted(serial.records, key=lambda r: r.key)
        assert [_comparable(r) for r in merged_records] == [
            _comparable(r) for r in serial_records
        ]

    def test_stop_before_first_point_republishes_whole_ticket(self, tmp_path, monkeypatch):
        """A stop that lands between the claim and the ticket's first point
        hands every point back as one fresh ticket; nothing executes."""
        backend, _ = _submit_block(tmp_path, [1, 2], 2)
        paths = backend.paths
        [(name, original)] = _spooled(paths).items()
        stop = tmp_path / "STOP.first"
        claim = ShardedSpool.claim

        def claim_then_stop(spool):
            got = claim(spool)
            stop.touch()
            return got

        monkeypatch.setattr(ShardedSpool, "claim", claim_then_stop)
        assert run_worker(tmp_path / "spool", stop_file=stop, inline=True) == 0
        assert not list(paths.claims.iterdir())
        [(rest_name, rest)] = _spooled(paths).items()
        assert rest_name != name
        assert rest["points"] == original["points"]


class TestStaleLeaseReclaim:
    def test_reclaim_republishes_only_unstolen_remaining(self, tmp_path):
        """A half-stolen ticket whose owner dies is republished minus the
        stolen positions -- the thief's carve is not double-queued."""
        backend, points = _submit_block(
            tmp_path, [1, 2, 3, 4], points_per_ticket=4,
            lease_timeout=0.05, max_requeues=2,
        )
        paths = backend.paths
        owner = ShardedSpool(paths)
        name, ticket = owner.claim()
        paths.rest(name).write_text(json.dumps({"positions": [1, 2, 3]}))
        assert try_steal(paths, ShardedSpool(paths))  # carves the tail: [3]

        # The owner dies: heartbeat and claim go stale together.
        stale = time.time() - 60.0
        os.utime(paths.claims / name, (stale, stale))
        os.utime(paths.heartbeat(name), (stale, stale))
        time.sleep(0.06)
        assert backend.poll() == []  # reclaim republishes, nothing landed

        assert not (paths.claims / name).exists()
        assert not paths.steal(name).exists()  # sidecars retired with it
        spooled = list(_spooled(paths).values())
        assert len(spooled) == 2  # the thief's carve + the reclaim
        by_attempts = {t["attempts"]: t for t in spooled}
        reclaim = by_attempts[1]  # bumped generation
        assert [p["index"] for p in reclaim["points"]] == [0, 1, 2]
        carve = by_attempts[0]
        assert [p["index"] for p in carve["points"]] == [3]

        n_done = run_worker(
            tmp_path / "spool", max_idle=0.3, poll_interval=0.02, inline=True
        )
        assert n_done == 4
        collected = backend.poll()
        assert len(collected) == 4
        expected = _serial_results(points)
        for task, outcome in collected:
            assert outcome["status"] == "ok"
            assert outcome["result"] == expected[task.point.params["x"]]


class TestFleetController:
    def test_rejects_bad_sizing(self, tmp_path):
        with pytest.raises(ValueError, match="max_workers"):
            FleetController(tmp_path / "q", max_workers=0)
        with pytest.raises(ValueError, match="min_workers"):
            FleetController(tmp_path / "q", min_workers=3, max_workers=2)

    def test_drain_down_leaves_zero_orphans_and_serial_records(self, tmp_path):
        """Acceptance: the controller scales up on backlog, drains the
        spool, and exits with every daemon reaped; the workers' merged
        store shards are field-identical to a serial run."""
        backend, points = _submit_block(tmp_path, [1, 2, 3, 4, 5, 6], points_per_ticket=1)
        controller = FleetController(
            tmp_path / "spool",
            max_workers=2,
            backlog_per_worker=2,
            interval=0.1,
            cooldown=0.3,
            store_prefix=str(tmp_path / "shard"),
            inline=True,
            max_idle=30.0,
            worker_env=_WORKER_ENV,
        )
        report = controller.run(drain=True, max_runtime=60.0)

        # Zero-orphan guarantee: every spawned daemon exited cleanly and
        # was reaped before run() returned.
        assert controller._workers == []
        assert len(report.exit_codes) == report.spawned
        assert all(code == 0 for code in report.exit_codes)
        assert report.peak_workers == 2  # backlog 6 / 2-per-worker, capped
        assert report.final_depth == 0
        assert not list(backend.paths.claims.glob("*"))
        assert len(backend.poll()) == 6

        merged = ResultStore(tmp_path / "merged")
        for shard_dir in sorted(tmp_path.glob("shard-*")):
            merged.merge(shard_dir)
        serial = run_sweep(points, store=None, backend="serial")
        merged_records = sorted(merged.iter_records(), key=lambda r: r.key)
        serial_records = sorted(serial.records, key=lambda r: r.key)
        assert [_comparable(r) for r in merged_records] == [
            _comparable(r) for r in serial_records
        ]

    def test_emits_own_trace_when_no_ambient_tracer(self, tmp_path, monkeypatch):
        trace_dir = tmp_path / "trace"
        trace_dir.mkdir()
        monkeypatch.setenv("REPRO_TRACE_DIR", str(trace_dir))
        controller = FleetController(tmp_path / "spool", max_workers=1, interval=0.05)
        report = controller.run(drain=True)  # empty spool: exits first tick
        assert report.spawned == 0
        [trace_file] = trace_dir.glob("fleet-*.jsonl")
        body = trace_file.read_text()
        assert "spool_depth" in body
        assert "fleet_exit" in body
