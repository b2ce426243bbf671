"""The experiment harness: registry, sweep expansion, store, runner, CLI."""

import json
import time

import pytest

from repro.experiments import (
    ParamSpec,
    ResultStore,
    ScenarioNotFound,
    cache_key,
    expand_grid,
    get_scenario,
    list_scenarios,
    run_sweep,
    scenario,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.sweep import derive_seed, parse_axis_overrides
from tests.spec_harness import on_both

BUILTINS = (
    "boruvka-mst-sweep",
    "chsh-gamma2",
    "example11-disjointness",
    "fig2-bound-table",
    "fig3-mst-tradeoff",
    "gkp-cap-ablation",
    "server-model-equivalence",
    "spanner-skeleton",
    "verification-suite",
)


@scenario(
    "test-echo",
    params=[ParamSpec("x", int, 1), ParamSpec("label", str, "a")],
    default_grid={"x": [1, 2]},
)
def _echo(*, seed, x, label):
    return {"x": x, "label": label, "seed_mod": seed % 1000}


@scenario("test-always-fails", params=[ParamSpec("x", int, 1)])
def _always_fails(*, seed, x):
    raise RuntimeError("deliberate failure")


@scenario("test-sleepy", params=[ParamSpec("delay", float, 5.0)])
def _sleepy(*, seed, delay):
    time.sleep(delay)
    return {"slept": delay}


class TestRegistry:
    def test_builtin_catalog_discoverable(self):
        names = {s.name for s in list_scenarios()}
        assert set(BUILTINS) <= names

    def test_get_scenario_loads_builtins(self):
        scn = get_scenario("fig3-mst-tradeoff")
        assert scn.name == "fig3-mst-tradeoff"
        assert {p.name for p in scn.params} >= {"n", "aspect_ratio", "alpha"}
        assert scn.default_grid["aspect_ratio"]  # multi-point by default
        assert len(scn.default_grid["aspect_ratio"]) >= 2

    def test_unknown_scenario_raises(self):
        with pytest.raises(ScenarioNotFound):
            get_scenario("no-such-scenario")

    def test_resolve_params_coerces_and_rejects_unknown(self):
        scn = get_scenario("test-echo")
        assert scn.resolve_params({"x": "7"}) == {"x": 7, "label": "a"}
        with pytest.raises(KeyError, match="unknown parameter"):
            scn.resolve_params({"bogus": 1})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            scenario("test-echo")(lambda *, seed: {})


class TestSweepExpansion:
    def test_grid_is_cartesian_and_ordered(self):
        scn = get_scenario("test-echo")
        points = expand_grid(scn, {"x": [1, 2], "label": ["a", "b"]})
        assert [(p.params["x"], p.params["label"]) for p in points] == [
            (1, "a"), (1, "b"), (2, "a"), (2, "b"),
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]

    def test_same_grid_and_seed_give_identical_cache_keys(self):
        scn = get_scenario("test-echo")
        first = expand_grid(scn, {"x": [1, 2, 3]}, replicates=2, base_seed=42)
        second = expand_grid(scn, {"x": [1, 2, 3]}, replicates=2, base_seed=42)
        assert [p.seed for p in first] == [p.seed for p in second]
        keys_first = [cache_key(p.scenario, p.params, p.seed) for p in first]
        keys_second = [cache_key(p.scenario, p.params, p.seed) for p in second]
        assert keys_first == keys_second
        assert len(set(keys_first)) == len(keys_first)  # all distinct

    def test_seed_derivation_varies_with_everything(self):
        base = derive_seed("s", {"x": 1}, 0, 0)
        assert derive_seed("s", {"x": 2}, 0, 0) != base
        assert derive_seed("s", {"x": 1}, 1, 0) != base
        assert derive_seed("s", {"x": 1}, 0, 1) != base
        assert derive_seed("other", {"x": 1}, 0, 0) != base

    def test_scalar_axis_and_defaults(self):
        scn = get_scenario("test-echo")
        points = expand_grid(scn, {"x": 5})
        assert len(points) == 1
        assert points[0].params == {"x": 5, "label": "a"}
        # No grid: the registered default grid applies.
        assert [p.params["x"] for p in expand_grid(scn)] == [1, 2]

    def test_unknown_axis_rejected(self):
        with pytest.raises(KeyError, match="unknown grid axis"):
            expand_grid(get_scenario("test-echo"), {"bogus": [1]})

    def test_parse_axis_overrides(self):
        assert parse_axis_overrides(["x=1,2,3", "label=b"]) == {
            "x": ["1", "2", "3"],
            "label": ["b"],
        }
        with pytest.raises(ValueError):
            parse_axis_overrides(["nonsense"])


class TestStoreAndCache:
    def test_cache_hit_skips_execution(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-echo"), {"x": [1, 2, 3]})
        first = run_sweep(points, store=store)
        assert (first.cached, first.executed) == (0, 3)
        second = run_sweep(points, store=store)
        assert (second.cached, second.executed) == (3, 0)
        assert second.results() == first.results()

    def test_force_reruns(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-echo"), {"x": [1]})
        run_sweep(points, store=store)
        report = run_sweep(points, store=store, force=True)
        assert (report.cached, report.executed) == (0, 1)

    def test_records_are_json_on_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-echo"), {"x": [1, 2]})
        run_sweep(points, store=store)
        files = sorted((tmp_path / "test-echo").glob("*.json"))
        assert len(files) == 2
        record = json.loads(files[0].read_text())
        assert record["scenario"] == "test-echo"
        assert record["status"] == "ok"
        assert set(record) >= {"key", "params", "seed", "result", "code_version"}

    def test_version_bump_invalidates_cache(self):
        key = cache_key("s", {"x": 1}, 7, scenario_version="1")
        assert cache_key("s", {"x": 1}, 7, scenario_version="2") != key
        assert cache_key("s", {"x": 1}, 7, code_version="9.9.9") != key

    def test_failure_captured_not_raised(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("test-always-fails"))
        report = run_sweep(points, store=store)
        assert report.failed == 1 and not report.ok
        record = report.records[0]
        assert record.status == "error"
        assert "deliberate failure" in record.error
        # Failures are persisted (resumable) and served from cache too --
        # and a cached failure still fails the resumed sweep.
        resumed = run_sweep(points, store=store)
        assert (resumed.cached, resumed.executed) == (1, 0)
        assert resumed.failed == 1 and not resumed.ok


class TestParallelRunner:
    def test_parallel_matches_serial(self, tmp_path):
        points = expand_grid(
            get_scenario("chsh-gamma2"), {"restarts": [1, 2, 3, 4], "iterations": 60}
        )
        serial = run_sweep(points, store=None, workers=1)
        parallel = run_sweep(points, store=ResultStore(tmp_path), workers=3)
        assert serial.ok and parallel.ok
        assert parallel.executed == 4
        assert parallel.results() == serial.results()
        assert [r.seed for r in parallel.records] == [r.seed for r in serial.records]

    def test_parallel_timeout_is_captured(self):
        points = expand_grid(get_scenario("test-sleepy"), {"delay": [30.0, 0.01]})
        start = time.monotonic()
        # 2s deadline: enough margin for spawn-worker boot under CI load
        # (the deadline clock starts at submission, not at worker start).
        report = run_sweep(points, store=None, workers=2, task_timeout=2.0)
        assert report.records[0].status == "timeout"
        assert report.records[1].status == "ok"
        # The hung worker is terminated, not joined: run_sweep returns well
        # before the 30s sleep would finish.
        assert time.monotonic() - start < 10.0

    def test_timeout_enforced_with_serial_workers(self):
        points = expand_grid(get_scenario("test-sleepy"), {"delay": [30.0]})
        start = time.monotonic()
        report = run_sweep(points, store=None, workers=1, task_timeout=0.5)
        assert report.records[0].status == "timeout"
        assert time.monotonic() - start < 10.0

    def test_slow_point_does_not_delay_timeout_detection(self):
        # Grid order: a slow-but-finishing point first, a hung point second.
        # Out-of-order collection detects the hang on its own clock instead
        # of only after the point in front has been collected.
        points = expand_grid(get_scenario("test-sleepy"), {"delay": [2.0, 30.0]})
        start = time.monotonic()
        report = run_sweep(
            points, store=None, workers=2, task_timeout=2.5, mp_start_method="fork"
        )
        elapsed = time.monotonic() - start
        assert report.records[0].status == "ok"
        assert report.records[1].status == "timeout"
        # In-grid-order collection would need ~2.0s + 2.5s before detecting
        # the hang; independent deadlines detect it at ~2.5s.
        assert elapsed < 4.0

    def test_workers_recycled_with_maxtasksperchild(self):
        points = expand_grid(get_scenario("test-echo"), {"x": [1, 2, 3, 4, 5]})
        report = run_sweep(
            points, store=None, workers=2, task_timeout=30.0,
            mp_start_method="fork", maxtasksperchild=1,
        )
        assert report.ok and report.executed == 5
        assert [r.result["x"] for r in report.records] == [1, 2, 3, 4, 5]


class TestSpannerSkeletonScenario:
    def test_linear_size_and_stretch_with_quiet_rounds(self):
        points = expand_grid(get_scenario("spanner-skeleton"), {"n": 24})
        report = run_sweep(points, store=None)
        assert report.ok
        result = report.results()[0]
        assert result["linear_size"] and result["within_stretch"]
        assert result["spanner_edges"] < result["m"] or result["m"] < 2 * 24
        # The phased construction is mostly quiet: the event engine must
        # skip a large majority of the dense n x rounds schedule.
        assert result["quiet_fraction"] > 0.5


class TestBoruvkaMstSweepScenario:
    @pytest.mark.parametrize("generator", ["random", "grid", "geometric"])
    def test_exact_mst_on_every_topology_family(self, generator):
        scn = get_scenario("boruvka-mst-sweep")
        params = scn.resolve_params(
            {"n": 25, "generator": generator, "weight_model": "euclidean"}
        )
        result = scn.run(params, seed=9)
        assert result["exact"], result
        assert result["tree_edges"] == result["n"] - 1
        assert result["rounds"] > 0 and result["total_bits"] > 0

    def test_point_matches_the_spec(self):
        """The scenario reports the same MST and CONGEST metrics when its
        network runs on the CONGEST spec instead of the event engine."""
        scn = get_scenario("boruvka-mst-sweep")
        params = scn.resolve_params(
            {"n": 16, "generator": "geometric", "weight_model": "distinct"}
        )
        event, spec = on_both(lambda: scn.run(params, seed=5))
        # Everything but the engine's step counter, which the spec leaves at 0.
        assert event.pop("node_steps") > 0 and spec.pop("node_steps") == 0
        assert event == spec
        assert event["exact"]

    def test_mst_verdict_is_edge_set_or_spanning_tree(self):
        import networkx as nx

        from repro.experiments.scenarios import _mst_verdict

        # Distinct weights: the MST is unique, so only its edge set passes.
        graph = nx.cycle_graph(4)
        for (u, v), w in zip(graph.edges(), (1.0, 2.0, 3.0, 4.0)):
            graph.edges[u, v]["weight"] = w
        mst = {frozenset(e) for e in nx.minimum_spanning_tree(graph).edges()}
        assert _mst_verdict(graph, mst) == (6.0, True)
        heavier = mst - {frozenset((0, 1))} | {frozenset((3, 0))}
        assert _mst_verdict(graph, heavier) == (6.0, False)
        # Ties: any spanning tree of MST weight passes; a triangle of the
        # same weight that misses a node does not.
        graph = nx.complete_graph(4)
        nx.set_edge_attributes(graph, 1.0, "weight")
        star = {frozenset((0, v)) for v in (1, 2, 3)}
        assert _mst_verdict(graph, star) == (3.0, True)
        triangle = {frozenset(e) for e in ((0, 1), (1, 2), (0, 2))}
        assert _mst_verdict(graph, triangle) == (3.0, False)

    def test_unknown_generator_and_weight_model_fail_the_point(self):
        scn = get_scenario("boruvka-mst-sweep")
        with pytest.raises(ValueError, match="unknown generator"):
            scn.run(scn.resolve_params({"generator": "bogus"}), seed=0)
        with pytest.raises(ValueError, match="unknown weight model"):
            scn.run(scn.resolve_params({"weight_model": "bogus"}), seed=0)


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTINS:
            assert name in out

    def test_fig3_acceptance_parallel_then_cached(self, tmp_path, capsys):
        """The acceptance criterion: a parallel multi-point fig3 sweep writes
        JSON records, and a second invocation serves every point from cache."""
        store = str(tmp_path / "store")
        argv = [
            "run", "fig3-mst-tradeoff", "--workers", "4", "--store", store,
            "--set", "n=24", "--set", "aspect_ratio=2.0,64.0,2048.0",
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cached, 3 executed, 0 failed" in out
        files = list((tmp_path / "store" / "fig3-mst-tradeoff").glob("*.json"))
        assert len(files) == 3
        for path in files:
            record = json.loads(path.read_text())
            assert record["status"] == "ok"
            assert {"elkin_rounds", "gkp_rounds", "combined_rounds"} <= set(record["result"])

        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "3 cached, 0 executed, 0 failed" in out

    def test_engine_is_a_grid_axis_not_a_flag(self, capsys):
        argv = [
            "run", "boruvka-mst-sweep", "--no-store",
            "--set", "n=12", "--set", "generator=random", "--set", "weight_model=distinct",
            "--set", "engine=event",
        ]
        assert cli_main(argv) == 0
        assert "'engine': 'event'" in capsys.readouterr().out
        # There is one engine and no --engine flag: argparse exits 2.
        with pytest.raises(SystemExit) as info:
            cli_main(["run", "boruvka-mst-sweep", "--no-store", "--engine", "dense"])
        assert info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_bad_input_gives_clean_error(self, tmp_path, capsys):
        assert cli_main(["run", "test-echo", "--set", "bogus=1", "--store", str(tmp_path)]) == 2
        assert "unknown grid axis" in capsys.readouterr().err
        assert cli_main(["run", "no-such-scenario", "--no-store"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert cli_main(["run", "test-echo", "--set", "x=abc", "--no-store"]) == 2
        assert "invalid literal" in capsys.readouterr().err

    def test_report_shows_error_line_for_failed_records(self, tmp_path, capsys):
        cli_main(["run", "test-always-fails", "--store", str(tmp_path)])
        capsys.readouterr()
        cli_main(["report", "test-always-fails", "--store", str(tmp_path)])
        out = capsys.readouterr().out
        assert "[ERROR]" in out
        assert "-> RuntimeError: deliberate failure" in out

    def test_report(self, tmp_path, capsys):
        store = str(tmp_path)
        cli_main(["run", "test-echo", "--store", store])
        capsys.readouterr()
        assert cli_main(["report", "test-echo", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert cli_main(["report", "--store", str(tmp_path / "empty")]) == 1
