"""Telemetry subsystem tests: tracer overhead, trace schema, exactness.

Three contracts pin the observability layer down:

1. the default null tracer must cost nothing -- the engine hot path with
   tracing off allocates nothing inside ``repro.obs.trace``;
2. JSONL traces are schema-valid and deterministic modulo clock fields,
   so archived CI traces diff cleanly;
3. trace accounting is *exact*, not approximate -- per-round sent-bit
   samples sum to ``RunResult.total_bits`` on every engine, and the
   per-task meta block the sweep runner persists agrees with the trace.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

import benchmarks.check_regression as check_regression
from repro.algorithms.paths import run_bellman_ford
from repro.congest.network import CongestNetwork
from repro.experiments import expand_grid, get_scenario, run_sweep
from repro.experiments.cli import main as cli_main
from repro.experiments.reporting import render_timeline_page, render_trends_page
from repro.experiments.reporting.site import extract_speedups
from repro.experiments.reporting.timeline import load_traces
from repro.obs.trace import (
    TRACE_DIR_ENV,
    TRACE_SCHEMA,
    CollectingTracer,
    Tracer,
    TraceWriter,
    read_trace,
    summarize_trace,
    trace_files,
    use_tracer,
)

REPO = Path(__file__).resolve().parent.parent

#: Clock-derived trace fields ignored when comparing runs for determinism.
VOLATILE = {"ts", "dur_s", "unix_time", "pid", "duration_s"}


def _graph(n=18, seed=3):
    from repro.graphs.generators import random_connected_graph

    graph = random_connected_graph(n, extra_edge_prob=0.15, seed=seed)
    for i, (u, v) in enumerate(sorted(graph.edges())):
        graph.edges[u, v]["weight"] = float(i + 1)
    return graph


class TestNullTracer:
    def test_network_defaults_to_disabled_tracer(self):
        net = CongestNetwork(_graph(6), program_factory=lambda: None)
        assert isinstance(net.trace, Tracer)
        assert net.trace.enabled is False

    def test_hot_path_allocates_nothing(self):
        tracer = Tracer()
        # Warm up method binding and any lazy module state first.
        tracer.emit("round", round=0)
        with tracer.span("warm"):
            pass
        trace_file = str(Path(Tracer.__module__.replace(".", "/")))
        filters = [tracemalloc.Filter(True, f"*{trace_file}*")]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(filters)
            for i in range(500):
                tracer.emit("round", round=i, active=3, sent_bits=64)
                tracer.counter("messages", 2)
                tracer.task("running", i)
                with tracer.span("step"):
                    pass
            after = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        stats = after.compare_to(before, "filename")
        assert sum(s.size_diff for s in stats) == 0, stats

    def test_span_is_shared_singleton(self):
        tracer = Tracer()
        assert tracer.span("a") is tracer.span("b")


class TestTraceWriter:
    def _run_traced(self, path):
        graph = _graph()
        with TraceWriter(path, source="test", scenario="bf") as tracer:
            with use_tracer(tracer):
                dist, result = run_bellman_ford(graph, min(graph.nodes()), engine="event")
        return result

    def test_lines_schema_valid(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._run_traced(path)
        events = read_trace(path)
        assert events, "trace is empty"
        meta = events[0]
        assert meta["kind"] == "meta"
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["source"] == "test"
        for event in events:
            assert isinstance(event["kind"], str)
            assert isinstance(event["ts"], float)
            assert event["ts"] >= 0.0
        kinds = {e["kind"] for e in events}
        assert "round" in kinds
        assert "run" in kinds

    def test_deterministic_modulo_clock_fields(self, tmp_path):
        self._run_traced(tmp_path / "a.jsonl")
        self._run_traced(tmp_path / "b.jsonl")

        def stripped(path):
            return [
                {k: v for k, v in event.items() if k not in VOLATILE}
                for event in read_trace(path)
            ]

        assert stripped(tmp_path / "a.jsonl") == stripped(tmp_path / "b.jsonl")

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        self._run_traced(path)
        whole = read_trace(path)
        with open(path, "a") as fh:
            fh.write('{"kind": "round", "ts"')  # no newline: a torn write
        assert read_trace(path) == whole


class TestExactAccounting:
    @pytest.mark.parametrize("engine", ["dense", "event"])
    def test_round_bit_samples_sum_to_run_result(self, engine):
        graph = _graph(seed=7)
        tracer = CollectingTracer()
        with use_tracer(tracer):
            dist, result = run_bellman_ford(graph, min(graph.nodes()), engine=engine)
        summary = summarize_trace(tracer.events)
        assert summary["sent_bits"] == result.total_bits
        assert summary["sent_messages"] == result.total_messages
        assert summary["moved_bits"] == result.total_bits
        (run,) = summary["runs"]
        assert run["total_bits"] == result.total_bits
        assert run["rounds"] == result.rounds
        assert run["halted"] == result.halted

    def test_engines_agree_on_counter_totals(self):
        graph = _graph(seed=11)
        totals = {}
        for name in ("dense", "event"):
            tracer = CollectingTracer()
            with use_tracer(tracer):
                run_bellman_ford(graph, min(graph.nodes()), engine=name)
            summary = summarize_trace(tracer.events)
            totals[name] = (
                summary["sent_bits"],
                summary["sent_messages"],
                summary["moved_bits"],
            )
        assert totals["event"] == totals["dense"]


class TestSweepTraces:
    def _points(self):
        scenario = get_scenario("spanner-skeleton")
        return expand_grid(scenario, {"n": [24]})

    def test_task_trace_matches_persisted_meta(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        report = run_sweep(self._points(), store=None)
        (record,) = report.records
        assert record.status == "ok"
        meta = record.meta
        assert meta["congest_runs"] >= 1
        task_files = sorted(tmp_path.glob("task-spanner-skeleton-*.jsonl"))
        assert len(task_files) == 1
        summary = summarize_trace(read_trace(task_files[0]))
        assert summary["source"] == "task"
        assert len(summary["runs"]) == meta["congest_runs"]
        assert sum(r["total_bits"] for r in summary["runs"]) == meta["engine_total_bits"]
        assert sum(r["rounds"] for r in summary["runs"]) == meta["engine_rounds"]
        assert summary["sent_bits"] == meta["engine_total_bits"]
        events = read_trace(task_files[0])
        results = [e for e in events if e["kind"] == "event" and e.get("name") == "task_result"]
        assert len(results) == 1 and results[0]["status"] == "ok"

    def test_meta_block_uniform_across_backends(self, tmp_path):
        metas = {}
        for backend in ("serial", "pool"):
            report = run_sweep(
                self._points(), store=None, backend=backend, workers=2
            )
            (record,) = report.records
            assert record.duration_s > 0.0
            metas[backend] = record.meta
        assert metas["serial"] == metas["pool"]
        assert set(metas["serial"]) >= {
            "congest_runs",
            "engine_rounds",
            "engine_skipped_rounds",
            "engine_node_steps",
            "engine_total_bits",
            "engines",
        }


class TestTraceCli:
    @pytest.fixture()
    def trace_dir(self, tmp_path):
        out = tmp_path / "traces"
        argv = [
            "run",
            "spanner-skeleton",
            "--set",
            "n=24",
            "--no-store",
            "--trace",
            str(out),
        ]
        assert cli_main(argv) == 0
        return out

    def test_run_writes_sweep_and_task_traces(self, trace_dir):
        names = sorted(p.name for p in trace_dir.glob("*.jsonl"))
        assert any(n.startswith("sweep-") for n in names)
        assert any(n.startswith("task-") for n in names)

    def test_summarize_text_and_json(self, trace_dir, capsys):
        assert cli_main(["trace", "summarize", str(trace_dir)]) == 0
        text = capsys.readouterr().out
        assert "rounds" in text
        assert cli_main(["trace", "summarize", str(trace_dir), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload, "empty JSON summary"

    def test_timeline_renders_svg_page(self, trace_dir, tmp_path):
        out = tmp_path / "timeline.html"
        assert cli_main(["trace", "timeline", str(trace_dir), "--out", str(out)]) == 0
        html = out.read_text()
        assert "<svg" in html
        assert "Round activity" in html

    def test_missing_traces_is_an_error(self, tmp_path):
        assert cli_main(["trace", "summarize", str(tmp_path / "nope")]) == 1


class TestReportPages:
    def test_timeline_page_from_loaded_traces(self, tmp_path):
        path = tmp_path / "t.jsonl"
        graph = _graph()
        with TraceWriter(path, source="test") as tracer:
            with use_tracer(tracer):
                run_bellman_ford(graph, min(graph.nodes()), engine="event")
        traces = load_traces([tmp_path])
        html = render_timeline_page(traces)
        assert "<svg" in html
        assert "Bits per round" in html

    def test_trends_page_from_committed_bench_files(self):
        paths = [REPO / "BENCH_pr2.json", REPO / "BENCH_pr4.json"]
        html = render_trends_page(paths)
        assert "Speedup history" in html
        assert "<svg" in html

    def test_trace_files_rejects_nothing_silently(self, tmp_path):
        assert trace_files(tmp_path) == []


class TestRegressionGate:
    def _bench(self, tmp_path, speedup):
        path = tmp_path / "BENCH_x.json"
        path.write_text(
            json.dumps({"benchmark": "gate-test", "speedup": speedup})
        )
        return str(path)

    def _baselines(self, tmp_path, policy, speedup=2.0):
        path = tmp_path / "baselines.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "entries": {
                        "gate-test": {
                            "speedup": speedup,
                            "policy": policy,
                            "max_regression": 0.25,
                        }
                    },
                }
            )
        )
        return str(path)

    def test_within_threshold_passes(self, tmp_path):
        argv = [self._bench(tmp_path, 1.9), "--baselines", self._baselines(tmp_path, "hard")]
        assert check_regression.main(argv) == 0

    def test_hard_regression_fails(self, tmp_path):
        argv = [self._bench(tmp_path, 1.0), "--baselines", self._baselines(tmp_path, "hard")]
        assert check_regression.main(argv) == 1

    def test_warn_regression_passes(self, tmp_path):
        argv = [self._bench(tmp_path, 1.0), "--baselines", self._baselines(tmp_path, "warn")]
        assert check_regression.main(argv) == 0

    def test_update_writes_baselines_preserving_policy(self, tmp_path):
        baselines = self._baselines(tmp_path, "warn")
        bench = self._bench(tmp_path, 3.0)
        assert check_regression.main([bench, "--baselines", baselines, "--update"]) == 0
        doc = json.loads(Path(baselines).read_text())
        entry = doc["entries"]["gate-test"]
        assert entry["speedup"] == 3.0
        assert entry["policy"] == "warn"

    def test_extract_mirror_matches_reporting_walker(self):
        for name in ("BENCH_pr2.json", "BENCH_pr4.json"):
            data = json.loads((REPO / name).read_text())
            assert check_regression._extract_speedups(data) == extract_speedups(data)

    def test_committed_baselines_are_valid(self):
        doc = json.loads((REPO / "benchmarks" / "baselines.json").read_text())
        assert doc["schema"] == 1
        for label, entry in doc["entries"].items():
            assert entry["policy"] in ("hard", "warn"), label
            assert entry["speedup"] > 0, label
