"""``python -m repro.experiments`` -- list, run, report, merge, trace.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig3-mst-tradeoff
    python -m repro.experiments run chsh-gamma2 --set restarts=1,4,16 --replicates 3
    python -m repro.experiments run boruvka-mst-sweep --engine dense
    python -m repro.experiments run spanner-skeleton --backend pool --timeout 60
    python -m repro.experiments merge experiment-results other-run-results
    python -m repro.experiments report fig3-mst-tradeoff
    python -m repro.experiments report --format json | jq '.[].result'
    python -m repro.experiments report --html report-site --bench 'BENCH_*.json'

Telemetry (see ``docs/observability.md``)::

    python -m repro.experiments run spanner-skeleton --trace traces/
    python -m repro.experiments trace summarize traces/
    python -m repro.experiments trace timeline traces/ --out timeline.html
    python -m repro.experiments report --html report-site --trace traces/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from repro.congest.engine import _ENGINES
from repro.experiments.backends import BACKEND_NAMES
from repro.experiments.registry import ScenarioNotFound, get_scenario, list_scenarios
from repro.experiments.runner import run_sweep
from repro.experiments.store import DEFAULT_STORE, ResultStore
from repro.experiments.sweep import expand_grid, parse_axis_overrides
from repro.obs.trace import TRACE_DIR_ENV, TraceWriter, read_trace, summarize_trace, trace_files


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Experiment harness: scenario registry, sweep runner, result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the scenario catalog")

    run = sub.add_parser("run", help="expand a sweep and run it")
    run.add_argument("scenario", help="scenario name (see `list`)")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=V1[,V2,...]",
        help="grid axis override; repeatable; multiple values sweep that axis",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (1 = serial); the pool pays about 1 s of worker "
        "start-up, so on 2 cores it loses to serial on the default grids and wins "
        "by about 1.25x only on sweeps of a minute or more",
    )
    run.add_argument(
        "--engine",
        choices=tuple(_ENGINES),
        default=None,
        help="CONGEST engine axis (scenarios declaring an `engine` param only); "
        "`dense` is the reference, `event` the default",
    )
    run.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="S",
        help="fault-plan decision seed axis (scenarios declaring a `fault_seed` param only)",
    )
    run.add_argument("--replicates", type=int, default=1, help="seeded replicates per grid point")
    run.add_argument("--base-seed", type=int, default=0, help="base seed for per-point derivation")
    run.add_argument("--timeout", type=float, default=None, help="per-task timeout in seconds")
    run.add_argument(
        "--mp-start",
        choices=("spawn", "fork", "forkserver"),
        default="spawn",
        help="multiprocessing start method for the worker pool",
    )
    run.add_argument(
        "--maxtasksperchild",
        type=int,
        default=16,
        help="recycle each worker after this many tasks (0 = never)",
    )
    run.add_argument("--store", default=str(DEFAULT_STORE), help="result-store directory")
    run.add_argument("--no-store", action="store_true", help="run without persisting results")
    run.add_argument("--force", action="store_true", help="ignore cached records and re-run")
    run.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="auto",
        help="execution backend (auto = serial unless --workers/--timeout ask for a "
        "pool); the pool also enforces --timeout and turns a point that kills its "
        "worker process into an error record",
    )
    run.add_argument(
        "--trace",
        dest="trace_dir",
        metavar="DIR",
        default=None,
        help="write JSONL telemetry traces into DIR (a sweep trace plus one "
        "per-task trace; workers inherit the switch via the environment)",
    )

    report = sub.add_parser(
        "report", help="summarise stored records (text, json, or an HTML site)"
    )
    report.add_argument("scenario", nargs="?", default=None, help="restrict to one scenario")
    report.add_argument("--store", default=str(DEFAULT_STORE), help="result-store directory")
    report.add_argument(
        "--format",
        choices=("text", "json", "html"),
        default="text",
        help="text summary (default), raw records as JSON, or a static HTML site",
    )
    report.add_argument(
        "--html",
        dest="html_dir",
        metavar="OUT_DIR",
        default=None,
        help="render the HTML site into OUT_DIR (implies --format html; "
        "--format html alone writes ./report-site)",
    )
    report.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="GLOB",
        help="benchmark JSON files/globs (e.g. 'BENCH_*.json') charted on the "
        "HTML index page; repeatable (two or more files add a trends page)",
    )
    report.add_argument(
        "--trace",
        action="append",
        default=[],
        metavar="PATH",
        help="JSONL trace files or directories rendered as a timeline page "
        "in the HTML site; repeatable",
    )

    trace = sub.add_parser("trace", help="inspect JSONL telemetry traces")
    trace.add_argument(
        "action", choices=("summarize", "timeline"), help="what to do with the traces"
    )
    trace.add_argument(
        "paths", nargs="+", help="trace files, or directories of *.jsonl traces"
    )
    trace.add_argument(
        "--out",
        default="timeline.html",
        help="output HTML file for `timeline` (default ./timeline.html)",
    )
    trace.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="summary output format for `summarize`",
    )

    merge = sub.add_parser("merge", help="import records from other stores into one store")
    merge.add_argument("dest", help="destination store directory")
    merge.add_argument("sources", nargs="+", help="source store directories")
    merge.add_argument(
        "--overwrite", action="store_true", help="let source records replace existing keys"
    )
    return parser


def _cmd_list() -> int:
    print(f"{'scenario':26s} {'params':44s} description")
    print("-" * 110)
    for scn in list_scenarios():
        axes = ", ".join(
            f"{p.name}={scn.default_grid[p.name]}" if p.name in scn.default_grid
            else f"{p.name}={p.default}"
            for p in scn.params
        )
        print(f"{scn.name:26s} {axes:44s} {scn.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scn = get_scenario(args.scenario)
    grid = parse_axis_overrides(args.overrides)
    # --engine is sugar for a grid axis; expand_grid rejects it with a
    # clean error if the scenario does not declare the param.
    if args.engine is not None:
        grid["engine"] = [args.engine]
    if args.fault_seed is not None:
        grid["fault_seed"] = [args.fault_seed]
    points = expand_grid(scn, grid, replicates=args.replicates, base_seed=args.base_seed)
    store = None if args.no_store else ResultStore(args.store)
    print(
        f"sweep {scn.name}: {len(points)} point(s), backend={args.backend}, "
        f"workers={args.workers}, store={'<none>' if store is None else store.root}"
    )
    tracer = None
    saved_env = os.environ.get(TRACE_DIR_ENV)
    if args.trace_dir is not None:
        trace_root = Path(args.trace_dir)
        trace_root.mkdir(parents=True, exist_ok=True)
        # The env var is how the switch reaches pool workers: they inherit
        # the environment, and execute_point opens a per-task writer
        # whenever it is set.
        os.environ[TRACE_DIR_ENV] = str(trace_root)
        tracer = TraceWriter(
            trace_root / f"sweep-{scn.name}.jsonl", source="sweep", scenario=scn.name
        )
    try:
        report = run_sweep(
            points,
            store=store,
            workers=args.workers,
            task_timeout=args.timeout,
            force=args.force,
            progress=print,
            mp_start_method=args.mp_start,
            maxtasksperchild=args.maxtasksperchild,
            backend=args.backend,
            trace=tracer,
        )
    finally:
        if tracer is not None:
            tracer.close()
            print(f"traces: {args.trace_dir}")
        if args.trace_dir is not None:
            if saved_env is None:
                os.environ.pop(TRACE_DIR_ENV, None)
            else:
                os.environ[TRACE_DIR_ENV] = saved_env
    print(
        f"done: {report.cached} cached, {report.executed} executed, {report.failed} failed"
    )
    for record in report.records:
        if record.status == "ok":
            print(f"  #{record.replicate} {record.params} -> {record.result}")
        else:
            print(f"  #{record.replicate} {record.params} -> {record.status.upper()}")
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    files = [f for spec in args.paths for f in trace_files(spec)]
    if not files:
        print("no trace files found", file=sys.stderr)
        return 1
    if args.action == "timeline":
        from repro.experiments.reporting.timeline import render_timeline_page

        traces = [(f.name, read_trace(f)) for f in files]
        out = Path(args.out)
        out.write_text(render_timeline_page(traces), encoding="utf-8")
        print(f"timeline: {out}")
        return 0
    summaries = {str(f): summarize_trace(read_trace(f)) for f in files}
    if args.format == "json":
        print(json.dumps(summaries, sort_keys=True, indent=2))
        return 0
    for name in sorted(summaries):
        s = summaries[name]
        print(f"== {name} ==")
        print(
            f"  source={s['source']} lines={s['lines']} "
            f"rounds={s['rounds_sampled']} (+{s['rounds_skipped']} skipped)"
        )
        print(
            f"  sent: {s['sent_messages']} msg / {s['sent_bits']} bits; "
            f"moved: {s['moved_bits']} bits; node steps: {s['active_steps']}"
        )
        for run in s["runs"]:
            print(
                f"  run[{run['engine']}]: rounds={run['rounds']} "
                f"skipped={run['skipped_rounds']} steps={run['node_steps']} "
                f"bits={run['total_bits']} halted={run['halted']}"
            )
        for span, stat in s["spans"].items():
            print(f"  span {span}: n={stat['count']} total={stat['total_s']:.4f}s")
        if s["task_states"]:
            states = ", ".join(f"{k}={v}" for k, v in s["task_states"].items())
            print(f"  tasks: {states}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    dest = ResultStore(args.dest)
    total = 0
    for source in args.sources:
        summary = dest.merge(source, overwrite=args.overwrite)
        total += summary.imported
        detail = f"{summary.imported}/{summary.scanned} record(s)"
        if summary.skipped:
            detail += f", {summary.skipped} already present"
        if summary.replaced:
            detail += f", {summary.replaced} replaced"
        print(f"merged {detail} from {source} in {summary.duration_s:.2f}s")
    print(f"{dest.root}: {total} imported, {dest.count()} total record(s)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    fmt = "html" if args.html_dir is not None else args.format
    records = list(store.iter_records(args.scenario))
    if not records:
        # Same outcome (exit 1, not a usage error) for every format.
        print(f"no records in {store.root}" + (f" for {args.scenario!r}" if args.scenario else ""))
        return 1
    if fmt == "html":
        from repro.experiments.reporting import build_site

        bench_paths: list = []
        for pattern in args.bench:
            path = Path(pattern)
            # A literal path beats glob expansion ('[' in a filename).
            matches = [path] if path.is_file() else sorted(path.parent.glob(path.name))
            bench_paths.extend(matches)
        index = build_site(
            store,
            args.html_dir or "report-site",
            scenario=args.scenario,
            bench_paths=bench_paths,
            trace_paths=list(args.trace),
        )
        print(f"report site: {index}")
        return 0
    if fmt == "json":
        print(json.dumps([asdict(r) for r in records], sort_keys=True, indent=2))
        return 0
    print(f"{len(records)} record(s) in {store.root}")
    by_scenario: dict[str, list] = {}
    for record in records:
        by_scenario.setdefault(record.scenario, []).append(record)
    for name in sorted(by_scenario):
        group = by_scenario[name]
        ok = sum(1 for r in group if r.status == "ok")
        print(f"\n== {name}: {len(group)} record(s), {ok} ok ==")
        for record in group:
            status = "" if record.status == "ok" else f"  [{record.status.upper()}]"
            if record.status == "ok":
                payload = record.result
            else:
                error_lines = (record.error or "").strip().splitlines()
                payload = error_lines[-1] if error_lines else record.status
            print(f"  {record.params} seed={record.seed}{status}")
            print(f"    -> {payload}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (0 ok, 1 failed sweep/empty report, 2 usage)."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_report(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; not an error.
        return 0
    except (ScenarioNotFound, KeyError, ValueError) as exc:
        # Bad scenario name, unknown axis, malformed --set, ...: a clean
        # one-line error beats a traceback at the command line.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
