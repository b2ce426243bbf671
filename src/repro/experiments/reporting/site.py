"""Static-site assembly: one index + one page per scenario, on disk.

:func:`build_site` is the single entry behind ``python -m
repro.experiments report --html OUT_DIR``: it reads every record from a
:class:`~repro.experiments.store.ResultStore`, builds the
:class:`~repro.experiments.reporting.model.ScenarioReport` model, renders
each scenario to ``OUT_DIR/<scenario>.html`` and the cross-scenario
summary to ``OUT_DIR/index.html``, and returns the index path.

Benchmark JSON files (the ``BENCH_*.json`` artifacts written by
``benchmarks/engine_speedup.py`` / ``engine_columnar.py`` /
``backend_drain.py``) can ride along: :func:`extract_speedups` walks any
of their shapes for ``speedup`` measurements and the site turns them into
an engine-speedup bar chart on the index page.
"""

from __future__ import annotations

import json
from numbers import Real
from pathlib import Path

from repro.experiments.reporting.html import (
    page_name,
    render_index,
    render_scenario_page,
)
from repro.experiments.reporting.model import build_reports
from repro.experiments.reporting.svg import Series, render_bar_chart
from repro.experiments.store import ResultStore, atomic_write_text


def extract_speedups(data, context: str = "") -> list[tuple[str, float]]:
    """Collect ``(label, speedup)`` pairs from a benchmark JSON payload.

    The BENCH files have grown shape by shape (PR 2's single
    ``engine_comparison`` object, PR 4's ``comparisons`` list, ...), so
    this walks the whole document: any mapping carrying a numeric
    ``speedup`` (or a transport-replay ``speedup_vs_event``) contributes one
    measurement, labelled by the nearest ``scenario``/``benchmark``/
    ``group`` names and a ``threads`` count when present.
    """
    found: list[tuple[str, float]] = []
    if isinstance(data, dict):
        label = str(
            data.get("scenario") or data.get("benchmark") or data.get("group") or context or "speedup"
        )
        if "threads" in data and isinstance(data["threads"], Real):
            label += f" ({int(data['threads'])} thr)"
        speedup = data.get("speedup")
        if isinstance(speedup, Real) and not isinstance(speedup, bool):
            found.append((label, float(speedup)))
        vs_event = data.get("speedup_vs_event")
        if isinstance(vs_event, Real) and not isinstance(vs_event, bool):
            found.append((label + " vs event", float(vs_event)))
        for key in sorted(data):
            if key not in ("speedup", "speedup_vs_event"):
                found.extend(extract_speedups(data[key], context=label))
    elif isinstance(data, list):
        for item in data:
            found.extend(extract_speedups(item, context=context))
    return found


def bench_charts(bench_paths: list[Path]) -> list[str]:
    """One engine-speedup bar chart per readable benchmark file."""
    charts = []
    for path in sorted(bench_paths, key=lambda p: p.name):
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError):
            continue
        speedups = extract_speedups(data)
        if not speedups:
            continue
        categories = [label for label, _ in speedups]
        series = [Series.of("speedup", list(enumerate(s for _, s in speedups)))]
        charts.append(
            render_bar_chart(
                f"Engine speedup — {Path(path).name}",
                categories,
                series,
                y_label="x faster",
            )
        )
    return charts


def build_site(
    store: ResultStore,
    out_dir: str | Path,
    scenario: str | None = None,
    bench_paths: list[str | Path] | None = None,
    trace_paths: list[str | Path] | None = None,
) -> Path:
    """Render the full HTML report site; returns the index page path.

    ``scenario`` restricts the site to one scenario (the index still
    links only what was rendered).  Raises ``ValueError`` when the store
    holds no matching records -- an empty site would silently hide a
    mis-typed ``--store``.

    ``trace_paths`` (JSONL trace files or directories of them) add a
    ``timeline.html`` page; two or more ``bench_paths`` add a
    ``trends.html`` history page -- both linked from the index.
    """
    records = list(store.iter_records(scenario))
    if not records:
        where = f" for scenario {scenario!r}" if scenario else ""
        raise ValueError(f"no records in {store.root}{where}; nothing to report")
    reports = build_reports(records)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for report in reports:
        atomic_write_text(out / page_name(report.name), render_scenario_page(report))
    charts = bench_charts([Path(p) for p in (bench_paths or [])])
    extra_pages: list[tuple[str, str]] = []
    if trace_paths:
        from repro.experiments.reporting.timeline import load_traces, render_timeline_page

        traces = load_traces(list(trace_paths))
        if traces:
            atomic_write_text(
                out / "timeline.html", render_timeline_page(traces, back_link=True)
            )
            extra_pages.append(("timeline.html", "trace timeline"))
    if bench_paths and len(bench_paths) > 1:
        from repro.experiments.reporting.trends import render_trends_page

        atomic_write_text(
            out / "trends.html",
            render_trends_page([Path(p) for p in bench_paths], back_link=True),
        )
        extra_pages.append(("trends.html", "benchmark trends"))
    index = out / "index.html"
    atomic_write_text(
        index, render_index(reports, bench_charts=charts, extra_pages=extra_pages)
    )
    return index
