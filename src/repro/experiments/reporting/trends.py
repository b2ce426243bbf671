"""Cross-BENCH trend page: speedup history across benchmark artifacts.

The committed ``BENCH_*.json`` artifacts, laid side by side in filename
order, are a history.  This module walks each file with
:func:`~repro.experiments.reporting.site.extract_speedups`, lines the
measurements up per label, and renders one trend chart plus the value
table.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.reporting.html import _page, escape
from repro.experiments.reporting.site import extract_speedups
from repro.experiments.reporting.svg import Series, render_plot


def bench_history(
    bench_paths: list[str | Path],
) -> tuple[list[str], dict[str, list[tuple[int, float]]]]:
    """Per-label speedup series across benchmark files in name order.

    Returns ``(file_names, {label: [(file_index, speedup), ...]})``; a
    label missing from some file simply has no point there.  Unreadable
    files are skipped (a trend page should not die on one torn artifact).
    """
    ordered = sorted((Path(p) for p in bench_paths), key=lambda p: p.name)
    names: list[str] = []
    history: dict[str, list[tuple[int, float]]] = {}
    for path in ordered:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        index = len(names)
        names.append(path.name)
        for label, speedup in extract_speedups(data):
            history.setdefault(label, []).append((index, speedup))
    return names, history


def render_trends_page(bench_paths: list[str | Path], back_link: bool = False) -> str:
    """The cross-BENCH trend page (chart + value table)."""
    names, history = bench_history(bench_paths)
    parts = ["<h1>Benchmark trends</h1>"]
    if back_link:
        parts.append('<p><a href="index.html">&larr; all scenarios</a></p>')
    if not history:
        parts.append('<p class="muted">no benchmark measurements found</p>')
        return _page("Benchmark trends", "\n".join(parts))
    parts.append(
        f"<p>{len(history)} measurement label(s) across {len(names)} benchmark "
        "file(s), in filename order.</p>"
    )
    series = [Series.of(label, points) for label, points in sorted(history.items())]
    parts.append('<div class="plots">')
    parts.append(
        render_plot(
            "Speedup history",
            series,
            x_label="benchmark file (ordinal)",
            y_label="x faster",
        )
    )
    parts.append("</div>")
    head = "".join(f"<th>{escape(n)}</th>" for n in names)
    rows = []
    for label in sorted(history):
        by_index = dict(history[label])
        cells = "".join(
            f"<td>{by_index[i]:.3f}</td>" if i in by_index else "<td></td>"
            for i in range(len(names))
        )
        rows.append(f"<tr><td>{escape(label)}</td>{cells}</tr>")
    parts.append(
        f"<table><thead><tr><th>label</th>{head}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )
    return _page("Benchmark trends", "\n".join(parts))
