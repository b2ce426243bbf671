"""Performance regression gate: compare fresh BENCH output to baselines.

CI's bench-smoke job regenerates the ``BENCH_*.json`` timing artifacts on
every run; this script compares each labelled speedup in those fresh
files against the committed ``benchmarks/baselines.json`` and fails when
a measurement regresses past its allowed fraction.

Labels follow the same convention as the report site's
``extract_speedups`` walker ("pr2-engine-speedup", "fig3-mst-tradeoff
n=60 W=32768 vs event", ...), so the gate, the index bar charts and the
trends page all speak about the same measurements.  Each baseline entry
carries a ``policy``:

- ``hard``  -- a regression past ``max_regression`` exits non-zero
  (single-process entries: low-variance, trustworthy in CI);
- ``warn``  -- the regression is reported but never fails the job
  (entries whose speed depends on the CI host's core count, such as
  thread-count labels).

Usage::

    python benchmarks/check_regression.py BENCH_*.json
    python benchmarks/check_regression.py BENCH_*.json --update   # rebaseline

``--update`` rewrites ``baselines.json`` from the fresh measurements,
keeping each existing entry's policy and threshold; brand-new labels get
``warn`` when they look thread-dependent ("(N thr)") and ``hard``
otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path

DEFAULT_BASELINES = Path(__file__).resolve().parent / "baselines.json"
DEFAULT_MAX_REGRESSION = 0.25


def _extract_speedups(data, context: str = "") -> list[tuple[str, float]]:
    """Mirror of ``reporting.site.extract_speedups`` (kept import-free).

    The gate must run from a bare checkout before ``pip install -e .``,
    so it re-implements the tiny walker instead of importing the package;
    ``tests/test_obs.py`` pins the two implementations together.
    """
    from numbers import Real

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
                found.extend(_extract_speedups(data[key], context=label))
    elif isinstance(data, list):
        for item in data:
            found.extend(_extract_speedups(item, context=context))
    return found


def load_measurements(paths: list[str]) -> dict[str, float]:
    """Fresh ``{label: speedup}`` from BENCH files; min wins on duplicates.

    Taking the minimum per label is the conservative choice: a benchmark
    that reports several points under one label passes only if the worst
    of them does.
    """
    measured: dict[str, float] = {}
    for raw in paths:
        expanded = sorted(glob.glob(raw)) or [raw]
        for name in expanded:
            try:
                data = json.loads(Path(name).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"note: skipping unreadable {name}: {exc}", file=sys.stderr)
                continue
            for label, speedup in _extract_speedups(data):
                if label not in measured or speedup < measured[label]:
                    measured[label] = speedup
    return measured


def load_baselines(path: Path) -> dict:
    """The committed baseline document (``{"schema": 1, "entries": {...}}``)."""
    return json.loads(path.read_text())


def default_policy(label: str) -> str:
    """Heuristic policy for labels without an existing entry.

    Thread-count labels ("(N thr)") depend on CI host core count --
    warn-only.  Everything else (engine speedups, backend drains) is
    gated hard.
    """
    return "warn" if "thr)" in label else "hard"


def update_baselines(path: Path, measured: dict[str, float], max_regression: float) -> None:
    """Rewrite ``baselines.json`` from fresh measurements, keeping policies."""
    try:
        previous = load_baselines(path).get("entries", {})
    except (OSError, json.JSONDecodeError):
        previous = {}
    entries = {}
    for label in sorted(measured):
        old = previous.get(label, {})
        entries[label] = {
            "speedup": round(measured[label], 4),
            "policy": old.get("policy", default_policy(label)),
            "max_regression": old.get("max_regression", max_regression),
        }
    doc = {
        "schema": 1,
        "comment": (
            "Committed perf baselines for benchmarks/check_regression.py; "
            "regenerate with --update after an intentional perf change."
        ),
        "entries": entries,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(entries)} entr{'y' if len(entries) == 1 else 'ies'})")


def check(measured: dict[str, float], baselines: dict) -> int:
    """Compare fresh measurements to baselines; return the exit code."""
    entries = baselines.get("entries", {})
    failures = warnings = 0
    for label in sorted(entries):
        entry = entries[label]
        base = float(entry["speedup"])
        allowed = float(entry.get("max_regression", DEFAULT_MAX_REGRESSION))
        policy = entry.get("policy", "hard")
        if label not in measured:
            print(f"note: '{label}' not in fresh output (baseline {base:.3f}x)")
            continue
        fresh = measured[label]
        regression = 1.0 - fresh / base if base > 0 else 0.0
        verdict = f"'{label}': baseline {base:.3f}x, fresh {fresh:.3f}x"
        if regression > allowed:
            pct = 100.0 * regression
            if policy == "hard":
                failures += 1
                print(f"FAIL {verdict} ({pct:.0f}% regression > {100 * allowed:.0f}%)")
            else:
                warnings += 1
                print(f"WARN {verdict} ({pct:.0f}% regression, warn-only entry)")
        else:
            print(f"ok   {verdict}")
    for label in sorted(set(measured) - set(entries)):
        print(f"note: new label '{label}' ({measured[label]:.3f}x); add with --update")
    print(
        f"regression gate: {failures} failure(s), {warnings} warning(s), "
        f"{len(entries)} baseline entr{'y' if len(entries) == 1 else 'ies'}"
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", nargs="+", help="BENCH_*.json files (globs accepted)")
    parser.add_argument(
        "--baselines",
        default=str(DEFAULT_BASELINES),
        help="baseline JSON path (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional regression for new --update entries",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baselines from the fresh measurements and exit",
    )
    args = parser.parse_args(argv)

    measured = load_measurements(args.bench)
    if not measured:
        print("ERROR: no speedup measurements found in the given files", file=sys.stderr)
        return 1
    baselines_path = Path(args.baselines)
    if args.update:
        update_baselines(baselines_path, measured, args.max_regression)
        return 0
    try:
        baselines = load_baselines(baselines_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"ERROR: cannot read baselines {baselines_path}: {exc}", file=sys.stderr)
        return 1
    return check(measured, baselines)


if __name__ == "__main__":
    sys.exit(main())
