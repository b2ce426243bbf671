"""The tracer API and JSONL trace format for the telemetry subsystem.

One :class:`Tracer` carries every signal the stack emits -- counters,
events, spans, per-round engine samples and end-of-run summaries.
The base class is the **no-op null tracer**: every method does nothing and
``enabled`` is ``False``, so hot paths guard their sample construction with
one attribute check and pay nothing when tracing is off (asserted by a
zero-allocation test in ``tests/test_obs.py``).

Concrete tracers:

- :class:`TraceWriter` -- appends one JSON object per line to a file,
  timestamped with a *monotonic* clock relative to the writer's creation
  (wall-clock only appears in the ``meta`` line), thread-safe, sorted keys,
  so two traces of the same run are identical modulo timestamp fields;
- :class:`CollectingTracer` -- in-memory event list for tests and summaries;
- :class:`TeeTracer` -- fan-out to several tracers at once;
- :class:`RunMetaCollector` -- listens only to the once-per-run
  ``run_summary`` call and aggregates engine round/skip/step counts into
  the uniform ``meta`` block every sweep outcome carries.

**Trace line schema** (every line has ``kind``; writers add ``ts``):

==========  =================================================================
kind        fields
==========  =================================================================
``meta``    ``schema``, ``source``, ``unix_time``, ``pid`` + free attrs
``counter`` ``name``, ``value`` (an increment) + free attrs
``event``   ``name`` + free attrs
``span``    ``name``, ``dur_s`` + free attrs (emitted when the span closes)
``round``   ``round``, ``active``, ``delivered``, ``moved_bits``,
            ``sent_msgs``, ``sent_bits`` -- one engine round
``skip``    ``after_round``, ``rounds``, ``moved_bits`` -- a quiet stretch
            the event engine jumped in O(1)
``run``     ``engine``, ``rounds``, ``skipped_rounds``, ``node_steps``,
            ``total_bits``, ``total_msgs``, ``halted`` -- one CONGEST run
``task``    ``state`` (submitted|cached|dispatched|running|ok|error|
            timeout), ``index`` + free attrs -- sweep/backend task
            lifecycle
==========  =================================================================

The **ambient tracer** (:func:`current_tracer` / :func:`use_tracer`) is how
instrumentation crosses API layers without threading a ``trace=`` argument
through every call: ``CongestNetwork`` defaults its tracer to the ambient
one, and ``execute_point`` installs a writer when the ``REPRO_TRACE_DIR``
environment variable names a directory -- which is also how a sweep's trace
switch reaches pool workers in other processes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

#: Bumped when the line schema above changes incompatibly.
TRACE_SCHEMA = 1

#: Environment variable naming the directory per-task traces land in;
#: set by ``python -m repro.experiments run --trace DIR`` and inherited by
#: every worker process the sweep spawns.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


class _NullSpan:
    """Context manager returned by the null tracer's :meth:`Tracer.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """A wall-clock span: emits one ``span`` line when the block closes."""

    __slots__ = ("_tracer", "name", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.emit(
            "span", name=self.name, dur_s=time.perf_counter() - self._t0, **self.attrs
        )


class Tracer:
    """The no-op base tracer (and the API every tracer implements).

    ``enabled`` gates the *hot-path* signals only (per-round samples, skip
    events): instrumentation checks it before building the
    sample, so the null tracer costs one attribute read per round.  The
    once-per-something calls (``run_summary``, ``task``, ``span``) are
    always safe to make; on the null tracer they do nothing.
    """

    enabled: bool = False

    def emit(self, kind: str, **fields) -> None:
        """Record one trace line of the given kind (no-op here)."""

    def counter(self, name: str, value: float = 1, **attrs) -> None:
        """Record an increment of a named counter."""
        self.emit("counter", name=name, value=value, **attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time occurrence."""
        self.emit("event", name=name, **attrs)

    def task(self, state: str, index: int, **attrs) -> None:
        """Record a sweep-task lifecycle transition."""
        self.emit("task", state=state, index=index, **attrs)

    def span(self, name: str, **attrs):
        """A context manager timing a block; emits ``span`` on exit."""
        return _NULL_SPAN

    def run_summary(self, **fields) -> None:
        """Record one CONGEST run's end-of-run metrics (``run`` line).

        Engines call this exactly once per run, *unconditionally* -- it is
        cheap by construction and is how the uniform outcome ``meta`` block
        learns engine round/skip counts even when tracing is off.
        """
        self.emit("run", **fields)

    def close(self) -> None:
        """Release any resources (files); safe to call twice."""


#: The shared null tracer -- the default everywhere tracing is optional.
NULL_TRACER = Tracer()


class CollectingTracer(Tracer):
    """In-memory tracer: appends every line to ``self.events`` (no clock)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def emit(self, kind: str, **fields) -> None:
        """Append the line as a plain dict (thread-safe)."""
        with self._lock:
            self.events.append({"kind": kind, **fields})

    def span(self, name: str, **attrs) -> Span:
        """A real timed span recorded into ``self.events``."""
        return Span(self, name, attrs)

    def by_kind(self, kind: str) -> list[dict[str, Any]]:
        """The collected lines of one kind, in emission order."""
        return [e for e in self.events if e["kind"] == kind]


class RunMetaCollector(Tracer):
    """Aggregates ``run_summary`` calls into the uniform outcome meta block.

    Stays ``enabled = False``: it wants only the once-per-run summaries,
    never the per-round hot-path samples, so installing it ambiently on
    every sweep point adds no measurable cost.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.rounds = 0
        self.skipped_rounds = 0
        self.node_steps = 0
        self.total_bits = 0
        self.engines: list[str] = []

    def run_summary(self, **fields) -> None:
        """Fold one run's metrics into the aggregate."""
        self.runs += 1
        self.rounds += int(fields.get("rounds") or 0)
        self.skipped_rounds += int(fields.get("skipped_rounds") or 0)
        self.node_steps += int(fields.get("node_steps") or 0)
        self.total_bits += int(fields.get("total_bits") or 0)
        engine = fields.get("engine")
        if engine and engine not in self.engines:
            self.engines.append(str(engine))

    def meta(self) -> dict[str, Any]:
        """The uniform ``meta`` block carried by every sweep outcome."""
        return {
            "congest_runs": self.runs,
            "engine_rounds": self.rounds,
            "engine_skipped_rounds": self.skipped_rounds,
            "engine_node_steps": self.node_steps,
            "engine_total_bits": self.total_bits,
            "engines": self.engines,
        }


class TeeTracer(Tracer):
    """Fans every signal out to several child tracers."""

    def __init__(self, *children: Tracer):
        self.children = tuple(children)
        self.enabled = any(c.enabled for c in children)

    def emit(self, kind: str, **fields) -> None:
        """Forward the line to every child."""
        for child in self.children:
            child.emit(kind, **fields)

    def run_summary(self, **fields) -> None:
        """Forward the run summary to every child."""
        for child in self.children:
            child.run_summary(**fields)

    def span(self, name: str, **attrs):
        """One timed span whose close is forwarded to every child."""
        return Span(self, name, attrs) if self.enabled else _NULL_SPAN

    def close(self) -> None:
        """Close every child."""
        for child in self.children:
            child.close()


class TraceWriter(Tracer):
    """JSONL tracer: one JSON object per line, monotonic timestamps.

    The first line is a ``meta`` record carrying the schema version, the
    ``source`` label and the only wall-clock value in the file
    (``unix_time``); every other line's ``ts`` is seconds since the writer
    was created, measured on the monotonic clock, so timestamps never go
    backwards and two traces of the same run differ only in timestamp
    fields.  Writes are locked, so one writer may be shared by several
    threads.
    """

    enabled = True

    def __init__(self, path: str | os.PathLike, source: str = "trace", **meta):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._epoch = time.monotonic()
        self._lock = threading.Lock()
        self._handle = open(self.path, "w", encoding="utf-8")
        self.emit(
            "meta",
            schema=TRACE_SCHEMA,
            source=source,
            unix_time=time.time(),
            pid=os.getpid(),
            **meta,
        )

    def emit(self, kind: str, **fields) -> None:
        """Append one timestamped JSON line (thread-safe)."""
        line = json.dumps(
            {"kind": kind, "ts": round(time.monotonic() - self._epoch, 6), **fields},
            sort_keys=True,
            default=repr,
        )
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")

    def span(self, name: str, **attrs) -> Span:
        """A real timed span written as a ``span`` line on exit."""
        return Span(self, name, attrs)

    def flush(self) -> None:
        """Flush buffered lines to disk."""
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the ambient tracer --------------------------------------------------------

_ambient: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The ambient tracer (the null tracer unless :func:`use_tracer` is active).

    ``CongestNetwork`` reads this when no explicit ``trace=`` is passed, so
    instrumentation reaches engine internals without every intermediate
    layer (algorithm runners, scenario functions) forwarding a tracer.
    """
    return _ambient


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the ``with`` block.

    Process-wide, not thread-local: the intended use is one tracer per
    task *process* (``execute_point``), where it is unambiguous.
    """
    global _ambient
    previous = _ambient
    _ambient = tracer
    try:
        yield tracer
    finally:
        _ambient = previous


def task_trace_path(trace_dir: str | os.PathLike, scenario: str, seed: int) -> Path:
    """Canonical per-task trace filename inside a sweep's trace directory.

    Seeds are sha-derived per sweep point, so the name is unique per point
    and stable across re-runs of the same sweep.
    """
    return Path(trace_dir) / f"task-{scenario}-{seed % 10**12}.jsonl"


def trace_dir_from_env() -> Path | None:
    """The trace directory named by ``REPRO_TRACE_DIR``, if any."""
    value = os.environ.get(TRACE_DIR_ENV)
    return Path(value) if value else None


# -- reading and summarising ---------------------------------------------------


def read_trace(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse one JSONL trace file into a list of line dicts.

    Tolerates a truncated final line (a crashed process mid-write) by
    dropping it; any other malformed line raises, since it means the file
    is not a trace.
    """
    events: list[dict[str, Any]] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail write from a killed process
            raise
    return events


def trace_files(path: str | os.PathLike) -> list[Path]:
    """Resolve a trace argument: a file itself, or a directory's ``*.jsonl``."""
    p = Path(path)
    if p.is_dir():
        return sorted(p.glob("*.jsonl"))
    return [p] if p.exists() else []


def summarize_trace(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate one trace's lines into a summary dict.

    The summary is the contract the CLI (``trace summarize``), the tests
    and the timeline page all read: round/skip totals that must match the
    engine's ``RunResult`` metrics exactly, counter totals, span
    statistics and task state tallies.
    """
    rounds = [e for e in events if e["kind"] == "round"]
    skips = [e for e in events if e["kind"] == "skip"]
    runs = [e for e in events if e["kind"] == "run"]
    spans: dict[str, dict[str, float]] = {}
    for e in events:
        if e["kind"] != "span":
            continue
        stat = spans.setdefault(e.get("name", "?"), {"count": 0, "total_s": 0.0})
        stat["count"] += 1
        stat["total_s"] += float(e.get("dur_s", 0.0))
    counters: dict[str, float] = {}
    for e in events:
        if e["kind"] == "counter":
            name = e.get("name", "?")
            counters[name] = counters.get(name, 0) + e.get("value", 1)
    named_events: dict[str, int] = {}
    for e in events:
        if e["kind"] == "event":
            name = e.get("name", "?")
            named_events[name] = named_events.get(name, 0) + 1
    tasks: dict[str, int] = {}
    for e in events:
        if e["kind"] == "task":
            state = e.get("state", "?")
            tasks[state] = tasks.get(state, 0) + 1
    meta = next((e for e in events if e["kind"] == "meta"), {})
    return {
        "source": meta.get("source"),
        "lines": len(events),
        "rounds_sampled": len(rounds),
        "rounds_skipped": sum(int(e.get("rounds", 0)) for e in skips),
        "active_steps": sum(int(e.get("active", 0)) for e in rounds),
        "delivered_messages": sum(int(e.get("delivered", 0)) for e in rounds),
        "sent_messages": sum(int(e.get("sent_msgs", 0)) for e in rounds)
        + sum(int(e.get("sent_msgs", 0)) for e in events if e["kind"] == "event" and e.get("name") == "start"),
        "sent_bits": sum(int(e.get("sent_bits", 0)) for e in rounds)
        + sum(int(e.get("sent_bits", 0)) for e in events if e["kind"] == "event" and e.get("name") == "start"),
        "moved_bits": sum(int(e.get("moved_bits", 0)) for e in rounds)
        + sum(int(e.get("moved_bits", 0)) for e in skips),
        "runs": [
            {k: r.get(k) for k in ("engine", "rounds", "skipped_rounds", "node_steps", "total_bits", "total_msgs", "halted")}
            for r in runs
        ],
        "spans": {k: spans[k] for k in sorted(spans)},
        "counters": {k: counters[k] for k in sorted(counters)},
        "events": {k: named_events[k] for k in sorted(named_events)},
        "task_states": {k: tasks[k] for k in sorted(tasks)},
    }
