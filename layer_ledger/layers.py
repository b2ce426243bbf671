"""Per-layer attribution, measured from outside the program.

:class:`Ledger` wraps the public functions of each repo layer in place
(module attributes and class methods) for the duration of a traced sweep
and restores them afterwards, so nothing under ``src/`` knows it is being
measured.  Every wrapped call is a frame on one stack: a frame's self-time
is its duration minus the time of the wrapped frames it encloses, and is
charged to the frame's layer.  Frames with no layer (the scenario
functions and the algorithm runners they call) keep their self-time
unattributed.

Spans are kept in memory and written out at the end: one per sweep point
(``execute_point``), one per CONGEST run (``CongestNetwork.run``), one per
outermost oracle call and one per store put, each carrying the id of the
point it belongs to.  The hot per-message boundaries (transport methods,
``bit_size``, node steps, fault checks) are not spans: their self-time and
call counts accumulate per layer, and each run span records the deltas
that accrued inside it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

#: The layers, named after the repo modules they cover.
LAYERS = (
    "graphs",
    "congest.network",
    "congest.engine",
    "algorithms.programs",
    "congest.message.bit_size",
    "congest.transport",
    "congest.faults",
    "oracle",
    "experiments.runner",
    "experiments.store",
    "experiments.backends",
)

#: Layers whose per-call boundaries are too hot to record as spans; run
#: spans carry their self-time and call deltas instead.
HOT_LAYERS = (
    "algorithms.programs",
    "congest.message.bit_size",
    "congest.transport",
    "congest.faults",
)

#: networkx entry points counted as the centralised oracle when repro code
#: calls them (MST, diameter and shortest paths).
ORACLE_NX = (
    "minimum_spanning_tree",
    "minimum_spanning_edges",
    "diameter",
    "eccentricity",
    "shortest_path",
    "shortest_path_length",
    "single_source_shortest_path_length",
    "all_pairs_shortest_path_length",
    "dijkstra_path_length",
    "dijkstra_path",
    "single_source_dijkstra",
    "single_source_dijkstra_path_length",
    "dijkstra_predecessor_and_distance",
    "all_pairs_dijkstra_path_length",
)

#: ``RunResult.fault_stats`` keys summed into the fault counters.
FAULT_COUNTS = {
    "drops": "dropped",
    "duplicates": "duplicated",
    "crash_lost": "crash_lost",
    "link_lost": "link_lost",
}


#: Modules whose public functions form the ``graphs`` layer.
GRAPH_MODULES = (
    "repro.graphs.generators",
    "repro.graphs.weights",
    "repro.graphs.spatial",
    "repro.graphs.distance",
    "repro.graphs.properties",
)

#: Functions wrapped wherever repro binds them: (path, layer, span kind or
#: None for an unrecorded frame).
FUNCTIONS = (
    ("repro.congest.engine:get_engine", "congest.engine", None),
    ("repro.congest.engine:step_batch", "algorithms.programs", None),
    ("repro.congest.message:bit_size", "congest.message.bit_size", None),
    ("repro.congest.faults:apply_topology_event", "congest.faults", None),
    ("repro.algorithms.spanning_structures:greedy_spanner", "oracle", "oracle"),
    ("repro.algorithms.spanning_structures:spanner_max_stretch", "oracle", "oracle"),
    ("repro.experiments.runner:run_sweep", "experiments.runner", None),
    ("repro.experiments.backends:resolve_backend", "experiments.backends", None),
    ("repro.experiments.backends.base:execute_point", "experiments.backends", "point"),
)

#: Functions rebound in importing modules only.  bit_size recurses through
#: its own module global, so its calls then count payloads sized, not
#: recursion steps.
IMPORTERS_ONLY = ("repro.congest.message:bit_size",)

#: Class methods wrapped as frames: (class path, layer, names or None for
#: every public method the class defines).  Layer None keeps self-time
#: unattributed: scenario bodies and the algorithm runners they call.
METHODS = (
    ("repro.congest.network:CongestNetwork", "congest.network", ("__init__",)),
    ("repro.congest.network:CongestNetwork", "congest.faults", ("apply_topology_events",)),
    ("repro.congest.transport:LinkTransport", "congest.transport", None),
    ("repro.congest.columnar:ColumnarTransport", "congest.transport", None),
    ("repro.congest.faults:FaultyTransport", "congest.faults", None),
    ("repro.congest.faults:FaultPlan", "congest.faults", None),
    ("repro.experiments.store:ResultStore", "experiments.store", ("__init__", "get", "has", "merge")),
    ("repro.experiments.backends:SerialBackend", "experiments.backends", None),
    ("repro.experiments.registry:Scenario", None, ("run",)),
)

#: Class methods recorded as spans: (class path, method, layer, kind).
SPAN_METHODS = (
    ("repro.congest.network:CongestNetwork", "run", "congest.engine", "run"),
    ("repro.experiments.store:ResultStore", "put", "experiments.store", "put"),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _lookup(path: str):
    """The object at ``"module:attr"``, or None when either is gone."""
    module_name, _, attr = path.partition(":")
    module = _module(module_name)
    return getattr(module, attr, None) if module is not None else None


def _point_id(scenario, seed) -> str:
    """Spans of one sweep point share this id: ``execute_point(scenario,
    params, seed)`` opens the point, ``ResultStore.put(record)`` closes it."""
    return f"{scenario}:{seed}"


def _public_functions(cls) -> list[str]:
    """Names of the plain functions a class defines itself, public or init."""
    return [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and (not name.startswith("_") or name == "__init__")
    ]


class Ledger:
    """Self-time and call counts per layer, plus the recorded spans."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        # Per layer: [self seconds, outermost calls, current nesting depth].
        self.cells = {layer: [0.0, 0, 0] for layer in LAYERS}
        # Child-time accumulators, one per open frame; [0] is the root.
        self.stack = [0.0]
        self.dijkstra_calls = 0
        self.faults = dict.fromkeys(FAULT_COUNTS.values(), 0)
        self.run_seconds = 0.0
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._point: str | None = None
        # (owner, attribute, original, wrapper), built once by install().
        self._patches: list[tuple[object, str, object, object]] = []
        #: Wrap targets that install() found absent or bound nowhere.
        self.missing: list[str] = []

    # -- results ---------------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return self.cells[layer][0]

    def calls(self, layer: str) -> int:
        return self.cells[layer][1]

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # -- wrappers --------------------------------------------------------------

    def _frame(self, fn, layer: str | None):
        """Wrap ``fn`` as an unrecorded frame charged to ``layer``."""
        clock = self.clock
        stack = self.stack
        cell = self.cells[layer] if layer is not None else [0.0, 0, 0]

        def frame(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            cell[2] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                cell[2] -= 1
                if not cell[2]:
                    cell[1] += 1
                cell[0] += dt - stack.pop()
                stack[-1] += dt

        frame.__wrapped__ = fn
        return frame

    def _span(self, fn, layer: str, kind: str, name: str):
        """Wrap ``fn`` as a recorded span of ``kind`` charged to ``layer``.

        An oracle nested in another oracle call (greedy_spanner calling
        networkx) is timed as a plain frame; the outer span covers it.
        """
        clock = self.clock
        stack = self.stack
        cell = self.cells[layer]
        hot = [self.cells[h] for h in HOT_LAYERS]
        plain = self._frame(fn, layer)
        ledger = self

        def span(*args, **kwargs):
            if kind == "oracle" and cell[2]:
                return plain(*args, **kwargs)
            sid = len(ledger.spans)
            record = {
                "id": sid,
                "kind": kind,
                "name": name,
                "layer": layer,
                "parent": ledger._open[-1] if ledger._open else None,
            }
            ledger.spans.append(record)
            ledger._open.append(sid)
            if kind == "point":
                point = _point_id(args[0] if args else None, args[2] if len(args) > 2 else None)
                outer_point, ledger._point = ledger._point, point
            elif kind == "put":
                record_arg = args[1] if len(args) > 1 else None
                point = _point_id(getattr(record_arg, "scenario", None), getattr(record_arg, "seed", None))
            else:
                point = ledger._point
            record["point"] = point
            before = [(c[0], c[1]) for c in hot] if kind == "run" else None
            dijkstra_before = ledger.dijkstra_calls
            result = None
            t0 = clock()
            stack.append(0.0)
            cell[2] += 1
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                cell[2] -= 1
                if not cell[2]:
                    cell[1] += 1
                child = stack.pop()
                cell[0] += dt - child
                stack[-1] += dt
                ledger._open.pop()
                if kind == "point":
                    ledger._point = outer_point
                record["start_s"] = t0
                record["dur_s"] = dt
                record["self_s"] = dt - child
                if kind == "oracle":
                    record["dijkstra_calls"] = ledger.dijkstra_calls - dijkstra_before
                if kind == "run":
                    ledger.run_seconds += dt
                    record["hot"] = {
                        h: {"self_s": c[0] - b[0], "calls": c[1] - b[1]}
                        for h, c, b in zip(HOT_LAYERS, hot, before)
                    }
                    stats = getattr(result, "fault_stats", None)
                    if stats:
                        for key, counter in FAULT_COUNTS.items():
                            ledger.faults[counter] += int(stats.get(key, 0))
                        record["fault_stats"] = stats

        span.__wrapped__ = fn
        return span

    def _nx_oracle(self, fn, name: str):
        """Wrap a networkx entry point: an oracle span when repro calls it."""
        inner = self._span(fn, "oracle", "oracle", f"networkx.{name}")
        getframe = sys._getframe
        dijkstra = "dijkstra" in name
        ledger = self

        def oracle(*args, **kwargs):
            if not getframe(1).f_globals.get("__name__", "").startswith("repro."):
                return fn(*args, **kwargs)
            if dijkstra:
                ledger.dijkstra_calls += 1
            return inner(*args, **kwargs)

        oracle.__wrapped__ = fn
        return oracle

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], value))

    def _everywhere(self, original, wrapped, skip: tuple[str, ...] = ()) -> int:
        """Rebind every repro module attribute that names ``original``;
        returns how many were rebound."""
        before = len(self._patches)
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", "") or ""
            if modname != "repro" and not modname.startswith("repro."):
                continue
            if modname in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)
        return len(self._patches) - before

    def _methods(self, cls, layer: str | None, names=None) -> None:
        for name in names if names is not None else _public_functions(cls):
            raw = vars(cls).get(name)
            if raw is None:
                self.missing.append(f"{cls.__module__}:{cls.__name__}.{name}")
                continue
            if isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._frame(raw.__func__, layer)))
            else:
                self._set(cls, name, self._frame(raw, layer))

    def install(self) -> None:
        """Wrap every layer's public functions; undone by :meth:`uninstall`.

        The wrappers are built on the first call and reused afterwards, so
        a sweep can be traced piecewise into one ledger.  Targets are
        looked up by name and skipped when absent or bound nowhere: a later
        refactor that moves or deletes one leaves it unattributed instead
        of breaking the traced run.  Skipped targets are listed in
        :attr:`missing`, and the run reports them and fails when the
        unattributed share grows past its limit.
        """
        if not self._patches:
            self._build()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, newest patch first."""
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> None:
        import networkx

        missing = self.missing
        for module_name in GRAPH_MODULES:
            module = _module(module_name)
            if module is None:
                missing.append(module_name)
                continue
            for name, fn in list(vars(module).items()):
                if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module_name:
                    self._everywhere(fn, self._frame(fn, "graphs"))
        for path, layer, kind in FUNCTIONS:
            fn = _lookup(path)
            if fn is None:
                missing.append(path)
                continue
            wrapped = self._frame(fn, layer) if kind is None else self._span(fn, layer, kind, fn.__name__)
            if not self._everywhere(fn, wrapped, skip=(fn.__module__,) if path in IMPORTERS_ONLY else ()):
                missing.append(f"{path} (bound nowhere)")
        for path, layer, names in METHODS:
            cls = _lookup(path)
            if cls is None:
                missing.append(path)
            else:
                self._methods(cls, layer, names)
        for path, name, layer, kind in SPAN_METHODS:
            cls = _lookup(path)
            if cls is None or name not in vars(cls):
                missing.append(f"{path}.{name}")
            else:
                self._set(cls, name, self._span(vars(cls)[name], layer, kind, f"{cls.__name__}.{name}"))
        for name in ORACLE_NX:
            fn = getattr(networkx, name, None)
            if fn is None:
                missing.append(f"networkx:{name}")
            else:
                self._set(networkx, name, self._nx_oracle(fn, name))
