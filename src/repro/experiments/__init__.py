"""Experiment harness: scenario registry, sweep runner, result store.

Register a scenario::

    from repro.experiments import ParamSpec, scenario

    @scenario("my-sweep", params=[ParamSpec("n", int, 100)],
              default_grid={"n": [50, 100, 200]})
    def my_sweep(*, seed, n):
        return {"answer": n}

Then ``python -m repro.experiments run my-sweep --workers 4`` expands the
grid, runs it on an execution backend (serial, or a local process pool
for per-point timeouts and crash isolation -- see
:mod:`repro.experiments.backends`), and persists one JSON record per
point under ``experiment-results/`` keyed by a content hash of (scenario,
version, params, seed) -- re-runs are served from cache.
"""

from repro.experiments.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.experiments.registry import (
    ParamSpec,
    PlotSpec,
    Scenario,
    ScenarioNotFound,
    get_scenario,
    list_scenarios,
    load_builtin_scenarios,
    scenario,
)
from repro.experiments.runner import SweepReport, run_sweep
from repro.experiments.store import MergeSummary, ResultRecord, ResultStore, cache_key
from repro.experiments.sweep import SweepPoint, derive_seed, expand_grid

__all__ = [
    "ParamSpec",
    "PlotSpec",
    "Scenario",
    "ScenarioNotFound",
    "scenario",
    "get_scenario",
    "list_scenarios",
    "load_builtin_scenarios",
    "SweepPoint",
    "expand_grid",
    "derive_seed",
    "run_sweep",
    "SweepReport",
    "MergeSummary",
    "ResultStore",
    "ResultRecord",
    "cache_key",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
]
