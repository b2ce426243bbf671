"""Grid expansion and per-point seed derivation.

A sweep is the cartesian product of parameter axes, replicated
``replicates`` times.  Every point gets a seed derived by hashing
(scenario name, canonical params, replicate index, base seed), so

- the same grid + base seed always yields the identical point list
  (cache keys are stable across runs and machines), and
- distinct points get decorrelated, reproducible randomness without the
  caller threading seeds by hand.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterable

from repro.experiments.registry import Scenario


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def derive_seed(scenario_name: str, params: dict[str, Any], replicate: int, base_seed: int) -> int:
    """The point's reproducible seed: sha256 over its full identity."""
    return _seed_from_parts(
        canonical_json(scenario_name), canonical_json(params), replicate, base_seed
    )


def _seed_from_parts(
    scenario_json: str, params_json: str, replicate: int, base_seed: int
) -> int:
    """:func:`derive_seed` with the JSON fragments pre-serialized.

    Byte-identical to ``canonical_json`` over the full identity dict (the
    literal below is that dict's sorted-key form), so seeds and the cache
    keys built on them never move.  Splitting it out lets
    :func:`expand_grid` serialize each params combo once instead of once
    per replicate -- measurable when a sweep expands 10^4 points.
    """
    payload = (
        f'{{"base_seed":{int(base_seed)},"params":{params_json},'
        f'"replicate":{int(replicate)},"scenario":{scenario_json}}}'
    )
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SweepPoint:
    """One (scenario, params, seed) task of a sweep, in grid order."""

    index: int
    scenario: str
    params: dict[str, Any]
    replicate: int
    seed: int

    def __hash__(self) -> int:  # params is a dict; hash by identity content
        return hash((self.index, self.scenario, canonical_json(self.params), self.seed))


def expand_grid(
    scenario: Scenario,
    grid: dict[str, Iterable] | None = None,
    replicates: int = 1,
    base_seed: int = 0,
) -> list[SweepPoint]:
    """Expand a parameter grid into an ordered list of sweep points.

    ``grid`` maps parameter names to a value or list of values; axes not
    mentioned fall back to the scenario's ``default_grid`` and then to the
    parameter default.  Ordering is the cartesian product in parameter-spec
    order (last axis fastest), replicates innermost -- deterministic, so
    parallel results can be merged back into grid order.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    merged: dict[str, list] = {}
    grid = dict(grid or {})
    unknown = set(grid) - {p.name for p in scenario.params}
    if unknown:
        raise KeyError(
            f"unknown grid axis/axes {sorted(unknown)} for scenario {scenario.name!r}"
        )
    for spec in scenario.params:
        if spec.name in grid:
            raw = grid[spec.name]
            values = list(raw) if isinstance(raw, (list, tuple)) else [raw]
        elif spec.name in scenario.default_grid:
            values = list(scenario.default_grid[spec.name])
        else:
            values = [spec.default]
        merged[spec.name] = [spec.coerce(v) for v in values]

    axes = list(merged)
    points: list[SweepPoint] = []
    scenario_json = canonical_json(scenario.name)
    for combo in itertools.product(*(merged[a] for a in axes)):
        params = dict(zip(axes, combo))
        params_json = canonical_json(params)  # once per combo, not per replicate
        for replicate in range(replicates):
            points.append(
                SweepPoint(
                    index=len(points),
                    scenario=scenario.name,
                    params=params,
                    replicate=replicate,
                    seed=_seed_from_parts(scenario_json, params_json, replicate, base_seed),
                )
            )
    return points


def parse_axis_overrides(assignments: list[str]) -> dict[str, list[str]]:
    """Parse CLI ``--set key=v1,v2,...`` strings into grid axes."""
    grid: dict[str, list[str]] = {}
    for assignment in assignments:
        if "=" not in assignment:
            raise ValueError(f"--set expects key=value[,value...], got {assignment!r}")
        key, _, raw = assignment.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"--set expects key=value[,value...], got {assignment!r}")
        grid[key] = [v.strip() for v in raw.split(",") if v.strip() != ""]
        if not grid[key]:
            raise ValueError(f"--set {key}= has no values")
    return grid
