"""Correctness from outside: verdicts, the Fig. 3 oracle rerun, determinism.

Every check returns ``{position: reason}`` for the records it rejects, so
the caller can count each failing point once and print why.
"""

from __future__ import annotations

import networkx as nx

from repro.algorithms.elkin import run_elkin_approx_mst
from repro.algorithms.mst import run_gkp_mst
from repro.congest.engine import get_engine
from repro.experiments.scenarios import _fig3_graph

FIG3 = "fig3-mst-tradeoff"

#: Result keys that must be true, per scenario.  ``fig3-mst-tradeoff``
#: returns no verdict; :func:`fig3_failures` checks it against the oracle.
VERDICTS = {
    "spanner-skeleton": ("within_stretch", "linear_size"),
    "mst-under-faults": ("correct_after_recovery",),
    "bfs-restabilization": ("restabilized", "clean_converged"),
    "spanner-churn": ("correct_after_recovery",),
}

#: Record meta counters that must repeat exactly for one point.
COUNTERS = ("engine_rounds", "engine_total_bits", "engine_node_steps", "engine_skipped_rounds")


def verdict_failures(records) -> dict[int, str]:
    """Points whose status is not ``ok`` or whose verdicts are not all true."""
    failures = {}
    for pos, record in enumerate(records):
        if record.status != "ok":
            last = (record.error or "").strip().splitlines()[-1:] or [""]
            failures[pos] = f"status {record.status}: {last[0]}"
            continue
        bad = [key for key in VERDICTS.get(record.scenario, ()) if record.result.get(key) is not True]
        if bad:
            failures[pos] = f"verdict false: {', '.join(bad)}"
    return failures


def _engine(params: dict, graph):
    threads = params["engine_threads"] if params["engine_threads"] > 0 else None
    return get_engine(params["engine"], threads=threads, graph=graph)


def fig3_failures(records) -> dict[int, str]:
    """Rebuild each Fig. 3 instance, rerun both algorithms, check the oracle.

    GKP must return exactly the networkx MST edge set (weights are drawn
    from a continuous distribution, so the MST is unique), Elkin's weight
    must lie in ``[MST, (1 + alpha) * MST]``, and both round counts must
    equal the ones the sweep recorded.
    """
    failures = {}
    for pos, record in enumerate(records):
        if record.scenario != FIG3 or record.status != "ok":
            continue
        p = record.params
        graph = _fig3_graph(record.seed, p["n"], p["aspect_ratio"], p["extra_edge_prob"], p["graph_seed"])
        elkin_weight, elkin = run_elkin_approx_mst(graph, alpha=p["alpha"], engine=_engine(p, graph))
        gkp_edges, gkp = run_gkp_mst(graph, bandwidth=p["bandwidth"], engine=_engine(p, graph))
        mst = nx.minimum_spanning_tree(graph)
        mst_weight = mst.size(weight="weight")
        bad = []
        if gkp_edges != {frozenset(e) for e in mst.edges()}:
            bad.append("GKP edge set differs from the networkx MST")
        if not mst_weight * (1 - 1e-9) <= elkin_weight <= (1 + p["alpha"]) * mst_weight * (1 + 1e-9):
            bad.append(f"Elkin weight {elkin_weight} outside [{mst_weight}, (1+alpha)*{mst_weight}]")
        if elkin.rounds != record.result["elkin_rounds"]:
            bad.append(f"Elkin rounds {elkin.rounds} != recorded {record.result['elkin_rounds']}")
        if gkp.rounds != record.result["gkp_rounds"]:
            bad.append(f"GKP rounds {gkp.rounds} != recorded {record.result['gkp_rounds']}")
        if bad:
            failures[pos] = "; ".join(bad)
    return failures


def counter_mismatches(records, reference, what: str) -> dict[int, str]:
    """Points whose engine counters differ from ``reference`` records of the
    same (scenario, seed); points absent from ``reference`` are not checked."""
    expected = {(r.scenario, r.seed): r for r in reference if r.status == "ok"}
    failures = {}
    for pos, record in enumerate(records):
        ref = expected.get((record.scenario, record.seed))
        if ref is None or record.status != "ok":
            continue
        diff = [k for k in COUNTERS if record.meta.get(k) != ref.meta.get(k)]
        if diff:
            failures[pos] = f"{', '.join(diff)} differ from the {what}"
    return failures
