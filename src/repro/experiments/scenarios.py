"""Built-in scenario registrations spanning the repo's layers.

Each scenario is a pure function of ``(seed, **params) -> dict`` whose
randomness derives entirely from the seed, so a sweep point is fully
identified by its cache key.  The benchmark scripts under ``benchmarks/``
are thin wrappers over these registrations -- the sweep logic lives here.
"""

from __future__ import annotations

import math
import random

import networkx as nx

from repro.algorithms.disjointness import (
    run_classical_disjointness,
    run_quantum_disjointness,
)
from repro.algorithms.elkin import run_elkin_approx_mst
from repro.algorithms.mst import run_boruvka_mst, run_gkp_mst, tree_weight
from repro.algorithms.paths import run_refreshing_bellman_ford
from repro.algorithms.spanning_structures import greedy_spanner, run_linear_size_spanner
from repro.algorithms.verification import run_verification
from repro.congest.faults import FaultPlan
from repro.congest.node import Node, NodeProgram
from repro.congest.topology import dumbbell_graph
from repro.core.bounds import fig2_table, fig3_curve
from repro.core.fooling import gap_equality_lower_bound
from repro.core.gadgets import (
    gap_eq_mismatch_count,
    gap_eq_to_ham,
    ipmod3_to_ham,
    ipmod3_value,
)
from repro.core.gamma2 import gamma2_dual
from repro.core.nonlocal_games import chsh_game
from repro.core.server_model import StructuredServerProtocol, two_party_simulation_of_server
from repro.core.simulation_theorem import SimulationTheoremNetwork
from repro.congest.engine import _ENGINES, Engine, get_engine
from repro.experiments.registry import ParamSpec, PlotSpec, scenario
from repro.graphs.generators import (
    connect_nearest_components,
    knn_geometric_graph,
    matching_pair_for_cycles,
    random_connected_graph,
    random_weighted_graph,
)
from repro.graphs.spatial import GridIndex


#: Engine-selection axes shared by the CONGEST-heavy scenarios, so sweeps
#: can put the execution engine itself on the grid (``--engine dense``
#: at the CLI).  ``engine_threads`` is kept only so existing cache keys and
#: external readers stay stable: 0 is the only accepted value, and anything
#: else makes ``get_engine`` raise.
ENGINE_PARAMS = (
    ParamSpec("engine", str, "event", "CONGEST engine: " + "|".join(_ENGINES)),
    ParamSpec("engine_threads", int, 0, "reserved; must be 0 (engines take no thread count)"),
)


def _resolve_engine(engine: str, engine_threads: int) -> Engine:
    """Build the engine instance a scenario point asked for.

    An instance (not the name) so the scenario can read back introspection
    counters such as ``node_steps`` after the run.
    """
    return get_engine(engine, threads=engine_threads if engine_threads > 0 else None)


def _weighted_graph(n: int, extra_edge_prob: float, graph_seed: int, weight_seed: int) -> nx.Graph:
    """Random connected graph with distinct positive integer weights."""
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=graph_seed)
    rng = random.Random(weight_seed)
    weights = rng.sample(range(1, 10 * graph.number_of_edges() + 1), graph.number_of_edges())
    for (u, v), w in zip(graph.edges(), weights):
        graph.edges[u, v]["weight"] = float(w)
    return graph


def _mst_verdict(graph: nx.Graph, edges: set[frozenset]) -> tuple[float, bool]:
    """The centralised MST weight and the strongest exactness check the
    instance allows.

    With pairwise-distinct weights the MST is unique, so ``edges`` must
    equal ``nx.minimum_spanning_tree``'s edge set.  With ties, ``edges``
    must form a spanning tree of ``graph`` whose weight matches the MST's
    within 1e-9 (an edge missing from ``graph`` raises ``KeyError``).
    """
    mst = nx.minimum_spanning_tree(graph)
    reference = sum(d["weight"] for _, _, d in mst.edges(data=True))
    weights = [w for _, _, w in graph.edges(data="weight")]
    if len(set(weights)) == len(weights):
        return reference, edges == {frozenset(e) for e in mst.edges()}
    tree = nx.Graph()
    tree.add_nodes_from(graph)
    tree.add_edges_from(tuple(e) for e in edges)
    return reference, nx.is_tree(tree) and abs(tree_weight(graph, edges) - reference) < 1e-9


def _fig3_graph(
    seed: int, n: int, aspect_ratio: float, extra_edge_prob: float, graph_seed: int
) -> nx.Graph:
    """The Fig. 3 instance: fixed topology, seed-drawn weights in [1, W]."""
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=graph_seed)
    rng = random.Random(seed)
    w = aspect_ratio
    for u, v in graph.edges():
        graph.edges[u, v]["weight"] = rng.uniform(1.0, w) if w > 1 else 1.0
    edges = list(graph.edges())
    # Pin the extremes so the realised aspect ratio is exactly W.
    graph.edges[edges[0]]["weight"] = 1.0
    graph.edges[edges[-1]]["weight"] = float(w)
    return graph


@scenario(
    "fig3-mst-tradeoff",
    description="Fig. 3 measured: Elkin-mode staged flood vs exact GKP MST rounds vs W",
    params=[
        ParamSpec("n", int, 60, "nodes in the live CONGEST network"),
        ParamSpec("aspect_ratio", float, 1024.0, "weight aspect ratio W"),
        ParamSpec("alpha", float, 2.0, "Elkin approximation factor"),
        ParamSpec("bandwidth", int, 128, "CONGEST bandwidth B for the GKP run"),
        ParamSpec("extra_edge_prob", float, 0.08, "extra-edge density of the random graph"),
        ParamSpec("graph_seed", int, 17, "topology seed (fixed across the W axis)"),
        *ENGINE_PARAMS,
    ],
    default_grid={"aspect_ratio": [2.0, 32.0, 256.0, 1024.0, 8192.0]},
    tags=("mst", "congest", "fig3"),
    plots=(
        PlotSpec(
            name="rounds-vs-w",
            title="Fig. 3 — MST rounds vs aspect ratio W",
            x="W",
            ys=("elkin_rounds", "gkp_rounds", "combined_rounds"),
            logx=True,
            logy=True,
            x_label="aspect ratio W",
            y_label="CONGEST rounds",
        ),
        PlotSpec(
            name="bounds-vs-w",
            title="Fig. 3 — measured rounds against the closed-form bounds",
            x="W",
            ys=("combined_rounds", "formula_lower_bound", "formula_upper_bound"),
            logx=True,
            logy=True,
            x_label="aspect ratio W",
            y_label="rounds / bound value",
        ),
    ),
)
def fig3_mst_tradeoff(
    *,
    seed: int,
    n: int,
    aspect_ratio: float,
    alpha: float,
    bandwidth: int,
    extra_edge_prob: float,
    graph_seed: int,
    engine: str,
    engine_threads: int,
) -> dict:
    """The paper's headline trade-off (Fig. 3): rounds vs aspect ratio W.

    Runs both MST algorithms live on the same seeded CONGEST instance --
    the Elkin-mode staged flood (approximation factor ``alpha``) and the
    exact GKP algorithm -- and compares the measured round counts with the
    closed-form curve of ``fig3_curve``.  Result keys: ``W``,
    ``elkin_rounds``, ``gkp_rounds``, ``combined_rounds`` (the better of
    the two, the paper's upper envelope), ``formula_lower_bound`` and
    ``formula_upper_bound``.
    """
    w = aspect_ratio
    graph = _fig3_graph(seed, n, aspect_ratio, extra_edge_prob, graph_seed)

    _, elkin = run_elkin_approx_mst(
        graph, alpha=alpha, engine=_resolve_engine(engine, engine_threads)
    )
    _, gkp = run_gkp_mst(
        graph, bandwidth=bandwidth, engine=_resolve_engine(engine, engine_threads)
    )
    formula = fig3_curve(n, alpha, [w])[0]
    return {
        "W": w,
        "elkin_rounds": elkin.rounds,
        "gkp_rounds": gkp.rounds,
        "combined_rounds": min(elkin.rounds, gkp.rounds),
        "formula_lower_bound": formula["lower_bound"],
        "formula_upper_bound": formula["upper_bound"],
    }


@scenario(
    "fig3-engine-speedup",
    description="Dense vs event CONGEST engine on one Fig. 3 grid point (wall-clock)",
    params=[
        ParamSpec("n", int, 60, "nodes in the live CONGEST network"),
        ParamSpec("aspect_ratio", float, 8192.0, "weight aspect ratio W"),
        ParamSpec("alpha", float, 2.0, "Elkin approximation factor"),
        ParamSpec("bandwidth", int, 128, "CONGEST bandwidth B for the GKP run"),
        ParamSpec("extra_edge_prob", float, 0.08, "extra-edge density of the random graph"),
        ParamSpec("graph_seed", int, 17, "topology seed"),
    ],
    default_grid={},
    tags=("congest", "engine", "perf"),
    plots=(
        PlotSpec(
            name="engine-seconds",
            title="Engine wall-clock on the Fig. 3 point",
            x="W",
            ys=("dense_seconds", "event_seconds"),
            kind="scatter",
            logx=True,
            logy=True,
            x_label="aspect ratio W",
            y_label="seconds",
        ),
        PlotSpec(
            name="engine-speedup",
            title="Event-engine speedup over the dense reference",
            x="W",
            ys=("speedup",),
            kind="scatter",
            logx=True,
            x_label="aspect ratio W",
            y_label="x faster",
        ),
    ),
)
def fig3_engine_speedup(
    *,
    seed: int,
    n: int,
    aspect_ratio: float,
    alpha: float,
    bandwidth: int,
    extra_edge_prob: float,
    graph_seed: int,
) -> dict:
    """Run the same grid point on both engines; results must agree exactly.

    Times the dense reference engine against the event-driven default on
    one Fig. 3 instance (Elkin + GKP back to back) and cross-checks that
    every run metric matches.  Result keys: ``W``, ``elkin_rounds``,
    ``gkp_rounds``, ``dense_seconds``, ``event_seconds``, ``speedup`` and
    the ``engines_agree`` verdict.
    """
    import time

    graph = _fig3_graph(seed, n, aspect_ratio, extra_edge_prob, graph_seed)
    timings: dict[str, float] = {}
    runs: dict[str, tuple] = {}
    for engine in ("dense", "event"):
        start = time.perf_counter()
        _, elkin = run_elkin_approx_mst(graph, alpha=alpha, engine=engine)
        _, gkp = run_gkp_mst(graph, bandwidth=bandwidth, engine=engine)
        timings[engine] = time.perf_counter() - start
        runs[engine] = (elkin, gkp)
    agree = all(
        getattr(runs["dense"][i], f) == getattr(runs["event"][i], f)
        for i in (0, 1)
        for f in ("rounds", "total_bits", "total_messages", "halted")
    )
    return {
        "W": aspect_ratio,
        "elkin_rounds": runs["event"][0].rounds,
        "gkp_rounds": runs["event"][1].rounds,
        "dense_seconds": timings["dense"],
        "event_seconds": timings["event"],
        "speedup": timings["dense"] / max(timings["event"], 1e-9),
        "engines_agree": agree,
    }


@scenario(
    "example11-disjointness",
    description="Example 1.1: quantum vs classical Disjointness rounds on the dumbbell",
    params=[
        ParamSpec("b", int, 64, "instance size (bits per player)"),
        ParamSpec("bandwidth", int, 8, "CONGEST bandwidth B"),
        ParamSpec("clique_size", int, 3, "dumbbell clique size"),
        ParamSpec("path_length", int, 4, "dumbbell connecting-path length"),
        ParamSpec("instance_seed", int, -1, "fixed (x, y) instance seed; -1 = derive per point"),
    ],
    default_grid={"b": [16, 64, 256]},
    tags=("disjointness", "quantum", "congest"),
    plots=(
        PlotSpec(
            name="rounds-vs-b",
            title="Example 1.1 — Disjointness rounds, classical vs quantum",
            x="b",
            ys=("classical_rounds", "quantum_rounds"),
            logx=True,
            logy=True,
            x_label="instance size b",
            y_label="CONGEST rounds",
        ),
        PlotSpec(
            name="grover-queries",
            title="Example 1.1 — distributed Grover query count",
            x="b",
            ys=("grover_queries",),
            kind="scatter",
            logx=True,
            logy=True,
            x_label="instance size b",
            y_label="oracle queries",
        ),
    ),
)
def example11_disjointness(
    *, seed: int, b: int, bandwidth: int, clique_size: int, path_length: int, instance_seed: int
) -> dict:
    """The paper's Example 1.1: quantum advantage for Disjointness.

    Solves a disjoint ``b``-bit instance between the two clique endpoints
    of a dumbbell graph, classically (bit exchange) and quantumly
    (distributed Grover over teleported queries), on live CONGEST
    networks.  Result keys: ``b``, ``classical_rounds``,
    ``quantum_rounds``, ``grover_queries`` and both verdicts (which must
    say "disjoint").
    """
    graph = dumbbell_graph(clique_size, path_length)
    u, v = ("L", 1), ("R", 1)
    # A non-negative instance_seed pins the (x, y) instance across an axis
    # sweep (e.g. varying bandwidth), isolating the swept parameter.
    rng = random.Random(seed if instance_seed < 0 else instance_seed)
    x = tuple(rng.randrange(2) for _ in range(b))
    y = tuple(0 if a else rng.randrange(2) for a in x)  # disjoint instance
    classical_verdict, classical = run_classical_disjointness(
        graph, u, v, x, y, bandwidth=bandwidth
    )
    quantum_verdict, quantum, queries = run_quantum_disjointness(
        graph, u, v, x, y, bandwidth=bandwidth, seed=seed
    )
    return {
        "b": b,
        "classical_rounds": classical.rounds,
        "quantum_rounds": quantum.rounds,
        "grover_queries": queries,
        "classical_verdict": classical_verdict,
        "quantum_verdict": quantum_verdict,
    }


@scenario(
    "fig2-bound-table",
    description="Fig. 2: previous-vs-new lower-bound table at concrete parameters",
    params=[
        ParamSpec("n", int, 10_000, "network size"),
        ParamSpec("bandwidth", int, 14, "CONGEST bandwidth B (~ log2 n)"),
        ParamSpec("aspect_ratio", float, 1024.0, "weight aspect ratio W"),
        ParamSpec("alpha", float, 2.0, "approximation factor"),
    ],
    default_grid={"n": [1_000, 10_000, 100_000]},
    tags=("bounds", "fig2"),
    plots=(
        PlotSpec(
            name="bounds-vs-n",
            title="Fig. 2 — new lower bounds vs network size",
            x="n",
            ys=("verification_bound", "optimization_bound"),
            logx=True,
            logy=True,
            x_label="network size n",
            y_label="quantum round lower bound",
        ),
    ),
)
def fig2_bound_table(*, seed: int, n: int, bandwidth: int, aspect_ratio: float, alpha: float) -> dict:
    """The Fig. 2 table: previous vs new quantum lower bounds, evaluated.

    Instantiates every row of the paper's bound table (verification and
    optimization problems) at concrete ``(n, B, W, alpha)`` via
    ``fig2_table``.  Result keys: ``n``, ``n_rows``, the headline
    ``verification_bound`` and ``optimization_bound``, and ``rows`` (the
    full problem/category/previous/new listing).
    """
    rows = fig2_table(n, bandwidth, aspect_ratio=aspect_ratio, alpha=alpha)
    return {
        "n": n,
        "n_rows": len(rows),
        "verification_bound": next(r.new_value for r in rows if r.category == "verification"),
        "optimization_bound": next(r.new_value for r in rows if r.category == "optimization"),
        "rows": [
            {
                "problem": r.problem,
                "category": r.category,
                "previous_value": r.previous_value,
                "new_value": r.new_value,
            }
            for r in rows
        ],
    }


@scenario(
    "server-model-equivalence",
    description="Section 3.1: two-party simulation of a structured Server protocol is cost-exact",
    params=[
        ParamSpec("n_rounds", int, 8, "rounds of the streamed-XOR server protocol"),
        ParamSpec("input_bits", int, 16, "bits per player"),
    ],
    default_grid={"n_rounds": [2, 8, 32]},
    tags=("server-model", "bounds"),
    plots=(
        PlotSpec(
            name="bits-vs-rounds",
            title="Server model — player bits, direct vs two-party simulation",
            x="n_rounds",
            ys=("server_player_bits", "two_party_bits"),
            logx=True,
            x_label="protocol rounds",
            y_label="player communication (bits)",
        ),
    ),
)
def server_model_equivalence(*, seed: int, n_rounds: int, input_bits: int) -> dict:
    """Section 3.1: simulating a structured Server protocol costs nothing.

    Runs a streamed-XOR Server-model protocol directly and through the
    two-party simulation, asserting bit-for-bit cost equality and output
    agreement.  Result keys: ``n_rounds``, ``server_player_bits``,
    ``two_party_bits``, the ``cost_exact`` / ``outputs_match`` verdicts
    and the Gap-Eq server-model lower bound for context.
    """
    rng = random.Random(seed)
    x = tuple(rng.randrange(2) for _ in range(input_bits))
    y = tuple(rng.randrange(2) for _ in range(input_bits))

    def carol_message(x_in, view, t):
        return (x_in[t % len(x_in)],)

    def david_message(y_in, view, t):
        return (y_in[t % len(y_in)],)

    def server_message(carol_sent, david_sent, t):
        xor = 0
        for bits in carol_sent + david_sent:
            for bit in bits:
                xor ^= bit
        return xor, xor

    protocol = StructuredServerProtocol(
        n_rounds=n_rounds,
        carol_message=carol_message,
        david_message=david_message,
        server_message=server_message,
        carol_output=lambda x_in, view: view[-1],
    )
    server = protocol.run(x, y)
    two_party = two_party_simulation_of_server(protocol, x, y)
    gap = gap_equality_lower_bound(max(8, input_bits))
    return {
        "n_rounds": n_rounds,
        "server_player_bits": server.carol_bits + server.david_bits,
        "two_party_bits": two_party.total_bits,
        "cost_exact": server.carol_bits + server.david_bits == two_party.total_bits,
        "outputs_match": repr(server.output) == repr(two_party.output),
        "gap_eq_server_lower_bound": gap["server_model_lower_bound"],
    }


@scenario(
    "verification-suite",
    description="Distributed verification of a spanning structure on a live CONGEST network",
    params=[
        ParamSpec("problem", str, "spanning tree", "verifier name (see VERIFIERS)"),
        ParamSpec("n", int, 40, "network size"),
        ParamSpec("extra_edge_prob", float, 0.1, "extra-edge density"),
        ParamSpec("bandwidth", int, 64, "CONGEST bandwidth B"),
    ],
    default_grid={"problem": ["spanning tree", "connectivity", "bipartiteness"]},
    tags=("verification", "congest"),
    plots=(
        PlotSpec(
            name="cost-by-problem",
            title="Verification cost by problem",
            x="problem",
            ys=("rounds", "total_bits"),
            kind="bar",
            logy=True,
            x_label="verifier",
            y_label="rounds / bits (log)",
        ),
    ),
)
def verification_suite(
    *, seed: int, problem: str, n: int, extra_edge_prob: float, bandwidth: int
) -> dict:
    """Corollary 3.7's verification problems run on a live network.

    Builds a random connected graph, takes its BFS tree as the candidate
    subgraph ``M`` and runs the named distributed verifier over CONGEST.
    Result keys: ``problem``, the ``verdict`` (True for a genuine
    spanning structure), ``rounds``, ``total_bits`` and
    ``total_messages``.
    """
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    tree = nx.bfs_tree(graph, source=min(graph.nodes())).to_undirected()
    m_edges = list(tree.edges())
    nodes = sorted(graph.nodes())
    kwargs: dict = {"s": nodes[0], "t": nodes[-1]}
    if problem in ("e-cycle containment", "edge on all paths"):
        kwargs = {"special_edge": m_edges[0]}
    verdict, run = run_verification(
        problem, graph, m_edges, bandwidth=bandwidth, seed=seed, **kwargs
    )
    return {
        "problem": problem,
        "verdict": bool(verdict),
        "rounds": run.rounds,
        "total_bits": run.total_bits,
        "total_messages": run.total_messages,
    }


@scenario(
    "chsh-gamma2",
    description="gamma_2^* alternating Tsirelson solver accuracy vs restarts on CHSH",
    params=[
        ParamSpec("restarts", int, 8, "random restarts of the alternating solver"),
        ParamSpec("iterations", int, 400, "alternating sweeps per restart"),
        ParamSpec("solver_seed", int, -1, "fixed solver seed; -1 = derive per point"),
    ],
    default_grid={"restarts": [1, 2, 4, 8]},
    tags=("gamma2", "nonlocal-games"),
    plots=(
        PlotSpec(
            name="error-vs-restarts",
            title="CHSH — solver error vs restarts",
            x="restarts",
            ys=("abs_error",),
            logy=True,
            x_label="random restarts",
            y_label="|bias - 1/sqrt(2)|",
        ),
        PlotSpec(
            name="bias-vs-restarts",
            title="CHSH — achieved bias vs the Tsirelson and classical values",
            x="restarts",
            ys=("bias", "target", "classical_bias"),
            x_label="random restarts",
            y_label="game bias",
        ),
    ),
)
def chsh_gamma2(*, seed: int, restarts: int, iterations: int, solver_seed: int) -> dict:
    """Section 6's gamma_2^* machinery on CHSH: solver accuracy sweep.

    The alternating Tsirelson-bound solver should approach the quantum
    bias 1/sqrt(2) as restarts grow (and must beat the classical bias
    3/4 - 1/2 scale).  Result keys: ``restarts``, ``bias``,
    ``classical_bias``, the ``target`` value and ``abs_error``.
    """
    game = chsh_game()
    target = 1.0 / math.sqrt(2.0)
    # A fixed solver_seed makes the bias monotone in restarts (the solver
    # keeps its best run over a shared rng stream prefix).
    bias = gamma2_dual(
        game.cost_matrix,
        restarts=restarts,
        iterations=iterations,
        seed=seed if solver_seed < 0 else solver_seed,
    )
    return {
        "restarts": restarts,
        "bias": bias,
        "classical_bias": game.classical_bias(),
        "target": target,
        "abs_error": abs(bias - target),
    }


@scenario(
    "gkp-cap-ablation",
    description="GKP fragment-size cap ablation: rounds and exactness vs cap",
    params=[
        ParamSpec("n", int, 100, "network size"),
        ParamSpec("cap", int, 10, "Phase A fragment-size cap (sqrt(n) is the paper's choice)"),
        ParamSpec("bandwidth", int, 128, "CONGEST bandwidth B"),
        ParamSpec("extra_edge_prob", float, 0.04, "extra-edge density"),
        ParamSpec("graph_seed", int, 21, "topology seed (fixed across the cap axis)"),
    ],
    default_grid={"cap": [3, 6, 10, 20, 40]},
    tags=("mst", "ablation"),
    plots=(
        PlotSpec(
            name="rounds-vs-cap",
            title="GKP — rounds vs Phase A fragment cap",
            x="cap",
            ys=("rounds",),
            logx=True,
            x_label="fragment-size cap",
            y_label="CONGEST rounds",
        ),
    ),
)
def gkp_cap_ablation(
    *, seed: int, n: int, cap: int, bandwidth: int, extra_edge_prob: float, graph_seed: int
) -> dict:
    """Ablation of GKP's Phase A fragment-size cap (paper picks sqrt(n)).

    Sweeps the cap on one fixed weighted instance; the returned tree must
    stay exact for every cap while the round count traces the Phase A /
    Phase B balance.  Result keys: ``cap``, ``rounds``, ``tree_weight``,
    ``reference_weight`` and the ``exact`` verdict.
    """
    graph = _weighted_graph(n, extra_edge_prob, graph_seed, weight_seed=graph_seed + 1)
    edges, result = run_gkp_mst(graph, bandwidth=bandwidth, cap=cap)
    weight = tree_weight(graph, edges)
    reference, exact = _mst_verdict(graph, edges)
    return {
        "cap": cap,
        "rounds": result.rounds,
        "tree_weight": weight,
        "reference_weight": reference,
        "exact": exact,
    }


class _ChatterProgram(NodeProgram):
    """All-edges-every-round traffic for the full simulation horizon."""

    def __init__(self, horizon: int):
        self.horizon = horizon

    def on_start(self, node: Node) -> None:
        node.broadcast(("r", 0), bits=8)

    def on_round(self, node: Node, round_no: int, inbox) -> None:
        if round_no >= self.horizon:
            node.halt()
            return
        node.broadcast(("r", round_no), bits=8)


@scenario(
    "simulation-theorem",
    description="Theorem 3.5 measured: three-party simulation cost vs the 6kB/round budget",
    params=[
        ParamSpec("length", int, 17, "highway length L of N(Gamma, L)"),
        ParamSpec("n_paths", int, 4, "Gamma: number of paths"),
        ParamSpec("bandwidth", int, 8, "CONGEST bandwidth B"),
        ParamSpec("n_cycles", int, 2, "cycles in the Observation 8.1 embedding check"),
    ],
    default_grid={"length": [9, 17, 33, 65]},
    tags=("simulation-theorem", "congest", "figs8-13"),
    plots=(
        PlotSpec(
            name="cost-vs-length",
            title="Simulation theorem — three-party cost vs highway length",
            x="length",
            ys=("rounds", "player_bits", "server_bits"),
            logx=True,
            logy=True,
            x_label="highway length L",
            y_label="rounds / bits",
        ),
    ),
)
def simulation_theorem(
    *, seed: int, length: int, n_paths: int, bandwidth: int, n_cycles: int
) -> dict:
    """Theorem 3.5 measured on the N(Gamma, L) highway network.

    Simulates a worst-case all-edges chatter program for the full valid
    horizon and checks the accounting against the 6kB-per-round budget,
    the total bound, the logarithmic-diameter claim and (for even input
    sizes) the Observation 8.1 cycle embedding.  Result keys: ``length``,
    ``nodes``, ``diameter``, ``rounds``, ``player_bits``, ``server_bits``,
    ``per_round_bound`` and the ``within_*`` / ``diameter_logarithmic`` /
    ``observation_8_1`` verdicts.
    """
    net = SimulationTheoremNetwork(n_paths, length)
    horizon = net.schedule.valid_horizon()
    accounting = net.simulate(lambda: _ChatterProgram(horizon), bandwidth=bandwidth)
    diameter = nx.diameter(net.graph)
    size = net.input_graph_size
    if size % 2 == 0 and size >= 4:
        carol, david = matching_pair_for_cycles(
            size, max(1, min(n_cycles, size // 4)), seed=seed
        )
        observation_8_1 = net.check_observation_8_1(carol, david)
    else:
        # Perfect matchings need an even Gamma' = Gamma + k; odd sizes skip
        # the embedding check (the cost accounting above still runs).
        observation_8_1 = None
    return {
        "length": net.length,
        "nodes": net.graph.number_of_nodes(),
        "diameter": diameter,
        "rounds": accounting.rounds,
        "player_bits": accounting.cost,
        "server_bits": accounting.server_bits,
        "per_round_bound": accounting.per_round_bound,
        "within_per_round_bound": all(
            c <= accounting.per_round_bound for c in accounting.per_round_cost
        ),
        "within_total_bound": accounting.cost <= accounting.total_bound,
        "diameter_logarithmic": diameter <= 4 * math.log2(net.length) + 6,
        "observation_8_1": observation_8_1,
    }


@scenario(
    "spanner-skeleton",
    description="Greedy (2k-1)-spanner computed centrally via a CONGEST gather "
    "(the baseline Elkin-Matar improve on): stretch/size vs n",
    params=[
        ParamSpec("n", int, 60, "nodes in the live CONGEST network"),
        ParamSpec("stretch_k", int, 0, "spanner parameter k (0 = ceil(log2 n), linear size)"),
        ParamSpec("aspect_ratio", float, 32.0, "weight aspect ratio W"),
        ParamSpec("extra_edge_prob", float, 0.15, "extra-edge density of the random graph"),
        ParamSpec("bandwidth", int, 128, "CONGEST bandwidth B"),
        *ENGINE_PARAMS,
    ],
    default_grid={"n": [30, 60, 120]},
    tags=("spanner", "skeleton", "congest", "elkin-matar"),
    plots=(
        PlotSpec(
            name="size-vs-n",
            title="Spanner size vs the linear-size budget",
            x="n",
            ys=("spanner_edges", "m"),
            logx=True,
            logy=True,
            x_label="network size n",
            y_label="edges",
        ),
        PlotSpec(
            name="quiet-fraction",
            title="Event-engine quiet fraction of the dense schedule",
            x="n",
            ys=("quiet_fraction",),
            logx=True,
            x_label="network size n",
            y_label="fraction of n x rounds skipped",
        ),
    ),
)
def spanner_skeleton(
    *,
    seed: int,
    n: int,
    stretch_k: int,
    aspect_ratio: float,
    extra_edge_prob: float,
    bandwidth: int,
    engine: str,
    engine_threads: int,
) -> dict:
    """Greedy (2k-1)-spanner [ADDJS93] of a random weighted graph, computed
    centrally via a CONGEST gather.

    This is the baseline the Elkin-Matar constructions (arXiv:1907.10895)
    improve on, not their algorithm: the edges are pipelined to a leader,
    which runs the greedy spanner and broadcasts the answer.  At
    ``k = ceil(log2 n)`` the girth bound makes the spanner linear-size
    (< 2n edges).  On the default grid (W=32) that bound holds trivially:
    at base seeds 0-9, 26 of the 30 points came out as exactly the MST
    (n-1 edges) and the other four, all at n=120, had n or n+1 edges.
    The phased CONGEST construction is mostly quiet by design, so the
    scenario also reports how much of the dense ``n x rounds`` schedule the
    active-set engines actually stepped.
    """
    graph = random_weighted_graph(
        n, aspect_ratio=aspect_ratio, extra_edge_prob=extra_edge_prob, seed=seed
    )
    k = stretch_k if stretch_k >= 1 else max(1, math.ceil(math.log2(n)))
    engine_obj = _resolve_engine(engine, engine_threads)
    summary, run = run_linear_size_spanner(graph, k, bandwidth=bandwidth, engine=engine_obj)
    node_steps = getattr(engine_obj, "node_steps", None)
    dense_steps = n * run.rounds
    return {
        "n": n,
        "m": summary["m"],
        "k": k,
        "stretch_bound": 2 * k - 1,
        "spanner_edges": summary["spanner_edges"],
        "size_ratio": summary["spanner_edges"] / n,
        "linear_size": summary["spanner_edges"] < 2 * n,
        "max_stretch": summary["max_stretch"],
        "within_stretch": summary["max_stretch"] <= 2 * k - 1 + 1e-9,
        "rounds": run.rounds,
        "total_bits": run.total_bits,
        "node_steps": node_steps,
        "quiet_fraction": (
            1.0 - node_steps / dense_steps if node_steps is not None and dense_steps else None
        ),
    }


def _boruvka_instance(
    generator: str, weight_model: str, n: int, extra_edge_prob: float, aspect_ratio: float, seed: int
) -> nx.Graph:
    """A NetworkBuild-style MST instance: topology x weight-model product.

    Every node gets planar coordinates (lattice positions are jittered) so
    the ``euclidean`` weight model is tie-free almost surely -- Borůvka's
    fragment merging assumes distinct weights.
    """
    rng = random.Random(seed)
    graph: nx.Graph
    if generator == "random":
        graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
        pos = {v: (rng.random() * 10, rng.random() * 10) for v in sorted(graph.nodes())}
    elif generator == "grid":
        side = max(2, math.isqrt(n))
        lattice = nx.grid_2d_graph(side, side)
        labels = {coord: i for i, coord in enumerate(sorted(lattice.nodes()))}
        graph = nx.relabel_nodes(lattice, labels)
        pos = {
            labels[(i, j)]: (i + rng.uniform(-0.3, 0.3), j + rng.uniform(-0.3, 0.3))
            for i, j in sorted(labels)
        }
    elif generator == "geometric":
        pos = {v: (rng.random() * 10, rng.random() * 10) for v in range(n)}
        # Grid-indexed kNN + closest-pair bridging: ~O(n * k) instead of
        # the old all-pairs scans, byte-identical instances (the spatial
        # index reproduces brute-force distance/tie order exactly).
        spatial = GridIndex(pos)
        graph = knn_geometric_graph(pos, k=3, index=spatial)
        connect_nearest_components(graph, pos, index=spatial)
    else:
        raise ValueError(f"unknown generator {generator!r}; known: random, grid, geometric")

    edges = sorted(graph.edges())
    if weight_model == "distinct":
        weights = rng.sample(range(1, 10 * len(edges) + 1), len(edges))
        for (u, v), w in zip(edges, weights):
            graph.edges[u, v]["weight"] = float(w)
    elif weight_model == "uniform":
        for u, v in edges:
            graph.edges[u, v]["weight"] = rng.uniform(1.0, aspect_ratio)
    elif weight_model == "euclidean":
        for u, v in edges:
            graph.edges[u, v]["weight"] = math.dist(pos[u], pos[v])
    else:
        raise ValueError(
            f"unknown weight model {weight_model!r}; known: distinct, uniform, euclidean"
        )
    return graph


@scenario(
    "boruvka-mst-sweep",
    description="NetworkBuild-style Boruvka MST sweeps over generator x weight-model grids",
    params=[
        ParamSpec("n", int, 64, "nodes in the live CONGEST network"),
        ParamSpec("generator", str, "random", "topology family: random|grid|geometric"),
        ParamSpec("weight_model", str, "distinct", "edge weights: distinct|uniform|euclidean"),
        ParamSpec("extra_edge_prob", float, 0.08, "extra-edge density (random generator)"),
        ParamSpec("aspect_ratio", float, 64.0, "weight aspect ratio W (uniform model)"),
        ParamSpec("bandwidth", int, 128, "CONGEST bandwidth B"),
        *ENGINE_PARAMS,
    ],
    default_grid={
        "generator": ["random", "grid", "geometric"],
        "weight_model": ["distinct", "euclidean"],
    },
    tags=("mst", "boruvka", "congest", "networkbuild"),
    plots=(
        PlotSpec(
            name="exactness",
            title="Borůvka exactness — distributed vs centralised MST weight",
            x="reference_weight",
            ys=("tree_weight",),
            kind="scatter",
            logx=True,
            logy=True,
            group_by="generator",
            x_label="centralised MST weight",
            y_label="distributed Borůvka weight",
        ),
        PlotSpec(
            name="rounds-by-topology",
            title="Borůvka rounds by topology and weight model",
            x="generator",
            ys=("rounds",),
            kind="bar",
            group_by="weight_model",
            x_label="topology family",
            y_label="CONGEST rounds",
        ),
    ),
)
def boruvka_mst_sweep(
    *,
    seed: int,
    n: int,
    generator: str,
    weight_model: str,
    extra_edge_prob: float,
    aspect_ratio: float,
    bandwidth: int,
    engine: str,
    engine_threads: int,
) -> dict:
    """Distributed Borůvka over SEL-Columbia/NetworkBuild-style instances.

    The classic homogeneous CONGEST workload: every live node participates
    in every announce/flood/merge sub-round, so the active set stays large
    and the event engine's columnar batched flushes carry the run.  Exactness
    is edge-set equality with the centralised MST when the weights are
    pairwise distinct (the MST is then unique), and spanning-tree validity
    plus equal weight when they tie.
    """
    graph = _boruvka_instance(generator, weight_model, n, extra_edge_prob, aspect_ratio, seed)
    engine_obj = _resolve_engine(engine, engine_threads)
    edges, run = run_boruvka_mst(graph, bandwidth=bandwidth, seed=seed, engine=engine_obj)
    weight = tree_weight(graph, edges)
    reference, exact = _mst_verdict(graph, edges)
    return {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "generator": generator,
        "weight_model": weight_model,
        "engine": engine,
        "tree_edges": len(edges),
        "tree_weight": weight,
        "reference_weight": reference,
        "exact": exact,
        "rounds": run.rounds,
        "total_bits": run.total_bits,
        "total_messages": run.total_messages,
        "node_steps": getattr(engine_obj, "node_steps", None),
    }


@scenario(
    "gadget-reductions",
    description="Section 7 gadget reductions: IPmod3->Ham and Gap-Eq->Gap-Ham soundness and blowup",
    params=[
        ParamSpec("n", int, 64, "input bits per player"),
        ParamSpec("trials", int, 20, "random instances checked per point"),
        ParamSpec("beta", float, 0.125, "gap parameter for the far-instance cycle check"),
    ],
    default_grid={"n": [8, 32, 128, 512]},
    tags=("gadgets", "reductions", "figs4-7"),
    plots=(
        PlotSpec(
            name="blowup-vs-n",
            title="Gadget reductions — node blowup factor vs input size",
            x="n",
            ys=("ipmod3_blowup", "gap_eq_blowup"),
            logx=True,
            x_label="input bits n",
            y_label="gadget nodes per input bit",
        ),
        PlotSpec(
            name="far-cycles",
            title="Gap structure — cycles on far instances vs input size",
            x="n",
            ys=("far_instance_cycles",),
            logx=True,
            logy=True,
            x_label="input bits n",
            y_label="Hamiltonian-cycle count",
        ),
    ),
)
def gadget_reductions(*, seed: int, n: int, trials: int, beta: float) -> dict:
    """Section 7's gadget reductions, soundness-checked on random inputs.

    Exercises the IPmod3 -> Hamiltonicity and Gap-Eq -> Gap-Ham gadget
    constructions: a reduction is *sound* when the gadget graph is
    Hamiltonian exactly for yes-instances, and far Gap-Eq instances must
    shatter into Omega(n) cycles.  Result keys: ``n``, the
    ``ipmod3_sound`` / ``gap_eq_sound`` / ``far_cycles_linear`` verdicts,
    the gadget sizes and their per-input-bit ``*_blowup`` factors.
    """
    rng = random.Random(seed)
    ip_sound = 0
    for _ in range(trials):
        x = tuple(rng.randrange(2) for _ in range(n))
        y = tuple(rng.randrange(2) for _ in range(n))
        instance = ipmod3_to_ham(x, y)
        ip_sound += instance.is_hamiltonian() == (ipmod3_value(x, y) == 0)
    ip_nodes = instance.n_nodes

    gap_sound = 0
    for _ in range(trials):
        x = [rng.randrange(2) for _ in range(n)]
        y = list(x)
        delta = rng.randrange(0, max(1, n // 2))
        for i in rng.sample(range(n), delta):
            y[i] ^= 1
        gap_instance = gap_eq_to_ham(x, y)
        d = gap_eq_mismatch_count(x, y)
        ok = gap_instance.is_hamiltonian() == (d == 0)
        if d > 0:
            ok = ok and gap_instance.cycle_count() == d + 1
        gap_sound += ok
    gap_nodes = gap_instance.n_nodes

    # The gap structure: inputs at distance > 2 beta n give Omega(n) cycles.
    x = [rng.randrange(2) for _ in range(n)]
    y = list(x)
    flips = min(n, int(2 * beta * n) + 1)
    for i in rng.sample(range(n), flips):
        y[i] ^= 1
    far_cycles = gap_eq_to_ham(x, y).cycle_count()
    return {
        "n": n,
        "trials": trials,
        "ipmod3_sound": ip_sound == trials,
        "ipmod3_nodes": ip_nodes,
        "ipmod3_blowup": ip_nodes / n,
        "gap_eq_sound": gap_sound == trials,
        "gap_eq_nodes": gap_nodes,
        "gap_eq_blowup": gap_nodes / n,
        "far_instance_cycles": far_cycles,
        "far_cycles_linear": far_cycles >= beta * n,
    }


@scenario(
    "quantum-substrate",
    description="Quantum substrate validation: teleportation, Holevo, fingerprints, Grover",
    params=[
        ParamSpec("check", str, "teleportation", "one of teleportation|holevo|fingerprint|grover"),
        ParamSpec("trials", int, 20, "random repetitions (teleportation/holevo)"),
        ParamSpec("size", int, 256, "problem size n (fingerprint/grover)"),
    ],
    default_grid={"check": ["teleportation", "holevo", "fingerprint", "grover"]},
    tags=("quantum", "substrate"),
    plots=(
        PlotSpec(
            name="metric-by-check",
            title="Quantum substrate — validation metric per check",
            x="check",
            ys=("metric",),
            kind="bar",
            x_label="substrate check",
            y_label="check-specific metric",
        ),
    ),
)
def quantum_substrate(*, seed: int, check: str, trials: int, size: int) -> dict:
    """Validation sweeps over the statevector quantum substrate.

    One check per grid point: teleportation fidelity (metric = worst
    fidelity, must be ~1), the Holevo bound on 4-state ensembles (metric
    = worst margin, must be >= 0), fingerprint qubit growth (metric =
    qubits, must be O(log n)) and Grover query scaling (metric = queries,
    must be O(sqrt n)).  Result keys: ``check``, ``metric`` and the
    ``passed`` verdict.
    """
    import numpy as np

    from repro.quantum.fingerprint import FingerprintEquality
    from repro.quantum.grover import grover_find_any, optimal_grover_iterations
    from repro.quantum.holevo import holevo_bound
    from repro.quantum.state import QuantumState
    from repro.quantum.teleportation import teleport

    gen = np.random.default_rng(seed)
    rng = random.Random(seed)
    if check == "teleportation":
        worst = 1.0
        for _ in range(trials):
            vec = gen.standard_normal(2) + 1j * gen.standard_normal(2)
            state = QuantumState(1, vec / np.linalg.norm(vec))
            received, bits = teleport(state.copy(), rng=rng)
            worst = min(worst, received.fidelity(state))
            assert len(bits) == 2
        return {"check": check, "metric": worst, "passed": worst > 1 - 1e-9}
    if check == "holevo":
        worst_margin = float("inf")
        for _ in range(trials):
            states = []
            for _ in range(4):
                v = gen.standard_normal(2) + 1j * gen.standard_normal(2)
                v /= np.linalg.norm(v)
                states.append(np.outer(v, v.conj()))
            chi = holevo_bound([0.25] * 4, states)
            worst_margin = min(worst_margin, 1.0 - chi)
        return {"check": check, "metric": worst_margin, "passed": worst_margin >= -1e-9}
    if check == "fingerprint":
        small = FingerprintEquality(max(4, size // 16), seed=seed).fingerprint_qubits
        large = FingerprintEquality(size, seed=seed).fingerprint_qubits
        # O(log n): a 16x input blowup adds O(1) qubits.
        return {"check": check, "metric": large, "passed": large <= small + 6}
    if check == "grover":
        marked = {rng.randrange(size)}
        _, queries = grover_find_any(lambda i: i in marked, size, rng=rng)
        optimal = optimal_grover_iterations(size, 1)
        # sqrt scaling with generous slack for the exponential-guessing loop.
        return {
            "check": check,
            "metric": queries,
            "optimal_single_run": optimal,
            "passed": queries <= 10 * max(1, optimal),
        }
    raise ValueError(f"unknown quantum-substrate check {check!r}")


#: Fault-model axes shared by the fault/self-stabilization scenario family
#: (ISSUE 10): the probabilistic message faults plus the decision seed.
#: Crash and churn axes are scenario-specific and declared per scenario.
FAULT_PARAMS = (
    ParamSpec("fault_seed", int, 0, "fault-plan decision seed (hash-deterministic)"),
    ParamSpec("drop_prob", float, 0.05, "per-message wire drop probability"),
    ParamSpec("dup_prob", float, 0.0, "per-message duplication probability"),
    ParamSpec("reorder_prob", float, 0.0, "per-edge adjacent-swap reorder probability"),
    ParamSpec("fault_window", int, 40, "last round (inclusive) at which message faults fire"),
)


@scenario(
    "mst-under-faults",
    description="Boruvka MST under drops and crash spans: restart recovery vs centralized MST",
    params=[
        ParamSpec("n", int, 28, "nodes in the live CONGEST network"),
        ParamSpec("extra_edge_prob", float, 0.15, "extra-edge density of the random graph"),
        ParamSpec("bandwidth", int, 64, "CONGEST bandwidth B"),
        ParamSpec("n_crashes", int, 1, "nodes given a crash+recovery span"),
        ParamSpec("crash_length", int, 8, "rounds each crashed node stays down"),
        ParamSpec("round_budget", int, 4000, "round budget for the faulted attempt"),
        *FAULT_PARAMS,
        *ENGINE_PARAMS,
    ],
    default_grid={"drop_prob": [0.0, 0.02, 0.05, 0.1]},
    tags=("faults", "mst", "congest", "self-stabilization"),
    plots=(
        PlotSpec(
            name="recovery-rounds",
            title="Rounds to a correct MST, with and without faults",
            x="drop_prob",
            ys=("rounds_clean", "rounds_to_recover"),
            x_label="drop probability",
            y_label="rounds",
        ),
        PlotSpec(
            name="bit-overhead",
            title="Bit overhead of recovering under faults",
            x="drop_prob",
            ys=("bit_overhead",),
            x_label="drop probability",
            y_label="total bits / fault-free bits",
        ),
    ),
)
def mst_under_faults(
    *,
    seed: int,
    n: int,
    extra_edge_prob: float,
    bandwidth: int,
    n_crashes: int,
    crash_length: int,
    round_budget: int,
    fault_seed: int,
    drop_prob: float,
    dup_prob: float,
    reorder_prob: float,
    fault_window: int,
    engine: str,
    engine_threads: int,
) -> dict:
    """Boruvka fragment merging is not self-stabilising: a dropped merge
    message stalls its fragment forever.  The honest recovery protocol is
    detect-and-restart -- attempt under the fault plan, validate the result
    against the centralized MST (unique, by distinct weights), and restart
    fault-free if the attempt stalled or answered wrongly.  Reported:
    rounds/bits to a *correct* tree vs the fault-free baseline.
    """
    graph = _weighted_graph(n, extra_edge_prob, graph_seed=seed, weight_seed=seed + 1)
    engine_obj = _resolve_engine(engine, engine_threads)
    clean_edges, clean = run_boruvka_mst(graph, bandwidth=bandwidth, engine=engine_obj)
    expected = {frozenset(e) for e in nx.minimum_spanning_tree(graph).edges()}
    assert clean_edges == expected, "fault-free Boruvka diverged from the centralized MST"

    plan = FaultPlan.generate(
        graph,
        seed=fault_seed,
        drop_prob=drop_prob,
        dup_prob=dup_prob,
        reorder_prob=reorder_prob,
        n_crashes=n_crashes,
        crash_length=crash_length,
        window=(1, fault_window),
    )
    faulted_engine = _resolve_engine(engine, engine_threads)
    faulted_edges, faulted = run_boruvka_mst(
        graph, bandwidth=bandwidth, engine=faulted_engine, faults=plan, max_rounds=round_budget
    )
    correct_first_try = faulted.halted and faulted_edges == expected
    total_rounds = faulted.rounds
    total_bits = faulted.total_bits
    if not correct_first_try:
        # Detect-and-restart: rerun fault-free once the faults subside.
        restart_edges, restart = run_boruvka_mst(
            graph, bandwidth=bandwidth, engine=_resolve_engine(engine, engine_threads)
        )
        assert restart_edges == expected, "restarted Boruvka diverged from the centralized MST"
        total_rounds += restart.rounds
        total_bits += restart.total_bits
    last_fault = plan.last_fault_round() or 0
    stats = getattr(faulted, "fault_stats", None)
    return {
        "n": n,
        "m": graph.number_of_edges(),
        "rounds_clean": clean.rounds,
        "bits_clean": clean.total_bits,
        "rounds_faulted_attempt": faulted.rounds,
        "halted_under_faults": faulted.halted,
        "correct_first_try": correct_first_try,
        "restarted": not correct_first_try,
        "rounds_total": total_rounds,
        "rounds_to_recover": max(0, total_rounds - last_fault),
        "last_fault_round": last_fault,
        "bit_overhead": total_bits / clean.total_bits if clean.total_bits else None,
        "recovered_weight": tree_weight(graph, expected),
        "correct_after_recovery": True,
        **(stats or {}),
    }


@scenario(
    "bfs-restabilization",
    description="Refreshing Bellman-Ford re-converging after drops, crashes and edge inserts",
    params=[
        ParamSpec("n", int, 32, "nodes in the live CONGEST network"),
        ParamSpec("extra_edge_prob", float, 0.12, "extra-edge density of the random graph"),
        ParamSpec("bandwidth", int, 128, "CONGEST bandwidth B"),
        ParamSpec("refresh_every", int, 4, "rounds between distance re-announcements"),
        ParamSpec("n_crashes", int, 2, "nodes given a crash+recovery span"),
        ParamSpec("crash_length", int, 10, "rounds each crashed node stays down"),
        ParamSpec("n_edge_inserts", int, 2, "edges inserted mid-run (insert-only churn)"),
        ParamSpec("settle_rounds", int, 80, "measurement horizon past the last fault"),
        *FAULT_PARAMS,
        *ENGINE_PARAMS,
    ],
    default_grid={"drop_prob": [0.0, 0.05, 0.1, 0.2]},
    tags=("faults", "bfs", "congest", "self-stabilization"),
    plots=(
        PlotSpec(
            name="restabilization",
            title="Rounds from the last fault to the last distance change",
            x="drop_prob",
            ys=("rounds_to_restabilize",),
            x_label="drop probability",
            y_label="rounds to restabilize",
        ),
        PlotSpec(
            name="bit-overhead",
            title="Bit overhead of the faulted run at the same horizon",
            x="drop_prob",
            ys=("bit_overhead",),
            x_label="drop probability",
            y_label="faulted bits / fault-free bits",
        ),
    ),
)
def bfs_restabilization(
    *,
    seed: int,
    n: int,
    extra_edge_prob: float,
    bandwidth: int,
    refresh_every: int,
    n_crashes: int,
    crash_length: int,
    n_edge_inserts: int,
    settle_rounds: int,
    fault_seed: int,
    drop_prob: float,
    dup_prob: float,
    reorder_prob: float,
    fault_window: int,
    engine: str,
    engine_threads: int,
) -> dict:
    """The genuinely self-stabilising member of the family: periodic
    refresh broadcasts heal drops, duplicate/reorder noise, crash naps and
    insert-only churn without any restart.  Correctness is exact BFS
    distances on the post-churn graph (centralized recompute);
    rounds-to-restabilize is the last distance change after the last
    scheduled fault.
    """
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    source = min(graph.nodes(), key=repr)
    plan = FaultPlan.generate(
        graph,
        seed=fault_seed,
        drop_prob=drop_prob,
        dup_prob=dup_prob,
        reorder_prob=reorder_prob,
        n_crashes=n_crashes,
        crash_length=crash_length,
        n_edge_inserts=n_edge_inserts,
        window=(1, fault_window),
        protect=[source],
    )
    last_fault = plan.last_fault_round() or 0
    horizon = last_fault + settle_rounds

    clean_distances, clean = run_refreshing_bellman_ford(
        graph,
        source,
        bandwidth=bandwidth,
        weighted=False,
        max_rounds=horizon,
        refresh_every=refresh_every,
        engine=_resolve_engine(engine, engine_threads),
    )
    distances, faulted = run_refreshing_bellman_ford(
        graph,
        source,
        bandwidth=bandwidth,
        weighted=False,
        max_rounds=horizon,
        refresh_every=refresh_every,
        engine=_resolve_engine(engine, engine_threads),
        faults=plan,
    )
    expected = nx.single_source_shortest_path_length(plan.final_graph(graph), source)
    correct = all(
        distances.get(node) == float(dist) for node, dist in expected.items()
    ) and len(distances) == len(expected)
    last_change = max(out[2] for out in faulted.outputs.values())
    return {
        "n": n,
        "m": graph.number_of_edges(),
        "horizon": horizon,
        "last_fault_round": last_fault,
        "rounds_to_restabilize": max(0, last_change - last_fault),
        "last_change_round": last_change,
        "restabilized": correct,
        "bits_clean": clean.total_bits,
        "bits_faulted": faulted.total_bits,
        "bit_overhead": faulted.total_bits / clean.total_bits if clean.total_bits else None,
        "clean_converged": all(
            clean_distances.get(node) == float(dist)
            for node, dist in nx.single_source_shortest_path_length(graph, source).items()
        ),
    }


@scenario(
    "spanner-churn",
    description="Centralised (2k-1)-spanner under edge churn: stale-skeleton detection and rebuild",
    params=[
        ParamSpec("n", int, 32, "nodes in the live CONGEST network"),
        ParamSpec("extra_edge_prob", float, 0.2, "extra-edge density of the random graph"),
        ParamSpec("stretch_k", int, 0, "spanner parameter k (0 = ceil(log2 n))"),
        ParamSpec("bandwidth", int, 128, "CONGEST bandwidth B"),
        ParamSpec("churn_events", int, 2, "edge deletions and insertions each, mid-run"),
        ParamSpec("round_budget", int, 6000, "round budget for the churned attempt"),
        *FAULT_PARAMS,
        *ENGINE_PARAMS,
    ],
    default_grid={"churn_events": [0, 1, 2, 4]},
    tags=("faults", "spanner", "congest", "elkin-matar", "self-stabilization"),
    plots=(
        PlotSpec(
            name="rebuild-rounds",
            title="Rounds to a spanner of the post-churn graph",
            x="churn_events",
            ys=("rounds_total", "rounds_clean"),
            x_label="churn events (deletes + inserts each)",
            y_label="rounds",
        ),
        PlotSpec(
            name="bit-overhead",
            title="Bit overhead of churn recovery",
            x="churn_events",
            ys=("bit_overhead",),
            x_label="churn events",
            y_label="total bits / fault-free bits",
        ),
    ),
)
def spanner_churn(
    *,
    seed: int,
    n: int,
    extra_edge_prob: float,
    stretch_k: int,
    bandwidth: int,
    churn_events: int,
    round_budget: int,
    fault_seed: int,
    drop_prob: float,
    dup_prob: float,
    reorder_prob: float,
    fault_window: int,
    engine: str,
    engine_threads: int,
) -> dict:
    """The pipelined-centralisation spanner snapshots the graph at upcast
    time, so churn after the snapshot leaves the broadcast skeleton stale.
    The scenario detects staleness (or outright failure) by comparing the
    answer's edge list against the greedy spanner of the post-churn graph,
    rebuilds on the settled topology when needed, and reports the rounds
    and bits to a skeleton that is correct for the network as it now is.
    """
    graph = _weighted_graph(n, extra_edge_prob, graph_seed=seed, weight_seed=seed + 1)
    k = stretch_k if stretch_k >= 1 else max(1, math.ceil(math.log2(n)))
    clean_summary, clean = run_linear_size_spanner(
        graph,
        k,
        bandwidth=bandwidth,
        engine=_resolve_engine(engine, engine_threads),
        include_edges=True,
    )
    plan = FaultPlan.generate(
        graph,
        seed=fault_seed,
        drop_prob=drop_prob,
        dup_prob=dup_prob,
        reorder_prob=reorder_prob,
        n_edge_deletes=churn_events,
        n_edge_inserts=churn_events,
        window=(1, fault_window),
        insert_weight_range=(1.0, 10.0 * graph.number_of_edges()),
    )
    churned_summary, churned = run_linear_size_spanner(
        graph,
        k,
        bandwidth=bandwidth,
        engine=_resolve_engine(engine, engine_threads),
        max_rounds=round_budget,
        faults=plan,
        include_edges=True,
    )
    final = plan.final_graph(graph)
    expected_spanner = greedy_spanner(nx.relabel_nodes(final, {v: repr(v) for v in final}), k)
    expected_edges = sorted((u, v) if u < v else (v, u) for u, v in expected_spanner.edges())

    failed = churned_summary is None
    stale = not failed and churned_summary.get("edges") != expected_edges
    total_rounds = churned.rounds
    total_bits = churned.total_bits
    rebuilt = failed or stale
    if rebuilt:
        # Rebuild on the settled topology (the network as churn left it).
        rebuilt_summary, rebuild = run_linear_size_spanner(
            final,
            k,
            bandwidth=bandwidth,
            engine=_resolve_engine(engine, engine_threads),
            include_edges=True,
        )
        assert rebuilt_summary["edges"] == expected_edges, (
            "rebuilt spanner diverged from the centralized recompute"
        )
        total_rounds += rebuild.rounds
        total_bits += rebuild.total_bits
    return {
        "n": n,
        "m": graph.number_of_edges(),
        "m_final": final.number_of_edges(),
        "k": k,
        "rounds_clean": clean.rounds,
        "bits_clean": clean.total_bits,
        "rounds_churned_attempt": churned.rounds,
        "failed_under_churn": failed,
        "stale_skeleton": stale,
        "rebuilt": rebuilt,
        "rounds_total": total_rounds,
        "rounds_to_restabilize": max(0, total_rounds - (plan.last_fault_round() or 0)),
        "bit_overhead": total_bits / clean.total_bits if clean.total_bits else None,
        "spanner_edges": len(expected_edges),
        "linear_size": len(expected_edges) < 2 * n,
        "correct_after_recovery": True,
    }
