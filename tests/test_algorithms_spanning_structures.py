"""Tests for the remaining Corollary 3.9 spanning structures."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.spanning_structures import (
    forest_weight,
    greedy_spanner,
    min_routing_cost_tree_2approx,
    routing_cost,
    run_linear_size_spanner,
    run_min_routing_cost_tree,
    run_shallow_light_tree,
    run_shortest_st_path,
    run_steiner_forest,
    shallow_light_tree,
    spanner_max_stretch,
    steiner_forest_2approx,
)
from repro.graphs.generators import random_connected_graph


def reference_greedy_spanner(graph: nx.Graph, stretch_k: int, weight: str = "weight") -> nx.Graph:
    """The networkx greedy spanner loop: one target-directed Dijkstra per edge."""
    t = 2 * stretch_k - 1
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes())
    for u, v, data in sorted(graph.edges(data=True), key=lambda e: (e[2][weight], repr(e[:2]))):
        w = data[weight]
        try:
            current = nx.dijkstra_path_length(spanner, u, v, weight=weight)
        except nx.NetworkXNoPath:
            current = float("inf")
        if current > t * w:
            spanner.add_edge(u, v, **{weight: w})
    return spanner


def reference_max_stretch(graph: nx.Graph, spanner: nx.Graph, weight: str = "weight") -> float:
    """The networkx stretch loop: one target-directed Dijkstra per edge."""
    worst = 1.0
    for u, v, data in graph.edges(data=True):
        d = nx.dijkstra_path_length(spanner, u, v, weight=weight)
        worst = max(worst, d / data[weight])
    return worst


def outcome(fn, *args):
    """A call's value, or its networkx exception's type and message."""
    try:
        return fn(*args)
    except nx.NetworkXException as exc:
        return type(exc), str(exc)


@st.composite
def small_graphs(draw, weights: str) -> nx.Graph:
    """Small graphs (often disconnected) with nodes inserted in a drawn order.

    ``weights`` picks ``continuous`` floats in [1, 32], ``ties`` (three
    values, so many equal keys) or ``distinct`` (a permutation).
    """

    def exactly(elements, size: int):
        return st.lists(elements, min_size=size, max_size=size)

    nodes = draw(st.permutations(range(draw(st.integers(1, 10)))))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    chosen = [pair for pair, keep in zip(pairs, draw(exactly(st.booleans(), len(pairs)))) if keep]
    if weights == "continuous":
        values = draw(exactly(st.floats(1.0, 32.0), len(chosen)))
    elif weights == "ties":
        values = draw(exactly(st.sampled_from([1.0, 2.0, 3.0]), len(chosen)))
    else:
        values = [float(w) for w in draw(st.permutations(range(1, len(chosen) + 1)))]
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for (u, v), w in zip(chosen, values):
        graph.add_edge(u, v, weight=w)
    return graph


any_weights = st.sampled_from(["continuous", "ties"]).flatmap(small_graphs)


def weighted(n: int, seed: int, extra: float = 0.3) -> nx.Graph:
    graph = random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rng = random.Random(seed + 100)
    for u, v in graph.edges():
        graph.edges[u, v]["weight"] = rng.uniform(1.0, 10.0)
    return graph


class TestShallowLightTree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_last_guarantees(self, seed):
        graph = weighted(15, seed)
        alpha = 2.0
        tree = shallow_light_tree(graph, 0, alpha=alpha)
        assert nx.is_tree(tree)
        assert set(tree.nodes()) == set(graph.nodes())
        mst_weight = sum(d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True))
        tree_weight = sum(d["weight"] for _, _, d in tree.edges(data=True))
        spt_radius = max(nx.single_source_dijkstra_path_length(graph, 0).values())
        radius = max(nx.single_source_dijkstra_path_length(tree, 0).values())
        # KRY: weight <= (1 + 2/(alpha-1)) w(MST) ... our construction's
        # guarantees, generously bounded:
        assert tree_weight <= (1 + 2 / (alpha - 1)) * mst_weight + 1e-9
        assert radius <= alpha * spt_radius + 1e-9

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            shallow_light_tree(weighted(8, 3), 0, alpha=1.0)

    def test_distributed_runner(self):
        graph = weighted(12, 4)
        summary, result = run_shallow_light_tree(graph, 0, alpha=2.0)
        assert result.halted
        assert summary["weight"] <= 3.0 * summary["mst_weight"] + 1e-9
        assert summary["radius"] <= 2.0 * summary["spt_radius"] + 1e-9


class TestRoutingCostTree:
    def test_2approx_vs_exhaustive_on_tiny(self):
        graph = weighted(6, 5, extra=0.8)
        _, approx_cost = min_routing_cost_tree_2approx(graph)
        # Exhaustive over all spanning trees of a 6-node graph.
        best = float("inf")
        edges = list(graph.edges())
        import itertools

        for subset in itertools.combinations(edges, 5):
            candidate = nx.Graph()
            candidate.add_nodes_from(graph.nodes())
            for u, v in subset:
                candidate.add_edge(u, v, weight=graph.edges[u, v]["weight"])
            if nx.is_connected(candidate) and candidate.number_of_edges() == 5:
                best = min(best, routing_cost(graph, candidate))
        assert best <= approx_cost <= 2.0 * best + 1e-9

    def test_distributed_runner(self):
        graph = weighted(10, 6)
        cost, result = run_min_routing_cost_tree(graph)
        assert cost > 0
        assert result.halted


class TestSteinerForest:
    def test_single_group_vs_mst_bound(self):
        graph = weighted(12, 7)
        terminals = [0, 3, 7, 11]
        edges = steiner_forest_2approx(graph, [terminals])
        forest = nx.Graph()
        forest.add_nodes_from(graph.nodes())
        forest.add_edges_from(tuple(e) for e in edges)
        for a in terminals[1:]:
            assert nx.has_path(forest, terminals[0], a)
        # 2-approximation versus the optimal Steiner tree (bounded below by
        # the metric-closure MST / 2).
        weight = forest_weight(graph, edges)
        assert weight > 0

    def test_multiple_groups_connected_separately(self):
        graph = weighted(14, 8)
        groups = [[0, 5], [7, 11, 13]]
        edges = steiner_forest_2approx(graph, groups)
        forest = nx.Graph()
        forest.add_nodes_from(graph.nodes())
        forest.add_edges_from(tuple(e) for e in edges)
        assert nx.has_path(forest, 0, 5)
        assert nx.has_path(forest, 7, 11)
        assert nx.has_path(forest, 7, 13)

    def test_trivial_group_ignored(self):
        graph = weighted(8, 9)
        assert steiner_forest_2approx(graph, [[3]]) == set()

    def test_distributed_runner(self):
        graph = weighted(12, 10)
        weight, result = run_steiner_forest(graph, [[0, 5, 9]])
        assert weight > 0
        assert result.halted


class TestGreedySpanner:
    @pytest.mark.parametrize("seed,k", [(0, 2), (1, 3), (2, 2)])
    def test_stretch_guarantee(self, seed, k):
        graph = weighted(20, seed, extra=0.4)
        spanner = greedy_spanner(graph, k)
        assert set(spanner.nodes()) == set(graph.nodes())
        assert nx.is_connected(spanner)
        assert spanner_max_stretch(graph, spanner) <= 2 * k - 1 + 1e-9

    def test_linear_size_at_log_k(self):
        import math

        n = 60
        graph = weighted(n, 3, extra=0.5)
        k = math.ceil(math.log2(n))
        spanner = greedy_spanner(graph, k)
        # Girth > 2k forces O(n) edges at k = ceil(log2 n); the constant
        # here is generous (the greedy spanner is usually near a tree).
        assert spanner.number_of_edges() < 2 * n
        assert spanner.number_of_edges() < graph.number_of_edges()

    def test_k1_keeps_shortest_path_metric(self):
        # Stretch 1: the spanner must preserve every pairwise distance.
        graph = weighted(10, 4, extra=0.6)
        spanner = greedy_spanner(graph, 1)
        assert spanner_max_stretch(graph, spanner) == pytest.approx(1.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            greedy_spanner(weighted(8, 5), 0)

    @given(any_weights, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx_reference(self, graph, k):
        spanner = greedy_spanner(graph, k)
        reference = reference_greedy_spanner(graph, k)
        assert list(spanner.nodes()) == list(reference.nodes())
        assert list(spanner.edges(data=True)) == list(reference.edges(data=True))
        assert spanner_max_stretch(graph, spanner) == reference_max_stretch(graph, reference)

    @given(any_weights, st.data())
    @settings(max_examples=200, deadline=None)
    def test_stretch_of_any_subgraph_matches_reference(self, graph, data):
        # Arbitrary edge subsets leave some endpoints disconnected, so this
        # also compares the raised exception against networkx's.
        edges = list(graph.edges(data=True))
        keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        spanner = nx.Graph()
        spanner.add_nodes_from(graph.nodes())
        spanner.add_edges_from(e for e, kept in zip(edges, keep) if kept)
        assert outcome(spanner_max_stretch, graph, spanner) == outcome(reference_max_stretch, graph, spanner)

    @given(small_graphs("distinct"), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_contains_mst_with_distinct_weights(self, graph, k):
        spanner = greedy_spanner(graph, k)
        mst = {frozenset(e) for e in nx.minimum_spanning_tree(graph).edges()}
        assert mst <= {frozenset(e) for e in spanner.edges()}

    def test_disconnected_spanner_raises_like_networkx(self):
        graph = nx.path_graph(3)
        nx.set_edge_attributes(graph, 1.0, "weight")
        spanner = nx.Graph()
        spanner.add_nodes_from(graph.nodes())
        spanner.add_edge(0, 1, weight=1.0)
        with pytest.raises(nx.NetworkXNoPath, match="Node 2 not reachable from 1"):
            spanner_max_stretch(graph, spanner)
        spanner.remove_node(0)
        with pytest.raises(nx.NodeNotFound, match="Node 0 not found in graph"):
            spanner_max_stretch(graph, spanner)

    def test_distributed_runner(self):
        graph = weighted(14, 6)
        summary, result = run_linear_size_spanner(graph, 2)
        assert result.halted
        assert summary["spanner_edges"] <= summary["m"]
        assert summary["max_stretch"] <= 3.0 + 1e-9


class TestShortestSTPath:
    def test_matches_dijkstra(self):
        graph = weighted(12, 11)
        length, result = run_shortest_st_path(graph, 0, 7)
        assert length == pytest.approx(nx.dijkstra_path_length(graph, 0, 7))
        assert result.halted
