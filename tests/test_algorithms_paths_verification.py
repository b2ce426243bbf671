"""Tests for shortest paths, the verification suite, Elkin approx-MST,
min cut and distributed Disjointness."""

import math
import random

import networkx as nx
import pytest

pytest.importorskip("numpy")  # the verification stack is numpy-bound

from repro.algorithms.disjointness import (
    run_classical_disjointness,
    run_quantum_disjointness,
)
from repro.algorithms.elkin import (
    component_count_mst_weight,
    quantise_weights,
    run_elkin_approx_mst,
)
from repro.algorithms.mincut import run_centralised_mincut
from repro.algorithms.paths import (
    run_bellman_ford,
    run_bfs_distances,
    shortest_path_tree_edges,
)
from repro.algorithms.verification import (
    VERIFIERS,
    run_gkp_components,
    run_le_list_verification,
    run_verification,
)
from repro.congest.topology import dumbbell_graph
from repro.graphs import properties as props
from repro.graphs.generators import disjoint_cycle_cover, random_connected_graph


def weighted(graph: nx.Graph, seed: int = 0) -> nx.Graph:
    rng = random.Random(seed)
    for u, v in graph.edges():
        graph.edges[u, v]["weight"] = rng.uniform(1.0, 10.0)
    return graph


class TestShortestPaths:
    def test_bfs_distances_match_networkx(self):
        graph = random_connected_graph(20, seed=1)
        distances, result = run_bfs_distances(graph, 0)
        expected = nx.single_source_shortest_path_length(graph, 0)
        assert {k: int(v) for k, v in distances.items()} == dict(expected)

    def test_bellman_ford_weighted(self):
        graph = weighted(random_connected_graph(15, seed=2), seed=3)
        distances, _ = run_bellman_ford(graph, 0)
        expected = nx.single_source_dijkstra_path_length(graph, 0)
        for node, dist in expected.items():
            assert distances[node] == pytest.approx(dist)

    def test_rounds_scale_with_hop_depth(self):
        path = nx.path_graph(25)
        _, result = run_bfs_distances(path, 0)
        assert 24 <= result.rounds <= 30

    def test_tree_edges_form_spanning_tree(self):
        graph = weighted(random_connected_graph(12, seed=5), seed=6)
        _, result = run_bellman_ford(graph, 0)
        edges = shortest_path_tree_edges(result)
        tree = nx.Graph()
        tree.add_nodes_from(graph.nodes())
        tree.add_edges_from(tuple(e) for e in edges)
        assert nx.is_connected(tree)
        assert tree.number_of_edges() == 11


class TestVerificationSuite:
    def setup_method(self):
        self.graph = random_connected_graph(14, extra_edge_prob=0.3, seed=4)
        weighted(self.graph, seed=4)

    def _check(self, problem, m_edges, expected, **kwargs):
        verdict, result = run_verification(problem, self.graph, m_edges, **kwargs)
        assert verdict == expected, f"{problem}: expected {expected}"
        assert result.halted

    def test_connectivity_positive(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("connectivity", tree, True)

    def test_connectivity_negative(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("connectivity", tree[:-2], False)

    def test_spanning_tree(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("spanning tree", tree, True)
        cycle_edge = next(e for e in self.graph.edges() if frozenset(e) not in {frozenset(t) for t in tree})
        self._check("spanning tree", tree + [cycle_edge], False)

    def test_hamiltonian_cycle(self):
        complete = nx.complete_graph(8)
        ham = [(i, (i + 1) % 8) for i in range(8)]
        verdict, _ = run_verification("hamiltonian cycle", complete, ham)
        assert verdict is True
        two_cycles = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
        verdict, _ = run_verification("hamiltonian cycle", complete, two_cycles)
        assert verdict is False

    def test_bipartiteness(self):
        even = nx.cycle_graph(8)
        verdict, _ = run_verification("bipartiteness", even, list(even.edges()))
        assert verdict is True
        odd = nx.cycle_graph(7)
        verdict, _ = run_verification("bipartiteness", odd, list(odd.edges()))
        assert verdict is False

    def test_cycle_containment(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("cycle containment", tree, False)
        extra = next(e for e in self.graph.edges() if frozenset(e) not in {frozenset(t) for t in tree})
        self._check("cycle containment", tree + [extra], True)

    def test_st_connectivity(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("s-t connectivity", tree, True, s=0, t=5)
        self._check("s-t connectivity", [], False, s=0, t=5)

    def test_cut(self):
        # All edges of N form a cut (removing them disconnects N).
        self._check("cut", list(self.graph.edges()), True)
        self._check("cut", [], False)

    def test_st_cut(self):
        path = nx.path_graph(6)
        verdict, _ = run_verification("s-t cut", path, [(2, 3)], s=0, t=5)
        assert verdict is True
        verdict, _ = run_verification("s-t cut", path, [(0, 1)], s=2, t=5)
        assert verdict is False

    def test_e_cycle(self):
        cycle = nx.cycle_graph(6)
        m = list(cycle.edges())
        verdict, _ = run_verification("e-cycle containment", cycle, m, special_edge=(0, 1))
        assert verdict is True
        verdict, _ = run_verification("e-cycle containment", cycle, m[:-1], special_edge=(0, 1))
        assert verdict is False

    def test_edge_on_all_paths(self):
        path = nx.path_graph(5)
        m = list(path.edges())
        verdict, _ = run_verification("edge on all paths", path, m, s=0, t=4, special_edge=(2, 3))
        assert verdict is True
        diamond = nx.cycle_graph(4)
        verdict, _ = run_verification(
            "edge on all paths", diamond, list(diamond.edges()), s=0, t=2, special_edge=(0, 1)
        )
        assert verdict is False

    def test_simple_path(self):
        path_m = [(i, i + 1) for i in range(4)]
        complete = nx.complete_graph(8)
        verdict, _ = run_verification("simple path", complete, path_m)
        assert verdict is True
        verdict, _ = run_verification("simple path", complete, [(0, 1), (2, 3), (3, 4)])
        assert verdict is False

    def test_connected_spanning_subgraph(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("connected spanning subgraph", tree, True)

    def test_all_verifiers_against_ground_truth(self):
        # Cross-validate every marks-mode verifier against the centralised
        # predicates on random subnetworks.
        rng = random.Random(0)
        checkers = {
            "connectivity": props.is_subgraph_connected,
            "connected spanning subgraph": props.is_connected_spanning_subgraph,
            "spanning tree": props.is_spanning_tree,
            "hamiltonian cycle": props.is_hamiltonian_cycle,
            "cycle containment": props.contains_cycle,
            "bipartiteness": props.is_bipartite_subgraph,
        }
        for trial in range(4):
            edges = [e for e in self.graph.edges() if rng.random() < 0.6]
            for problem, checker in checkers.items():
                expected = checker(self.graph, edges)
                verdict, _ = run_verification(problem, self.graph, edges)
                assert verdict == expected, (problem, trial)


class TestGKPComponents:
    def test_counts_components(self):
        graph = nx.complete_graph(12)
        weighted(graph, seed=8)
        cover = disjoint_cycle_cover(12, 3, seed=2)
        count, _ = run_gkp_components(graph, list(cover.edges()))
        assert count == 3

    def test_connected_input(self):
        graph = random_connected_graph(12, seed=9)
        weighted(graph, seed=9)
        tree = list(nx.minimum_spanning_tree(graph).edges())
        count, _ = run_gkp_components(graph, tree)
        assert count == 1


class TestLeastElementList:
    def test_valid_list_accepted(self):
        graph = weighted(random_connected_graph(10, seed=11), seed=11)
        ranks = {node: (node * 7) % 10 for node in graph.nodes()}
        candidate = props.least_element_list(graph, ranks, 0)
        verdict, _ = run_le_list_verification(graph, ranks, 0, candidate)
        assert verdict is True

    def test_invalid_list_rejected(self):
        graph = weighted(random_connected_graph(10, seed=12), seed=12)
        ranks = {node: node for node in graph.nodes()}
        candidate = props.least_element_list(graph, ranks, 0)[:-1] or [(0, 0.0)]
        verdict, _ = run_le_list_verification(graph, ranks, 0, candidate[:-1] + [(3, 999.0)])
        assert verdict is False


class TestElkin:
    def test_quantisation_classes(self):
        graph = weighted(random_connected_graph(10, seed=13), seed=13)
        classes, n_classes = quantise_weights(graph, alpha=2.0)
        assert n_classes >= 1
        assert all(c >= 1 for c in classes.values())

    def test_weight_within_factor(self):
        for seed in (1, 2, 3):
            graph = weighted(random_connected_graph(15, seed=seed), seed=seed)
            alpha = 2.0
            approx, _ = run_elkin_approx_mst(graph, alpha=alpha)
            exact = sum(d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True))
            assert exact - 1e-9 <= approx <= (1 + alpha) * exact + 1e-9

    def test_rounds_grow_with_class_count(self):
        graph = random_connected_graph(20, extra_edge_prob=0.2, seed=14)
        rng = random.Random(14)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = rng.uniform(1.0, 400.0)
        _, coarse = run_elkin_approx_mst(graph, alpha=100.0)
        _, fine = run_elkin_approx_mst(graph, alpha=4.0)
        assert fine.rounds > coarse.rounds  # more classes -> more rounds

    def test_component_identity(self):
        quantised = nx.Graph()
        quantised.add_edge(0, 1, weight=1)
        quantised.add_edge(1, 2, weight=3)
        quantised.add_edge(0, 2, weight=2)
        # MST = {1, 2}: total 3.
        assert component_count_mst_weight(quantised, 3) == 3.0

    @pytest.mark.parametrize("seed", [0, 9])
    def test_component_identity_matches_networkx_mst(self, seed):
        # Heavy class duplication: the sweep's stable sort must not matter.
        n_classes = 12
        graph = random_connected_graph(40, extra_edge_prob=0.2, seed=seed)
        rng = random.Random(seed)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = rng.randrange(1, n_classes + 1)
        expected = nx.minimum_spanning_tree(graph).size(weight="weight")
        assert component_count_mst_weight(graph, n_classes) == expected


class TestMinCut:
    def test_global_mincut(self):
        graph = weighted(random_connected_graph(10, extra_edge_prob=0.4, seed=15), seed=15)
        value, result = run_centralised_mincut(graph)
        expected, _ = nx.stoer_wagner(graph, weight="weight")
        assert value == pytest.approx(expected)
        assert result.halted

    def test_st_mincut(self):
        graph = weighted(random_connected_graph(10, extra_edge_prob=0.4, seed=16), seed=16)
        value, _ = run_centralised_mincut(graph, s=0, t=5)
        expected = nx.minimum_cut_value(graph, 0, 5, capacity="weight")
        assert value == pytest.approx(expected)


class TestDistributedDisjointness:
    def setup_method(self):
        self.graph = dumbbell_graph(3, 6)
        self.u = ("L", 1)
        self.v = ("R", 1)

    def test_classical_correct(self):
        rng = random.Random(0)
        for trial in range(4):
            b = 16
            x = tuple(rng.randrange(2) for _ in range(b))
            y = tuple(rng.randrange(2) for _ in range(b))
            expected = int(all(a * c == 0 for a, c in zip(x, y)))
            verdict, _ = run_classical_disjointness(self.graph, self.u, self.v, x, y)
            assert verdict == expected

    def test_classical_rounds_scale_with_b(self):
        x16 = (1,) + (0,) * 15
        _, r16 = run_classical_disjointness(self.graph, self.u, self.v, x16, x16, bandwidth=8)
        x64 = (1,) + (0,) * 63
        _, r64 = run_classical_disjointness(self.graph, self.u, self.v, x64, x64, bandwidth=8)
        assert r64.rounds > r16.rounds + 4  # pipelining: rounds ~ dist + b/B

    def test_quantum_correct_disjoint(self):
        b = 32
        x = tuple(1 if i % 2 == 0 else 0 for i in range(b))
        y = tuple(1 if i % 2 == 1 else 0 for i in range(b))
        verdict, _, queries = run_quantum_disjointness(self.graph, self.u, self.v, x, y, seed=1)
        assert verdict == 1
        assert queries <= 4 * math.isqrt(b) * 4

    def test_quantum_correct_intersecting(self):
        b = 32
        x = (1,) * b
        y = (1,) + (0,) * (b - 1)
        verdict, _, _ = run_quantum_disjointness(self.graph, self.u, self.v, x, y, seed=2)
        assert verdict == 0

    def test_quantum_rounds_track_queries_times_distance(self):
        b = 64
        x = (0,) * b
        y = (0,) * b
        verdict, result, queries = run_quantum_disjointness(self.graph, self.u, self.v, x, y, seed=3)
        assert verdict == 1
        dist = nx.shortest_path_length(self.graph, self.u, self.v)
        assert result.rounds >= queries * 2  # each query is a round trip
        assert result.rounds <= queries * 2 * dist + 4 * dist + 10
