"""Property-based tests (hypothesis) on the core invariants."""

import math

import networkx as nx
import pytest

np = pytest.importorskip("numpy")  # exercises numpy-backed core modules

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.problems import hamming_distance
from repro.core.fooling import binary_entropy, greedy_gv_code, code_min_distance
from repro.core.gadgets import (
    gadget_permutation,
    gap_eq_mismatch_count,
    gap_eq_to_ham,
    ipmod3_to_ham,
    ipmod3_value,
    strand_permutation,
)
from repro.core.gamma2 import gamma2_lower, gamma2_upper
from repro.quantum.state import QuantumState
from repro.quantum.teleportation import teleport

bits = st.lists(st.integers(0, 1), min_size=1, max_size=7)
pair_bits = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    )
)


class TestGadgetProperties:
    @given(pair_bits)
    @settings(max_examples=60, deadline=None)
    def test_ipmod3_reduction_sound_and_complete(self, xy):
        x, y = xy
        instance = ipmod3_to_ham(x, y)
        assert instance.is_hamiltonian() == (ipmod3_value(x, y) == 0)

    @given(pair_bits)
    @settings(max_examples=60, deadline=None)
    def test_ipmod3_union_is_cycle_cover(self, xy):
        x, y = xy
        union = ipmod3_to_ham(x, y).union_graph()
        assert all(d == 2 for _, d in union.degree())
        assert union.number_of_nodes() == 12 * len(x)

    @given(pair_bits)
    @settings(max_examples=60, deadline=None)
    def test_strand_permutation_is_shift(self, xy):
        x, y = xy
        total = sum(a * b for a, b in zip(x, y)) % 3
        assert strand_permutation(x, y) == tuple((j + total) % 3 for j in range(3))

    @given(st.integers(0, 1), st.integers(0, 1))
    def test_gadget_permutation_is_permutation(self, xi, yi):
        perm = gadget_permutation(xi, yi)
        assert sorted(perm) == [0, 1, 2]

    @given(pair_bits.filter(lambda xy: len(xy[0]) >= 2))
    @settings(max_examples=60, deadline=None)
    def test_gap_eq_cycles_count_mismatches(self, xy):
        x, y = xy
        instance = gap_eq_to_ham(x, y)
        delta = gap_eq_mismatch_count(x, y)
        assert instance.cycle_count() == (1 if delta == 0 else delta + 1)
        assert instance.is_hamiltonian() == (delta == 0)


class TestQuantumProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_teleportation_preserves_any_state(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state = QuantumState(1, vec / np.linalg.norm(vec))
        import random as _random

        received, _ = teleport(state.copy(), rng=_random.Random(seed))
        assert received.fidelity(state) > 1.0 - 1e-9

    @given(st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_unitary_preserves_norm(self, n_qubits, seed):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
        state = QuantumState(n_qubits, vec / np.linalg.norm(vec))
        from repro.quantum.gates import HADAMARD

        state.apply(HADAMARD, [int(rng.integers(0, n_qubits))])
        np.testing.assert_allclose(np.linalg.norm(state.vector), 1.0, atol=1e-9)


class TestGamma2Properties:
    @given(st.integers(0, 500), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_upper_dominates_lower(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        assert gamma2_upper(a) >= gamma2_lower(a) - 1e-7

    @given(st.integers(0, 500), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_scaling_homogeneity(self, seed, m):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m))
        np.testing.assert_allclose(gamma2_lower(3.0 * a), 3.0 * gamma2_lower(a), rtol=1e-9)


class TestCodesProperties:
    @given(st.integers(4, 12), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_greedy_code_distance_invariant(self, n, d):
        code = greedy_gv_code(n, d, max_size=40)
        if len(code) >= 2:
            assert code_min_distance(code) >= d

    @given(st.floats(0.01, 0.99))
    def test_entropy_bounds(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0 + 1e-12

    @given(pair_bits)
    def test_hamming_symmetry(self, xy):
        x, y = xy
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, x) == 0


class TestFaultDeterminismProperties:
    """The fault layer's determinism contract: every decision is a pure
    function of ``(plan seed, round, edge, msg_index)``, so identical seeds
    give identical adversaries on any engine, thread count, or claim
    batch -- and different seeds give different ones."""

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_decisions_pure_in_the_seed(self, seed, other_seed):
        from repro.congest.faults import FaultPlan

        plan = FaultPlan(seed=seed, drop_prob=0.5, dup_prob=0.5, reorder_prob=0.5)
        twin = FaultPlan(seed=seed, drop_prob=0.5, dup_prob=0.5, reorder_prob=0.5)
        grid = [(kind, r, u, v, i)
                for kind in ("drop", "dup", "reorder")
                for r in (1, 7)
                for (u, v) in ((0, 1), (1, 0), ("a", "b"))
                for i in (0, 3)]
        draws = [plan.decision(*args) for args in grid]
        assert draws == [twin.decision(*args) for args in grid]
        assert all(0.0 <= d < 1.0 for d in draws)
        if other_seed != seed:
            other = plan.with_seed(other_seed)
            assert draws != [other.decision(*args) for args in grid]

    @given(st.integers(0, 2_000))
    @settings(max_examples=25, deadline=None)
    def test_generated_schedules_are_pure_and_valid(self, seed):
        from repro.congest.faults import FaultPlan
        from repro.graphs.generators import random_connected_graph

        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=3)
        kwargs = dict(
            seed=seed, drop_prob=0.1, n_crashes=2, crash_length=4,
            n_edge_deletes=2, n_edge_inserts=1, window=(1, 25),
        )
        plan = FaultPlan.generate(graph, **kwargs)
        assert plan == FaultPlan.generate(graph, **kwargs)
        for span in plan.crashes:
            assert 1 <= span.start <= 25 and span.stop == span.start + 4
        assert nx.is_connected(plan.final_graph(graph))

    @given(st.integers(0, 500))
    @settings(max_examples=6, deadline=None)
    def test_fault_seed_invariant_under_engine(self, fault_seed):
        from repro.algorithms.paths import run_refreshing_bellman_ford
        from repro.congest.faults import FaultPlan
        from repro.graphs.generators import random_connected_graph

        graph = random_connected_graph(12, extra_edge_prob=0.2, seed=5)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph, seed=0, drop_prob=0.15, n_crashes=1, crash_length=4,
            window=(1, 15), protect=[source],
        )
        runs = {}
        for engine in ("event", "columnar"):
            dists, result = run_refreshing_bellman_ford(
                graph, source, weighted=False, max_rounds=30,
                engine=engine, faults=plan, fault_seed=fault_seed,
            )
            runs[engine] = (dists, result)
        dists_e, result_e = runs["event"]
        dists_c, result_c = runs["columnar"]
        assert dists_c == dists_e
        assert result_c.fault_stats == result_e.fault_stats
        assert (result_c.rounds, result_c.total_messages, result_c.total_bits) == (
            result_e.rounds, result_e.total_messages, result_e.total_bits,
        )
        assert result_c.per_round_bits == result_e.per_round_bits

    @given(st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_different_fault_seeds_differ(self, fault_seed):
        from repro.congest.faults import FaultPlan

        plan = FaultPlan(seed=fault_seed, drop_prob=0.5)
        other = plan.with_seed(fault_seed + 1)
        grid = [(r, 0, 1, i) for r in range(1, 11) for i in range(10)]
        assert [plan.drop(*g) for g in grid] != [other.drop(*g) for g in grid]


class TestDeltaFarProperties:
    @given(st.integers(0, 200), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_components_closed_form(self, seed, parts):
        from repro.graphs.distance import delta_far_from_connected
        from repro.graphs.generators import random_connected_graph

        graph = random_connected_graph(4 * parts, seed=seed)
        # Take a spanning forest with `parts` components.
        tree = list(nx.minimum_spanning_tree(graph).edges())
        removed = tree[: parts - 1]
        forest = [e for e in tree if e not in removed]
        distance = delta_far_from_connected(graph, forest)
        assert distance == parts - 1
