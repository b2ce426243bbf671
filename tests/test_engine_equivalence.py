"""Cross-engine equivalence: Dense, Event and Columnar must agree.

Every registered algorithm family runs on each engine over seeded random
graphs; the full ``RunResult`` must match the dense reference field for
field (rounds, bits, messages, outputs, halted -- and the per-round bit
trace, which pins down the transport's O(1) skip accounting exactly).  This
is the contract that makes the event engine a drop-in default: any
idleness hint that skips a round the dense engine needed would show up
here as a divergence.

The columnar engine swaps the whole transport layout (struct-of-arrays staging, lazy per-edge
head accounting, a completion-clock heap) plus the batched min-edge
reduction service, so its runs pin all of that to the reference semantics
at once.
"""

import networkx as nx
import pytest

from repro.algorithms.centralised import run_centralised
from repro.algorithms.elkin import run_elkin_approx_mst
from repro.algorithms.framework import (
    BfsTreePhase,
    BroadcastPhase,
    ConvergecastPhase,
    LeaderElectionPhase,
    LocalComputationPhase,
    PhasedProgram,
    PipelinedDowncastPhase,
    PipelinedUpcastPhase,
)
from repro.algorithms.mst import run_boruvka_mst, run_gkp_mst, tree_weight
from repro.algorithms.paths import run_bellman_ford
from repro.algorithms.verification import run_verification
from repro.congest.engine import _ENGINES, get_engine
from repro.congest.network import CongestNetwork, run_program
from repro.congest.node import Node, NodeProgram
from repro.graphs.generators import random_connected_graph

#: The engines checked against the dense reference.
ENGINES = ("event", "columnar")


def assert_results_match(dense, other):
    """Field-for-field RunResult equality (outputs compared by repr)."""
    assert other.rounds == dense.rounds
    assert other.total_messages == dense.total_messages
    assert other.total_bits == dense.total_bits
    assert other.halted == dense.halted
    assert other.max_edge_bits_per_round == dense.max_edge_bits_per_round
    assert other.per_round_bits == dense.per_round_bits
    assert set(other.outputs) == set(dense.outputs)
    for nid in dense.outputs:
        assert repr(other.outputs[nid]) == repr(dense.outputs[nid]), nid


def _weighted(n, seed, extra_edge_prob=0.1):
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    import random as _random

    rng = _random.Random(seed + 1)
    weights = rng.sample(range(1, 10 * graph.number_of_edges() + 1), graph.number_of_edges())
    for (u, v), w in zip(graph.edges(), weights):
        graph.edges[u, v]["weight"] = float(w)
    return graph


class TestMstEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_gkp_mst(self, seed, engine):
        graph = _weighted(26, seed)
        edges_dense, dense = run_gkp_mst(graph, bandwidth=128, seed=0, engine="dense")
        edges_other, other = run_gkp_mst(
            graph, bandwidth=128, seed=0, engine=engine
        )
        assert_results_match(dense, other)
        assert edges_other == edges_dense
        reference = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True)
        )
        assert abs(tree_weight(graph, edges_other) - reference) < 1e-9

    @pytest.mark.parametrize("engine", ENGINES)
    def test_boruvka_mst(self, engine):
        graph = _weighted(16, 3)
        edges_dense, dense = run_boruvka_mst(graph, bandwidth=128, seed=0, engine="dense")
        edges_other, other = run_boruvka_mst(
            graph, bandwidth=128, seed=0, engine=engine
        )
        assert_results_match(dense, other)
        assert edges_other == edges_dense

    @pytest.mark.parametrize("engine", ENGINES)
    def test_elkin_staged_flood(self, engine):
        graph = _weighted(24, 11)
        weight_dense, dense = run_elkin_approx_mst(graph, alpha=2.0, engine="dense")
        weight_other, other = run_elkin_approx_mst(
            graph, alpha=2.0, engine=engine
        )
        assert_results_match(dense, other)
        assert weight_other == weight_dense


class TestVerificationEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "problem", ["spanning tree", "connectivity", "bipartiteness", "s-t connectivity", "cut"]
    )
    def test_verifiers(self, problem, engine):
        graph = random_connected_graph(18, extra_edge_prob=0.15, seed=5)
        tree = nx.bfs_tree(graph, source=min(graph.nodes())).to_undirected()
        m_edges = list(tree.edges())
        nodes = sorted(graph.nodes())
        kwargs = {"s": nodes[0], "t": nodes[-1]}
        verdict_dense, dense = run_verification(
            problem, graph, m_edges, bandwidth=64, seed=0, engine="dense", **kwargs
        )
        verdict_other, other = run_verification(
            problem, graph, m_edges, bandwidth=64, seed=0, engine=engine, **kwargs
        )
        assert_results_match(dense, other)
        assert verdict_other == verdict_dense


class TestQuiescenceEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [2, 9])
    def test_bellman_ford(self, seed, engine):
        graph = _weighted(25, seed)
        source = min(graph.nodes())
        dist_dense, dense = run_bellman_ford(graph, source, engine="dense")
        dist_other, other = run_bellman_ford(graph, source, engine=engine)
        assert_results_match(dense, other)
        assert dist_other == dist_dense
        expected = nx.single_source_dijkstra_path_length(graph, source)
        assert dist_other == pytest.approx(expected)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_quiescent_from_start(self, engine):
        # No program ever sends: every engine stops at the same (zero-ish)
        # round under quiescence detection.
        class Silent(NodeProgram):
            def on_round(self, node, round_no, inbox):
                pass

        graph = nx.path_graph(4)
        dense_net = CongestNetwork(graph, Silent, bandwidth=8, engine="dense")
        dense = dense_net.run(max_rounds=500, stop_on_quiescence=True)
        other_net = CongestNetwork(graph, Silent, bandwidth=8, engine=engine)
        other = other_net.run(max_rounds=500, stop_on_quiescence=True)
        assert_results_match(dense, other)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_max_rounds_without_halting(self, engine):
        # Nodes never halt and traffic dies out: the active-set engines must
        # idle the clock out to max_rounds exactly like the dense engine.
        class OneShot(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.broadcast(("x",))

            def on_round(self, node, round_no, inbox):
                pass

            def next_active_round(self, node, after_round):
                return None  # reactive only

        graph = nx.path_graph(3)
        dense = run_program(graph, OneShot, bandwidth=8, max_rounds=300, engine="dense")
        other = run_program(
            graph, OneShot, bandwidth=8, max_rounds=300, engine=engine
        )
        assert_results_match(dense, other)
        assert other.rounds == 300
        assert not other.halted


class TestFrameworkEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_leader_bfs_convergecast_broadcast(self, engine):
        graph = random_connected_graph(20, extra_edge_prob=0.1, seed=4)
        d = nx.diameter(graph)
        inputs = {node: {"diameter_bound": d} for node in graph.nodes()}

        def phases():
            return [
                LeaderElectionPhase(),
                BfsTreePhase(),
                ConvergecastPhase("total", lambda node, shared: 1, lambda a, b: a + b),
                LocalComputationPhase(
                    lambda node, shared: shared.update(
                        total=shared["total"] if shared["parent"] is None else None
                    )
                ),
                BroadcastPhase("total"),
                LocalComputationPhase(lambda node, shared: shared.update(output=shared["total"])),
            ]

        results = {}
        for spec in ("dense", engine):
            network = CongestNetwork(
                graph,
                lambda: PhasedProgram(phases()),
                bandwidth=64,
                inputs=inputs,
                engine=spec,
            )
            results[spec if isinstance(spec, str) else engine] = network.run()
        assert_results_match(results["dense"], results[engine])
        assert results[engine].unanimous_output() == 20

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pipelined_up_and_downcast(self, engine):
        graph = random_connected_graph(12, extra_edge_prob=0.1, seed=8)
        d = nx.diameter(graph)
        inputs = {node: {"diameter_bound": d} for node in graph.nodes()}

        def stage(node, shared):
            shared["items"] = [int(str(node.id))]
            shared["cap"] = 14

        def restage(node, shared):
            shared["down"] = shared["collected"] if shared["parent"] is None else []

        def phases():
            return [
                LeaderElectionPhase(),
                BfsTreePhase(),
                LocalComputationPhase(stage),
                PipelinedUpcastPhase("items", "collected", "cap"),
                LocalComputationPhase(restage),
                PipelinedDowncastPhase("down", "cap"),
                LocalComputationPhase(
                    lambda node, shared: shared.update(output=sorted(shared["down"]))
                ),
            ]

        results = {}
        for spec in ("dense", engine):
            network = CongestNetwork(
                graph,
                lambda: PhasedProgram(phases()),
                bandwidth=128,
                inputs=inputs,
                engine=spec,
            )
            results[spec if isinstance(spec, str) else engine] = network.run()
        assert_results_match(results["dense"], results[engine])
        assert results[engine].unanimous_output() == sorted(range(12))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_centralised_skeleton(self, engine):
        graph = _weighted(14, 6)
        answer_dense, dense = run_centralised(
            graph, lambda g: g.number_of_edges(), bandwidth=128, engine="dense"
        )
        answer_other, other = run_centralised(
            graph, lambda g: g.number_of_edges(), bandwidth=128, engine=engine
        )
        assert_results_match(dense, other)
        assert answer_other == graph.number_of_edges()


class TestDefaultHintsEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_unhinted_program_runs_identically(self, engine):
        # A program with no idleness hints: the active-set engines
        # degenerate to stepping every node every round and must match
        # exactly.
        class Chatter(NodeProgram):
            def on_start(self, node):
                node.broadcast(("r", 0), bits=8)

            def on_round(self, node, round_no, inbox):
                if round_no >= 6:
                    node.halt(len(inbox))
                    return
                node.broadcast(("r", round_no), bits=8)

        graph = random_connected_graph(10, extra_edge_prob=0.2, seed=12)
        dense = run_program(graph, Chatter, bandwidth=8, engine="dense")
        other = run_program(graph, Chatter, bandwidth=8, engine=engine)
        assert_results_match(dense, other)


class TestMessageLogEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_opt_in_message_log_is_byte_identical(self, engine):
        """record_messages=True: the (round, sender, receiver, bits) log --
        an *ordered* artifact -- must come out identical, which pins every
        engine's node-id step order exactly."""

        class Chatter(NodeProgram):
            def on_start(self, node):
                node.broadcast(("hello", repr(node.id)), bits=16)

            def on_round(self, node, round_no, inbox):
                if round_no >= 5:
                    node.halt(len(inbox))
                    return
                for msg in inbox:
                    node.send(msg.sender, ("echo", round_no), bits=8)

        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=21)
        logs = {}
        results = {}
        for name, spec in (("dense", "dense"), (engine, engine)):
            network = CongestNetwork(
                graph, Chatter, bandwidth=16, engine=spec, record_messages=True
            )
            results[name] = network.run()
            logs[name] = list(network.message_log)
        assert_results_match(results["dense"], results[engine])
        assert logs[engine] == logs["dense"]
        assert len(logs["dense"]) == results["dense"].total_messages


class TestStrictErrorPath:
    def test_strict_error_path_metrics_match_dense(self):
        """A strict-mode violation mid-round: every engine must raise the
        same error AND leave the same transport totals -- sends staged by
        nodes before the offender count."""
        from repro.congest.network import BandwidthExceeded

        class OneOversized(NodeProgram):
            def on_start(self, node):
                node.broadcast(("warmup",), bits=4)

            def on_round(self, node, round_no, inbox):
                if node.id == 5:
                    node.send(node.neighbors[0], ("too-big",), bits=999)
                else:
                    node.broadcast(("ok", round_no), bits=4)

        graph = nx.path_graph(8)
        totals = {}
        for name, spec in (
            ("dense", "dense"),
            ("event", "event"),
            ("columnar", "columnar"),
        ):
            network = CongestNetwork(
                graph, OneOversized, bandwidth=8, strict=True, engine=spec
            )
            with pytest.raises(BandwidthExceeded):
                network.run(max_rounds=10)
            totals[name] = (network.total_messages, network.total_bits)
        assert totals["columnar"] == totals["dense"] == totals["event"]


class TestEngineNames:
    def test_get_engine_rejects_retired_names_and_thread_counts(self):
        # The thread-sharded engine and both kernel-pinned columnar names.
        retired = ["parallel"] + [f"columnar-{kernels}" for kernels in ("stdlib", "numpy")]
        for name in retired:
            with pytest.raises(ValueError, match="unknown engine") as info:
                get_engine(name)
            for known in _ENGINES:
                assert repr(known) in str(info.value)
        with pytest.raises(ValueError, match="thread"):
            get_engine("event", threads=2)
        assert sorted(_ENGINES) == ["auto", "columnar", "dense", "event"]


class TestIdlenessHints:
    def test_wants_round_is_the_boolean_view_of_next_active_round(self):
        graph = nx.path_graph(3)
        network = CongestNetwork(graph, NodeProgram, bandwidth=8)
        node = network.nodes[0]

        # Default hint: every round is active.
        default = NodeProgram()
        assert default.next_active_round(node, 5) == 6
        assert all(default.wants_round(node, r) for r in (1, 2, 10))

        # A purely reactive program wants no round spontaneously.
        class Reactive(NodeProgram):
            def next_active_round(self, node, after_round):
                return None

        assert not Reactive().wants_round(node, 1)

        # A scheduled program wants exactly its scheduled rounds.
        class EveryFifth(NodeProgram):
            def next_active_round(self, node, after_round):
                return after_round + (5 - after_round % 5)

        program = EveryFifth()
        assert [r for r in range(1, 12) if program.wants_round(node, r)] == [5, 10]


class TestFaultEquivalence:
    """The fault layer must preserve the cross-engine contract twice over:
    an *empty* plan is a transparent wrapper (byte-identical to no plan at
    all, message log included), and a *nontrivial* plan produces the same
    faulted run on every engine, because each decision hashes
    ``(seed, round, edge, msg_index)`` and nothing engine-shaped."""

    @staticmethod
    def _chatter():
        class Chatter(NodeProgram):
            def on_start(self, node):
                node.broadcast(("hello", repr(node.id)), bits=16)

            def on_round(self, node, round_no, inbox):
                if round_no >= 8:
                    node.halt(len(inbox))
                    return
                for msg in inbox:
                    node.send(msg.sender, ("echo", round_no), bits=8)

        return Chatter

    @pytest.mark.parametrize("engine", ("dense",) + ENGINES)
    def test_empty_plan_is_byte_identical_to_no_plan(self, engine):
        from repro.congest.faults import FaultPlan

        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=21)
        runs = {}
        for faults in (None, FaultPlan()):
            network = CongestNetwork(
                graph,
                self._chatter(),
                bandwidth=16,
                engine=engine,
                record_messages=True,
                faults=faults,
            )
            runs[faults is None] = (network.run(), list(network.message_log))
        bare, bare_log = runs[True]
        wrapped, wrapped_log = runs[False]
        assert_results_match(bare, wrapped)
        assert wrapped_log == bare_log
        assert bare.fault_stats is None and wrapped.fault_stats is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nontrivial_plan_is_byte_identical_across_engines(self, engine):
        from repro.algorithms.paths import run_refreshing_bellman_ford
        from repro.congest.faults import FaultPlan

        graph = _weighted(20, 17)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph,
            seed=6,
            drop_prob=0.1,
            dup_prob=0.05,
            reorder_prob=0.1,
            n_crashes=2,
            crash_length=5,
            n_edge_deletes=1,
            n_edge_inserts=1,
            window=(1, 30),
            protect=[source],
        )
        dists_dense, dense = run_refreshing_bellman_ford(
            graph, source, max_rounds=50, engine="dense", faults=plan
        )
        dists_other, other = run_refreshing_bellman_ford(
            graph, source, max_rounds=50, engine=engine, faults=plan
        )
        assert_results_match(dense, other)
        assert dists_other == dists_dense
        assert other.fault_stats == dense.fault_stats
        assert other.fault_stats is not None and other.fault_stats["drops"] > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_faulted_message_log_is_byte_identical(self, engine):
        """record_messages under a plan: the offered-load log (drops
        included, duplicates not) is an ordered artifact and must agree
        with the dense reference exactly."""
        from repro.congest.faults import FaultPlan

        graph = random_connected_graph(12, extra_edge_prob=0.2, seed=30)
        plan = FaultPlan(seed=8, drop_prob=0.2, dup_prob=0.1, crashes=((5, 3, 7),))
        logs = {}
        results = {}
        for name, spec in (("dense", "dense"), (engine, engine)):
            network = CongestNetwork(
                graph,
                self._chatter(),
                bandwidth=16,
                engine=spec,
                record_messages=True,
                faults=plan,
            )
            results[name] = network.run()
            logs[name] = list(network.message_log)
        assert_results_match(results["dense"], results[engine])
        assert logs[engine] == logs["dense"]
        assert len(logs["dense"]) == results["dense"].total_messages


class TestEventEngineSkips:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_quiet_rounds_are_not_stepped(self, engine):
        # The Elkin staged flood is mostly quiet by design: the active-set
        # engines must step far fewer node-rounds than the dense n x rounds
        # grid (the columnar engine inherits the event clock, so its step
        # counter obeys the same bound).
        graph = _weighted(24, 11)
        from repro.algorithms.elkin import StagedLabelFloodProgram, quantise_weights

        classes, n_classes = quantise_weights(graph, 2.0)
        inputs = {
            node: {
                "edge_classes": {
                    repr(neighbor): classes[frozenset((node, neighbor))]
                    for neighbor in graph.neighbors(node)
                },
                "n_classes": n_classes,
                "tail": graph.number_of_nodes(),
            }
            for node in graph.nodes()
        }
        network = CongestNetwork(
            graph,
            StagedLabelFloodProgram,
            bandwidth=64,
            seed=0,
            inputs=inputs,
            engine=engine,
        )
        result = network.run(max_rounds=200_000)
        dense_grid = result.rounds * graph.number_of_nodes()
        assert network.engine.node_steps < dense_grid / 3
