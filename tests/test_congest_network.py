"""Tests for the CONGEST simulator: rounds, bandwidth, pipelining, metrics."""

import gc
import weakref

import networkx as nx
import pytest

from repro.congest.faults import FaultPlan
from repro.congest.message import QubitPayload, bit_size
from repro.congest.network import BandwidthExceeded, CongestNetwork, run_program
from repro.congest.node import Node, NodeProgram
from tests import congest_spec
from tests.congest_spec import SpecNetwork
from tests.spec_harness import NETWORKS


class EchoOnce(NodeProgram):
    """Round 1: node 0 sends 'ping' to all; receivers halt on receipt."""

    def on_start(self, node: Node) -> None:
        if node.id == 0:
            node.broadcast(("ping",))
            node.halt("sent")

    def on_round(self, node: Node, round_no: int, inbox, **_) -> None:
        if inbox:
            node.halt("got")


class FloodProgram(NodeProgram):
    """Flood a token; halt when seen.  Measures diameter-from-0 in rounds."""

    def on_start(self, node: Node) -> None:
        self.seen = False
        if node.id == 0:
            node.broadcast(("tok",))
            self.seen = True
            node.halt(0)

    def on_round(self, node: Node, round_no: int, inbox) -> None:
        if inbox and not self.seen:
            self.seen = True
            node.broadcast(("tok",))
            node.halt(round_no)


class BigSender(NodeProgram):
    def on_start(self, node: Node) -> None:
        if node.id == 0:
            node.send(1, "x" * 100, bits=100)
            node.halt()

    def on_round(self, node: Node, round_no: int, inbox) -> None:
        if inbox:
            node.halt(round_no)


class TestBitSize:
    def test_int_sizes(self):
        assert bit_size(0) == 1
        assert bit_size(255) == 9
        assert bit_size(True) == 1

    def test_container_sizes(self):
        assert bit_size((1, 2)) > bit_size(1)
        assert bit_size("ab") == 8 + 16

    def test_qubit_payload(self):
        assert bit_size(QubitPayload(5)) == 5
        with pytest.raises(ValueError):
            QubitPayload(0)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            bit_size(object())


class TestExecution:
    def test_flood_measures_distance(self):
        graph = nx.path_graph(6)
        result = run_program(graph, FloodProgram, bandwidth=64)
        assert result.halted
        assert result.outputs[5] == 5  # distance from node 0
        assert result.outputs[1] == 1

    def test_message_arrives_next_round(self):
        graph = nx.path_graph(2)
        result = run_program(graph, EchoOnce, bandwidth=64)
        assert result.rounds == 1
        assert result.outputs[1] == "got"

    def test_big_message_takes_multiple_rounds(self):
        graph = nx.path_graph(2)
        result = run_program(graph, BigSender, bandwidth=10)
        # 100 bits over B=10 takes 10 rounds to traverse the single edge.
        assert result.outputs[1] == 10

    def test_strict_mode_rejects_oversize(self):
        graph = nx.path_graph(2)
        with pytest.raises(BandwidthExceeded):
            run_program(graph, BigSender, bandwidth=10, strict=True)

    def test_metrics_accumulate(self):
        graph = nx.cycle_graph(5)
        result = run_program(graph, FloodProgram, bandwidth=64)
        assert result.total_messages >= 5
        assert result.total_bits >= result.total_messages
        assert result.max_edge_bits_per_round <= 64

    def test_unanimous_output(self):
        graph = nx.path_graph(3)

        class Fixed(NodeProgram):
            def on_start(self, node):
                node.halt("same")

            def on_round(self, node, round_no, inbox):
                pass

        result = run_program(graph, Fixed)
        assert result.unanimous_output() == "same"

    def test_unanimous_raises_on_disagreement(self):
        graph = nx.path_graph(3)

        class ById(NodeProgram):
            def on_start(self, node):
                node.halt(node.id)

            def on_round(self, node, round_no, inbox):
                pass

        result = run_program(graph, ById)
        with pytest.raises(ValueError):
            result.unanimous_output()

    def test_quiescence_stop(self):
        graph = nx.path_graph(4)

        class Silent(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.broadcast(("x",))

            def on_round(self, node, round_no, inbox):
                pass  # never halts, never answers

        network = CongestNetwork(graph, Silent, bandwidth=8)
        result = network.run(max_rounds=500, stop_on_quiescence=True)
        assert result.rounds < 10

    def test_send_to_non_neighbor_rejected(self):
        graph = nx.path_graph(3)

        class Bad(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.send(2, "x")

            def on_round(self, node, round_no, inbox):
                node.halt()

        with pytest.raises(ValueError):
            run_program(graph, Bad)

    def test_halted_node_cannot_send(self):
        graph = nx.path_graph(2)
        network = CongestNetwork(graph, EchoOnce, bandwidth=8)
        network.run()
        with pytest.raises(RuntimeError):
            network.nodes[0].send(1, "late")

    def test_inputs_delivered(self):
        graph = nx.path_graph(2)

        class ReadInput(NodeProgram):
            def on_start(self, node):
                node.halt(node.input)

            def on_round(self, node, round_no, inbox):
                pass

        result = run_program(graph, ReadInput, inputs={0: "a", 1: "b"})
        assert result.outputs == {0: "a", 1: "b"}

    def test_message_log_records_rounds(self):
        graph = nx.path_graph(3)
        network = CongestNetwork(graph, FloodProgram, bandwidth=64, record_messages=True)
        network.run()
        rounds_in_log = [entry[0] for entry in network.message_log]
        assert 0 in rounds_in_log  # on_start send
        assert max(rounds_in_log) >= 1

    def test_message_log_off_by_default(self):
        # The per-message log grows unboundedly, so it is opt-in; the
        # aggregate metrics are unaffected.
        graph = nx.path_graph(3)
        network = CongestNetwork(graph, FloodProgram, bandwidth=64)
        network.run()
        assert network.message_log == []
        assert network.total_messages > 0

    def test_engine_selection(self):
        from repro.congest.engine import EventEngine

        graph = nx.path_graph(4)
        assert isinstance(CongestNetwork(graph, FloodProgram).engine, EventEngine)
        engine = EventEngine()
        assert CongestNetwork(graph, FloodProgram, engine=engine).engine is engine
        for name in ("bogus", "dense"):
            with pytest.raises(ValueError, match="unknown engine"):
                CongestNetwork(graph, FloodProgram, engine=name)

    def test_spec_strict_mode_matches(self):
        graph = nx.path_graph(2)
        with pytest.raises(BandwidthExceeded) as event:
            run_program(graph, BigSender, bandwidth=10, strict=True)
        with pytest.raises(congest_spec.BandwidthExceeded) as spec:
            SpecNetwork(graph, BigSender, bandwidth=10, strict=True).run()
        assert str(event.value) == str(spec.value) == "message of 100 bits exceeds B=10 on edge 0->1"

    def test_finished_network_is_freed_without_gc(self):
        # Nodes point back at their network; that back-reference must not
        # form a cycle, or every finished network (and its transport's
        # per-edge queues) lingers until a full collection.
        graph = nx.cycle_graph(8)
        gc.disable()
        try:
            network = CongestNetwork(graph, FloodProgram)
            network.run()
            ref = weakref.ref(network)
            del network
            assert ref() is None
        finally:
            gc.enable()

    def test_finished_faulted_network_is_freed_without_gc(self):
        # The fault wrapper holds its own tracer and plan, and topology
        # events splice the nodes' neighbour tuples mid-run; none of it may
        # tie the finished network into a cycle either.
        graph = nx.cycle_graph(10)
        plan = FaultPlan.generate(
            graph, seed=3, drop_prob=0.1, dup_prob=0.1, n_crashes=1, crash_length=3,
            n_edge_deletes=1, n_edge_inserts=1, window=(1, 6), protect=[0],
        )
        assert plan.crashes and plan.topology_events
        gc.disable()
        try:
            network = CongestNetwork(graph, FloodProgram, faults=plan)
            network.run(max_rounds=30)
            ref = weakref.ref(network)
            del network
            assert ref() is None
        finally:
            gc.enable()

    @NETWORKS
    def test_quiescence_waits_for_a_multi_round_message(self, network_cls):
        # Nobody halts; the only traffic is one 100-bit message crawling
        # over B=10.  Every round of its transit moves bits, so the
        # quiescence stop must not fire before it lands in round 10.
        class SlowSilent(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.send(1, "x" * 100, bits=100)

            def on_round(self, node, round_no, inbox):
                if inbox:
                    node.output = round_no

        network = network_cls(nx.path_graph(2), SlowSilent, bandwidth=10)
        result = network.run(max_rounds=500, stop_on_quiescence=True)
        assert result.outputs[1] == 10
        assert result.rounds == 10
        assert result.total_bits == 100
        # The silent probe round that detected quiescence is not counted.
        assert result.per_round_bits[: result.rounds] == [10] * 10
        assert network.pending_traffic() == 0
