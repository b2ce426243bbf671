"""The CONGEST spec itself: its import boundary and its semantics.

``tests/congest_spec.py`` is the reference every ``RunResult`` of the
event engine is checked against.  That check is only independent if the
spec never runs the engine's code, so the boundary tests parse the spec
and fail on any import of the engine, network, node, transport or
fault-wrapper modules and names, and on any ``FaultPlan`` helper beyond its
fields and pure decision predicates.  The semantic tests pin the spec to
the model with hand-computed expectations, so the engine and the spec
cannot agree on a shared misreading.
"""

import ast
import random
from pathlib import Path

import networkx as nx
import pytest

from repro.congest.faults import FaultPlan
from repro.congest.node import NodeProgram
from tests.congest_spec import BandwidthExceeded, SpecNetwork

SPEC = Path(__file__).with_name("congest_spec.py")

#: Modules whose code the spec must not run.
FORBIDDEN_MODULES = {
    f"repro.congest.{name}" for name in ("engine", "network", "node", "columnar", "transport")
}
#: Names the spec must not import from anywhere.
FORBIDDEN_NAMES = {"step_batch", "StepPlan", "FaultyTransport"}
#: Everything the spec may import from ``repro``.
ALLOWED = {
    "repro.congest": {"RunResult"},
    "repro.congest.faults": {"FaultPlan"},
    "repro.congest.message": {"Received", "QubitPayload", "bit_size"},
}
#: FaultPlan methods beyond the fields and the pure decision predicates
#: (``drop``, ``duplicate``, ``reorder``, ``crashed``, ``edge_down``): the
#: engine's schedule hooks and derived views, which the spec must derive
#: from the fields itself.
FAULT_PLAN_HELPERS = {
    "decision",
    "final_graph",
    "forced_wakes",
    "generate",
    "has_crashes",
    "has_message_faults",
    "is_empty",
    "last_fault_round",
    "message_faults_active",
    "next_event_round",
    "with_seed",
}


def _import_violations(source: str) -> list[str]:
    """Every import in ``source`` that crosses the spec's boundary."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imports = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports = [(node.module or "", alias.name) for alias in node.names]
        else:
            continue
        for module, name in imports:
            full = f"{module}.{name}" if name else module
            if (
                any(full == m or full.startswith(m + ".") or module == m for m in FORBIDDEN_MODULES)
                or name in FORBIDDEN_NAMES
                or (module.split(".")[0] == "repro" and name not in ALLOWED.get(module, set()))
            ):
                bad.append(full)
    return bad


class TestImportBoundary:
    def test_spec_imports_nothing_of_the_engine_stack(self):
        source = SPEC.read_text()
        assert "from repro.congest.message import" in source
        assert _import_violations(source) == []

    def test_spec_uses_only_fault_plan_fields_and_predicates(self):
        tree = ast.parse(SPEC.read_text())
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not attributes & FAULT_PLAN_HELPERS, sorted(attributes & FAULT_PLAN_HELPERS)
        # No private state of any repro object either (FaultPlan's derived
        # lookups all start with an underscore); the spec's own are _net.
        assert {a for a in attributes if a.startswith("_")} <= {"_net"}

    def test_the_boundary_check_bites(self):
        for source in (
            "from repro.congest.engine import step_batch",
            "import repro.congest.network",
            "from repro.congest import node",
            "from repro.congest.faults import FaultyTransport",
            "from repro.congest.columnar import BandwidthExceeded",
            "from repro.algorithms.mst import run_gkp_mst",
        ):
            assert _import_violations(source), source


class _Script(NodeProgram):
    """Sends what ``node.input`` lists for each round and records every
    round it is stepped in, with the inbox it saw."""

    def on_start(self, node):
        self.seen = []
        self._send(node, 0)

    def on_round(self, node, round_no, inbox):
        self.seen.append((round_no, [(m.sender, m.payload) for m in inbox]))
        node.output = tuple(self.seen)
        self._send(node, round_no)

    def _send(self, node, round_no):
        for target, payload, bits in (node.input or {}).get(round_no, ()):
            node.send(target, payload, bits=bits)


def _run(graph, script, max_rounds, **kwargs):
    network = SpecNetwork(graph, _Script, inputs=script, **kwargs)
    return network, network.run(max_rounds=max_rounds)


class TestSpecSemantics:
    def test_links_move_b_bits_per_round_fifo_and_deliver_whole(self):
        # Two 6-bit messages on one link at B=8: the first lands in round 1
        # (6 bits, then 2 bits of the second), the second in round 2.
        script = {0: {0: [(1, "a", 6), (1, "b", 6)]}}
        network, result = _run(nx.path_graph(2), script, max_rounds=3, bandwidth=8)
        assert network.programs[1].seen == [(1, [(0, "a")]), (2, [(0, "b")]), (3, [])]
        assert result.per_round_bits == [8, 4, 0]
        assert result.max_edge_bits_per_round == 8
        assert (result.total_messages, result.total_bits) == (2, 12)

    def test_a_long_message_occupies_its_link_for_ceil_bits_over_b_rounds(self):
        script = {0: {0: [(1, "x", 100)]}}
        network, result = _run(nx.path_graph(2), script, max_rounds=12, bandwidth=10)
        assert [r for r, inbox in network.programs[1].seen if inbox] == [10]
        assert result.per_round_bits == [10] * 10 + [0, 0]

    def test_same_round_deliveries_follow_the_order_links_became_busy(self):
        # Node 1 hears from 2 first (its link filled at round 0); 0's link
        # drained after round 1 and filled again at round 1, so it goes last.
        script = {0: {0: [(1, "a", 8)], 1: [(1, "c", 8)]}, 2: {0: [(1, "b", 16)]}}
        network, _ = _run(nx.path_graph(3), script, max_rounds=2, bandwidth=8)
        assert network.programs[1].seen == [(1, [(0, "a")]), (2, [(2, "b"), (0, "c")])]

    def test_every_live_node_steps_every_round_in_repr_order(self):
        order = []

        class Recorder(NodeProgram):
            def on_round(self, node, round_no, inbox):
                order.append((round_no, node.id))
                if round_no == 2 and node.id == 10:
                    node.halt()

        graph = nx.path_graph([2, 10, 3])
        SpecNetwork(graph, Recorder).run(max_rounds=3)
        assert order == [(1, 10), (1, 2), (1, 3), (2, 10), (2, 2), (2, 3), (3, 2), (3, 3)]

    def test_node_rngs_are_drawn_from_the_seed_in_repr_order(self):
        network = SpecNetwork(nx.path_graph([2, 10]), NodeProgram, seed=5)
        master = random.Random(5)
        for nid in (10, 2):
            assert network.nodes[nid].rng.random() == random.Random(master.random()).random()

    def test_quiescence_does_not_count_the_silent_round(self):
        # A 30-bit message crawls over B=10 for 3 rounds; round 4 is silent
        # and shows quiescence, so the run reports 3 rounds.
        script = {0: {0: [(1, "x", 30)]}}
        network = SpecNetwork(nx.path_graph(2), _Script, bandwidth=10, inputs=script)
        quiet = network.run(max_rounds=50, stop_on_quiescence=True)
        assert quiet.rounds == 3 and quiet.per_round_bits == [10, 10, 10, 0]
        _, result = _run(nx.path_graph(2), script, max_rounds=50, bandwidth=10)
        assert result.rounds == 50

    def test_strict_mode_raises_before_charging_the_offender(self):
        script = {0: {0: [(1, "ok", 4), (1, "big", 9)]}}
        network = SpecNetwork(nx.path_graph(2), _Script, bandwidth=8, strict=True, inputs=script)
        with pytest.raises(BandwidthExceeded, match="message of 9 bits exceeds B=8"):
            network.run(max_rounds=2)
        assert (network.total_messages, network.total_bits) == (1, 4)

    def test_drops_are_charged_to_the_sender_but_never_move(self):
        script = {0: {0: [(1, "a", 4), (1, "b", 4)]}}
        network, result = _run(
            nx.path_graph(2), script, max_rounds=2, bandwidth=8, faults=FaultPlan(drop_prob=1.0)
        )
        assert network.programs[1].seen == [(1, []), (2, [])]
        assert (result.total_messages, result.per_round_bits) == (2, [0, 0])
        assert result.fault_stats["drops"] == 2 and result.fault_stats["faulted_flushes"] == 1

    def test_duplicates_follow_their_original_and_move_twice(self):
        script = {0: {0: [(1, "a", 4)]}}
        network, result = _run(
            nx.path_graph(2), script, max_rounds=1, bandwidth=8, faults=FaultPlan(dup_prob=1.0)
        )
        assert network.programs[1].seen == [(1, [(0, "a"), (0, "a")])]
        assert (result.total_messages, result.per_round_bits) == (1, [8])

    def test_a_crashed_node_naps_and_loses_its_deliveries(self):
        script = {0: {r: [(1, r, 4)] for r in range(6)}}
        network, result = _run(
            nx.path_graph(2), script, max_rounds=6, bandwidth=8,
            faults=FaultPlan(crashes=((1, 2, 4),)),
        )
        assert [r for r, _ in network.programs[1].seen] == [1, 4, 5, 6]
        assert network.programs[1].seen[1] == (4, [(0, 3)])
        assert result.fault_stats["crash_lost"] == 2

    def test_a_deleted_link_loses_its_traffic_and_stale_sends(self):
        # 0 -> 1 carries a 24-bit message at B=8 (due in round 3); the link
        # is deleted at round 2, and 0 keeps addressing 1 afterwards.
        script = {0: {0: [(1, "long", 24)], 2: [(1, "stale", 8)]}}
        plan = FaultPlan(topology_events=((2, "delete", 0, 1), (3, "insert", 0, 2, 7.0)))
        network, result = _run(nx.path_graph(3), script, max_rounds=4, bandwidth=8, faults=plan)
        assert all(not inbox for _, inbox in network.programs[1].seen)
        assert result.fault_stats["link_lost"] == 2  # in flight + stale send
        assert result.fault_stats["topology_applied"] == 2
        assert network.nodes[0].neighbors == (2,) and network.nodes[1].neighbors == (2,)
        assert network.nodes[0].edge_weight(2) == 7.0
        assert result.per_round_bits == [8, 8, 8, 0]

    def test_an_empty_plan_reports_no_fault_stats(self):
        _, bare = _run(nx.path_graph(2), {}, max_rounds=2)
        _, empty = _run(nx.path_graph(2), {}, max_rounds=2, faults=FaultPlan(seed=3))
        assert bare.fault_stats is None and empty.fault_stats is None
        with pytest.raises(ValueError, match="fault_seed requires a FaultPlan"):
            SpecNetwork(nx.path_graph(2), NodeProgram, fault_seed=1)
