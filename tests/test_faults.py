"""The fault-injection layer: plan values, wrapper semantics, recovery.

Covers the three seams the layer adds under the engines:

- :class:`FaultPlan` as a pure value -- validation, hash-decision purity,
  schedule queries, deterministic generation;
- :class:`FaultyTransport` wire semantics on a bare ``LinkTransport`` --
  drops/dups/reorders with offered-load accounting, crash and link loss at
  delivery, the skip-rounds guard that keeps the event engines honest;
- end-to-end recovery correctness and the exactness of the event/columnar
  engines' skip accounting across crash/recovery wake-ups (byte-identical
  to the dense reference, which never skips).
"""

import networkx as nx
import pytest

from repro.algorithms.mst import run_boruvka_mst, tree_weight
from repro.algorithms.paths import run_refreshing_bellman_ford
from repro.congest.faults import (
    CrashSpan,
    FaultPlan,
    FaultyTransport,
    TopologyEvent,
    apply_topology_event,
)
from repro.congest.network import CongestNetwork, run_program
from repro.congest.node import NodeProgram
from repro.congest.transport import LinkTransport
from repro.graphs.generators import random_connected_graph


def _weighted(n, seed, extra_edge_prob=0.15):
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    import random as _random

    rng = _random.Random(seed + 1)
    weights = rng.sample(range(1, 10 * graph.number_of_edges() + 1), graph.number_of_edges())
    for (u, v), w in zip(graph.edges(), weights):
        graph.edges[u, v]["weight"] = float(w)
    return graph


class TestFaultPlanValue:
    def test_probability_validation(self):
        for name in ("drop_prob", "dup_prob", "reorder_prob"):
            with pytest.raises(ValueError, match=name):
                FaultPlan(**{name: 1.5})
            with pytest.raises(ValueError, match=name):
                FaultPlan(**{name: -0.1})

    def test_crash_span_validation(self):
        with pytest.raises(ValueError, match="crash span"):
            FaultPlan(crashes=((3, 0, 5),))
        with pytest.raises(ValueError, match="crash span"):
            FaultPlan(crashes=(CrashSpan(3, 7, 7),))

    def test_topology_event_validation(self):
        with pytest.raises(ValueError, match="unknown topology action"):
            FaultPlan(topology_events=((4, "frobnicate", 0, 1),))
        with pytest.raises(ValueError, match="round 1"):
            FaultPlan(topology_events=(TopologyEvent(0, "insert", 0, 1),))

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            FaultPlan(window=(5, 2))

    def test_tuples_coerced_and_events_sorted(self):
        plan = FaultPlan(
            crashes=((7, 2, 9),),
            topology_events=((9, "delete", 0, 1), (3, "insert", 2, 4, 2.5)),
        )
        assert plan.crashes == (CrashSpan(7, 2, 9),)
        assert [ev.round for ev in plan.topology_events] == [3, 9]
        assert plan.topology_events[0].weight == 2.5

    def test_emptiness_and_flags(self):
        assert FaultPlan().is_empty()
        assert FaultPlan(seed=99).is_empty()
        assert not FaultPlan(drop_prob=0.1).is_empty()
        assert not FaultPlan(crashes=((1, 2, 3),)).is_empty()
        assert FaultPlan(drop_prob=0.1).has_message_faults
        assert FaultPlan(crashes=((1, 2, 3),)).has_crashes

    def test_decision_is_pure_and_uniform_range(self):
        plan = FaultPlan(seed=42, drop_prob=0.5)
        twin = FaultPlan(seed=42, drop_prob=0.5)
        draws = [plan.decision("drop", r, "a", "b", i) for r in range(5) for i in range(5)]
        again = [twin.decision("drop", r, "a", "b", i) for r in range(5) for i in range(5)]
        assert draws == again
        assert all(0.0 <= d < 1.0 for d in draws)
        # Distinct coordinates give distinct draws (no accidental aliasing
        # between kind / round / edge / index).
        assert plan.decision("drop", 1, "a", "b", 0) != plan.decision("dup", 1, "a", "b", 0)
        assert plan.decision("drop", 1, "a", "b", 0) != plan.decision("drop", 2, "a", "b", 0)
        assert plan.decision("drop", 1, "a", "b", 0) != plan.decision("drop", 1, "b", "a", 0)
        assert plan.decision("drop", 1, "a", "b", 0) != plan.decision("drop", 1, "a", "b", 1)

    def test_different_seeds_make_different_decisions(self):
        a = FaultPlan(seed=0, drop_prob=0.5)
        b = a.with_seed(1)
        assert b.seed == 1 and b.drop_prob == 0.5
        seq_a = [a.decision("drop", r, 0, 1, i) for r in range(10) for i in range(10)]
        seq_b = [b.decision("drop", r, 0, 1, i) for r in range(10) for i in range(10)]
        assert seq_a != seq_b

    def test_window_gates_message_faults(self):
        plan = FaultPlan(drop_prob=1.0, window=(5, 8))
        assert not plan.message_faults_active(4)
        assert plan.message_faults_active(5)
        assert plan.message_faults_active(8)
        assert not plan.message_faults_active(9)
        assert not plan.drop(4, 0, 1, 0)
        assert plan.drop(5, 0, 1, 0)

    def test_last_fault_round(self):
        assert FaultPlan().last_fault_round() == 0
        assert FaultPlan(drop_prob=0.1).last_fault_round() is None
        assert FaultPlan(drop_prob=0.1, window=(1, 12)).last_fault_round() == 12
        plan = FaultPlan(
            drop_prob=0.1,
            window=(1, 12),
            crashes=((0, 3, 20),),
            topology_events=((15, "insert", 0, 9),),
        )
        assert plan.last_fault_round() == 20

    def test_crashed_spans(self):
        plan = FaultPlan(crashes=((7, 3, 6), (7, 10, 12), (8, 4, 5)))
        assert not plan.crashed(7, 2)
        assert plan.crashed(7, 3)
        assert plan.crashed(7, 5)
        assert not plan.crashed(7, 6)  # recovery round: up again
        assert plan.crashed(7, 11)
        assert plan.crashed(8, 4)
        assert not plan.crashed(9, 4)

    def test_edge_down_follows_the_timeline(self):
        plan = FaultPlan(
            topology_events=((4, "delete", 0, 1), (9, "insert", 0, 1), (2, "delete", 2, 3))
        )
        assert not plan.edge_down(0, 1, 3)
        assert plan.edge_down(0, 1, 4)
        assert plan.edge_down(1, 0, 5)  # undirected
        assert not plan.edge_down(0, 1, 9)  # re-inserted
        assert plan.edge_down(2, 3, 100)
        assert not plan.edge_down(5, 6, 100)  # never scheduled

    def test_next_event_round_and_forced_wakes(self):
        plan = FaultPlan(
            crashes=((7, 3, 6),),
            topology_events=((10, "insert", 1, 2),),
        )
        assert plan.next_event_round(0) == 3
        assert plan.next_event_round(3) == 6
        assert plan.next_event_round(6) == 10
        assert plan.next_event_round(10) is None
        wakes = plan.forced_wakes()
        assert wakes[6] == (7,)  # recovery re-step
        assert set(wakes[10]) == {1, 2}  # event endpoints

    def test_final_graph_applies_events_in_order(self):
        graph = nx.path_graph(4)
        plan = FaultPlan(
            topology_events=(
                (2, "insert", 0, 3),
                (5, "delete", 0, 3),
                (7, "insert", 0, 2, 4.0),
            )
        )
        final = plan.final_graph(graph)
        assert not final.has_edge(0, 3)
        assert final.has_edge(0, 2) and final.edges[0, 2]["weight"] == 4.0
        assert graph.number_of_edges() == 3  # input untouched

    def test_apply_topology_event_skips_impossible(self):
        graph = nx.path_graph(3)
        assert not apply_topology_event(graph, TopologyEvent(1, "insert", 0, 1))
        assert not apply_topology_event(graph, TopologyEvent(1, "insert", 0, 0))
        assert not apply_topology_event(graph, TopologyEvent(1, "insert", 0, 99))
        assert not apply_topology_event(graph, TopologyEvent(1, "delete", 0, 2))
        assert apply_topology_event(graph, TopologyEvent(1, "delete", 0, 1))
        with pytest.raises(ValueError, match="unknown topology action"):
            apply_topology_event(graph, TopologyEvent(1, "nope", 0, 1))


class TestFaultPlanGenerate:
    def test_same_arguments_same_plan(self):
        graph = random_connected_graph(20, extra_edge_prob=0.2, seed=3)
        kwargs = dict(
            seed=5,
            drop_prob=0.1,
            n_crashes=2,
            crash_length=6,
            n_edge_deletes=2,
            n_edge_inserts=2,
            window=(1, 30),
        )
        assert FaultPlan.generate(graph, **kwargs) == FaultPlan.generate(graph, **kwargs)

    def test_different_seed_different_schedule(self):
        graph = random_connected_graph(20, extra_edge_prob=0.2, seed=3)
        plans = [
            FaultPlan.generate(graph, seed=s, n_crashes=2, n_edge_deletes=2) for s in range(6)
        ]
        assert len({(p.crashes, p.topology_events) for p in plans}) > 1

    def test_deletions_keep_the_graph_connected(self):
        graph = random_connected_graph(18, extra_edge_prob=0.15, seed=9)
        plan = FaultPlan.generate(graph, seed=2, n_edge_deletes=4)
        assert nx.is_connected(plan.final_graph(graph))

    def test_protected_nodes_never_crash(self):
        graph = random_connected_graph(12, extra_edge_prob=0.2, seed=1)
        source = min(graph.nodes())
        for seed in range(8):
            plan = FaultPlan.generate(graph, seed=seed, n_crashes=4, protect=[source])
            assert all(span.node != source for span in plan.crashes)

    def test_schedule_respects_window_and_lengths(self):
        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=4)
        plan = FaultPlan.generate(
            graph, seed=7, n_crashes=3, crash_length=5, n_edge_inserts=2, window=(10, 20)
        )
        for span in plan.crashes:
            assert 10 <= span.start <= 20
            assert span.stop == span.start + 5
        for ev in plan.topology_events:
            assert 10 <= ev.round <= 20
        assert plan.window == (10, 20)


def _staged_stream(n_edges=3, per_edge=4, round_no=1):
    """A deterministic round of traffic over ``n_edges`` directed edges."""
    stream = []
    for e in range(n_edges):
        for i in range(per_edge):
            stream.append((f"s{e}", f"r{e}", ("m", e, i), 8, round_no))
    return stream


def _run_round(plan, stream):
    """Push one staged round through a wrapped LinkTransport; return the
    wrapper and the delivered inboxes."""
    transport = FaultyTransport(LinkTransport(bandwidth=512), plan)
    for sender, receiver, payload, bits, round_no in stream:
        transport.enqueue(sender, receiver, payload, bits, round_no)
    transport.flush()
    return transport, transport.deliver_round()


class TestFaultyTransportWire:
    def test_empty_plan_is_transparent(self):
        stream = _staged_stream()
        transport, inboxes = _run_round(FaultPlan(), stream)
        assert transport.fault_summary is None
        assert transport.total_messages == len(stream)
        delivered = [
            (msg.sender, msg.payload) for nid in sorted(inboxes) for msg in inboxes[nid]
        ]
        assert delivered == [(s, p) for s, r, p, b, rn in stream]

    def test_drops_charge_offered_load(self):
        plan = FaultPlan(seed=3, drop_prob=0.5)
        stream = _staged_stream(n_edges=4, per_edge=8)
        transport, inboxes = _run_round(plan, stream)
        n_delivered = sum(len(msgs) for msgs in inboxes.values())
        stats = transport.fault_summary
        assert stats["drops"] > 0
        assert n_delivered == len(stream) - stats["drops"]
        # The sender paid for every send; the wire only carried survivors.
        assert transport.total_messages == len(stream)
        assert transport.total_bits == 8 * len(stream)
        assert transport.per_round_bits[-1] == 8 * n_delivered

    def test_duplicates_traverse_twice_but_count_once(self):
        plan = FaultPlan(seed=5, dup_prob=0.5)
        stream = _staged_stream(n_edges=4, per_edge=8)
        transport, inboxes = _run_round(plan, stream)
        n_delivered = sum(len(msgs) for msgs in inboxes.values())
        stats = transport.fault_summary
        assert stats["duplicates"] > 0
        assert n_delivered == len(stream) + stats["duplicates"]
        assert transport.total_messages == len(stream)
        assert transport.per_round_bits[-1] == 8 * n_delivered

    def test_reorder_permutes_within_an_edge_only(self):
        plan = FaultPlan(seed=1, reorder_prob=0.9)
        stream = _staged_stream(n_edges=3, per_edge=6)
        transport, inboxes = _run_round(plan, stream)
        stats = transport.fault_summary
        assert stats["reorder_swaps"] > 0
        assert stats["max_reorder_depth"] >= 1
        for e in range(3):
            payloads = [msg.payload for msg in inboxes[f"r{e}"]]
            expected = [("m", e, i) for i in range(6)]
            assert sorted(payloads) == expected  # same multiset, per edge
        assert any(
            [msg.payload for msg in inboxes[f"r{e}"]] != [("m", e, i) for i in range(6)]
            for e in range(3)
        )

    def test_fault_decisions_identical_across_staging_orders(self):
        # Drop/dup decisions index the per-edge staging order, so shuffling
        # whole-edge blocks changes nothing.
        plan = FaultPlan(seed=9, drop_prob=0.3, dup_prob=0.2)
        stream = _staged_stream(n_edges=4, per_edge=6)
        _, inboxes_a = _run_round(plan, stream)
        regrouped = sorted(stream, key=lambda m: (m[0], m[4]))
        _, inboxes_b = _run_round(plan, regrouped)
        for nid in inboxes_a:
            assert [m.payload for m in inboxes_a[nid]] == [m.payload for m in inboxes_b[nid]]

    def test_strict_oversize_raises_like_bare_transport(self):
        from repro.congest.transport import BandwidthExceeded

        transport = FaultyTransport(LinkTransport(bandwidth=8, strict=True), FaultPlan())
        with pytest.raises(BandwidthExceeded, match="exceeds B=8"):
            transport.enqueue("a", "b", ("big",), 99, 1)

    def test_crash_loss_at_delivery(self):
        plan = FaultPlan(crashes=((("r0"), 1, 4),))
        stream = _staged_stream(n_edges=2, per_edge=3)
        transport, inboxes = _run_round(plan, stream)
        assert "r0" not in inboxes
        assert len(inboxes["r1"]) == 3
        assert transport.fault_summary["crash_lost"] == 3

    def test_link_loss_for_in_flight_messages(self):
        plan = FaultPlan(topology_events=((1, "delete", "s0", "r0"),))
        stream = _staged_stream(n_edges=2, per_edge=3)
        transport, inboxes = _run_round(plan, stream)
        assert "r0" not in inboxes
        assert len(inboxes["r1"]) == 3
        assert transport.fault_summary["link_lost"] == 3

    def test_skip_rounds_refuses_to_cross_an_event(self):
        plan = FaultPlan(crashes=((0, 5, 9),))
        transport = FaultyTransport(LinkTransport(bandwidth=8), plan)
        with pytest.raises(RuntimeError, match="skip_rounds crossed a scheduled fault event"):
            transport.skip_rounds(10)
        # Skipping short of the event is fine and keeps the clocks aligned.
        transport.skip_rounds(4)
        assert transport.pending_traffic() == 0


class _RoundRecorder(NodeProgram):
    """Records every round the node is stepped in; never halts."""

    def __init__(self):
        self.stepped = []

    def on_start(self, node):
        node.broadcast(("tick", 0), bits=8)

    def on_round(self, node, round_no, inbox):
        self.stepped.append(round_no)
        if round_no < 30:
            node.broadcast(("tick", round_no), bits=8)


class TestCrashSemantics:
    @pytest.mark.parametrize("engine", ["dense", "event"])
    def test_crashed_node_naps_and_recovers(self, engine):
        graph = nx.path_graph(4)
        plan = FaultPlan(crashes=((2, 5, 11),))
        programs = {}

        def factory():
            program = _RoundRecorder()
            programs[len(programs)] = program
            return program

        network = CongestNetwork(graph, factory, bandwidth=64, engine=engine, faults=plan)
        network.run(max_rounds=35, stop_on_quiescence=False)
        crashed_program = next(
            p for nid, p in network.programs.items() if nid == 2
        )
        stepped = set(crashed_program.stepped)
        assert not stepped & set(range(5, 11)), "stepped while down"
        assert 11 in stepped, "recovery round must be stepped"
        assert 4 in stepped and 12 in stepped
        # Deliveries addressed to the napping node were discarded.
        assert network.transport.stats.crash_lost > 0

    def test_state_survives_the_nap(self):
        # The recorder keeps appending after recovery: state was retained,
        # not reset -- crash is a nap, not a reboot.
        graph = nx.path_graph(3)
        plan = FaultPlan(crashes=((1, 3, 7),))
        network = CongestNetwork(
            graph, _RoundRecorder, bandwidth=64, engine="event", faults=plan
        )
        network.run(max_rounds=20, stop_on_quiescence=False)
        stepped = network.programs[1].stepped
        assert stepped == sorted(stepped)
        assert min(stepped) < 3 and max(stepped) > 7


class TestTopologyDynamics:
    def test_events_update_nodes_and_graph(self):
        graph = nx.path_graph(4)
        plan = FaultPlan(
            topology_events=((3, "insert", 0, 3, 2.0), (5, "delete", 1, 2))
        )
        network = CongestNetwork(
            graph, _RoundRecorder, bandwidth=64, engine="event", faults=plan
        )
        network.run(max_rounds=10, stop_on_quiescence=False)
        assert network.graph.has_edge(0, 3)
        assert not network.graph.has_edge(1, 2)
        assert 3 in network.nodes[0].neighbors
        assert 2 not in network.nodes[1].neighbors
        assert network.transport.stats.topology_applied == 2
        # The caller's graph is untouched (copy-on-events semantics).
        assert not graph.has_edge(0, 3)

    def test_stale_send_to_deleted_link_is_lost_not_an_error(self):
        class StubbornSender(NodeProgram):
            """Node 1 keeps addressing node 2 even after the link dies."""

            def on_start(self, node):
                node.broadcast(("hi",), bits=8)

            def on_round(self, node, round_no, inbox):
                if node.id == 1 and round_no <= 8:
                    node.send(2, ("again", round_no), bits=8)

        graph = nx.path_graph(4)
        plan = FaultPlan(topology_events=((4, "delete", 1, 2),))
        network = CongestNetwork(
            graph, StubbornSender, bandwidth=64, engine="event", faults=plan
        )
        network.run(max_rounds=10, stop_on_quiescence=False)
        assert network.transport.stats.link_lost > 0

    def test_send_to_never_neighbor_still_raises(self):
        class WildSender(NodeProgram):
            def on_round(self, node, round_no, inbox):
                if node.id == 0:
                    node.send(3, ("nope",), bits=8)  # never an edge

        graph = nx.path_graph(4)
        plan = FaultPlan(crashes=((2, 2, 4),))
        network = CongestNetwork(
            graph, WildSender, bandwidth=64, engine="dense", faults=plan
        )
        with pytest.raises(ValueError, match="not a neighbor"):
            network.run(max_rounds=5, stop_on_quiescence=False)


def _assert_results_match(dense, other):
    assert other.rounds == dense.rounds
    assert other.total_messages == dense.total_messages
    assert other.total_bits == dense.total_bits
    assert other.halted == dense.halted
    assert other.max_edge_bits_per_round == dense.max_edge_bits_per_round
    assert other.per_round_bits == dense.per_round_bits
    assert other.fault_stats == dense.fault_stats
    assert set(other.outputs) == set(dense.outputs)
    for nid in dense.outputs:
        assert repr(other.outputs[nid]) == repr(dense.outputs[nid]), nid


class TestSkipAccountingUnderFaults:
    """The event/columnar skip-jump accounting must stay exact when crash
    recoveries and topology events force extra wake-ups: every engine's
    RunResult (including the per-round bit trace) matches the dense
    reference, which never skips at all."""

    @pytest.mark.parametrize("engine", ["event", "columnar"])
    def test_refreshing_bf_under_full_plan_matches_dense(self, engine):
        graph = _weighted(18, 2)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph,
            seed=11,
            drop_prob=0.1,
            dup_prob=0.05,
            reorder_prob=0.1,
            n_crashes=2,
            crash_length=6,
            n_edge_deletes=1,
            n_edge_inserts=1,
            window=(1, 25),
            protect=[source],
        )
        _, dense = run_refreshing_bellman_ford(
            graph, source, max_rounds=60, engine="dense", faults=plan
        )
        _, other = run_refreshing_bellman_ford(
            graph, source, max_rounds=60, engine=engine, faults=plan
        )
        _assert_results_match(dense, other)
        assert other.fault_stats is not None and other.fault_stats["drops"] > 0

    def test_quiet_crash_recovery_wakeups_are_not_skipped(self):
        # A reactive program goes quiet; the only activity left is a crash
        # recovery deep in the quiet stretch.  The event engine must land
        # exactly on the recovery round (the transport guard raises if a
        # skip leaps over it) and still agree with dense byte for byte.
        class OneShot(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.broadcast(("x",), bits=8)

            def on_round(self, node, round_no, inbox):
                pass

            def next_active_round(self, node, after_round):
                return None

        graph = nx.path_graph(5)
        plan = FaultPlan(crashes=((3, 40, 70),))
        dense = run_program(
            graph, OneShot, bandwidth=8, max_rounds=100, engine="dense", faults=plan
        )
        event = run_program(
            graph, OneShot, bandwidth=8, max_rounds=100, engine="event", faults=plan
        )
        _assert_results_match(dense, event)
        assert event.rounds == 100


class TestRecoveryCorrectness:
    def test_refreshing_bf_restabilizes_to_final_graph_distances(self):
        graph = random_connected_graph(16, extra_edge_prob=0.2, seed=6)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph,
            seed=4,
            drop_prob=0.15,
            n_crashes=2,
            crash_length=6,
            n_edge_inserts=1,
            window=(1, 20),
            protect=[source],
        )
        horizon = plan.last_fault_round() + 60
        distances, result = run_refreshing_bellman_ford(
            graph, source, weighted=False, max_rounds=horizon, faults=plan
        )
        expected = nx.single_source_shortest_path_length(plan.final_graph(graph), source)
        assert {n: int(d) for n, d in distances.items()} == dict(expected)
        assert result.fault_stats["drops"] > 0 or result.fault_stats["crash_lost"] > 0

    def test_boruvka_detect_and_restart_recovers_the_mst(self):
        graph = _weighted(16, 8)
        plan = FaultPlan.generate(graph, seed=3, drop_prob=0.1, window=(1, 25))
        edges, result = run_boruvka_mst(graph, bandwidth=64, faults=plan)
        expected = {
            frozenset(e) for e in nx.minimum_spanning_tree(graph).edges()
        }
        got = {frozenset(e) for e in edges}
        if not (result.halted and got == expected):
            # Detect-and-restart: past the fault window the network is
            # reliable again, so a clean re-run must succeed.
            edges, result = run_boruvka_mst(graph, bandwidth=64, seed=1)
            got = {frozenset(e) for e in edges}
        assert got == expected
        reference = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True)
        )
        assert abs(tree_weight(graph, [tuple(e) for e in got]) - reference) < 1e-9


class TestNetworkFaultApi:
    def test_fault_seed_requires_a_plan(self):
        with pytest.raises(ValueError, match="fault_seed requires a FaultPlan"):
            CongestNetwork(nx.path_graph(3), NodeProgram, bandwidth=8, fault_seed=7)

    def test_fault_seed_overrides_the_plan_seed(self):
        plan = FaultPlan(seed=0, drop_prob=0.3)
        network = CongestNetwork(
            nx.path_graph(3), NodeProgram, bandwidth=8, faults=plan, fault_seed=42
        )
        assert network.faults.seed == 42
        assert network.faults.drop_prob == 0.3

    def test_no_plan_has_no_fault_stats(self):
        class Silent(NodeProgram):
            def on_round(self, node, round_no, inbox):
                pass

        result = run_program(nx.path_graph(3), Silent, max_rounds=3)
        assert result.fault_stats is None
