"""Columnar transport unit tests: the struct-of-arrays hot path in isolation.

The equivalence suite (``test_engine_equivalence.py``) pins whole runs to
the CONGEST spec; these tests drive :class:`ColumnarTransport` directly,
in lockstep with the spec's own per-edge FIFO links
(``tests/congest_spec.py``) on randomised edge workloads, check the
flush grouping (:func:`group_round`) and the edge clock's same-round
ordering, pin the telemetry events and strict-mode error texts, exercise
the numpy-absent import guard, and check that :class:`MinEdgeIndex`
reproduces the per-neighbour minimum scans key for key.
"""

import os
import random
import subprocess
import sys
import textwrap
from array import array

import networkx as nx
import pytest

from repro.algorithms.mst import _min_edge_index, edge_key
from repro.congest.columnar import BandwidthExceeded, ColumnarTransport, MinEdgeIndex, group_round
from repro.congest.network import CongestNetwork, run_program
from repro.congest.node import NodeProgram
from repro.graphs.generators import random_connected_graph
from repro.obs.trace import CollectingTracer
from tests import congest_spec
from tests.congest_spec import SpecNetwork


class _SpecLinks:
    """The spec's links driven like a transport: ``SpecNetwork``'s own
    send, flush and per-round advance over a complete graph."""

    def __init__(self, bandwidth, nodes=10, **kwargs):
        self.net = SpecNetwork(nx.complete_graph(nodes), NodeProgram, bandwidth=bandwidth, **kwargs)
        self.clock = 0

    def enqueue(self, sender, receiver, payload, bits, round_no):
        self.net.round = round_no
        self.net.offer(sender, (receiver,), payload, bits)

    def flush(self):
        self.net.flush()

    def deliver_round(self):
        self.clock += 1
        return self.net.deliver(self.clock)

    def rounds_until_delivery(self):
        """Each link head gets the full budget every round, so it completes
        in ``ceil(remaining / B)`` rounds; ``None`` when nothing is in flight."""
        bw = self.net.bandwidth
        return min((-(-queue[0][0] // bw) for queue in self.net.links.values()), default=None)

    def __getattr__(self, name):
        return getattr(self.net, name)


def _drain(transport):
    """One round on either side, normalised for comparison."""
    inboxes = transport.deliver_round()
    return {
        receiver: [(m.sender, m.payload, m.bits) for m in msgs]
        for receiver, msgs in inboxes.items()
    }


def _random_workload(seed, rounds=40, nodes=6, bandwidth=16):
    """Drive the spec's links and the columnar transport through an
    identical random send schedule and yield (spec, columnar) after every
    round for lockstep comparison."""
    rng = random.Random(seed)
    spec = _SpecLinks(bandwidth, nodes=nodes, record_messages=True)
    cols = ColumnarTransport(bandwidth, record_messages=True)
    for round_no in range(1, rounds + 1):
        for _ in range(rng.randrange(0, 8)):
            sender, receiver = rng.sample(range(nodes), 2)
            bits = rng.randrange(1, 3 * bandwidth)
            payload = ("p", round_no, sender, receiver, bits)
            spec.enqueue(sender, receiver, payload, bits, round_no)
            cols.enqueue(sender, receiver, payload, bits, round_no)
        assert cols.has_outgoing() == bool(spec.staged)
        spec.flush()
        cols.flush()
        yield round_no, spec, cols


class TestTransportLockstep:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_deliveries_and_metrics_match_the_spec(self, seed):
        for round_no, spec, cols in _random_workload(seed):
            assert cols.rounds_until_delivery() == spec.rounds_until_delivery()
            assert cols.pending_traffic() == spec.pending_traffic()
            assert _drain(cols) == _drain(spec), round_no
            assert cols.per_round_bits == spec.per_round_bits
            assert cols.max_edge_bits_per_round == spec.max_edge_bits
        assert cols.total_messages == spec.total_messages
        assert cols.total_bits == spec.total_bits
        assert cols.message_log == spec.message_log

    def test_drain_then_revive_keeps_the_spec_delivery_order(self):
        # An edge that drains and is re-created must complete *after* edges
        # created in between -- the spec's links in the order they became
        # busy, reproduced columnar-side by the edge activation sequence.
        bw = 8
        spec = _SpecLinks(bw)
        cols = ColumnarTransport(bw)
        for t in (spec, cols):
            t.enqueue(0, 1, "a", bw, 1)
            t.flush()
        assert _drain(cols) == _drain(spec)  # edge (0, 1) drains
        for t in (spec, cols):
            t.enqueue(2, 1, "b", bw, 2)  # new edge while (0, 1) is dead
            t.enqueue(0, 1, "c", bw, 2)  # (0, 1) revived -- now *after* (2, 1)
            t.flush()
        assert _drain(cols) == _drain(spec)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_skip_rounds_matches_the_spec(self, seed):
        rng = random.Random(seed)
        bw = 16
        spec = _SpecLinks(bw)
        cols = ColumnarTransport(bw)
        for round_no in range(1, 12):
            for _ in range(rng.randrange(1, 4)):
                sender, receiver = rng.sample(range(5), 2)
                bits = rng.randrange(bw, 20 * bw)
                spec.enqueue(sender, receiver, ("p", round_no), bits, round_no)
                cols.enqueue(sender, receiver, ("p", round_no), bits, round_no)
            spec.flush()
            cols.flush()
            gap = cols.rounds_until_delivery()
            if gap is not None and gap > 1:
                # A skip is k quiet rounds of the spec's per-round advance:
                # nothing delivered, the same bits moved, round by round.
                skip = rng.randrange(1, gap)
                reference = [_drain(spec) for _ in range(skip)]
                assert reference == [{}] * skip
                assert cols.skip_rounds(skip) == sum(spec.per_round_bits[-skip:])
                assert cols.per_round_bits == spec.per_round_bits
                assert cols.max_edge_bits_per_round == spec.max_edge_bits
            assert _drain(cols) == _drain(spec)
            assert cols.per_round_bits == spec.per_round_bits
            assert cols.pending_traffic() == spec.pending_traffic()

    def test_skip_rounds_crossing_a_delivery_raises(self):
        cols = ColumnarTransport(8)
        cols.enqueue(0, 1, "x", 24, 1)  # 3 rounds to deliver
        cols.flush()
        assert cols.rounds_until_delivery() == 3
        with pytest.raises(RuntimeError, match="crossed a delivery"):
            cols.skip_rounds(3)
        assert cols.skip_rounds(2) == 16
        assert cols.rounds_until_delivery() == 1

    def test_quiet_skip_with_no_traffic(self):
        cols = ColumnarTransport(8)
        assert cols.skip_rounds(4) == 0
        assert cols.per_round_bits == [0, 0, 0, 0]
        assert cols.rounds_until_delivery() is None

    def test_same_round_completions_pop_in_activation_order(self):
        # Edge ids follow first-ever send (senders 9, 2, 5); the second
        # round re-activates the edges in the opposite order, so a clock
        # ordered by edge id would deliver 9, 2, 5 -- the spec (and the
        # activation sequence) says 5, 2, 9.
        bw = 8
        spec = _SpecLinks(bw)
        cols = ColumnarTransport(bw)
        for t in (spec, cols):
            for sender in (9, 2, 5):
                t.enqueue(sender, 0, ("a", sender), bw, 1)
            t.flush()
        assert _drain(cols) == _drain(spec)
        for t in (spec, cols):
            for sender in (5, 2, 9):
                t.enqueue(sender, 0, ("b", sender), 2 * bw, 2)
            t.flush()
        assert cols.rounds_until_delivery() == spec.rounds_until_delivery() == 2
        assert _drain(cols) == _drain(spec) == {}
        delivered = _drain(cols)
        assert delivered == _drain(spec)
        assert [sender for sender, _, _ in delivered[0]] == [5, 2, 9]
        assert cols.rounds_until_delivery() is None

    def test_live_edges_tracks_queue_lifecycle(self):
        cols = ColumnarTransport(8)
        cols.enqueue(0, 1, "a", 8, 1)
        cols.enqueue(1, 0, "b", 16, 1)
        cols.flush()
        assert cols.live_edges == 2
        cols.deliver_round()  # (0, 1) drains, (1, 0) still has 8 bits
        assert cols.live_edges == 1
        cols.deliver_round()
        assert cols.live_edges == 0


class TestStrictMode:
    def test_oversized_message_text_matches_the_spec(self):
        spec = _SpecLinks(8, strict=True)
        cols = ColumnarTransport(8, strict=True)
        errors = {}
        for name, transport, error in (
            ("spec", spec, congest_spec.BandwidthExceeded),
            ("cols", cols, BandwidthExceeded),
        ):
            with pytest.raises(error) as info:
                transport.enqueue(0, 1, "big", 9, 1)
            errors[name] = str(info.value)
        assert errors["cols"] == errors["spec"] == "message of 9 bits exceeds B=8 on edge 0->1"

    def test_per_edge_overflow_text_matches_and_commits_nothing(self):
        spec = _SpecLinks(8, strict=True)
        cols = ColumnarTransport(8, strict=True)
        errors = {}
        for name, transport, error in (
            ("spec", spec, congest_spec.BandwidthExceeded),
            ("cols", cols, BandwidthExceeded),
        ):
            transport.enqueue(0, 1, "a", 5, 1)
            transport.enqueue(0, 1, "b", 5, 1)
            with pytest.raises(error) as info:
                transport.flush()
            errors[name] = str(info.value)
        assert errors["cols"] == errors["spec"]
        # The check raises before the commit: nothing is in flight.
        assert cols.pending_traffic() == spec.pending_traffic() == 0
        assert cols.live_edges == 0



def _check_group_invariants(eids, bits, bandwidth, group):
    """Properties any correct grouping must satisfy."""
    n = len(eids)
    order = list(group.order)
    assert sorted(order) == list(range(n))
    # first-appearance edge order, FIFO within each edge
    seen: dict[int, int] = {}
    for i in range(n):
        seen.setdefault(eids[i], len(seen))
    by_first = sorted(set(eids), key=lambda e: seen[e])
    assert list(group.edge_order) == by_first
    sums: dict[int, int] = {}
    for eid, b in zip(eids, bits):
        sums[eid] = sums.get(eid, 0) + b
    assert list(group.edge_sums) == [sums[e] for e in by_first]
    assert group.total_bits == sum(bits)
    assert group.max_sum == (max(sums.values()) if sums else 0)
    assert group.all_fit == (group.max_sum <= bandwidth)
    if group.edge_counts is None:
        assert order == list(range(n))
    else:
        assert sum(group.edge_counts) == n
        # each per-edge run of `order` is that edge's staging rows, FIFO
        pos = 0
        for eid, count in zip(by_first, group.edge_counts):
            run = order[pos : pos + count]
            assert run == [i for i in range(n) if eids[i] == eid]
            pos += count


class TestGroupRound:
    SHAPES = [
        (0, 1),  # empty flush
        (1, 1),
        (2, 1),  # both same-edge and distinct-edge cases arise over seeds
        (2, 2),
        (7, 3),
        (40, 5),
        (40, 40),
        (130, 9),
        (130, 130),
        (400, 23),
        (257, 1),  # one edge repeated: k == 1
    ]

    @pytest.mark.parametrize("n,n_edges", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants(self, n, n_edges, seed):
        rng = random.Random(seed * 1000 + n)
        eids = array("q", (rng.randrange(n_edges) for _ in range(n)))
        bits = array("q", (rng.randrange(1, 200) for _ in range(n)))
        for bandwidth in (1, 128, 10**9):
            group = group_round(eids, bits, bandwidth)
            _check_group_invariants(list(eids), list(bits), bandwidth, group)


class TestNumpyPolicy:
    def test_congest_imports_without_numpy(self):
        """The acceptance guard: with numpy unimportable, ``repro.congest``
        and the CONGEST spec import, and an event run still matches the
        spec.  A fresh interpreter, so no already-imported module can mask
        a numpy import."""
        script = textwrap.dedent(
            """
            import sys
            sys.modules["numpy"] = None  # import numpy -> ImportError
            import repro.congest
            from repro.algorithms.mst import run_boruvka_mst
            from repro.graphs.generators import random_connected_graph
            from tests.spec_harness import assert_same_run, on_both

            graph = random_connected_graph(10, seed=3)
            for u, v in graph.edges():
                graph.edges[u, v]["weight"] = float(u * 31 + v + 1)
            (edges, event), (spec_edges, spec) = on_both(
                lambda: run_boruvka_mst(graph, bandwidth=64, seed=0)
            )
            assert edges == spec_edges
            assert_same_run(spec, event)
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestTelemetry:
    def test_flush_emits_columnar_batch_events(self):
        tracer = CollectingTracer()
        cols = ColumnarTransport(8)
        cols.trace = tracer
        cols.enqueue(0, 1, "a", 4, 1)
        cols.enqueue(1, 2, "b", 4, 1)
        cols.flush()
        cols.flush()  # empty flush: no event
        batches = [e for e in tracer.by_kind("event") if e["name"] == "columnar_batch"]
        assert len(batches) == 1
        assert batches[0]["staged"] == 2
        assert batches[0]["live_edges"] == 2

    def test_engine_run_emits_columnar_summary(self):
        class Chatter(NodeProgram):
            def on_start(self, node):
                node.broadcast(("hi",), bits=8)

            def on_round(self, node, round_no, inbox):
                if round_no >= 3:
                    node.halt(round_no)

        tracer = CollectingTracer()
        graph = nx.path_graph(5)
        run_program(graph, Chatter, bandwidth=8, engine="event", trace=tracer)
        summaries = [e for e in tracer.by_kind("event") if e["name"] == "columnar_summary"]
        assert len(summaries) == 1
        assert summaries[0]["flush_batches"] >= 1
        assert summaries[0]["max_batch"] >= 1
        assert summaries[0]["peak_live_edges"] >= 1
        batches = [e for e in tracer.by_kind("event") if e["name"] == "columnar_batch"]
        assert len(batches) == summaries[0]["flush_batches"]

    def test_network_binds_tracer_to_columnar_transport(self):
        tracer = CollectingTracer()
        graph = nx.path_graph(3)
        network = CongestNetwork(graph, NodeProgram, engine="event", trace=tracer)
        assert network.transport.trace is tracer


class TestMinEdgeIndex:
    def _weighted(self, n, seed):
        graph = random_connected_graph(n, extra_edge_prob=0.3, seed=seed)
        rng = random.Random(seed + 100)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = float(rng.randrange(1, 50))
        return graph

    @pytest.mark.parametrize("seed", [0, 6])
    def test_entries_use_the_canonical_edge_key(self, seed):
        graph = self._weighted(12, seed)
        index = MinEdgeIndex(graph)
        for u in graph.nodes():
            entries = index._incident[u]
            assert [e[0] for e in entries] == sorted(e[0] for e in entries)
            for key, v, v_repr in entries:
                assert key == edge_key(graph.edges[u, v]["weight"], u, v)
                assert v_repr == repr(v)

    @pytest.mark.parametrize("seed", [1, 9])
    def test_min_outgoing_matches_brute_force(self, seed):
        graph = self._weighted(14, seed)
        index = MinEdgeIndex(graph)
        rng = random.Random(seed)
        label_of = {repr(v): rng.randrange(3) for v in graph.nodes()}
        for u in graph.nodes():
            my_label = label_of[repr(u)]
            expected = min(
                (
                    (edge_key(graph.edges[u, v]["weight"], u, v), u, v)
                    for v in graph.neighbors(u)
                    if label_of[repr(v)] != my_label
                ),
                default=None,
            )
            assert index.min_outgoing(u, label_of, my_label) == expected

    @pytest.mark.parametrize("seed", [2, 11])
    def test_min_outgoing_by_repr_matches_brute_force(self, seed):
        graph = self._weighted(14, seed)
        index = MinEdgeIndex(graph)
        rng = random.Random(seed + 1)
        label_of = {repr(v): rng.randrange(3) for v in graph.nodes()}
        for u in graph.nodes():
            my_label = label_of[repr(u)]
            exclude = {repr(v) for v in graph.neighbors(u) if rng.random() < 0.3}
            expected = min(
                (
                    (edge_key(graph.edges[u, v]["weight"], u, v), v, label_of[repr(v)])
                    for v in graph.neighbors(u)
                    if repr(label_of[repr(v)]) != repr(my_label) and repr(v) not in exclude
                ),
                default=None,
            )
            assert index.min_outgoing_by_repr(u, label_of, my_label, exclude) == expected

    def test_network_caches_one_index(self):
        graph = self._weighted(8, 4)
        network = CongestNetwork(graph, NodeProgram, engine="event")
        assert network.min_edge_index() is network.min_edge_index()

    def test_index_is_used_whenever_the_network_offers_one(self):
        graph = self._weighted(8, 4)
        network = CongestNetwork(graph, NodeProgram)
        node = network.nodes[0]
        assert _min_edge_index(node) is network.min_edge_index()
        # A marked subnetwork keeps the explicit filter path.
        node.input = {"m_neighbors": frozenset()}
        assert _min_edge_index(node) is None
        # The spec's node handle offers no index: the per-neighbour scan.
        assert _min_edge_index(SpecNetwork(graph, NodeProgram).nodes[0]) is None
