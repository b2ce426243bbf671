"""Columnar transport unit tests: the struct-of-arrays hot path in isolation.

The cross-engine suite (``test_engine_equivalence.py``) pins whole runs to
the dense reference; these tests drive :class:`ColumnarTransport` directly
against :class:`LinkTransport` on randomised edge workloads, check the
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

from repro.algorithms.mst import edge_key
from repro.congest.columnar import ColumnarTransport, MinEdgeIndex, group_round
from repro.congest.engine import get_engine
from repro.congest.network import CongestNetwork, run_program
from repro.congest.node import NodeProgram
from repro.congest.transport import BandwidthExceeded, LinkTransport
from repro.graphs.generators import random_connected_graph
from repro.obs.trace import CollectingTracer


def _drain(transport):
    """One round on either transport, normalised for comparison."""
    inboxes = transport.deliver_round()
    return {
        receiver: [(m.sender, m.payload, m.bits) for m in msgs]
        for receiver, msgs in inboxes.items()
    }


def _rounds_until_delivery(base):
    """The reference gap for a :class:`LinkTransport`: each link head gets
    the full budget every round, so it completes in ``ceil(remaining / B)``
    rounds; ``None`` when nothing is in flight."""
    bw = base.bandwidth
    return min((-(-queue[0].remaining // bw) for queue in base._links.values()), default=None)


def _random_workload(seed, rounds=40, nodes=6, bandwidth=16):
    """Drive both transports through an identical random send schedule and
    yield (baseline, columnar) after every round for lockstep comparison."""
    rng = random.Random(seed)
    base = LinkTransport(bandwidth, record_messages=True)
    cols = ColumnarTransport(bandwidth, record_messages=True)
    for round_no in range(1, rounds + 1):
        for _ in range(rng.randrange(0, 8)):
            sender, receiver = rng.sample(range(nodes), 2)
            bits = rng.randrange(1, 3 * bandwidth)
            payload = ("p", round_no, sender, receiver, bits)
            base.enqueue(sender, receiver, payload, bits, round_no)
            cols.enqueue(sender, receiver, payload, bits, round_no)
        assert cols.has_outgoing() == base.has_outgoing()
        base.flush()
        cols.flush()
        yield round_no, base, cols


class TestTransportLockstep:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_deliveries_and_metrics_match_baseline(self, seed):
        for round_no, base, cols in _random_workload(seed):
            assert cols.rounds_until_delivery() == _rounds_until_delivery(base)
            assert cols.pending_traffic() == base.pending_traffic()
            assert _drain(cols) == _drain(base), round_no
            assert cols.per_round_bits == base.per_round_bits
            assert cols.max_edge_bits_per_round == base.max_edge_bits_per_round
        assert cols.total_messages == base.total_messages
        assert cols.total_bits == base.total_bits
        assert cols.message_log == base.message_log

    def test_drain_then_revive_keeps_baseline_delivery_order(self):
        # An edge that drains and is re-created must complete *after* edges
        # created in between -- the baseline's insertion-ordered link dict
        # behaviour, reproduced columnar-side by the edge creation sequence.
        bw = 8
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        for t in (base, cols):
            t.enqueue(0, 1, "a", bw, 1)
            t.flush()
        assert _drain(cols) == _drain(base)  # edge (0, 1) drains
        for t in (base, cols):
            t.enqueue(2, 1, "b", bw, 2)  # new edge while (0, 1) is dead
            t.enqueue(0, 1, "c", bw, 2)  # (0, 1) revived -- now *after* (2, 1)
            t.flush()
        assert _drain(cols) == _drain(base)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_skip_rounds_matches_baseline(self, seed):
        rng = random.Random(seed)
        bw = 16
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        for round_no in range(1, 12):
            for _ in range(rng.randrange(1, 4)):
                sender, receiver = rng.sample(range(5), 2)
                bits = rng.randrange(bw, 20 * bw)
                base.enqueue(sender, receiver, ("p", round_no), bits, round_no)
                cols.enqueue(sender, receiver, ("p", round_no), bits, round_no)
            base.flush()
            cols.flush()
            gap = cols.rounds_until_delivery()
            if gap is not None and gap > 1:
                # A skip is k quiet rounds of the reference per-round path:
                # nothing delivered, the same bits moved, round by round.
                skip = rng.randrange(1, gap)
                reference = [_drain(base) for _ in range(skip)]
                assert reference == [{}] * skip
                assert cols.skip_rounds(skip) == sum(base.per_round_bits[-skip:])
                assert cols.per_round_bits == base.per_round_bits
                assert cols.max_edge_bits_per_round == base.max_edge_bits_per_round
            assert _drain(cols) == _drain(base)
            assert cols.per_round_bits == base.per_round_bits
            assert cols.pending_traffic() == base.pending_traffic()

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
        # ordered by edge id would deliver 9, 2, 5 -- the baseline (and the
        # activation sequence) says 5, 2, 9.
        bw = 8
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        for t in (base, cols):
            for sender in (9, 2, 5):
                t.enqueue(sender, 0, ("a", sender), bw, 1)
            t.flush()
        assert _drain(cols) == _drain(base)
        for t in (base, cols):
            for sender in (5, 2, 9):
                t.enqueue(sender, 0, ("b", sender), 2 * bw, 2)
            t.flush()
        assert cols.rounds_until_delivery() == _rounds_until_delivery(base) == 2
        assert _drain(cols) == _drain(base) == {}
        delivered = _drain(cols)
        assert delivered == _drain(base)
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
    def test_oversized_message_text_matches_baseline(self):
        base = LinkTransport(8, strict=True)
        cols = ColumnarTransport(8, strict=True)
        errors = {}
        for name, transport in (("base", base), ("cols", cols)):
            with pytest.raises(BandwidthExceeded) as info:
                transport.enqueue(0, 1, "big", 9, 1)
            errors[name] = str(info.value)
        assert errors["cols"] == errors["base"]

    def test_per_edge_overflow_text_matches_and_commits_nothing(self):
        base = LinkTransport(8, strict=True)
        cols = ColumnarTransport(8, strict=True)
        errors = {}
        for name, transport in (("base", base), ("cols", cols)):
            transport.enqueue(0, 1, "a", 5, 1)
            transport.enqueue(0, 1, "b", 5, 1)
            with pytest.raises(BandwidthExceeded) as info:
                transport.flush()
            errors[name] = str(info.value)
        assert errors["cols"] == errors["base"]
        # The check raises before the commit: nothing is in flight.
        assert cols.pending_traffic() == base.pending_traffic() == 0
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
        imports and an event run still matches the dense reference.  A
        fresh interpreter, so no already-imported module can mask a numpy
        import."""
        script = textwrap.dedent(
            """
            import sys
            sys.modules["numpy"] = None  # import numpy -> ImportError
            import repro.congest
            from repro.algorithms.mst import run_boruvka_mst
            from repro.graphs.generators import random_connected_graph

            graph = random_connected_graph(10, seed=3)
            for u, v in graph.edges():
                graph.edges[u, v]["weight"] = float(u * 31 + v + 1)
            edges_dense, dense = run_boruvka_mst(graph, bandwidth=64, seed=0, engine="dense")
            edges_cols, cols = run_boruvka_mst(graph, bandwidth=64, seed=0, engine="event")
            assert edges_cols == edges_dense
            assert (cols.rounds, cols.total_bits, cols.per_round_bits) == (
                dense.rounds, dense.total_bits, dense.per_round_bits
            )
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
        reference = CongestNetwork(graph, NodeProgram, engine="dense", trace=tracer)
        assert not hasattr(reference.transport, "trace")


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

    def test_opt_in_flag_per_engine(self):
        assert get_engine("event").uses_min_edge_index
        assert not get_engine("dense").uses_min_edge_index
