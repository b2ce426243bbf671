"""The CONGEST(B) network façade over the layered engine stack.

Execution model (Appendix A.1): all nodes wake simultaneously; in each round
every node may place at most ``B`` bits on each incident directed edge;
messages arrive at the end of the round; local computation is free.

Messages larger than ``B`` bits are legal at the API level and are
transmitted over ``ceil(bits/B)`` consecutive rounds, arriving atomically --
this models the standard pipelining argument and keeps round counts honest.
In ``strict`` mode oversized sends raise instead, for algorithms that want to
certify they never exceed the per-round budget.

The implementation is split into three layers (see each module's docstring):

- :mod:`repro.congest.transport` -- per-edge bit accounting, chunking,
  strict-mode checks, metrics (:class:`LinkTransport`);
- :mod:`repro.congest.engine` -- pluggable round schedulers: the reference
  :class:`~repro.congest.engine.DenseEngine` (every node, every round), the
  default :class:`~repro.congest.engine.EventEngine` (active-node set,
  O(1) skips over quiet rounds) and
  :class:`~repro.congest.engine.ColumnarEngine` (the event clock over the
  struct-of-arrays :mod:`repro.congest.columnar` transport with batched
  min-edge reductions);
- :mod:`repro.congest.node` -- the program API, including the idleness
  hints (``next_active_round`` / phase-level ``idle_until``) the event
  engine exploits.

:class:`CongestNetwork` wires the three together; pick the engine with the
``engine="event"|"dense"|"columnar"|"auto"`` kwarg.  All engines produce
identical :class:`RunResult`\\ s for the same program -- ``dense`` is the
reference to cross-check against, ``event`` the default, ``columnar`` the
struct-of-arrays hot path for big message-heavy runs, and ``auto`` picks
dense for tiny graphs and columnar otherwise.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Hashable

import networkx as nx

from repro.congest.columnar import MinEdgeIndex
from repro.congest.engine import Engine, RunResult, get_engine
from repro.congest.faults import FaultPlan, FaultyTransport, apply_topology_event
from repro.congest.node import Node, NodeProgram
from repro.congest.topology import build_adjacency, invalidate_adjacency
from repro.congest.transport import BandwidthExceeded, LinkTransport
from repro.obs.trace import Tracer, current_tracer

__all__ = ["BandwidthExceeded", "CongestNetwork", "RunResult", "run_program"]


class CongestNetwork:
    """A CONGEST(B) network over an undirected connected graph."""

    def __init__(
        self,
        graph: nx.Graph,
        program_factory: Callable[[], NodeProgram],
        bandwidth: int = 32,
        strict: bool = False,
        seed: int | None = None,
        inputs: dict[Hashable, Any] | None = None,
        weight: str = "weight",
        engine: str | Engine = "event",
        record_messages: bool = False,
        trace: Tracer | None = None,
        faults: FaultPlan | None = None,
        fault_seed: int | None = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("network must have at least one node")
        if bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")
        if fault_seed is not None:
            if faults is None:
                raise ValueError("fault_seed requires a FaultPlan (faults=...)")
            faults = faults.with_seed(fault_seed)
        if faults is not None and faults.topology_events:
            # The plan will mutate edges mid-run: work on a private copy so
            # the caller's graph (and its cached adjacency) stay pristine.
            graph = graph.copy()
        self.graph = graph
        self.faults = faults
        self._fault_events_applied = 0
        self.bandwidth = bandwidth
        self.strict = strict
        self.weight_key = weight
        # ``trace=None`` means "whatever tracer is ambient" (the null tracer
        # unless a ``repro.obs.use_tracer`` block is active), so sweeps can
        # trace scenario-internal networks without new plumbing.
        self.trace = trace if trace is not None else current_tracer()
        self._rng = random.Random(seed)
        self.n_nodes = graph.number_of_nodes()
        # Engine first: it declares the transport layout it runs against
        # (LinkTransport by default, the struct-of-arrays ColumnarTransport
        # for the columnar engine).
        self.engine = get_engine(engine, graph=graph)
        self.transport = self.engine.transport_class(
            bandwidth, strict=strict, record_messages=record_messages
        )
        if faults is not None:
            # The fault seam sits between the engine and the transport it
            # asked for; even an empty plan goes through the wrapper so the
            # equivalence suite can assert the wrapper itself is transparent.
            self.transport = FaultyTransport(self.transport, faults, trace=self.trace)
        if getattr(type(self.transport), "wants_trace", False):
            self.transport.trace = self.trace
        self._min_edge_index: MinEdgeIndex | None = None
        if faults is not None and self.trace.enabled:
            for span in faults.crashes:
                self.trace.event(
                    "fault_crash_span", node=repr(span.node), start=span.start, stop=span.stop
                )

        # Canonical node order + per-node neighbour tuples, sorted by repr
        # and cached per graph (repeated builds over one instance reuse
        # them; see topology.build_adjacency).
        node_order, adjacency = build_adjacency(graph)
        self.nodes: dict[Hashable, Node] = {}
        self.programs: dict[Hashable, NodeProgram] = {}
        for node_id in node_order:
            node = Node(node_id, adjacency[node_id], self, random.Random(self._rng.random()))
            if inputs is not None and node_id in inputs:
                node.input = inputs[node_id]
            self.nodes[node_id] = node
            self.programs[node_id] = program_factory()

        self.current_round = 0

    def edge_weight(self, u: Hashable, v: Hashable) -> float:
        return self.graph.edges[u, v].get(self.weight_key, 1.0)

    def min_edge_index(self) -> MinEdgeIndex:
        """The batched fragment-minimum service: incident edges pre-sorted
        by canonical edge key, built lazily once per network.  Engines opt
        in via ``uses_min_edge_index`` (see the MST programs)."""
        index = self._min_edge_index
        if index is None:
            index = self._min_edge_index = MinEdgeIndex(self.graph, self.weight_key)
        return index

    # -- metrics (owned by the transport) --------------------------------------

    @property
    def total_messages(self) -> int:
        return self.transport.total_messages

    @property
    def total_bits(self) -> int:
        return self.transport.total_bits

    @property
    def max_edge_bits_per_round(self) -> int:
        return self.transport.max_edge_bits_per_round

    @property
    def per_round_bits(self) -> list[int]:
        return self.transport.per_round_bits

    @property
    def message_log(self) -> list[tuple[int, Hashable, Hashable, int]]:
        """(round_sent, sender, receiver, bits) per message; requires
        ``record_messages=True`` (off by default -- it grows unboundedly)."""
        return self.transport.message_log

    @property
    def record_messages(self) -> bool:
        return self.transport.record_messages

    # -- plumbing used by Node.send ------------------------------------------

    def _enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int) -> None:
        self.transport.enqueue(sender, receiver, payload, bits, self.current_round)

    def _enqueue_many(self, sender: Hashable, receivers: list[Hashable], payload: Any, bits: int) -> None:
        self.transport.enqueue_many(sender, receivers, payload, bits, self.current_round)

    def _drop_stale_send(self, sender: Hashable, receiver: Hashable) -> bool:
        """Whether a send to a non-neighbour should be silently lost.

        True only under a fault plan whose timeline says the link was
        deleted -- the stale-reference case (a program still addressing a
        BFS-tree child after churn removed the edge).  Everything else
        stays a programming error raised by the node handle.
        """
        if self.faults is None:
            return False
        return self.transport.lost_link_send(sender, receiver, self.current_round)

    # -- fault dynamism --------------------------------------------------------

    def apply_topology_events(self, round_no: int) -> None:
        """Apply every scheduled edge event with ``event.round <= round_no``.

        Engines call this at the start of each executed round (the event
        engines never skip past a scheduled round, so catch-up is a safety
        net, not the normal path).  Applying an event splices the endpoints'
        neighbour tuples in repr-sorted order, invalidates the graph's
        cached adjacency (a paired insert+delete keeps the edge count
        unchanged, defeating the cache's size signature), and drops the
        lazily built min-edge index so fragment-minimum queries see the new
        topology.
        """
        faults = self.faults
        if faults is None:
            return
        events = faults.topology_events
        i = self._fault_events_applied
        mutated = False
        while i < len(events) and events[i].round <= round_no:
            event = events[i]
            i += 1
            if not apply_topology_event(self.graph, event, weight=self.weight_key):
                continue
            mutated = True
            if event.action == "insert":
                self.nodes[event.u]._insert_neighbor(event.v)
                self.nodes[event.v]._insert_neighbor(event.u)
            else:
                self.nodes[event.u]._remove_neighbor(event.v)
                self.nodes[event.v]._remove_neighbor(event.u)
            stats = getattr(self.transport, "stats", None)
            if stats is not None:
                stats.topology_applied += 1
            if self.trace.enabled:
                self.trace.event(
                    "fault_topology",
                    round=round_no,
                    action=event.action,
                    u=repr(event.u),
                    v=repr(event.v),
                )
        self._fault_events_applied = i
        if mutated:
            invalidate_adjacency(self.graph)
            self._min_edge_index = None

    # -- execution -------------------------------------------------------------

    def run(self, max_rounds: int = 100_000, stop_on_quiescence: bool = False) -> RunResult:
        """Run until every node halts (or ``max_rounds`` elapse).

        With ``stop_on_quiescence`` the run also ends once a round passes
        with no deliveries, no sends and no traffic in flight -- the
        termination model for self-stabilising programs (e.g. Bellman-Ford)
        whose nodes cannot detect termination locally.
        """
        return self.engine.run(self, max_rounds=max_rounds, stop_on_quiescence=stop_on_quiescence)

    def pending_traffic(self) -> int:
        """Bits still in flight (useful for quiescence assertions in tests)."""
        return self.transport.pending_traffic()


def run_program(
    graph: nx.Graph,
    program_factory: Callable[[], NodeProgram],
    bandwidth: int = 32,
    inputs: dict[Hashable, Any] | None = None,
    seed: int | None = None,
    max_rounds: int = 100_000,
    strict: bool = False,
    engine: str | Engine = "event",
    record_messages: bool = False,
    trace: Tracer | None = None,
    faults: FaultPlan | None = None,
    fault_seed: int | None = None,
) -> RunResult:
    """Convenience wrapper: build a network, run it, return the result."""
    network = CongestNetwork(
        graph,
        program_factory,
        bandwidth=bandwidth,
        strict=strict,
        seed=seed,
        inputs=inputs,
        engine=engine,
        record_messages=record_messages,
        trace=trace,
        faults=faults,
        fault_seed=fault_seed,
    )
    return network.run(max_rounds=max_rounds)
