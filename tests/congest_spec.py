"""A literal CONGEST(B) spec: the reference the event engine is checked against.

Synchronous CONGEST(B) as Section 2.1 states it, written out plainly.  Every
round, every live node that is not crashed is stepped with the messages that
completed on its incoming links.  Each directed link moves at most ``B`` bits
per round, first in first out; a message of more than ``B`` bits occupies
its link for ``ceil(bits / B)`` rounds and arrives whole.  No round is
skipped and no node is left out for being idle, so idleness hints are never
consulted: a hint that skips a round that mattered shows up as a divergence.

The spec shares no code with the engine stack it judges.  From ``repro`` it
imports only the payload types and ``bit_size``, ``RunResult``, and
``FaultPlan``, of which it reads the fields and calls only the pure decision
predicates (``drop``, ``duplicate``, ``reorder``, ``crashed``,
``edge_down``).  ``tests/test_congest_spec.py`` checks this.  It runs the
same ``NodeProgram`` objects through its own node handle.

The conventions a run's observable results depend on, beyond the model:

- nodes are stepped in ``repr`` order, and each node's neighbours are kept
  in ``repr`` order (broadcasts go out in that order);
- node ``i`` in that order draws its private RNG seed as the ``i``-th
  ``random()`` of ``random.Random(seed)``;
- messages completing in the same round reach a receiver in the order their
  links became busy (a link that drains and fills again goes last);
- the sender pays for every send, so dropped messages count in
  ``total_messages``/``total_bits`` and the message log, duplicates do not;
  the wire-level ``per_round_bits`` and ``max_edge_bits_per_round`` see the
  faulted stream.

:class:`SpecNetwork` takes ``CongestNetwork``'s constructor arguments (the
engine and tracer are accepted and ignored), so the algorithm runners can be
pointed at it (``tests/spec_harness.py``).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace

from repro.congest import RunResult
from repro.congest.faults import FaultPlan
from repro.congest.message import Received, bit_size

#: The keys of ``RunResult.fault_stats``.
FAULT_COUNTERS = (
    "drops duplicates reorder_swaps max_reorder_depth crash_lost link_lost "
    "faulted_flushes topology_applied"
).split()


class BandwidthExceeded(RuntimeError):
    """Strict mode: a message, or one round's load on a link, exceeds B."""


def _by_repr(ids) -> tuple:
    return tuple(sorted(ids, key=repr))


class SpecNode:
    """What a node knows and does: its id, neighbours, input, private
    randomness and the model size parameters; it sends on its links."""

    def __init__(self, net: "SpecNetwork", node_id, neighbors: tuple, rng: random.Random):
        self._net = net
        self.id = node_id
        self.neighbors = neighbors
        self.input = None
        self.rng = rng
        self.output = None
        self.halted = False
        self.n_nodes = net.n_nodes
        self.bandwidth = net.bandwidth

    def edge_weight(self, neighbor) -> float:
        return self._net.weights[self.id, neighbor]

    def _neighbor_set(self) -> set:
        return set(self.neighbors)

    def send(self, neighbor, payload, bits: int | None = None) -> None:
        if self.halted:
            raise RuntimeError(f"halted node {self.id!r} cannot send")
        if neighbor not in self.neighbors:
            if self._net.stale_send_lost(self.id, neighbor):
                return
            raise ValueError(f"{neighbor!r} is not a neighbor of {self.id!r}")
        self._net.offer(self.id, (neighbor,), payload, bits)

    def broadcast(self, payload, bits: int | None = None) -> None:
        if self.halted:
            raise RuntimeError(f"halted node {self.id!r} cannot send")
        if self.neighbors:
            self._net.offer(self.id, self.neighbors, payload, bits)

    def halt(self, output=None) -> None:
        self.output = output
        self.halted = True


class SpecNetwork:
    """One CONGEST(B) execution over ``graph``, stepped round by round."""

    def __init__(self, graph, program_factory, bandwidth=32, strict=False, seed=None,
                 inputs=None, weight="weight", engine=None, record_messages=False,
                 trace=None, faults: FaultPlan | None = None, fault_seed=None):
        if graph.number_of_nodes() == 0:
            raise ValueError("network must have at least one node")
        if bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")
        if fault_seed is not None:
            if faults is None:
                raise ValueError("fault_seed requires a FaultPlan (faults=...)")
            faults = replace(faults, seed=fault_seed)
        self.faults = faults
        self.bandwidth = bandwidth
        self.strict = strict
        self.record_messages = record_messages
        self.n_nodes = graph.number_of_nodes()
        self.weights = {}
        for u, v, data in graph.edges(data=True):
            self.weights[u, v] = self.weights[v, u] = data.get(weight, 1.0)
        master = random.Random(seed)
        self.nodes: dict = {}
        self.programs: dict = {}
        for nid in _by_repr(graph.nodes()):
            rng = random.Random(master.random())
            node = SpecNode(self, nid, _by_repr(graph.neighbors(nid)), rng)
            if inputs is not None and nid in inputs:
                node.input = inputs[nid]
            self.nodes[nid] = node
            self.programs[nid] = program_factory()
        self.round = 0
        self.staged: list = []  # (sender, receiver, payload, bits) sent this round
        self.links: dict = {}  # busy directed link -> FIFO of [bits left, Received]
        self.total_messages = self.total_bits = self.max_edge_bits = 0
        self.per_round_bits: list[int] = []
        self.message_log: list = []
        self.stats = dict.fromkeys(FAULT_COUNTERS, 0)
        self.events_applied = 0
        plan = faults or FaultPlan()
        self.event_rounds = {e.round for e in plan.topology_events}
        self.event_rounds.update(r for span in plan.crashes for r in (span.start, span.stop))

    # -- sending ---------------------------------------------------------------

    def offer(self, sender, receivers, payload, bits) -> None:
        """Charge and stage one send per receiver (the sender pays)."""
        size = bit_size(payload) if bits is None else bits
        if size < 1:
            raise ValueError("messages cost at least one bit")
        for receiver in receivers:
            if self.strict and size > self.bandwidth:
                raise BandwidthExceeded(
                    f"message of {size} bits exceeds B={self.bandwidth} on edge "
                    f"{sender!r}->{receiver!r}"
                )
            self.total_messages += 1
            self.total_bits += size
            if self.record_messages:
                self.message_log.append((self.round, sender, receiver, size))
            self.staged.append((sender, receiver, payload, size))

    def stale_send_lost(self, sender, receiver) -> bool:
        """A send on a link the plan has deleted vanishes (``link_lost``)."""
        if self.faults is None or not self.faults.edge_down(sender, receiver, self.round):
            return False
        self.stats["link_lost"] += 1
        return True

    def flush(self) -> None:
        """End of a round's sends: fault them, check them, put them on links."""
        staged, self.staged = self.staged, []
        if self.faults is not None and staged:
            staged = self.message_faults(staged)
        if self.strict:
            load: dict = {}
            for sender, receiver, _, bits in staged:
                load[sender, receiver] = load.get((sender, receiver), 0) + bits
            for (sender, receiver), bits in load.items():
                if bits > self.bandwidth:
                    raise BandwidthExceeded(
                        f"{bits} bits queued on edge {sender!r}->{receiver!r} "
                        f"in one round (B={self.bandwidth})"
                    )
        for sender, receiver, payload, bits in staged:
            link = self.links.setdefault((sender, receiver), deque())
            link.append([bits, Received(sender, payload, bits)])

    def message_faults(self, staged: list) -> list:
        """Drop, duplicate (the copy right after the original), then swap
        adjacent survivors on a link; the ``i``-th send on a link this round
        is decision index ``i``, the ``i``-th survivor is reorder index ``i``."""
        plan, rnd, stats = self.faults, self.round, self.stats
        sent: dict = {}
        slots: dict = {}
        out: list = []
        drops = dups = swaps = 0
        for msg in staged:
            link = msg[:2]
            index = sent[link] = sent.get(link, -1) + 1
            if plan.drop(rnd, *link, index):
                drops += 1
                continue
            copies = 2 if plan.duplicate(rnd, *link, index) else 1
            dups += copies - 1
            for _ in range(copies):
                slots.setdefault(link, []).append(len(out))
                out.append(msg)
        for link, where in slots.items():
            order = list(range(len(where)))
            for i in range(1, len(where)):
                if plan.reorder(rnd, *link, i):
                    order[i - 1], order[i] = order[i], order[i - 1]
                    swaps += 1
            survivors = [out[k] for k in where]
            for k, source in zip(where, order):
                out[k] = survivors[source]
            depth = max(abs(i - source) for i, source in enumerate(order))
            stats["max_reorder_depth"] = max(stats["max_reorder_depth"], depth)
        if drops or dups or swaps:
            stats["drops"] += drops
            stats["duplicates"] += dups
            stats["reorder_swaps"] += swaps
            stats["faulted_flushes"] += 1
        return out

    # -- rounds ----------------------------------------------------------------

    def apply_topology_events(self, rnd: int) -> None:
        """Apply the plan's edge events due by ``rnd``; impossible ones skip."""
        events = self.faults.topology_events if self.faults is not None else ()
        while self.events_applied < len(events) and events[self.events_applied].round <= rnd:
            event = events[self.events_applied]
            self.events_applied += 1
            u, v = event.u, event.v
            linked = u in self.nodes and v in self.nodes[u].neighbors
            if event.action == "insert":
                if u == v or u not in self.nodes or v not in self.nodes or linked:
                    continue
                self.weights[u, v] = self.weights[v, u] = event.weight
                for a, b in ((u, v), (v, u)):
                    self.nodes[a].neighbors = _by_repr(self.nodes[a].neighbors + (b,))
            else:
                if not linked:
                    continue
                del self.weights[u, v], self.weights[v, u]
                for a, b in ((u, v), (v, u)):
                    self.nodes[a].neighbors = tuple(x for x in self.nodes[a].neighbors if x != b)
            self.stats["topology_applied"] += 1

    def deliver(self, rnd: int) -> dict:
        """Move up to B bits along every busy link; collect whole messages,
        less those addressed to a crashed node or sent over a deleted link."""
        inboxes: dict = {}
        moved = 0
        for link in list(self.links):
            queue = self.links[link]
            budget = self.bandwidth
            while queue and budget:
                head = queue[0]
                step = min(budget, head[0])
                head[0] -= step
                budget -= step
                if head[0] == 0:
                    inboxes.setdefault(link[1], []).append(queue.popleft()[1])
            moved += self.bandwidth - budget
            self.max_edge_bits = max(self.max_edge_bits, self.bandwidth - budget)
            if not queue:
                del self.links[link]
        self.per_round_bits.append(moved)
        plan = self.faults
        if plan is not None:
            for nid in [nid for nid in inboxes if plan.crashed(nid, rnd)]:
                self.stats["crash_lost"] += len(inboxes.pop(nid))
            for nid, msgs in list(inboxes.items()):
                kept = [m for m in msgs if not plan.edge_down(m.sender, nid, rnd)]
                self.stats["link_lost"] += len(msgs) - len(kept)
                inboxes[nid] = kept
        return inboxes

    def run(self, max_rounds: int = 100_000, stop_on_quiescence: bool = False) -> RunResult:
        for nid, node in self.nodes.items():
            self.programs[nid].on_start(node)
        self.flush()
        rnd = 0
        while rnd < max_rounds:
            if all(node.halted for node in self.nodes.values()):
                break
            if (
                stop_on_quiescence
                and rnd > 0
                and self.per_round_bits[-1] == 0
                and not self.links
                and not any(r > rnd for r in self.event_rounds)
            ):
                rnd -= 1  # the silent round that showed quiescence does not count
                break
            rnd += 1
            self.round = rnd
            self.apply_topology_events(rnd)
            inboxes = self.deliver(rnd)
            for nid, node in self.nodes.items():
                if node.halted or (self.faults is not None and self.faults.crashed(nid, rnd)):
                    continue
                self.programs[nid].on_round(node, rnd, inboxes.get(nid, []))
            self.flush()
        plan = self.faults
        faulty = plan is not None and bool(
            plan.drop_prob or plan.dup_prob or plan.reorder_prob
            or plan.crashes or plan.topology_events
        )
        return RunResult(
            rounds=rnd,
            total_messages=self.total_messages,
            total_bits=self.total_bits,
            outputs={nid: node.output for nid, node in self.nodes.items()},
            halted=all(node.halted for node in self.nodes.values()),
            max_edge_bits_per_round=self.max_edge_bits,
            per_round_bits=self.per_round_bits,
            fault_stats=dict(self.stats) if faulty else None,
        )

    def pending_traffic(self) -> int:
        """Bits still on the links."""
        return sum(head[0] for queue in self.links.values() for head in queue)
