"""Deterministic fault injection under the engine seam.

Every scenario used to run on a static, reliable network; this module makes
adversity a first-class, *reproducible* input.  A :class:`FaultPlan` is a
pure value describing the adversary -- per-edge message drop / duplication /
reorder probabilities, node crash+recovery spans, and scheduled edge
insertion/deletion events -- and a :class:`FaultyTransport` wraps any
transport (``LinkTransport`` or ``ColumnarTransport``) and applies the plan
at the flush barrier.

**Determinism contract.**  Every message-fault decision is a pure function
of ``(plan seed, round, directed edge, per-edge message index)`` via a
:func:`hash <FaultPlan.decision>` -- no RNG state, no engine state.  The
wrapper stages each round's sends itself, applies the faults to the staged
sequence (which every engine produces in the same canonical order), and
re-emits the survivors into the wrapped transport in the original global
staging order.  Since all transports are already proven byte-identical for
identical enqueue sequences, every engine (dense / event / columnar)
produces **byte-identical faulted runs** for the same plan.

**Fault semantics.**

- *Drops / duplications* happen "on the wire": the send is still charged to
  the run totals and the opt-in message log (the sender paid), but a dropped
  message never enters the link buffer, and a duplicate traverses it twice
  (visible in ``per_round_bits``).
- *Reordering* permutes messages within one directed edge's staged run for
  the round (adjacent hash-seeded transpositions), never across edges and
  never across round barriers -- per-link FIFO chunking stays well-defined.
- *Crashes* are "napping" faults: a crashed node is not stepped, and
  deliveries addressed to it while down are discarded (counted as
  ``crash_lost``).  Program state survives; recovery forcibly re-steps the
  node with an empty inbox so reactive programs can resume.
- *Topology events* insert or delete edges at scheduled rounds.  Deleting
  a link kills it outright: messages still in flight on it are lost
  (counted as ``link_lost``) and the endpoints' neighbour lists shrink, so
  programs never observe a delivery from an edge that no longer exists.

The engines cooperate through two hooks: :meth:`FaultPlan.next_event_round`
joins the event engine's skip-target candidates so O(1) jumps never leap
past a scheduled crash, recovery, or topology event (the wrapper's
:meth:`FaultyTransport.skip_rounds` guard enforces this), and
:meth:`FaultPlan.forced_wakes` tells it which nodes must be stepped at
recovery/topology rounds even without a delivery.

Telemetry: the wrapper emits ``fault_flush`` / ``fault_crash_lost`` events
through :mod:`repro.obs` (gated on ``trace.enabled``), the network emits
``fault_crash_span`` / ``fault_topology``, and the accumulated
:class:`FaultStats` ride on ``transport.stats`` for scenario reporting.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Iterable, NamedTuple

import networkx as nx

from repro.congest.transport import BandwidthExceeded
from repro.obs.trace import Tracer, current_tracer

__all__ = [
    "CrashSpan",
    "TopologyEvent",
    "FaultPlan",
    "FaultStats",
    "FaultyTransport",
    "apply_topology_event",
]


class CrashSpan(NamedTuple):
    """One node's crash window: down during rounds ``[start, stop)``.

    The node is not stepped and receives nothing while down; it is forcibly
    re-stepped (with an empty inbox) at round ``stop``.
    """

    node: Hashable
    start: int
    stop: int


class TopologyEvent(NamedTuple):
    """One scheduled edge mutation, applied at the start of ``round``."""

    round: int
    #: ``"insert"`` or ``"delete"``.
    action: str
    u: Hashable
    v: Hashable
    #: Weight attached to an inserted edge (ignored for deletions).
    weight: float = 1.0


def apply_topology_event(graph: nx.Graph, event: TopologyEvent, weight: str = "weight") -> bool:
    """Apply one event to ``graph`` in place; returns whether it applied.

    Impossible events -- inserting an existing edge or a self-loop, deleting
    an absent edge, touching unknown nodes -- are skipped, not errors: a
    generated plan stays applicable even if an earlier event already changed
    the graph.  This helper is the single source of the skip rules, shared
    by the live network and :meth:`FaultPlan.final_graph`.
    """
    u, v = event.u, event.v
    if event.action == "insert":
        if u == v or u not in graph or v not in graph or graph.has_edge(u, v):
            return False
        graph.add_edge(u, v, **{weight: event.weight})
        return True
    if event.action == "delete":
        if not graph.has_edge(u, v):
            return False
        graph.remove_edge(u, v)
        return True
    raise ValueError(f"unknown topology action {event.action!r}; known: insert, delete")


def _derive_int_seed(seed: int, salt: str) -> int:
    """A stable 64-bit integer from ``(seed, salt)`` (process-independent)."""
    digest = hashlib.sha256(f"{salt}|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


_HASH_DENOM = float(1 << 64)


@dataclass
class FaultPlan:
    """A seeded, declarative adversary for one CONGEST run.

    The plan is a *value*: two plans constructed with equal fields make
    identical decisions on every engine, thread count, and backend, because
    each decision hashes ``(seed, kind, round, edge, msg_index)`` and
    nothing else.  ``window`` bounds the rounds (inclusive) in which the
    probabilistic message faults fire; crash spans and topology events
    carry their own schedule.
    """

    seed: int = 0
    #: Per-message probability that a staged message is dropped on the wire.
    drop_prob: float = 0.0
    #: Per-message probability that a staged message is duplicated.
    dup_prob: float = 0.0
    #: Per-position probability of an adjacent transposition within one
    #: edge's surviving per-round run.
    reorder_prob: float = 0.0
    crashes: tuple[CrashSpan, ...] = ()
    topology_events: tuple[TopologyEvent, ...] = ()
    #: Inclusive round window for the probabilistic message faults;
    #: ``None`` means every round (then :meth:`last_fault_round` is None).
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "reorder_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        self.crashes = tuple(
            span if isinstance(span, CrashSpan) else CrashSpan(*span) for span in self.crashes
        )
        for span in self.crashes:
            if span.start < 1 or span.stop <= span.start:
                raise ValueError(f"crash span needs 1 <= start < stop, got {span!r}")
        self.topology_events = tuple(
            ev if isinstance(ev, TopologyEvent) else TopologyEvent(*ev)
            for ev in self.topology_events
        )
        for ev in self.topology_events:
            if ev.action not in ("insert", "delete"):
                raise ValueError(f"unknown topology action {ev.action!r} in {ev!r}")
            if ev.round < 1:
                raise ValueError(f"topology events start at round 1, got {ev!r}")
        # Stable apply order: by round, ties in declaration order.
        self.topology_events = tuple(sorted(self.topology_events, key=lambda e: e.round))
        if self.window is not None:
            lo, hi = self.window
            if lo < 0 or hi < lo:
                raise ValueError(f"window must be (lo, hi) with 0 <= lo <= hi, got {self.window!r}")
            self.window = (int(lo), int(hi))
        # Derived lookups (value-semantics: rebuilt whenever replace() runs).
        spans: dict[Hashable, list[tuple[int, int]]] = {}
        for span in self.crashes:
            spans.setdefault(span.node, []).append((span.start, span.stop))
        self._crash_spans = {node: tuple(sorted(windows)) for node, windows in spans.items()}
        rounds: set[int] = set()
        forced: dict[int, list[Hashable]] = {}
        for span in self.crashes:
            rounds.add(span.start)
            rounds.add(span.stop)
            forced.setdefault(span.stop, []).append(span.node)
        for ev in self.topology_events:
            rounds.add(ev.round)
            bucket = forced.setdefault(ev.round, [])
            for endpoint in (ev.u, ev.v):
                if endpoint not in bucket:
                    bucket.append(endpoint)
        self._event_rounds = tuple(sorted(rounds))
        self._forced = {rnd: tuple(nodes) for rnd, nodes in forced.items()}
        # Per-undirected-edge event timeline, for the in-flight loss rule:
        # a message delivered while its link is down is lost.
        timeline: dict[frozenset, list[tuple[int, str]]] = {}
        for ev in self.topology_events:
            timeline.setdefault(frozenset((ev.u, ev.v)), []).append((ev.round, ev.action))
        self._edge_timeline = {pair: tuple(evs) for pair, evs in timeline.items()}
        self._has_deletes = any(ev.action == "delete" for ev in self.topology_events)

    # -- introspection ---------------------------------------------------------

    @property
    def has_message_faults(self) -> bool:
        """Whether any probabilistic message fault can ever fire."""
        return self.drop_prob > 0.0 or self.dup_prob > 0.0 or self.reorder_prob > 0.0

    @property
    def has_crashes(self) -> bool:
        """Whether the plan schedules any crash span."""
        return bool(self.crashes)

    def is_empty(self) -> bool:
        """True when the plan injects nothing (a transparent wrapper)."""
        return not (self.has_message_faults or self.crashes or self.topology_events)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same fault model under a different decision seed."""
        return replace(self, seed=seed)

    def last_fault_round(self) -> int | None:
        """The last round at which this plan can still inject anything.

        After this round the network behaves fault-free, so scenarios
        measure rounds-to-restabilize from here.  ``None`` when message
        faults are unbounded (``window is None`` with a positive
        probability).
        """
        last = 0
        if self.has_message_faults:
            if self.window is None:
                return None
            last = self.window[1]
        for span in self.crashes:
            last = max(last, span.stop)
        for ev in self.topology_events:
            last = max(last, ev.round)
        return last

    # -- message-fault decisions (pure hashes) ---------------------------------

    def decision(self, kind: str, round_no: int, sender: Hashable, receiver: Hashable, index: int) -> float:
        """The uniform [0, 1) draw for one fault decision.

        Pure in ``(seed, kind, round, edge, index)``: blake2b of the tuple's
        canonical encoding, so the decision is identical regardless of
        engine, thread count, claim batching, or process.
        """
        digest = hashlib.blake2b(
            f"{self.seed}|{kind}|{round_no}|{sender!r}|{receiver!r}|{index}".encode(),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / _HASH_DENOM

    def message_faults_active(self, round_no: int) -> bool:
        """Whether probabilistic message faults may fire at ``round_no``."""
        if not self.has_message_faults:
            return False
        window = self.window
        return window is None or window[0] <= round_no <= window[1]

    def drop(self, round_no: int, sender: Hashable, receiver: Hashable, index: int) -> bool:
        """Whether to drop the ``index``-th message staged on the edge."""
        if self.drop_prob <= 0.0 or not self.message_faults_active(round_no):
            return False
        return self.decision("drop", round_no, sender, receiver, index) < self.drop_prob

    def duplicate(self, round_no: int, sender: Hashable, receiver: Hashable, index: int) -> bool:
        """Whether to duplicate the ``index``-th message staged on the edge."""
        if self.dup_prob <= 0.0 or not self.message_faults_active(round_no):
            return False
        return self.decision("dup", round_no, sender, receiver, index) < self.dup_prob

    def reorder(self, round_no: int, sender: Hashable, receiver: Hashable, index: int) -> bool:
        """Whether to transpose positions ``index-1`` and ``index`` of the
        edge's surviving per-round run."""
        if self.reorder_prob <= 0.0 or not self.message_faults_active(round_no):
            return False
        return self.decision("reorder", round_no, sender, receiver, index) < self.reorder_prob

    # -- schedule queries (engine hooks) ---------------------------------------

    def crashed(self, node: Hashable, round_no: int) -> bool:
        """Whether ``node`` is down at ``round_no`` (down in [start, stop))."""
        spans = self._crash_spans.get(node)
        if spans is None:
            return False
        for start, stop in spans:
            if start <= round_no < stop:
                return True
            if start > round_no:
                break
        return False

    def edge_down(self, u: Hashable, v: Hashable, round_no: int) -> bool:
        """Whether the link ``{u, v}`` is deleted (and not re-inserted) as of
        ``round_no``, per the plan's event timeline.

        Used for the in-flight loss rule at delivery: the timeline view is
        engine-independent, unlike the live graph, whose catch-up state could
        differ between engines mid-skip.
        """
        if not self._has_deletes:
            return False
        events = self._edge_timeline.get(frozenset((u, v)))
        if not events:
            return False
        down = False
        for rnd, action in events:
            if rnd > round_no:
                break
            down = action == "delete"
        return down

    def next_event_round(self, after_round: int) -> int | None:
        """The first scheduled fault round strictly after ``after_round``.

        Covers crash starts, recoveries, and topology events -- the rounds
        the event engine must execute (never skip over); probabilistic
        message faults need no wake-up because they fire only at flushes
        that execute anyway.
        """
        import bisect

        rounds = self._event_rounds
        i = bisect.bisect_right(rounds, after_round)
        return rounds[i] if i < len(rounds) else None

    def forced_wakes(self) -> dict[int, tuple[Hashable, ...]]:
        """Round -> nodes that must be stepped there without a delivery:
        recovered nodes at their recovery round and the endpoints of each
        topology event at its round."""
        return self._forced

    # -- derived artefacts -----------------------------------------------------

    def final_graph(self, graph: nx.Graph, weight: str = "weight") -> nx.Graph:
        """A copy of ``graph`` with every topology event applied -- the
        topology the network has after the churn, which centralized
        recomputes (restabilization correctness checks) should target."""
        final = graph.copy()
        for event in self.topology_events:
            apply_topology_event(final, event, weight=weight)
        return final

    @classmethod
    def generate(
        cls,
        graph: nx.Graph,
        *,
        seed: int = 0,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
        reorder_prob: float = 0.0,
        n_crashes: int = 0,
        crash_length: int = 8,
        n_edge_deletes: int = 0,
        n_edge_inserts: int = 0,
        window: tuple[int, int] = (1, 40),
        insert_weight_range: tuple[float, float] = (1.0, 1.0),
        protect: Iterable[Hashable] = (),
    ) -> "FaultPlan":
        """Derive a concrete schedule for ``graph`` from ``seed``.

        Crash spans pick distinct nodes (never the ``protect`` set -- e.g. a
        BFS source) with start rounds in ``window``; edge deletions pick
        non-bridge edges one at a time so the graph stays connected; edge
        insertions pick absent node pairs with weights in
        ``insert_weight_range``.  Everything derives from a sha256-seeded
        :class:`random.Random`, so the same arguments yield the same plan
        in any process.
        """
        rng = random.Random(_derive_int_seed(seed, "faultplan"))
        lo, hi = int(window[0]), int(window[1])
        if lo < 1 or hi < lo:
            raise ValueError(f"window must be (lo, hi) with 1 <= lo <= hi, got {window!r}")

        nodes = sorted(graph.nodes(), key=repr)
        protected = set(protect)
        crashes = []
        candidates = [node for node in nodes if node not in protected]
        for node in rng.sample(candidates, min(n_crashes, len(candidates))):
            start = rng.randint(lo, hi)
            crashes.append(CrashSpan(node, start, start + max(1, crash_length)))

        events: list[TopologyEvent] = []
        scratch = graph.copy()
        for _ in range(n_edge_deletes):
            bridges = set(frozenset(edge) for edge in nx.bridges(scratch))
            deletable = [
                (u, v)
                for u, v in sorted(scratch.edges(), key=lambda e: (repr(e[0]), repr(e[1])))
                if frozenset((u, v)) not in bridges
            ]
            if not deletable:
                break
            u, v = rng.choice(deletable)
            scratch.remove_edge(u, v)
            events.append(TopologyEvent(rng.randint(lo, hi), "delete", u, v))
        for _ in range(n_edge_inserts):
            absent = [
                (nodes[i], nodes[j])
                for i in range(len(nodes))
                for j in range(i + 1, len(nodes))
                if not scratch.has_edge(nodes[i], nodes[j])
            ]
            if not absent:
                break
            u, v = rng.choice(absent)
            w_lo, w_hi = insert_weight_range
            w = w_lo if w_lo == w_hi else rng.uniform(w_lo, w_hi)
            scratch.add_edge(u, v)
            events.append(TopologyEvent(rng.randint(lo, hi), "insert", u, v, float(w)))

        return cls(
            seed=seed,
            drop_prob=drop_prob,
            dup_prob=dup_prob,
            reorder_prob=reorder_prob,
            crashes=tuple(crashes),
            topology_events=tuple(events),
            window=(lo, hi),
        )


@dataclass
class FaultStats:
    """Counters accumulated by one :class:`FaultyTransport` over a run."""

    drops: int = 0
    duplicates: int = 0
    reorder_swaps: int = 0
    #: Largest per-edge position displacement any reordered message saw.
    max_reorder_depth: int = 0
    #: Messages discarded because their receiver was down at delivery.
    crash_lost: int = 0
    #: In-flight messages lost because their link was deleted under them.
    link_lost: int = 0
    #: Flushes in which at least one message fault fired.
    faulted_flushes: int = 0
    #: Topology events that actually mutated the graph.
    topology_applied: int = 0

    def as_dict(self) -> dict[str, int]:
        """A plain-dict view for scenario result payloads."""
        return {
            "drops": self.drops,
            "duplicates": self.duplicates,
            "reorder_swaps": self.reorder_swaps,
            "max_reorder_depth": self.max_reorder_depth,
            "crash_lost": self.crash_lost,
            "link_lost": self.link_lost,
            "faulted_flushes": self.faulted_flushes,
            "topology_applied": self.topology_applied,
        }


class FaultyTransport:
    """A transport wrapper that injects a :class:`FaultPlan` at the flush.

    Implements the full transport API (staging, delivery, skip accounting)
    by staging each round's sends itself, applying
    the plan's message faults to the staged sequence at :meth:`flush`, and
    re-emitting the survivors -- in the original global staging order -- into
    the wrapped transport.  ``total_messages`` / ``total_bits`` / the opt-in
    message log count what the *programs* sent (drops included, duplicates
    not); the wire-level metrics (``per_round_bits``,
    ``max_edge_bits_per_round``) come from the inner transport and therefore
    reflect the faulted stream.

    With an empty plan the wrapper is transparent: every metric, trace
    line, and delivery is byte-identical to running on the inner transport
    directly (asserted by the engine-equivalence suite).

    In strict mode the per-message bandwidth check fires at the wrapper's
    enqueue (identically to the bare transport); the per-edge flush check
    runs in the inner transport on the *faulted* stream, so duplicates can
    legitimately trip it -- strict runs should keep ``dup_prob`` at zero.
    """

    #: The network forwards its tracer to transports advertising this.
    wants_trace = True

    def __init__(self, inner, plan: FaultPlan, trace: Tracer | None = None):
        self.inner = inner
        self.plan = plan
        self.stats = FaultStats()
        self.trace = trace if trace is not None else current_tracer()
        if getattr(type(inner), "wants_trace", False):
            inner.trace = self.trace
        self.record_messages = inner.record_messages
        # The wrapper owns the program-send log; stop the inner transport
        # from duplicating it for the post-fault stream.
        inner.record_messages = False
        self.total_messages = 0
        self.total_bits = 0
        self.message_log: list[tuple[int, Hashable, Hashable, int]] = []
        self._staged: list[tuple[Hashable, Hashable, Any, int, int]] = []
        self._round = 0

    # -- delegated configuration / metrics -------------------------------------

    @property
    def bandwidth(self) -> int:
        """The per-edge bandwidth B (owned by the inner transport)."""
        return self.inner.bandwidth

    @property
    def strict(self) -> bool:
        """Whether strict-mode bandwidth checks are on."""
        return self.inner.strict

    @property
    def max_edge_bits_per_round(self) -> int:
        """Wire-level peak per-edge bits per round (post-fault stream)."""
        return self.inner.max_edge_bits_per_round

    @property
    def per_round_bits(self) -> list[int]:
        """Wire-level bits moved per round (post-fault stream)."""
        return self.inner.per_round_bits

    @property
    def fault_summary(self) -> dict[str, int] | None:
        """The accumulated fault counters for ``RunResult.fault_stats``.

        ``None`` for an empty plan: an all-zero dict would make an
        empty-plan ``RunResult`` distinguishable from a bare run, which the
        transparency contract forbids.
        """
        if self.plan.is_empty():
            return None
        return self.stats.as_dict()

    # -- staging ---------------------------------------------------------------

    def enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int, round_no: int) -> None:
        """Stage one program send for the current round's faulted flush."""
        if self.strict and bits > self.bandwidth:
            raise BandwidthExceeded(
                f"message of {bits} bits exceeds B={self.bandwidth} on edge "
                f"{sender!r}->{receiver!r}"
            )
        self._staged.append((sender, receiver, payload, bits, round_no))
        self.total_messages += 1
        self.total_bits += bits
        if self.record_messages:
            self.message_log.append((round_no, sender, receiver, bits))

    def enqueue_many(self, sender: Hashable, receivers: Iterable[Hashable], payload: Any, bits: int, round_no: int) -> None:
        """Stage one payload to several receivers (the broadcast path)."""
        for receiver in receivers:
            self.enqueue(sender, receiver, payload, bits, round_no)

    def has_outgoing(self) -> bool:
        """Whether anything is staged but not yet flushed."""
        return bool(self._staged) or self.inner.has_outgoing()

    # -- the fault seam --------------------------------------------------------

    def flush(self) -> None:
        """Apply the plan's message faults to the staged round, then commit
        the surviving stream through the inner transport."""
        staged = self._staged
        if staged:
            self._staged = []
            if self.plan.has_message_faults:
                staged = self._apply_message_faults(staged)
            inner = self.inner
            for sender, receiver, payload, bits, round_no in staged:
                inner.enqueue(sender, receiver, payload, bits, round_no)
        self.inner.flush()

    def _apply_message_faults(
        self, staged: list[tuple[Hashable, Hashable, Any, int, int]]
    ) -> list[tuple[Hashable, Hashable, Any, int, int]]:
        """Drop, duplicate, then reorder the staged round.

        Drop/duplicate decisions index the *original* per-edge staging
        order; reorder transpositions index the surviving run.  Survivors
        keep their global staging positions (duplicates slot in directly
        after their original), so an all-zero plan is the identity.
        """
        plan = self.plan
        round_no = staged[0][4]
        if not plan.message_faults_active(round_no):
            return staged
        counts: dict[tuple[Hashable, Hashable], int] = {}
        positions: dict[tuple[Hashable, Hashable], list[int]] = {}
        out: list[tuple[Hashable, Hashable, Any, int, int]] = []
        drops = dups = 0
        for msg in staged:
            edge = (msg[0], msg[1])
            index = counts.get(edge, 0)
            counts[edge] = index + 1
            if plan.drop(msg[4], msg[0], msg[1], index):
                drops += 1
                continue
            positions.setdefault(edge, []).append(len(out))
            out.append(msg)
            if plan.duplicate(msg[4], msg[0], msg[1], index):
                dups += 1
                positions[edge].append(len(out))
                out.append(msg)
        swaps = 0
        depth = 0
        if plan.reorder_prob > 0.0:
            for (sender, receiver), slots in positions.items():
                k = len(slots)
                if k < 2:
                    continue
                order = list(range(k))
                swapped = False
                for i in range(1, k):
                    if plan.reorder(round_no, sender, receiver, i):
                        order[i - 1], order[i] = order[i], order[i - 1]
                        swaps += 1
                        swapped = True
                if swapped:
                    originals = [out[slot] for slot in slots]
                    for slot, source in zip(slots, order):
                        out[slot] = originals[source]
                    depth = max(depth, max(abs(i - src) for i, src in enumerate(order)))
        if drops or dups or swaps:
            stats = self.stats
            stats.drops += drops
            stats.duplicates += dups
            stats.reorder_swaps += swaps
            if depth > stats.max_reorder_depth:
                stats.max_reorder_depth = depth
            stats.faulted_flushes += 1
            trace = self.trace
            if trace.enabled:
                trace.event(
                    "fault_flush",
                    round=round_no,
                    drops=drops,
                    dups=dups,
                    reorder_swaps=swaps,
                    reorder_depth=depth,
                )
        return out

    # -- advancing -------------------------------------------------------------

    def deliver_round(self) -> dict[Hashable, list]:
        """Advance one round; discard deliveries the plan makes impossible.

        Two discard rules apply here, both functions of ``(plan, round)``
        alone so every engine discards identically: inboxes addressed to a
        crashed node are lost (``crash_lost``), and messages whose link was
        deleted while they were in flight are lost (``link_lost``).
        """
        self._round += 1
        inboxes = self.inner.deliver_round()
        plan = self.plan
        round_no = self._round
        if plan.has_crashes:
            downed = [nid for nid in inboxes if plan.crashed(nid, round_no)]
            for nid in downed:
                lost = inboxes.pop(nid)
                self.stats.crash_lost += len(lost)
                trace = self.trace
                if trace.enabled:
                    trace.event(
                        "fault_crash_lost", round=round_no, node=repr(nid), messages=len(lost)
                    )
        if plan._has_deletes and inboxes:
            for nid in list(inboxes):
                msgs = inboxes[nid]
                kept = [msg for msg in msgs if not plan.edge_down(msg.sender, nid, round_no)]
                dropped = len(msgs) - len(kept)
                if dropped:
                    self.stats.link_lost += dropped
                    trace = self.trace
                    if trace.enabled:
                        trace.event(
                            "fault_link_lost", round=round_no, node=repr(nid), messages=dropped
                        )
                    if kept:
                        inboxes[nid] = kept
                    else:
                        del inboxes[nid]
        return inboxes

    def lost_link_send(self, sender: Hashable, receiver: Hashable, round_no: int) -> bool:
        """Whether a send on ``{sender, receiver}`` is silently lost.

        A program holding a stale neighbour reference (e.g. a BFS-tree child
        recorded before the plan deleted the link) may still attempt the
        send; the plan's timeline decides -- engine-independently -- that
        the message vanishes (``link_lost``) instead of the node-handle
        neighbour check raising.  Sends to pairs that were never linked
        still raise as usual.
        """
        if not self.plan._has_deletes:
            return False
        if not self.plan.edge_down(sender, receiver, round_no):
            return False
        self.stats.link_lost += 1
        trace = self.trace
        if trace.enabled:
            trace.event(
                "fault_lost_send",
                round=round_no,
                sender=repr(sender),
                receiver=repr(receiver),
            )
        return True

    def rounds_until_delivery(self) -> int | None:
        """Rounds until the next message completes (inner transport's view)."""
        return self.inner.rounds_until_delivery()

    def skip_rounds(self, rounds: int) -> int:
        """Account a quiet stretch; refuses to cross a scheduled fault round.

        The event engines include :meth:`FaultPlan.next_event_round` in
        their skip-target candidates, so a correct engine never trips this
        guard -- it exists to turn a missed wake-up hook into a loud error
        instead of a silently unfaulted run.
        """
        if rounds > 0:
            upcoming = self.plan.next_event_round(self._round)
            if upcoming is not None and upcoming <= self._round + rounds:
                raise RuntimeError(
                    f"skip_rounds crossed a scheduled fault event: skipping "
                    f"{rounds} round(s) past round {self._round} leaps over round {upcoming}"
                )
            self._round += rounds
        return self.inner.skip_rounds(rounds)

    def pending_traffic(self) -> int:
        """Bits still in flight on the inner transport."""
        return self.inner.pending_traffic()
