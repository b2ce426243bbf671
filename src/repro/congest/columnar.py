"""Columnar transport and batched reductions: the struct-of-arrays hot path.

:class:`ColumnarTransport` is a drop-in replacement for
:class:`~repro.congest.transport.LinkTransport` that stores a round's
staged sends as flat parallel columns (an ``array('q')`` edge-id column,
an ``array('q')`` bits column and a payload list) instead of one
``_InFlight`` object per message, and keeps each directed edge as a
small permanent :class:`_EdgeQueue` whose *head* progress is accounted
lazily against an internal clock -- a busy edge costs nothing per round
until its head message actually completes.

The transport keeps its edge-clock schedule as a completion-clock heap
(one ``(completion, seq, eid)`` entry per live edge), making
:meth:`~ColumnarTransport.deliver_round` O(completing edges) and
:meth:`~ColumnarTransport.rounds_until_delivery` O(1), where the baseline
transport pays O(live edges) per executed round and O(total queued
messages) per quiescence probe.  Each flush groups its staged round by
edge in one pass (:func:`group_round`).

Column schema (documented order; see also ``docs/architecture.md``):

========  =============  ====================================================
column    type           contents
========  =============  ====================================================
eid       ``array('q')`` dense directed-edge id, in ``Node.send`` call order
bits      ``array('q')`` charged message size in bits (parallel to ``eid``)
payload   list           payload object reference (parallel)
========  =============  ====================================================

Edge ids are assigned once, at an edge's first-ever send, and identify
the edge's permanent :class:`_EdgeQueue` (which holds the sender and
receiver, so the columns don't repeat them per message).  Staging
buffers are **cleared in place** after every commit, never reallocated
-- the block fast path ping-pongs two buffer sets, so steady-state runs
allocate staging storage a constant number of times total
(``stage_reuse_ratio`` in the ``columnar_summary`` event tracks it).

**Block fast path.**  When a flush arrives with no edge mid-transmission
and every per-edge sum within ``B`` (the common case for well-behaved
CONGEST programs, which respect the per-round budget), the entire
staged round completes exactly one round later as a single *block*: no
per-message queue appends, no clock installs -- ``deliver_round`` emits
the block straight from the staged columns in first-appearance edge
order, which is precisely the baseline link-dict's insertion order.  A
flush while a block is pending first *materializes* the block into the
per-edge queues (byte-identical to having taken the general path), so
arbitrary flush/deliver/skip interleavings stay exact.

The staging order is exactly the engines' send order (node-id order
within a round, program send order within a node), and per-edge FIFOs
are keyed by a monotonically increasing activation sequence, so
deliveries, metrics and the opt-in message log are byte-identical to the
baseline transport -- the cross-engine equivalence suite enforces this.
Nothing in this module requires numpy.

:class:`MinEdgeIndex` is the batched min-edge reduction service used by
the Boruvka/GKP fragment-minimum phases: incident edges are pre-sorted
once per network by the canonical edge key, so each per-iteration
"lightest outgoing edge" query is a prefix scan over the sorted incident
list instead of a key construction per neighbour per query.  Engines opt
in via ``Engine.uses_min_edge_index``; the legacy per-neighbour loop
remains the reference path.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from heapq import heappop, heappush
from typing import Any, Hashable, NamedTuple

from repro.congest.message import Received
from repro.congest.transport import BandwidthExceeded, LinkTransport

class RoundGroup(NamedTuple):
    """One staged round grouped by directed edge (the flush's grouping).

    ``order`` lists message indices grouped by edge -- edges in
    first-appearance order, FIFO within each edge -- which is exactly the
    insertion order of the baseline transport's link dict; when every
    staged message sits on a distinct edge it is simply ``range(n)``.
    ``edge_order`` / ``edge_sums`` are parallel per-edge columns in that
    same first-appearance order.  ``edge_counts`` carries the per-edge
    message counts (the run lengths of ``order``) whenever ``order`` is a
    materialised list -- the block delivery loop uses the runs to hoist
    its per-edge lookups out of the per-message loop; when ``order`` is a
    ``range`` every count is 1 and the field is ``None``.
    """

    order: Any  # list[int] | range
    edge_order: Any  # sequence of eids
    edge_sums: Any  # sequence of per-edge bit sums
    edge_counts: Any  # list[int] | None (None iff order is a range)
    total_bits: int
    all_fit: bool  # every per-edge sum <= bandwidth
    max_sum: int  # the largest per-edge sum (0 for an empty round)


def group_round(eids: array, bits: array, bandwidth: int) -> RoundGroup:
    """Group one staged round by directed edge (see :class:`RoundGroup`)."""
    n = len(eids)
    if n == 0:
        return RoundGroup(range(0), [], [], None, 0, True, 0)
    if n == 1:
        b = bits[0]
        return RoundGroup(range(1), [eids[0]], [b], None, b, b <= bandwidth, b)
    if n == 2:
        b0, b1 = bits[0], bits[1]
        e0, e1 = eids[0], eids[1]
        if e0 == e1:
            s = b0 + b1
            return RoundGroup(range(2), [e0], [s], None, s, s <= bandwidth, s)
        m = b0 if b0 >= b1 else b1
        return RoundGroup(range(2), [e0, e1], [b0, b1], None, b0 + b1, m <= bandwidth, m)
    groups: dict[int, list[int]] = {}
    sums: dict[int, int] = {}
    total = 0
    for i, eid in enumerate(eids):
        b = bits[i]
        total += b
        bucket = groups.get(eid)
        if bucket is None:
            groups[eid] = [i]
            sums[eid] = b
        else:
            bucket.append(i)
            sums[eid] += b
    edge_order = list(groups)
    edge_sums = [sums[eid] for eid in edge_order]
    if len(edge_order) == n:
        order: Any = range(n)  # one message per edge: already grouped
        edge_counts = None
    else:
        buckets = list(groups.values())
        order = [i for bucket in buckets for i in bucket]
        edge_counts = [len(bucket) for bucket in buckets]
    max_sum = max(edge_sums)
    return RoundGroup(order, edge_order, edge_sums, edge_counts, total, max_sum <= bandwidth, max_sum)


class _EdgeQueue:
    """One directed edge: FIFO columns plus lazy head accounting.

    Queues are permanent -- created at the edge's first-ever send and
    recycled across drain/revive cycles (columns cleared in place, never
    reallocated).  ``head`` indexes the first undelivered message in the
    ``recs`` / ``bits`` columns; ``head_rem`` is the head's remaining
    bits as of clock ``head_clock`` (the transport does *not* decrement
    it each round -- the remainder at any later clock ``c`` is
    ``head_rem - B * (c - head_clock)``, and the completion clock
    ``head_clock + ceil(head_rem / B)`` is computed once and pushed on
    the transport's completion-clock heap).  ``seq`` is the edge's
    *activation* sequence number, refreshed each time the edge goes from
    drained back to live: it orders same-round completions exactly as the
    baseline transport's insertion-ordered link dict does, including
    drain-then-revive reinsertion at the end.
    """

    __slots__ = ("sender", "receiver", "seq", "recs", "bits", "head", "head_clock", "head_rem", "live")

    def __init__(self, sender: Hashable, receiver: Hashable):
        self.sender = sender
        self.receiver = receiver
        self.seq = 0
        self.recs: list[Any] = []
        self.bits: list[int] = []
        self.head = 0
        self.head_clock = 0
        self.head_rem = 0
        self.live = False


class ColumnarTransport(LinkTransport):
    """Struct-of-arrays transport with event-driven delivery accounting.

    Same public contract as :class:`LinkTransport` (the engines drive it
    through the identical ``enqueue`` / ``flush`` / ``deliver_round`` /
    ``rounds_until_delivery`` / ``skip_rounds`` operations and read the
    identical metrics), different cost model:

    - staging is three column appends, not an object allocation;
    - a quiet live edge costs nothing per round (no per-head decrement);
    - ``deliver_round`` touches only the edges whose head completes, and
      an all-fitting round with no carry-over traffic is delivered as one
      block straight from the staged columns;
    - ``rounds_until_delivery`` / ``pending_traffic`` are O(1).
    """

    #: Networks bind their tracer here (see ``CongestNetwork``) so flush
    #: can sample per-round batch sizes without an engine round-trip.
    wants_trace = True

    def __init__(self, bandwidth: int, strict: bool = False, record_messages: bool = False):
        super().__init__(bandwidth, strict=strict, record_messages=record_messages)
        # Staging: parallel struct-of-arrays columns (see module docstring
        # for the documented column order), cleared in place per flush.  A
        # "bundle" carries a buffer set together with its bound appends so
        # the block fast path's ping-pong swap is six attribute writes --
        # no per-flush bound-method creation.
        eids: array = array("q")
        bits: array = array("q")
        recs: list[Any] = []
        self._adopt_stage((eids, bits, recs, eids.append, bits.append, recs.append))
        # Second buffer bundle for the block fast path's ping-pong (the
        # block owns one set while the other stages the next round).
        self._spare: tuple | None = None
        # A committed all-fitting round awaiting its one-round delivery:
        # (eids, bits, recs, RoundGroup, bundle), or None.
        self._block: tuple | None = None
        # Permanent edge identity: sender -> {receiver -> dense eid} (two
        # plain-key lookups beat allocating and hashing an edge tuple per
        # message), and the eid-indexed queue registry (queues are
        # recycled, never dropped).
        self._edge_ids: dict[Hashable, dict[Hashable, int]] = {}
        self._queues: list[_EdgeQueue] = []
        self._live = 0  # queues currently carrying traffic (excludes block)
        self._clock = 0  # rounds executed or skipped so far
        # The edge clock: (completion clock, edge seq, eid), exactly one
        # entry per live edge and no stale entries -- popped when (and only
        # when) the head completes, pushed when a new head is installed.
        # Ties pop in activation-sequence order.
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0  # edge activation counter (orders same-round deliveries)
        # Telemetry (read by ColumnarEngine's run-end summary event).
        self.trace = None
        self.flush_batches = 0
        self.max_flush_messages = 0
        self.peak_live_edges = 0
        self.block_batches = 0
        self.stage_allocs = 1  # buffer sets ever allocated (1 = the initial set)

    # -- staging ---------------------------------------------------------------

    def _adopt_stage(self, bundle: tuple) -> None:
        """Make ``bundle`` the active staging set.  The bound appends ride
        in the bundle (``enqueue`` is the highest-call-count method; three
        bound-method calls beat three attribute-chain lookups per message,
        and keeping the bindings with their buffers makes a swap free)."""
        self._bundle = bundle
        (
            self._stage_eids,
            self._stage_bits,
            self._stage_recs,
            self._append_eid,
            self._append_bits,
            self._append_rec,
        ) = bundle

    def enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int, round_no: int) -> None:
        """Stage one message as a row across the three columns.

        The record column stages the finished :class:`Received` tuple
        (it is immutable and its fields are all known here), so delivery
        appends staged objects instead of constructing per message.
        """
        if self.strict and bits > self.bandwidth:
            # Totals are normally folded in at the flush barrier; an abort
            # mid-round must first account the already-staged messages so
            # the counters match the baseline's per-enqueue accounting.
            self.total_messages += len(self._stage_recs)
            self.total_bits += sum(self._stage_bits)
            raise BandwidthExceeded(
                f"message of {bits} bits exceeds B={self.bandwidth} on edge "
                f"{sender!r}->{receiver!r}"
            )
        try:
            # Steady state: the edge exists, one chained lookup.
            eid = self._edge_ids[sender][receiver]
        except KeyError:
            row = self._edge_ids.setdefault(sender, {})
            eid = row[receiver] = len(self._queues)
            self._queues.append(_EdgeQueue(sender, receiver))
        self._append_eid(eid)
        self._append_bits(bits)
        self._append_rec(Received(sender, payload, bits))
        # total_messages / total_bits are folded in at the flush barrier
        # (one batched update per round instead of two per message).
        if self.record_messages:
            self.message_log.append((round_no, sender, receiver, bits))

    def enqueue_many(self, sender: Hashable, receivers: list[Hashable], payload: Any, bits: int, round_no: int) -> None:
        """Stage one payload to several receivers in a single pass.

        Semantically a loop over :meth:`enqueue` with a shared (payload,
        bits) row; the strict check and all per-message state hoist out of
        the loop, which matters because broadcasts dominate the message
        volume of the GKP phases.  One :class:`Received` instance serves
        every receiver (the tuple is immutable and identical for all of
        them), so a degree-``d`` broadcast stages ``d`` references but
        performs a single construction.
        """
        if self.strict and bits > self.bandwidth:
            if not receivers:
                return
            self.total_messages += len(self._stage_recs)
            self.total_bits += sum(self._stage_bits)
            raise BandwidthExceeded(
                f"message of {bits} bits exceeds B={self.bandwidth} on edge "
                f"{sender!r}->{receivers[0]!r}"
            )
        row = self._edge_ids.get(sender)
        if row is None:
            row = self._edge_ids[sender] = {}
        try:
            # Steady state: every receiver already has an edge id, so the
            # whole id column extends in one C-level pass.
            self._stage_eids.extend([row[receiver] for receiver in receivers])
        except KeyError:
            queues = self._queues
            append_eid = self._append_eid
            for receiver in receivers:
                eid = row.get(receiver)
                if eid is None:
                    eid = len(queues)
                    row[receiver] = eid
                    queues.append(_EdgeQueue(sender, receiver))
                append_eid(eid)
        n = len(receivers)
        self._stage_bits.extend([bits] * n)
        self._stage_recs.extend([Received(sender, payload, bits)] * n)
        if self.record_messages:
            self.message_log.extend(
                (round_no, sender, receiver, bits) for receiver in receivers
            )

    def has_outgoing(self) -> bool:
        return bool(self._stage_recs)

    def flush(self) -> None:
        """Commit the staged columns (round barrier): as a pending block
        when nothing is mid-transmission and every edge fits its budget,
        otherwise into the per-edge queues."""
        n = len(self._stage_recs)
        if n == 0:
            return
        if self._block is not None:
            # A second flush before the pending block's delivery round:
            # fold the block into the per-edge queues first, exactly as if
            # its flush had taken the general path.
            self._materialize_block()
        bw = self.bandwidth
        eids = self._stage_eids
        bits_col = self._stage_bits
        recs = self._stage_recs
        group = group_round(eids, bits_col, bw)
        # Batched totals: the baseline counts per enqueue, but by the time
        # anything can observe them (the flush barrier -- including a
        # strict-mode failure, which counts the whole staged round first,
        # exactly as per-enqueue counting would have) the values agree.
        self.total_messages += n
        self.total_bits += group.total_bits
        if self.strict and not group.all_fit:
            # Raise *before* anything is committed (first offending edge in
            # first-seen order, matching the baseline message exactly).
            for eid, bits in zip(group.edge_order, group.edge_sums):
                if bits > bw:
                    queue = self._queues[eid]
                    raise BandwidthExceeded(
                        f"{bits} bits queued on edge {queue.sender!r}->{queue.receiver!r} "
                        f"in one round (B={bw})"
                    )
        if self._live == 0 and group.all_fit:
            # Block fast path: the whole round completes at clock+1.  The
            # block takes ownership of the staged buffer bundle; staging
            # switches to the spare bundle (recycled from the previous
            # block).
            self._block = (eids, bits_col, recs, group, self._bundle)
            self.block_batches += 1
            live = len(group.edge_order)
            spare = self._spare
            if spare is None:
                e2: array = array("q")
                b2: array = array("q")
                r2: list[Any] = []
                spare = (e2, b2, r2, e2.append, b2.append, r2.append)
                self.stage_allocs += 1
            else:
                self._spare = None
            self._adopt_stage(spare)
            path = "block"
        else:
            self._commit_rows(eids, bits_col, recs)
            live = self._live
            del eids[:]
            del bits_col[:]
            recs.clear()
            path = "grouped"
        self._pending_bits += group.total_bits
        self.flush_batches += 1
        if n > self.max_flush_messages:
            self.max_flush_messages = n
        if live > self.peak_live_edges:
            self.peak_live_edges = live
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.event("columnar_batch", clock=self._clock, staged=n, live_edges=live, path=path)

    def _commit_rows(self, eids: array, bits_col: array, recs: list[Any]) -> None:
        """The general commit: append rows to their edge queues, activating
        drained queues with a fresh sequence number (the baseline link
        dict's drain-then-revive insertion order) and pushing their head
        completion on the edge clock."""
        clock = self._clock
        bw = self.bandwidth
        queues = self._queues
        heap = self._heap
        for i, eid in enumerate(eids):
            queue = queues[eid]
            b = bits_col[i]
            queue.recs.append(recs[i])
            queue.bits.append(b)
            if not queue.live:
                queue.live = True
                self._live += 1
                self._seq += 1
                queue.seq = self._seq
                queue.head = 0
                queue.head_clock = clock
                queue.head_rem = b
                heappush(heap, (clock + -(-b // bw), self._seq, eid))

    def _materialize_block(self) -> None:
        """Convert the pending block into live per-edge queues -- the state
        the general path would have produced at the block's flush (the
        clock has not advanced since: a delivery would have consumed the
        block, and a skip would have raised)."""
        eids, bits_col, recs, _group, bundle = self._block
        self._block = None
        self._commit_rows(eids, bits_col, recs)
        del eids[:]
        del bits_col[:]
        recs.clear()
        self._spare = bundle

    # -- advancing -------------------------------------------------------------

    def deliver_round(self) -> dict[Hashable, list[Received]]:
        """Advance one round; touch only the edges whose head completes.

        A pending block is emitted straight from its staged columns, in
        first-appearance edge order (the baseline link-dict insertion
        order), FIFO within each edge.  On the general path, every live
        edge moves exactly ``B`` bits this round unless its head completes
        (then it moves its remainder plus any cascade of queued messages
        fitting the leftover budget) -- so the per-round bit total is
        reconstructed from the completing edges alone, and the
        non-completing majority costs O(1) in aggregate.
        """
        self._clock += 1
        clock = self._clock
        bw = self.bandwidth
        block = self._block
        if block is not None:
            inboxes: dict[Hashable, list[Received]] = defaultdict(list)
            self._block = None
            eids, bits_col, recs, group, bundle = block
            queues = self._queues
            order = group.order
            if type(order) is range:
                # One message per edge, already in staging order: the
                # staged records land directly, one append per message.
                for eid, rec in zip(eids, recs):
                    inboxes[queues[eid].receiver].append(rec)
            else:
                # Repeated edges: walk the per-edge runs so the queue and
                # inbox lookups happen once per edge rather than once per
                # message; each run lands as one comprehension-built
                # extend of already-staged records.
                pos = 0
                for eid, count in zip(group.edge_order, group.edge_counts):
                    end = pos + count
                    inboxes[queues[eid].receiver].extend(
                        [recs[i] for i in order[pos:end]]
                    )
                    pos = end
            if group.max_sum > self.max_edge_bits_per_round:
                self.max_edge_bits_per_round = group.max_sum
            self.per_round_bits.append(group.total_bits)
            self._pending_bits -= group.total_bits
            del eids[:]
            del bits_col[:]
            recs.clear()
            self._spare = bundle
            return inboxes
        live = self._live
        if live == 0:
            # Quiet round: no allocation beyond the empty result dict.
            self.per_round_bits.append(0)
            return {}
        inboxes = defaultdict(list)
        queues = self._queues
        heap = self._heap
        completed = 0
        round_bits = 0
        max_used = 0
        # Pop the edges completing now, in activation-sequence order.  A
        # re-installed head completes at clock + 1 or later, so it never
        # re-enters this loop.
        while heap and heap[0][0] == clock:
            eid = heappop(heap)[2]
            queue = queues[eid]
            completed += 1
            # Remaining at the start of this round, derived lazily: the
            # head had head_rem bits at head_clock and moved B per round
            # since.  1 <= rem <= B because the clock said "completes now".
            rem = queue.head_rem - bw * (clock - 1 - queue.head_clock)
            budget = bw - rem
            recs = queue.recs
            bits_list = queue.bits
            inbox = inboxes[queue.receiver]
            i = queue.head
            total = len(bits_list)
            inbox.append(recs[i])
            recs[i] = None  # delivered records are dead; free the ref
            i += 1
            while i < total and bits_list[i] <= budget:
                budget -= bits_list[i]
                inbox.append(recs[i])
                recs[i] = None
                i += 1
            if i < total:
                # New head starts mid-round with the leftover budget
                # already applied; the full B was consumed on this edge.
                used = bw
                queue.head = i
                queue.head_clock = clock
                queue.head_rem = bits_list[i] - budget
                heappush(heap, (clock + -(-queue.head_rem // bw), queue.seq, eid))
                if i > 32 and 2 * i > total:
                    del recs[:i]
                    del bits_list[:i]
                    queue.head = 0
            else:
                # Drained: recycle the queue in place for the next revival.
                used = bw - budget
                queue.live = False
                queue.head = 0
                recs.clear()
                bits_list.clear()
                self._live -= 1
            round_bits += used
            if used > max_used:
                max_used = used
        round_bits += bw * (live - completed)
        if live > completed and bw > max_used:
            max_used = bw
        if max_used > self.max_edge_bits_per_round:
            self.max_edge_bits_per_round = max_used
        self.per_round_bits.append(round_bits)
        self._pending_bits -= round_bits
        return inboxes

    def rounds_until_delivery(self) -> int | None:
        """O(1): a pending block completes next round; otherwise the
        edge clock's earliest completion minus the current clock."""
        if self._block is not None:
            return 1
        if self._live == 0:
            return None
        return self._heap[0][0] - self._clock

    def skip_rounds(self, rounds: int) -> int:
        """Account a quiet stretch without touching any edge state.

        The lazy head accounting makes this O(1) in the number of live
        edges: advancing the clock *is* the per-head decrement, so only
        the metrics need updating.
        """
        if rounds <= 0:
            return 0
        bw = self.bandwidth
        if self._block is not None:
            # The block completes next round, so any skip crosses it.
            bits_col = self._block[1]
            raise RuntimeError(
                "skip_rounds crossed a delivery: "
                f"{rounds} rounds x B={bw} >= {bits_col[0]} bits remaining"
            )
        live = self._live
        if live:
            completion, _seq, eid = self._heap[0]
            if rounds >= completion - self._clock:
                queue = self._queues[eid]
                remaining = queue.head_rem - bw * (self._clock - queue.head_clock)
                raise RuntimeError(
                    "skip_rounds crossed a delivery: "
                    f"{rounds} rounds x B={bw} >= {remaining} bits remaining"
                )
            self._clock += rounds
            if bw > self.max_edge_bits_per_round:
                self.max_edge_bits_per_round = bw
            self.per_round_bits.extend([bw * live] * rounds)
            moved = bw * rounds * live
            self._pending_bits -= moved
            return moved
        self._clock += rounds
        self.per_round_bits.extend([0] * rounds)
        return 0

    # -- inspection ------------------------------------------------------------

    @property
    def live_edges(self) -> int:
        """Directed edges currently carrying traffic."""
        if self._block is not None:
            return len(self._block[3].edge_order)
        return self._live

    @property
    def stage_reuse_ratio(self) -> float:
        """Fraction of non-empty flushes served by a recycled buffer set
        (1.0 means steady-state staging never allocated)."""
        if self.flush_batches == 0:
            return 1.0
        reused = self.flush_batches - self.stage_allocs
        return max(0.0, reused / self.flush_batches)


class MinEdgeIndex:
    """Pre-sorted incident edges for batched fragment-minimum queries.

    Per node, incident edges are sorted once by the canonical edge key
    ``(float(weight), sorted endpoint reprs)`` -- identical to
    ``repro.algorithms.mst.edge_key``, and unique per node since the key
    embeds both endpoint names.  A "lightest edge leaving my fragment"
    query is then the first sorted entry whose neighbour is eligible,
    with no key construction per neighbour per query: exactly the legacy
    per-neighbour minimum (unique keys make the minimum iteration-order
    independent), at amortised O(edges log edges) total build cost per
    network instead of O(degree) key tuples per node per iteration.
    """

    def __init__(self, graph, weight_key: str = "weight"):
        self._incident: dict[Hashable, list[tuple[tuple, Hashable, str]]] = {}
        edges = graph.edges
        for u in graph.nodes():
            u_repr = repr(u)
            entries = []
            for v in graph.neighbors(u):
                v_repr = repr(v)
                a, b = (u_repr, v_repr) if u_repr <= v_repr else (v_repr, u_repr)
                weight = float(edges[u, v].get(weight_key, 1.0))
                entries.append(((weight, a, b), v, v_repr))
            entries.sort(key=lambda entry: entry[0])
            self._incident[u] = entries

    def min_outgoing(self, node_id: Hashable, label_of: dict, my_label) -> tuple | None:
        """Mirror of ``mst._min_outgoing``: lightest incident edge whose
        neighbour's label differs (labels compared with ``==``; unknown
        neighbours default to ``my_label`` and are skipped).  Returns
        ``(key, node_id, neighbour)`` or ``None``."""
        for key, neighbor, neighbor_repr in self._incident[node_id]:
            if label_of.get(neighbor_repr, my_label) == my_label:
                continue
            return (key, node_id, neighbor)
        return None

    def min_outgoing_by_repr(
        self, node_id: Hashable, label_of: dict, my_label, exclude_reprs: set
    ) -> tuple | None:
        """Mirror of the Phase-B candidate scan: labels compared by repr
        and tree-edge neighbours (``exclude_reprs``) skipped.  Returns
        ``(key, neighbour, neighbour_label)`` or ``None``."""
        my_repr = repr(my_label)
        for key, neighbor, neighbor_repr in self._incident[node_id]:
            other_label = label_of.get(neighbor_repr, my_label)
            if repr(other_label) == my_repr or neighbor_repr in exclude_reprs:
                continue
            return (key, neighbor, other_label)
        return None
