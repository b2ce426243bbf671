"""The reference transport: per-edge bit accounting, chunking and metrics.

This is the bottom of the three-layer CONGEST engine stack
(transport -> scheduler -> program API).  A :class:`LinkTransport` owns the
per-directed-edge FIFO link buffers and everything that is charged by the
bit: strict-mode bandwidth checks, message chunking over ``ceil(bits/B)``
rounds, the run metrics (``total_bits``, ``per_round_bits``,
``max_edge_bits_per_round``) and the optional per-message log.

The dense reference engine drives it through two operations:

- :meth:`enqueue` / :meth:`flush` -- stage a round's sends, then commit them
  to the link buffers (strict mode validates the per-edge round budget at
  the flush barrier, exactly as the synchronous model requires);
- :meth:`deliver_round` -- advance every link by one round's budget and
  collect the messages that completed.

It is the plain per-round implementation the event engine's
:class:`~repro.congest.columnar.ColumnarTransport` is checked against; the
two share no code.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Hashable, Iterable

from repro.congest.message import Received, _InFlight


class BandwidthExceeded(RuntimeError):
    """Raised in strict mode when a round's traffic on an edge exceeds B."""


class LinkTransport:
    """Link buffers and bit accounting for one CONGEST(B) execution."""

    def __init__(self, bandwidth: int, strict: bool = False, record_messages: bool = False):
        if bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")
        self.bandwidth = bandwidth
        self.strict = strict
        self.record_messages = record_messages
        # Per directed edge: FIFO of in-flight messages.  Invariant: only
        # edges with traffic have an entry (drained queues are dropped), so
        # quiet links cost nothing and ``len(_links)`` is the live-edge count.
        self._links: dict[tuple[Hashable, Hashable], deque[_InFlight]] = {}
        # Messages queued by sends during the current round.
        self._outgoing: list[_InFlight] = []
        self.total_messages = 0
        self.total_bits = 0
        self.max_edge_bits_per_round = 0
        self.per_round_bits: list[int] = []
        #: (round_sent, sender, receiver, bits) per message; only populated
        #: when ``record_messages`` is set (the list grows unboundedly).
        self.message_log: list[tuple[int, Hashable, Hashable, int]] = []

    # -- staging ---------------------------------------------------------------

    def enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int, round_no: int) -> None:
        """Stage one message for the current round's flush."""
        if self.strict and bits > self.bandwidth:
            raise BandwidthExceeded(
                f"message of {bits} bits exceeds B={self.bandwidth} on edge "
                f"{sender!r}->{receiver!r}"
            )
        self._outgoing.append(_InFlight(sender, receiver, payload, bits, bits))
        self.total_messages += 1
        self.total_bits += bits
        if self.record_messages:
            self.message_log.append((round_no, sender, receiver, bits))

    def enqueue_many(self, sender: Hashable, receivers: Iterable[Hashable], payload: Any, bits: int, round_no: int) -> None:
        """Stage one payload to several receivers (the broadcast path).

        The reference semantics are exactly a loop over :meth:`enqueue`
        (same strict checks, same staging order, same log entries); bulk
        transports override this to amortise the per-message staging work.
        """
        for receiver in receivers:
            self.enqueue(sender, receiver, payload, bits, round_no)

    def flush(self) -> None:
        """Commit the staged sends to the link buffers (round barrier)."""
        if self.strict:
            per_edge: dict[tuple[Hashable, Hashable], int] = defaultdict(int)
            for msg in self._outgoing:
                per_edge[(msg.sender, msg.receiver)] += msg.bits
            for (u, v), bits in per_edge.items():
                if bits > self.bandwidth:
                    raise BandwidthExceeded(
                        f"{bits} bits queued on edge {u!r}->{v!r} in one round "
                        f"(B={self.bandwidth})"
                    )
        for msg in self._outgoing:
            queue = self._links.get((msg.sender, msg.receiver))
            if queue is None:
                queue = self._links[(msg.sender, msg.receiver)] = deque()
            queue.append(msg)
        self._outgoing = []

    def has_outgoing(self) -> bool:
        return bool(self._outgoing)

    # -- advancing -------------------------------------------------------------

    def deliver_round(self) -> dict[Hashable, list[Received]]:
        """Move B bits along every directed edge; collect completed messages."""
        inboxes: dict[Hashable, list[Received]] = defaultdict(list)
        round_bits = 0
        drained: list[tuple[Hashable, Hashable]] = []
        for (sender, receiver), queue in self._links.items():
            budget = self.bandwidth
            while queue and budget > 0:
                msg = queue[0]
                moved = min(budget, msg.remaining)
                msg.remaining -= moved
                budget -= moved
                round_bits += moved
                if msg.remaining == 0:
                    queue.popleft()
                    inboxes[receiver].append(Received(sender, msg.payload, msg.bits))
            used = self.bandwidth - budget
            if used > self.max_edge_bits_per_round:
                self.max_edge_bits_per_round = used
            if not queue:
                drained.append((sender, receiver))
        # Drop drained queues so quiet links cost nothing: without this, a
        # long run pays O(every directed edge ever used) per round even
        # after all traffic has ceased.
        for key in drained:
            del self._links[key]
        self.per_round_bits.append(round_bits)
        return inboxes

    # -- inspection ------------------------------------------------------------

    def pending_traffic(self) -> int:
        """Bits still in flight: the sum over every queued message.

        The dense engine probes this only after a round that moved no bits,
        when no link was live before that round's flush, so the scan covers
        at most one round's sends.
        """
        return sum(msg.remaining for queue in self._links.values() for msg in queue)
