"""Message payloads and bit-size accounting.

The CONGEST model charges by the bit, so every payload needs a defensible
size.  We use a simple self-delimiting encoding estimate: integers cost their
two's-complement length, floats a fixed 64 bits, containers the sum of their
parts plus a length header.  Callers may always override with an explicit
``bits=`` argument when a tighter encoding is intended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, NamedTuple

_FLOAT_BITS = 64
_HEADER_BITS = 8


@dataclass(frozen=True)
class QubitPayload:
    """A payload of ``n_qubits`` qubits travelling over a quantum link.

    The statevector itself is carried out-of-band by the algorithm (exact
    many-node quantum simulation is exponential); the simulator's job is the
    accounting: ``n_qubits`` qubits occupy ``n_qubits`` units of the per-edge
    budget ``B`` (Section 2.1: "at most B qubits can be sent through each
    edge in each direction").
    """

    n_qubits: int
    tag: Any = None

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("a qubit payload needs at least one qubit")


def bit_size(payload: Any) -> int:
    """Estimate the size of a payload in bits (qubits for quantum payloads)."""
    if isinstance(payload, QubitPayload):
        return payload.n_qubits
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length() + 1)  # sign bit
    if isinstance(payload, float):
        return _FLOAT_BITS
    if isinstance(payload, str):
        return _HEADER_BITS + 8 * len(payload)
    if isinstance(payload, bytes):
        return _HEADER_BITS + 8 * len(payload)
    if payload is None:
        return 1
    if isinstance(payload, (tuple, list)):
        return _HEADER_BITS + sum(bit_size(item) for item in payload)
    if isinstance(payload, frozenset):
        return _HEADER_BITS + sum(bit_size(item) for item in payload)
    if isinstance(payload, dict):
        return _HEADER_BITS + sum(bit_size(k) + bit_size(v) for k, v in payload.items())
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class Received(NamedTuple):
    """A message as seen by the receiving node.

    A named tuple rather than a frozen dataclass: one is allocated per
    delivered message on the hottest path of every engine, and tuple
    construction is several times cheaper than ``object.__setattr__``.
    """

    sender: Hashable
    payload: Any
    bits: int
