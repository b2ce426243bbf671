"""Running the same work on the event engine and on the CONGEST spec.

The algorithm runners build their own ``CongestNetwork``; :func:`on_spec`
re-points that name, in every ``repro`` module that imported it, at
:class:`tests.congest_spec.SpecNetwork` for the duration of a block.
:func:`on_both` runs a zero-argument call once on the event engine and
once on the spec, :func:`assert_same_run` compares every ``RunResult``
field, and :data:`NETWORKS` runs a test once per network class.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.congest.network import CongestNetwork
from tests.congest_spec import SpecNetwork

#: Parametrizes a test's ``network_cls`` over the event network and the spec.
NETWORKS = pytest.mark.parametrize(
    "network_cls", [CongestNetwork, SpecNetwork], ids=["event", "spec"]
)

#: Every RunResult field; outputs are compared by repr.
RUN_FIELDS = (
    "rounds",
    "total_messages",
    "total_bits",
    "halted",
    "max_edge_bits_per_round",
    "per_round_bits",
    "fault_stats",
)


@contextmanager
def on_spec():
    """Route every ``CongestNetwork`` a ``repro`` module builds to the spec."""
    patched = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "CongestNetwork", None) is CongestNetwork
    ]
    for module in patched:
        module.CongestNetwork = SpecNetwork
    try:
        yield
    finally:
        for module in patched:
            module.CongestNetwork = CongestNetwork


def on_both(call):
    """``(call() on the event engine, call() on the spec)``."""
    event = call()
    with on_spec():
        spec = call()
    return event, spec


def assert_same_run(spec, event) -> None:
    """Field-for-field ``RunResult`` equality against the spec."""
    for name in RUN_FIELDS:
        assert getattr(event, name) == getattr(spec, name), name
    assert list(event.outputs) == list(spec.outputs)
    for nid, output in spec.outputs.items():
        assert repr(event.outputs[nid]) == repr(output), nid
