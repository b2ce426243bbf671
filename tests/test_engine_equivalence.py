"""The event engine against the CONGEST spec.

Every algorithm family runs on the event engine and on the literal spec in
``tests/congest_spec.py`` over seeded graphs; the full ``RunResult`` must
match field for field (rounds, bits, messages, outputs, halted, the
per-round bit trace, the peak per-edge load and the fault counters), and
so must the message log where it is recorded.  The spec shares no code
with the engine stack: it steps every live node every round over its own
per-edge FIFO links and applies fault plans itself, so an idleness hint
that skips a round that mattered, a skip that moves the wrong number of
bits, or a fault applied out of order shows up here as a divergence.  MST
programs on the spec use the per-neighbour min-edge scan (the spec's node
handle offers no ``MinEdgeIndex``), so those runs also check the index.

Each check also runs once under an enabled tracer, which takes the
trace-gated branches of the engine and of the columnar flush.
"""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.centralised import run_centralised
from repro.algorithms.elkin import StagedLabelFloodProgram, quantise_weights, run_elkin_approx_mst
from repro.algorithms.framework import (
    BfsTreePhase,
    BroadcastPhase,
    ConvergecastPhase,
    LeaderElectionPhase,
    LocalComputationPhase,
    PhasedProgram,
    PipelinedDowncastPhase,
    PipelinedUpcastPhase,
)
from repro.algorithms.mst import run_boruvka_mst, run_gkp_mst, tree_weight
from repro.algorithms.paths import run_bellman_ford, run_refreshing_bellman_ford
from repro.algorithms.verification import run_verification
from repro.congest.columnar import BandwidthExceeded
from repro.congest.engine import get_engine
from repro.congest.faults import CrashSpan, FaultPlan, TopologyEvent
from repro.congest.network import CongestNetwork, run_program
from repro.congest.node import NodeProgram
from repro.graphs.generators import random_connected_graph
from repro.obs.trace import CollectingTracer, use_tracer
from tests import congest_spec
from tests.congest_spec import SpecNetwork
from tests.spec_harness import assert_same_run, on_both

#: The event engine plain, and again with the whole test under a
#: collecting tracer.
ENGINES = ("event", "traced")


@pytest.fixture(params=ENGINES)
def engine(request):
    """The engine name a test runs against the spec.

    In the ``traced`` case the whole test runs under an enabled tracer.
    The engine and ``ColumnarTransport.flush`` take trace-gated branches
    then, and those branches must not move a single round, bit or output.
    """
    if request.param != "traced":
        yield request.param
        return
    tracer = CollectingTracer()
    with use_tracer(tracer):
        yield "event"
    # The traced case must really have run the event stack traced.
    names = {line["name"] for line in tracer.by_kind("event")}
    assert "columnar_summary" in names
    assert tracer.by_kind("round")


def _weighted(n, seed, extra_edge_prob=0.1):
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    import random as _random

    rng = _random.Random(seed + 1)
    weights = rng.sample(range(1, 10 * graph.number_of_edges() + 1), graph.number_of_edges())
    for (u, v), w in zip(graph.edges(), weights):
        graph.edges[u, v]["weight"] = float(w)
    return graph


def _both_networks(graph, factory, run_kwargs=None, **kwargs):
    """Build and run the same network on the event engine and on the spec;
    returns ``{"event": (network, result), "spec": (network, result)}``."""
    runs = {}
    for name, cls in (("event", CongestNetwork), ("spec", SpecNetwork)):
        network = cls(graph, factory, **kwargs)
        runs[name] = (network, network.run(**(run_kwargs or {})))
    return runs


class TestMstEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_gkp_mst(self, seed, engine):
        graph = _weighted(26, seed)
        (edges, event), (spec_edges, spec) = on_both(
            lambda: run_gkp_mst(graph, bandwidth=128, seed=0, engine=engine)
        )
        assert_same_run(spec, event)
        assert edges == spec_edges
        reference = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True)
        )
        assert abs(tree_weight(graph, edges) - reference) < 1e-9

    def test_boruvka_mst(self, engine):
        graph = _weighted(16, 3)
        (edges, event), (spec_edges, spec) = on_both(
            lambda: run_boruvka_mst(graph, bandwidth=128, seed=0, engine=engine)
        )
        assert_same_run(spec, event)
        assert edges == spec_edges

    def test_elkin_staged_flood(self, engine):
        graph = _weighted(24, 11)
        (weight, event), (spec_weight, spec) = on_both(
            lambda: run_elkin_approx_mst(graph, alpha=2.0, engine=engine)
        )
        assert_same_run(spec, event)
        assert weight == spec_weight


class TestVerificationEquivalence:
    @pytest.mark.parametrize(
        "problem", ["spanning tree", "connectivity", "bipartiteness", "s-t connectivity", "cut"]
    )
    def test_verifiers(self, problem, engine):
        graph = random_connected_graph(18, extra_edge_prob=0.15, seed=5)
        tree = nx.bfs_tree(graph, source=min(graph.nodes())).to_undirected()
        m_edges = list(tree.edges())
        nodes = sorted(graph.nodes())
        kwargs = {"s": nodes[0], "t": nodes[-1]}
        (verdict, event), (spec_verdict, spec) = on_both(
            lambda: run_verification(
                problem, graph, m_edges, bandwidth=64, seed=0, engine=engine, **kwargs
            )
        )
        assert_same_run(spec, event)
        assert verdict == spec_verdict


#: verification-suite's point whose genuine BFS tree fails ``spanning
#: tree`` and ``connectivity`` at the default B=64: the pipelined gather
#: phases assume one item per round, and items of more than B bits still in
#: flight at a phase boundary are lost (ROADMAP item 1).
LOSSY_POINT_SEED = 10778080037487600564


def _verification_point(problem, bandwidth):
    """verification-suite's run at LOSSY_POINT_SEED (n=40, defaults)."""
    graph = random_connected_graph(40, extra_edge_prob=0.1, seed=LOSSY_POINT_SEED)
    tree = nx.bfs_tree(graph, source=min(graph.nodes())).to_undirected()
    nodes = sorted(graph.nodes())
    return run_verification(
        problem, graph, list(tree.edges()), bandwidth=bandwidth,
        seed=LOSSY_POINT_SEED, s=nodes[0], t=nodes[-1],
    )


class TestPipelinedPhaseLoss:
    @pytest.mark.parametrize("problem", ["spanning tree", "connectivity"])
    def test_the_loss_is_the_phase_design_not_an_engine(self, problem):
        (verdict, event), (spec_verdict, spec) = on_both(
            lambda: _verification_point(problem, 64)
        )
        assert_same_run(spec, event)
        assert (verdict, spec_verdict, spec.rounds) == (False, False, 71)
        (wide, wide_run), (spec_wide, _) = on_both(lambda: _verification_point(problem, 128))
        assert (wide, spec_wide, wide_run.rounds) == (True, True, 71)

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: pipelined phases lose items wider than B"
    )
    @pytest.mark.parametrize("problem", ["spanning tree", "connectivity"])
    def test_genuine_tree_verifies_at_the_default_bandwidth(self, problem):
        verdict, _ = _verification_point(problem, 64)
        assert verdict is True


class TestQuiescenceEquivalence:
    @pytest.mark.parametrize("seed", [2, 9])
    def test_bellman_ford(self, seed, engine):
        graph = _weighted(25, seed)
        source = min(graph.nodes())
        (dist, event), (spec_dist, spec) = on_both(
            lambda: run_bellman_ford(graph, source, engine=engine)
        )
        assert_same_run(spec, event)
        assert dist == spec_dist
        expected = nx.single_source_dijkstra_path_length(graph, source)
        assert dist == pytest.approx(expected)

    def test_quiescent_from_start(self, engine):
        # No program ever sends: both stop at the same round under
        # quiescence detection.
        class Silent(NodeProgram):
            def on_round(self, node, round_no, inbox):
                pass

        runs = _both_networks(
            nx.path_graph(4), Silent, bandwidth=8, engine=engine,
            run_kwargs={"max_rounds": 500, "stop_on_quiescence": True},
        )
        assert_same_run(runs["spec"][1], runs["event"][1])

    def test_max_rounds_without_halting(self, engine):
        # Nodes never halt and traffic dies out: the event engine must idle
        # the clock out to max_rounds exactly like the spec.
        class OneShot(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.broadcast(("x",))

            def on_round(self, node, round_no, inbox):
                pass

            def next_active_round(self, node, after_round):
                return None  # reactive only

        runs = _both_networks(
            nx.path_graph(3), OneShot, bandwidth=8, engine=engine,
            run_kwargs={"max_rounds": 300},
        )
        assert_same_run(runs["spec"][1], runs["event"][1])
        assert runs["event"][1].rounds == 300
        assert not runs["event"][1].halted


class TestFrameworkEquivalence:
    def test_leader_bfs_convergecast_broadcast(self, engine):
        graph = random_connected_graph(20, extra_edge_prob=0.1, seed=4)
        d = nx.diameter(graph)
        inputs = {node: {"diameter_bound": d} for node in graph.nodes()}

        def phases():
            return [
                LeaderElectionPhase(),
                BfsTreePhase(),
                ConvergecastPhase("total", lambda node, shared: 1, lambda a, b: a + b),
                LocalComputationPhase(
                    lambda node, shared: shared.update(
                        total=shared["total"] if shared["parent"] is None else None
                    )
                ),
                BroadcastPhase("total"),
                LocalComputationPhase(lambda node, shared: shared.update(output=shared["total"])),
            ]

        runs = _both_networks(
            graph, lambda: PhasedProgram(phases()), bandwidth=64, inputs=inputs, engine=engine
        )
        assert_same_run(runs["spec"][1], runs["event"][1])
        assert runs["event"][1].unanimous_output() == 20

    def test_pipelined_up_and_downcast(self, engine):
        graph = random_connected_graph(12, extra_edge_prob=0.1, seed=8)
        d = nx.diameter(graph)
        inputs = {node: {"diameter_bound": d} for node in graph.nodes()}

        def stage(node, shared):
            shared["items"] = [int(str(node.id))]
            shared["cap"] = 14

        def restage(node, shared):
            shared["down"] = shared["collected"] if shared["parent"] is None else []

        def phases():
            return [
                LeaderElectionPhase(),
                BfsTreePhase(),
                LocalComputationPhase(stage),
                PipelinedUpcastPhase("items", "collected", "cap"),
                LocalComputationPhase(restage),
                PipelinedDowncastPhase("down", "cap"),
                LocalComputationPhase(
                    lambda node, shared: shared.update(output=sorted(shared["down"]))
                ),
            ]

        runs = _both_networks(
            graph, lambda: PhasedProgram(phases()), bandwidth=128, inputs=inputs, engine=engine
        )
        assert_same_run(runs["spec"][1], runs["event"][1])
        assert runs["event"][1].unanimous_output() == sorted(range(12))

    def test_centralised_skeleton(self, engine):
        graph = _weighted(14, 6)
        (answer, event), (spec_answer, spec) = on_both(
            lambda: run_centralised(
                graph, lambda g: g.number_of_edges(), bandwidth=128, engine=engine
            )
        )
        assert_same_run(spec, event)
        assert answer == spec_answer == graph.number_of_edges()


class _Chatter(NodeProgram):
    """Hello to every neighbour, then an echo per delivery, then halt."""

    def __init__(self, last_round=5):
        self.last_round = last_round

    def on_start(self, node):
        node.broadcast(("hello", repr(node.id)), bits=16)

    def on_round(self, node, round_no, inbox):
        if round_no >= self.last_round:
            node.halt(len(inbox))
            return
        for msg in inbox:
            node.send(msg.sender, ("echo", round_no), bits=8)


class TestDefaultHintsEquivalence:
    def test_unhinted_program_runs_identically(self, engine):
        # A program with no idleness hints: the event engine degenerates to
        # stepping every node every round and must match exactly.
        class Broadcaster(NodeProgram):
            def on_start(self, node):
                node.broadcast(("r", 0), bits=8)

            def on_round(self, node, round_no, inbox):
                if round_no >= 6:
                    node.halt(len(inbox))
                    return
                node.broadcast(("r", round_no), bits=8)

        graph = random_connected_graph(10, extra_edge_prob=0.2, seed=12)
        runs = _both_networks(graph, Broadcaster, bandwidth=8, engine=engine)
        assert_same_run(runs["spec"][1], runs["event"][1])


class TestMessageLogEquivalence:
    def test_opt_in_message_log_is_byte_identical(self, engine):
        """record_messages=True: the (round, sender, receiver, bits) log --
        an *ordered* artifact -- must come out identical, which pins the
        engine's node-id step order exactly."""
        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=21)
        runs = _both_networks(graph, _Chatter, bandwidth=16, engine=engine, record_messages=True)
        (spec_net, spec), (event_net, event) = runs["spec"], runs["event"]
        assert_same_run(spec, event)
        assert event_net.message_log == spec_net.message_log
        assert len(spec_net.message_log) == spec.total_messages


class TestStrictErrorPath:
    def test_strict_error_path_matches_the_spec(self):
        """A strict-mode violation mid-round: the engine must raise the same
        error as the spec AND leave the same totals -- sends staged by
        nodes before the offender count."""

        class OneOversized(NodeProgram):
            def on_start(self, node):
                node.broadcast(("warmup",), bits=4)

            def on_round(self, node, round_no, inbox):
                if node.id == 5:
                    node.send(node.neighbors[0], ("too-big",), bits=999)
                else:
                    node.broadcast(("ok", round_no), bits=4)

        outcomes = {}
        for name, cls, error in (
            ("event", CongestNetwork, BandwidthExceeded),
            ("spec", SpecNetwork, congest_spec.BandwidthExceeded),
        ):
            network = cls(nx.path_graph(8), OneOversized, bandwidth=8, strict=True)
            with pytest.raises(error) as info:
                network.run(max_rounds=10)
            outcomes[name] = (str(info.value), network.total_messages, network.total_bits)
        assert outcomes["event"] == outcomes["spec"]

    def test_strict_per_edge_overflow_matches_the_spec(self):
        class TwoHalves(NodeProgram):
            def on_start(self, node):
                if node.id == 1:
                    node.send(2, ("a",), bits=5)
                    node.send(2, ("b",), bits=5)

            def on_round(self, node, round_no, inbox):
                pass

        outcomes = {}
        for name, cls, error in (
            ("event", CongestNetwork, BandwidthExceeded),
            ("spec", SpecNetwork, congest_spec.BandwidthExceeded),
        ):
            network = cls(nx.path_graph(4), TwoHalves, bandwidth=8, strict=True)
            with pytest.raises(error) as info:
                network.run(max_rounds=3)
            outcomes[name] = (str(info.value), network.total_messages, network.total_bits)
        assert outcomes["event"] == outcomes["spec"]
        assert outcomes["spec"][0] == "10 bits queued on edge 1->2 in one round (B=8)"


class TestEngineNames:
    def test_get_engine_knows_only_the_event_engine(self):
        # The dense reference (now the spec), the thread-sharded engine,
        # the kernel-pinned columnar names, the columnar engine (now the
        # event engine's stack) and auto-selection.
        retired = ["dense", "parallel", "columnar", "auto"] + [
            f"columnar-{kernels}" for kernels in ("stdlib", "numpy")
        ]
        for name in retired:
            with pytest.raises(ValueError, match="unknown engine") as info:
                get_engine(name)
            assert "'event'" in str(info.value)
        with pytest.raises(ValueError, match="thread"):
            get_engine("event", threads=2)
        # Accepted for callers that pass the workload, and ignored.
        assert get_engine("event", threads=None, graph=nx.path_graph(3)).name == "event"
        engine = get_engine("event")
        assert get_engine(engine) is engine


class TestFaultEquivalence:
    """Faults keep the contract twice over: an *empty* plan is a transparent
    wrapper (byte-identical to no plan at all, message log included), and a
    *nontrivial* plan produces the same faulted run as the spec, because
    each decision hashes ``(seed, round, edge, msg_index)`` and nothing
    engine-shaped."""

    def test_empty_plan_is_byte_identical_to_no_plan(self, engine):
        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=21)
        runs = {}
        for faults in (None, FaultPlan()):
            network = CongestNetwork(
                graph, _Chatter, bandwidth=16, engine=engine, record_messages=True, faults=faults
            )
            runs[faults is None] = (network.run(), list(network.message_log))
        bare, bare_log = runs[True]
        wrapped, wrapped_log = runs[False]
        assert_same_run(bare, wrapped)
        assert wrapped_log == bare_log
        assert bare.fault_stats is None and wrapped.fault_stats is None

    def test_nontrivial_plan_matches_the_spec(self, engine):
        graph = _weighted(20, 17)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph,
            seed=6,
            drop_prob=0.1,
            dup_prob=0.05,
            reorder_prob=0.1,
            n_crashes=2,
            crash_length=5,
            n_edge_deletes=1,
            n_edge_inserts=1,
            window=(1, 30),
            protect=[source],
        )
        (dists, event), (spec_dists, spec) = on_both(
            lambda: run_refreshing_bellman_ford(
                graph, source, max_rounds=50, engine=engine, faults=plan
            )
        )
        assert_same_run(spec, event)
        assert dists == spec_dists
        assert event.fault_stats["drops"] > 0

    def test_faulted_message_log_is_byte_identical(self, engine):
        """record_messages under a plan: the offered-load log (drops
        included, duplicates not) is an ordered artifact and must agree
        with the spec exactly."""
        graph = random_connected_graph(12, extra_edge_prob=0.2, seed=30)
        plan = FaultPlan(seed=8, drop_prob=0.2, dup_prob=0.1, crashes=((5, 3, 7),))
        runs = _both_networks(
            graph, lambda: _Chatter(8), bandwidth=16, engine=engine, record_messages=True,
            faults=plan,
        )
        (spec_net, spec), (event_net, event) = runs["spec"], runs["event"]
        assert_same_run(spec, event)
        assert event_net.message_log == spec_net.message_log
        assert len(spec_net.message_log) == spec.total_messages


class TestEventEngineSkips:
    def test_quiet_rounds_are_not_stepped(self, engine):
        # The Elkin staged flood is mostly quiet by design: the event engine
        # must step far fewer node-rounds than the n x rounds grid.
        graph = _weighted(24, 11)
        classes, n_classes = quantise_weights(graph, 2.0)
        inputs = {
            node: {
                "edge_classes": {
                    repr(neighbor): classes[frozenset((node, neighbor))]
                    for neighbor in graph.neighbors(node)
                },
                "n_classes": n_classes,
                "tail": graph.number_of_nodes(),
            }
            for node in graph.nodes()
        }
        network = CongestNetwork(
            graph, StagedLabelFloodProgram, bandwidth=64, seed=0, inputs=inputs, engine=engine
        )
        result = network.run(max_rounds=200_000)
        assert network.engine.node_steps < result.rounds * graph.number_of_nodes() / 3


class TestWorkCounters:
    """Exact event-engine work at the large Fig. 3 and Boruvka points
    (Fig. 3 at n=60, W=32768; Boruvka at n=96 on the geometric/euclidean
    instance), with ``graph_seed`` 17 and seed 0.  Work counters are
    noise-free, so a scheduling regression fails here exactly.
    ``node_steps`` counts ``on_round`` calls; the spec, like any
    step-every-node scheduler, makes ``n x rounds`` of them."""

    @pytest.fixture(autouse=True)
    def _scenarios(self):
        # The instances come from the scenario module, which imports the
        # numpy-bound core modules.
        pytest.importorskip("numpy")

    def test_fig3_point(self):
        from repro.experiments.scenarios import _fig3_graph

        graph = _fig3_graph(0, 60, 32768.0, 0.08, 17)
        elkin_engine, gkp_engine = get_engine("event"), get_engine("event")
        _, elkin = run_elkin_approx_mst(graph, alpha=2.0, engine=elkin_engine)
        _, gkp = run_gkp_mst(graph, bandwidth=128, engine=gkp_engine)
        assert (elkin_engine.node_steps, elkin.rounds) == (1_099, 16_444)
        assert (gkp_engine.node_steps, gkp.rounds) == (4_707, 1_463)
        assert (60 * elkin.rounds, 60 * gkp.rounds) == (986_640, 87_780)

    def test_boruvka_point(self):
        from repro.experiments import get_scenario

        scn = get_scenario("boruvka-mst-sweep")
        params = scn.resolve_params(
            {"n": 96, "generator": "geometric", "weight_model": "euclidean"}
        )
        result = scn.run(params, seed=0)
        assert result["exact"]
        assert (result["node_steps"], result["rounds"]) == (4_272, 1_585)
        assert result["n"] * result["rounds"] == 152_160


# -- random programs x graphs x plans -------------------------------------------


class _RandomProgram(NodeProgram):
    """A program drawn by Hypothesis that keeps the idleness contract.

    It acts on its scheduled rounds (every ``period``-th round up to
    ``horizon``; none when ``period`` is 0, a purely reactive program) and
    on every round with deliveries, and does nothing at all otherwise.  An
    action records the inbox, sends a few messages of random size (some
    sized by ``bit_size``) to neighbours it knew at the start or has now
    -- a deleted link makes those sends stale -- and halts once past
    ``halt_after``.  Every choice comes from the node's private RNG, so any
    divergence in which rounds a node acts in, or what it receives,
    changes its output.
    """

    def __init__(self, period, horizon, halt_after):
        self.period = period
        self.horizon = horizon
        self.halt_after = halt_after

    def on_start(self, node):
        self.known = tuple(node.neighbors)
        self.history = []
        self._act(node, 0, [])

    def on_round(self, node, round_no, inbox):
        if inbox or self._scheduled(round_no):
            self._act(node, round_no, inbox)

    def next_active_round(self, node, after_round):
        if not self.period:
            return None
        nxt = after_round + self.period - after_round % self.period
        return nxt if nxt <= self.horizon else None

    def _scheduled(self, round_no):
        return bool(self.period) and round_no % self.period == 0 and round_no <= self.horizon

    def _act(self, node, round_no, inbox):
        self.history.append((round_no, [(repr(m.sender), m.payload, m.bits) for m in inbox]))
        node.output = tuple(self.history)
        if round_no > self.halt_after:
            node.halt(node.output)
            return
        targets = sorted(set(self.known) | set(node.neighbors), key=repr)
        rng = node.rng
        burst = rng.choice(targets) if targets and rng.random() < 0.5 else None
        for k in range(rng.randrange(4)):
            bits = rng.choice([None, rng.randrange(1, 3 * node.bandwidth + 1)])
            payload = ("m", repr(node.id), round_no, k)
            if not targets or rng.random() < 0.2:
                node.broadcast(payload, bits=bits)
            else:
                node.send(burst if burst is not None else rng.choice(targets), payload, bits=bits)


@st.composite
def _cases(draw):
    """(graph, program args per node, bandwidth, plan, run kwargs)."""
    n = draw(st.integers(1, 10))
    # Node ids whose repr order differs from their numeric order.
    ids = [7 * i for i in range(1, n + 1)]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    for u, v in edges:
        graph.add_edge(u, v, weight=float(draw(st.integers(1, 50))))
    programs = {
        nid: (draw(st.integers(0, 3)), draw(st.integers(0, 30)), draw(st.integers(0, 20)))
        for nid in ids
    }
    bandwidth = draw(st.sampled_from([1, 3, 8, 16, 64]))
    probability = st.sampled_from([0.0, 0.1, 0.3, 0.6])
    crashes = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.integers(1, 12), st.integers(1, 8)).map(
                lambda t: CrashSpan(t[0], t[1], t[1] + t[2])
            ),
            max_size=3,
        )
    )
    deletes = draw(st.lists(st.sampled_from(edges), unique=True, max_size=3)) if edges else []
    inserts = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2)) if pairs else []
    events = [TopologyEvent(draw(st.integers(1, 20)), "delete", u, v) for u, v in deletes]
    events += [
        TopologyEvent(draw(st.integers(1, 20)), "insert", u, v, float(draw(st.integers(1, 50))))
        for u, v in inserts
    ]
    lo, span = draw(st.integers(0, 10)), draw(st.integers(0, 20))
    kind = draw(st.sampled_from(["none", "empty", "faulty", "faulty"]))
    plan = None if kind == "none" else FaultPlan()
    if kind == "faulty":
        plan = FaultPlan(
            seed=draw(st.integers(0, 2**32)),
            drop_prob=draw(probability),
            dup_prob=draw(probability),
            reorder_prob=draw(probability),
            crashes=tuple(crashes),
            topology_events=tuple(events),
            window=draw(st.sampled_from([None, (lo, lo + span)])),
        )
    run_kwargs = {
        "max_rounds": draw(st.integers(0, 45)),
        "stop_on_quiescence": draw(st.booleans()),
    }
    return graph, programs, bandwidth, plan, run_kwargs


class TestRandomProgramsMatchTheSpec:
    @given(_cases(), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_event_engine_matches_the_spec(self, case, seed):
        graph, programs, bandwidth, plan, run_kwargs = case
        runs = {}
        for name, cls in (("event", CongestNetwork), ("spec", SpecNetwork)):
            # Both build one program per node, in repr order.
            args = iter(programs[nid] for nid in sorted(graph.nodes(), key=repr))
            network = cls(
                graph, lambda: _RandomProgram(*next(args)), bandwidth=bandwidth, seed=seed,
                faults=plan, record_messages=True,
            )
            runs[name] = (network.run(**run_kwargs), network.message_log)
        (spec, spec_log), (event, event_log) = runs["spec"], runs["event"]
        assert_same_run(spec, event)
        assert event_log == spec_log
