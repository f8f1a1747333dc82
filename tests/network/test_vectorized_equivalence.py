"""Vectorized engine vs the reference engine: identical SimResults.

The vectorized simulator is only allowed to be *faster*, never
*different*: over seeded traffic from every pattern, on the Fibonacci
cube, the hypercube and a faulted topology, both engines must produce
the same ``SimResult`` field for field -- latencies and hop counts (per
packet, in injection order), cycle count, throughput, drop/misroute
counters, stall/deadlock verdicts and max queue depth.  The faulted
scenarios exercise the dynamic model end to end: static and staged
node/link failures, under fault-aware and fault-oblivious routers
alike; the switching grid re-runs the whole contract under wormhole and
virtual-cut-through flow control (finite buffers, multi-flit packets,
virtual channels).
"""

import numpy as np
import pytest

from repro.cubes.hypercube import hypercube
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.routing import (
    AdaptiveRouter,
    BfsRouter,
    CanonicalRouter,
    GreedyRouter,
    RouteTable,
)
from repro.network.simulator import (
    NetworkSimulator,
    ReferenceSimulator,
    VectorizedSimulator,
)
from repro.network.topology import faulted_topology, topology_of
from repro.network.traffic import PATTERNS, flit_sizes, make_traffic


def _topologies():
    return {
        "fibonacci": topology_of(("11", 6)),
        "hypercube": topology_of(hypercube(4), name="Q4"),
        "faulted": faulted_topology(topology_of(("11", 7)), 3, seed=5),
    }


TOPOLOGIES = _topologies()


def _fault_plans(topo):
    """Two plans valid on any of the test topologies: everything failed
    up front, and failures striking while traffic is in flight."""
    u, v = next(iter(topo.graph.edges()))
    n = topo.num_nodes
    return {
        "static": FaultPlan(node_faults=((0, 2 % n),), link_faults=((0, u, v),)),
        "staged": FaultPlan(node_faults=((4, 3 % n),), link_faults=((9, u, v),)),
    }


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_engines_agree_on_every_pattern(topo_name, pattern):
    topo = TOPOLOGIES[topo_name]
    for seed, window in ((0, 1), (7, 25)):
        traffic = make_traffic(pattern, topo, 150, window, seed=seed)
        ref = ReferenceSimulator(topo).run(traffic)
        vec = VectorizedSimulator(topo).run(traffic)
        assert ref == vec, (topo_name, pattern, seed, window)


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
def test_engines_agree_under_cycle_cap(topo_name):
    """Truncated runs (saturated network, hard cap) must also agree."""
    topo = TOPOLOGIES[topo_name]
    traffic = make_traffic("hotspot", topo, 200, 1, seed=3)
    for cap in (1, 5, 23):
        ref = ReferenceSimulator(topo).run(traffic, max_cycles=cap)
        vec = VectorizedSimulator(topo).run(traffic, max_cycles=cap)
        assert ref == vec, cap
        assert ref.cycles <= cap


@pytest.mark.parametrize("topo_name", ["fibonacci", "hypercube", "faulted"])
@pytest.mark.parametrize("plan_name", ["static", "staged"])
@pytest.mark.parametrize(
    "make_router", [AdaptiveRouter, BfsRouter, CanonicalRouter],
    ids=["adaptive", "bfs", "canonical"],
)
def test_engines_agree_under_faults(topo_name, plan_name, make_router):
    """The acceptance grid: >= 3 topologies x 2 fault plans x 3 routers,
    bit-identical SimResults including drop/misroute counters."""
    topo = TOPOLOGIES[topo_name]
    plan = _fault_plans(topo)[plan_name]
    router = make_router()
    for pattern, seed in (("uniform", 1), ("hotspot", 3)):
        traffic = make_traffic(pattern, topo, 200, 12, seed=seed)
        ref = ReferenceSimulator(topo, router).run(traffic, faults=plan)
        vec = VectorizedSimulator(topo, router).run(traffic, faults=plan)
        assert ref == vec, (topo_name, plan_name, router.name, pattern)
        assert ref.delivered + ref.dropped <= ref.injected


def test_engines_agree_under_faults_with_cycle_cap():
    topo = TOPOLOGIES["fibonacci"]
    plan = _fault_plans(topo)["staged"]
    traffic = make_traffic("hotspot", topo, 200, 1, seed=3)
    for cap in (1, 5, 23):
        ref = ReferenceSimulator(topo, AdaptiveRouter()).run(
            traffic, max_cycles=cap, faults=plan
        )
        vec = VectorizedSimulator(topo, AdaptiveRouter()).run(
            traffic, max_cycles=cap, faults=plan
        )
        assert ref == vec, cap
        assert ref.cycles <= cap


FLOWS = {
    "sf": ("sf", "1"),
    "wormhole": (FlowControl("wormhole", buffer_depth=2, num_vcs=2), "1-5"),
    "vct": (FlowControl("vct", buffer_depth=6, num_vcs=2), "1-5"),
}


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("flow_name", sorted(FLOWS))
@pytest.mark.parametrize(
    "make_router", [AdaptiveRouter, BfsRouter, CanonicalRouter],
    ids=["adaptive", "bfs", "canonical"],
)
@pytest.mark.parametrize("plan_name", ["none", "static", "staged"])
def test_engines_agree_in_every_switching_mode(
    topo_name, flow_name, make_router, plan_name
):
    """The flow-control acceptance grid: 3 topologies x 3 switching
    modes x 3 routers x (no faults + 2 fault plans), multi-flit traffic,
    bit-identical SimResults including the new stalled/deadlocked
    fields."""
    topo = TOPOLOGIES[topo_name]
    flow, flit_spec = FLOWS[flow_name]
    plan = None if plan_name == "none" else _fault_plans(topo)[plan_name]
    router = make_router()
    traffic = make_traffic("uniform", topo, 150, 12, seed=1)
    sizes = flit_sizes(len(traffic), flit_spec, seed=2)
    ref = ReferenceSimulator(topo, router).run(
        traffic, faults=plan, switching=flow, flits=sizes
    )
    vec = VectorizedSimulator(topo, router).run(
        traffic, faults=plan, switching=flow, flits=sizes
    )
    assert ref == vec, (topo_name, flow_name, router.name, plan_name)
    assert ref.delivered + ref.dropped + ref.stalled == ref.injected


@pytest.mark.parametrize("flow_name", ["wormhole", "vct"])
def test_engines_agree_in_flow_modes_under_cycle_cap(flow_name):
    topo = TOPOLOGIES["fibonacci"]
    flow, flit_spec = FLOWS[flow_name]
    traffic = make_traffic("hotspot", topo, 200, 1, seed=3)
    sizes = flit_sizes(len(traffic), flit_spec, seed=4)
    for cap in (1, 5, 23):
        ref = ReferenceSimulator(topo).run(
            traffic, max_cycles=cap, switching=flow, flits=sizes
        )
        vec = VectorizedSimulator(topo).run(
            traffic, max_cycles=cap, switching=flow, flits=sizes
        )
        assert ref == vec, (flow_name, cap)
        assert ref.cycles <= cap


def test_negative_injection_cycles_rejected_by_both_engines():
    """Regression: the vectorized engine used to start counting at the
    (negative) first injection cycle while the reference engine started
    at 0 and injected late -- silently diverging latencies and cycle
    counts.  Both engines now reject negative cycles up front, on every
    preparation path."""
    topo = TOPOLOGIES["fibonacci"]
    traffic = [(-3, 0, 5), (0, 1, 4), (2, 3, 6)]
    table = BfsRouter().build_table(topo, [(s, d) for _, s, d in traffic])
    plan = _fault_plans(topo)["staged"]
    for sim in (ReferenceSimulator(topo), VectorizedSimulator(topo)):
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(traffic)
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(traffic, route_table=table)
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(traffic, faults=plan)
        with pytest.raises(ValueError, match="non-negative"):
            sim.run(traffic, switching=FlowControl("wormhole"), flits=2)


def test_faults_and_route_table_are_mutually_exclusive():
    topo = TOPOLOGIES["hypercube"]
    plan = _fault_plans(topo)["static"]
    traffic = make_traffic("uniform", topo, 50, 5, seed=0)
    table = BfsRouter().build_table(topo, [(s, d) for _, s, d in traffic])
    for sim in (ReferenceSimulator(topo), VectorizedSimulator(topo)):
        with pytest.raises(ValueError, match="route_table or faults"):
            sim.run(traffic, route_table=table, faults=plan)


def test_epoch_whose_every_packet_has_a_dead_endpoint():
    """Regression: an epoch routing no pair at all (every packet injected
    after the fault touches the dead node) between two routed epochs."""
    topo = TOPOLOGIES["fibonacci"]
    plan = FaultPlan(node_faults=((5, 3),), link_faults=((9, 0, 1),))
    traffic = [(0, 0, 6), (6, 3, 7), (7, 2, 3), (10, 0, 7)]
    ref = ReferenceSimulator(topo).run(traffic, faults=plan)
    vec = VectorizedSimulator(topo).run(traffic, faults=plan)
    assert ref == vec
    assert ref.injected == 4 and ref.dropped >= 2


def test_empty_fault_plan_is_a_no_op():
    topo = TOPOLOGIES["fibonacci"]
    traffic = make_traffic("uniform", topo, 150, 10, seed=4)
    plain = VectorizedSimulator(topo).run(traffic)
    empty = VectorizedSimulator(topo).run(traffic, faults=FaultPlan())
    assert plain == empty


def test_engines_agree_with_droppy_router():
    """GreedyRouter fails some pairs on Q_d(101): drops must match too."""
    topo = topology_of(("101", 4))
    traffic = make_traffic("uniform", topo, 120, 10, seed=2)
    ref = ReferenceSimulator(topo, GreedyRouter()).run(traffic)
    vec = VectorizedSimulator(topo, GreedyRouter()).run(traffic)
    assert ref == vec
    assert ref.delivery_rate < 1.0


def test_engines_agree_with_canonical_router():
    topo = TOPOLOGIES["fibonacci"]
    traffic = make_traffic("transpose", topo, 150, 12, seed=11)
    ref = ReferenceSimulator(topo, CanonicalRouter()).run(traffic)
    vec = VectorizedSimulator(topo, CanonicalRouter()).run(traffic)
    assert ref == vec


def test_engines_agree_on_shared_route_table():
    """Passing one prebuilt table to both engines changes nothing."""
    topo = TOPOLOGIES["hypercube"]
    traffic = make_traffic("uniform", topo, 200, 15, seed=9)
    table = BfsRouter().build_table(topo, [(s, d) for _, s, d in traffic])
    ref = ReferenceSimulator(topo).run(traffic, route_table=table)
    vec = VectorizedSimulator(topo).run(traffic, route_table=table)
    bare = VectorizedSimulator(topo).run(traffic)
    assert ref == vec == bare


def test_batched_table_matches_per_pair_routes():
    """BfsRouter.build_table must return exactly route()'s paths."""
    topo = TOPOLOGIES["faulted"]
    router = BfsRouter()
    pairs = [(s, d) for s in range(topo.num_nodes) for d in range(topo.num_nodes)]
    table = router.build_table(topo, pairs)
    for pair in pairs:
        row = table.pair_row[pair]
        expected = router.route(topo, *pair)
        if expected is None:
            assert row == -1
        else:
            assert table.route_nodes(row).tolist() == expected, pair


def test_generic_build_matches_batched_build():
    class RouteOnly:
        """BfsRouter without its batched build: the per-pair path."""

        route = BfsRouter().route

    topo = TOPOLOGIES["fibonacci"]
    pairs = [(s, (s + 3) % topo.num_nodes) for s in range(topo.num_nodes)]
    generic = RouteTable.build(topo, RouteOnly(), pairs)
    batched = BfsRouter().build_table(topo, pairs)
    for pair in pairs:
        g, b = generic.pair_row[pair], batched.pair_row[pair]
        assert (g < 0) == (b < 0)
        if g >= 0:
            assert generic.route_nodes(g).tolist() == batched.route_nodes(b).tolist()


def test_route_table_build_dispatches_to_batched_build():
    """RouteTable.build is the one entry point: a router with its own
    build_table builds the table itself."""
    topo = TOPOLOGIES["fibonacci"]
    pairs = [(s, (s * 5) % topo.num_nodes) for s in range(topo.num_nodes)]
    via_build = RouteTable.build(topo, BfsRouter(), pairs)
    direct = BfsRouter().build_table(topo, pairs)
    assert via_build.pair_row == direct.pair_row
    assert np.array_equal(via_build.route_data, direct.route_data)
    assert np.array_equal(via_build.route_offsets, direct.route_offsets)


def test_default_simulator_is_vectorized():
    assert issubclass(NetworkSimulator, VectorizedSimulator)


def test_empty_traffic():
    topo = TOPOLOGIES["hypercube"]
    ref = ReferenceSimulator(topo).run([])
    vec = VectorizedSimulator(topo).run([])
    assert ref == vec
    assert ref.cycles == 1 and ref.injected == 0 and ref.latencies == ()


def test_unsorted_traffic_is_stable_sorted():
    """Triples may arrive in any order; engines sort by cycle, stably."""
    topo = TOPOLOGIES["fibonacci"]
    traffic = [(5, 0, 3), (0, 1, 4), (5, 2, 6), (2, 3, 1)]
    ref = ReferenceSimulator(topo).run(traffic)
    vec = VectorizedSimulator(topo).run(traffic)
    assert ref == vec
    assert ref.delivered == 4
