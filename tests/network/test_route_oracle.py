"""The per-graph healthy-distance oracle behind route tables and misroutes.

``BfsRouter.build_table``, the batch engine's misroute pass and
``route_stats`` all read one memoised ``(dist, toward)`` row pair per
destination, stored on the graph.  These tests pin its lifetime (a
mutation drops every row, a fault view keeps its own), its footprint
(int32, one row per destination routed to), the redundancy it removes
(one BFS per destination per graph, none on a repeated sweep point) and
the vectorised misroute counts against the scalar spec.
"""

import sys
import threading

import numpy as np
import pytest

from repro.cubes.hypercube import hypercube
from repro.graphs.core import Graph
from repro.graphs.traversal import bfs_distances
from repro.network import routing
from repro.network.batch import BatchItem, _prepare
from repro.network.faults import FaultPlan
from repro.network.routing import AdaptiveRouter, BfsRouter, route_stats
from repro.network.simulator import _misroute_hops
from repro.network.sweep import PointSpec, parse_topology, run_point
from repro.network.topology import topology_of
from repro.network.traffic import make_traffic


@pytest.fixture
def bfs_calls(monkeypatch):
    """Every ``routing.bfs_distances`` call as ``(graph, source)``."""
    calls = []
    plain = routing.bfs_distances

    def counting(graph, source):
        calls.append((graph, source))
        return plain(graph, source)

    monkeypatch.setattr(routing, "bfs_distances", counting)
    return calls


def _path_topology(n):
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return topology_of(g, name=f"P{n}")


class TestLifetime:
    def test_rows_are_int32_one_per_destination_routed_to(self):
        topo = _path_topology(6)
        BfsRouter().build_table(topo, [(0, 5), (1, 5), (4, 2), (3, 2)])
        rows = topo.graph.distance_rows()
        assert sorted(rows) == [2, 5]
        for dst, row in rows.items():
            assert row.dtype == np.int32 and row.shape == (2, 6)
            assert row[0].tolist() == [abs(v - dst) for v in range(6)]

    def test_mutation_drops_every_row(self):
        topo = _path_topology(5)
        before = BfsRouter().build_table(topo, [(0, 4)])
        assert before.route_nodes(0).tolist() == [0, 1, 2, 3, 4]
        topo.graph.add_edge(0, 4)
        assert topo.graph.distance_rows() == {}
        after = BfsRouter().build_table(topo, [(0, 4)])
        assert after.route_nodes(0).tolist() == [0, 4]
        assert route_stats(topo, BfsRouter(), [(0, 4)]).total_shortest == 1
        topo.graph.add_vertex()
        assert topo.graph.distance_rows() == {}

    def test_fault_view_keeps_its_own_rows(self):
        topo = topology_of(hypercube(3), name="Q3")
        pairs = [(s, d) for s in range(8) for d in range(8)]
        healthy = BfsRouter().build_table(topo, pairs)
        snapshot = {d: row.copy() for d, row in topo.graph.distance_rows().items()}
        view = topo.with_faults(FaultPlan(node_faults=((0, 1),), link_faults=((0, 0, 2),)))
        faulted = BfsRouter().build_table(view, pairs)
        assert view.graph is not topo.graph
        assert sorted(view.graph.distance_rows()) == list(range(8))
        rows = topo.graph.distance_rows()
        assert sorted(rows) == sorted(snapshot)
        assert all(np.array_equal(rows[d], snapshot[d]) for d in snapshot)
        assert healthy.pair_row[(0, 2)] >= 0 and faulted.pair_row[(0, 1)] == -1
        assert faulted.route_nodes(faulted.pair_row[(0, 2)]).size == 4  # detour

    def test_concurrent_builds_share_one_graph_safely(self):
        """Server worker threads build tables on one cached graph at
        once: a raced fill only recomputes an identical row, so every
        table equals the serial build and every row its own BFS."""
        topo = topology_of(hypercube(5), name="Q5")
        n = topo.num_nodes
        jobs = [[(s, (s * m + 1) % n) for s in range(n)] for m in range(3, 11)]
        serial = [BfsRouter().build_table(topology_of(hypercube(5)), p) for p in jobs]
        got = [None] * len(jobs)

        def build(i):
            got[i] = BfsRouter().build_table(topo, jobs[i])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):  # each round races a fresh, empty memo
                topo.graph.distance_rows().clear()
                threads = [threading.Thread(target=build, args=(i,)) for i in range(len(jobs))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for want, table in zip(serial, got):
                    assert table.route_data.tobytes() == want.route_data.tobytes()
                    assert list(table.pair_row.items()) == list(want.pair_row.items())
        finally:
            sys.setswitchinterval(old)
        for dst, row in topo.graph.distance_rows().items():
            assert np.array_equal(row[0], bfs_distances(topo.graph, dst))


class TestRedundancy:
    def test_one_bfs_per_destination_then_none(self, bfs_calls):
        spec = PointSpec(topology="11:7", pattern="uniform", load=0.6, seed=3)
        graph = parse_topology(spec.topology).graph
        graph.distance_rows().clear()  # other tests may have filled it
        first = run_point(spec)
        sources = [src for g, src in bfs_calls]
        assert sources and all(g is graph for g, _ in bfs_calls)
        assert len(sources) == len(set(sources)) == len(graph.distance_rows())
        bfs_calls.clear()
        assert run_point(spec) == first
        assert bfs_calls == []


def test_vectorised_misroutes_equal_the_scalar_spec():
    """Row by row, the batch engine's misroute counts on a faulted
    adaptive batch equal ``simulator._misroute_hops`` (its own BFS)."""
    topo = topology_of(hypercube(4), name="Q4")
    plan = FaultPlan.parse("l0-1,l0-2,n5@6,l3-7@12")
    items = [
        BatchItem(make_traffic("uniform", topo, 300, 20, seed=s), faults=plan)
        for s in (1, 2)
    ]
    checked = 0
    for prep in _prepare(topo, AdaptiveRouter(), items):
        cache = {}
        for row in np.unique(prep.row).tolist():
            path = prep.table.route_nodes(row).tolist()
            want = _misroute_hops(topo, cache, path[0], path[-1], len(path) - 1)
            assert (prep.misroutes[prep.row == row] == want).all(), row
            checked += want > 0
    assert checked > 0  # the batch really misroutes
