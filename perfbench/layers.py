"""Which public calls belong to which layer, and what each layer counts.

:func:`install` wraps every call below on a :class:`~tracer.Tracer` and
returns a ``finish`` callback that turns the raw samples into the extra
per-layer counts once the traced pass is over (and the wrappers are gone),
so the bookkeeping never lands inside a span.

``WORKLOAD_LAYERS`` is what the report expects to see called on each
workload, so a refactor that routes around a wrapper shows up as a
zero-call layer instead of reading as 0 s.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List

# the layer -> wrapped calls -> end-to-end metric -> workload map is the
# table in perfbench/README.md
LAYERS: List[str] = [
    "network.routing", "graphs.traversal", "network.simulator", "network.batch",
    "network.traffic", "network.workloads", "network.kernel", "network.topology",
    "network.sweep", "network.service.cache", "network.service.protocol",
    "network.service.server", "classify", "isometry", "words", "analytic",
]

_SWEEP = ["network.routing", "graphs.traversal", "network.traffic",
          "network.kernel", "network.topology", "network.sweep"]
WORKLOAD_LAYERS: Dict[str, list] = {
    "sf-sweep": _SWEEP + ["network.simulator"],
    "wormhole-batch": _SWEEP + ["network.batch", "network.workloads"],
    "service-resubmit": [
        "network.routing", "graphs.traversal", "network.traffic",
        "network.kernel", "network.batch", "network.sweep",
        "network.service.cache", "network.service.protocol",
        "network.service.server",
    ],
    "paper-math": ["classify", "isometry", "words", "analytic"],
}

# extra counts each layer reports besides calls / busy_s / self_s / share
EXTRA_COUNTS = {
    "network.routing.pairs": "count",
    "network.routing.routed_ratio": "ratio",
    "graphs.traversal.redundancy": "ratio",
    "network.batch.items": "count",
    "network.traffic.packets": "count",
    "network.workloads.packets": "count",
    "network.kernel.runs": "count",
    "network.kernel.cycles": "count",
    "network.kernel.cycles_per_s": "1/s",
    "network.topology.lru_hits": "count",
    "network.topology.lru_misses": "count",
    "network.sweep.points": "count",
    "network.service.cache.hits": "count",
    "network.service.cache.misses": "count",
    "network.service.cache.stores": "count",
    "network.service.cache.hit_ratio": "ratio",
    "network.service.cache.bytes": "B",
    "network.service.protocol.bytes": "B",
    "network.service.server.done_cached": "count",
    "network.service.server.done_simulated": "count",
    "network.service.server.first_record_s": "s",
    "classify.fallback_ratio": "ratio",
    "isometry.vertices": "count",
}


def _count(key: str, measure: Callable) -> Callable:
    def after(tracer, args, kwargs, result):
        tracer.add(key, measure(args, result))
    return after


def _keep(key: str, pick: Callable) -> Callable:
    def after(tracer, args, kwargs, result):
        tracer.keep(key, pick(args, result))
    return after


def _cache_get(tracer, args, kwargs, result):
    cache, spec = args[0], args[1]
    if result is None:
        tracer.add("network.service.cache.misses")
    else:
        tracer.add("network.service.cache.hits")
        tracer.add("network.service.cache.bytes", os.path.getsize(cache.path_for(spec)))


def _cache_put(tracer, args, kwargs, result):
    cache, spec = args[0], args[1]
    tracer.add("network.service.cache.stores")
    tracer.add("network.service.cache.bytes", os.path.getsize(cache.path_for(spec)))


def install(tracer) -> Callable[[], None]:
    """Wrap every layer's public calls; returns ``finish()``, to be called
    after :meth:`~tracer.Tracer.restore`."""
    from repro.analytic import enumeration
    from repro.classify import engine, table1
    from repro.network import batch, routing, simulator, sweep
    from repro.network.service import cache, client, server
    from repro.words import counting

    wrap = tracer.wrap
    topo_lru = sweep.parse_topology
    lru_before = topo_lru.cache_info()
    plain_count_vertices = counting.count_vertices_automaton

    wrap(routing.BfsRouter, "build_table", "network.routing",
         after=_keep("tables", lambda a, r: r))
    for mod in (routing, simulator):
        wrap(mod, "bfs_distances", "graphs.traversal",
             after=_keep("bfs", lambda a, r: (id(a[0]), a[1])))
    wrap(simulator.VectorizedSimulator, "run", "network.simulator")
    wrap(batch.BatchedSimulator, "run_batch", "network.batch",
         after=_count("network.batch.items", lambda a, r: len(r)))
    wrap(sweep, "make_traffic", "network.traffic",
         after=_count("network.traffic.packets", lambda a, r: len(r)))
    wrap(sweep, "compile_workload", "network.workloads",
         after=_count("network.workloads.packets", lambda a, r: len(r.traffic)))
    for mod in (simulator, batch):
        wrap(mod, "run_fused", "network.kernel", after=_keep(
            "kernel", lambda a, r: (len(r), sum(o.cycles for o in r))))
    wrap(sweep, "parse_topology", "network.topology")
    points = "network.sweep.points"
    wrap(sweep, "run_sweep", "network.sweep")
    wrap(sweep, "run_point", "network.sweep", after=_count(points, lambda a, r: 1))
    for mod in (sweep, server):
        wrap(mod, "run_batch_points", "network.sweep",
             after=_count(points, lambda a, r: len(r)))
    wrap(cache.ResultCache, "get", "network.service.cache", after=_cache_get)
    wrap(cache.ResultCache, "put", "network.service.cache", after=_cache_put)
    protocol_bytes = "network.service.protocol.bytes"
    for mod in (server, client):
        wrap(mod, "encode_message", "network.service.protocol",
             after=_count(protocol_bytes, lambda a, r: len(r)))
        wrap(mod, "decode_line", "network.service.protocol",
             after=_count(protocol_bytes, lambda a, r: len(a[0])))
    wrap(server, "record_to_wire", "network.service.protocol")
    wrap(client, "record_from_wire", "network.service.protocol")
    wrap(table1, "classify_with_bruteforce", "classify", after=_keep(
        "verdicts", lambda a, r: r.source.startswith("brute force")))
    wrap(engine, "is_isometric_dp", "isometry", after=_keep("dp", lambda a, r: a[0]))
    for attr in ("count_vertices_automaton", "count_edges_automaton",
                 "count_squares_automaton"):
        wrap(counting, attr, "words")
    wrap(engine, "count_vertices_automaton", "words")
    wrap(enumeration.CountingSystem, "smart_term", "analytic")
    for attr in ("vertex_system", "edge_system"):
        wrap(enumeration, attr, "analytic")

    def finish() -> None:
        counts, samples = tracer.counts, tracer.samples
        tables = samples.pop("tables", [])
        pairs = sum(len(t.pair_row) for t in tables)
        routed = sum(1 for t in tables for r in t.pair_row.values() if r >= 0)
        counts["network.routing.pairs"] = pairs
        counts["network.routing.routed_ratio"] = routed / pairs if pairs else 0.0
        bfs = samples.pop("bfs", [])
        counts["graphs.traversal.redundancy"] = len(bfs) / len(set(bfs)) if bfs else 0.0
        kernel = samples.pop("kernel", [])
        counts["network.kernel.runs"] = sum(k[0] for k in kernel)
        counts["network.kernel.cycles"] = sum(k[1] for k in kernel)
        lru = topo_lru.cache_info()
        counts["network.topology.lru_hits"] = lru.hits - lru_before.hits
        counts["network.topology.lru_misses"] = lru.misses - lru_before.misses
        hits = counts["network.service.cache.hits"]
        looked = hits + counts["network.service.cache.misses"]
        counts["network.service.cache.hit_ratio"] = hits / looked if looked else 0.0
        verdicts = samples.pop("verdicts", [])
        counts["classify.fallback_ratio"] = (
            sum(verdicts) / len(verdicts) if verdicts else 0.0)
        counts["isometry.vertices"] = sum(
            plain_count_vertices(f, d) for f, d in samples.pop("dp", []))

    return finish
