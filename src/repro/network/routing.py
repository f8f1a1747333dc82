"""Routing algorithms on cube topologies.

Three routers with one interface (``route(topology, src, dst) -> path``
as a list of node indices):

- :class:`BfsRouter` -- exact shortest path in the topology (the
  oracle);
- :class:`CanonicalRouter` -- the paper's canonical path (Section 2):
  scan left to right flipping 1->0 bits first, then 0->1 bits, skipping
  hops that would leave the vertex set.  On :math:`Q_d(1^s)` the proof of
  Proposition 3.1 shows the unmodified canonical path already stays inside
  -- the distributed, table-free routing of the Hsu--Liu line;
- :class:`GreedyRouter` -- a purely local rule: from the current node,
  move to any neighbour strictly closer in Hamming distance to the
  destination; fail when stuck (used to demonstrate *why* isometry
  matters for local routing);
- :class:`AdaptiveRouter` -- the fault-aware extension of the canonical
  rule: prefer a canonical move over a *live* link, and when faults (or
  non-isometry) block every closer step, misroute to any live neighbour
  under a bounded misroute budget -- still table-free and local.

:func:`route_stats` sweeps node pairs and reports reachability, stretch
(path length / graph distance) and hop histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.traversal import bfs_distances
from repro.network.topology import Topology
from repro.words.core import flip, hamming

__all__ = [
    "AdaptiveRouter",
    "BfsRouter",
    "CanonicalRouter",
    "DimensionOrderRouter",
    "GreedyRouter",
    "RouteStats",
    "RouteTable",
    "route_stats",
]


class BfsRouter:
    """Exact shortest-path routing (global knowledge)."""

    name = "bfs"

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        dist = bfs_distances(g, dst)
        if dist[src] < 0:
            return None
        path = [src]
        cur = src
        while cur != dst:
            cur = min(g.neighbors(cur), key=lambda v: dist[v])
            if dist[cur] < 0:
                return None
            path.append(cur)
        return path

    def build_table(
        self, topo: Topology, pairs: Iterable[Tuple[int, int]]
    ) -> "RouteTable":
        """Batched table build: one BFS per *destination* plus a
        vectorised next-hop extraction, instead of one BFS per pair.

        For every destination the next-hop array ``toward[v]`` is the
        first neighbour of ``v`` (in adjacency order) that is strictly
        closer to the destination -- exactly the vertex
        :meth:`route`'s ``min(..., key=dist)`` picks -- so the batched
        paths are identical to the per-pair ones.
        """
        g = topo.graph
        n = g.num_vertices
        indptr, indices = g.csr()
        order = list(dict.fromkeys(pairs))  # dedupe, keep first-seen order
        data: List[int] = []
        offsets: List[int] = [0]
        pair_row: Dict[Tuple[int, int], int] = {}
        counts = indptr[1:] - indptr[:-1]
        rows_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        for dst in sorted({d for _, d in order}):
            dist = bfs_distances(g, dst)
            # toward[v]: first neighbour with dist == dist[v] - 1
            closer = dist[indices] == dist[rows_of] - 1
            hit_rows, first_at = np.unique(rows_of[closer], return_index=True)
            toward = np.full(n, -1, dtype=np.int64)
            toward[hit_rows] = indices[np.flatnonzero(closer)[first_at]]
            for src, d in order:
                if d != dst:
                    continue
                if dist[src] < 0:
                    pair_row[(src, d)] = -1
                    continue
                path = [src]
                cur = src
                while cur != dst:
                    cur = int(toward[cur])
                    path.append(cur)
                pair_row[(src, d)] = len(offsets) - 1
                data.extend(path)
                offsets.append(len(data))
        return RouteTable(
            route_data=np.asarray(data, dtype=np.int64),
            route_offsets=np.asarray(offsets, dtype=np.int64),
            pair_row=pair_row,
        )


class CanonicalRouter:
    """Canonical bit-fix routing with in-set skipping.

    Repeatedly scans positions left to right and performs the first
    *admissible* canonical move: flip a 1->0 mismatch if the result stays
    a vertex, else (after all 1->0 options) a 0->1 mismatch.  If a full
    scan makes no progress the route fails.  On factors ``1^s``
    (Proposition 3.1) the first canonical move is always admissible, so
    the router is optimal there; elsewhere it may detour or fail, which
    is precisely what the N1 experiment quantifies.
    """

    name = "canonical"

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        if topo.word_length is None:
            raise ValueError("canonical routing needs word-addressed nodes")
        cur_word = topo.node_word(src)
        dst_word = topo.node_word(dst)
        path = [src]
        guard = 4 * (topo.word_length + 1)
        while cur_word != dst_word and guard > 0:
            guard -= 1
            nxt = self._canonical_step(g, cur_word, dst_word)
            if nxt is None:
                return None
            cur_word = nxt
            path.append(g.index_of(cur_word))
        if cur_word != dst_word:
            return None
        return path

    @staticmethod
    def _canonical_step(g, cur: str, dst: str) -> Optional[str]:
        for i in range(len(cur)):
            if cur[i] == "1" and dst[i] == "0":
                cand = flip(cur, i)
                if g.has_label(cand):
                    return cand
        for i in range(len(cur)):
            if cur[i] == "0" and dst[i] == "1":
                cand = flip(cur, i)
                if g.has_label(cand):
                    return cand
        return None


class AdaptiveRouter(CanonicalRouter):
    """Fault-aware canonical routing with a bounded misroute budget.

    The local detour rule of the Hsu--Liu fault-tolerance line: at each
    node, take the first canonical move (1->0 mismatch flips left to
    right, then 0->1) whose link is *live* -- on a masked fault view
    (:meth:`Topology.with_faults`) dead links are missing edges and
    failed nodes have hidden addresses, so this test is purely local.
    When no closer live neighbour exists, *misroute*: flip the leftmost
    matching bit that lands on a live neighbour, spending one unit of a
    ``max_misroutes`` budget (each misroute costs two extra hops).  The
    immediately previous node is never revisited, so a misroute is never
    undone one step later.  On an unfaulted ``Q_d(1^s)`` no misroute is
    ever needed (Proposition 3.1) and the routes coincide with
    :class:`CanonicalRouter`'s.
    """

    name = "adaptive"

    def __init__(self, max_misroutes: int = 4):
        if max_misroutes < 0:
            raise ValueError(f"max_misroutes must be >= 0, got {max_misroutes}")
        self.max_misroutes = max_misroutes

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        if topo.word_length is None:
            raise ValueError("adaptive routing needs word-addressed nodes")
        cur_word = topo.node_word(src)
        dst_word = topo.node_word(dst)
        budget = self.max_misroutes
        # each misroute flips one matching bit and must be re-fixed later
        limit = hamming(cur_word, dst_word) + 2 * self.max_misroutes
        path = [src]
        prev = -1
        while cur_word != dst_word:
            if len(path) - 1 >= limit:
                return None
            step = self._adaptive_step(g, path[-1], cur_word, dst_word, prev, budget > 0)
            if step is None:
                return None
            nxt, nxt_word, misrouted = step
            if misrouted:
                budget -= 1
            prev = path[-1]
            cur_word = nxt_word
            path.append(nxt)
        return path

    @staticmethod
    def _adaptive_step(
        g, cur: int, cur_word: str, dst_word: str, prev: int, may_misroute: bool
    ) -> Optional[Tuple[int, str, bool]]:
        for bits in (("1", "0"), ("0", "1")):
            for i in range(len(cur_word)):
                if cur_word[i] == bits[0] and dst_word[i] == bits[1]:
                    cand = flip(cur_word, i)
                    if g.has_label(cand):
                        j = g.index_of(cand)
                        if j != prev and g.has_edge(cur, j):
                            return (j, cand, False)
        if may_misroute:
            for i in range(len(cur_word)):
                if cur_word[i] == dst_word[i]:
                    cand = flip(cur_word, i)
                    if g.has_label(cand):
                        j = g.index_of(cand)
                        if j != prev and g.has_edge(cur, j):
                            return (j, cand, True)
        return None


class DimensionOrderRouter:
    """Strict e-cube routing: fix differing bits left to right, no fallback.

    Deadlock-free by construction on *any* topology (channels are used in
    strictly increasing dimension order, so the channel dependency graph
    is acyclic), but it only delivers when every prefix-fixed word is a
    vertex -- guaranteed on the full hypercube and, in the 1->0-first
    variant below, on the ``1^s`` family (Proposition 3.1's canonical
    path).  Delivery failures on other cubes are the measured price of
    strictness, contrast with :class:`CanonicalRouter`'s fallback.
    """

    name = "ecube"

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        if topo.word_length is None:
            raise ValueError("dimension-order routing needs word-addressed nodes")
        cur = topo.node_word(src)
        dst_word = topo.node_word(dst)
        path = [src]
        # phase 1: 1 -> 0 flips left to right, phase 2: 0 -> 1 flips
        for phase_bits in (("1", "0"), ("0", "1")):
            for i in range(len(cur)):
                if cur[i] == phase_bits[0] and dst_word[i] == phase_bits[1]:
                    cur = flip(cur, i)
                    if not g.has_label(cur):
                        return None
                    path.append(g.index_of(cur))
        return path


class GreedyRouter:
    """Local Hamming-descent routing; fails when no neighbour improves."""

    name = "greedy"

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        if topo.word_length is None:
            raise ValueError("greedy routing needs word-addressed nodes")
        dst_word = topo.node_word(dst)
        cur = src
        path = [cur]
        while cur != dst:
            cur_word = topo.node_word(cur)
            h_cur = hamming(cur_word, dst_word)
            nxt = None
            for v in g.neighbors(cur):
                if hamming(topo.node_word(v), dst_word) < h_cur:
                    nxt = v
                    break
            if nxt is None:
                return None
            cur = nxt
            path.append(cur)
        return path


@dataclass
class RouteTable:
    """Batched routes in a flat CSR-style layout.

    Row ``r`` is the node sequence
    ``route_data[route_offsets[r] : route_offsets[r + 1]]``.  ``pair_row``
    maps each resolved ``(src, dst)`` pair to its row, or to ``-1`` when
    the router failed the pair (the packet is dropped at injection).

    The table is what the vectorized simulator consumes: routes are
    resolved once per *unique* pair instead of once per packet, and the
    flat arrays let the engine advance every in-flight packet with NumPy
    gathers instead of per-packet list indexing.
    """

    route_data: np.ndarray
    route_offsets: np.ndarray
    pair_row: Dict[Tuple[int, int], int]

    @classmethod
    def build(
        cls,
        topo: Topology,
        router,
        pairs: Iterable[Tuple[int, int]],
    ) -> "RouteTable":
        """Resolve every unique pair through ``router`` into one table.

        The single route-table entry point: a router with its own batched
        ``build_table`` (e.g. :meth:`BfsRouter.build_table`) builds the
        table itself; any other router is asked one pair at a time.
        """
        if hasattr(router, "build_table"):
            return router.build_table(topo, pairs)
        data: List[int] = []
        offsets: List[int] = [0]
        pair_row: Dict[Tuple[int, int], int] = {}
        for pair in pairs:
            if pair in pair_row:
                continue
            src, dst = pair
            path = router.route(topo, src, dst)
            if path is None:
                pair_row[pair] = -1
                continue
            pair_row[pair] = len(offsets) - 1
            data.extend(path)
            offsets.append(len(data))
        return cls(
            route_data=np.asarray(data, dtype=np.int64),
            route_offsets=np.asarray(offsets, dtype=np.int64),
            pair_row=pair_row,
        )

    @property
    def num_routes(self) -> int:
        return len(self.route_offsets) - 1

    def lengths(self) -> np.ndarray:
        """Node count of every route (hops + 1), one entry per row."""
        return self.route_offsets[1:] - self.route_offsets[:-1]

    def route_nodes(self, row: int) -> np.ndarray:
        """The node sequence of row ``row`` (a view, do not mutate)."""
        return self.route_data[self.route_offsets[row] : self.route_offsets[row + 1]]


@dataclass(frozen=True)
class RouteStats:
    """Aggregate routing quality over a pair sample."""

    router: str
    pairs: int
    delivered: int
    optimal: int
    total_hops: int
    total_shortest: int

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.pairs if self.pairs else 1.0

    @property
    def optimality_rate(self) -> float:
        return self.optimal / self.delivered if self.delivered else 0.0

    @property
    def stretch(self) -> float:
        """Average delivered-path length over shortest-path length."""
        return self.total_hops / self.total_shortest if self.total_shortest else 1.0


def route_stats(
    topo: Topology,
    router,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> RouteStats:
    """Run ``router`` over ``pairs`` (default: all ordered pairs) and verify
    each returned path is a real path before scoring it."""
    g = topo.graph
    n = g.num_vertices
    if pairs is None:
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    delivered = optimal = total_hops = total_shortest = 0
    dist_cache: Dict[int, np.ndarray] = {}
    for s, t in pairs:
        if s not in dist_cache:
            dist_cache[s] = bfs_distances(g, s)
        shortest = int(dist_cache[s][t])
        path = router.route(topo, s, t)
        if path is None:
            continue
        if path[0] != s or path[-1] != t:
            raise AssertionError(f"router {router.name} returned a broken path")
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                raise AssertionError(f"router {router.name} used a non-edge")
        hops = len(path) - 1
        delivered += 1
        total_hops += hops
        total_shortest += shortest
        if hops == shortest:
            optimal += 1
    return RouteStats(
        router=getattr(router, "name", type(router).__name__),
        pairs=len(pairs),
        delivered=delivered,
        optimal=optimal,
        total_hops=total_hops,
        total_shortest=total_shortest,
    )
