"""Synchronous message-passing network simulator.

This is the hardware substitute declared in DESIGN.md: a cycle-accurate
(at link granularity) model of an interconnection network under three
switching disciplines -- store-and-forward (the default), wormhole and
virtual cut-through.

Model
-----
- Time advances in discrete cycles.
- Each directed link ``(u, v)`` carries at most one packet (``sf``) or
  one flit (wormhole/vct) per cycle and has a FIFO queue/buffer at its
  tail.
- A packet follows a precomputed route (any router from
  :mod:`repro.network.routing`); on each cycle every link forwards the
  head of its queue to the next queue on its route.
- Packets are injected by a traffic pattern: ``(cycle, src, dst)``
  triples (see :mod:`repro.network.traffic`), non-negative cycles only.

Switching modes (``run(..., switching=...)``)
---------------------------------------------
``"sf"`` is the classic store-and-forward model: single-flit packets,
unbounded FIFO queues, one whole packet per link per cycle -- exactly
the original engines, bit for bit.  ``"wormhole"`` and ``"vct"``
(a :class:`~repro.network.flowcontrol.FlowControl` value selects buffer
depth and virtual-channel count) switch to the finite-buffer pipelined
model of :mod:`repro.network.flowcontrol`: multi-flit packets
(``flits=``), per-(link, VC) buffers of bounded depth, credit
backpressure, dimension-ordered VC assignment -- and *detected* deadlock
(``SimResult.deadlocked`` / ``stalled``) when a channel-dependency
cycle actually bites, instead of a simulation that never terminates.

Two engines implement the *same* deterministic semantics:

- :class:`ReferenceSimulator` -- the readable per-packet/deque loop, the
  executable specification;
- :class:`VectorizedSimulator` -- the production engine, which is a
  one-item batch of :class:`~repro.network.batch.BatchedSimulator`:
  there is one prepare path and one run path.  Routes are batched into
  a flat CSR :class:`~repro.network.routing.RouteTable` (one table
  build per router and routing epoch), per-packet state lives in NumPy
  arrays, and the cycle loop itself is the fused advance kernel of
  :mod:`repro.network.kernel`.  Per-link FIFOs are intrusive linked
  lists over flat arrays, each cycle advances every contended link with
  a handful of array gathers instead of a Python loop over packets, and
  idle gaps between injections are skipped outright.  The kernel's
  inner loop is supplied by a selectable backend
  (:mod:`repro.network.backends`: ``numpy``, the compiled ``native``
  kernel, or ``auto``).  Both engines -- and every backend -- produce
  bit-identical :class:`SimResult` values, which the equivalence tests
  enforce.

The reference engine resolves routes through ``router.route`` one
packet at a time; only with a ``route_table`` or a fault plan does it
borrow the batch engine's prepare, so its cycle loops stay the oracle.

Faults
------
Both engines accept a :class:`~repro.network.faults.FaultPlan`.  Fault
cycles split time into *routing epochs*: packets injected in an epoch
are routed on the topology masked by every fault already active
(:meth:`Topology.with_faults`), one route-table rebuild per epoch.  The
plan also resolves to per-directed-link death cycles; during the forward
step, a link that is dead drops its *entire* queue that cycle (packets
in flight when a fault strikes are lost, not rerouted -- rerouting is
the router's job at the next epoch).  Drop and misroute totals land in
:class:`SimResult` and are bit-identical across engines, same as every
other field.

Determinism contract (both engines): packets are numbered in injection
order (stable sort of the traffic by cycle); a link's FIFO serves packets
in arrival order, ties broken by packet id; packets that arrive at a
queue while a cycle is being forwarded join *behind* everything already
queued that cycle.

``NetworkSimulator`` is the vectorized engine (kept as the public name
for backward compatibility).

Outputs: per-packet latency and hop counts, average/percentile latency,
throughput (delivered packets per cycle), drop and misroute counters,
and maximum queue occupancy -- enough to compare topologies under
identical load and damage, which is what the 1993-lineage evaluations
did on real machines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.traversal import bfs_distances
from repro.network.faults import _NEVER, FaultPlan
from repro.network.flowcontrol import (
    FlowControl,
    FlowOutcome,
    reference_flow_run,
    resolve_flits,
)
# imported for perfbench/layers.py, which traces the kernel under this name
from repro.network.kernel import run_fused  # noqa: F401
from repro.network.routing import BfsRouter, RouteTable
from repro.network.topology import Topology
from repro.network.traffic import uniform_traffic
from repro.network.workloads import TenantStats, tenant_stats_of

__all__ = [
    "FlowControl",
    "NetworkSimulator",
    "ReferenceSimulator",
    "SimResult",
    "TenantStats",
    "VectorizedSimulator",
    "uniform_traffic",
]


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of one simulation run.

    ``latencies`` and ``hops`` hold one entry per *delivered* packet,
    ordered by packet id (= injection order), so results from different
    engines over the same traffic compare exactly.  ``dropped`` counts
    packets lost for any reason: unroutable at injection (router failure
    or dead endpoint) plus packets killed in flight by a link/node fault.
    ``misroutes`` totals the detour steps of delivered packets: hops
    beyond the *healthy* topology's graph distance, halved (each detour
    costs two extra hops) -- zero for shortest-path routing on an
    undamaged network, positive when faults (or a suboptimal router)
    force longer paths.  ``stalled`` counts routed packets that were
    neither delivered nor dropped when the run ended (always zero for a
    run that completed); ``deadlocked`` is set when a flow-controlled
    run (wormhole/vct) reached a state where no flit could ever move
    again -- detected and reported, never an unterminating simulation.
    ``tenant_stats`` is the per-tenant accounting of a multi-tenant
    workload run (one :class:`~repro.network.workloads.TenantStats` per
    tenant id, ascending) -- empty for single-tenant traffic, so every
    pre-workload result compares unchanged.
    """

    cycles: int
    injected: int
    delivered: int
    latencies: Tuple[int, ...]
    max_queue: int
    dropped: int = 0
    misroutes: int = 0
    hops: Tuple[int, ...] = ()
    stalled: int = 0
    deadlocked: bool = False
    tenant_stats: Tuple[TenantStats, ...] = ()

    @property
    def avg_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def max_latency(self) -> int:
        return max(self.latencies) if self.latencies else 0

    @property
    def throughput(self) -> float:
        return self.delivered / self.cycles if self.cycles else 0.0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.injected if self.injected else 1.0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.injected if self.injected else 0.0

    @property
    def avg_hops(self) -> float:
        return sum(self.hops) / len(self.hops) if self.hops else 0.0


def _misroute_hops(
    topo: Topology, dist_cache: Dict[int, np.ndarray], src: int, dst: int, hops: int
) -> int:
    """Detour steps of a route: hops beyond the *healthy* topology's
    graph distance, halved (on bipartite cube graphs the excess is always
    even; elsewhere the odd remainder is floored away).

    Measuring against the undamaged topology -- not the Hamming distance
    -- means shortest-path routing reports zero on every cube, including
    the non-isometric ones where graph distance legitimately exceeds
    Hamming distance; what remains is exactly the stretch the router (or
    the fault damage) added.  One BFS per destination, cached per run.
    """
    dist = dist_cache.get(dst)
    if dist is None:
        dist = dist_cache[dst] = bfs_distances(topo.graph, dst)
    d = int(dist[src])
    if d < 0:
        return 0
    return max(0, (hops - d) // 2)


def _as_flow(switching: Union[str, FlowControl, None]) -> FlowControl:
    if switching is None:
        return FlowControl()
    if isinstance(switching, FlowControl):
        return switching
    return FlowControl(switching=switching)


def _check_run(
    traffic: List[Tuple[int, int, int]],
    switching: Union[str, FlowControl],
    flits: Union[int, Sequence[int]],
    tenants: Optional[Sequence[int]],
) -> Tuple[FlowControl, np.ndarray]:
    """Validate one run's inputs; returns its flow control and per-packet
    flit counts (aligned with ``traffic``).

    The single validation path of every engine entry point, so their
    errors cannot drift.  Packets too big for a vct buffer are checked
    by the cycle loops themselves, once each, over the routed packets.
    """
    flow = _as_flow(switching)
    flit_arr = resolve_flits(flits, len(traffic))
    if tenants is not None and len(tenants) != len(traffic):
        raise ValueError(
            f"tenants must align with traffic: {len(tenants)} ids "
            f"for {len(traffic)} packets"
        )
    if not flow.pipelined and flit_arr.size and int(flit_arr.max()) > 1:
        raise ValueError(
            "store-and-forward is a single-flit model; use "
            "switching='wormhole' or 'vct' for multi-flit packets"
        )
    if traffic and min(t[0] for t in traffic) < 0:
        raise ValueError(
            "injection cycles must be non-negative "
            f"(got {min(t[0] for t in traffic)}); "
            "both engines count time from 0"
        )
    return flow, flit_arr


class _SuppliedTable:
    """A caller's prebuilt :class:`RouteTable`, posing as a router whose
    every build returns that table -- after checking it covers the
    traffic."""

    def __init__(self, table: RouteTable):
        self.table = table

    def build_table(self, topo: Topology, pairs) -> RouteTable:
        for pair in pairs:
            if pair not in self.table.pair_row:
                raise ValueError(
                    f"route_table has no entry for traffic pair {pair}; "
                    "build the table over every (src, dst) pair in the traffic"
                )
        return self.table


def _table_router(router, route_table: Optional[RouteTable],
                  faults: Optional[FaultPlan]):
    """The router a run prepares with: ``router`` itself, or the
    caller's ``route_table`` when one is given."""
    if route_table is None:
        return router
    if faults is not None and faults.num_events:
        raise ValueError("pass either route_table or faults, not both")
    return _SuppliedTable(route_table)


def _flow_result(
    outcome: FlowOutcome,
    inject: np.ndarray,
    nhops: np.ndarray,
    mis_of: np.ndarray,
    num_dropped: int,
    all_tenants: Optional[Sequence[int]] = None,
    pid_tenants: Optional[Sequence[int]] = None,
) -> SimResult:
    """Assemble a :class:`SimResult` from a flow-engine outcome (shared
    by both engines so the aggregation itself cannot diverge).

    ``all_tenants`` tags every offered packet and ``pid_tenants`` the
    routed packets in pid order; when supplied, the per-tenant stats ride
    along (see :func:`~repro.network.workloads.tenant_stats_of`).
    """
    mask = outcome.delivered_at >= 0
    latencies = tuple((outcome.delivered_at[mask] - inject[mask]).tolist())
    tstats: Tuple[TenantStats, ...] = ()
    if all_tenants is not None:
        tstats = tenant_stats_of(
            all_tenants, pid_tenants or (), mask.tolist(), latencies
        )
    return SimResult(
        cycles=outcome.cycles,
        injected=int(nhops.size) + num_dropped,
        delivered=int(mask.sum()),
        latencies=latencies,
        max_queue=outcome.max_queue,
        dropped=num_dropped + outcome.dropped_in_flight,
        misroutes=int(mis_of[mask].sum()),
        hops=tuple(nhops[mask].tolist()),
        stalled=outcome.stalled,
        deadlocked=outcome.deadlocked,
        tenant_stats=tstats,
    )


class ReferenceSimulator:
    """Store-and-forward simulator: the per-packet executable spec.

    Parameters
    ----------
    topo:
        The network.
    router:
        Any object with ``route(topo, src, dst) -> Optional[List[int]]``;
        defaults to exact shortest-path routing.
    """

    def __init__(self, topo: Topology, router=None):
        self.topo = topo
        self.router = router if router is not None else BfsRouter()

    def run(
        self,
        traffic: Sequence[Tuple[int, int, int]],
        max_cycles: int = 100000,
        route_table: Optional[RouteTable] = None,
        faults: Optional[FaultPlan] = None,
        switching: Union[str, FlowControl] = "sf",
        flits: Union[int, Sequence[int]] = 1,
        tenants: Optional[Sequence[int]] = None,
    ) -> SimResult:
        """Simulate until all deliverable packets arrive (or ``max_cycles``).

        Packets whose router returns ``None`` count as injected but are
        dropped immediately (visible through ``delivery_rate``).

        Routes are resolved one packet at a time through ``router.route``
        (the original engine's behaviour); pass ``route_table`` to reuse a
        prebuilt table instead, e.g. to time the two cycle engines alone.
        A ``faults`` plan (mutually exclusive with ``route_table``)
        switches to per-epoch fault-masked routing with in-flight drops;
        see the module docstring.

        ``switching`` selects the flow-control discipline -- a mode name
        or a full :class:`FlowControl` -- and ``flits`` the per-packet
        flit counts (one int for all, or a sequence aligned with
        ``traffic``); both only meaningful for wormhole/vct.  ``tenants``
        is an optional per-packet tenant id aligned with ``traffic``
        (see :mod:`repro.network.workloads`); when given, the result
        carries :attr:`SimResult.tenant_stats`.
        """
        traffic = list(traffic)
        flow, flit_arr = _check_run(traffic, switching, flits, tenants)
        faulted = faults is not None and faults.num_events > 0
        if route_table is None and not faulted:
            inject: List[int] = []
            routes: List[List[int]] = []
            mis_of: List[int] = []
            nf: List[int] = []
            pid_tenants: List[int] = []
            dropped = 0
            dist_cache: Dict[int, np.ndarray] = {}
            order = sorted(range(len(traffic)), key=lambda j: traffic[j][0])
            for j in order:
                cycle, src, dst = traffic[j]
                path = self.router.route(self.topo, src, dst)
                if path is None:
                    dropped += 1
                else:
                    inject.append(cycle)
                    routes.append(path)
                    nf.append(int(flit_arr[j]))
                    if tenants is not None:
                        pid_tenants.append(int(tenants[j]))
                    mis_of.append(
                        _misroute_hops(self.topo, dist_cache, src, dst, len(path) - 1)
                    )
            link_dead: Dict[Tuple[int, int], int] = {}
        else:
            # the batch engine's prepare; only the cycle loop below is
            # this engine's own
            from repro.network.batch import BatchItem, _prepare

            router = _table_router(self.router, route_table, faults)
            prep = _prepare(self.topo, router, [BatchItem(traffic, faults=faults)])[0]
            routes = [prep.table.route_nodes(r).tolist() for r in prep.row]
            inject = prep.inject.tolist()
            dropped = prep.num_dropped
            mis_of = prep.misroutes.tolist()
            nf = flit_arr[prep.order].tolist()
            pid_tenants = (
                [int(tenants[j]) for j in prep.order]
                if tenants is not None else []
            )
            link_dead = prep.link_dead
        if flow.pipelined:
            outcome = reference_flow_run(
                self.topo, flow, routes, inject, nf, link_dead, max_cycles
            )
            return _flow_result(
                outcome,
                np.asarray(inject, dtype=np.int64),
                np.asarray([len(r) - 1 for r in routes], dtype=np.int64),
                np.asarray(mis_of, dtype=np.int64),
                dropped,
                all_tenants=tenants,
                pid_tenants=pid_tenants if tenants is not None else None,
            )
        num = len(routes)
        delivered_at = [-1] * num
        hop = [0] * num
        queues: Dict[Tuple[int, int], deque] = {}
        next_pid = 0
        in_flight = 0
        max_queue = 0
        cycle = 0
        remaining = num
        dropped_in_flight = 0
        while (next_pid < num or in_flight > 0) and cycle < max_cycles:
            # inject (pids are already in injection-cycle order)
            while next_pid < num and inject[next_pid] <= cycle:
                pid = next_pid
                next_pid += 1
                route = routes[pid]
                if len(route) == 1:
                    delivered_at[pid] = cycle
                    remaining -= 1
                    continue
                queues.setdefault((route[0], route[1]), deque()).append(pid)
                in_flight += 1
            # forward: each live link serves its head-of-queue packet; a
            # dead link loses its whole queue this cycle
            arrivals: List[int] = []
            for link, q in queues.items():
                if not q:
                    continue
                max_queue = max(max_queue, len(q))
                if link_dead.get(link, _NEVER) <= cycle:
                    dropped_in_flight += len(q)
                    in_flight -= len(q)
                    q.clear()
                else:
                    arrivals.append(q.popleft())
            # late arrivals join behind this cycle's injections, pid order
            for pid in sorted(arrivals):
                hop[pid] += 1
                route = routes[pid]
                at = hop[pid]
                if at == len(route) - 1:
                    delivered_at[pid] = cycle + 1
                    remaining -= 1
                    in_flight -= 1
                else:
                    queues.setdefault((route[at], route[at + 1]), deque()).append(pid)
            cycle += 1
        latencies: List[int] = []
        hops: List[int] = []
        misroutes = 0
        for pid in range(num):
            if delivered_at[pid] >= 0:
                latencies.append(delivered_at[pid] - inject[pid])
                hops.append(hop[pid])
                misroutes += mis_of[pid]
        tstats: Tuple[TenantStats, ...] = ()
        if tenants is not None:
            tstats = tenant_stats_of(
                tenants, pid_tenants,
                [delivered_at[pid] >= 0 for pid in range(num)], latencies,
            )
        return SimResult(
            cycles=max(cycle, 1),
            injected=num + dropped,
            delivered=num - remaining,
            latencies=tuple(latencies),
            max_queue=max_queue,
            dropped=dropped + dropped_in_flight,
            misroutes=misroutes,
            hops=tuple(hops),
            stalled=remaining - dropped_in_flight,
            tenant_stats=tstats,
        )


class VectorizedSimulator:
    """Array-based engine (same semantics, NumPy speed), for every mode.

    Each run is a one-item :class:`~repro.network.batch.BatchedSimulator`
    batch: routes are flattened into a CSR route table and converted to
    directed-link-id sequences once, then the fused advance kernel
    (:func:`repro.network.kernel.run_fused`) runs them.  The kernel
    keeps per-link FIFOs as intrusive linked lists over flat pid arrays
    (store-and-forward) or per (link, VC) finite-buffer state
    (wormhole / vct), advances every contended link per cycle with a
    handful of array gathers, skips idle gaps between injections in
    O(1), and reproduces
    :class:`ReferenceSimulator`'s queue discipline -- injections first,
    then forwards, pid-sorted within each group -- exactly.

    ``backend`` selects the kernel implementation for this simulator's
    runs (a name or :class:`~repro.network.backends.Backend` instance;
    ``None`` defers to ``$REPRO_BACKEND`` / ``auto``).
    """

    def __init__(self, topo: Topology, router=None, backend=None):
        self.topo = topo
        self.router = router if router is not None else BfsRouter()
        self.backend = backend

    def run(
        self,
        traffic: Sequence[Tuple[int, int, int]],
        max_cycles: int = 100000,
        route_table: Optional[RouteTable] = None,
        faults: Optional[FaultPlan] = None,
        switching: Union[str, FlowControl] = "sf",
        flits: Union[int, Sequence[int]] = 1,
        tenants: Optional[Sequence[int]] = None,
    ) -> SimResult:
        """Simulate until all deliverable packets arrive (or ``max_cycles``).

        Semantics (and results) are identical to
        :meth:`ReferenceSimulator.run`, fault plans, switching modes and
        per-packet ``tenants`` included.  The run is a one-item batch of
        :class:`~repro.network.batch.BatchedSimulator`.
        """
        from repro.network.batch import BatchedSimulator, BatchItem

        item = BatchItem(
            list(traffic),
            router=_table_router(self.router, route_table, faults),
            faults=faults, switching=switching, flits=flits, tenants=tenants,
        )
        engine = BatchedSimulator(self.topo, self.router, backend=self.backend)
        return engine.run_batch([item], max_cycles)[0]


class NetworkSimulator(VectorizedSimulator):
    """The default simulator: the vectorized engine under its public name."""
