"""Batched multi-point simulation: K replications, one lock-step loop.

The sweep harness is the paper's experimental instrument, and its grids
are embarrassingly replicated: the same topology simulated over and over
with different seeds, loads, patterns, routers, fault plans or switching
configurations.  Run sequentially, every replication pays the full
per-cycle Python/NumPy dispatch overhead of
:class:`~repro.network.simulator.VectorizedSimulator` on arrays far too
small to amortise it.  This module adds the missing axis: *runs* are
batched the same way PR 1 batched *packets*.

:class:`BatchedSimulator` stacks K independent replications on one
topology into flat arrays and advances all of them through the fused
advance kernel (:mod:`repro.network.kernel`) in a single cycle loop --
**every switching mode batches natively**: store-and-forward items share
flat FIFO arrays, wormhole/virtual-cut-through items share flat
per-(link, VC) buffer state, and the two groups advance against one
clock.  The batching discipline (see the kernel's docstring for the full
argument):

- every replication keeps its own **disjoint id space** for links and,
  in the pipelined modes, extended channels, so shared state arrays can
  never leak packets, credits or VC allocations between runs;
- packets are renumbered globally by ``(inject_cycle, run, local_pid)``
  -- a stable sort that preserves every run's internal packet order, so
  FIFO discipline, link arbitration and VC claims are untouched;
- per-run accounting (in-flight counts, credit stalls, deadlock
  verdicts, occupancy high-water marks, in-flight drops) lives in
  length-K arrays updated with grouped scatter-adds, so each
  :class:`SimResult` comes out **bit-identical** to the result of a
  sequential ``VectorizedSimulator.run`` of the same replication --
  fault plans, deadlock detection and cycle-cap truncation included;
- the idle-cycle jump fires only when *every* run is quiescent, which
  changes nothing: an idle run's state is untouched by cycles it sits
  through, and its accounting only advances on its own activity.

This is the only vectorized engine: ``VectorizedSimulator.run`` is a
one-item batch, and the reference engine borrows the same prepare for
its ``route_table`` / fault-plan runs.  There is one prepare path
(:func:`_prepare`) and one :class:`~repro.network.kernel.KernelRun`
builder (:func:`_kernel_runs`).  Preparation is shared where the
semantics allow, which is where most of a sweep point's cost actually
goes: items group by router *instance* and routing epoch (an unfaulted
item is one epoch on the healthy topology; a faulted item adds one
fault-masked view per fault cycle), each group gets one route-table
build over the union of its traffic pairs (routes are deterministic per
pair, so the union table contains exactly the paths the per-run builds
would) and one misroute pass, and all groups share one healthy-topology
BFS-distance cache.  Route tables do not depend on the switching mode,
so sf and flow-control items mix freely within one shared build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.kernel import KernelRun, _link_arrays, run_fused
from repro.network.routing import BfsRouter, RouteTable
from repro.network.simulator import (
    SimResult,
    _check_run,
    _flow_result,
    _misroute_hops,
)
from repro.network.topology import Topology

__all__ = [
    "BatchItem",
    "BatchedSimulator",
    "run_batch",
]


@dataclass(frozen=True)
class BatchItem:
    """One replication of a batch: traffic plus its run configuration.

    ``router=None`` uses the owning :class:`BatchedSimulator`'s default.
    Replications that share one router *instance* also share their
    route-table builds, so a sweep packer should construct one router
    object per router kind and reuse it across its items.
    ``switching``, ``flits`` and ``tenants`` mirror
    ``VectorizedSimulator.run``'s parameters; any mix of modes is
    batched natively, and items carrying per-packet tenant ids get
    :attr:`~repro.network.simulator.SimResult.tenant_stats` exactly as
    the sequential engine computes them.
    """

    traffic: Sequence[Tuple[int, int, int]]
    router: object = None
    faults: Optional[FaultPlan] = None
    switching: Union[str, FlowControl] = "sf"
    flits: Union[int, Sequence[int]] = 1
    tenants: Optional[Sequence[int]] = None


class _Prepared(NamedTuple):
    """One item's traffic resolved against its route table, in array form.

    Packets are stable-sorted by injection cycle and numbered 0..P-1 in
    that order; packets the router cannot serve (or with a dead
    endpoint) are dropped up front and only counted in ``num_dropped``.
    Per surviving packet: ``inject`` cycle, route ``row``, ``nhops``,
    ``misroutes`` and ``order``, its index into the traffic as passed
    (flit counts and tenant ids follow the sort through it).
    ``link_dead`` maps directed links to the first cycle they stop
    forwarding (empty without faults).
    """

    table: RouteTable
    inject: np.ndarray
    row: np.ndarray
    nhops: np.ndarray
    misroutes: np.ndarray
    num_dropped: int
    link_dead: Dict[Tuple[int, int], int]
    order: np.ndarray


class _Epoch:
    """One route-table build: a router on one routing epoch's view of
    the topology, over the union of every pair routed there."""

    def __init__(self, router, view: Topology, dead=frozenset()):
        self.router = router
        self.view = view
        self.dead = dead
        self.code_parts: List[np.ndarray] = []

    def build(self, topo: Topology, dist_cache: Dict[int, np.ndarray]) -> None:
        """Build the table and the per-row misroute counts; ``codes`` /
        ``code_row`` then map each ``src * n + dst`` code to its row."""
        n = topo.num_nodes
        self.codes = np.unique(np.concatenate(self.code_parts))
        pairs = [(int(c) // n, int(c) % n) for c in self.codes]
        live = [p for p in pairs if p[0] not in self.dead and p[1] not in self.dead]
        table = self.table = RouteTable.build(self.view, self.router, live)
        # a pair with a dead endpoint is not in the table: row -1
        self.code_row = np.asarray(
            [table.pair_row.get(p, -1) for p in pairs], dtype=np.int64
        )
        lengths = table.lengths()
        self.misroutes = np.zeros(table.num_routes, dtype=np.int64)
        for (src, dst), r in table.pair_row.items():
            if r >= 0:
                self.misroutes[r] = _misroute_hops(
                    topo, dist_cache, src, dst, int(lengths[r]) - 1
                )


def _merge(epochs: Sequence[_Epoch]) -> Tuple[RouteTable, np.ndarray, List[int]]:
    """Stack epoch tables into one flat table: ``(table, misroutes,
    first row of each epoch)``.  Rows stay unique per (epoch, pair), so
    a pair can route differently before and after a failure."""
    bases = [0]
    offsets = [np.zeros(1, dtype=np.int64)]
    size = 0
    for ep in epochs:
        offsets.append(ep.table.route_offsets[1:] + size)
        size += ep.table.route_data.size
        bases.append(bases[-1] + ep.table.num_routes)
    table = RouteTable(
        route_data=np.concatenate(
            [np.empty(0, dtype=np.int64)] + [ep.table.route_data for ep in epochs]
        ),
        route_offsets=np.concatenate(offsets),
        pair_row={},
    )
    misroutes = np.concatenate(
        [np.empty(0, dtype=np.int64)] + [ep.misroutes for ep in epochs]
    )
    return table, misroutes, bases


def _prepare(topo: Topology, router, items: Sequence[BatchItem]) -> List[_Prepared]:
    """Resolve every item's traffic to routes: the one preparation path
    of every engine.

    A fault plan's cycles split an item's packets into routing epochs:
    packets injected in an epoch are routed on the topology masked by
    every fault already active, and pairs with a dead endpoint drop at
    injection.  An unfaulted item (and the first epoch of a faulted
    one) routes on the healthy topology.  Items group by router
    instance and epoch view; each group gets one table build over the
    union of its pairs (routes are deterministic per pair) and one
    misroute pass, and all groups share one healthy-distance cache.
    Each item's table stacks the tables of the epochs it touches.
    Items arrive validated (:func:`~repro.network.simulator._check_run`).
    """
    n = topo.num_nodes
    epochs: Dict[tuple, _Epoch] = {}
    staged = []
    for item in items:
        arr = np.asarray(item.traffic, dtype=np.int64).reshape(-1, 3)
        perm = np.argsort(arr[:, 0], kind="stable")
        arr = arr[perm]
        codes = arr[:, 1] * n + arr[:, 2]
        r = item.router if item.router is not None else router
        plan = item.faults if item.faults is not None and item.faults.num_events else None
        bounds: Sequence[int] = ()
        if plan is not None:
            plan.validate(topo)
            bounds = plan.cycles()
        epoch = np.searchsorted(np.asarray(bounds, dtype=np.int64), arr[:, 0], side="right")
        parts = []
        for e in np.unique(epoch).tolist():
            at = bounds[e - 1] if e else -1
            key = (id(r), plan if e else None, at)
            if key not in epochs:
                epochs[key] = (
                    _Epoch(r, topo.with_faults(plan, at_cycle=at),
                           plan.dead_nodes_at(at))
                    if e else _Epoch(r, topo)
                )
            sel = np.flatnonzero(epoch == e)
            epochs[key].code_parts.append(codes[sel])
            parts.append((epochs[key], sel))
        staged.append((arr, perm, codes, plan, parts))
    dist_cache: Dict[int, np.ndarray] = {}
    for ep in epochs.values():
        ep.build(topo, dist_cache)
    merged: Dict[tuple, tuple] = {}
    out: List[_Prepared] = []
    for arr, perm, codes, plan, parts in staged:
        key = tuple(id(ep) for ep, _ in parts)
        if key not in merged:
            merged[key] = _merge([ep for ep, _ in parts])
        table, misroutes, bases = merged[key]
        rows = np.empty(arr.shape[0], dtype=np.int64)
        for (ep, sel), base in zip(parts, bases):
            r = ep.code_row[np.searchsorted(ep.codes, codes[sel])]
            rows[sel] = np.where(r >= 0, r + base, -1)
        routed = rows >= 0
        row = rows[routed]
        out.append(_Prepared(
            table=table,
            inject=arr[routed, 0],
            row=row,
            nhops=table.lengths()[row] - 1,
            misroutes=misroutes[row],
            num_dropped=int((~routed).sum()),
            link_dead=plan.link_death_map(topo) if plan is not None else {},
            order=perm[routed],
        ))
    return out


def _kernel_runs(
    num_nodes: int,
    preps: Sequence[_Prepared],
    flows: Sequence[FlowControl],
    flit_arrs: Sequence[np.ndarray],
) -> List[KernelRun]:
    """One :class:`~repro.network.kernel.KernelRun` per prepared item;
    items sharing a route table share its link arrays (and so the
    kernel's derived channel arrays).  ``flit_arrs`` align with each
    item's traffic as passed."""
    links: Dict[int, tuple] = {}
    runs: List[KernelRun] = []
    for prep, flow, flit_arr in zip(preps, flows, flit_arrs):
        if id(prep.table) not in links:
            links[id(prep.table)] = _link_arrays(num_nodes, prep.table)
        link_seq, link_offsets, link_codes = links[id(prep.table)]
        runs.append(KernelRun(
            flow=flow,
            inject=prep.inject,
            nhops=prep.nhops,
            first_link_at=link_offsets[prep.row],
            link_seq=link_seq,
            link_offsets=link_offsets,
            link_codes=link_codes,
            nf=flit_arr[prep.order],
            link_dead=prep.link_dead,
        ))
    return runs


class BatchedSimulator:
    """Run K independent replications on one topology in lock step.

    Construction mirrors :class:`VectorizedSimulator`; ``router`` is the
    default for items that do not carry their own.  The only entry point
    is :meth:`run_batch`, which is also the whole of
    ``VectorizedSimulator.run`` (a one-item batch); the batch-equivalence
    suite and the differential fuzz pin every result to
    :class:`~repro.network.simulator.ReferenceSimulator` bit for bit.
    """

    def __init__(self, topo: Topology, router=None, backend=None):
        self.topo = topo
        self.router = router if router is not None else BfsRouter()
        self.backend = backend

    def run_batch(
        self,
        items: Sequence[BatchItem],
        max_cycles: int = 100000,
    ) -> List[SimResult]:
        """Simulate every item and return one :class:`SimResult` each,
        in item order, bit-identical to K sequential
        ``VectorizedSimulator(topo, item.router).run(...)`` calls with
        the same ``max_cycles``.

        Validation (negative injection cycles, multi-flit traffic under
        store-and-forward, bad flit specs, misaligned tenant ids,
        packets too big for a vct buffer) raises eagerly for the whole
        batch -- every item is checked, with the sequential engine's own
        errors, before any item simulates.
        """
        items = list(items)
        if not items:
            return []
        checked = [
            _check_run(list(item.traffic), item.switching, item.flits, item.tenants)
            for item in items
        ]
        preps = _prepare(self.topo, self.router, items)
        runs = _kernel_runs(
            self.topo.num_nodes, preps,
            [flow for flow, _ in checked], [flit_arr for _, flit_arr in checked],
        )
        outcomes = run_fused(self.topo, runs, max_cycles, backend=self.backend)
        return [
            _flow_result(
                out, prep.inject, prep.nhops, prep.misroutes, prep.num_dropped,
                all_tenants=item.tenants,
                pid_tenants=(
                    [int(item.tenants[j]) for j in prep.order]
                    if item.tenants is not None else None
                ),
            )
            for out, prep, item in zip(outcomes, preps, items)
        ]


def run_batch(
    topo: Topology,
    items: Sequence[BatchItem],
    max_cycles: int = 100000,
    router=None,
    backend=None,
) -> List[SimResult]:
    """Module-level convenience: ``BatchedSimulator(topo, router,
    backend).run_batch(items, max_cycles)``."""
    return BatchedSimulator(topo, router, backend=backend).run_batch(
        items, max_cycles
    )
