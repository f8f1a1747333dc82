"""Sweep harness: saturation studies over (topology x router x pattern x load).

The 1993-lineage comparisons (and every interconnection paper since) are
latency/throughput *curves*, not single points: offered load rises until
the network saturates, and the shape of the knee is the verdict on the
topology.  This module runs those grids at scale:

- a sweep point is a fully picklable :class:`PointSpec` (topology,
  router and fault plan are *names/specs*, rebuilt inside the worker),
  so grids parallelise with :mod:`multiprocessing` across cores;
- ``batch > 1`` packs compatible points -- open-loop pattern points
  sharing a topology and cycle cap, every switching mode included --
  into lock-step batches for
  :class:`~repro.network.batch.BatchedSimulator`, so K replications
  advance in *one* fused-kernel cycle loop and share one route-table
  build; multiprocessing then distributes whole batches, not points.
  Results are bit-identical to the unbatched sweep (the ``batch``
  column records each record's co-batch size); collective points are
  closed-loop and run point-by-point;
- each point generates seeded traffic from :mod:`repro.network.traffic`,
  runs it through the batch engine -- under the point's
  :class:`~repro.network.faults.FaultPlan` when one is given -- and
  condenses the run into a flat :class:`SweepRecord` of floats, ready
  for CSV/JSON dumping or for :func:`saturation_curves` to regroup into
  per-scenario load curves.  An unbatched open-loop point is a batch of
  one: :func:`run_point` and :func:`run_batch_points` share one packing
  path, so their records cannot diverge;
- :func:`saturation_curves` aggregates the seed axis: every
  (topology, router, pattern, faults, flow, load) cell becomes one
  :class:`CurvePoint` with mean/std over its seeds, so multi-seed grids
  plot as one curve with error bars instead of interleaved replicas;
- the flow-control axes (``switching`` / ``vcs`` / ``buffers`` /
  ``flits``) sweep the wormhole / virtual-cut-through configurations of
  :mod:`repro.network.flowcontrol`, with per-point ``stalled`` /
  ``deadlocked`` columns carrying the deadlock story;
- the ``collectives`` axis runs the *closed-loop* collective workloads
  of :mod:`repro.network.collectives`: a collective point compiles its
  schedule with true per-round barriers (:func:`run_collective`, root
  selected by the seed) instead of generating open-loop pattern
  traffic, and carries ``rounds`` / ``round_bound`` columns; its
  ``pattern`` and ``load`` are normalised (``"-"`` / ``1.0``) so the
  grid never duplicates collective points across those axes.

Offered load is normalised: ``load`` is packets per node per cycle over
the injection window, so ``num_packets = round(load * nodes * window)``
and curves are comparable across topologies of different size.  Under a
fault plan, failed sources stop injecting and the record's ``dropped`` /
``misroutes`` columns carry the degradation story (delivery vs. fault
count is the paper's graceful-degradation curve).

The ``repro sweep`` CLI subcommand is a thin wrapper over
:func:`run_sweep` / :func:`write_csv` / :func:`write_json`.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache, partial
from statistics import fmean, pstdev
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analytic.bounds import analytic_saturation_bound
from repro.network.batch import BatchedSimulator, BatchItem
from repro.network.collectives import COLLECTIVES, run_collective
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import SWITCHING_MODES, FlowControl
from repro.network.routing import (
    AdaptiveRouter,
    BfsRouter,
    CanonicalRouter,
    DimensionOrderRouter,
    GreedyRouter,
)
from repro.network.simulator import VectorizedSimulator
from repro.network.topology import Topology, topology_of
from repro.network.traffic import PATTERNS, flit_sizes, make_traffic
from repro.network.workloads import (
    Trace,
    canonical_workload,
    compile_trace,
    compile_workload,
    encode_tenant_column,
)

__all__ = [
    "CurvePoint",
    "PointSpec",
    "ROUTERS",
    "SweepRecord",
    "expand_grid",
    "flow_tag",
    "nearest_rank_p95",
    "normalize_spec",
    "parse_topology",
    "run_batch_points",
    "run_point",
    "run_sweep",
    "saturation_curves",
    "write_csv",
    "write_json",
]

ROUTERS: Dict[str, Callable[[], object]] = {
    "bfs": BfsRouter,
    "canonical": CanonicalRouter,
    "adaptive": AdaptiveRouter,
    "ecube": DimensionOrderRouter,
    "greedy": GreedyRouter,
}


@lru_cache(maxsize=64)
def parse_topology(spec: str) -> Topology:
    """Build a topology from a compact spec string.

    ``"Q:7"`` (or ``"hypercube:7"``) is the hypercube :math:`Q_7`;
    ``"11:7"`` is the generalized Fibonacci cube :math:`Q_7(11)` --
    any avoided factor works, e.g. ``"101:8"``.  Cached per process
    (LRU, bounded -- a long-running sweep service touching many specs
    must not retain every topology it has ever built), so workers still
    amortise construction across their points.
    """
    name, sep, dim = spec.partition(":")
    if not sep:
        raise ValueError(
            f"bad topology spec {spec!r}: expected 'Q:<d>' or '<factor>:<d>'"
        )
    try:
        d = int(dim)
    except ValueError:
        raise ValueError(f"bad dimension in topology spec {spec!r}") from None
    if name in ("Q", "hypercube"):
        from repro.cubes.hypercube import hypercube

        return topology_of(hypercube(d), name=f"Q_{d}")
    if not name or set(name) - set("01"):
        raise ValueError(
            f"bad topology spec {spec!r}: factor must be a binary word"
        )
    return topology_of((name, d))


def nearest_rank_p95(latencies: Sequence[int]) -> float:
    """Nearest-rank 95th percentile: the ``ceil(0.95 n)``-th smallest value.

    Integer arithmetic, so no float-ceiling artefacts: 20 samples give
    the 19th value, not the maximum (the old ``(95 * n) // 100`` index
    over-shot to the max for every ``n`` not divisible by 20).

    An empty sample is *defined* as ``0.0``: a sweep point that
    delivered nothing (all packets dropped by faults, or an all-dead
    traffic source set) reports zero latency percentiles rather than
    raising mid-grid -- its ``delivered`` / ``delivery_rate`` columns
    carry the real story.
    """
    if not latencies:
        return 0.0
    lat = sorted(latencies)
    return float(lat[(95 * len(lat) + 99) // 100 - 1])


@dataclass(frozen=True)
class PointSpec:
    """One picklable grid point (names and spec strings, not objects).

    ``switching``/``num_vcs``/``buffer_depth``/``flits`` select the
    flow-control configuration; store-and-forward points are normalised
    to ``num_vcs=1, buffer_depth=0, flits="1"`` (unbounded FIFOs,
    single-flit packets) so duplicate grid points collapse.

    A non-empty ``collective`` turns the point into a closed-loop
    collective run (:func:`run_collective`, the seed picking the root);
    ``pattern``/``load``/``inject_window`` are then ignored (and
    normalised to ``"-"``/``1.0`` by :func:`run_sweep` so the grid does
    not replicate the point along those axes).

    A non-empty ``workload`` turns the point into a multi-tenant run
    (:mod:`repro.network.workloads`): an inline tenant spec
    (``"bg:uniform:0.2;fg:broadcast:0.4:2"``) compiles arbitrated
    overlay traffic with ``load`` acting as a load-scale multiplier on
    every tenant (so workload saturation curves sweep exactly like
    pattern curves), while a ``"trace:<key>"`` reference replays a
    recorded trace (resolved through the ``traces`` mapping handed to
    the runners; ``pattern`` and ``load`` are normalised to
    ``"-"``/``1.0``).  ``workload`` and ``collective`` are mutually
    exclusive.
    """

    topology: str
    router: str = "bfs"
    pattern: str = "uniform"
    load: float = 0.2
    seed: int = 0
    inject_window: int = 64
    max_cycles: int = 100000
    faults: str = ""
    switching: str = "sf"
    num_vcs: int = 1
    buffer_depth: int = 0
    flits: str = "1"
    collective: str = ""
    workload: str = ""


@dataclass(frozen=True)
class SweepRecord:
    """Flattened outcome of one sweep point.

    ``collective`` is empty for pattern points; for collective points it
    names the operation and ``rounds``/``round_bound`` hold the schedule
    round count against the single-port ``ceil(log2 n)`` bound (both
    zero for pattern points).  Zero-delivered points (every packet
    dropped, or nothing injected at all) report ``0.0`` latency columns
    by definition -- see :func:`nearest_rank_p95`.  ``batch`` is the
    number of replications advanced in the same lock-step simulator
    batch as this point (1 = the point ran alone); every other column
    is bit-identical whatever the batching.

    ``workload`` echoes the point's workload spec (canonicalised inline
    spec or ``trace:<key>``, empty for single-tenant points) and
    ``tenants`` carries the per-tenant accounting as one canonical
    compact-JSON array -- per tenant: injected / delivered / undelivered
    counts, mean and nearest-rank p95 latency -- so the multi-tenant
    story survives flat CSV/JSON dumps and the service wire format
    byte-for-byte.

    ``analytic_bound`` is the topology's uniform-traffic saturation
    bound ``theta*`` from the analytic channel-load model
    (:func:`repro.analytic.bounds.analytic_saturation_bound`), ``0.0``
    when no model applies; it is a property of the topology alone,
    repeated per record so every dump is self-contained for the
    predict-then-verify cross-check.
    """

    topology: str
    router: str
    pattern: str
    collective: str
    workload: str
    load: float
    seed: int
    faults: str
    num_faults: int
    switching: str
    num_vcs: int
    buffer_depth: int
    flits: str
    rounds: int
    round_bound: int
    nodes: int
    injected: int
    delivered: int
    dropped: int
    misroutes: int
    stalled: int
    deadlocked: bool
    cycles: int
    max_queue: int
    avg_latency: float
    p95_latency: float
    max_latency: int
    throughput: float
    delivery_rate: float
    analytic_bound: float = 0.0
    tenants: str = ""
    batch: int = 1


def _resolve_router(name: str) -> Callable[[], object]:
    try:
        return ROUTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; choose from {sorted(ROUTERS)}"
        ) from None


def _point_plan(spec: PointSpec, topo: Topology) -> Optional[FaultPlan]:
    if spec.load <= 0:
        raise ValueError(f"load must be positive, got {spec.load}")
    if not spec.faults:
        return None
    return FaultPlan.parse(spec.faults, num_nodes=topo.num_nodes).validate(topo)


def _point_flow(spec: PointSpec) -> "str | FlowControl":
    if spec.switching != "sf":
        # FlowControl itself rejects unknown modes and bad depths/VCs
        return FlowControl(
            switching=spec.switching,
            buffer_depth=spec.buffer_depth,
            num_vcs=spec.num_vcs,
        )
    return "sf"


def _point_traffic(
    spec: PointSpec, topo: Topology, plan: Optional[FaultPlan]
) -> List[Tuple[int, int, int]]:
    num_packets = max(1, round(spec.load * topo.num_nodes * spec.inject_window))
    return make_traffic(
        spec.pattern, topo, num_packets, spec.inject_window, seed=spec.seed,
        faults=plan,
    )


def _point_workload(
    spec: PointSpec,
    topo: Topology,
    plan: Optional[FaultPlan],
    traces: Optional[Mapping[str, Trace]],
):
    """Resolve a workload point's traffic: compile the inline tenant
    spec (``spec.load`` scaling every tenant), or replay the referenced
    trace -- validated against the point's topology -- with the fault
    plan applied at replay time.  Returns a
    :class:`~repro.network.workloads.CompiledWorkload`."""
    if spec.workload.startswith("trace:"):
        key = spec.workload[len("trace:"):]
        trace = (traces or {}).get(key)
        if trace is None:
            raise ValueError(
                f"workload {spec.workload!r} references a trace this runner "
                "was not given; pass it via the traces= mapping "
                "(CLI: repro sweep --trace <file>)"
            )
        if trace.topology and parse_topology(trace.topology).name != topo.name:
            raise ValueError(
                f"trace {key!r} was recorded on {trace.topology!r}, not "
                f"{spec.topology!r}; replay traces on their own topology"
            )
        return compile_trace(trace, topo, faults=plan)
    return compile_workload(
        spec.workload, topo, spec.inject_window, seed=spec.seed,
        load_scale=spec.load, faults=plan,
    )


def _condense(
    spec: PointSpec,
    topo: Topology,
    plan: Optional[FaultPlan],
    result,
    rounds: int = 0,
    round_bound: int = 0,
    batch: int = 1,
    tenant_names: Sequence[str] = (),
) -> SweepRecord:
    """Flatten one simulation outcome into a :class:`SweepRecord` (the
    single condensation path, shared by every runner so batched and
    unbatched records cannot diverge).  ``tenant_names`` labels a
    workload point's tenant ids; the per-tenant stats then land in the
    ``tenants`` column, with p95s computed here by the sweep's own
    :func:`nearest_rank_p95` (one percentile definition for the whole
    harness)."""
    pipelined = spec.switching != "sf"
    tenants_col = ""
    if result.tenant_stats:
        tenants_col = encode_tenant_column(
            tenant_names,
            result.tenant_stats,
            p95={
                ts.tenant: nearest_rank_p95(ts.latencies)
                for ts in result.tenant_stats
            },
        )
    return SweepRecord(
        topology=topo.name,
        router=spec.router,
        pattern=spec.pattern if not (spec.collective or spec.workload) else "-",
        collective=spec.collective,
        # the column is always the canonical spelling, even when the
        # caller hands run_point a raw spec directly
        workload=(
            spec.workload
            if not spec.workload or spec.workload.startswith("trace:")
            else canonical_workload(spec.workload)
        ),
        load=spec.load,
        seed=spec.seed,
        faults=spec.faults,
        num_faults=plan.num_events if plan is not None else 0,
        switching=spec.switching,
        num_vcs=spec.num_vcs if pipelined else 1,
        buffer_depth=spec.buffer_depth if pipelined else 0,
        flits=spec.flits if pipelined else "1",
        rounds=rounds,
        round_bound=round_bound,
        nodes=topo.num_nodes,
        injected=result.injected,
        delivered=result.delivered,
        dropped=result.dropped,
        misroutes=result.misroutes,
        stalled=result.stalled,
        deadlocked=result.deadlocked,
        cycles=result.cycles,
        max_queue=result.max_queue,
        avg_latency=result.avg_latency,
        p95_latency=nearest_rank_p95(result.latencies),
        max_latency=result.max_latency,
        throughput=result.throughput,
        delivery_rate=result.delivery_rate,
        analytic_bound=analytic_saturation_bound(topo.name),
        tenants=tenants_col,
        batch=batch,
    )


def _run_open_loop(
    specs: Sequence[PointSpec],
    topo: Topology,
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> List[SweepRecord]:
    """Simulate open-loop points on one topology in one lock-step
    :class:`~repro.network.batch.BatchedSimulator` run and condense each
    (the single packing path of :func:`run_point` and
    :func:`run_batch_points`, so a batched record can never diverge from
    the solo one).  One router instance per router name, so the points
    also share route tables; every spec carries the same
    ``max_cycles``."""
    routers: Dict[str, object] = {}
    items: List[BatchItem] = []
    plans: List[Optional[FaultPlan]] = []
    names_of: List[Sequence[str]] = []
    for spec in specs:
        router = routers.setdefault(spec.router, _resolve_router(spec.router)())
        plan = _point_plan(spec, topo)
        flow = _point_flow(spec)
        tenants = None
        tenant_names: Sequence[str] = ()
        if spec.workload:
            compiled = _point_workload(spec, topo, plan, traces)
            traffic: List[Tuple[int, int, int]] = list(compiled.traffic)
            tenants = compiled.tenants
            tenant_names = compiled.names
        else:
            traffic = _point_traffic(spec, topo, plan)
        sizes: "int | list" = (
            flit_sizes(len(traffic), spec.flits, seed=spec.seed)
            if spec.switching != "sf" else 1
        )
        items.append(BatchItem(
            traffic=traffic, router=router, faults=plan,
            switching=flow, flits=sizes, tenants=tenants,
        ))
        plans.append(plan)
        names_of.append(tenant_names)
    outcomes = BatchedSimulator(topo, backend=backend).run_batch(
        items, max_cycles=specs[0].max_cycles
    )
    return [
        _condense(spec, topo, plan, result, batch=len(specs), tenant_names=names)
        for spec, plan, result, names in zip(specs, plans, outcomes, names_of)
    ]


def run_point(
    spec: PointSpec,
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> SweepRecord:
    """Run one grid point: build, generate, simulate, condense.

    Pattern points generate ``load``-normalised open-loop traffic;
    collective points (``spec.collective`` non-empty) compile and run
    the closed-loop barriered collective instead, the seed choosing the
    root; workload points (``spec.workload`` non-empty) compile the
    multi-tenant overlay -- or replay the trace resolved through
    ``traces`` -- and carry per-tenant stats in the record.  ``backend``
    selects the kernel implementation
    (:mod:`repro.network.backends`); it is deliberately *not* part of
    the spec -- records are bit-identical across backends, so the point
    and its cache key describe the simulation, not the machinery.
    """
    topo = parse_topology(spec.topology)
    if not spec.collective:
        return _run_open_loop([spec], topo, backend, traces)[0]
    router = _resolve_router(spec.router)()
    plan = _point_plan(spec, topo)
    flow = _point_flow(spec)
    if spec.collective not in COLLECTIVES:
        raise ValueError(
            f"unknown collective {spec.collective!r}; "
            f"choose from {sorted(COLLECTIVES)}"
        )
    coll = run_collective(
        topo, spec.collective, root=spec.seed % topo.num_nodes,
        router=router,
        engine=(
            VectorizedSimulator if backend is None
            else partial(VectorizedSimulator, backend=backend)
        ),
        switching=flow,
        flits=spec.flits if spec.switching != "sf" else 1, flit_seed=spec.seed,
        faults=plan, max_cycles=spec.max_cycles,
    )
    return _condense(spec, topo, plan, coll.result, coll.rounds, coll.round_bound)


def normalize_spec(spec: PointSpec) -> PointSpec:
    """Collapse a spec onto its canonical form: the one whose axes all
    matter.

    Store-and-forward points ignore the flow-control axes
    (``num_vcs``/``buffer_depth``/``flits`` are pinned to ``1``/``0``/
    ``"1"``); collective points ignore the open-loop ``pattern``/``load``
    axes (pinned to ``"-"``/``1.0``).  Workload points pin ``pattern``
    to ``"-"`` (tenants bring their own patterns) and canonicalise the
    inline workload spelling; trace-replay workloads additionally pin
    ``load`` to ``1.0`` (a recorded schedule does not scale).  Two specs
    with the same canonical form produce bit-identical records, so this
    is both how :func:`expand_grid` dedupes the grid and how the service
    cache's ``point_key`` decides two points are the same simulation.
    """
    if spec.collective and spec.workload:
        raise ValueError(
            "a grid point cannot be both a collective and a workload "
            f"(got collective={spec.collective!r}, "
            f"workload={spec.workload!r})"
        )
    if spec.collective and (spec.pattern != "-" or spec.load != 1.0):
        spec = replace(spec, pattern="-", load=1.0)
    if spec.workload:
        if spec.workload.startswith("trace:"):
            if spec.pattern != "-" or spec.load != 1.0:
                spec = replace(spec, pattern="-", load=1.0)
        else:
            canon = canonical_workload(spec.workload)
            if spec.pattern != "-" or spec.workload != canon:
                spec = replace(spec, pattern="-", workload=canon)
    if spec.switching == "sf" and (
        spec.num_vcs != 1 or spec.buffer_depth != 0 or spec.flits != "1"
    ):
        spec = replace(spec, num_vcs=1, buffer_depth=0, flits="1")
    return spec


def _spec_batchable(spec: PointSpec) -> bool:
    """Points the lock-step batch engine advances natively: every
    open-loop pattern point, switching mode regardless (the fused kernel
    batches sf and wormhole/vct alike).  Collectives are closed-loop --
    their barriers re-plan traffic between phases -- so they run
    point-by-point."""
    return not spec.collective


def run_batch_points(
    specs: Sequence[PointSpec],
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> List[SweepRecord]:
    """Run a group of grid points, co-batching the compatible ones.

    Batchable points (see :func:`_spec_batchable`) sharing a topology
    and cycle cap are packed into one
    :class:`~repro.network.batch.BatchedSimulator` lock-step run -- one
    router instance per router name, so replications also share route
    tables; switching modes mix freely within a pack, and workload
    points batch natively (their per-packet tenant ids ride on the
    :class:`~repro.network.batch.BatchItem`).  Only closed-loop
    collective points run through :func:`run_point`.  Records
    come back in ``specs`` order and are bit-identical to the unbatched
    ones, except that ``batch`` records each point's co-batch size.

    This is the unit :func:`run_sweep` distributes over its
    multiprocessing pool when ``batch > 1`` (whole batches, not
    points).
    """
    specs = list(specs)
    records: List[Optional[SweepRecord]] = [None] * len(specs)
    groups: Dict[Tuple[str, int], List[int]] = {}
    for i, spec in enumerate(specs):
        if _spec_batchable(spec):
            groups.setdefault((spec.topology, spec.max_cycles), []).append(i)
        else:
            records[i] = run_point(spec, backend=backend, traces=traces)
    for (tspec, _), members in groups.items():
        recs = _run_open_loop(
            [specs[i] for i in members], parse_topology(tspec), backend, traces
        )
        for i, rec in zip(members, recs):
            records[i] = rec
    return records  # type: ignore[return-value]


def expand_grid(
    topologies: Sequence[str],
    patterns: Sequence[str] = ("uniform",),
    loads: Sequence[float] = (0.1, 0.2, 0.4, 0.6, 0.8),
    routers: Sequence[str] = ("bfs",),
    seeds: Sequence[int] = (0,),
    faults: Sequence[str] = ("",),
    switching: Sequence[str] = ("sf",),
    vcs: Sequence[int] = (1,),
    buffers: Sequence[int] = (4,),
    flits: Sequence[str] = ("1",),
    collectives: Sequence[str] = ("",),
    workloads: Sequence[str] = ("",),
    inject_window: int = 64,
    max_cycles: int = 100000,
) -> List[PointSpec]:
    """Expand and validate a sweep grid into its ordered, deduped
    :class:`PointSpec` list.

    This is the single grid semantics shared by :func:`run_sweep` and
    the sweep service: every axis value is validated eagerly (unknown
    names, impossible fault plans and bad flit specs raise before any
    point runs), each grid cell is normalised via :func:`normalize_spec`
    and duplicates collapse while preserving first-seen grid order.
    ``workloads`` adds multi-tenant points (``""`` = the single-tenant
    grid): inline tenant specs are parsed eagerly, ``trace:<key>``
    references resolve at run time.  A grid cannot cross non-empty
    workloads with non-empty collectives -- a cell cannot be both.
    """
    for p in patterns:
        if p not in PATTERNS:
            raise ValueError(f"unknown traffic pattern {p!r}; choose from {sorted(PATTERNS)}")
    for c in collectives:
        if c and c not in COLLECTIVES:
            raise ValueError(
                f"unknown collective {c!r}; choose from {sorted(COLLECTIVES)}"
            )
    for w in workloads:
        if w and not w.startswith("trace:"):
            canonical_workload(w)  # raises on a bad inline spec
    if any(workloads) and any(collectives):
        raise ValueError(
            "workloads and collectives cannot cross in one grid: a cell "
            "cannot be both a multi-tenant workload and a closed-loop "
            "collective -- run them as two sweeps"
        )
    for r in routers:
        if r not in ROUTERS:
            raise ValueError(f"unknown router {r!r}; choose from {sorted(ROUTERS)}")
    for sw in switching:
        if sw not in SWITCHING_MODES:
            raise ValueError(
                f"unknown switching mode {sw!r}; choose from {SWITCHING_MODES}"
            )
        if sw != "sf":
            for v in vcs:
                for b in buffers:
                    FlowControl(switching=sw, buffer_depth=b, num_vcs=v)
    for fl in flits:
        flit_sizes(0, fl)  # raises on a bad spec
    for t in topologies:
        topo = parse_topology(t)  # raises on a bad spec before any point runs
        for f in faults:
            if f:
                FaultPlan.parse(f, num_nodes=topo.num_nodes).validate(topo)
    return list(dict.fromkeys(
        normalize_spec(PointSpec(
            topology=t, router=r, pattern=p, load=ld, seed=s, faults=f,
            switching=sw, num_vcs=v, buffer_depth=b, flits=fl,
            collective=c, workload=w,
            inject_window=inject_window, max_cycles=max_cycles,
        ))
        for t in topologies
        for r in routers
        for p in patterns
        for f in faults
        for sw in switching
        for v in vcs
        for b in buffers
        for fl in flits
        for c in collectives
        for w in workloads
        for ld in loads
        for s in seeds
    ))


def _execute(
    specs: Sequence[PointSpec],
    processes: int = 1,
    batch: int = 1,
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> List[SweepRecord]:
    """Run already-validated specs, preserving order: the execution half
    of :func:`run_sweep` (also what the sweep service's workers use).

    ``backend`` crosses process boundaries, so with ``processes > 1`` it
    must be a backend *name* (or ``None``) -- backend objects hold
    unpicklable state (a loaded shared library).  ``traces`` resolves
    ``trace:<key>`` workload references; :class:`Trace` is plain tuples,
    so the mapping pickles to pool workers.
    """
    specs = list(specs)
    if batch <= 1:
        if processes > 1 and len(specs) > 1:
            with multiprocessing.Pool(processes) as pool:
                return pool.map(
                    partial(run_point, backend=backend, traces=traces), specs
                )
        return [run_point(s, backend=backend, traces=traces) for s in specs]
    # pack compatible specs into batch tasks; the pool (when used)
    # distributes whole batches, and records reassemble in grid order
    groups: Dict[object, List[PointSpec]] = {}
    for s in specs:
        key = (s.topology, s.max_cycles) if _spec_batchable(s) else None
        groups.setdefault(key, []).append(s)
    tasks = [
        members[i:i + batch]
        for members in groups.values()
        for i in range(0, len(members), batch)
    ]
    if processes > 1 and len(tasks) > 1:
        with multiprocessing.Pool(processes) as pool:
            outs = pool.map(
                partial(run_batch_points, backend=backend, traces=traces),
                tasks,
            )
    else:
        outs = [
            run_batch_points(task, backend=backend, traces=traces)
            for task in tasks
        ]
    by_spec = {
        spec: rec for task, recs in zip(tasks, outs)
        for spec, rec in zip(task, recs)
    }
    return [by_spec[s] for s in specs]


def run_sweep(
    topologies: Sequence[str],
    patterns: Sequence[str] = ("uniform",),
    loads: Sequence[float] = (0.1, 0.2, 0.4, 0.6, 0.8),
    routers: Sequence[str] = ("bfs",),
    seeds: Sequence[int] = (0,),
    faults: Sequence[str] = ("",),
    switching: Sequence[str] = ("sf",),
    vcs: Sequence[int] = (1,),
    buffers: Sequence[int] = (4,),
    flits: Sequence[str] = ("1",),
    collectives: Sequence[str] = ("",),
    workloads: Sequence[str] = ("",),
    inject_window: int = 64,
    max_cycles: int = 100000,
    processes: int = 1,
    batch: int = 1,
    cache=None,
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> List[SweepRecord]:
    """Run the (topology x router x pattern x faults x switching x vcs x
    buffers x flits x collective x load x seed) grid.

    ``faults`` is a sequence of fault-plan spec strings (``""`` = the
    unfaulted baseline), so one call produces degradation curves.
    ``switching``/``vcs``/``buffers``/``flits`` sweep the flow-control
    configuration; ``"sf"`` points ignore the latter three axes (their
    specs are normalised, so a mixed grid never re-runs the same
    store-and-forward point).  ``collectives`` adds closed-loop
    collective points (``""`` = the plain pattern grid); a collective
    point's pattern/load axes are normalised away, so one collective
    entry contributes exactly one point per (topology, router, faults,
    flow, seed) cell.  ``batch > 1`` packs up to that many compatible
    points (open-loop pattern points sharing topology and cycle cap,
    any mix of switching modes)
    into each lock-step :class:`~repro.network.batch.BatchedSimulator`
    run -- records stay bit-identical, only the ``batch`` column and the
    wall-clock change.  ``processes > 1`` distributes the work over a
    multiprocessing pool (whole batches when batching); specs are
    validated eagerly via :func:`expand_grid` (unknown names, impossible
    fault plans and bad flit specs raise before any worker starts).

    ``cache`` is an optional content-addressed result cache (anything
    with the ``get(spec) -> SweepRecord | None`` / ``put(spec, record)``
    protocol of :class:`repro.network.service.ResultCache`): cached grid
    cells are never re-simulated, only the missing cells run, and fresh
    records are stored on the way out -- so re-running a grid is
    incremental and a fully warm grid costs no simulation at all.
    Cached records report ``batch=1`` (the bookkeeping column describes
    the run that produced them, not this one); every payload column is
    bit-identical to the uncached run.

    ``backend`` picks the kernel implementation
    (:mod:`repro.network.backends`; a name string when ``processes >
    1``).  Backends are bit-identical, so it never enters the grid, the
    records, or the cache keys: a cache warmed under one backend is
    fully warm under every other.

    ``workloads`` adds multi-tenant points (see :func:`expand_grid`);
    ``traces`` maps trace keys to loaded
    :class:`~repro.network.workloads.Trace` objects for ``trace:<key>``
    workload values (the CLI builds it from ``--trace`` files).  Trace
    points cache by the trace's *content* key, so a warm cache follows
    the trace wherever its file moves.
    """
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    specs = expand_grid(
        topologies, patterns=patterns, loads=loads, routers=routers,
        seeds=seeds, faults=faults, switching=switching, vcs=vcs,
        buffers=buffers, flits=flits, collectives=collectives,
        workloads=workloads,
        inject_window=inject_window, max_cycles=max_cycles,
    )
    if cache is None:
        return _execute(
            specs, processes=processes, batch=batch, backend=backend,
            traces=traces,
        )
    found = {s: r for s in specs if (r := cache.get(s)) is not None}
    missing = [s for s in specs if s not in found]
    if missing:
        runs = _execute(missing, processes, batch, backend=backend,
                        traces=traces)
        for spec, rec in zip(missing, runs):
            cache.put(spec, rec)
            found[spec] = rec
    return [found[s] for s in specs]


def flow_tag(rec: SweepRecord) -> str:
    """The flow-control axis of a curve key: ``""`` for store-and-forward,
    ``"wormhole:v2:b4:f1-8"``-style (:meth:`FlowControl.label` plus the
    flit spec) for the pipelined modes."""
    if rec.switching == "sf":
        return ""
    flow = FlowControl(
        switching=rec.switching,
        buffer_depth=rec.buffer_depth,
        num_vcs=rec.num_vcs,
    )
    return f"{flow.label()}:f{rec.flits}"


@dataclass(frozen=True)
class CurvePoint:
    """One aggregated saturation-curve point: every seed of one
    (topology, router, pattern, faults, flow, collective) cell condensed
    to mean/std (population std; zero for single-seed cells).
    ``deadlock_rate`` is the fraction of seeds whose run deadlocked;
    ``stalled`` the mean stuck-packet count.  For collective cells
    ``rounds`` is the mean schedule round count over the seeds (roots
    vary by seed, so BFS-tree round counts may too) against the shared
    ``round_bound``; both are zero on pattern cells.

    Seed-axis aggregation is deliberately mixed and the choice per
    column is part of the contract: ``p95_latency`` is the **mean of
    the per-seed p95s** (each seed's :func:`nearest_rank_p95` averaged
    across seeds -- an unbiased per-replication tail estimate, *not*
    the p95 of the pooled latency sample, which would let one bad seed's
    tail dominate the cell), while ``max_queue`` and ``max_latency``
    take the **max** over seeds (high-water marks: "the worst any
    replication saw" is the number a buffer-sizing decision needs).
    The pooled-sample p95 lies within the per-seed min/max envelope, a
    bound the cross-check test pins down so these semantics cannot
    silently drift."""

    topology: str
    router: str
    pattern: str
    collective: str
    faults: str
    switching: str
    num_vcs: int
    buffer_depth: int
    flits: str
    rounds: float
    round_bound: int
    load: float
    seeds: int
    avg_latency: float
    std_avg_latency: float
    p95_latency: float
    max_latency: int
    throughput: float
    std_throughput: float
    delivery_rate: float
    max_queue: int
    dropped: float
    misroutes: float
    stalled: float
    deadlock_rate: float


def saturation_curves(
    records: Sequence[SweepRecord],
) -> Dict[Tuple[str, str, str, str, str, str], List[CurvePoint]]:
    """Regroup records into per-(topology, router, pattern, faults, flow,
    collective) load curves, sorted by offered load (the saturation-curve
    x axis).

    Multi-seed cells aggregate into one :class:`CurvePoint` per load
    instead of interleaving seed replicas along the curve; the fifth key
    element is :func:`flow_tag`'s switching-configuration string (``""``
    for plain store-and-forward) and the sixth the collective name
    (``""`` for pattern records, whose curves are unchanged).  Workload
    records put their workload spec in the pattern slot (their
    ``pattern`` column is the uninformative ``"-"``), so distinct
    workloads on one topology get distinct curves.
    """
    cells: Dict[
        Tuple[str, str, str, str, str, str], Dict[float, List[SweepRecord]]
    ] = {}
    for rec in records:
        key = (rec.topology, rec.router, rec.workload or rec.pattern,
               rec.faults, flow_tag(rec), rec.collective)
        cells.setdefault(key, {}).setdefault(rec.load, []).append(rec)
    curves: Dict[Tuple[str, str, str, str, str, str], List[CurvePoint]] = {}
    for key, by_load in cells.items():
        curve = []
        for load in sorted(by_load):
            rs = by_load[load]
            lats = [r.avg_latency for r in rs]
            thrus = [r.throughput for r in rs]
            curve.append(CurvePoint(
                topology=key[0],
                router=key[1],
                pattern=key[2],
                collective=key[5],
                faults=key[3],
                switching=rs[0].switching,
                num_vcs=rs[0].num_vcs,
                buffer_depth=rs[0].buffer_depth,
                flits=rs[0].flits,
                rounds=fmean(r.rounds for r in rs),
                round_bound=rs[0].round_bound,
                load=load,
                seeds=len(rs),
                avg_latency=fmean(lats),
                std_avg_latency=pstdev(lats) if len(lats) > 1 else 0.0,
                p95_latency=fmean(r.p95_latency for r in rs),
                max_latency=max(r.max_latency for r in rs),
                throughput=fmean(thrus),
                std_throughput=pstdev(thrus) if len(thrus) > 1 else 0.0,
                delivery_rate=fmean(r.delivery_rate for r in rs),
                max_queue=max(r.max_queue for r in rs),
                dropped=fmean(r.dropped for r in rs),
                misroutes=fmean(r.misroutes for r in rs),
                stalled=fmean(r.stalled for r in rs),
                deadlock_rate=fmean(float(r.deadlocked) for r in rs),
            ))
        curves[key] = curve
    return curves


_FIELDS = [f.name for f in fields(SweepRecord)]


def write_csv(records: Sequence[SweepRecord], path: str) -> None:
    """Dump records as CSV (one header row, one row per sweep point)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))


def write_json(records: Sequence[SweepRecord], path: str) -> None:
    """Dump records as a JSON array of objects."""
    with open(path, "w") as fh:
        json.dump([asdict(rec) for rec in records], fh, indent=2)
        fh.write("\n")
