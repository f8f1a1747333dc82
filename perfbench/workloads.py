"""The four benchmark workloads.

Every workload is a closed loop: one caller waits for each result before
it issues the next call.  A workload is built from the benchmark seed;
:meth:`Workload.setup` builds what every pass needs (grids, topologies,
the server), :meth:`Workload.run_pass` runs one timed unit of work and
:meth:`Workload.check` verifies a pass's outputs outside the timed region.
Each check failure names one failed operation (a sweep point, a submit, a
Table 1 cell or a count); the runner counts them against ``attempted``.

Per pass each workload reports the CPU time of its whole unit of work, of
two phases and of each operation (see ``perfbench/README.md`` for the
table), all in reference seconds: timed on the work clock of
:mod:`hostclock` (process CPU time) and scaled by the host speed measured
around each interval.  A workload whose timings are single-threaded
samples the host speed on a timer (``timer_sampling``);
``service-resubmit`` samples it between submits.  The sweep workloads take
per-point (per-co-batch) times from a bare clock around
``repro.network.sweep.run_point`` / ``run_batch_points`` -- two clock reads
per call against 20 ms to 1 s of work -- so the grid itself still runs
through one ``run_sweep`` call.  The pass's wall time is kept for the
report and the traced run.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from hostclock import CLOCK

PATTERNS = ["uniform", "transpose", "tornado", "hotspot"]
QOS_MIX = "bg:uniform:0.3;fg:hotspot:0.2:1"
BACKEND = "native"
COUNT_REPEATS = 3
LIGHT_LOAD = 0.3  # sf-sweep phase_a_cpu_s: the points at or below this load


@dataclass
class PassResult:
    # CPU times in reference seconds, except raw_cpu_s (the work clock);
    # wall_s is perf_counter wall time
    cpu_s: float
    raw_cpu_s: float
    wall_s: float
    phase_a_s: float
    phase_b_s: float
    ops: List[float]
    outputs: object
    # per-pass scalars (reported as the median over passes) and pooled
    # samples (reported as p50 and tail) for the report's named metrics
    notes: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    # operations per pass: sweep points, submits, or Table 1 cells + counts
    attempted = 0
    # report-only names of the end-to-end metrics on this workload
    aliases: Dict[str, str] = {}
    # sample the host speed on a timer while a pass runs (False: the
    # workload calls CLOCK.tick() itself)
    timer_sampling = True

    def __init__(self, seed: int, work_dir: Path, small: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.small = small

    def setup(self) -> None:
        """Everything a pass needs that a user pays once per process."""

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> List[str]:
        """Names of the operations whose output is wrong."""
        raise NotImplementedError

    def close(self) -> None:
        pass


@contextmanager
def clocked(owner, attr: str, samples: list):
    """Time every call of ``owner.attr``: appends ``(first argument, start,
    end)`` on the work clock to ``samples`` and restores the original
    afterwards."""
    original = getattr(owner, attr)

    def timed(arg, *args, **kwargs):
        start = CLOCK.now()
        out = original(arg, *args, **kwargs)
        samples.append((arg, start, CLOCK.now()))
        return out

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# -- sweeps -------------------------------------------------------------------


class SweepWorkload(Workload):
    batch = 1
    clock_attr = "run_point"
    sample_name = "point_cpu_s"
    oracle_per_topology = 1

    def grid(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.network import sweep
        from repro.network.backends import resolve_backend

        self.backend = type(resolve_backend(BACKEND)).__name__
        self.grid_args = self.grid()
        self.specs = sweep.expand_grid(**self.grid_args)
        self.attempted = len(self.specs)
        self.large = self.grid_args["topologies"][0]
        self._first: Optional[list] = None
        self._oracle_done = False

    def run_pass(self, tracer=None) -> PassResult:
        from repro.network import sweep

        spans: list = []
        with clocked(sweep, self.clock_attr, spans):
            wall_start, start = time.perf_counter(), CLOCK.now()
            records = sweep.run_sweep(
                **self.grid_args, batch=self.batch, processes=1, backend=BACKEND
            )
            end, wall_end = CLOCK.now(), time.perf_counter()

        cpu = CLOCK.norm(start, end)
        samples = [(arg, CLOCK.norm(t0, t1)) for arg, t0, t1 in spans]
        big = [t for arg, t in samples if self.cube(arg) == self.large]
        small = [t for arg, t in samples if self.cube(arg) != self.large]
        phase_a = sum(t for arg, t in samples if self.in_phase_a(arg))
        return PassResult(
            cpu_s=cpu, raw_cpu_s=end - start, wall_s=wall_end - wall_start,
            phase_a_s=phase_a,
            phase_b_s=sum(t for _, t in samples) - phase_a,
            ops=[a + b for a, b in zip(big, small)], outputs=records,
            notes={"sim_packets_per_cpu_s": sum(r.delivered for r in records) / cpu},
            samples={self.sample_name: [t for _, t in samples]},
        )

    def cube(self, arg) -> str:
        """The topology of a clocked call: one spec, or a co-batch of them."""
        return arg.topology if self.clock_attr == "run_point" else arg[0].topology

    def in_phase_a(self, arg) -> bool:
        return self.cube(arg) == self.large

    def check(self, result: PassResult) -> List[str]:
        from repro.network.sweep import parse_topology

        records = result.outputs
        if len(records) != len(self.specs):
            return [f"point {i}" for i in range(len(self.specs))]
        bad = []
        for i, (spec, rec) in enumerate(zip(self.specs, records)):
            if (
                rec.load != spec.load or rec.seed != spec.seed
                or rec.nodes != parse_topology(spec.topology).num_nodes
                or rec.injected != rec.delivered + rec.dropped + rec.stalled
                or (spec.switching == "sf" and rec.deadlocked)
                or (self._first is not None and rec != self._first[i])
            ):
                bad.append(f"point {i}")
        if self._first is None:
            self._first = list(records)
        if not self._oracle_done:
            self._oracle_done = True
            bad += [f"point {i}" for i in self._oracle_sample()
                    if not _matches_reference(self.specs[i], records[i])]
        return sorted(set(bad))

    def _oracle_sample(self) -> List[int]:
        """Seed-chosen low-load points, ``oracle_per_topology`` per cube:
        the reference engine costs ~3x the vectorised one per point."""
        rng = random.Random(self.seed)
        low = min(s.load for s in self.specs)
        picks: List[int] = []
        for topo in self.grid_args["topologies"]:
            pool = [i for i, s in enumerate(self.specs)
                    if s.topology == topo and s.load == low]
            picks += rng.sample(pool, min(self.oracle_per_topology, len(pool)))
        return picks


def _matches_reference(spec, rec) -> bool:
    """Re-derive the point's traffic from the public generators and run it
    through :class:`ReferenceSimulator`, the per-packet spec engine."""
    from repro.network.flowcontrol import FlowControl
    from repro.network.routing import BfsRouter
    from repro.network.simulator import ReferenceSimulator
    from repro.network.sweep import nearest_rank_p95, parse_topology
    from repro.network.traffic import flit_sizes, make_traffic
    from repro.network.workloads import compile_workload

    topo = parse_topology(spec.topology)
    tenants = None
    if spec.workload:
        compiled = compile_workload(
            spec.workload, topo, spec.inject_window, seed=spec.seed,
            load_scale=spec.load,
        )
        traffic, tenants = list(compiled.traffic), compiled.tenants
    else:
        packets = max(1, round(spec.load * topo.num_nodes * spec.inject_window))
        traffic = make_traffic(spec.pattern, topo, packets, spec.inject_window,
                               seed=spec.seed)
    if spec.switching == "sf":
        flow, flits = "sf", 1
    else:
        flow = FlowControl(switching=spec.switching,
                           buffer_depth=spec.buffer_depth, num_vcs=spec.num_vcs)
        flits = flit_sizes(len(traffic), spec.flits, seed=spec.seed)
    ref = ReferenceSimulator(topo, BfsRouter()).run(
        traffic, max_cycles=spec.max_cycles, switching=flow, flits=flits,
        tenants=tenants,
    )
    return (
        ref.injected, ref.delivered, ref.dropped, ref.stalled, ref.deadlocked,
        ref.cycles, ref.max_queue, ref.avg_latency,
        nearest_rank_p95(ref.latencies), ref.max_latency,
    ) == (
        rec.injected, rec.delivered, rec.dropped, rec.stalled, rec.deadlocked,
        rec.cycles, rec.max_queue, rec.avg_latency, rec.p95_latency,
        rec.max_latency,
    )


class SfSweep(SweepWorkload):
    name = "sf-sweep"
    why = ("paper saturation grid Q_8 vs Q_9(11), store-and-forward, batch=1: "
           "route prep dominates and the kernel is ~1%, so prep and traffic "
           "changes show here")

    def in_phase_a(self, spec) -> bool:
        # the light half of the curve; the Q_9(11) points alone are ~11% of a
        # pass, 32 calls of ~30 ms, too little work for a steady phase
        return spec.load <= LIGHT_LOAD

    def grid(self) -> dict:
        s = self.seed
        if self.small:
            return dict(topologies=["Q:4", "11:5"], patterns=PATTERNS[:2],
                        loads=[0.1, 0.6], seeds=[s, s + 1])
        return dict(topologies=["Q:8", "11:9"], patterns=PATTERNS,
                    loads=[0.1, 0.3, 0.6, 1.0], seeds=[s, s + 1])


class WormholeBatch(SweepWorkload):
    name = "wormhole-batch"
    why = ("wormhole, 2 VCs, 4-flit packets, batch=8 incl. a two-tenant QoS mix: "
           "the flow kernel is the largest layer and prep runs the shared batch path")
    batch = 8
    clock_attr = "run_batch_points"
    sample_name = "cobatch_cpu_s"
    oracle_per_topology = 2

    def grid(self) -> dict:
        s = self.seed
        flow = dict(switching=["wormhole"], vcs=[2], buffers=[4], flits=["4"],
                    workloads=["", QOS_MIX], seeds=[s, s + 1])
        if self.small:
            return dict(topologies=["Q:4", "11:5"], patterns=PATTERNS[:1],
                        loads=[0.1, 0.3], **flow)
        return dict(topologies=["Q:7", "11:8"], patterns=PATTERNS,
                    loads=[0.1, 0.3, 0.6], **flow)


# -- the sweep service ----------------------------------------------------------


class ServiceResubmit(Workload):
    name = "service-resubmit"
    why = ("in-process SweepServer, one client: cold submit, warm resubmits, then "
           "a grown grid; the only workload that reads and writes the result cache")
    workers = 2
    batch = 8
    # the server's pool threads would share the GIL with a timer's chunks;
    # the client takes them instead, after each submit and every few
    # records of a submit that simulates
    timer_sampling = False
    ticks_around = 10
    records_per_tick = 8
    # the phases are the submits that simulate (cold + grow) and those the
    # cache serves (the warm ones): a single cold or grow submit is under a
    # second of CPU on three threads and scattered by ~8% run to run
    aliases = {"submit_cpu_s.simulating": "phase_a_cpu_s",
               "submit_cpu_s.cached": "phase_b_cpu_s",
               "submit_cpu_s.warm.p50": "op_cpu_s.p50",
               "submit_cpu_s.warm.tail": "op_cpu_s.tail"}

    def setup(self) -> None:
        from repro.network.service import SweepServer
        from repro.network.sweep import expand_grid

        s = self.seed
        if self.small:
            base = dict(topologies=["Q:3", "11:4"], patterns=["uniform", "hotspot"],
                        loads=[0.1, 0.3])
            self.grid_a = dict(base, seeds=[s, s + 1])
            self.grid_grow = dict(base, seeds=[s, s + 1, s + 2])
            self.warm_submits = 3
        else:
            base = dict(topologies=["Q:6", "11:7"], patterns=PATTERNS,
                        loads=[0.1, 0.3, 0.6, 1.0])
            self.grid_a = dict(base, seeds=list(range(s, s + 4)))
            self.grid_grow = dict(base, seeds=list(range(s, s + 6)))
            self.warm_submits = 40
        self.specs_a = expand_grid(**self.grid_a)
        self.specs_grow = expand_grid(**self.grid_grow)
        self.attempted = self.warm_submits + 2
        self._reference: Optional[dict] = None
        self._passes = 0
        self.server = SweepServer(port=0, workers=self.workers, batch=self.batch,
                                  backend=BACKEND)
        ready = threading.Event()

        async def serve():
            await self.server.start()
            ready.set()
            await self.server.serve_until_shutdown()

        self._thread = threading.Thread(target=lambda: asyncio.run(serve()),
                                        name="bench-server", daemon=True)
        self._thread.start()
        if not ready.wait(timeout=60):
            raise RuntimeError("sweep server did not start within 60 s")

    def close(self) -> None:
        self.server.request_shutdown()
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("sweep server did not shut down within 60 s")
        shutil.rmtree(self.work_dir / "service", ignore_errors=True)

    def _submit(self, client, grid: dict, tracer, simulates: bool = False) -> dict:
        events: dict = {"records_seen": 0}
        wall_start, start = time.perf_counter(), CLOCK.now()
        span = tracer.open("network.service.server", "submit->accepted") if tracer else None

        def on_event(ev: dict) -> None:
            kind = ev.get("event")
            if kind == "accepted" and span is not None:
                tracer.close(span)
            elif kind == "record":
                if not events["records_seen"]:
                    events["first_record_s"] = time.perf_counter() - wall_start
                events["records_seen"] += 1
                if simulates and events["records_seen"] % self.records_per_tick == 0:
                    CLOCK.tick()
            elif kind == "done":
                events["done"] = ev

        events["records"] = client.submit(grid, on_event=on_event)
        events["span"] = (start, CLOCK.now())
        CLOCK.tick()
        return events

    def run_pass(self, tracer=None) -> PassResult:
        from repro.network.service import ResultCache, SweepClient

        self._passes += 1
        # a fresh cache per pass, so every cold submit is really cold
        self.server.cache = ResultCache(self.work_dir / "service" / f"pass-{self._passes}")
        client = SweepClient(port=self.server.port, timeout=120)
        for _ in range(self.ticks_around):
            CLOCK.tick()
        wall_start, start = time.perf_counter(), CLOCK.now()
        cold = self._submit(client, self.grid_a, tracer, simulates=True)
        warm = [self._submit(client, self.grid_a, tracer)
                for _ in range(self.warm_submits)]
        grow = self._submit(client, self.grid_grow, tracer, simulates=True)
        end, wall_end = CLOCK.now(), time.perf_counter()
        for _ in range(self.ticks_around - 1):
            CLOCK.tick()
        submits = [cold, *warm, grow]
        for e in submits:
            e["seconds"] = CLOCK.norm(*e["span"])
        # a latency, so wall time (report only, and the server layer's count)
        firsts = [e["first_record_s"] for e in submits]
        if tracer is not None:
            for e in submits:
                tracer.add("network.service.server.done_cached", e["done"]["cached"])
                tracer.add("network.service.server.done_simulated", e["done"]["simulated"])
            tracer.counts["network.service.server.first_record_s"] = median(firsts)
        return PassResult(
            cpu_s=CLOCK.norm(start, end), raw_cpu_s=end - start,
            wall_s=wall_end - wall_start,
            phase_a_s=cold["seconds"] + grow["seconds"],
            phase_b_s=sum(e["seconds"] for e in warm),
            ops=[e["seconds"] for e in warm],
            outputs=(cold, warm, grow),
            notes={"submit_cpu_s.cold": cold["seconds"], "submit_cpu_s.grow": grow["seconds"],
                   "first_record_wall_s.p50": median(firsts)},
        )

    def _expected(self, specs) -> list:
        """In-process ``run_sweep`` records for ``specs``, batch column
        normalised (cached records report ``batch=1``)."""
        if self._reference is None:
            from repro.network.sweep import run_sweep

            recs = run_sweep(**self.grid_grow, batch=self.batch, backend=BACKEND)
            self._reference = {s: replace(r, batch=1)
                               for s, r in zip(self.specs_grow, recs)}
        return [self._reference[s] for s in specs]

    def check(self, result: PassResult) -> List[str]:
        cold, warm, grow = result.outputs
        new = len(self.specs_grow) - len(self.specs_a)
        plan = [("cold", cold, self.specs_a, len(self.specs_a))]
        plan += [(f"warm {i}", e, self.specs_a, 0) for i, e in enumerate(warm)]
        plan.append(("grow", grow, self.specs_grow, new))
        bad = []
        for name, events, specs, simulated in plan:
            got = [replace(r, batch=1) for r in events["records"]]
            done = events.get("done", {})
            if (got != self._expected(specs) or done.get("simulated") != simulated
                    or done.get("cached") != len(specs) - simulated):
                bad.append(f"submit {name}")
        return bad


# -- the paper's own computation --------------------------------------------------


class PaperMath(Workload):
    name = "paper-math"
    why = ("Table 1 (length <= 6, d <= 11) plus 3x the vertex/edge/square and "
           "analytic counts of every orbit representative: no network code, the control")
    aliases = {"table1_cpu_s": "phase_a_cpu_s", "counts_cpu_s": "phase_b_cpu_s"}

    def setup(self) -> None:
        from repro.classify.table1 import orbit_representatives

        if self.small:
            self.max_length, self.max_d, self.d, self.d_analytic = 4, 7, 12, 50
        else:
            self.max_length, self.max_d, self.d, self.d_analytic = 6, 11, 20, 200
        self.reps = [r for n in range(1, self.max_length + 1)
                     for r in orbit_representatives(n)]
        self.attempted = len(self.reps) * (self.max_d + 5)
        self._first: Optional[tuple] = None

    def run_pass(self, tracer=None) -> PassResult:
        from repro.analytic import enumeration
        from repro.analytic.fsm import FSM
        from repro.classify import table1
        from repro.words import counting

        wall_start, start = time.perf_counter(), CLOCK.now()
        rows = table1.classification_table(max_length=self.max_length, max_d=self.max_d)
        table_end = CLOCK.now()
        counts_spans, op_spans = [], []
        # the counts phase is a fifth of Table 1 and one pass fills a run, so
        # it repeats: its median and per-factor samples then rest on more work
        for _ in range(COUNT_REPEATS):
            counts = {}
            phase_start = CLOCK.now()
            for f in self.reps:
                op_start = CLOCK.now()
                fsm = FSM.from_factors([f])
                counts[f] = (
                    counting.count_vertices_automaton(f, self.d),
                    counting.count_edges_automaton(f, self.d),
                    counting.count_squares_automaton(f, self.d),
                    enumeration.vertex_system(fsm).smart_term(self.d_analytic),
                    enumeration.edge_system(fsm).smart_term(self.d_analytic),
                )
                op_spans.append((op_start, CLOCK.now()))
            counts_spans.append((phase_start, CLOCK.now()))
        end, wall_end = CLOCK.now(), time.perf_counter()
        return PassResult(
            cpu_s=CLOCK.norm(start, end), raw_cpu_s=end - start,
            wall_s=wall_end - wall_start, phase_a_s=CLOCK.norm(start, table_end),
            phase_b_s=median(CLOCK.norm(*span) for span in counts_spans),
            ops=[CLOCK.norm(*span) for span in op_spans],
            outputs=(rows, counts),
        )

    def check(self, result: PassResult) -> List[str]:
        from repro.analytic import enumeration
        from repro.analytic.fsm import FSM
        from repro.classify.table1 import table1_expected
        from repro.invariants.counts import brute_counts
        from repro.words import counting

        rows, counts = result.outputs
        bad = []
        expected = table1_expected()
        by_factor = {row.f: row for row in rows}
        for f in self.reps:
            row = by_factor.get(f)
            if row is None or (len(f) <= 5 and row.threshold != expected[f]):
                bad += [f"table1 {f} d={d}" for d in range(1, self.max_d + 1)]
        small_d = min(self.d, 9)
        for f in self.reps:
            got = counts.get(f)
            names = [f"{kind} {f}" for kind in
                     ("vertices", "edges", "squares", "analytic-v", "analytic-e")]
            if got is None:
                bad += names
                continue
            v, e, sq, av, ae = got
            brute = brute_counts(f, small_d)
            fsm = FSM.from_factors([f])
            checks = (
                v == enumeration.vertex_system(fsm).smart_term(self.d)
                and counting.count_vertices_automaton(f, small_d) == brute.vertices,
                e == enumeration.edge_system(fsm).smart_term(self.d)
                and counting.count_edges_automaton(f, small_d) == brute.edges,
                counting.count_squares_automaton(f, small_d) == brute.squares,
                av == counting.count_vertices_automaton(f, self.d_analytic),
                ae == counting.count_edges_automaton(f, self.d_analytic),
            )
            bad += [name for name, ok in zip(names, checks) if not ok]
        outputs = ([(r.f, r.threshold) for r in rows], dict(counts))
        if self._first is None:
            self._first = outputs
        elif outputs != self._first:
            bad.append("pass outputs differ from the first pass")
        return bad


WORKLOADS = {w.name: w for w in (SfSweep, WormholeBatch, ServiceResubmit, PaperMath)}
