"""Collective-communication workloads compiled for the cycle engines.

The ICPP'93 line motivates the Fibonacci-cube topologies by their
*communication algorithms* -- broadcast trees, ring emulation over
Hamiltonian paths -- yet schedules alone say nothing about contention.
This module turns the abstract schedules of
:mod:`repro.network.broadcast` and :mod:`repro.network.hamilton` into
first-class *simulated* workloads: dependency-respecting
``(cycle, src, dst)`` traffic with a barrier between rounds, runnable
through both :class:`~repro.network.simulator.ReferenceSimulator` and
:class:`~repro.network.simulator.VectorizedSimulator` under every
switching mode and :class:`~repro.network.faults.FaultPlan`.

Collectives (single-port model: one send and one receive per node per
round)
-----------------------------------------------------------------------
``broadcast``
    One root informs everyone: the greedy binomial/BFS-tree schedule of
    :func:`~repro.network.broadcast.binomial_broadcast_schedule`
    (optimal ``ceil(log2 n)`` rounds on the hypercube).
``reduce``
    The broadcast tree run backwards: leaves combine towards the root,
    every round of the broadcast schedule reversed and arrow-flipped, so
    a node sends its partial result only after all of its children have.
``allgather``
    Everyone ends with everyone's block.  On the full hypercube this is
    recursive doubling -- round ``k`` exchanges along dimension ``k``,
    meeting the ``log2 n`` bound exactly; generalized cubes are not
    closed under bit flips, so there the schedule falls back to a
    BFS-tree gather (the ``reduce`` rounds) followed by the broadcast.
``alltoall``
    All-to-all personalized exchange: ``n - 1`` cyclic-shift rounds,
    round ``k`` sending node ``i``'s block to node ``(i + k) mod n`` --
    every ordered pair exactly once, one send/receive per node per round.
``ring``
    Ring emulation over a Hamiltonian path
    (:func:`~repro.network.hamilton.find_hamiltonian_path`): ``n - 1``
    rounds of neighbour shifts along the path (closing the ring over the
    end-to-end link when the path happens to be a cycle) -- the workload
    behind ring allgather/allreduce on a cube that has no ring.  When
    the budgeted search finds no path the ring is *virtual* (DFS order,
    successors routed multi-hop), keeping the workload total on every
    topology.

Compilation (:func:`run_collective`)
------------------------------------
Rounds are separated by barriers: all messages of round ``r`` are
injected at one cycle, and round ``r + 1`` is injected at the cycle the
engine reports round ``r`` complete.  The barrier cycles are
*discovered by simulation* (each round probed at its absolute barrier
cycle -- exact, because the network is drained at every barrier), so
they are correct under contention, multi-flit serialisation and faults
-- and because both engines are bit-identical, compiling against either
yields the same traffic and the same :class:`CollectiveResult`.  A
round that deadlocks or stalls at ``max_cycles`` stops injecting
further rounds and the final engine pass reports the wedged state
instead of hanging.

Every schedule is checked by :func:`verify_collective_schedule` (valid
nodes, single-port feasibility per round, tree/ring messages on real
links, full coverage) -- the tests run it on every collective and
topology they touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Dict, List, Optional, Tuple, Union

from repro.network.broadcast import binomial_broadcast_schedule, verify_schedule
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.hamilton import find_hamiltonian_path
from repro.network.routing import BfsRouter, RouteTable
from repro.network.simulator import (
    ReferenceSimulator,
    SimResult,
    VectorizedSimulator,
)
from repro.network.topology import Topology
from repro.network.traffic import flit_sizes

__all__ = [
    "COLLECTIVES",
    "CollectiveResult",
    "allgather_schedule",
    "alltoall_schedule",
    "broadcast_schedule",
    "collective_schedule",
    "reduce_schedule",
    "ring_schedule",
    "round_lower_bound",
    "run_collective",
    "schedule_link_loads",
    "verify_collective_schedule",
]

Round = List[Tuple[int, int]]
Schedule = List[Round]


def round_lower_bound(topo: Topology) -> int:
    """The single-port lower bound ``ceil(log2 n)`` on collective rounds."""
    n = topo.num_nodes
    return ceil(log2(n)) if n > 1 else 0


def broadcast_schedule(topo: Topology, root: int = 0) -> Schedule:
    """Single-port broadcast rounds from ``root`` (binomial/BFS tree)."""
    return binomial_broadcast_schedule(topo, root)


def reduce_schedule(topo: Topology, root: int = 0) -> Schedule:
    """Single-port reduce towards ``root``: the broadcast tree reversed.

    Round ``r`` of the reduce is round ``R - 1 - r`` of the broadcast
    with every ``(sender, receiver)`` flipped, so each node forwards its
    partial result only after every child in the tree has sent -- the
    dependency order of a combine, by construction.
    """
    rounds = binomial_broadcast_schedule(topo, root)
    return [[(v, u) for u, v in rnd] for rnd in reversed(rounds)]


def _is_full_hypercube(topo: Topology) -> bool:
    return (
        topo.word_length is not None
        and topo.num_nodes == 1 << topo.word_length
    )


def allgather_schedule(topo: Topology, root: int = 0) -> Schedule:
    """Single-port allgather rounds.

    On the full hypercube: recursive doubling -- round ``k`` pairs every
    node with its dimension-``k`` neighbour and both directions exchange,
    ``log2 n`` rounds, meeting the bound exactly.  On any other topology
    (generalized cubes are not closed under bit flips): a BFS-tree
    gather to ``root`` followed by the broadcast back out --
    ``reduce`` + ``broadcast`` rounds.
    """
    if _is_full_hypercube(topo):
        g = topo.graph
        d = topo.word_length
        rounds: Schedule = []
        for k in range(d):
            rnd: Round = []
            for v in range(topo.num_nodes):
                word = topo.node_word(v)
                partner = word[:k] + ("1" if word[k] == "0" else "0") + word[k + 1:]
                rnd.append((v, g.index_of(partner)))
            rounds.append(rnd)
        return rounds
    return reduce_schedule(topo, root) + broadcast_schedule(topo, root)


def alltoall_schedule(topo: Topology, root: int = 0) -> Schedule:
    """All-to-all personalized exchange: ``n - 1`` cyclic-shift rounds.

    Round ``k`` sends node ``i``'s block for node ``(i + k) mod n`` --
    every ordered pair is served exactly once and every round is a
    fixed-point-free permutation, so the single-port budget (one send,
    one receive per node per round) holds with equality.  ``root`` is
    accepted for registry uniformity and ignored.
    """
    n = topo.num_nodes
    return [[(i, (i + k) % n) for i in range(n)] for k in range(1, n)]


# ring orders memoised per graph signature: the exact Hamiltonian search
# is ~1 ms on clean cubes but can burn its whole budget on irregular
# (faulted) graphs, and traffic generators rebuild schedules per call
_RING_CACHE: Dict[Tuple, Tuple[int, ...]] = {}
_RING_BUDGET = 20_000


def _ring_order(g, node_budget: int) -> Tuple[int, ...]:
    """A ring-emulation node order: a Hamiltonian path when the budgeted
    search finds one, else a DFS preorder (the *virtual ring* fallback,
    consecutive nodes routed multi-hop)."""
    key = (node_budget, g.num_vertices, g.num_edges, tuple(g.edges()))
    hit = _RING_CACHE.get(key)
    if hit is not None:
        return hit
    try:
        path = find_hamiltonian_path(g, node_budget=node_budget)
    except RuntimeError:
        path = None
    if path is None:
        seen = [False] * g.num_vertices
        path = []
        stack = [0]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            path.append(v)
            stack.extend(sorted(g.neighbors(v), reverse=True))
    order = tuple(path)
    if len(_RING_CACHE) >= 16:
        _RING_CACHE.clear()
    _RING_CACHE[key] = order
    return order


def ring_schedule(
    topo: Topology, root: int = 0, node_budget: int = _RING_BUDGET
) -> Schedule:
    """Ring emulation over a Hamiltonian path: ``n - 1`` shift rounds.

    A Hamiltonian path is found by the exact search of
    :mod:`repro.network.hamilton` under ``node_budget`` backtrack nodes
    (milliseconds on the clean cube families); each round every node
    forwards one block to its successor along the path, and when the
    end-to-end link happens to exist the ring closes over it (a
    Hamiltonian cycle emulates the ring with no pipeline drain).  On a
    graph where the budgeted search finds no path (non-Hamiltonian, or
    an irregular faulted survivor where the exact search blows up) the
    schedule degrades to a *virtual ring* -- DFS preorder, successors
    routed multi-hop by the engine -- so the workload stays total on
    every topology, like every traffic pattern.  ``root`` rotates the
    ring start when the path closes into a cycle; on an open path it is
    ignored.
    """
    g = topo.graph
    n = topo.num_nodes
    if n == 1:
        return []
    path = list(_ring_order(g, node_budget))
    closed = g.has_edge(path[-1], path[0])
    if closed and root:
        at = path.index(root % n)
        path = path[at:] + path[:at]
    if closed:
        rnd = [(path[j], path[(j + 1) % n]) for j in range(n)]
    else:
        rnd = [(path[j], path[j + 1]) for j in range(n - 1)]
    return [list(rnd) for _ in range(n - 1)]


COLLECTIVES: Dict[str, object] = {
    "broadcast": broadcast_schedule,
    "reduce": reduce_schedule,
    "allgather": allgather_schedule,
    "alltoall": alltoall_schedule,
    "ring": ring_schedule,
}


def collective_schedule(name: str, topo: Topology, root: int = 0) -> Schedule:
    """Build a collective's round schedule by registry name."""
    try:
        builder = COLLECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown collective {name!r}; choose from {sorted(COLLECTIVES)}"
        ) from None
    n = topo.num_nodes
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} nodes")
    return builder(topo, root)


# collectives whose every message is a single link activation (tree
# schedules); ``alltoall`` messages are always multi-hop, and a ``ring``
# round rides real links only when a Hamiltonian path was found (the
# virtual-ring fallback routes successors multi-hop), so both are
# checked for single-port feasibility but not edge-locality
_NEIGHBOUR_COLLECTIVES = frozenset({"broadcast", "reduce", "allgather"})


def verify_collective_schedule(
    topo: Topology, name: str, schedule: Schedule, root: int = 0
) -> bool:
    """Validate a collective schedule against the single-port model.

    Checks, for every round: senders and receivers are valid distinct
    nodes, no node sends twice, no node receives twice; for the
    tree/ring collectives every message additionally rides an existing
    link (``alltoall`` messages are multi-hop and routed by the engine,
    which itself only ever uses real links).  Collective-specific
    coverage: ``broadcast`` must satisfy
    :func:`~repro.network.broadcast.verify_schedule`, ``reduce`` must be
    its exact reversal, ``alltoall`` must serve every ordered pair
    exactly once.
    """
    g = topo.graph
    n = g.num_vertices
    neighbour_only = name in _NEIGHBOUR_COLLECTIVES
    for rnd in schedule:
        senders = set()
        receivers = set()
        for u, v in rnd:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                return False
            if u in senders or v in receivers:
                return False
            if neighbour_only and not g.has_edge(u, v):
                return False
            senders.add(u)
            receivers.add(v)
    if name == "broadcast":
        return verify_schedule(topo, root, schedule)
    if name == "reduce":
        forward = [[(v, u) for u, v in rnd] for rnd in reversed(schedule)]
        return verify_schedule(topo, root, forward)
    if name == "alltoall":
        pairs = [(u, v) for rnd in schedule for u, v in rnd]
        return len(pairs) == n * (n - 1) and len(set(pairs)) == len(pairs)
    return True


def schedule_link_loads(
    topo: Topology, schedule: Schedule, router=None
) -> Dict[Tuple[int, int], int]:
    """Messages per *directed* link over the whole schedule, as routed.

    Each ``(src, dst)`` message is resolved through ``router`` (default
    exact shortest path) on the healthy topology and every link of its
    route counts one unit -- the static offered congestion the paper's
    link-load arguments reason about.  Unroutable messages contribute
    nothing.
    """
    router = router if router is not None else BfsRouter()
    counts: Dict[Tuple[int, int], int] = {}
    for rnd in schedule:
        for pair in rnd:
            counts[pair] = counts.get(pair, 0) + 1
    table = RouteTable.build(topo, router, list(counts))
    loads: Dict[Tuple[int, int], int] = {}
    for pair, mult in counts.items():
        row = table.pair_row[pair]
        if row < 0:
            continue
        path = table.route_nodes(row).tolist()
        for a, b in zip(path, path[1:]):
            loads[(a, b)] = loads.get((a, b), 0) + mult
    return loads


@dataclass(frozen=True)
class CollectiveResult:
    """One compiled-and-simulated collective, in SimResult-compatible form.

    ``rounds`` is the schedule's round count and ``round_bound`` the
    single-port lower bound ``ceil(log2 n)``; ``round_starts`` holds the
    injection (barrier) cycle of every round actually injected -- fewer
    than ``rounds`` only when the run deadlocked or hit ``max_cycles``
    mid-collective.  ``result`` is the engine's :class:`SimResult` over
    the full compiled ``traffic`` (completion time = ``result.cycles``),
    and ``max_link_load`` / ``avg_link_load`` condense
    :func:`schedule_link_loads` over the links the schedule actually
    uses.
    """

    name: str
    topology: str
    root: int
    rounds: int
    round_bound: int
    round_starts: Tuple[int, ...]
    traffic: Tuple[Tuple[int, int, int], ...]
    result: SimResult
    max_link_load: int
    avg_link_load: float

    @property
    def completion_time(self) -> int:
        """Cycles from first injection to last delivery (the run length)."""
        return self.result.cycles

    @property
    def completed(self) -> bool:
        """Every round injected and every message delivered."""
        return (
            len(self.round_starts) == self.rounds
            and self.result.delivered == self.result.injected
        )


_ENGINES = {
    "reference": ReferenceSimulator,
    "vectorized": VectorizedSimulator,
}


def run_collective(
    topo: Topology,
    name: str,
    root: int = 0,
    router=None,
    engine: Union[str, type] = "vectorized",
    switching: Union[str, FlowControl] = "sf",
    flits: Union[int, str] = 1,
    flit_seed: int = 0,
    faults: Optional[FaultPlan] = None,
    max_cycles: int = 100000,
) -> CollectiveResult:
    """Compile and simulate one collective with per-round barriers.

    The schedule's rounds are injected one barrier at a time: round
    ``r + 1`` enters at the cycle the engine reports round ``r``
    complete, so no message is offered before every message it depends
    on has been delivered; the returned ``result`` is one engine pass
    over the full compiled traffic.  ``engine`` is ``"vectorized"`` /
    ``"reference"`` (or a simulator class); since the engines are
    bit-identical, both compile the same barriers and return the same
    result -- the collectives equivalence tests assert exactly that.

    ``flits`` is an int or a ``"lo-hi"`` spec resolved per message with
    ``flit_seed`` (wormhole/vct only); ``faults`` threads a
    :class:`FaultPlan` through every run, so a collective can lose tree
    edges mid-flight and the delivery/drop accounting shows it.  A
    deadlocked (or ``max_cycles``-stalled) round stops the compilation:
    later rounds are never injected and the wedged state is reported.
    """
    if isinstance(engine, str):
        try:
            engine_cls = _ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}"
            ) from None
    else:
        engine_cls = engine
    schedule = collective_schedule(name, topo, root=root)
    if not verify_collective_schedule(topo, name, schedule, root=root):
        raise RuntimeError(
            f"collective {name!r} produced an invalid schedule on {topo.name} (bug)"
        )
    sim = engine_cls(topo, router)
    total = sum(len(rnd) for rnd in schedule)
    sizes = flit_sizes(total, flits, seed=flit_seed)
    traffic: List[Tuple[int, int, int]] = []
    starts: List[int] = []
    cycle = 0
    # each round is probed in isolation: the network is provably drained
    # at every barrier (the next round injects only after every earlier
    # message was delivered or dropped), so a round injected alone at
    # its absolute barrier cycle behaves exactly as it does inside the
    # full run -- O(rounds) engine work instead of re-simulating the
    # growing prefix every round.  A round that stalls (deadlock, or
    # undelivered work at the max_cycles cap) ends the compilation;
    # completing *exactly at* the cap is a completion, not a wedge.
    for rnd in schedule:
        starts.append(cycle)
        chunk = [(cycle, u, v) for u, v in rnd]
        chunk_sizes = sizes[len(traffic): len(traffic) + len(chunk)]
        traffic.extend(chunk)
        probe = sim.run(
            chunk,
            max_cycles=max_cycles,
            faults=faults,
            switching=switching,
            flits=chunk_sizes,
        )
        if probe.deadlocked or probe.stalled:
            break
        # max() guards the all-dropped round, whose run reports cycles=1
        cycle = max(cycle, probe.cycles)
    result = sim.run(
        traffic,
        max_cycles=max_cycles,
        faults=faults,
        switching=switching,
        flits=sizes[: len(traffic)],
    )
    loads = schedule_link_loads(topo, schedule, router=sim.router)
    return CollectiveResult(
        name=name,
        topology=topo.name,
        root=root,
        rounds=len(schedule),
        round_bound=round_lower_bound(topo),
        round_starts=tuple(starts),
        traffic=tuple(traffic),
        result=result,
        max_link_load=max(loads.values()) if loads else 0,
        avg_link_load=(sum(loads.values()) / len(loads)) if loads else 0.0,
    )
