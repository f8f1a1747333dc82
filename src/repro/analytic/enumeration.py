"""Subcube counting systems with linear-recurrence extraction.

Every regular address language gives its cube family a tower of exact
counting problems: the ``k``-dimensional subcubes of the
``d``-dimensional cube -- vertices at ``k = 0``, edges at ``k = 1``,
squares at ``k = 2``.  :func:`subcube_system` turns each into path
counting in one fixed digraph, so every count satisfies an *integer
linear recurrence* of order at most the digraph size.  A
:class:`CountingSystem` packages the digraph as ``(matrix, start,
accept)`` and offers two evaluation routes:

- :meth:`CountingSystem.term` / :meth:`CountingSystem.series` -- a
  forward walk of the weight vector along the non-zero entries,
  :math:`O(d \\cdot \\mathrm{nnz})` time and :math:`O(m)` live state;
- :meth:`CountingSystem.smart_enumeration` -- extract the minimal
  recurrence once (Berlekamp--Massey over exact rationals), then extend
  at :math:`O(r)` per term.  For the Fibonacci cube this *discovers*
  ``V(d) = V(d-1) + V(d-2)`` from the machine.

The recurrence coefficients are provably integers: the minimal
polynomial of the sequence divides the (monic, integer) characteristic
polynomial of the transfer matrix, and Gauss's lemma keeps monic
integer divisors integer.  :func:`berlekamp_massey` still runs over
:class:`fractions.Fraction` internally and the integrality is checked,
not assumed.

The subcube digraph reads one word left to right.  A ``k``-subcube
``{w + sum_{i in I} e_i}`` with ``|I| = k`` is normalised to ``w_i = 0``
for every ``i`` in ``I``, so each subcube has one base word ``w`` and is
counted once.  Phase ``j`` tracks the ``2^j`` corner words that the
flips seen so far split ``w`` into, as a tuple of FSM states: a shared
bit steps every corner, and a flip (while ``j < k``) splits each corner
into its bit-0 and bit-1 continuations.  Accepted length-``d`` paths end
in phase ``k`` with every corner accepted: exactly the subcubes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.analytic.fsm import FSM
from repro.words.core import _index

__all__ = [
    "CountingSystem",
    "berlekamp_massey",
    "edge_system",
    "subcube_system",
    "vertex_system",
]


def _weights(values: Sequence[int], field: str) -> List[int]:
    try:
        return [_index(v, f"{field} entry") for v in values]
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def berlekamp_massey(seq: Sequence[int]) -> List[Fraction]:
    """Shortest linear recurrence of ``seq`` over the rationals.

    Returns coefficients ``c`` such that
    ``seq[k] == sum(c[i] * seq[k - 1 - i])`` for every
    ``k >= len(c)``; the empty list means the sequence is eventually
    all-zero from the start.  ``2r + 1`` terms suffice to pin down a
    recurrence of order ``r``.
    """
    ls: List[Fraction] = []
    cur: List[Fraction] = []
    lf = 0
    ld = Fraction(0)
    for i in range(len(seq)):
        t = Fraction(seq[i])
        for j in range(len(cur)):
            t -= cur[j] * seq[i - 1 - j]
        if t == 0:
            continue
        if not cur:
            cur = [Fraction(0)] * (i + 1)
            lf, ld = i, t
            continue
        k = t / ld
        c = [Fraction(0)] * (i - lf - 1) + [k] + [-k * x for x in ls]
        if len(c) < len(cur):
            c += [Fraction(0)] * (len(cur) - len(c))
        for j in range(len(cur)):
            c[j] += cur[j]
        if i - lf + len(ls) >= len(cur):
            ls, lf, ld = list(cur), i, t
        cur = c
    return cur


class CountingSystem:
    """Path counting in a weighted digraph: ``start . matrix^d . accept``.

    ``matrix`` is a square matrix of non-negative integer edge weights,
    ``start`` a row vector of non-negative integer initial weights, and
    ``accept`` a 0/1 column vector marking the states whose weight is
    counted at the end.  Only the non-zero matrix entries are kept.
    """

    __slots__ = ("rows", "start", "accept", "_recurrence", "_prefix")

    def __init__(
        self,
        matrix: Sequence[Sequence[int]],
        start: Sequence[int],
        accept: Sequence[int],
    ):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("counting matrix must be square")
        if len(start) != n or len(accept) != n:
            raise ValueError("start/accept vectors must match the matrix size")
        self.rows: List[List[Tuple[int, int]]] = [
            [(t, w) for t, w in enumerate(_weights(row, "matrix")) if w]
            for row in matrix
        ]
        self.start = _weights(start, "start")
        self.accept = _weights(accept, "accept")
        if any(a > 1 for a in self.accept):
            raise ValueError(f"accept entries must be 0 or 1, got {list(accept)}")
        self._recurrence: "List[int] | None" = None
        self._prefix: List[int] = []

    @property
    def size(self) -> int:
        return len(self.rows)

    # -- direct evaluation ---------------------------------------------------

    def _vectors(self) -> Iterator[List[int]]:
        """The state-weight vectors after 0, 1, 2, ... steps; only the
        current one is alive."""
        rows = self.rows
        vec = list(self.start)
        while True:
            yield vec
            nxt = [0] * len(vec)
            for s, v in enumerate(vec):
                if v:
                    for t, w in rows[s]:
                        nxt[t] += v * w
            vec = nxt

    def _accepted(self, vec: List[int]) -> int:
        return sum(v for v, a in zip(vec, self.accept) if a)

    def term(self, d: int) -> int:
        """The ``d``-th term by the forward walk: linear in ``d``, with
        :math:`O(m)` live state."""
        d = _index(d, "d")
        return self._accepted(next(islice(self._vectors(), d, None)))

    def series(self, n: int) -> List[int]:
        """The first ``n`` terms (indices ``0 .. n-1``) of the same walk."""
        n = _index(n, "n")
        return [self._accepted(vec) for vec in islice(self._vectors(), n)]

    # -- smart enumeration ---------------------------------------------------

    def linear_recurrence(self) -> List[int]:
        """The minimal integer linear recurrence of the sequence.

        Extracted once from ``2m + 2`` seed terms (``m`` = matrix size
        bounds the recurrence order) and cached; the integrality of the
        Berlekamp--Massey output is verified, not assumed.
        """
        if self._recurrence is None:
            seed = self.series(2 * self.size + 2)
            coeffs = berlekamp_massey(seed)
            ints: List[int] = []
            for c in coeffs:
                if c.denominator != 1:
                    raise ArithmeticError(
                        f"recurrence coefficient {c} is not an integer; "
                        "the transfer matrix is not what it claims to be"
                    )
                ints.append(int(c))
            self._recurrence = ints
            self._prefix = seed
        return list(self._recurrence)

    def smart_enumeration(self, n: int) -> List[int]:
        """The first ``n`` terms via the extracted recurrence:
        :math:`O(m)` seed work once, then :math:`O(r)` per term."""
        n = _index(n, "n")
        rec = self.linear_recurrence()
        out = list(self._prefix[:n])
        if len(out) < n and not rec:
            out += [0] * (n - len(out))
        while len(out) < n:
            k = len(out)
            out.append(sum(rec[i] * out[k - 1 - i] for i in range(len(rec))))
        return out

    def smart_term(self, d: int) -> int:
        """The ``d``-th term, recurrence-extended (linear in ``d``;
        prefer :meth:`term` when ``d`` is astronomically large)."""
        d = _index(d, "d")
        return self.smart_enumeration(d + 1)[d]


def subcube_system(fsm: FSM, k: int) -> CountingSystem:
    """Counts of the ``k``-dimensional subcubes of the cube family of
    ``fsm``'s language: term ``d`` is the number of ``k``-subcubes of the
    ``d``-dimensional cube (``k = 0`` vertices, ``1`` edges, ``2``
    squares).

    States are ``(j, corners)``: phase ``j <= k`` and a tuple of ``2^j``
    FSM states, numbered in BFS discovery order from ``(0, (0,))`` (bit
    0, bit 1, then the flip).  A tuple with a corner that can no longer
    reach an accepting state is dropped; a non-accepting corner is not,
    since complement languages have live non-accepting states.
    """
    k = _index(k, "k")
    table, accepting = fsm.table, fsm.accepting
    preds: List[List[int]] = [[] for _ in table]
    for s, row in enumerate(table):
        for t in row:
            preds[t].append(s)
    live = set(accepting)
    stack = list(live)
    while stack:
        for s in preds[stack.pop()]:
            if s not in live:
                live.add(s)
                stack.append(s)

    ids: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    order: List[Tuple[int, Tuple[int, ...]]] = []
    rows: List[List[int]] = []

    def visit(node: Tuple[int, Tuple[int, ...]], row: List[int]) -> None:
        if not live.issuperset(node[1]):
            return
        if node not in ids:
            ids[node] = len(order)
            order.append(node)
        row.append(ids[node])

    visit((0, (0,)), [])  # the start state, unless nothing is accepted
    for j, corners in order:
        row: List[int] = []
        for bit in (0, 1):
            visit((j, tuple(table[s][bit] for s in corners)), row)
        if j < k:
            visit((j + 1, tuple(t for s in corners for t in table[s])), row)
        rows.append(row)
    n = len(order)
    matrix = [[0] * n for _ in range(n)]
    for s, row in enumerate(rows):
        for t in row:
            matrix[s][t] += 1
    start = [int(s == 0) for s in range(n)]
    accept = [int(j == k and accepting.issuperset(corners)) for j, corners in order]
    return CountingSystem(matrix, start, accept)


def vertex_system(fsm: FSM) -> CountingSystem:
    """Vertex counts: term ``d`` is the number of accepted length-``d``
    words."""
    return subcube_system(fsm, 0)


def edge_system(fsm: FSM) -> CountingSystem:
    """Edge counts: term ``d`` is the number of edges ``{w, w + e_i}``
    with both ends accepted."""
    return subcube_system(fsm, 1)
