"""Exact counting of vertices, edges and squares of :math:`Q_d(f)`.

All three counters are one engine: the ``k``-subcube counting system of
:func:`repro.analytic.enumeration.subcube_system` over the avoidance
automaton of ``f``, evaluated by a forward walk that is linear in ``d``
with exact big-integer arithmetic.  They stay exact for ``d`` in the
thousands where enumeration is hopeless, power the large-``d`` series of
experiments E1--E4 and validate the recurrences (1)--(6) of Section 6
far beyond the enumerable range.

A ``k``-subcube ``{w + sum_{i in I} e_i}`` (``|I| = k``) is counted once,
in the normal form ``w_i = 0`` for every ``i`` in ``I``:

- ``k = 0``, vertices: the words of length ``d`` avoiding ``f``;
- ``k = 1``, edges: pairs ``{w, w + e_i}`` with ``w_i = 0``;
- ``k = 2``, squares: 4-cycles ``{w, w+e_i, w+e_j, w+e_i+e_j}`` with
  ``i < j`` and ``w_i = w_j = 0``.

The scan tracks the automaton states of all ``2^j`` corner words after
the ``j``-th flip, so no pair or square table is ever materialised.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "count_vertices_automaton",
    "count_edges_automaton",
    "count_squares_automaton",
]


def _count_subcubes(factors: Iterable[str], d: int, k: int) -> int:
    """Number of ``k``-subcubes of :math:`Q_d(F)` for the factor set
    ``factors``: the one engine behind every counter of this package."""
    # imported here: repro.analytic builds on repro.words
    from repro.analytic.enumeration import subcube_system
    from repro.analytic.fsm import FSM

    return subcube_system(FSM.from_factors(factors), k).term(d)


def count_vertices_automaton(f: str, d: int) -> int:
    """``|V(Q_d(f))|``: number of length-``d`` words avoiding ``f``."""
    return _count_subcubes([f], d, 0)


def count_edges_automaton(f: str, d: int) -> int:
    """``|E(Q_d(f))|``: edges of the generalized Fibonacci cube."""
    return _count_subcubes([f], d, 1)


def count_squares_automaton(f: str, d: int) -> int:
    """``|S(Q_d(f))|``: number of 4-cycles (squares) of :math:`Q_d(f)`."""
    return _count_subcubes([f], d, 2)
