"""The factor automaton of a single forbidden factor, and matrix helpers.

:class:`FactorAutomaton` is the one-factor case of the Aho--Corasick
automaton :class:`repro.words.aho.MultiFactorAutomaton`, whose trie for
``{f}`` is the path of ``f``: the result is the classical
Knuth--Morris--Pratt pattern automaton of ``f`` over ``{0, 1}``.  States
are ``0 .. |f|``, where state ``s < |f|`` means "the longest suffix of the
input read so far that is a proper prefix of ``f`` has length ``s``";
state ``|f|`` is the absorbing *forbidden* state, reached exactly when
``f`` occurred as a factor.  So a word ``b`` avoids ``f`` exactly when the
run on ``b`` never reaches state ``|f|``.  Counting runs on the same
language through :mod:`repro.analytic` (see :mod:`repro.words.counting`).
The exact matrix helpers below serve :mod:`repro.combinat.recurrence`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.words.aho import MultiFactorAutomaton
from repro.words.core import validate_word

__all__ = ["FactorAutomaton"]


class FactorAutomaton(MultiFactorAutomaton):
    """Deterministic automaton recognizing "contains ``f`` as a factor".

    ``FactorAutomaton(f)`` is ``MultiFactorAutomaton([f])`` plus
    ``pattern``; ``num_states == len(f) + 1`` and
    ``forbidden == len(f)``.

    Parameters
    ----------
    f:
        Non-empty forbidden factor over ``{0, 1}``.
    """

    __slots__ = ("pattern",)

    def __init__(self, f: str):
        validate_word(f, name="forbidden factor")
        if not f:
            raise ValueError("forbidden factor must be non-empty")
        MultiFactorAutomaton.__init__(self, [f])
        self.pattern = f

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FactorAutomaton({self.pattern!r}, states={self.num_states})"


def matrix_mult(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Exact integer matrix product (no overflow: Python big ints).

    Degenerate shapes are first-class: ``[] @ [] == []`` (the 0x0 case
    the analytic layer's empty automata produce), and an ``n x 0`` times
    ``0 x anything`` product is the ``n x 0`` zero matrix.  Ragged rows
    or an inner-dimension mismatch raise :class:`ValueError` instead of
    silently mis-multiplying.
    """
    n, k = len(a), len(b)
    m2 = len(b[0]) if b else 0
    inner = len(a[0]) if a else 0
    if any(len(row) != inner for row in a):
        raise ValueError("left matrix has ragged rows")
    if any(len(row) != m2 for row in b):
        raise ValueError("right matrix has ragged rows")
    if a and inner != k:
        raise ValueError(
            f"inner dimensions do not match: {n}x{inner} @ {k}x{m2}"
        )
    out = [[0] * m2 for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(m2):
                    oi[j] += v * bt[j]
    return out


def matrix_power(mat: Sequence[Sequence[int]], e: int) -> List[List[int]]:
    """Exact integer matrix power by binary exponentiation.

    ``e == 0`` returns the ``n x n`` identity (the empty ``0 x 0``
    identity for an empty matrix); non-square input raises
    :class:`ValueError` up front rather than deep inside the squaring
    loop.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError(f"matrix must be square, got rows {[len(r) for r in mat]}")
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [list(row) for row in mat]
    while e:
        if e & 1:
            result = matrix_mult(result, base)
        base = matrix_mult(base, base)
        e >>= 1
    return result
