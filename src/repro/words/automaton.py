"""KMP factor automaton for a single forbidden factor.

The automaton is the classical Knuth--Morris--Pratt pattern automaton of a
word ``f`` over ``{0, 1}``: states ``0 .. |f|`` where state ``s`` means
"the longest suffix of the input read so far that is a prefix of ``f`` has
length ``s``"; state ``|f|`` is the unique accepting (= *forbidden*) state
meaning ``f`` occurred as a factor.

For factor-avoidance we make the forbidden state absorbing, so a word ``b``
avoids ``f`` exactly when running the automaton on ``b`` never reaches
state ``|f|``.  Counting runs on the same language through
:mod:`repro.analytic` (see :mod:`repro.words.counting`).  The exact
matrix helpers below serve :mod:`repro.combinat.recurrence`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.words.core import validate_word

__all__ = ["kmp_failure", "FactorAutomaton"]


def kmp_failure(f: str) -> List[int]:
    """KMP failure (prefix) function of ``f``.

    ``fail[i]`` is the length of the longest proper prefix of ``f[:i+1]``
    that is also a suffix of it.  ``fail[0] == 0`` always.
    """
    validate_word(f, name="pattern")
    fail = [0] * len(f)
    k = 0
    for i in range(1, len(f)):
        while k > 0 and f[i] != f[k]:
            k = fail[k - 1]
        if f[i] == f[k]:
            k += 1
        fail[i] = k
    return fail


class FactorAutomaton:
    """Deterministic automaton recognizing "contains ``f`` as a factor".

    Parameters
    ----------
    f:
        Non-empty forbidden factor over ``{0, 1}``.

    Attributes
    ----------
    pattern:
        The factor ``f``.
    num_states:
        ``len(f) + 1``; states are ``0 .. len(f)``.
    forbidden:
        The absorbing accepting state ``len(f)``.
    table:
        ``table[s][bit]`` is the successor of state ``s`` on input bit
        ``bit`` (0 or 1).  ``table[forbidden][b] == forbidden``.
    """

    __slots__ = ("pattern", "num_states", "forbidden", "table")

    def __init__(self, f: str):
        validate_word(f, name="forbidden factor")
        if not f:
            raise ValueError("forbidden factor must be non-empty")
        self.pattern = f
        m = len(f)
        self.num_states = m + 1
        self.forbidden = m
        fail = kmp_failure(f)
        table: List[Tuple[int, int]] = []
        for s in range(m):
            row = []
            for bit in "01":
                k = s
                while k > 0 and f[k] != bit:
                    k = fail[k - 1]
                if f[k] == bit:
                    k += 1
                row.append(k)
            table.append((row[0], row[1]))
        table.append((m, m))  # absorbing forbidden state
        self.table = table

    # -- running ---------------------------------------------------------

    def step(self, state: int, bit: str) -> int:
        """Single transition on ``bit`` (``'0'`` or ``'1'``)."""
        if bit not in ("0", "1"):
            raise ValueError(f"bit must be '0' or '1', got {bit!r}")
        return self.table[state][bit == "1"]

    def run(self, b: str) -> int:
        """Run on word ``b`` from the start state; return the final state."""
        s = 0
        table = self.table
        for ch in b:
            s = table[s][ch == "1"]
        return s

    def avoids(self, b: str) -> bool:
        """``True`` iff ``b`` does not contain ``self.pattern`` as a factor.

        Linear time; because the forbidden state is absorbing we can bail
        out early.
        """
        s = 0
        forbidden = self.forbidden
        table = self.table
        for ch in b:
            s = table[s][ch == "1"]
            if s == forbidden:
                return False
        return True

    # -- enumeration support -----------------------------------------------

    def safe_successors(self, state: int) -> List[Tuple[int, int]]:
        """``(bit, next_state)`` pairs from ``state`` avoiding the forbidden state."""
        out = []
        for bit in (0, 1):
            t = self.table[state][bit]
            if t != self.forbidden:
                out.append((bit, t))
        return out

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
