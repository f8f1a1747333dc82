"""The generalized Fibonacci cube :math:`Q_d(f)` -- the paper's central object.

:math:`Q_d(f)` is the subgraph of :math:`Q_d` induced by the binary words
of length ``d`` that avoid the factor ``f``: the one-factor case
:math:`Q_d(\\{f\\})` of :class:`repro.cubes.multifactor.MultiFactorCube`,
which supplies the vertex set (a sorted array of integer codes), the
induced graph and the vertex lookups.  :class:`GeneralizedFibonacciCube`
adds ``f`` and cube-specific operations (Hamming distance between
vertices, neighbourhood in the *host* cube, bitwise-majority median
closure).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from repro.cubes.multifactor import MultiFactorCube
from repro.words.core import int_to_word

__all__ = ["GeneralizedFibonacciCube", "generalized_fibonacci_cube"]


class GeneralizedFibonacciCube(MultiFactorCube):
    """The graph :math:`Q_d(f)` with its word structure retained.

    Parameters
    ----------
    f:
        Non-empty forbidden factor over ``{0, 1}``.
    d:
        Word length (cube dimension), a non-negative integer.

    Notes
    -----
    For ``d < len(f)`` no word can contain ``f``, so
    :math:`Q_d(f) = Q_d`; for ``d == len(f)`` exactly the word ``f``
    itself is removed (Lemma 2.1 territory).
    """

    def __init__(self, f: str, d: int):
        super().__init__([f], d)
        self.f = f

    def hamming(self, i: int, j: int) -> int:
        """Host-cube distance :math:`d_{Q_d}` between vertices ``i`` and ``j``."""
        return int(self.codes[i] ^ self.codes[j]).bit_count()

    def host_neighbors(self, i: int) -> List[int]:
        """Codes of all ``d`` neighbours of vertex ``i`` in the *host* cube
        :math:`Q_d` (present in this cube or not)."""
        c = int(self.codes[i])
        return [c ^ (1 << k) for k in range(self.d)]

    def is_median_closed(self) -> bool:
        """Is :math:`Q_d(f)` closed under bitwise majority in :math:`Q_d`?

        By Mulder's theorem this is equivalent (for induced connected
        subgraphs) to being a median graph; Proposition 6.4 proves it holds
        iff ``len(f) == 2``.
        """
        return self.median_violation() is None

    def median_violation(self) -> Optional[Tuple[str, str, str]]:
        """A triple of words whose majority is missing, or ``None`` if closed.

        Cubic in the number of vertices with a tiny constant (three ANDs
        and one OR per triple).
        """
        codes = [int(c) for c in self.codes]
        index = self._index
        n = len(codes)
        for a_pos in range(n):
            a = codes[a_pos]
            for b_pos in range(a_pos + 1, n):
                b = codes[b_pos]
                ab = a & b
                ab_or = a | b
                for c_pos in range(b_pos + 1, n):
                    c = codes[c_pos]
                    med = ab | (c & ab_or)
                    if med not in index:
                        return (
                            int_to_word(a, self.d),
                            int_to_word(b, self.d),
                            int_to_word(c, self.d),
                        )
        return None

    def __repr__(self) -> str:
        return f"GeneralizedFibonacciCube(f={self.f!r}, d={self.d}, n={self.num_vertices})"


@lru_cache(maxsize=256)
def generalized_fibonacci_cube(f: str, d: int) -> GeneralizedFibonacciCube:
    """Cached constructor for :class:`GeneralizedFibonacciCube`.

    The cubes are immutable once built, and the experiment harnesses touch
    the same ``(f, d)`` pairs from many angles, so memoizing the
    construction keeps the benchmark suite honest about algorithm cost
    rather than rebuild cost.
    """
    return GeneralizedFibonacciCube(f, d)
