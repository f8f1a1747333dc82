"""Fibonacci cubes :math:`\\Gamma_d = Q_d(11)` and the Lucas cube.

The Fibonacci cube is the motivating special case of the paper
(introduced by Hsu as an interconnection topology -- the 1993 lineage).
Its vertices are the length-``d`` words with no two consecutive 1s; there
are :math:`F_{d+2}` of them, and the *Zeckendorf* correspondence ranks
them: reading the allowed positions as Fibonacci weights maps the vertex
set bijectively onto ``{0, ..., F_{d+2} - 1}``.  That ranking is exactly
Hsu's processor-numbering scheme, so we expose it for the network
experiments.

The Lucas cube :math:`\\Lambda_d` forbids 11 *circularly* (also no 1 in
both the first and last position); it is included as the closest sibling
family for the extension benchmarks.
"""

from __future__ import annotations

from typing import List

from repro.combinat.sequences import fibonacci
from repro.cubes.generalized import GeneralizedFibonacciCube, generalized_fibonacci_cube
from repro.cubes.hypercube import induced_subgraph
from repro.graphs.core import Graph
from repro.words.enumerate import avoiding_int_array, list_avoiding

__all__ = ["fibonacci_cube", "fibonacci_labels", "zeckendorf_rank", "lucas_cube"]


def fibonacci_cube(d: int) -> GeneralizedFibonacciCube:
    """The Fibonacci cube :math:`\\Gamma_d` as a generalized Fibonacci cube."""
    return generalized_fibonacci_cube("11", d)


def fibonacci_labels(d: int) -> List[str]:
    """Vertex words of :math:`\\Gamma_d` in lexicographic order."""
    return list_avoiding("11", d)


def zeckendorf_rank(word: str) -> int:
    """Zeckendorf rank of a Fibonacci-cube vertex.

    With ``word = b_1 ... b_d`` containing no ``11``, the rank is
    :math:`\\sum_i b_i F_{d+1-i}` where positions are 1-based -- i.e. the
    leftmost position carries weight :math:`F_{d}`... concretely, position
    ``i`` (0-based) carries weight :math:`F_{d + 1 - i}`.  By Zeckendorf's
    theorem the map is a bijection onto ``{0, ..., F_{d+2} - 1}``.
    """
    if "11" in word:
        raise ValueError(f"{word!r} is not a Fibonacci-cube vertex (contains 11)")
    d = len(word)
    rank = 0
    for i, ch in enumerate(word):
        if ch == "1":
            rank += fibonacci(d + 1 - i)
    return rank


def lucas_cube(d: int) -> Graph:
    """The Lucas cube :math:`\\Lambda_d`: forbid 11 cyclically.

    Vertices are words with no two consecutive 1s *and* not 1 in both the
    first and last position; adjacency is single-bit difference.  For
    ``d = 0`` this is the one-vertex graph.
    """
    codes = avoiding_int_array("11", d)
    if d:
        # drop the words with a 1 in both the first and the last position
        codes = codes[((codes >> (d - 1)) & codes & 1) == 0]
    return induced_subgraph(codes, d)
