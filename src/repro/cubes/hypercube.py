"""The hypercube :math:`Q_d` and canonical paths (Section 2).

Vertices of :math:`Q_d` are all binary words of length ``d``; two words
are adjacent when they differ in exactly one bit, and
:math:`d_{Q_d}(b, c)` is the Hamming distance.

The *canonical* ``b,c``-path flips, scanning left to right, first every
bit where ``b`` has 1 and ``c`` has 0 (1 -> 0 moves) and then every bit
where ``b`` has 0 and ``c`` has 1 (0 -> 1 moves).  The paper uses canonical
paths to show :math:`\\Gamma_d \\hookrightarrow Q_d` and throughout the
embeddability proofs.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs.core import Graph
from repro.words.core import _index, flip, hamming, int_to_word, validate_word

__all__ = [
    "hypercube",
    "induced_subgraph",
    "hamming_int",
    "canonical_path",
    "canonical_path_ints",
]


def hamming_int(a: int, b: int) -> int:
    """Hamming distance between two integer-coded words (popcount of XOR)."""
    return int(a ^ b).bit_count()


def induced_subgraph(codes: np.ndarray, d: int) -> Graph:
    """The subgraph of :math:`Q_d` induced by the sorted ``int64`` vertex
    ``codes``, labelled by the length-``d`` words.

    For each of the ``d`` directions (bit 0 first) the edge set is one XOR
    plus a sorted membership query over the whole code array; each edge
    is added once, from its endpoint with the 0-bit, in code order.
    """
    n = int(codes.size)
    g = Graph(n)
    if n:
        for i in range(d):
            bit = np.int64(1) << np.int64(i)
            partners = codes ^ bit
            pos = np.minimum(np.searchsorted(codes, partners), n - 1)
            hit = codes[pos] == partners
            lower = (codes & bit) == 0
            for u_idx in np.flatnonzero(hit & lower):
                g.add_edge(int(u_idx), int(pos[u_idx]))
    g.set_labels([int_to_word(int(c), d) for c in codes])
    return g


def hypercube(d: int) -> Graph:
    """Build :math:`Q_d` with vertices labelled by their binary words.

    Vertex ``i`` is the word ``format(i, f"0{d}b")``: the induced subgraph
    on all ``2^d`` codes.
    """
    d = _index(d, "d")
    return induced_subgraph(np.arange(1 << d, dtype=np.int64), d)


def canonical_path(b: str, c: str) -> List[str]:
    """The canonical ``b,c``-path of Section 2, as a list of words.

    Scanning positions left to right, first flip every bit with
    ``b_i = 1, c_i = 0`` (each flip moves strictly closer to ``c``), then
    every bit with ``b_i = 0, c_i = 1``.  The result starts at ``b``, ends
    at ``c`` and has length ``hamming(b, c)``.
    """
    validate_word(b)
    validate_word(c)
    if len(b) != len(c):
        raise ValueError("words must have equal length")
    path = [b]
    cur = b
    for i in range(len(b)):
        if cur[i] == "1" and c[i] == "0":
            cur = flip(cur, i)
            path.append(cur)
    for i in range(len(b)):
        if cur[i] == "0" and c[i] == "1":
            cur = flip(cur, i)
            path.append(cur)
    assert cur == c and len(path) == hamming(b, c) + 1
    return path


def canonical_path_ints(b: int, c: int, d: int) -> List[int]:
    """Integer-coded version of :func:`canonical_path`.

    Bit ``d-1-i`` of the code corresponds to (0-based) string position
    ``i``; the scan order therefore goes from the most significant bit
    down.
    """
    if b < 0 or c < 0 or b >= (1 << d) or c >= (1 << d):
        raise ValueError("codes out of range")
    path = [b]
    cur = b
    for i in range(d - 1, -1, -1):
        bit = 1 << i
        if (cur & bit) and not (c & bit):
            cur ^= bit
            path.append(cur)
    for i in range(d - 1, -1, -1):
        bit = 1 << i
        if not (cur & bit) and (c & bit):
            cur ^= bit
            path.append(cur)
    assert cur == c
    return path
