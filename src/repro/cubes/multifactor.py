"""Factor-avoiding cubes :math:`Q_d(F)`: the one cube class.

The extension invited by the paper's definition: forbid a *set* ``F`` of
factors instead of a single one.  :math:`Q_d(F)` is the subgraph of
:math:`Q_d` induced by the words avoiding every member of ``F``.

:class:`MultiFactorCube` holds the vertex set (a sorted array of integer
codes from :meth:`repro.words.aho.MultiFactorAutomaton.avoiding_int_array`)
and the induced graph (:func:`repro.cubes.hypercube.induced_subgraph`).
The paper's :math:`Q_d(f)` is :math:`Q_d(\\{f\\})`:
:class:`repro.cubes.generalized.GeneralizedFibonacciCube` is the
one-factor subclass, adding ``f`` and its cube-specific operations.  The
isometry engines, structure reports and network machinery run on either.

Facts worth noting (and tested):

- :math:`Q_d(\\{f\\}) = Q_d(f)`;
- :math:`Q_d(F \\cup \\{g\\}) \\subseteq Q_d(F)` (monotone);
- single-factor embeddability does **not** compose: there are sets of
  individually admissible factors whose joint cube is not isometric --
  the extension study in ``examples``/benchmarks quantifies this.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.cubes.hypercube import induced_subgraph
from repro.graphs.core import Graph
from repro.words.aho import MultiFactorAutomaton
from repro.words.core import _index, int_to_word, word_to_int

__all__ = ["MultiFactorCube", "multi_factor_cube"]


class MultiFactorCube:
    """The graph :math:`Q_d(F)` for a set ``F`` of forbidden factors.

    Parameters
    ----------
    factors:
        Non-empty collection of non-empty binary words (not a bare
        ``str``); see :class:`repro.words.aho.MultiFactorAutomaton`.
    d:
        Word length (cube dimension), a non-negative integer.
    """

    def __init__(self, factors: Iterable[str], d: int):
        self.automaton = MultiFactorAutomaton(factors)
        self.factors: Tuple[str, ...] = self.automaton.factors
        self.d = _index(d, "d")
        self.codes: np.ndarray = self.automaton.avoiding_int_array(self.d)
        self._graph: Optional[Graph] = None
        self._index = {int(c): i for i, c in enumerate(self.codes)}

    # -- vertex set ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self.codes.size)

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, word) -> bool:
        """Membership test for a word (``str``) or an integer code."""
        if isinstance(word, str):
            if len(word) != self.d:
                return False
            code = word_to_int(word)
        else:
            code = int(word)
        return code in self._index

    def words(self) -> List[str]:
        """All vertex words, lexicographically sorted."""
        return [int_to_word(int(c), self.d) for c in self.codes]

    def iter_words(self) -> Iterator[str]:
        for c in self.codes:
            yield int_to_word(int(c), self.d)

    def index_of_code(self, code: int) -> int:
        """Vertex index of an integer code (KeyError when absent)."""
        return self._index[code]

    def index_of_word(self, word: str) -> int:
        """Vertex index of a word (KeyError when absent)."""
        if len(word) != self.d:
            raise KeyError(f"word {word!r} has wrong length for d={self.d}")
        return self._index[word_to_int(word)]

    def code_of(self, index: int) -> int:
        return int(self.codes[index])

    def word_of(self, index: int) -> str:
        return int_to_word(int(self.codes[index]), self.d)

    # -- graph structure -------------------------------------------------------

    def graph(self) -> Graph:
        """The induced graph (built once, labels are the vertex words)."""
        if self._graph is None:
            self._graph = induced_subgraph(self.codes, self.d)
        return self._graph

    @property
    def num_edges(self) -> int:
        return self.graph().num_edges

    def degree_sequence(self) -> List[int]:
        return sorted(self.graph().degrees())

    def __repr__(self) -> str:
        return (
            f"MultiFactorCube(factors={list(self.factors)!r}, d={self.d}, "
            f"n={self.num_vertices})"
        )


@lru_cache(maxsize=128)
def multi_factor_cube(factors: Tuple[str, ...], d: int) -> MultiFactorCube:
    """Cached constructor; ``factors`` must be a (hashable) tuple."""
    return MultiFactorCube(factors, d)
