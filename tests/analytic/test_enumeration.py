"""Counting systems: series vs single terms vs extracted recurrences,
including the d = 200 speed contract of the analytic layer."""

import time

import pytest

from repro.analytic.enumeration import (
    CountingSystem,
    berlekamp_massey,
    edge_system,
    vertex_system,
)
from repro.analytic.fsm import FSM
from repro.combinat.sequences import fibonacci
from repro.words.counting import count_edges_automaton, count_vertices_automaton


class TestBerlekampMassey:
    def test_fibonacci(self):
        assert berlekamp_massey([1, 1, 2, 3, 5, 8, 13, 21]) == [1, 1]

    def test_geometric(self):
        assert berlekamp_massey([1, 3, 9, 27, 81]) == [3]

    def test_zero_sequence(self):
        assert berlekamp_massey([0, 0, 0, 0]) == []


class TestVertexSystem:
    def test_matches_kmp_counter(self):
        for f in ("11", "000", "101", "0110"):
            system = vertex_system(FSM.from_factors([f]))
            for d in range(12):
                assert system.term(d) == count_vertices_automaton(f, d)

    def test_series_matches_term(self):
        system = vertex_system(FSM.from_factors(["101"]))
        assert system.series(15) == [system.term(d) for d in range(15)]

    def test_discovers_the_fibonacci_recurrence(self):
        system = vertex_system(FSM.from_factors(["11"]))
        assert system.linear_recurrence() == [1, 1]
        assert system.smart_enumeration(10) == [
            fibonacci(d + 2) for d in range(10)]


class TestEdgeSystem:
    def test_matches_streaming_counter(self):
        for f in ("11", "000", "101"):
            system = edge_system(FSM.from_factors([f]))
            for d in range(11):
                assert system.term(d) == count_edges_automaton(f, d)

    def test_hypercube_edges(self):
        system = edge_system(FSM.universal())
        for d in range(12):
            expected = d * 2 ** (d - 1) if d else 0
            assert system.term(d) == expected

    def test_recurrence_extends_exactly(self):
        system = edge_system(FSM.from_factors(["11"]))
        assert system.smart_term(60) == system.term(60)


class TestSpeedContract:
    def test_d200_under_a_second(self):
        # the acceptance criterion: exact counts at d = 200 in < 1 s
        start = time.monotonic()
        fsm = FSM.from_factors(["11"])
        nodes = vertex_system(fsm).term(200)
        edges = edge_system(fsm).smart_term(200)
        elapsed = time.monotonic() - start
        assert nodes == fibonacci(202)
        # closed form: E(Gamma_d) = (d F_{d+1} + 2 (d+1) F_d) / 5
        d = 200
        assert edges == (d * fibonacci(d + 1) + 2 * (d + 1) * fibonacci(d)) // 5
        assert elapsed < 1.0


class TestValidation:
    def test_shapes(self):
        with pytest.raises(ValueError):
            CountingSystem([[1, 2]], [1], [1])
        with pytest.raises(ValueError):
            CountingSystem([[1]], [1, 2], [1])
        system = CountingSystem([[2]], [1], [1])
        with pytest.raises(ValueError):
            system.term(-1)
        with pytest.raises(ValueError):
            system.series(-1)
        # entries: non-negative integers, accept marks 0/1 only
        with pytest.raises(ValueError, match="matrix"):
            CountingSystem([[-1]], [1], [1])
        with pytest.raises(ValueError, match="matrix"):
            CountingSystem([[1.5]], [1], [1])
        with pytest.raises(ValueError, match="matrix"):
            CountingSystem([[True]], [1], [1])
        with pytest.raises(ValueError, match="start"):
            CountingSystem([[1]], [-1], [1])
        with pytest.raises(ValueError, match="start"):
            CountingSystem([[1]], ["1"], [1])
        with pytest.raises(ValueError, match="accept"):
            CountingSystem([[1]], [1], [2])
        with pytest.raises(ValueError, match="accept"):
            CountingSystem([[1]], [1], [-1])

    def test_trivial_systems(self):
        # 1x1 system: powers of the single entry
        system = CountingSystem([[2]], [1], [1])
        assert system.series(5) == [1, 2, 4, 8, 16]
        assert system.linear_recurrence() == [2]
        # never-accepting system: identically zero, empty recurrence
        system = CountingSystem([[2]], [1], [0])
        assert system.linear_recurrence() == []
        assert system.smart_enumeration(6) == [0] * 6
