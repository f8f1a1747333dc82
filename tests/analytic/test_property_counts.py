"""Property tests: every counting route agrees with brute force and
with the actually-built topologies (the satellite-4 contract)."""

import random
from itertools import combinations
from math import comb

import pytest

from repro.analytic.enumeration import edge_system, subcube_system, vertex_system
from repro.analytic.fsm import FSM
from repro.cubes.fibonacci import fibonacci_cube
from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.hypercube import hypercube
from repro.network.topology import topology_of
from repro.words.core import all_words, contains_factor
from repro.words.counting import count_vertices_automaton


def random_factors(seed, n=12, max_len=5):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        length = rng.randint(1, max_len)
        out.append("".join(rng.choice("01") for _ in range(length)))
    return out


class TestBruteForceAgreement:
    @pytest.mark.parametrize("f", random_factors(seed=7))
    def test_vertices_match_brute_force(self, f):
        fsm = FSM.from_factors([f])
        system = vertex_system(fsm)
        for d in range(13):
            brute = sum(1 for w in all_words(d) if not contains_factor(w, f))
            assert count_vertices_automaton(f, d) == brute
            assert fsm.count_words(d) == brute
            assert system.term(d) == brute

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_factor_sets_match_brute_force(self, seed):
        factors = random_factors(seed=seed, n=3, max_len=4)
        fsm = FSM.from_factors(factors)
        for d in range(11):
            brute = [
                w for w in all_words(d)
                if not any(contains_factor(w, f) for f in factors)
            ]
            assert fsm.count_words(d) == len(brute)

    @pytest.mark.parametrize("f", ["11", "000", "101", "0101"])
    def test_edges_match_brute_force(self, f):
        system = edge_system(FSM.from_factors([f]))
        for d in range(10):
            words = [w for w in all_words(d) if not contains_factor(w, f)]
            kept = set(words)
            brute = sum(
                1 for w in words for i in range(d)
                if w[i] == "0" and w[:i] + "1" + w[i + 1:] in kept
            )
            assert system.term(d) == brute


def brute_subcubes(fsm, d, k):
    """k-subcubes by enumeration: a base word with zeros at the k flipped
    positions whose 2^k corners are all accepted."""
    count = 0
    for w in all_words(d):
        if not fsm.accepts(w):
            continue
        zeros = [i for i in range(d) if w[i] == "0"]
        for flips in combinations(zeros, k):
            corners = [w]
            for i in flips:
                corners += [c[:i] + "1" + c[i + 1:] for c in corners]
            count += all(fsm.accepts(c) for c in corners)
    return count


def composite_languages():
    a, b = FSM.from_factors(["11"]), FSM.from_factors(["000"])
    c = FSM.from_factors(["101", "010"])
    return {
        "union": a.union(b),
        "intersection": a.intersection(b),
        "complement": a.complement(),
        "complement-of-union": b.union(c).complement(),
        "intersection-with-complement": c.intersection(a.complement()),
    }


class TestSubcubeSystem:
    """Squares of any regular language, not just single-factor cubes:
    the analytic layer counts what the old per-factor DP could not."""

    @pytest.mark.parametrize("seed", [4, 5, 6, 7])
    def test_factor_sets_match_brute_force(self, seed):
        fsm = FSM.from_factors(random_factors(seed=seed, n=3, max_len=4))
        for k in (0, 1, 2):
            system = subcube_system(fsm, k)
            for d in range(8):
                assert system.term(d) == brute_subcubes(fsm, d, k), (k, d)

    @pytest.mark.parametrize("name", sorted(composite_languages()))
    def test_composite_languages_match_brute_force(self, name):
        fsm = composite_languages()[name]
        for k in (0, 1, 2):
            system = subcube_system(fsm, k)
            assert system.series(8) == [brute_subcubes(fsm, d, k) for d in range(8)], k

    def test_hypercube_squares(self):
        system = subcube_system(FSM.universal(), 2)
        for d in range(14):
            assert system.term(d) == comb(d, 2) * 2 ** max(d - 2, 0)

    def test_empty_language(self):
        # the start state cannot reach acceptance: no states at all
        system = subcube_system(FSM.universal().complement(), 1)
        assert system.size == 0
        assert system.series(4) == [0] * 4
        assert system.linear_recurrence() == []


class TestTopologyAgreement:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_hypercube(self, d):
        topo = topology_of(hypercube(d), name=f"Q_{d}")
        fsm = FSM.universal()
        assert vertex_system(fsm).term(d) == topo.num_nodes
        assert edge_system(fsm).term(d) == topo.num_links

    @pytest.mark.parametrize("d", range(1, 10))
    def test_fibonacci_cube(self, d):
        cube = fibonacci_cube(d)
        fsm = FSM.from_factors(["11"])
        assert vertex_system(fsm).term(d) == cube.num_vertices
        assert edge_system(fsm).term(d) == cube.num_edges

    @pytest.mark.parametrize("f,d", [
        ("101", 7), ("000", 6), ("0110", 7), ("00", 8),
    ])
    def test_generalized_cubes(self, f, d):
        cube = generalized_fibonacci_cube(f, d)
        topo = topology_of((f, d))
        fsm = FSM.from_factors([f])
        assert vertex_system(fsm).term(d) == cube.num_vertices == topo.num_nodes
        assert edge_system(fsm).term(d) == cube.num_edges == topo.num_links
