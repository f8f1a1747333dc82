"""Unit tests for Q_d and canonical paths (Section 2)."""

import itertools

import pytest

from repro.cubes.hypercube import (
    canonical_path,
    canonical_path_ints,
    hamming_int,
    hypercube,
)
from repro.graphs.traversal import bfs_distances, diameter
from repro.words.core import hamming, word_to_int


class TestHypercube:
    @pytest.mark.parametrize("d", range(0, 6))
    def test_order_and_size(self, d):
        g = hypercube(d)
        assert g.num_vertices == 2**d
        assert g.num_edges == d * 2 ** (d - 1) if d else g.num_edges == 0

    def test_adjacency_is_hamming_one(self):
        g = hypercube(4)
        for u, v in g.edges():
            assert hamming_int(u, v) == 1

    def test_labels_match_codes(self):
        g = hypercube(3)
        for i in range(8):
            assert word_to_int(g.label_of(i)) == i

    def test_distance_is_hamming(self):
        g = hypercube(4)
        for s in range(16):
            dist = bfs_distances(g, s)
            for t in range(16):
                assert dist[t] == hamming_int(s, t)

    def test_diameter(self):
        assert diameter(hypercube(5)) == 5

    def test_regularity(self):
        g = hypercube(4)
        assert all(deg == 4 for deg in g.degrees())

    @pytest.mark.parametrize("d", range(0, 9))
    def test_adjacency_order(self, d):
        # routing tie-breaks and the sweep goldens read this order
        g = hypercube(d)
        for v in range(2**d):
            assert list(g.neighbors(v)) == [v ^ (1 << i) for i in range(d)]

    def test_negative_dimension(self):
        with pytest.raises(ValueError):
            hypercube(-1)

    def test_d0(self):
        g = hypercube(0)
        assert g.num_vertices == 1 and g.num_edges == 0
        assert g.label_of(0) == ""


class TestCanonicalPath:
    def test_length_is_hamming(self):
        for b, c in [("1100", "0011"), ("1010", "1010"), ("111", "000")]:
            path = canonical_path(b, c)
            assert len(path) == hamming(b, c) + 1
            assert path[0] == b and path[-1] == c

    def test_consecutive_differ_by_one(self):
        path = canonical_path("110010", "011001")
        for a, b in zip(path, path[1:]):
            assert hamming(a, b) == 1

    def test_ones_removed_before_added(self):
        # from 10 to 01: first drop the 1 (-> 00), then add (-> 01)
        assert canonical_path("10", "01") == ["10", "00", "01"]

    def test_order_is_left_to_right(self):
        # 1->0 flips happen leftmost first
        path = canonical_path("1100", "0000")
        assert path == ["1100", "0100", "0000"]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            canonical_path("10", "100")

    def test_gamma_canonical_paths_stay_inside(self):
        """The Section 2 argument: canonical paths between Fibonacci-cube
        vertices never create 11."""
        from repro.words.enumerate import list_avoiding

        words = list_avoiding("11", 6)
        for b, c in itertools.combinations(words, 2):
            for w in canonical_path(b, c):
                assert "11" not in w, (b, c, w)

    def test_int_version_matches_string_version(self):
        d = 5
        for b, c in [("11000", "00110"), ("10101", "01010"), ("11111", "00000")]:
            sp = canonical_path(b, c)
            ip = canonical_path_ints(word_to_int(b), word_to_int(c), d)
            assert [word_to_int(w) for w in sp] == ip

    def test_int_version_range_check(self):
        with pytest.raises(ValueError):
            canonical_path_ints(8, 0, 3)
