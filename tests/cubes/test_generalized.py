"""Unit tests for the GeneralizedFibonacciCube class."""

import networkx as nx
import pytest

from repro.cubes.generalized import GeneralizedFibonacciCube, generalized_fibonacci_cube
from repro.graphs.nxadapter import to_networkx
from repro.words.core import hamming
from repro.words.enumerate import avoiding_int_array, iter_avoiding

from tests.conftest import naive_avoiding, naive_count_edges


class TestVertexSet:
    @pytest.mark.parametrize("f", ["1", "11", "110", "101", "1010", "11010"])
    @pytest.mark.parametrize("d", [0, 1, 4, 7])
    def test_words_match_naive(self, f, d):
        cube = GeneralizedFibonacciCube(f, d)
        assert cube.words() == naive_avoiding(f, d)

    def test_len_and_contains(self):
        cube = generalized_fibonacci_cube("11", 4)
        assert len(cube) == 8
        assert "0101" in cube
        assert "0110" not in cube
        assert "010" not in cube  # wrong length

    def test_contains_by_code(self):
        cube = generalized_fibonacci_cube("11", 4)
        assert 0b0101 in cube
        assert 0b0110 not in cube

    def test_index_word_roundtrip(self):
        cube = generalized_fibonacci_cube("110", 5)
        for i in range(len(cube)):
            w = cube.word_of(i)
            assert cube.index_of_word(w) == i
            assert cube.code_of(i) == int(cube.codes[i])

    def test_index_of_wrong_length(self):
        cube = generalized_fibonacci_cube("11", 4)
        with pytest.raises(KeyError):
            cube.index_of_word("010")

    def test_d_below_factor_gives_full_cube(self):
        cube = GeneralizedFibonacciCube("11010", 4)
        assert cube.num_vertices == 16

    def test_d_equal_factor_removes_one(self):
        cube = GeneralizedFibonacciCube("11010", 5)
        assert cube.num_vertices == 31
        assert "11010" not in cube

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            GeneralizedFibonacciCube("", 3)
        with pytest.raises(ValueError):
            GeneralizedFibonacciCube("12", 3)
        with pytest.raises(ValueError):
            GeneralizedFibonacciCube("11", -1)
        # the dimension is checked once, and the error names it
        for bad in (True, 3.0):
            with pytest.raises(TypeError, match="^d must be an integer"):
                GeneralizedFibonacciCube("11", bad)
            with pytest.raises(TypeError, match="^d must be an integer"):
                list(iter_avoiding("11", bad))
            with pytest.raises(TypeError, match="^d must be an integer"):
                avoiding_int_array("11", bad)


class TestGraphStructure:
    @pytest.mark.parametrize("f", ["11", "110", "101", "1100"])
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_edge_count_matches_naive(self, f, d):
        assert generalized_fibonacci_cube(f, d).num_edges == naive_count_edges(f, d)

    def test_edges_are_hamming_one(self):
        cube = generalized_fibonacci_cube("101", 5)
        g = cube.graph()
        for u, v in g.edges():
            assert hamming(g.label_of(u), g.label_of(v)) == 1

    def test_all_hamming_one_pairs_are_edges(self):
        cube = generalized_fibonacci_cube("110", 5)
        g = cube.graph()
        words = cube.words()
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                if hamming(words[i], words[j]) == 1:
                    assert g.has_edge(i, j)

    def test_graph_cached(self):
        cube = GeneralizedFibonacciCube("11", 5)
        assert cube.graph() is cube.graph()

    def test_fig1_q4_101(self):
        """Fig. 1 of the paper: Q_4(101)."""
        cube = generalized_fibonacci_cube("101", 4)
        assert cube.num_vertices == 12
        assert cube.num_edges == 18
        # the four removed words all contain 101
        removed = set(naive_avoiding("11", 0))  # placeholder no-op
        gone = {w for w in ("0101", "1010", "1011", "1101")}
        for w in gone:
            assert w not in cube

    def test_degree_sequence_sorted(self):
        cube = generalized_fibonacci_cube("11", 4)
        seq = cube.degree_sequence()
        assert seq == sorted(seq)
        assert max(seq) == 4  # 0000 has all d neighbours

    def test_host_neighbors(self):
        cube = generalized_fibonacci_cube("11", 3)
        i = cube.index_of_word("000")
        nbrs = set(cube.host_neighbors(i))
        assert nbrs == {0b100, 0b010, 0b001}

    def test_hamming_method(self):
        cube = generalized_fibonacci_cube("11", 4)
        i, j = cube.index_of_word("0000"), cube.index_of_word("0101")
        assert cube.hamming(i, j) == 2

    def test_connectivity_of_isometric_cube(self):
        # isometric subgraphs are connected; check via networkx too
        g = to_networkx(generalized_fibonacci_cube("11", 7).graph())
        assert nx.is_connected(g)

    def test_repr(self):
        cube = GeneralizedFibonacciCube("11", 3)
        assert "f='11'" in repr(cube) and "d=3" in repr(cube)


class TestCaching:
    def test_lru_returns_same_object(self):
        a = generalized_fibonacci_cube("11", 6)
        b = generalized_fibonacci_cube("11", 6)
        assert a is b

    def test_distinct_keys_distinct_objects(self):
        assert generalized_fibonacci_cube("11", 6) is not generalized_fibonacci_cube("11", 7)
