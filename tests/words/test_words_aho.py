"""Multi-factor Aho--Corasick automaton."""


import pytest

from repro.analytic.fsm import FSM
from repro.cubes.multifactor import MultiFactorCube
from repro.words.aho import MultiFactorAutomaton
from repro.words.automaton import FactorAutomaton

from tests.conftest import naive_all_words, naive_factor_state


def naive_avoiding_set(factors, d):
    return [w for w in naive_all_words(d) if not any(f in w for f in factors)]


FACTOR_SETS = [
    ["11"],
    ["11", "00"],
    ["101", "010"],
    ["110", "011"],
    ["11", "000"],
    ["1010", "0101", "111"],
    ["1", "0"],          # forbids everything of length >= 1
    ["10", "01", "11"],  # only 00...0 survives
]


class TestAvoids:
    @pytest.mark.parametrize("factors", FACTOR_SETS)
    @pytest.mark.parametrize("d", [0, 1, 3, 6])
    def test_matches_naive(self, factors, d):
        auto = MultiFactorAutomaton(factors)
        for w in naive_all_words(d):
            assert auto.avoids(w) == (not any(f in w for f in factors)), (factors, w)

    def test_single_factor_matches_kmp(self):
        # the one-factor automaton has the KMP state numbering: after an
        # f-avoiding w, the longest suffix of w that is a proper prefix
        # of f; forbidden from the first occurrence of f on
        words = [w for d in range(9) for w in naive_all_words(d)]
        for m in range(1, 7):
            for f in naive_all_words(m):
                auto = FactorAutomaton(f)
                assert auto.table == MultiFactorAutomaton([f]).table
                assert (auto.num_states, auto.forbidden) == (m + 1, m)
                for w in words:
                    assert auto.run(w) == naive_factor_state(f, w), (f, w)

    def test_redundant_superstring_harmless(self):
        # 110 is redundant next to 11
        a = MultiFactorAutomaton(["11"])
        b = MultiFactorAutomaton(["11", "110"])
        for w in naive_all_words(6):
            assert a.avoids(w) == b.avoids(w)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiFactorAutomaton([])
        with pytest.raises(ValueError):
            MultiFactorAutomaton([""])
        with pytest.raises(ValueError):
            MultiFactorAutomaton(["12"])
        # a bare str is one word, not a set of letters
        with pytest.raises(TypeError, match="factors"):
            MultiFactorAutomaton("110")
        with pytest.raises(TypeError, match="factors"):
            FSM.from_factors("11")
        with pytest.raises(TypeError, match="factors"):
            MultiFactorCube("11", 3)


class TestEnumeration:
    @pytest.mark.parametrize("factors", FACTOR_SETS)
    @pytest.mark.parametrize("d", [0, 2, 5, 7])
    def test_iter_matches_naive(self, factors, d):
        auto = MultiFactorAutomaton(factors)
        assert list(auto.iter_avoiding(d)) == naive_avoiding_set(factors, d)

    @pytest.mark.parametrize("factors", FACTOR_SETS[:5])
    def test_int_array_matches_iter(self, factors):
        from repro.words.core import word_to_int

        auto = MultiFactorAutomaton(factors)
        for d in (0, 4, 8):
            got = auto.avoiding_int_array(d).tolist()
            want = [word_to_int(w) for w in auto.iter_avoiding(d)]
            assert got == want

    def test_negative_length(self):
        with pytest.raises(ValueError):
            list(MultiFactorAutomaton(["11"]).iter_avoiding(-1))


class TestCounting:
    @pytest.mark.parametrize("factors", FACTOR_SETS)
    @pytest.mark.parametrize("d", [0, 1, 4, 8])
    def test_vertex_count(self, factors, d):
        auto = MultiFactorAutomaton(factors)
        assert auto.count_vertices(d) == len(naive_avoiding_set(factors, d))

    @pytest.mark.parametrize("factors", [["11", "00"], ["101", "010"], ["11", "000"]])
    @pytest.mark.parametrize("d", [0, 1, 4, 7])
    def test_edge_count(self, factors, d):
        auto = MultiFactorAutomaton(factors)
        words = set(naive_avoiding_set(factors, d))
        count = 0
        for w in words:
            for i in range(d):
                flipped = w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1 :]
                if flipped in words:
                    count += 1
        assert auto.count_edges(d) == count // 2

    def test_alternating_words_count(self):
        # avoiding both 11 and 00 leaves exactly 2 words for every d >= 1
        auto = MultiFactorAutomaton(["11", "00"])
        for d in range(1, 30):
            assert auto.count_vertices(d) == 2

    def test_big_d_cheap(self):
        auto = MultiFactorAutomaton(["111", "000"])
        v = auto.count_vertices(300)
        # satisfies the same recurrence as its transfer matrix implies
        assert v == auto.count_vertices(299) + auto.count_vertices(298)


class TestSubsumption:
    """Construction drops factors that contain another factor: the
    superstring can never fire first, so the automaton shrinks while
    the language is untouched."""

    def test_subsumed_factors_dropped(self):
        aho = MultiFactorAutomaton(["11", "110", "0101"])
        assert aho.factors == ("0101", "11")

    def test_counts_unchanged_by_subsumed_factors(self):
        minimal = MultiFactorAutomaton(["11", "000"])
        bloated = MultiFactorAutomaton(["11", "000", "110", "0001", "11011"])
        assert bloated.factors == minimal.factors
        assert bloated.num_states == minimal.num_states
        for d in range(10):
            assert bloated.count_vertices(d) == minimal.count_vertices(d)
            assert bloated.count_edges(d) == minimal.count_edges(d)

    def test_duplicate_factors_collapse(self):
        assert MultiFactorAutomaton(["101", "101"]).factors == ("101",)

    def test_equal_length_factors_kept(self):
        aho = MultiFactorAutomaton(["110", "011"])
        assert aho.factors == ("011", "110")
