"""Property-based tests for the extension layer (Aho-Corasick, Gray, GF)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.words.aho import MultiFactorAutomaton
from repro.words.correlation import count_avoiding_gf
from repro.words.counting import count_vertices_automaton
from repro.words.gray import gray_rank, gray_unrank, gray_words, is_gray_order

from tests.conftest import naive_factor_state

factors = st.text(alphabet="01", min_size=1, max_size=5)
factor_sets = st.lists(factors, min_size=1, max_size=3)
words = st.text(alphabet="01", min_size=0, max_size=16)


@given(factor_sets, words)
@settings(max_examples=100, deadline=None)
def test_aho_agrees_with_substring_scan(fs, w):
    auto = MultiFactorAutomaton(fs)
    assert auto.avoids(w) == (not any(f in w for f in fs))


@given(factors, words)
@settings(max_examples=100, deadline=None)
def test_aho_singleton_equals_kmp(f, w):
    auto = MultiFactorAutomaton([f])
    assert auto.run(w) == naive_factor_state(f, w)
    assert auto.avoids(w) == (f not in w)


@given(factor_sets, st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_aho_count_matches_enumeration(fs, d):
    auto = MultiFactorAutomaton(fs)
    assert auto.count_vertices(d) == len(list(auto.iter_avoiding(d)))


@given(factor_sets, factors, st.integers(min_value=0, max_value=9))
@settings(max_examples=60, deadline=None)
def test_aho_monotone_under_larger_sets(fs, extra, d):
    base = MultiFactorAutomaton(fs).count_vertices(d)
    bigger = MultiFactorAutomaton(list(fs) + [extra]).count_vertices(d)
    assert bigger <= base


@given(factors, st.integers(min_value=0, max_value=20))
@settings(max_examples=80, deadline=None)
def test_three_counting_engines_agree(f, d):
    a = count_vertices_automaton(f, d)
    b = count_avoiding_gf(f, d)
    assert a == b


@given(st.integers(min_value=0, max_value=(1 << 20) - 1))
def test_gray_rank_roundtrip(code):
    assert gray_unrank(gray_rank(code)) == code


@given(st.integers(min_value=0, max_value=8))
def test_gray_words_are_gray(d):
    assert is_gray_order(gray_words(d), cyclic=d >= 1)
