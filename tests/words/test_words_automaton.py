"""Unit tests for the single-factor automaton and the matrix helpers."""

import pytest

from repro.analytic.enumeration import vertex_system
from repro.analytic.fsm import FSM
from repro.words.automaton import (
    FactorAutomaton,
    matrix_mult,
    matrix_power,
)

from tests.conftest import naive_all_words


class TestAutomaton:
    @pytest.mark.parametrize("f", ["1", "0", "11", "10", "110", "101", "1010", "11010", "10010"])
    def test_avoids_matches_substring_test(self, f):
        auto = FactorAutomaton(f)
        for d in range(0, 8):
            for w in naive_all_words(d):
                assert auto.avoids(w) == (f not in w), (f, w)

    def test_run_reaches_forbidden_and_stays(self):
        auto = FactorAutomaton("101")
        assert auto.run("0101") == auto.forbidden
        assert auto.run("010111") == auto.forbidden  # absorbing

    def test_run_partial_progress(self):
        auto = FactorAutomaton("110")
        # "11" matches 2 characters of the pattern
        assert auto.run("11") == 2

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            FactorAutomaton("")

    def test_non_binary_pattern_rejected(self):
        with pytest.raises(ValueError):
            FactorAutomaton("12")

    def test_num_states(self):
        assert FactorAutomaton("1101").num_states == 5

    def test_transfer_matrix_row_sums(self):
        # every non-forbidden state has exactly 2 outgoing bits, of which
        # the vertex system keeps those not entering the forbidden state
        system = vertex_system(FSM.from_factors(["111"]))
        for row in system.rows:
            assert sum(w for _, w in row) in (1, 2)

    def test_transfer_matrix_counts_words(self):
        system = vertex_system(FSM.from_factors(["11"]))
        # F_{7} = 13 words of length 5 avoid 11
        assert system.term(5) == 13


class TestMatrixHelpers:
    def test_mult_identity(self):
        a = [[1, 2], [3, 4]]
        eye = [[1, 0], [0, 1]]
        assert matrix_mult(a, eye) == a
        assert matrix_mult(eye, a) == a

    def test_power_zero_is_identity(self):
        a = [[2, 1], [1, 1]]
        assert matrix_power(a, 0) == [[1, 0], [0, 1]]

    def test_power_matches_repeated_mult(self):
        a = [[2, 1], [1, 1]]
        expected = a
        for _ in range(4):
            expected = matrix_mult(expected, a)
        assert matrix_power(a, 5) == expected

    def test_power_negative_raises(self):
        with pytest.raises(ValueError):
            matrix_power([[1]], -1)

    def test_fibonacci_via_matrix(self):
        fib = [[1, 1], [1, 0]]
        p = matrix_power(fib, 10)
        assert p[0][1] == 55  # F_10


class TestMatrixDegenerateInputs:
    """The hardened helpers: degenerate shapes are defined, malformed
    shapes raise instead of corrupting downstream counts."""

    def test_empty_times_empty(self):
        assert matrix_mult([], []) == []

    def test_empty_power(self):
        assert matrix_power([], 0) == []
        assert matrix_power([], 7) == []

    def test_one_by_one(self):
        assert matrix_mult([[3]], [[5]]) == [[15]]
        assert matrix_power([[3]], 4) == [[81]]

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError):
            matrix_mult([[1, 2], [3]], [[1], [2]])
        with pytest.raises(ValueError):
            matrix_mult([[1]], [[1, 2], [3]])
        with pytest.raises(ValueError):
            matrix_power([[1, 2], [3]], 2)

    def test_inner_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            matrix_mult([[1, 2]], [[1, 2]])

    def test_non_square_power_raises(self):
        with pytest.raises(ValueError):
            matrix_power([[1, 2]], 2)

    def test_single_letter_factor(self):
        # avoiding "0" leaves exactly the all-ones word at every d
        system = vertex_system(FSM.from_factors(["0"]))
        assert system.rows == [[(0, 1)]]
        for d in (0, 1, 5, 40):
            assert system.term(d) == 1
