"""Avoidance system construction and its one solver, checked four ways.

The solver is compared with the oracle's count at small weights, with
the easy-case closed form (``conftest.closed_form_series``), with a
cofactor-expansion determinant reference, and with a transfer-matrix count
past the oracle's cap, where the oracle itself is checked against that count.
"""

import math
from collections import Counter

import pytest

from conftest import POOL_SPECS, closed_form_series
from runcomp import (
    AvoidanceSystem,
    CompositionFilter,
    NotEasyCaseError,
    PivotError,
    Series,
    Word,
    avoidance_series,
    build_system,
    carlitz_series,
    count_by_parts,
    easy_case_series,
    is_reduced,
    make_forbidden_list,
)


def oracle_matches(series, forbidden, up_to):
    filt = CompositionFilter.avoid_factors(forbidden)
    if series.coefficient(0, 0) != 1:
        return False
    for n in range(1, up_to + 1):
        tally = count_by_parts(n, filt)
        for k in range(n + 1):
            if series.coefficient(n, k) != tally.get(k, 0):
                return False
    return True


class TestBuildSystem:
    def test_single_double_letter_word(self):
        system = build_system(make_forbidden_list([Word((1, 1))]), 4)
        assert system.matrix[0][0] == Series(4, {(0, 0): 1, (1, 0): -1, (1, 1): -1})
        assert system.matrix[0][1] == Series(4, {(0, 0): 1, (1, 0): -1})
        assert system.matrix[1][0] == Series(4, {(2, 2): 1})
        assert system.matrix[1][1] == Series(4, {(0, 0): -1, (1, 1): -1})
        assert system.rhs == (Series(4, {(0, 0): 1, (1, 0): -1}), Series.zero(4))

    def test_cross_correlation_entries(self):
        # Both cross-correlations of {(1,2),(2,1)} have a single overlap of
        # one letter; the suffix weights differ (2 versus 1).
        system = build_system(make_forbidden_list([Word((1, 2)), Word((2, 1))]), 4)
        assert system.matrix[1][2] == Series(4, {(2, 1): -1})  # -x^2 q
        assert system.matrix[2][1] == Series(4, {(1, 1): -1})  # -x q
        assert system.matrix[1][1] == Series(4, {(0, 0): -1})
        assert system.matrix[2][2] == Series(4, {(0, 0): -1})

    def test_diagonal_entries_are_units(self, list_pool):
        for forbidden in list_pool:
            system = build_system(forbidden, 6)
            for i in range(1, len(forbidden) + 1):
                assert system.matrix[i][i].coefficient(0, 0) == -1


class TestAvoidanceSeries:
    def test_single_word_golden_coefficient(self):
        # Compositions of 5 into 2 parts without the factor 1,1:
        # 1+4, 4+1, 2+3, 3+2.
        forbidden = make_forbidden_list([Word((1, 1))])
        series = avoidance_series(build_system(forbidden, 5))
        assert series.coefficient(5, 2) == 4
        assert oracle_matches(series, forbidden, 5)

    def test_carlitz_sublist(self):
        # Words of weight above the bound never occur, so the finite
        # sublist of double letters reproduces the Carlitz series.
        forbidden = make_forbidden_list([Word((1, 1)), Word((2, 2))])
        assert avoidance_series(build_system(forbidden, 5)) == carlitz_series(5)

    def test_pool_matches_enumeration(self, list_pool):
        for forbidden in list_pool:
            series = avoidance_series(build_system(forbidden, 8))
            assert oracle_matches(series, forbidden, 8), str(forbidden)

    def test_word_heavier_than_bound_counts_everything(self):
        forbidden = make_forbidden_list([Word((4, 4))])
        series = avoidance_series(build_system(forbidden, 5))
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert series.coefficient(n, k) == math.comb(n - 1, k - 1)

    def test_monotone_in_list_inclusion(self):
        nested = [
            make_forbidden_list([Word((1, 1))]),
            make_forbidden_list([Word((1, 1)), Word((2, 2))]),
            make_forbidden_list([Word((1, 1)), Word((2, 2)), Word((3, 3))]),
        ]
        results = [avoidance_series(build_system(f, 8)) for f in nested]
        for smaller, larger in zip(results[1:], results):
            for n in range(9):
                for k in range(9):
                    assert smaller.coefficient(n, k) <= larger.coefficient(n, k)

    def test_pivot_error_on_degenerate_system(self):
        forbidden = make_forbidden_list([Word((1, 1))])
        bad = AvoidanceSystem(
            forbidden,
            ((Series.monomial(3, 1, 1, 0),),),  # single entry x: no unit pivot
            (Series.one(3),),
            3,
        )
        with pytest.raises(PivotError):
            avoidance_series(bad)


class TestEasyCase:
    def test_requires_easy_list(self):
        forbidden = make_forbidden_list([Word((1, 2)), Word((2, 1))])
        with pytest.raises(NotEasyCaseError):
            easy_case_series(forbidden, 5)

    def test_small_golden(self):
        # Compositions of 3 avoiding the factor 1,1: 3 itself, 1+2, 2+1.
        forbidden = make_forbidden_list([Word((1, 1))])
        series = easy_case_series(forbidden, 3)
        assert str(series) == "1+qx+qx^2+(q+2q^2)x^3"

    def test_agrees_with_system(self, list_pool):
        # The solver's answer for an easy list against the closed form.
        for forbidden in list_pool:
            if forbidden.easy_case:
                assert easy_case_series(forbidden, 8) == closed_form_series(forbidden, 8)

    def test_word_heavier_than_bound_counts_everything(self):
        forbidden = make_forbidden_list([Word((3, 3))])
        series = easy_case_series(forbidden, 5)
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert series.coefficient(n, k) == math.comb(n - 1, k - 1)

    def test_exhaustive_small_easy_lists(self):
        # Every single word and every easy pair over letters <= 3 with
        # weight <= 6: the solver must match the closed form exactly at N=10.
        def bounded_words(max_weight, max_letter):
            def comps(m):
                if m == 0:
                    yield ()
                    return
                for first in range(1, min(m, max_letter) + 1):
                    for rest in comps(m - first):
                        yield (first, *rest)
            for m in range(1, max_weight + 1):
                yield from (Word(t) for t in comps(m))

        words = list(bounded_words(6, 3))
        candidates = [[w] for w in words]
        candidates.extend([u, v] for i, u in enumerate(words)
                          for v in words[i + 1:] if is_reduced([u, v]))
        checked = 0
        for cand in candidates:
            forbidden = make_forbidden_list(cand)
            if not forbidden.easy_case:
                continue
            assert easy_case_series(forbidden, 10) == \
                closed_form_series(forbidden, 10), str(forbidden)
            checked += 1
        assert checked > 300

    def test_first_row_reduction_identity(self, list_pool):
        # For sparse systems the first unknown collapses to
        # (1-x) / (b00 - sum_i b0i * bi0 / bii).
        for forbidden in list_pool:
            if not forbidden.easy_case:
                continue
            system = build_system(forbidden, 8)
            m = system.matrix
            denom = m[0][0]
            for i in range(1, len(forbidden) + 1):
                denom = denom - m[0][i] * m[i][0] * m[i][i].invert()
            closed = system.rhs[0] * denom.invert()
            assert closed == avoidance_series(system)


def determinant_solve(system):
    """Cramer-style reference solution: det(A with column 0 replaced) / det(A)."""
    replaced = [[system.rhs[i] if j == 0 else entry
                 for j, entry in enumerate(row)] for i, row in enumerate(system.matrix)]
    return _determinant(replaced) / _determinant(system.matrix)


def _determinant(matrix):
    """Cofactor expansion along the first row; factorial cost, small systems only."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = Series.zero(matrix[0][0].max_weight)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = entry * _determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


class TestDeterminantReference:
    def test_agrees_with_elimination(self, list_pool):
        for forbidden in list_pool:
            system = build_system(forbidden, 7)
            assert determinant_solve(system) == avoidance_series(system), str(forbidden)


def automaton_counts(forbidden, max_weight):
    """Counter of (weight, parts) over compositions avoiding every listed factor.

    A transfer-matrix count that shares no code with the series side.  The
    state is the last (longest word length - 1) parts; parts above the
    largest letter match no letter, so they all share one class, 0.
    """
    words = [w.letters for w in forbidden]
    memory = max(map(len, words)) - 1
    largest = max(max(w) for w in words)
    layers = [Counter() for _ in range(max_weight + 1)]
    layers[0][0, ()] = 1
    counts = Counter()
    for n, layer in enumerate(layers):
        for (k, state), ways in layer.items():
            counts[n, k] += ways
            for part in range(1, max_weight - n + 1):
                window = (*state, part if part <= largest else 0)
                if any(window[len(window) - len(w):] == w for w in words):
                    continue
                layers[n + part][k + 1, window[len(window) - memory:]] += ways
    return counts


class TestPastTheOracleCap:
    BOUND = 40
    LISTS = [spec for spec in POOL_SPECS if not make_forbidden_list(
        [Word(w) for w in spec]).easy_case] + [[(1, 2), (2, 1), (1, 1, 1)]]

    @pytest.mark.parametrize("spec", LISTS, ids=str)
    def test_every_cell_matches_automaton(self, spec):
        forbidden = make_forbidden_list([Word(w) for w in spec])
        series = avoidance_series(build_system(forbidden, self.BOUND))
        counts = automaton_counts(forbidden, self.BOUND)
        for n in range(self.BOUND + 1):
            for k in range(self.BOUND + 1):
                assert series.coefficient(n, k) == counts[n, k], (spec, n, k)

    @pytest.mark.parametrize("spec", LISTS, ids=str)
    def test_oracle_matches_automaton(self, spec):
        forbidden = make_forbidden_list([Word(w) for w in spec])
        filt = CompositionFilter.avoid_factors(forbidden)
        counts = automaton_counts(forbidden, self.BOUND)
        expected = {k: c for (n, k), c in counts.items() if n == self.BOUND}
        assert count_by_parts(self.BOUND, filt, force=True) == expected

    @pytest.mark.parametrize("spec", LISTS, ids=str)
    def test_denominator_is_a_unit_polynomial_of_degree_at_most_d(self, spec):
        forbidden = make_forbidden_list([Word(w) for w in spec])
        degree = 1 + sum(w.weight for w in forbidden)
        system = build_system(forbidden, self.BOUND)
        denominator = _determinant(system.matrix)
        assert denominator.coefficient(0, 0) in (1, -1)
        assert max(max(cell) for cell in denominator.coeffs) <= degree
        numerator = avoidance_series(system) * denominator
        assert max(max(cell) for cell in numerator.coeffs) <= degree
