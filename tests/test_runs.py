"""Carlitz and bounded-run series, coefficient extraction, longest-run distribution."""

import math
from fractions import Fraction

import pytest

from runcomp import (
    CompositionFilter,
    Series,
    Word,
    avoidance_series,
    bounded_run_count,
    bounded_run_series,
    build_system,
    carlitz_series,
    count_by_parts,
    longest_run_distribution,
    make_forbidden_list,
)
from conftest import enumerate_compositions, max_run_length

CARLITZ_5 = Series(5, {
    (0, 0): 1,
    (1, 1): 1,
    (2, 1): 1,
    (3, 1): 1, (3, 2): 2,
    (4, 1): 1, (4, 2): 2, (4, 3): 1,
    (5, 1): 1, (5, 2): 4, (5, 3): 2,
})

RUNS_3_4 = Series(4, {
    (0, 0): 1,
    (1, 1): 1,
    (2, 1): 1, (2, 2): 1,
    (3, 1): 1, (3, 2): 2,
    (4, 1): 1, (4, 2): 3, (4, 3): 3,
})

RUNS_4_4 = Series(4, {
    (0, 0): 1,
    (1, 1): 1,
    (2, 1): 1, (2, 2): 1,
    (3, 1): 1, (3, 2): 2, (3, 3): 1,
    (4, 1): 1, (4, 2): 3, (4, 3): 3,
})


def transfer_matrix_counts(bound, r, mark_parts=True):
    """{(n, k): compositions of n <= bound into k parts with every run shorter than r}.

    A transfer-matrix DP over (weight, parts, last part, run length) that
    shares no code with ``runcomp.runs`` or ``Series``.  Appending a part equal
    to the last one lengthens the final run; any other part starts a run of
    one.  With ``mark_parts`` false every composition is filed under k = 0.
    """
    step = 1 if mark_parts else 0
    # ends[n][k, v, l]: compositions of n into k parts ending in a run of exactly l copies of v.
    ends = [{} for _ in range(bound + 1)]
    counts = {}
    for n in range(bound + 1):
        by_parts = {0: 1} if n == 0 else {}  # n = 0 holds only the empty composition
        by_last = {}
        for (k, v, l), c in ends[n].items():
            by_parts[k] = by_parts.get(k, 0) + c
            by_last[k, v] = by_last.get((k, v), 0) + c
            if l + 1 < r and n + v <= bound:
                key = (k + step, v, l + 1)
                ends[n + v][key] = ends[n + v].get(key, 0) + c
        for k, total in by_parts.items():
            counts[n, k] = total
            if r == 1:
                continue  # a run of one part is already too long
            for p in range(1, bound - n + 1):
                fresh = total - by_last.get((k, p), 0)
                if fresh:
                    key = (k + step, p, 1)
                    ends[n + p][key] = ends[n + p].get(key, 0) + fresh
    return {cell: c for cell, c in counts.items() if c}


class TestCarlitz:
    def test_golden_expansion(self):
        s = carlitz_series(5)
        assert s == CARLITZ_5
        assert str(s) == "1+qx+qx^2+(q+2q^2)x^3+(q+2q^2+q^3)x^4+(q+4q^2+2q^3)x^5"

    def test_degenerate_bound(self):
        assert carlitz_series(0) == Series.one(0)

    def test_equals_run_bound_two(self):
        # No two equal adjacent parts means avoiding every factor j j, which
        # the general avoidance solver computes without the run formula.
        for bound in range(13):
            letters = [j for j in range(1, bound + 1) if 2 * j <= bound] or [1]
            forbidden = make_forbidden_list([Word((j, j)) for j in letters])
            assert carlitz_series(bound) == avoidance_series(build_system(forbidden, bound)), bound

    def test_matches_enumeration(self):
        s = carlitz_series(12)
        for n in range(1, 13):
            tally = count_by_parts(n, CompositionFilter.max_run_below(2))
            for k in range(n + 1):
                assert s.coefficient(n, k) == tally.get(k, 0)

    def test_coefficients_stay_in_triangle(self):
        s = carlitz_series(10)
        assert all(k <= n for n, k, _ in s.terms())


class TestBoundedRuns:
    def test_golden_expansions(self):
        assert bounded_run_series(3, 4) == RUNS_3_4
        assert str(bounded_run_series(3, 4)) == "1+qx+(q+q^2)x^2+(q+2q^2)x^3+(q+3q^2+3q^3)x^4"
        assert bounded_run_series(4, 4) == RUNS_4_4
        assert str(bounded_run_series(4, 4)) == "1+qx+(q+q^2)x^2+(q+2q^2+q^3)x^3+(q+3q^2+3q^3)x^4"

    def test_run_bound_one_forbids_everything(self):
        for bound in (0, 1, 5, 9):
            assert bounded_run_series(1, bound) == Series.one(bound)

    def test_invalid_run_bound(self):
        with pytest.raises(ValueError):
            bounded_run_series(0, 4)

    def test_matches_enumeration(self):
        for r in range(2, 6):
            for n in range(1, 11):
                tally = count_by_parts(n, CompositionFilter.max_run_below(r))
                for k in range(n + 1):
                    assert bounded_run_count(n, k, r) == tally.get(k, 0)

    def test_relaxing_the_bound_never_removes_compositions(self):
        for n in range(11):
            for r in range(1, n + 2):
                for k in range(n + 1):
                    assert bounded_run_count(n, k, r) <= bounded_run_count(n, k, r + 1)

    def test_matches_the_general_solver_on_constant_word_lists(self):
        # Forbidding every run of length r is the same as avoiding the
        # finite list of constant words j^r with weight rj <= N (heavier
        # ones cannot occur below the truncation bound).
        bound = 8
        for r in range(1, 9):
            letters = [j for j in range(1, bound + 1) if r * j <= bound] or [1]
            forbidden = make_forbidden_list([Word((j,) * r) for j in letters])
            solved = avoidance_series(build_system(forbidden, bound))
            assert solved == bounded_run_series(r, bound), r


class TestCounts:
    def test_golden_counts(self):
        assert bounded_run_count(4, 3, 3) == 3
        assert bounded_run_count(3, 3, 4) == 1

    def test_unconstrained_equals_binomial(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert bounded_run_count(n, k, n + 1) == math.comb(n - 1, k - 1)

    def test_empty_composition(self):
        assert bounded_run_count(0, 0, 3) == 1
        assert bounded_run_count(0, 1, 3) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bounded_run_count(-1, 0, 2)
        with pytest.raises(ValueError):
            bounded_run_count(3, -1, 2)
        with pytest.raises(ValueError):
            bounded_run_count(3, 1, 0)


class TestLongestRunDistribution:
    def test_weight_three(self):
        # 3, 1+2, 2+1 have longest run 1; 1+1+1 has longest run 3; no
        # composition of 3 can have longest run exactly 2.
        dist = longest_run_distribution(3)
        assert dist.counts == {1: 3, 3: 1}
        assert dist.total == 4
        assert dist.mean == Fraction(3, 2)

    def test_weight_one(self):
        dist = longest_run_distribution(1)
        assert dist.counts == {1: 1}
        assert dist.total == 1
        assert dist.mean == 1

    def test_counts_partition_all_compositions(self):
        for n in range(1, 13):
            dist = longest_run_distribution(n)
            assert sum(dist.counts.values()) == 2 ** (n - 1)

    def test_all_ones_composition_is_the_longest(self):
        for n in range(2, 9):
            assert longest_run_distribution(n).counts[n] == 1

    def test_matches_per_composition_tally(self):
        for n in range(1, 13):
            tally = {}
            for w in enumerate_compositions(n):
                run = max_run_length(w.letters)
                tally[run] = tally.get(run, 0) + 1
            assert longest_run_distribution(n).counts == tally

    def test_mean_grows_with_weight(self):
        # The means at n = 2 and n = 3 coincide at 3/2 (checked against
        # enumeration); growth is strict from n = 3 onward.
        means = [longest_run_distribution(n).mean for n in range(2, 15)]
        assert all(a <= b for a, b in zip(means, means[1:]))
        assert all(a < b for a, b in zip(means[1:], means[2:]))
        assert means[0] == means[1] == Fraction(3, 2)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            longest_run_distribution(0)

    @pytest.mark.parametrize("n", [30, 45])
    def test_matches_bivariate_series_past_enumeration(self, n):
        before = bounded_run_series.cache_info()
        dist = longest_run_distribution(n)
        assert bounded_run_series.cache_info() == before  # neither looked up nor filled
        admitted = [sum(bounded_run_series(r, n).coefficient(n, k) for k in range(n + 1))
                    for r in range(1, n + 2)]
        expected = {length: admitted[length] - admitted[length - 1]
                    for length in range(1, n + 1) if admitted[length] != admitted[length - 1]}
        assert dist.counts == expected
        assert sum(dist.counts.values()) == 2 ** (n - 1)


class TestTransferMatrix:
    """Past the 2^(n-1) enumeration cap, against the independent DP above."""

    def test_dp_matches_enumeration(self):
        for r in (1, 2, 3):
            counts = transfer_matrix_counts(10, r)
            for n in range(1, 11):
                tally = count_by_parts(n, CompositionFilter.max_run_below(r))
                assert {k: c for (m, k), c in counts.items() if m == n} == tally

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_every_cell_of_bounded_run_series(self, r):
        assert dict(bounded_run_series(r, 40).coeffs) == transfer_matrix_counts(40, r)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_oracle_past_the_cap(self, r):
        n = 40
        expected = {k: c for (m, k), c in transfer_matrix_counts(n, r).items() if m == n}
        assert count_by_parts(n, CompositionFilter.max_run_below(r), force=True) == expected

    def test_longest_run_distribution(self):
        n = 60
        admitted = [transfer_matrix_counts(n, r, mark_parts=False).get((n, 0), 0)
                    for r in range(1, n + 2)]
        expected = {length: admitted[length] - admitted[length - 1]
                    for length in range(1, n + 1) if admitted[length] != admitted[length - 1]}
        assert longest_run_distribution(n).counts == expected


def test_caches_are_bounded():
    for cached in (carlitz_series, bounded_run_series):
        assert cached.cache_info().maxsize is not None
