"""Acceptance suite: one test per release criterion.

Every criterion is checked at its stated tolerance (exact integer equality
throughout) and reports one PASS/FAIL line; run with ``pytest
tests/test_acceptance.py -v -s`` to see the lines as they are produced.
"""

import math
import random
import time
from contextlib import contextmanager

from conftest import closed_form_series
from runcomp import (
    CompositionFilter,
    Series,
    Word,
    avoidance_series,
    bounded_run_count,
    bounded_run_series,
    build_system,
    carlitz_series,
    correlation_vector,
    count_by_parts,
    easy_case_series,
    longest_run_distribution,
)


@contextmanager
def report(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


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


def test_criterion_1_carlitz_golden_series():
    with report("criterion 1 (Carlitz golden series)"):
        carlitz_series.cache_clear()
        start = time.perf_counter()
        series = carlitz_series(5)
        elapsed = time.perf_counter() - start
        assert series == CARLITZ_5
        assert str(series) == "1+qx+qx^2+(q+2q^2)x^3+(q+2q^2+q^3)x^4+(q+4q^2+2q^3)x^5"
        assert elapsed < 1.0


def test_criterion_2_bounded_run_golden_series():
    with report("criterion 2 (bounded-run golden series)"):
        bounded_run_series.cache_clear()
        start = time.perf_counter()
        three = bounded_run_series(3, 4)
        four = bounded_run_series(4, 4)
        elapsed = time.perf_counter() - start
        assert three == RUNS_3_4
        assert four == RUNS_4_4
        assert elapsed < 1.0


def test_criterion_3_correlation_example():
    with report("criterion 3 (correlation example)"):
        assert str(correlation_vector(Word((1, 1, 0)), Word((1, 0, 1, 1)))) == "011"
        assert str(correlation_vector(Word((1, 0, 1, 1)), Word((1, 1, 0)))) == "0010"


def test_criterion_4_run_counts_match_enumeration():
    with report("criterion 4 (bounded-run counts vs enumeration, n <= 14, r in 2..6)"):
        start = time.perf_counter()
        for r in range(2, 7):
            assert bounded_run_count(0, 0, r) == 1
            for n in range(1, 15):
                tally = count_by_parts(n, CompositionFilter.max_run_below(r))
                for k in range(n + 1):
                    assert bounded_run_count(n, k, r) == tally.get(k, 0), (n, k, r)
        assert time.perf_counter() - start < 60.0


def test_criterion_5_avoidance_matches_enumeration(list_pool):
    with report("criterion 5 (avoidance series vs enumeration over the list pool, n <= 12)"):
        start = time.perf_counter()
        assert len(list_pool) >= 10
        assert sum(1 for f in list_pool if not f.easy_case) >= 3
        for forbidden in list_pool:
            assert all(len(w) <= 3 and max(w.letters) <= 3 for w in forbidden)
            series = avoidance_series(build_system(forbidden, 12))
            assert series.coefficient(0, 0) == 1
            filt = CompositionFilter.avoid_factors(forbidden)
            for n in range(1, 13):
                tally = count_by_parts(n, filt)
                for k in range(n + 1):
                    assert series.coefficient(n, k) == tally.get(k, 0), (str(forbidden), n, k)
        assert time.perf_counter() - start < 60.0


def test_criterion_6_easy_case_consistency(list_pool):
    with report("criterion 6 (easy-case closed form vs linear system at N=10)"):
        for forbidden in (f for f in list_pool if f.easy_case):
            system = build_system(forbidden, 10)
            solved = avoidance_series(system)
            closed = easy_case_series(forbidden, 10)
            # First-row reduction of the sparse system:
            # x1 = (1-x) / (b00 - sum_i b0i * bi0 / bii).
            m = system.matrix
            denom = m[0][0]
            for i in range(1, len(forbidden) + 1):
                denom = denom - m[0][i] * m[i][0] * m[i][i].invert()
            reduced = system.rhs[0] * denom.invert()
            assert closed == solved, str(forbidden)
            assert reduced == solved, str(forbidden)
            assert closed_form_series(forbidden, 10) == solved, str(forbidden)


def test_criterion_7_structural_identities():
    with report("criterion 7 (structural identities)"):
        carlitz = carlitz_series(12)
        twos = bounded_run_series(2, 12)
        assert carlitz == twos
        for n in range(13):
            for k in range(n + 1):
                assert carlitz.coefficient(n, k) == twos.coefficient(n, k)
                expected = math.comb(n - 1, k - 1) if n >= 1 and k >= 1 else (1 if n == k == 0 else 0)
                assert bounded_run_count(n, k, n + 1) == expected
        for n in range(1, 15):
            assert sum(longest_run_distribution(n).counts.values()) == 2 ** (n - 1)


def _random_series(rng, bound, lo, hi, unit=False):
    terms = {}
    for n in range(bound + 1):
        for k in range(bound + 1):
            if rng.random() < 0.4:
                terms[n, k] = rng.randint(lo, hi)
    if unit:
        terms[0, 0] = rng.choice([1, -1])
    return Series(bound, terms)


def test_criterion_8_series_ring_properties():
    with report("criterion 8 (series ring property suite, 200 randomized checks)"):
        rng = random.Random(20260810)
        one6, zero6 = Series.one(6), Series.zero(6)
        for _ in range(200):
            a = _random_series(rng, 6, -5, 5)
            b = _random_series(rng, 6, -5, 5)
            c = _random_series(rng, 6, -5, 5)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero6 == a
            assert a * one6 == a
            assert a - a == zero6

            u = _random_series(rng, 6, -3, 3, unit=True)
            assert u * u.invert() == one6
            assert u.invert() * u == one6

            wide = _random_series(rng, 10, -4, 4)
            other = _random_series(rng, 10, -4, 4)
            assert (wide + other).truncate(6) == wide.truncate(6) + other.truncate(6)
            assert (wide * other).truncate(6) == wide.truncate(6) * other.truncate(6)
            unit_wide = _random_series(rng, 10, -3, 3, unit=True)
            assert unit_wide.invert().truncate(6) == unit_wide.truncate(6).invert()
