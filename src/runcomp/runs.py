"""Run-length statistics of compositions from one closed-form series.

A run is a maximal block of equal adjacent parts.  C(n, k, r) counts
compositions of n into k parts with every run shorter than r; its
generating function is the reciprocal of an explicit denominator whose sum
over part values truncates exactly (the j-th summand starts at x-degree rj).
Carlitz compositions (no two equal adjacent parts) are r = 2, and the
longest-run distribution reads the q = 1 specialization.  Caches are bounded.
"""

from fractions import Fraction
from functools import lru_cache

from ._value import Value
from .series import Series

__all__ = [
    "RunDistribution",
    "carlitz_series",
    "bounded_run_series",
    "bounded_run_count",
    "longest_run_distribution",
]


_CACHE_SIZE = 32  # series kept per cached function


@lru_cache(maxsize=_CACHE_SIZE)
def carlitz_series(max_weight: int) -> Series:
    """Generating function of Carlitz compositions, truncated at ``max_weight``.

    Coefficient (n, k) counts compositions of n into k parts with no two
    equal adjacent parts, which are those whose runs are all shorter than 2.
    """
    return bounded_run_series(2, max_weight)


@lru_cache(maxsize=_CACHE_SIZE)
def bounded_run_series(r: int, max_weight: int) -> Series:
    """Generating function of compositions whose runs are all shorter than ``r``.

    Coefficient (n, k) is C(n, k, r).  With r = 1 only the empty
    composition survives and the series collapses to 1.
    """
    if r < 1:
        raise ValueError(f"run bound must be >= 1, got {r}")
    return _run_series(r, max_weight, 1)


def _run_series(r: int, bound: int, part: int) -> Series:
    """Bounded-run series with each part marked by q^p, p = ``part``; p = 0 puts q = 1."""
    denom = Series.one(bound) - Series.monomial(bound, 1, 1, part) * Series.geom_x(bound)
    total = Series.zero(bound)
    for j in range(1, bound // r + 1):
        numer = Series.monomial(bound, 1, r * j, 0) * (
            Series.one(bound) - Series.monomial(bound, 1, j, part))  # x^{rj} (1 - q^p x^j)
        geom = Series.one(bound) - Series.monomial(bound, 1, r * j, r * part)  # 1 - q^{rp} x^{rj}
        total = total + numer * geom.invert()
    return (denom + Series.monomial(bound, 1, 0, r * part) * total).invert()


def bounded_run_count(n: int, k: int, r: int) -> int:
    """C(n, k, r): compositions of n into k parts, every run shorter than r."""
    if n < 0 or k < 0:
        raise ValueError(f"weight and parts must be nonnegative, got ({n}, {k})")
    return bounded_run_series(r, n).coefficient(n, k)


class RunDistribution(Value):
    """Exact distribution of the longest run length over compositions of n.

    ``counts[L]`` is the number of compositions whose longest run has
    length exactly L; lengths that occur zero times are omitted.  ``total``
    is 2^(n-1) and ``mean`` the exact rational average of L.
    """

    __slots__ = ("n", "counts", "total", "mean")
    n: int
    counts: dict[int, int]
    total: int
    mean: Fraction

    def __init__(self, n: int, counts: dict[int, int], total: int, mean: Fraction) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "mean", mean)


def longest_run_distribution(n: int) -> RunDistribution:
    """Tally compositions of n by the length of their longest run.

    The count at length L is the number of compositions with all runs
    shorter than L+1 minus those with all runs shorter than L.
    """
    if n < 1:
        raise ValueError(f"weight must be >= 1, got {n}")

    def admitted(r: int) -> int:
        return _run_series(r, n, 0).coefficient(n, 0)

    counts: dict[int, int] = {}
    below = admitted(1)
    for length in range(1, n + 1):
        at_or_below = admitted(length + 1)
        if at_or_below != below:
            counts[length] = at_or_below - below
        below = at_or_below
    total = 2 ** (n - 1)
    mean = Fraction(sum(length * c for length, c in counts.items()), total)
    return RunDistribution(n, counts, total, mean)
