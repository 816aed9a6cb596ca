"""Shared fixtures: the fixed pool of reduced forbidden lists, the
easy-case closed form the solver is checked against, the composition
listings the oracle is checked against, and one instance of each value
class."""

from itertools import product

import pytest

from runcomp import (
    CompositionFilter,
    Series,
    Word,
    build_system,
    correlation_polynomial,
    correlation_vector,
    longest_run_distribution,
    make_forbidden_list,
)

# Reduced lists over letters <= 3 with words of length <= 3.  The last four
# have a nonzero cross-correlation (a suffix of one word is a prefix of
# another), so the easy method rejects them.
POOL_SPECS = [
    [(1, 1)],
    [(2, 2)],
    [(3,)],
    [(1, 1), (2, 2)],
    [(1, 1), (2, 2), (3, 3)],
    [(1,), (2, 2)],
    [(1, 1, 2)],
    [(2, 1, 2)],
    [(1, 2), (2, 1)],
    [(1, 2), (2, 3)],
    [(1, 3), (3, 1)],
    [(1, 2), (2, 1), (3, 3)],
]


@pytest.fixture(scope="session")
def list_pool():
    return [make_forbidden_list([Word(w) for w in spec]) for spec in POOL_SPECS]


def closed_form_series(forbidden, max_weight):
    """Avoidance series of a list whose cross-correlations all vanish.

    The reciprocal of 1 - qx/(1-x) + sum over words of
    x^weight q^length / autocorrelation, evaluated in the truncated ring.
    It shares no code with the linear system or its elimination.
    """
    assert forbidden.easy_case, str(forbidden)
    bound = max_weight
    denom = Series.one(bound) - Series.monomial(bound, 1, 1, 1) * Series.geom_x(bound)
    for s in forbidden:
        auto = correlation_polynomial(s, s, bound)
        denom = denom + Series.monomial(bound, 1, s.weight, s.length) * auto.invert()
    return denom.invert()


def reference_compositions(n):
    """Every composition of n, built from its set of cuts, in lexicographic order.

    Shares no code with the oracle: each of the 2^(n-1) cut sets between n
    units gives one composition, which is kept whole.
    """
    listing = []
    for cuts in product((True, False), repeat=n - 1):
        parts, part = [], 1
        for cut in cuts:
            if cut:
                parts.append(part)
                part = 1
            else:
                part += 1
        listing.append((*parts, part))
    return sorted(listing)


def enumerate_compositions(n):
    """Yield the 2^(n-1) compositions of n once each as Words, lexicographic by parts.

    A depth-first walk that appends one part at a time, independent of the
    cut-set listing above.
    """
    if n < 1:
        raise ValueError(f"weight must be >= 1, got {n}")

    def extend(rest, parts):
        for a in range(1, rest + 1):
            if a == rest:
                yield (*parts, a)
            else:
                yield from extend(rest - a, (*parts, a))

    return (Word(parts) for parts in extend(n, ()))


def max_run_length(parts):
    """Length of the longest block of equal adjacent parts; 0 for the empty tuple."""
    best = run = 0
    prev = None
    for a in parts:
        run = run + 1 if a == prev else 1
        prev = a
        best = max(best, run)
    return best


def value_examples():
    """One instance of each immutable value class, built afresh on every call."""
    forbidden = make_forbidden_list([Word((1, 1)), Word((1, 2))])
    return [
        Series(4, {(0, 0): 1, (1, 1): -2, (3, 2): 10 ** 30}),
        Word((2, 1, 2)),
        correlation_vector(Word((1, 2, 1)), Word((2, 1))),
        forbidden,
        build_system(forbidden, 4),
        CompositionFilter.avoid_factors(forbidden),
        longest_run_distribution(5),
    ]
