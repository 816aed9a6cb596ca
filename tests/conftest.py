"""Shared fixtures: the fixed pool of reduced forbidden lists, and the
easy-case closed form the solver is checked against."""

import pytest

from runcomp import Series, Word, correlation_polynomial, make_forbidden_list

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
