"""Series ring: identities, inversion, truncation, rendering, serialization."""

import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import value_examples
from runcomp import (
    BoundMismatchError,
    CoefficientRangeError,
    NotInvertibleError,
    Series,
    bounded_run_series,
    carlitz_series,
)


def series_terms(max_weight, lo=-5, hi=5):
    cells = st.tuples(st.integers(0, max_weight), st.integers(0, max_weight))
    return st.dictionaries(cells, st.integers(lo, hi), max_size=12)


def series_st(max_weight=5, lo=-5, hi=5):
    return series_terms(max_weight, lo, hi).map(lambda d: Series(max_weight, d))


def unit_series_st(max_weight=5, lo=-3, hi=3):
    return st.tuples(series_terms(max_weight, lo, hi), st.sampled_from([1, -1])).map(
        lambda pair: Series(max_weight, {**pair[0], (0, 0): pair[1]}))


def random_series(rng, max_weight, lo, hi, unit=False):
    terms = {}
    for n in range(max_weight + 1):
        for k in range(max_weight + 1):
            if rng.random() < 0.4:
                terms[n, k] = rng.randint(lo, hi)
    if unit:
        terms[0, 0] = rng.choice([1, -1])
    return Series(max_weight, terms)


class TestConstruction:
    def test_zero_has_no_terms(self):
        assert Series.zero(5).coeffs == {}
        assert Series.zero(0).coeffs == {}

    def test_zero_coefficients_are_dropped(self):
        assert Series(4, {(1, 1): 0, (2, 1): 3}) == Series(4, {(2, 1): 3})

    def test_out_of_range_terms_are_truncated(self):
        assert Series(3, {(4, 0): 7}) == Series.zero(3)
        assert Series(3, {(0, 4): 7}) == Series.zero(3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Series(3, {(-1, 0): 1})

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            Series(-1, {})

    def test_non_int_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Series(3, {(0, 0): 1.5})
        with pytest.raises(TypeError):
            Series(3, {(1, 0): True})

    def test_bool_bound_rejected(self):
        with pytest.raises(ValueError):
            Series(True, {})

    def test_equality_is_structural(self):
        assert Series(4, {(1, 1): 2}) == Series(4, {(1, 1): 2})
        assert Series(4, {(1, 1): 2}) != Series(5, {(1, 1): 2})


class TestIdentities:
    def test_additive_identity(self):
        s = Series.geom_x(5)
        assert Series.zero(5) + s == s
        assert s - s == Series.zero(5)

    def test_multiplicative_identity(self):
        s = Series(4, {(1, 1): 3, (2, 2): -1, (0, 0): 1})
        assert Series.one(4) * s == s
        assert Series.one(4).coefficient(0, 0) == 1

    def test_monomial_product(self):
        xq = Series.monomial(4, 1, 1, 1)
        assert (xq * xq).coefficient(2, 2) == 1

    def test_geom_x_definition(self):
        assert Series.geom_x(3) == Series(3, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})
        assert Series.geom_x(0) == Series.one(0)

    def test_geom_x_times_one_minus_x(self):
        for bound in (3, 5):
            one_minus_x = Series(bound, {(0, 0): 1, (1, 0): -1})
            assert Series.geom_x(bound) * one_minus_x == Series.one(bound)

    def test_bound_mismatch_raises(self):
        with pytest.raises(BoundMismatchError):
            Series.one(3) + Series.one(4)
        with pytest.raises(BoundMismatchError):
            Series.one(3) * Series.one(4)


class TestDivide:
    def test_quotient_times_divisor_is_numerator(self):
        rng = random.Random(11)
        pairs = [(random_series(rng, 7, -4, 4), random_series(rng, 7, -3, 3, unit=True))
                 for _ in range(30)]
        bound = 60
        # Only k = 0 cells: the q = 1 specialization.
        univariate = (
            Series(bound, {(n, 0): rng.choice([-2, -1, 1, 3]) for n in range(0, bound + 1, 7)}),
            Series(bound, {(0, 0): 1, (1, 0): -1, (3, 0): 2, (8, 0): -1}))
        pairs += [
            univariate,
            # Empty rows between non-empty rows, in the numerator and the quotient.
            (Series(bound, {(0, 0): 1, (25, 4): -2, (59, 1): 3}),
             Series(bound, {(0, 0): 1, (20, 3): -1, (45, 0): 2})),
            # Terms with a = 0 and b > 0 recur along each row.
            (Series(bound, {(0, 0): 1, (2, 1): 5}),
             Series(bound, {(0, 0): 1, (0, 1): 1, (0, 3): -2, (1, 2): -1})),
            # Cells with k > n.
            (Series(bound, {(0, 9): 2, (1, 40): -1, (3, 60): 1}),
             Series(bound, {(0, 0): 1, (1, 9): -2, (2, 30): 1})),
            # A constant term of -1.
            (Series(bound, {(0, 0): 1, (5, 2): 1}),
             Series(bound, {(0, 0): -1, (1, 0): 1, (1, 1): 1, (4, 2): -3})),
        ]
        for p, d in pairs:
            assert (p / d) * d == p
        quotient = univariate[0] / univariate[1]
        assert quotient.coeffs and all(k == 0 for _, k in quotient.coeffs)

    def test_divide_by_one_minus_x_and_q(self):
        # 1/(1 - x - xq) counts compositions by parts: C(n-1, k-1) at (n, k).
        quotient = Series.one(6) / Series(6, {(0, 0): 1, (1, 0): -1, (1, 1): -1})
        assert quotient.coefficient(6, 3) == math.comb(6, 3)
        assert quotient * Series(6, {(0, 0): 1, (1, 0): -1, (1, 1): -1}) == Series.one(6)

    def test_non_unit_divisor_raises(self):
        with pytest.raises(NotInvertibleError):
            Series.one(4) / Series(4, {(0, 0): 2})

    def test_bound_mismatch_raises(self):
        with pytest.raises(BoundMismatchError):
            Series.one(3) / Series.one(4)


def row_list_divide(numerator, divisor):
    """Reference quotient: each row a list of q-coefficients, one cell at a time.

    The row of weight n starts as c0 times the numerator row and, for each
    divisor term (a, b, c) with a > 0, loses c times row n - a shifted by b;
    terms with a = 0 then recur along the row.  A row is only as long as the
    q-extent it can reach.  It shares no code with ``Series.__truediv__``.
    """
    bound = numerator.max_weight
    c0 = divisor.coefficient(0, 0)
    assert c0 in (1, -1)
    width = bound + 1
    numer = {}
    for n, k, c in numerator.terms():
        numer.setdefault(n, {})[k] = c0 * c
    shifts = [(a, b, c0 * c) for a, b, c in divisor.terms() if (a, b) != (0, 0)]
    along = [(b, c) for a, b, c in shifts if a == 0]
    down = [(a, b, c) for a, b, c in shifts if a > 0]
    rows = []
    quotient = {}
    for n in range(width):
        cells = numer.get(n, {})
        row = [0] * (max(cells) + 1) if cells else []
        for k, c in cells.items():
            row[k] = c
        for a, b, c in down:
            if a > n:
                break
            source = rows[n - a]
            if source:
                end = b + len(source)
                if end > len(row):
                    row.extend([0] * (min(end, width) - len(row)))
                row[b:end] = [x - c * y for x, y in zip(row[b:end], source)]
        if along and row:
            row.extend([0] * (width - len(row)))
            for k in range(width):
                for b, c in along:
                    if b > k:
                        break
                    row[k] -= c * row[k - b]
        rows.append(row)
        quotient.update(((n, k), c) for k, c in enumerate(row) if c)
    return Series(bound, quotient)


def run_denominator(r, bound):
    """D_r = 1 - sum over e >= 1 of s_e q^e x^e / (1 - x^e), whose reciprocal counts C(n, k, r).

    s_e is +1 for e = 1 (mod r), -1 for e = 0 (mod r) and 0 otherwise.
    """
    cells = {(0, 0): 1}
    for e in range(1, bound + 1):
        sign = 1 if e % r == 1 else -1 if e % r == 0 else 0
        for j in range(1, bound // e + 1):
            if sign:
                cells[e * j, e] = cells.get((e * j, e), 0) - sign
    return Series(bound, cells)


class TestSlotWidth:
    """Packed division must hold every quotient coefficient exactly, sign included."""

    @pytest.mark.parametrize("ratio", [3, -3])
    def test_geometric_worst_case(self, ratio):
        # Coefficients 3^n in absolute value: the bound rho_n, attained exactly.
        bound = 60
        for k_of in (lambda n: 0, lambda n: n):
            divisor = Series(bound, {(0, 0): 1, (1, k_of(1)): -ratio})
            expected = Series(bound, {(n, k_of(n)): ratio ** n for n in range(bound + 1)})
            assert Series.one(bound) / divisor == expected
        # The same row, shifted to q^1 by the numerator.
        numerator = Series.monomial(bound, 1, 0, 1)
        divisor = Series(bound, {(0, 0): 1, (1, 0): -ratio})
        assert numerator / divisor == Series(bound, {(n, 1): ratio ** n for n in range(bound + 1)})

    @pytest.mark.parametrize("scale, sign", [(2, 1), (2, -1), (1, -1)])
    def test_binomial_rows(self, scale, sign):
        # 1/(1 - cx - csxq) = sum of c^n (1 + sq)^n x^n; s = -1 alternates signs within a row.
        bound = 60
        divisor = Series(bound, {(0, 0): 1, (1, 0): -scale, (1, 1): -scale * sign})
        assert Series.one(bound) / divisor == Series(
            bound, {(n, k): scale ** n * math.comb(n, k) * sign ** k
                    for n in range(bound + 1) for k in range(n + 1)})

    def test_huge_numerator_coefficients(self):
        bound = 20
        big = 2 ** 300
        numerator = Series(bound, {(0, 0): big, (1, 3): -big, (4, 0): big - 1, (7, 20): -big})
        for divisor in (Series(bound, {(0, 0): 1, (1, 0): -1, (1, 1): -1}),
                        Series(bound, {(0, 0): -1, (2, 5): 3, (0, 2): 1})):
            quotient = numerator / divisor
            assert quotient * divisor == numerator
            assert quotient == row_list_divide(numerator, divisor)

    def test_terms_without_x_grow_the_row_reciprocal(self):
        bound = 40
        # 1/(1 + 2q): coefficients (-2)^k along q, from q^0 to the bound.
        assert Series.one(bound) / Series(bound, {(0, 0): 1, (0, 1): 2}) == Series(
            bound, {(0, k): (-2) ** k for k in range(bound + 1)})
        for divisor in (Series(bound, {(0, 0): 1, (0, 1): 2, (1, 0): -1, (2, 3): 1}),
                        Series(bound, {(0, 0): -1, (0, 1): 3, (0, 2): -3, (1, 1): 1})):
            numerator = Series(bound, {(0, 0): 1, (3, 1): -5, (10, 38): 7})
            quotient = numerator / divisor
            assert quotient * divisor == numerator
            assert quotient == row_list_divide(numerator, divisor)

    def test_slots_past_the_bound_are_cut(self):
        # Every row reaches past q^bound, with large negative slots beyond it.
        bound = 10
        numerator = Series(bound, {(0, k): -(3 ** k) for k in range(bound + 1)})
        divisor = Series(bound, {(0, 0): 1, (1, 7): 3, (1, 2): -1, (2, 9): -2})
        quotient = numerator / divisor
        assert quotient * divisor == numerator
        assert quotient == row_list_divide(numerator, divisor)
        # Row 1 is -1 + q^4: one slot past the bound over a negative low part.
        numerator = Series(3, {(0, 1): 1, (1, 0): -1})
        assert numerator / Series(3, {(0, 0): 1, (1, 3): -1}) == Series(3, {(0, 1): 1, (1, 0): -1,
                                                                            (2, 3): -1})

    def test_bound_zero(self):
        assert Series(0, {(0, 0): 5}) / Series(0, {(0, 0): -1}) == Series(0, {(0, 0): -5})
        assert Series.one(0) / Series.one(0) == Series.one(0)
        assert Series.zero(0) / Series.one(0) == Series.zero(0)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_quotient_times_divisor_is_numerator(self, data):
        bound = data.draw(st.integers(0, 6))
        p = data.draw(series_st(bound, -10 ** 6, 10 ** 6))
        d = data.draw(unit_series_st(bound, -10 ** 6, 10 ** 6))
        assert (p / d) * d == p

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_run_denominators_match_row_lists(self, r):
        denominator = run_denominator(r, 100)
        quotient = Series.one(100) / denominator
        assert quotient == row_list_divide(Series.one(100), denominator)
        assert quotient == bounded_run_series(r, 100)


class TestInvert:
    def test_inverse_of_one_minus_x_is_geometric(self):
        assert Series(6, {(0, 0): 1, (1, 0): -1}).invert() == Series.geom_x(6)

    def test_inverse_of_one_is_one(self):
        assert Series.one(4).invert() == Series.one(4)

    def test_inverse_with_negative_unit(self):
        d = Series(4, {(0, 0): -1, (1, 1): 1})
        assert d * d.invert() == Series.one(4)

    def test_inverse_of_one_plus_q(self):
        d = Series(4, {(0, 0): 1, (0, 1): 1})
        assert d * d.invert() == Series.one(4)

    def test_non_unit_constant_term_raises(self):
        with pytest.raises(NotInvertibleError):
            Series(4, {(0, 0): 2}).invert()
        with pytest.raises(NotInvertibleError):
            Series(4, {(1, 0): 1}).invert()

    def test_fifty_random_unit_series(self):
        rng = random.Random(8)
        for _ in range(50):
            d = random_series(rng, 8, -3, 3, unit=True)
            f = d.invert()
            assert d * f == Series.one(8)
            assert f * d == Series.one(8)

    @given(unit_series_st())
    @settings(max_examples=60)
    def test_invert_is_involutive(self, d):
        assert d.invert().invert() == d


class TestRingAxioms:
    @given(series_st(), series_st())
    @settings(max_examples=80)
    def test_add_sub_roundtrip(self, a, b):
        assert a + (b - a) == b

    @given(series_st(), series_st(), series_st())
    @settings(max_examples=80)
    def test_associativity_and_commutativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(series_st(), series_st(), series_st())
    @settings(max_examples=80)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestTruncationConsistency:
    def test_operations_commute_with_restriction(self):
        rng = random.Random(106)
        for _ in range(25):
            a = random_series(rng, 10, -4, 4)
            b = random_series(rng, 10, -4, 4)
            assert (a + b).truncate(6) == a.truncate(6) + b.truncate(6)
            assert (a - b).truncate(6) == a.truncate(6) - b.truncate(6)
            assert (a * b).truncate(6) == a.truncate(6) * b.truncate(6)
            u = random_series(rng, 10, -3, 3, unit=True)
            assert u.invert().truncate(6) == u.truncate(6).invert()

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            Series.one(3).truncate(4)


class TestCoefficientAccess:
    def test_absent_cell_is_zero(self):
        assert Series.geom_x(3).coefficient(2, 1) == 0

    def test_beyond_bound_is_unknown(self):
        with pytest.raises(CoefficientRangeError):
            Series.geom_x(3).coefficient(4, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Series.geom_x(3).coefficient(-1, 0)

    def test_terms_are_sorted(self):
        s = Series(3, {(2, 1): 5, (0, 0): 1, (2, 0): -1})
        assert list(s.terms()) == [(0, 0, 1), (2, 0, -1), (2, 1, 5)]


class TestExactness:
    def test_binomial_counts_at_weight_64(self):
        # Inverting 1 - qx/(1-x) counts all compositions; the totals reach
        # 2^63 and must come out exact.
        denom = Series.one(64) - Series.monomial(64, 1, 1, 1) * Series.geom_x(64)
        f = denom.invert()
        assert all(f.coefficient(64, k) == math.comb(63, k - 1) for k in range(1, 65))
        assert sum(f.coefficient(64, k) for k in range(65)) == 2 ** 63


class TestRendering:
    def test_zero_and_constants(self):
        assert str(Series.zero(3)) == "0"
        assert str(Series.one(3)) == "1"
        assert str(Series(3, {(0, 0): -2})) == "-2"

    def test_geometric(self):
        assert str(Series.geom_x(3)) == "1+x+x^2+x^3"

    def test_signs(self):
        assert str(Series(3, {(0, 0): 1, (1, 0): -1})) == "1-x"
        assert str(Series(3, {(2, 1): -1})) == "-qx^2"
        assert str(Series(3, {(3, 1): 1, (3, 2): -2})) == "(q-2q^2)x^3"

    def test_coefficient_suppression(self):
        assert str(Series(5, {(1, 1): 1, (5, 3): 2})) == "qx+2q^3x^5"

    def test_text_by_length(self):
        assert Series(4, {(0, 0): 1, (2, 1): 1}).text_by_length() == "1+x^2q"
        assert Series(4, {(0, 1): 1, (1, 2): 1}).text_by_length() == "q+xq^2"
        assert Series.zero(2).text_by_length() == "0"


class TestSerialization:
    def test_csv(self):
        s = Series(3, {(0, 0): 1, (3, 2): 12})
        assert s.to_csv() == "n,k,coefficient\n0,0,1\n3,2,12\n"

    def test_json_roundtrip_is_byte_identical(self):
        s = Series(4, {(0, 0): 1, (2, 1): -3, (4, 4): 10 ** 30})
        text = s.to_json()
        assert Series.from_json(text) == s
        assert Series.from_json(text).to_json() == text

    def test_json_coefficients_are_strings(self):
        obj = Series(2, {(2, 1): 5}).to_json_obj()
        assert obj == {"max_weight": 2, "terms": [{"n": 2, "k": 1, "c": "5"}]}

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            Series.from_json('{"terms": []}')

    @pytest.mark.parametrize("term", [
        {"n": True, "k": 1, "c": "1"},
        {"n": 1, "k": 1.7, "c": "1"},
        {"n": "1", "k": 1, "c": "1"},
        {"n": 1, "k": 1, "c": 1.9},
        {"n": 1, "k": 1, "c": False},
        {"n": 1, "k": 1, "c": "1.5"},
        {"n": 1, "k": 1, "c": " 7"},
        {"n": 1, "k": 1, "c": "1_000"},
        {"n": 1, "k": 1, "c": None},
    ])
    def test_non_int_exponents_and_coefficients_rejected(self, term):
        with pytest.raises(ValueError, match="malformed series object"):
            Series.from_json_obj({"max_weight": 3, "terms": [term]})

    def test_repeated_cell_rejected(self):
        terms = [{"n": 1, "k": 1, "c": "2"}, {"n": 1, "k": 1, "c": "3"}]
        with pytest.raises(ValueError, match="two terms for"):
            Series.from_json_obj({"max_weight": 3, "terms": terms})

    def test_int_and_decimal_string_coefficients_accepted(self):
        obj = {"max_weight": 3, "terms": [{"n": 1, "k": 1, "c": -2},
                                          {"n": 2, "k": 0, "c": "-12"},
                                          {"n": 3, "k": 1, "c": str(10 ** 40)}]}
        assert Series.from_json_obj(obj) == Series(3, {(1, 1): -2, (2, 0): -12, (3, 1): 10 ** 40})


class TestImmutability:
    def test_operations_do_not_mutate_operands(self):
        a = Series(4, {(1, 1): 2})
        b = Series(4, {(1, 1): 3, (2, 0): 1})
        before_a, before_b = dict(a.coeffs), dict(b.coeffs)
        a + b, a - b, a * b  # noqa: B018 - evaluate for effect
        assert dict(a.coeffs) == before_a
        assert dict(b.coeffs) == before_b

    def test_coeffs_are_read_only(self):
        s = carlitz_series(5)
        with pytest.raises(TypeError):
            s.coeffs[5, 1] = 999
        assert carlitz_series(5).coefficient(5, 1) == 1

    def test_pickle_and_deepcopy_roundtrip(self):
        s = carlitz_series(6)
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert copied == s
            with pytest.raises(TypeError):
                copied.coeffs[6, 1] = 999
        for value in value_examples():  # one instance of each value class
            for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                           copy.copy(value)):
                assert type(copied) is type(value)
                assert copied == value
