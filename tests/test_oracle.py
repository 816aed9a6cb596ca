"""The automaton oracle: totals, filters, validation and the safety cap,
checked against whole compositions listed from their cut sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import runcomp.oracle
from runcomp import (
    CompositionFilter,
    EnumerationCapError,
    Word,
    make_forbidden_list,
    oracle_count,
    count_by_parts,
    parse_word_list,
)
from conftest import enumerate_compositions, max_run_length, reference_compositions


def contains_factor(parts, letters):
    m = len(letters)
    return any(parts[i:i + m] == letters for i in range(len(parts) - m + 1))


def reference_tally(n, accepts):
    tally = {}
    for parts in reference_compositions(n):
        if accepts(parts):
            tally[len(parts)] = tally.get(len(parts), 0) + 1
    return tally


# Easy lists, cross-correlated lists, a one-letter word, a word whose
# letters exceed every n checked, and a word longer than every n checked.
REFERENCE_LISTS = [
    "1 1", "2 1 2", "1 1;2 2;3 3", "1 1 2;3",
    "1 2;2 1", "1 2;2 3", "1 2;2 1;1 1 1", "1 2 1;2 1 2",
    "2", "1;2 2", "13 1;2 2 2", "1 " * 13,
]


class TestEnumeration:
    def test_weight_three_listing(self):
        assert list(enumerate_compositions(3)) == [
            Word((1, 1, 1)), Word((1, 2)), Word((2, 1)), Word((3,)),
        ]

    def test_totals_are_powers_of_two(self):
        for n in range(1, 11):
            assert oracle_count(n) == 2 ** (n - 1)

    @given(st.integers(1, 10))
    @settings(max_examples=30)
    def test_each_composition_sums_to_n(self, n):
        assert all(w.weight == n for w in enumerate_compositions(n))

    def test_order_is_deterministic(self):
        assert list(enumerate_compositions(6)) == list(enumerate_compositions(6))

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            enumerate_compositions(0)
        with pytest.raises(ValueError):
            oracle_count(0)


class TestMaxRunLength:
    def test_examples(self):
        assert max_run_length(()) == 0
        assert max_run_length((5,)) == 1
        assert max_run_length((2, 4, 4, 4, 2, 2, 5)) == 3
        assert max_run_length((1, 1, 1, 1)) == 4


class TestFilters:
    def test_golden_counts(self):
        assert oracle_count(5, 2, CompositionFilter.max_run_below(2)) == 4
        assert oracle_count(4, 3, CompositionFilter.max_run_below(3)) == 3

    def test_avoid_factors(self):
        forbidden = make_forbidden_list([Word((1, 1))])
        # Compositions of 3 without the factor 1,1: 3 itself, 1+2, 2+1.
        assert oracle_count(3, None, CompositionFilter.avoid_factors(forbidden)) == 3

    def test_two_carlitz_characterizations_agree(self):
        # Avoiding every double letter is the same as capping runs at 1.
        doubles = make_forbidden_list([Word((j, j)) for j in range(1, 8)])
        avoid = CompositionFilter.avoid_factors(doubles)
        runs = CompositionFilter.max_run_below(2)
        for n in range(1, 15):
            assert count_by_parts(n, avoid) == count_by_parts(n, runs)

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            CompositionFilter.max_run_below(0)
        with pytest.raises(ValueError):
            CompositionFilter(
                forbidden=make_forbidden_list([Word((1, 1))]), run_bound=2)

    def test_count_by_parts_sums_to_total(self):
        tally = count_by_parts(9)
        assert sum(tally.values()) == 2 ** 8


class TestAgainstCutSets:
    """The automaton count against whole compositions built from cut sets."""

    def check(self, n, filt, accepts):
        expected = reference_tally(n, accepts)
        assert count_by_parts(n, filt) == expected
        for k in range(n + 2):
            assert oracle_count(n, k, filt) == expected.get(k, 0)
        assert oracle_count(n, None, filt) == sum(expected.values())

    def test_listing_is_lexicographic(self):
        for n in range(1, 11):
            assert [w.letters for w in enumerate_compositions(n)] == reference_compositions(n)

    def test_run_bounds(self):
        for r in range(1, 8):
            for n in range(1, 13):
                self.check(n, CompositionFilter.max_run_below(r),
                           lambda parts: max_run_length(parts) < r)

    def test_forbidden_lists(self):
        for spec in REFERENCE_LISTS:
            forbidden = make_forbidden_list(parse_word_list(spec))
            words = [w.letters for w in forbidden]
            for n in range(1, 13):
                self.check(n, CompositionFilter.avoid_factors(forbidden),
                           lambda parts: not any(contains_factor(parts, w) for w in words))

    @given(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
                    min_size=1, max_size=4),
           st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_random_lists(self, words, n):
        # Dropping repeats and every word that contains another listed word
        # leaves the same compositions; the reference scans for every drawn word.
        unique = list(dict.fromkeys(words))
        kept = [w for w in unique if not any(v != w and contains_factor(w, v) for v in unique)]
        forbidden = make_forbidden_list([Word(w) for w in kept])
        self.check(n, CompositionFilter.avoid_factors(forbidden),
                   lambda parts: not any(contains_factor(parts, w) for w in words))

    def test_no_filter(self):
        for n in range(1, 13):
            self.check(n, CompositionFilter.all(), lambda parts: True)
            assert count_by_parts(n) == count_by_parts(n, CompositionFilter.all())


class TestValidation:
    def test_parts_must_be_a_nonnegative_int(self):
        for k in (-1, 1.5, True, "2"):
            with pytest.raises(ValueError, match="number of parts"):
                oracle_count(5, k)
        assert oracle_count(5, 0) == 0

    def test_weight_must_be_an_int(self):
        for n in (5.0, True, "5"):
            with pytest.raises(ValueError, match="weight"):
                oracle_count(n)
            with pytest.raises(ValueError, match="weight"):
                count_by_parts(n)

    def test_run_bound_must_be_an_int(self):
        for r in (True, False, 2.0, 0):
            with pytest.raises(ValueError, match="run bound"):
                CompositionFilter.max_run_below(r)


def _refuse(*args, **kwargs):
    raise AssertionError("one public oracle counter called the other")


class TestOneSpanPerCall:
    # A traced oracle_count must record one oracle.count span, so neither
    # public counter may reach the other through the module's names.
    def test_oracle_count_does_not_call_count_by_parts(self, monkeypatch):
        monkeypatch.setattr(runcomp.oracle, "count_by_parts", _refuse)
        assert oracle_count(6, 2, CompositionFilter.max_run_below(2)) == 4

    def test_count_by_parts_does_not_call_oracle_count(self, monkeypatch):
        monkeypatch.setattr(runcomp.oracle, "oracle_count", _refuse)
        assert count_by_parts(4) == {1: 1, 2: 3, 3: 3, 4: 1}


class TestEnumerationCap:
    def test_cap_refusal_and_override(self, monkeypatch):
        monkeypatch.setattr(runcomp.oracle, "ENUMERATION_CAP", 6)
        with pytest.raises(EnumerationCapError, match="force"):
            oracle_count(7)
        with pytest.raises(EnumerationCapError):
            count_by_parts(7)
        assert oracle_count(7, force=True) == 64
        assert oracle_count(6) == 32
