"""Words, correlation vectors and polynomials, forbidden-list validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runcomp import (
    InvalidWordError,
    ReducednessError,
    Series,
    Word,
    correlation_polynomial,
    correlation_vector,
    is_factor,
    is_reduced,
    make_forbidden_list,
    parse_word_list,
)

words_st = st.lists(st.integers(0, 4), min_size=1, max_size=5).map(lambda ls: Word(tuple(ls)))
positive_words_st = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(lambda ls: Word(tuple(ls)))


class TestWord:
    def test_empty_rejected(self):
        with pytest.raises(InvalidWordError):
            Word(())

    def test_negative_letter_rejected(self):
        with pytest.raises(InvalidWordError):
            Word((1, -2))

    def test_bool_letter_rejected(self):
        # True would otherwise render as "True" and compare equal to 1.
        for letters in ((True, 2), (1, False)):
            with pytest.raises(InvalidWordError):
                Word(letters)

    def test_weight_and_length(self):
        w = Word((1, 1, 2))
        assert w.weight == 4
        assert w.length == 3
        assert len(w) == 3

    def test_parse_and_render(self):
        assert Word.parse("1 1 2") == Word((1, 1, 2))
        assert str(Word((1, 1, 2))) == "1 1 2"

    def test_parse_garbage_rejected(self):
        with pytest.raises(InvalidWordError):
            Word.parse("1 one 2")

    def test_parse_accepts_only_ascii_digits(self):
        # int() reads each of these letters as a number: "1_0" as 10, "+1"
        # as 1, the Arabic-Indic "\u0661" as 1 and the fullwidth "\uff12" as 2.
        for text in ("1_0", "+1 \u0661", "1 -2", "\u0661", "1 \uff12"):
            with pytest.raises(InvalidWordError, match="not a run of digits"):
                Word.parse(text)
        assert Word.parse(" 0 07 12 ") == Word((0, 7, 12))

    @given(words_st, words_st)
    @settings(max_examples=50)
    def test_weight_and_length_additive_under_concatenation(self, u, v):
        both = u + v
        assert both.weight == u.weight + v.weight
        assert both.length == u.length + v.length


class TestCorrelationVector:
    def test_worked_binary_example(self):
        assert str(correlation_vector(Word((1, 1, 0)), Word((1, 0, 1, 1)))) == "011"
        assert str(correlation_vector(Word((1, 0, 1, 1)), Word((1, 1, 0)))) == "0010"

    @given(words_st)
    @settings(max_examples=50)
    def test_autocorrelation_starts_with_one(self, w):
        assert correlation_vector(w, w).bits[0] == 1

    @given(words_st, words_st)
    @settings(max_examples=50)
    def test_vector_length_is_first_word_length(self, x, y):
        assert len(correlation_vector(x, y)) == len(x)

    @pytest.mark.parametrize("letter,reps", [(1, 1), (1, 4), (3, 2), (2, 5)])
    def test_constant_word_is_all_ones(self, letter, reps):
        w = Word((letter,) * reps)
        assert correlation_vector(w, w).bits == (1,) * reps

    def test_interior_factor_shift(self):
        # y = (2,1) sits strictly inside x = (1,2,1,3) at shift 1.
        assert str(correlation_vector(Word((1, 2, 1, 3)), Word((2, 1)))) == "0101"

    @given(positive_words_st, positive_words_st)
    @settings(max_examples=60)
    def test_reduced_pair_has_no_interior_match(self, x, y):
        # For a reduced pair, y can never occur strictly inside x, so bits
        # at shifts where x still fully covers y must be zero.
        if x == y or not is_reduced([x, y]):
            return
        bits = correlation_vector(x, y).bits
        for j in range(len(x)):
            if len(x) - j > len(y):
                assert bits[j] == 0


class TestCorrelationPolynomial:
    def test_double_letter_autocorrelation(self):
        assert correlation_polynomial(Word((2, 2)), Word((2, 2)), 8) == \
            Series(8, {(0, 0): 1, (2, 1): 1})  # 1 + x^2 q

    def test_constant_word_autocorrelation(self):
        assert correlation_polynomial(Word((1, 1, 1)), Word((1, 1, 1)), 6) == \
            Series(6, {(0, 0): 1, (1, 1): 1, (2, 2): 1})  # 1 + xq + x^2q^2

    def test_cross_correlation_single_overlap(self):
        # Shift procedure by hand: (2,1) on (1,2) has vector 01, and the
        # length-1 suffix of (2,1) weighs 1, giving exactly x q.
        assert correlation_polynomial(Word((2, 1)), Word((1, 2)), 5) == Series(5, {(1, 1): 1})

    def test_truncation_drops_heavy_suffixes(self):
        assert correlation_polynomial(Word((3, 3)), Word((3, 3)), 2) == Series.one(2)

    @pytest.mark.parametrize("letter,reps", [(1, 3), (2, 2), (2, 4), (3, 3)])
    def test_constant_word_closed_form(self, letter, reps):
        # The autocorrelation of a constant word is a geometric block:
        # multiplying by 1 - q x^letter telescopes it.
        bound = 12
        auto = correlation_polynomial(Word((letter,) * reps), Word((letter,) * reps), bound)
        block = Series(bound, {(0, 0): 1, (letter, 1): -1})
        expected = Series(bound, {(0, 0): 1, (letter * reps, reps): -1})
        assert auto * block == expected


class TestReducedness:
    def test_disjoint_letters(self):
        assert is_reduced([Word((1, 1)), Word((2, 2))])

    def test_factor_detected(self):
        assert not is_reduced([Word((1, 1)), Word((1, 1, 2))])

    def test_overlapping_but_not_contained(self):
        assert is_reduced([Word((1, 2)), Word((2, 1))])

    def test_duplicates_are_not_reduced(self):
        assert not is_reduced([Word((1, 1)), Word((1, 1))])

    def test_is_factor(self):
        assert is_factor(Word((1, 1)), Word((2, 1, 1)))
        assert is_factor(Word((1,)), Word((1,)))
        assert not is_factor(Word((1, 2)), Word((2, 1)))


class TestForbiddenList:
    def test_easy_case_true(self):
        lst = make_forbidden_list([Word((1, 1)), Word((2, 2)), Word((3, 3))])
        assert lst.easy_case

    def test_easy_case_false(self):
        lst = make_forbidden_list([Word((1, 2)), Word((2, 1))])
        assert not lst.easy_case

    def test_single_word_is_easy(self):
        assert make_forbidden_list([Word((1, 2, 1))]).easy_case

    def test_duplicate_rejected_with_pair_named(self):
        with pytest.raises(ReducednessError, match="'1 1' is a factor of '1 1'"):
            make_forbidden_list([Word((1, 1)), Word((1, 1))])

    def test_factor_rejected_with_pair_named(self):
        with pytest.raises(ReducednessError, match="'1 1' is a factor of '1 1 2'"):
            make_forbidden_list([Word((1, 1)), Word((1, 1, 2))])

    def test_zero_letter_rejected(self):
        with pytest.raises(InvalidWordError):
            make_forbidden_list([Word((1, 0))])

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidWordError):
            make_forbidden_list([])

    def test_render(self):
        lst = make_forbidden_list([Word((1, 1)), Word((2, 2))])
        assert str(lst) == "1 1;2 2"


class TestParsing:
    def test_word_list(self):
        assert parse_word_list("1 1;2 2;3 3") == [Word((1, 1)), Word((2, 2)), Word((3, 3))]

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidWordError):
            parse_word_list("  ")

    def test_blank_segment_rejected(self):
        with pytest.raises(InvalidWordError, match=r"word 2 of 3 \(''\) is empty"):
            parse_word_list("1 1;;2 2")
        with pytest.raises(InvalidWordError, match=r"word 2 of 2 \(' '\) is empty"):
            parse_word_list("1 1; ")
