"""Value objects: immutability, field-wise equality and hashing, Word ordering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import value_examples
from runcomp import (
    AvoidanceSystem,
    CompositionFilter,
    CorrelationVector,
    ForbiddenList,
    RunDistribution,
    Series,
    Word,
)

# Public fields of each class, in the order its constructor takes them.
FIELDS = {
    Series: ("max_weight", "coeffs"),
    Word: ("letters",),
    CorrelationVector: ("bits",),
    ForbiddenList: ("words", "easy_case"),
    AvoidanceSystem: ("forbidden", "matrix", "rhs", "max_weight"),
    CompositionFilter: ("forbidden", "run_bound"),
    RunDistribution: ("n", "counts", "total", "mean"),
}
UNHASHABLE = (Series, AvoidanceSystem, RunDistribution)  # a field holds a dict, or a Series

EXAMPLES = value_examples()
IDS = [type(value).__name__ for value in EXAMPLES]


def field_values(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def test_every_value_class_has_an_example():
    assert {type(value) for value in EXAMPLES} == set(FIELDS)


@pytest.mark.parametrize("value", EXAMPLES, ids=IDS)
def test_assignment_and_deletion_raise(value):
    twin = type(value)(*field_values(value))
    for name in (*FIELDS[type(value)], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin


@pytest.mark.parametrize("value", EXAMPLES, ids=IDS)
def test_equality_is_field_wise_within_one_class(value):
    twin = type(value)(*field_values(value))
    assert twin is not value
    assert twin == value
    assert not twin != value
    assert value != field_values(value)
    assert value != object()


def test_equal_fields_in_different_classes_are_unequal():
    assert Word((1, 0)) != CorrelationVector((1, 0))


def test_a_changed_field_breaks_equality():
    assert Series(3, {(1, 1): 2}) != Series(4, {(1, 1): 2})
    assert Series(3, {(1, 1): 2}) != Series(3, {(1, 1): 3})
    assert Word((1, 2)) != Word((2, 1))
    assert CompositionFilter.max_run_below(2) != CompositionFilter.max_run_below(3)
    assert CompositionFilter.max_run_below(2) != CompositionFilter.all()


@pytest.mark.parametrize("value", EXAMPLES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(value):
    twin = type(value)(*field_values(value))
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(field_values(value))


def test_field_wise_repr():
    assert repr(Word((1, 2))) == "Word(letters=(1, 2))"
    assert repr(CompositionFilter.max_run_below(2)) == \
        "CompositionFilter(forbidden=None, run_bound=2)"
    assert repr(Series(2, {(1, 1): 1, (0, 0): 1})) == "Series(2, '1+qx')"


letters = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)


@given(letters, letters)
def test_word_order_is_the_order_of_letters(a, b):
    u, v = Word(a), Word(b)
    assert (u < v, u <= v, u > v, u >= v, u == v) == (a < b, a <= b, a > b, a >= b, a == b)


@given(st.lists(letters, max_size=6))
def test_sorting_words_sorts_their_letters(tuples):
    assert [w.letters for w in sorted(Word(t) for t in tuples)] == sorted(tuples)


def test_words_do_not_order_against_other_types():
    with pytest.raises(TypeError):
        Word((1,)) < (1,)  # noqa: B015
    with pytest.raises(TypeError):
        Word((1,)) <= CorrelationVector((1,))  # noqa: B015
