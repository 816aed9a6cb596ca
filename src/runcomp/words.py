"""Words over integer letters: correlations and forbidden-factor lists.

A composition is treated as a word whose letters are its parts.  The
correlation of one word on another records, for every right-aligned left
shift, whether the overlapping blocks agree; correlation polynomials turn
those bits into series and are the combinatorial core of factor-avoidance
counting.

Letters are allowed to be zero here so that correlations of arbitrary
integer words can be computed; forbidden lists and all counting operations
require strictly positive letters, since composition parts are >= 1.
"""

import re
from functools import total_ordering
from typing import Iterable, Iterator, Sequence

from ._value import Value
from .errors import InvalidWordError, ReducednessError
from .series import Series

__all__ = [
    "Word",
    "CorrelationVector",
    "ForbiddenList",
    "correlation_vector",
    "correlation_polynomial",
    "is_factor",
    "is_reduced",
    "make_forbidden_list",
    "parse_word_list",
]


@total_ordering
class Word(Value):
    """A nonempty sequence of integer letters, ordered by its letters.

    ``weight`` is the sum of the letters and ``length`` their number; for a
    composition these are the integer being composed and its number of
    parts.
    """

    __slots__ = ("letters",)
    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int]) -> None:
        letters = tuple(letters)
        if not letters:
            raise InvalidWordError("a word must have at least one letter")
        for a in letters:
            if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                raise InvalidWordError(f"letters must be nonnegative integers, got {a!r}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a space-separated word such as "1 1 2".

        Each letter is a run of ASCII digits: no sign, no underscore and no
        other script's digits, although ``int()`` would accept all three.
        """
        pieces = text.split()
        for piece in pieces:
            if not re.fullmatch(r"[0-9]+", piece):
                raise InvalidWordError(
                    f"cannot parse word {text!r}: letter {piece!r} is not a run of digits 0-9")
        return cls(tuple(int(piece) for piece in pieces))

    @property
    def weight(self) -> int:
        return sum(self.letters)

    @property
    def length(self) -> int:
        return len(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def __lt__(self, other: "Word") -> bool:
        return self.letters < other.letters if type(other) is Word else NotImplemented

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.letters)


class CorrelationVector(Value):
    """Bit j says whether the words agree when the second is shifted j places left."""

    __slots__ = ("bits",)
    bits: tuple[int, ...]

    def __init__(self, bits: Iterable[int]) -> None:
        bits = tuple(bits)
        if not bits or any(b not in (0, 1) for b in bits):
            raise ValueError(f"correlation bits must be a nonempty 0/1 sequence, got {bits!r}")
        object.__setattr__(self, "bits", bits)

    def is_zero(self) -> bool:
        return not any(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def correlation_vector(x: Word, y: Word) -> CorrelationVector:
    """Correlation of ``x`` on ``y``; the vector has one bit per letter of ``x``.

    Align the words at their right ends and slide ``y`` left by j places.
    With t = len(x) - j letters of x remaining above y: if t <= len(y) the
    bit compares the length-t prefix of x against the length-t suffix of y;
    otherwise y sits strictly inside x and must match the block of x it
    covers.
    """
    xl, yl = x.letters, y.letters
    m, my = len(xl), len(yl)
    bits = []
    for j in range(m):
        t = m - j
        if t <= my:
            bits.append(1 if xl[:t] == yl[my - t:] else 0)
        else:
            bits.append(1 if yl == xl[t - my:t] else 0)
    return CorrelationVector(tuple(bits))


def correlation_polynomial(x: Word, y: Word, max_weight: int) -> Series:
    """Series with a term x^(weight of the last j letters of x) * q^j per set bit j."""
    bits = correlation_vector(x, y).bits
    terms: dict[tuple[int, int], int] = {}
    suffix_weight = 0
    for j, bit in enumerate(bits):
        if bit:
            terms[suffix_weight, j] = 1
        suffix_weight += x.letters[len(x.letters) - 1 - j]
    return Series(max_weight, terms)


def is_factor(u: Word, v: Word) -> bool:
    """True when the letters of ``u`` occur contiguously inside ``v``."""
    ul, vl = u.letters, v.letters
    m = len(ul)
    return any(vl[i:i + m] == ul for i in range(len(vl) - m + 1))


def is_reduced(words: Sequence[Word]) -> bool:
    """No word of the list occurs as a factor of a different entry.

    A word is a factor of itself, so a duplicated entry makes the list
    non-reduced.
    """
    return _factor_pair(words) is None


def _factor_pair(words: Sequence[Word]) -> tuple[Word, Word] | None:
    """First (u, v) of distinct entries with u a factor of v, or None."""
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i != j and is_factor(u, v):
                return u, v
    return None


class ForbiddenList(Value):
    """A validated reduced list of forbidden factors.

    ``easy_case`` is true when every pair of distinct entries has an
    all-zero correlation vector, which makes the avoidance system sparse;
    ``avoid --method easy`` accepts only such lists.  Build instances through
    :func:`make_forbidden_list`, which establishes both invariants.
    """

    __slots__ = ("words", "easy_case")
    words: tuple[Word, ...]
    easy_case: bool

    def __init__(self, words: tuple[Word, ...], easy_case: bool) -> None:
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "easy_case", easy_case)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __str__(self) -> str:
        return ";".join(str(w) for w in self.words)


def make_forbidden_list(words: Iterable[Word]) -> ForbiddenList:
    """Validate reducedness and positivity, then classify the list."""
    ws = tuple(words)
    if not ws:
        raise InvalidWordError("a forbidden list must contain at least one word")
    for w in ws:
        if any(a < 1 for a in w.letters):
            raise InvalidWordError(f"forbidden word '{w}' must use letters >= 1")
    pair = _factor_pair(ws)
    if pair is not None:
        raise ReducednessError(f"list is not reduced: '{pair[0]}' is a factor of '{pair[1]}'")
    easy = all(correlation_vector(u, v).is_zero()
               for i, u in enumerate(ws) for j, v in enumerate(ws) if i != j)
    return ForbiddenList(ws, easy)


def parse_word_list(text: str) -> list[Word]:
    """Parse a ";"-separated list of words such as "1 1;2 2;3 3"."""
    pieces = text.split(";")
    if not any(piece.strip() for piece in pieces):
        raise InvalidWordError(f"cannot parse word list {text!r}: no words found")
    for position, piece in enumerate(pieces, 1):
        if not piece.strip():
            raise InvalidWordError(
                f"cannot parse word list {text!r}: word {position} of {len(pieces)} "
                f"({piece!r}) is empty")
    return [Word.parse(piece) for piece in pieces]
