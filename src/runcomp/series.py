"""Exact truncated bivariate power series.

The coefficient ring behind every counting routine in this package:
``x`` tracks the total weight of a composition (the integer being composed)
and ``q`` tracks its number of parts.  A :class:`Series` keeps every
coefficient whose two exponents are at most ``max_weight``; all operations
discard higher-order terms, so a value computed at bound N is exact for
every retained exponent.  Coefficients are plain Python ints, which gives
arbitrary precision for free: counts are never rounded and never overflow.

Counting series always live in the triangle k <= n (a composition of n has
at most n parts), so truncating the q-exponent at ``max_weight`` as well
never touches them; it only bounds the scratch space of intermediate
values.  With both variables nilpotent, any series whose constant term is
+1 or -1 is invertible over the integers, and dividing by it is exact.
Division costs the quotient's reachable cells times the divisor's terms:
O(N^2 * terms) for a series that fills the triangle, O(N * terms) for one
whose cells all sit at k = 0 (the q = 1 specialization).
"""

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import BoundMismatchError, CoefficientRangeError, NotInvertibleError

__all__ = ["Series"]

Cell = tuple[int, int]


@dataclass(frozen=True)
class Series:
    """A polynomial in x and q with integer coefficients, truncated at ``max_weight``.

    Instances are immutable value objects: operations return new series and
    equality is structural.  Zero coefficients are never stored, so two
    series are equal iff they have the same bound and the same terms.
    ``coeffs`` is a read-only view; the operations read the dict behind it.
    """

    max_weight: int
    coeffs: Mapping[Cell, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not _is_int(self.max_weight) or self.max_weight < 0:
            raise ValueError(f"max_weight must be a nonnegative integer, got {self.max_weight!r}")
        clean: dict[Cell, int] = {}
        for (n, k), c in self.coeffs.items():
            if n < 0 or k < 0:
                raise ValueError(f"negative exponent in term x^{n} q^{k}")
            if not _is_int(c):
                raise TypeError(f"coefficient of x^{n} q^{k} must be an int, got {c!r}")
            if c and n <= self.max_weight and k <= self.max_weight:
                clean[n, k] = c
        self._freeze(clean)

    def _freeze(self, cells: dict[Cell, int]) -> None:
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "coeffs", MappingProxyType(cells))

    def __reduce__(self):
        # The read-only view cannot be pickled; rebuild from a plain dict.
        return (Series, (self.max_weight, dict(self._cells)))

    @classmethod
    def _of(cls, max_weight: int, cells: dict[Cell, int]) -> "Series":
        """Wrap cells an operation produced: int coefficients inside the bound, zeros allowed."""
        series = object.__new__(cls)
        object.__setattr__(series, "max_weight", max_weight)
        series._freeze({cell: c for cell, c in cells.items() if c})
        return series

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, max_weight: int) -> "Series":
        return cls(max_weight, {})

    @classmethod
    def one(cls, max_weight: int) -> "Series":
        return cls(max_weight, {(0, 0): 1})

    @classmethod
    def monomial(cls, max_weight: int, coefficient: int = 1, weight: int = 0, length: int = 0) -> "Series":
        """coefficient * x^weight * q^length, silently zero when out of range."""
        return cls(max_weight, {(weight, length): coefficient})

    @classmethod
    def geom_x(cls, max_weight: int) -> "Series":
        """1 + x + x^2 + ... + x^max_weight, the truncation of 1/(1-x)."""
        return cls(max_weight, {(n, 0): 1 for n in range(max_weight + 1)})

    # -- ring operations ----------------------------------------------

    def _require_same_bound(self, other: "Series") -> None:
        if self.max_weight != other.max_weight:
            raise BoundMismatchError(
                f"series truncation bounds differ: {self.max_weight} != {other.max_weight}")

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_bound(other)
        total = dict(self._cells)
        for cell, c in other._cells.items():
            total[cell] = total.get(cell, 0) + c
        return Series._of(self.max_weight, total)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_bound(other)
        total = dict(self._cells)
        for cell, c in other._cells.items():
            total[cell] = total.get(cell, 0) - c
        return Series._of(self.max_weight, total)

    def __neg__(self) -> "Series":
        return Series._of(self.max_weight, {cell: -c for cell, c in self._cells.items()})

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_bound(other)
        bound = self.max_weight
        total: dict[Cell, int] = {}
        for (n1, k1), c1 in self._cells.items():
            for (n2, k2), c2 in other._cells.items():
                n, k = n1 + n2, k1 + k2
                if n <= bound and k <= bound:
                    cell = (n, k)
                    total[cell] = total.get(cell, 0) + c1 * c2
        return Series._of(bound, total)

    def __truediv__(self, other: "Series") -> "Series":
        """Exact quotient; requires the divisor's constant term to be +1 or -1.

        With c0 the divisor's constant term (so 1/c0 = c0), the quotient's
        row of weight n is c0 * (numerator row - sum of c * x^a q^b times the
        quotient row of weight n - a) over the divisor's other terms.  Rows
        with a > 0 are already final; terms with a = 0 recur along the row.
        Each row is a list only as long as the q-extent it can reach: that of
        the numerator row, or b plus the length of row n - a for some term.
        Terms with a = 0 reach the whole bound.  The cost is the number of
        reachable cells times the divisor's terms, so a series whose cells
        all sit at k = 0 divides in O(N * terms).
        """
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_bound(other)
        c0 = other._cells.get((0, 0), 0)
        if c0 not in (1, -1):
            raise NotInvertibleError(
                f"series with constant term {c0} has no inverse over the integers")
        width = self.max_weight + 1
        numerator: dict[int, dict[int, int]] = {}
        for (n, k), c in self._cells.items():
            numerator.setdefault(n, {})[k] = c0 * c
        shifts = sorted((a, b, c0 * c) for (a, b), c in other._cells.items() if (a, b) != (0, 0))
        along = [(b, c) for a, b, c in shifts if a == 0]
        down = [(a, b, c) for a, b, c in shifts if a > 0]
        rows: list[list[int]] = []
        quotient: dict[Cell, int] = {}
        for n in range(width):
            cells = numerator.get(n, {})
            row = [0] * (max(cells) + 1) if cells else []
            for k, c in cells.items():
                row[k] = c
            for a, b, c in down:
                if a > n:
                    break
                source = rows[n - a]
                if len(source) == 1:  # one cell: no list to build
                    if b < len(row):
                        row[b] -= c * source[0]
                    else:
                        row.extend([0] * (b - len(row)))
                        row.append(-c * source[0])
                elif source:
                    end = b + len(source)
                    if end > len(row):
                        row.extend([0] * (min(end, width) - len(row)))
                    row[b:end] = [x - c * y for x, y in zip(row[b:end], source)]
            if along and row:
                row.extend([0] * (width - len(row)))
                for k in range(width):
                    value = row[k]
                    for b, c in along:
                        if b > k:
                            break
                        value -= c * row[k - b]
                    row[k] = value
            rows.append(row)
            quotient.update(((n, k), c) for k, c in enumerate(row) if c)
        return Series._of(self.max_weight, quotient)

    def invert(self) -> "Series":
        """Multiplicative inverse; requires the constant term to be +1 or -1."""
        return Series.one(self.max_weight) / self

    def truncate(self, max_weight: int) -> "Series":
        """Restrict to exponents <= max_weight; the bound can only shrink."""
        if max_weight > self.max_weight:
            raise ValueError(
                f"cannot extend truncation bound from {self.max_weight} to {max_weight}")
        return Series._of(max_weight, {(n, k): c for (n, k), c in self._cells.items()
                                       if n <= max_weight and k <= max_weight})

    # -- access --------------------------------------------------------

    def coefficient(self, weight: int, length: int) -> int:
        """Coefficient of x^weight q^length; absent cells are zero."""
        if weight < 0 or length < 0:
            raise ValueError(f"exponents must be nonnegative, got ({weight}, {length})")
        if weight > self.max_weight:
            raise CoefficientRangeError(
                f"weight {weight} exceeds the truncation bound {self.max_weight}; "
                "the coefficient is unknown, not zero")
        return self._cells.get((weight, length), 0)

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield (weight, length, coefficient) sorted by weight, then length."""
        cells = self._cells
        for cell in sorted(cells):
            yield cell[0], cell[1], cells[cell]

    def is_zero(self) -> bool:
        return not self._cells

    # -- rendering and serialization ------------------------------------

    def __str__(self) -> str:
        """Ascending in x, each coefficient a polynomial in q: "1+qx+(q+2q^2)x^3"."""
        if not self._cells:
            return "0"
        pieces = [_x_piece(n, [_q_term(k, c) for _, k, c in row])
                  for n, row in groupby(self.terms(), key=itemgetter(0))]
        return _join_signed(pieces)

    def text_by_length(self) -> str:
        """Ascending in q with x written first: "1+x^2q" (correlation-polynomial style)."""
        if not self._cells:
            return "0"
        pieces = []
        for k, n, c in sorted((k, n, c) for (n, k), c in self._cells.items()):
            body = _power("x", n) + _power("q", k)
            if not body:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(body)
            elif c == -1:
                pieces.append("-" + body)
            else:
                pieces.append(f"{c}{body}")
        return _join_signed(pieces)

    def __repr__(self) -> str:
        return f"Series({self.max_weight}, {str(self)!r})"

    def to_csv(self) -> str:
        """Rows (n, k, coefficient) with coefficients as decimal strings."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "coefficient"])
        for n, k, c in self.terms():
            writer.writerow([n, k, str(c)])
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        return {
            "max_weight": self.max_weight,
            "terms": [{"n": n, "k": k, "c": str(c)} for n, k, c in self.terms()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Series":
        try:
            max_weight = obj["max_weight"]
            terms = {(int(t["n"]), int(t["k"])): int(t["c"]) for t in obj["terms"]}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed series object: {exc}") from exc
        return cls(max_weight, terms)

    @classmethod
    def from_json(cls, text: str) -> "Series":
        return cls.from_json_obj(json.loads(text))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _power(symbol: str, exponent: int) -> str:
    if exponent == 0:
        return ""
    if exponent == 1:
        return symbol
    return f"{symbol}^{exponent}"


def _q_term(k: int, c: int) -> str:
    body = _power("q", k)
    if not body:
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return f"{c}{body}"


def _x_piece(n: int, q_terms: list[str]) -> str:
    xs = _power("x", n)
    if len(q_terms) == 1:
        inner = q_terms[0]
        if not xs:
            return inner
        if inner == "1":
            return xs
        if inner == "-1":
            return "-" + xs
        return inner + xs
    inner = _join_signed(q_terms)
    return f"({inner}){xs}" if xs else inner


def _join_signed(pieces: list[str]) -> str:
    out = pieces[0]
    for piece in pieces[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out
