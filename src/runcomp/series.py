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
Division works on packed rows: the quotient's polynomial in q at each power
of x is one Python int with a fixed-width slot per q-coefficient (Kronecker
substitution), wide enough by a proven bound.  Each divisor term then costs
one big-int shift and subtraction per row, done in C: O(N * terms) big-int
operations on ints of at most (N+1)*W bits, plus decoding each quotient
cell once.  When every cell sits at k = 0 (the q = 1 specialization) the
rows are the coefficients themselves.
"""

import re
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping

from ._value import Value
from .errors import BoundMismatchError, CoefficientRangeError, NotInvertibleError

__all__ = ["Series"]

Cell = tuple[int, int]


class Series(Value):
    """A polynomial in x and q with integer coefficients, truncated at ``max_weight``.

    Instances are immutable value objects: operations return new series and
    equality is structural.  Zero coefficients are never stored, so two
    series are equal iff they have the same bound and the same terms.
    ``coeffs`` is a read-only view; the operations read the dict behind it.
    A series is unhashable, since its terms are a dict.
    """

    __slots__ = ("max_weight", "_cells")
    max_weight: int
    _cells: dict[Cell, int]

    def __init__(self, max_weight: int, coeffs: Mapping[Cell, int] = MappingProxyType({})) -> None:
        if not _is_int(max_weight) or max_weight < 0:
            raise ValueError(f"max_weight must be a nonnegative integer, got {max_weight!r}")
        clean: dict[Cell, int] = {}
        for (n, k), c in coeffs.items():
            if n < 0 or k < 0:
                raise ValueError(f"negative exponent in term x^{n} q^{k}")
            if not _is_int(c):
                raise TypeError(f"coefficient of x^{n} q^{k} must be an int, got {c!r}")
            if c and n <= max_weight and k <= max_weight:
                clean[n, k] = c
        object.__setattr__(self, "max_weight", max_weight)
        object.__setattr__(self, "_cells", clean)

    @property
    def coeffs(self) -> Mapping[Cell, int]:
        return MappingProxyType(self._cells)

    @classmethod
    def _of(cls, max_weight: int, cells: dict[Cell, int]) -> "Series":
        """Wrap cells an operation produced: int coefficients inside the bound, zeros allowed."""
        series = object.__new__(cls)
        object.__setattr__(series, "max_weight", max_weight)
        object.__setattr__(series, "_cells", {cell: c for cell, c in cells.items() if c})
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

        With c0 the divisor's constant term (so 1/c0 = c0), write c0 times
        the divisor as 1 + D_0(q) + sum over a >= 1 of x^a D_a(q).  The
        quotient's row of weight n, a polynomial in q, is then
        E * (c0 * numerator row - sum over a of D_a * row n - a), where
        E = 1/(1 + D_0) is a power series in q, computed once (E = 1 when no
        term has a = 0).

        Each row is packed into one signed int whose W-bit slots hold its
        q-coefficients (Kronecker substitution), so q^b * row is
        ``row << b*W`` and a divisor term (a, b, c) costs one big-int shift
        and subtraction per row, in C.  W comes from a rigorous bound on
        every quotient coefficient (``_slot_width``); a row that reaches
        past q^N is cut by one mask.  When no cell can leave q^0 (the
        q = 1 specialization), W is 0 and each row is its coefficient.

        Cost: O(N * terms) big-int operations on rows of at most (N+1)*W
        bits, plus one slice per decoded cell; a series whose cells all sit
        at k = 0 costs O(N * terms) int operations.
        """
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_bound(other)
        c0 = other._cells.get((0, 0), 0)
        if c0 not in (1, -1):
            raise NotInvertibleError(
                f"series with constant term {c0} has no inverse over the integers")
        bound = self.max_weight
        down = sorted((a, b, c0 * c) for (a, b), c in other._cells.items() if a)
        along = {b: c0 * c for (a, b), c in other._cells.items() if not a and b}
        recip = _q_reciprocal(along, bound)
        flat = not along and not any(b for _, b, _ in down) and not any(
            k for _, k in self._cells)
        width = 0 if flat else _slot_width(self._cells, down, recip, bound)
        numerator: dict[int, int] = {}
        for (n, k), c in self._cells.items():
            numerator[n] = numerator.get(n, 0) + (c0 * c << k * width)
        packed_recip = sum(e << j * width for j, e in enumerate(recip))
        full = (bound + 1) * width  # bits of a row truncated at q^bound
        half = 1 << full >> 1
        rows: list[int] = []
        for n in range(bound + 1):
            row = numerator.get(n, 0)
            for a, b, c in down:
                if a > n:
                    break
                source = rows[n - a]
                if not source:
                    continue
                if c == 1:
                    row -= source << b * width
                elif c == -1:
                    row += source << b * width
                else:
                    row -= c * source << b * width
            if along and row:
                row *= packed_recip
            # Below half in absolute value, a row holds no slot past q^bound;
            # otherwise keep its bound + 1 low slots, signed.
            if width and row.bit_length() >= full:
                row = ((row + half) & (2 * half - 1)) - half
            rows.append(row)
        return Series._of(bound, _unpack(rows, width))

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
        import csv
        import io

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
        import json

        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Series":
        """Inverse of ``to_json_obj``: int exponents, coefficients as ints or decimal strings."""
        terms: dict[Cell, int] = {}
        try:
            max_weight = obj["max_weight"]
            for t in obj["terms"]:
                cell = (_json_exponent(t["n"]), _json_exponent(t["k"]))
                if cell in terms:
                    raise ValueError(f"malformed series object: two terms for {cell}")
                terms[cell] = _json_coefficient(t["c"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed series object: {exc}") from exc
        return cls(max_weight, terms)

    @classmethod
    def from_json(cls, text: str) -> "Series":
        import json

        return cls.from_json_obj(json.loads(text))


def _q_reciprocal(along: dict[int, int], bound: int) -> list[int]:
    """Coefficients of 1/(1 + sum of c * q^b over ``along``) up to q^bound; [1] if empty."""
    if not along:
        return [1]
    recip = [1]
    for k in range(1, bound + 1):
        recip.append(-sum(c * recip[k - b] for b, c in along.items() if b <= k))
    while recip[-1] == 0:
        recip.pop()
    return recip


def _slot_width(numerator: Mapping[Cell, int], down: list[tuple[int, int, int]],
                recip: list[int], bound: int) -> int:
    """Bits per packed slot: enough for every quotient coefficient and its sign.

    rho_n = |E|_1 * (|numerator row n|_inf + sum over a of |D_a|_1 * rho_(n-a))
    bounds every coefficient of quotient row n, since a product's sup norm
    is at most the 1-norm of one factor times the sup norm of the other.
    The width holds max rho_n plus a sign bit, rounded up to whole bytes so
    that rows decode with ``to_bytes``.
    """
    sup: dict[int, int] = {}
    for (n, _), c in numerator.items():
        sup[n] = max(sup.get(n, 0), abs(c))
    columns: dict[int, int] = {}
    for a, _, c in down:
        columns[a] = columns.get(a, 0) + abs(c)
    norms = sorted(columns.items())
    recip_norm = sum(abs(e) for e in recip)
    rho: list[int] = []
    for n in range(bound + 1):
        total = sup.get(n, 0)
        for a, norm in norms:
            if a > n:
                break
            total += norm * rho[n - a]
        rho.append(recip_norm * total)
    return (max(rho).bit_length() + 1 + 7) // 8 * 8


def _unpack(rows: list[int], width: int) -> dict[Cell, int]:
    """Cells of packed rows: slot k of ``rows[n]`` is the coefficient of x^n q^k.

    Every slot holds less than half its range in absolute value, so a row's
    top slot is its bit length // ``width`` and its lowest nonzero slot holds
    its lowest set bit; a row of one slot is its coefficient.  Adding half a
    slot to every slot up to the top makes each one nonnegative without
    carries, so ``to_bytes`` splits the row into fixed-size slices.
    """
    if not width:
        return {(n, 0): row for n, row in enumerate(rows) if row}
    cells: dict[Cell, int] = {}
    size = width // 8
    half = 1 << width >> 1
    slots = len(rows)  # N + 1 rows of N + 1 slots
    bias = ((1 << slots * width) - 1) // ((1 << width) - 1) * half  # half in every slot
    for n, row in enumerate(rows):
        if not row:
            continue
        top = row.bit_length() // width
        if not top:
            cells[n, 0] = row
            continue
        first = ((row & -row).bit_length() - 1) // width
        count = top - first + 1
        data = ((row >> first * width) + (bias >> (slots - count) * width)).to_bytes(
            count * size, "little")
        for k in range(count):
            c = int.from_bytes(data[k * size:(k + 1) * size], "little") - half
            if c:
                cells[n, first + k] = c
    return cells


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_exponent(value: object) -> int:
    if not _is_int(value):
        raise ValueError(f"malformed series object: exponent {value!r} is not an int")
    return value


def _json_coefficient(value: object) -> int:
    if _is_int(value):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(
        f"malformed series object: coefficient {value!r} is neither an int nor a decimal string")


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
