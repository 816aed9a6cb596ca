"""Avoidance generating functions from a linear system over the series ring.

For a reduced forbidden list with k words, the generating function of all
compositions avoiding every listed factor is the first unknown of a
(k+1) x (k+1) linear system whose entries are correlation polynomials
(Guibas and Odlyzko, 1981; the cluster method of Noonan and Zeilberger,
1999, recasts it).  With polynomial entries the answer is rational:
F = P / Q with P = det(A with column 0 replaced by the right-hand side)
and Q = det(A).  Neither has an exponent above B, the sum over rows of the
largest exponent in the row, and Q has constant term +1 or -1.

:func:`avoidance_series` therefore runs Gaussian elimination, dividing
only by unit pivots, in the ring truncated at min(N, B), where it is exact.
It records Q as the signed product of the pivots, sets P = F * Q, and
expands P / Q to N with one sparse division.  The cost is one elimination
at bound B plus O(N^2 * |Q|), where |Q| is the number of terms of Q.
Lists whose cross-correlations all vanish ("easy case") take the same path.
"""

from ._value import Value
from .errors import NotEasyCaseError, PivotError
from .series import Series
from .words import ForbiddenList, correlation_polynomial

__all__ = [
    "AvoidanceSystem",
    "build_system",
    "avoidance_series",
    "easy_case_series",
]


class AvoidanceSystem(Value):
    """Matrix and right-hand side whose first solution component counts avoiders.

    Row 0 couples the unknowns through the alphabet of all positive
    integers; row i >= 1 belongs to the i-th forbidden word, carrying its
    weight/length monomial and the negated correlation polynomials against
    every listed word.  Diagonal entries below row 0 have constant term -1
    (a word fully overlaps itself), so they are always invertible.
    """

    __slots__ = ("forbidden", "matrix", "rhs", "max_weight")
    forbidden: ForbiddenList
    matrix: tuple[tuple[Series, ...], ...]
    rhs: tuple[Series, ...]
    max_weight: int

    def __init__(self, forbidden: ForbiddenList, matrix: tuple[tuple[Series, ...], ...],
                 rhs: tuple[Series, ...], max_weight: int) -> None:
        object.__setattr__(self, "forbidden", forbidden)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "max_weight", max_weight)


def build_system(forbidden: ForbiddenList, max_weight: int) -> AvoidanceSystem:
    bound = max_weight
    one = Series.one(bound)
    x = Series.monomial(bound, 1, 1, 0)
    xq = Series.monomial(bound, 1, 1, 1)
    rows = [tuple([one - x - xq] + [one - x] * len(forbidden))]
    for s in forbidden:
        row = [Series.monomial(bound, 1, s.weight, s.length)]
        row.extend(-correlation_polynomial(s, t, bound) for t in forbidden)
        rows.append(tuple(row))
    rhs = tuple([one - x] + [Series.zero(bound)] * len(forbidden))
    return AvoidanceSystem(forbidden, tuple(rows), rhs, bound)


def _is_unit(s: Series) -> bool:
    return s.coeffs.get((0, 0), 0) in (1, -1)


def _degree_bound(system: AvoidanceSystem) -> int:
    """Sum over rows of [A | rhs] of the largest exponent in the row.

    Every term of det(A), and of det(A) with a column replaced by the
    right-hand side, takes one entry from each row, so neither determinant
    has an exponent above this sum.
    """
    return sum(max((max(cell) for entry in (*row, rhs) for cell in entry.coeffs), default=0)
               for row, rhs in zip(system.matrix, system.rhs))


def avoidance_series(system: AvoidanceSystem) -> Series:
    """First unknown of the system: sum of x^weight q^parts over avoiders.

    Elimination runs at bound B = min(N, degree bound) and yields the first
    unknown F and Q = det(A), the signed product of the pivots.  Both are
    exact there, and so is P = F * Q; the result is P / Q expanded to N.

    Elimination is deterministic: columns are processed in order and the
    first row offering a unit pivot is chosen.  Rows are never reordered
    for any other reason, so results are reproducible.
    """
    bound = system.max_weight
    reduced = min(bound, _degree_bound(system))
    size = len(system.matrix)
    rows = [[entry.truncate(reduced) for entry in row] for row in system.matrix]
    rhs = [entry.truncate(reduced) for entry in system.rhs]
    det = Series.one(reduced)
    for col in range(size):
        pivot = next((r for r in range(col, size) if _is_unit(rows[r][col])), None)
        if pivot is None:
            raise PivotError(
                f"no unit pivot available in column {col}; "
                "the avoidance system cannot be solved exactly")
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].invert()
        rows[col] = [entry * inv for entry in rows[col]]
        rhs[col] = rhs[col] * inv
        for r in range(col + 1, size):
            factor = rows[r][col]
            if factor.is_zero():
                continue
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
            rhs[r] = rhs[r] - factor * rhs[col]
    solution = [Series.zero(reduced)] * size
    for col in range(size - 1, -1, -1):
        acc = rhs[col]
        for j in range(col + 1, size):
            acc = acc - rows[col][j] * solution[j]
        solution[col] = acc
    if reduced == bound:
        return solution[0]
    numerator = solution[0] * det
    return Series(bound, numerator.coeffs) / Series(bound, det.coeffs)


def easy_case_series(forbidden: ForbiddenList, max_weight: int) -> Series:
    """The avoidance series of a list whose cross-correlations all vanish.

    Such a list needs no other method: this validates the list and solves
    its system like any other.
    """
    if not forbidden.easy_case:
        raise NotEasyCaseError(
            "list has a nonzero cross-correlation between distinct words; "
            "use the general solver")
    return avoidance_series(build_system(forbidden, max_weight))
