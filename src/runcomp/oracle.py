"""Independent counting of compositions by an automaton over forbidden blocks.

The trust anchor for every generating-function result: it shares no code
or algebra with the series side.  Every filter is a set of forbidden blocks
(a run bound r forbids the blocks a^r), and a composition is read part by
part through the Aho–Corasick automaton of those blocks (Aho and Corasick,
"Efficient string matching", CACM 18(6), 1975).  Its states are the empty
tuple and every proper prefix of a block; a step dies when the new part
completes a block, and otherwise moves to the longest suffix that is a
state.  Counting is the transfer-matrix method (Stanley, EC1 §4.7): a table
indexed by weight and state holds, for each number of parts, how many
accepted prefixes reach it.  Parts that occur in no block all lead back to
the empty state, so they are summed once per weight.

The table has n + 1 rows of at most (states) × (n + 1) counts, and each
entry is pushed along at most n letters, so the cost is polynomial in n.
The safety cap is kept for now: weights above ``ENUMERATION_CAP`` are
refused unless forced.
"""

from ._value import Value
from .errors import EnumerationCapError
from .words import ForbiddenList

__all__ = [
    "ENUMERATION_CAP",
    "CompositionFilter",
    "oracle_count",
    "count_by_parts",
]

ENUMERATION_CAP = 24  # largest weight counted without force=True


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class CompositionFilter(Value):
    """Which compositions count: everything, factor avoidance, or a run cap."""

    __slots__ = ("forbidden", "run_bound")
    forbidden: ForbiddenList | None
    run_bound: int | None

    def __init__(self, forbidden: ForbiddenList | None = None,
                 run_bound: int | None = None) -> None:
        if forbidden is not None and run_bound is not None:
            raise ValueError("choose either factor avoidance or a run bound, not both")
        if run_bound is not None and (not _is_int(run_bound) or run_bound < 1):
            raise ValueError(f"run bound must be an int >= 1, got {run_bound!r}")
        object.__setattr__(self, "forbidden", forbidden)
        object.__setattr__(self, "run_bound", run_bound)

    @classmethod
    def all(cls) -> "CompositionFilter":
        return cls()

    @classmethod
    def avoid_factors(cls, forbidden: ForbiddenList) -> "CompositionFilter":
        return cls(forbidden=forbidden)

    @classmethod
    def max_run_below(cls, r: int) -> "CompositionFilter":
        return cls(run_bound=r)

    def blocks(self, n: int) -> list[list[int]]:
        """The factors a composition of n may not contain: a^r for a run bound r."""
        if self.run_bound is not None:
            return [[a] * self.run_bound for a in range(1, n // self.run_bound + 1)]
        if self.forbidden is not None:
            return [list(w.letters) for w in self.forbidden]
        return []


def _check_cap(n: int, force: bool) -> None:
    if n > ENUMERATION_CAP and not force:
        raise EnumerationCapError(
            f"enumerating compositions of {n} means 2^{n - 1} cases, above the cap "
            f"of {ENUMERATION_CAP}; pass force=True (--force) to proceed anyway")


def _append_part(into: dict[int, int], by_parts: dict[int, int]) -> None:
    for k, c in by_parts.items():
        into[k + 1] = into.get(k + 1, 0) + c


def _tally(n: int, filt: CompositionFilter | None, force: bool) -> dict[int, int]:
    if not _is_int(n) or n < 1:
        raise ValueError(f"weight must be an int >= 1, got {n!r}")
    _check_cap(n, force)
    blocks = {tuple(b) for b in (filt or CompositionFilter.all()).blocks(n)}
    states = {()} | {b[:j] for b in blocks for j in range(len(b))}
    letters = {a for b in blocks for a in b if a <= n}
    # moves[s]: (part, next state) for each letter of a block whose step from s is not dead.
    moves: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {s: [] for s in states}
    for s in states:
        for a in letters:
            t = s + (a,)
            if not any(t[i:] in blocks for i in range(len(t))):
                longest = next(t[i:] for i in range(len(t) + 1) if t[i:] in states)
                moves[s].append((a, longest))
    free = [a for a in range(1, n + 1) if a not in letters]
    # table[w][s]: {parts: prefixes of weight w that leave the automaton in state s}.
    table: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(n + 1)]
    table[0][()] = {0: 1}
    for w in range(n + 1):
        total: dict[int, int] = {}
        for s, by_parts in table[w].items():
            for k, c in by_parts.items():
                total[k] = total.get(k, 0) + c
            for a, t in moves[s]:
                if w + a <= n:
                    _append_part(table[w + a].setdefault(t, {}), by_parts)
        for a in free:
            if w + a > n:
                break
            _append_part(table[w + a].setdefault((), {}), total)
    return dict(sorted(total.items()))  # the last pass summed row n over every state


def oracle_count(n: int, k: int | None = None,
                 filt: CompositionFilter | None = None, force: bool = False) -> int:
    """Count compositions of n (with k parts, or any k) accepted by the filter."""
    if k is not None and (not _is_int(k) or k < 0):
        raise ValueError(f"number of parts must be an int >= 0, got {k!r}")
    tally = _tally(n, filt, force)
    return sum(tally.values()) if k is None else tally.get(k, 0)


def count_by_parts(n: int, filt: CompositionFilter | None = None,
                   force: bool = False) -> dict[int, int]:
    """Accepted compositions of n tallied by number of parts."""
    return _tally(n, filt, force)
