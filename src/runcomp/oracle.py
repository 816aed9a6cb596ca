"""Brute-force enumeration of compositions.

The trust anchor for every generating-function result: compositions are
listed by a pruned, lexicographic depth-first walk and filtered by direct
inspection, with no shared code or algebra from the series side.  Every
filter is a set of forbidden blocks (a run bound r forbids the blocks a^r),
and the walk drops a prefix as soon as its last part completes a block.  It
still has up to 2^(n-1) leaves, the compositions of n, so counting refuses
weights above ``ENUMERATION_CAP`` unless forced.
"""

from dataclasses import dataclass
from typing import Iterator

from .errors import EnumerationCapError
from .words import ForbiddenList, Word

__all__ = [
    "ENUMERATION_CAP",
    "CompositionFilter",
    "enumerate_compositions",
    "oracle_count",
    "count_by_parts",
    "max_run_length",
]

ENUMERATION_CAP = 24  # ~8.4M compositions; past this the closed forms are the practical route


def _walk(n: int, ends: dict[int, list[list[int]]], parts: list[int]) -> Iterator[tuple[int, ...]]:
    # Lexicographic by parts, for n >= 1: (1,1,1), (1,2), (2,1), (3).  A prefix
    # whose new last part completes a block is dropped with every extension.
    for a in range(1, n + 1):
        parts.append(a)
        for block in ends.get(a, ()):
            if parts[-len(block):] == block:
                break
        else:
            if a == n:
                yield tuple(parts)
            else:
                yield from _walk(n - a, ends, parts)
        parts.pop()


def enumerate_compositions(n: int) -> Iterator[Word]:
    """Yield the 2^(n-1) compositions of n once each, lexicographic by parts."""
    if n < 1:
        raise ValueError(f"weight must be >= 1, got {n}")
    return (Word(parts) for parts in _walk(n, {}, []))


def max_run_length(parts: tuple[int, ...]) -> int:
    """Length of the longest block of equal adjacent parts; 0 for the empty tuple."""
    best = run = 0
    prev = None
    for a in parts:
        run = run + 1 if a == prev else 1
        prev = a
        if run > best:
            best = run
    return best


@dataclass(frozen=True)
class CompositionFilter:
    """Which compositions count: everything, factor avoidance, or a run cap."""

    forbidden: ForbiddenList | None = None
    run_bound: int | None = None

    def __post_init__(self) -> None:
        if self.forbidden is not None and self.run_bound is not None:
            raise ValueError("choose either factor avoidance or a run bound, not both")
        if self.run_bound is not None and self.run_bound < 1:
            raise ValueError(f"run bound must be >= 1, got {self.run_bound}")

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


def _tally(n: int, filt: CompositionFilter | None, force: bool) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"weight must be >= 1, got {n}")
    _check_cap(n, force)
    ends: dict[int, list[list[int]]] = {}
    for block in (filt or CompositionFilter.all()).blocks(n):
        ends.setdefault(block[-1], []).append(block)
    tally: dict[int, int] = {}
    for parts in _walk(n, ends, []):
        tally[len(parts)] = tally.get(len(parts), 0) + 1
    return tally


def oracle_count(n: int, k: int | None = None,
                 filt: CompositionFilter | None = None, force: bool = False) -> int:
    """Count compositions of n (with k parts, or any k) accepted by the filter."""
    tally = _tally(n, filt, force)
    return sum(tally.values()) if k is None else tally.get(k, 0)


def count_by_parts(n: int, filt: CompositionFilter | None = None,
                   force: bool = False) -> dict[int, int]:
    """Accepted compositions of n tallied by number of parts."""
    return _tally(n, filt, force)
