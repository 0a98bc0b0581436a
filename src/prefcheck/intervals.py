"""Exact interval sets on the unit interval.

A SectionSet is a finite union of pairwise disjoint, non-adjacent
subintervals of [0,1] with rational endpoints and explicit open/closed
flags.  All operations are exact: no floats, no tolerances.  Canonical
form is enforced after every operation so that structural equality is
set equality.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .records import record

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like '2/3', or Fractions to an exact rational."""
    return Fraction(value)


class MalformedIntervalError(ValueError):
    pass


@record(frozen=True)
class Interval:
    """One subinterval of [0,1]; degenerate points are closed-closed."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not (ZERO <= self.lo <= self.hi <= ONE):
            raise MalformedIntervalError(f"bounds outside [0,1] or inverted: {self}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise MalformedIntervalError(f"empty interval is unrepresentable: {self}")

    def __contains__(self, q: Fraction) -> bool:
        if q < self.lo or q > self.hi:
            return False
        if q == self.lo and not self.lo_closed:
            return False
        if q == self.hi and not self.hi_closed:
            return False
        return True

    def __repr__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    @staticmethod
    def from_json(obj: dict) -> "Interval":
        return Interval(
            Fraction(obj["lo"]), Fraction(obj["hi"]),
            bool(obj["lo_closed"]), bool(obj["hi_closed"]),
        )


def _end_key(iv: Interval) -> tuple:
    # Closed right end dominates an open one at the same point.
    return (iv.hi, iv.hi_closed)


def _mergeable(left: Interval, right: Interval) -> bool:
    # Assumes left.lo <= right.lo.  Overlap, or touching with at least one
    # closed endpoint, collapses into a single interval.
    if right.lo < left.hi:
        return True
    return right.lo == left.hi and (left.hi_closed or right.lo_closed)


@record(frozen=True)
class SectionSet:
    """Canonical finite union of intervals; () is the empty set."""

    intervals: tuple[Interval, ...] = ()

    def __contains__(self, q: Fraction) -> bool:
        return any(q in iv for iv in self.intervals)

    def is_empty(self) -> bool:
        return not self.intervals

    def __repr__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(repr(iv) for iv in self.intervals)

    def to_json(self) -> list:
        return [iv.to_json() for iv in self.intervals]

    @staticmethod
    def from_json(obj: list) -> "SectionSet":
        return normalize([Interval.from_json(item) for item in obj])


EMPTY = SectionSet()
FULL = SectionSet((Interval(ZERO, ONE),))
OPEN_UNIT = SectionSet((Interval(ZERO, ONE, False, False),))


def interval(lo, hi, lo_closed=True, hi_closed=True) -> SectionSet:
    return SectionSet((Interval(rat(lo), rat(hi), lo_closed, hi_closed),))


def point(q) -> SectionSet:
    q = rat(q)
    return SectionSet((Interval(q, q),))


def normalize(raw: Iterable[Interval]) -> SectionSet:
    """Sort and merge overlapping/adjacent intervals into canonical form."""
    ivs = sorted(raw, key=lambda iv: (iv.lo, not iv.lo_closed))
    merged: list[Interval] = []
    for iv in ivs:
        if merged and _mergeable(merged[-1], iv):
            last = merged[-1]
            hi, hi_closed = max(_end_key(last), _end_key(iv))
            merged[-1] = Interval(last.lo, hi, last.lo_closed, hi_closed)
        else:
            merged.append(iv)
    return SectionSet(tuple(merged))


def union(a: SectionSet, b: SectionSet) -> SectionSet:
    return normalize(a.intervals + b.intervals)


def _intersect_intervals(a: Interval, b: Interval) -> Interval | None:
    if a.lo > b.lo:
        lo, lo_closed = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lo_closed = b.lo, b.lo_closed
    else:
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def intersect(a: SectionSet, b: SectionSet) -> SectionSet:
    pieces = []
    for ia in a.intervals:
        for ib in b.intervals:
            got = _intersect_intervals(ia, ib)
            if got is not None:
                pieces.append(got)
    return normalize(pieces)


def _interval_complement(iv: Interval) -> list[Interval]:
    pieces = []
    if iv.lo > ZERO:
        pieces.append(Interval(ZERO, iv.lo, True, not iv.lo_closed))
    elif not iv.lo_closed:
        pieces.append(Interval(ZERO, ZERO))
    if iv.hi < ONE:
        pieces.append(Interval(iv.hi, ONE, not iv.hi_closed, True))
    elif not iv.hi_closed:
        pieces.append(Interval(ONE, ONE))
    return pieces


def complement(a: SectionSet) -> SectionSet:
    acc = FULL
    for iv in a.intervals:
        acc = intersect(acc, SectionSet(tuple(_interval_complement(iv))))
    return acc


def difference(a: SectionSet, b: SectionSet) -> SectionSet:
    return intersect(a, complement(b))


def is_subset(a: SectionSet, b: SectionSet) -> bool:
    return intersect(a, b) == a


def closure(a: SectionSet) -> SectionSet:
    return normalize([Interval(iv.lo, iv.hi) for iv in a.intervals])


def interior(a: SectionSet) -> SectionSet:
    """Interior relative to the ambient space [0,1].

    Endpoints open up unless they are closed endpoints sitting on the
    ambient boundary (0 or 1), where the set is already relatively open.
    """
    pieces = []
    for iv in a.intervals:
        if iv.lo == iv.hi:
            continue  # single points are never relatively open
        lo_closed = iv.lo == ZERO and iv.lo_closed
        hi_closed = iv.hi == ONE and iv.hi_closed
        pieces.append(Interval(iv.lo, iv.hi, lo_closed, hi_closed))
    return normalize(pieces)


@record(frozen=True)
class TopologyReport:
    is_closed: bool
    is_open: bool
    is_convex: bool
    component_count: int
    closure: SectionSet
    interior: SectionSet
    min: Fraction | None
    max: Fraction | None


@lru_cache(maxsize=65536)
def analyze(a: SectionSet) -> TopologyReport:
    cl = closure(a)
    inside = interior(a)
    first = a.intervals[0] if a.intervals else None
    last = a.intervals[-1] if a.intervals else None
    return TopologyReport(
        is_closed=cl == a,
        is_open=inside == a,
        is_convex=len(a.intervals) <= 1,
        component_count=len(a.intervals),
        closure=cl,
        interior=inside,
        min=first.lo if first is not None and first.lo_closed else None,
        max=last.hi if last is not None and last.hi_closed else None,
    )


def representative(a: SectionSet) -> Fraction | None:
    """Deterministic element of a nonempty set: attained min, else the
    midpoint of the first component."""
    if not a.intervals:
        return None
    first = a.intervals[0]
    if first.lo_closed:
        return first.lo
    return (first.lo + first.hi) / 2
