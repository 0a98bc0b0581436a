"""Reference partitions from interval-set algebra alone, for the tests.

`affine_ge`/`affine_le`/`affine_eq` give {lam in [0,1] : a*lam + b  op  c}
as section sets, and `assemble_partition` builds and validates a partition
from per-label section sets.
"""

from fractions import Fraction

from prefcheck import intervals as iv
from prefcheck.intervals import EMPTY, FULL, SectionSet
from prefcheck.relations import Label, LabeledPartition


def assemble_partition(sections: dict[Label, SectionSet]) -> LabeledPartition:
    """Build and validate a partition from per-label section sets."""
    pieces = []
    for label, sec in sections.items():
        for piece in sec.intervals:
            pieces.append((piece, label))
    pieces.sort(key=lambda item: (item[0].lo, not item[0].lo_closed))
    return LabeledPartition(tuple(pieces))


def affine_ge(a: Fraction, b: Fraction, c: Fraction, strict: bool = False) -> SectionSet:
    if a == 0:
        return FULL if (b > c if strict else b >= c) else EMPTY
    t = (c - b) / a
    if a > 0:  # lam >(=) t
        if strict:
            if t < 0:
                return FULL
            if t >= 1:
                return EMPTY
            return iv.interval(t, 1, False, True)
        if t <= 0:
            return FULL
        if t > 1:
            return EMPTY
        return iv.interval(t, 1)
    # a < 0: lam <(=) t
    if strict:
        if t > 1:
            return FULL
        if t <= 0:
            return EMPTY
        return iv.interval(0, min(t, iv.ONE), True, False)
    if t >= 1:
        return FULL
    if t < 0:
        return EMPTY
    return iv.interval(0, t)


def affine_le(a: Fraction, b: Fraction, c: Fraction, strict: bool = False) -> SectionSet:
    return affine_ge(-a, -b, -c, strict)


def affine_eq(a: Fraction, b: Fraction, c: Fraction) -> SectionSet:
    if a == 0:
        return FULL if b == c else EMPTY
    t = (c - b) / a
    if 0 <= t <= 1:
        return iv.point(t)
    return EMPTY
