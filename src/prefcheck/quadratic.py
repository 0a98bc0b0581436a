"""Exact arithmetic over Q(sqrt(2)) and a unit-interval carrier on it.

Numbers are pairs (a, b) standing for a + b*sqrt(2); the representation is
unique, so rationality is exactly `b == 0`.  This is enough to mix points
with both rational and quadratic weights and to decide signs exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .records import record
from .spaces import VECTOR_HOOKS, MixtureSpace, Point, mix_vectors, vector_key, vector_point


def quad_sign(a: Fraction, b: Fraction) -> int:
    """Sign of a + b*sqrt(2), read from the numerators.

    Where the signs of a and b differ, the term of larger square wins:
    a*a > 2*b*b is decided on integers cross-multiplied by the squared
    denominators, and is never a tie since sqrt(2) is irrational.
    """
    m, n = a.numerator, b.numerator
    sa = (m > 0) - (m < 0)
    if n == 0:
        return sa
    sb = (n > 0) - (n < 0)
    if sa == 0 or sa == sb:
        return sb
    m *= b.denominator
    n *= a.denominator
    return sa if m * m > 2 * n * n else sb


@record(frozen=True)
class QuadRat:
    a: Fraction
    b: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "QuadRat":
        if isinstance(value, QuadRat):
            return value
        return QuadRat(Fraction(value))

    @property
    def sign(self) -> int:
        return quad_sign(self.a, self.b)

    def __add__(self, other):
        other = QuadRat.of(other)
        return QuadRat(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-QuadRat.of(other))

    def __rsub__(self, other):
        return QuadRat.of(other) + (-self)

    def __mul__(self, other):
        other = QuadRat.of(other)
        return QuadRat(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        if isinstance(other, QuadRat):
            return quad_sign(self.a - other.a, self.b - other.b)
        return quad_sign(self.a - other, self.b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"({self.a} + {self.b}*sqrt2)"


def quad_pt(a, b=0) -> Point:
    """Carrier point for the value a + b*sqrt(2)."""
    return Point((Fraction(a), Fraction(b)))


def point_value(p: Point) -> QuadRat:
    return QuadRat(p.coords[0], p.coords[1])


def is_rational_point(p: Point) -> bool:
    return p.coords[1] == 0


@record(frozen=True)
class RootTwoUnitInterval(MixtureSpace):
    """The real interval [0,1] restricted to Q(sqrt(2)) coordinates."""

    kind = "root2_interval"

    def contains(self, p: Point) -> bool:
        if p.part is not None or len(p.coords) != 2:
            return False
        a, b = p.coords
        return quad_sign(a, b) >= 0 and quad_sign(a - 1, b) <= 0

    key, point = VECTOR_HOOKS[:2]

    def mix_key(self, kx, lam, ky):
        if isinstance(lam, QuadRat):
            v = lam * point_value(vector_point(kx)) + (1 - lam) * point_value(vector_point(ky))
            return vector_key(Point((v.a, v.b)))
        return mix_vectors(kx, lam, ky)

    def mix(self, x: Point, lam, y: Point) -> Point:
        return self.point(self.mix_key(self.key(x), lam, self.key(y)))

    def descriptor(self) -> dict:
        return {"kind": "root2_interval"}
