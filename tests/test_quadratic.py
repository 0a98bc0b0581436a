from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from prefcheck.quadratic import QuadRat, RootTwoUnitInterval, point_value, quad_pt, quad_sign
from prefcheck.spaces import Point

F = Fraction


def fraction_sign(a, b):
    """The reference: the sign of a + b*sqrt(2) decided in Fractions, by
    comparing squares where a and b have opposite signs."""
    a, b = F(a), F(b)
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    s = a * a - 2 * b * b
    return ((s > 0) - (s < 0)) * (1 if a > 0 else -1)


# near-ties: a/b close to -sqrt(2) (from the convergents 3/2, 7/5, 17/12,
# 41/29, 99/70) as well as arbitrary rationals
convergents = st.sampled_from([(3, 2), (7, 5), (17, 12), (41, 29), (99, 70), (1, 1)])
rationals = st.fractions(-5, 5, max_denominator=30)


@st.composite
def quad_pairs(draw):
    if draw(st.booleans()):
        return draw(rationals), draw(rationals)
    p, q = draw(convergents)
    scale = draw(st.fractions(F(1, 9), 9, max_denominator=9))
    sign = draw(st.sampled_from([1, -1]))
    return sign * p * scale, -sign * q * scale


@settings(max_examples=300, deadline=None)
@given(quad_pairs())
def test_quad_sign_matches_fraction_reference(pair):
    a, b = pair
    assert quad_sign(a, b) == fraction_sign(a, b)
    assert quad_sign(-a, -b) == -fraction_sign(a, b)


def test_quad_sign_reads_ints_and_exact_zero():
    assert quad_sign(0, 0) == 0
    assert quad_sign(F(0), F(0)) == 0
    assert quad_sign(3, -2) == 1 and quad_sign(-3, 2) == -1
    assert quad_sign(1, -1) == -1 and quad_sign(-1, 1) == 1
    # 140/99 < sqrt(2) < 99/70
    assert quad_sign(F(-140, 99), 1) == 1 and quad_sign(F(140, 99), -1) == -1
    assert quad_sign(F(-99, 70), 1) == -1 and quad_sign(F(99, 70), -1) == 1


@settings(max_examples=200, deadline=None)
@given(quad_pairs(), quad_pairs())
def test_quadrat_comparisons_match_fraction_reference(first, second):
    x, y = QuadRat(*first), QuadRat(*second)
    s = fraction_sign(x.a - y.a, x.b - y.b)
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    r = fraction_sign(x.a - y.a, x.b)  # against the rational y.a
    assert (x < y.a, x >= y.a) == (r < 0, r >= 0)
    assert (0 < x) == (fraction_sign(x.a, x.b) > 0)


unit_points = st.builds(
    lambda a, b: quad_pt(a, b),
    st.fractions(0, 1, max_denominator=8), st.sampled_from([F(0), F(1, 4), F(1, 2), F(-1, 4)]),
)


def quad_reference(lam, x, y):
    """lam*x + (1-lam)*y over Q(sqrt(2)), in Fractions: weights a + b*sqrt(2)."""
    la, lb = (lam.a, lam.b) if isinstance(lam, QuadRat) else (F(lam), F(0))
    (xa, xb), (ya, yb) = x.coords, y.coords
    ma, mb = 1 - la, -lb
    return Point((la * xa + 2 * lb * xb + ma * ya + 2 * mb * yb,
                  la * xb + lb * xa + ma * yb + mb * ya))


@settings(max_examples=200, deadline=None)
@given(unit_points, unit_points,
       st.one_of(st.sampled_from([F(0), F(1), 0, 1, QuadRat(F(1), F(-1, 2))]),
                 st.fractions(0, 1, max_denominator=12),
                 st.builds(QuadRat, st.fractions(0, 1, max_denominator=6),
                           st.fractions(-1, 1, max_denominator=6))))
def test_root_two_mix_matches_fraction_formula(x, y, lam):
    space = RootTwoUnitInterval()
    got, want = space.mix(x, lam, y), quad_reference(lam, x, y)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert space.mix(x, lam, x) == x or isinstance(lam, QuadRat)


@settings(max_examples=200, deadline=None)
@given(st.fractions(-1, 2, max_denominator=8), st.fractions(-1, 1, max_denominator=8))
def test_root_two_contains_matches_fraction_reference(a, b):
    inside = fraction_sign(a, b) >= 0 and fraction_sign(a - 1, b) <= 0
    assert RootTwoUnitInterval().contains(quad_pt(a, b)) is inside
    assert point_value(quad_pt(a, b)) == QuadRat(a, b)
