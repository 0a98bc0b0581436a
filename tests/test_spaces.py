import zlib
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefcheck.axioms import AxiomEngine, Universe
from prefcheck.catalog import load_entry
from prefcheck.relations import ComparisonOutcome, PointwiseOnly
from prefcheck.spaces import (
    CarrierError,
    DEFAULT_GRID,
    Point,
    QuotientError,
    RealInterval,
    Simplex,
    SplitSpace,
    check_c1_c2,
    check_mixture_axioms,
    mix,
    pt,
    quotient,
    split_a,
    split_b,
)
from prefcheck.verdicts import Status

F = Fraction


@pytest.fixture
def triangle():
    return Simplex(3)


def test_weight_one_returns_left_point(triangle):
    e1, e2, _ = triangle.vertices()
    assert mix(triangle, e1, 1, e2) == e1
    assert mix(triangle, e1, 0, e2) == e2


def test_split_space_cross_arm_mixture():
    space = SplitSpace()
    assert mix(space, split_a(1), F(1, 2), split_b(1)) == split_b(F(1, 2))
    # weight 1 keeps the vertical point, weight 0 the horizontal one
    assert mix(space, split_a(1), 1, split_b(1)) == split_a(1)
    assert mix(space, split_b(1), 0, split_a(1)) == split_a(1)
    # mixing toward the vertical arm scales the horizontal coordinate
    assert mix(space, split_b(1), F(3, 4), split_a(F(1, 3))) == split_b(F(3, 4))


def test_nested_mixture_collapses(triangle):
    e1, e2, _ = triangle.vertices()
    inner = mix(triangle, e1, F(1, 2), e2)
    assert mix(triangle, e1, F(1, 2), inner) == mix(triangle, e1, F(3, 4), e2)


def test_mix_validates_weight_and_carrier(triangle):
    e1, e2, _ = triangle.vertices()
    with pytest.raises(CarrierError):
        mix(triangle, e1, F(3, 2), e2)
    with pytest.raises(CarrierError):
        mix(triangle, pt(1, 1, 0), F(1, 2), e2)


def test_split_space_carrier():
    space = SplitSpace()
    assert space.contains(split_a(0))        # the origin sits on the vertical arm
    assert not space.contains(Point((F(0), F(0)), part="B"))
    assert not space.contains(pt(F(1, 2), F(1, 2)))


def test_simplex_mixture_axioms_hold(triangle):
    verdicts = check_mixture_axioms(triangle, triangle.vertices())
    assert all(verdicts[name].passed for name in ("S1", "S2", "S3", "S4"))


def test_split_space_mixture_axioms_hold():
    space = SplitSpace()
    points = [split_b(1), split_a(0), split_a(1), split_b(F(1, 2))]
    verdicts = check_mixture_axioms(space, points)
    assert all(verdicts[name].passed for name in ("S1", "S2", "S3", "S4"))


def test_simplex_cancellation_passes(triangle):
    verdicts = check_c1_c2(triangle, triangle.vertices())
    assert verdicts["C1"].passed and verdicts["C2"].passed


def test_split_space_cancellation_fails():
    space = SplitSpace()
    points = [split_b(1), split_a(0), split_a(1), split_b(F(1, 2))]
    verdicts = check_c1_c2(space, points)
    c1 = verdicts["C1"]
    assert c1.failed
    w = c1.witness
    # mixing toward either vertical point follows the same path
    assert w["x"] == split_b(1)
    assert {w["y"], w["y_prime"]} == {split_a(0), split_a(1)}
    assert 0 < w["lam"] < 1
    assert space.mix(w["x"], w["lam"], w["y"]) == space.mix(w["x"], w["lam"], w["y_prime"])
    assert verdicts["C2"].passed


def test_quotient_classes_of_split_relation():
    entry = load_entry("split_hm")
    points = (split_a(1), split_a(0), split_b(F(1, 2)), split_b(1))
    qspace, qrel = quotient(entry.space, entry.relation, points)
    assert qspace.classes == (
        (split_a(1), split_a(0)),
        (split_b(F(1, 2)),),
        (split_b(1),),
    )
    assert qspace.representatives == (split_a(1), split_b(F(1, 2)), split_b(1))


def test_quotient_with_trivial_indifference_gives_singletons():
    entry = load_entry("appx1")
    points = (pt(0), pt(F(1, 2)), pt(1))
    qspace, _ = quotient(entry.space, entry.relation, points)
    assert all(len(cls) == 1 for cls in qspace.classes)


def test_quotient_projection_commutes_with_mixture():
    entry = load_entry("split_hm")
    points = entry.universe.points
    qspace, _ = quotient(entry.space, entry.relation, points)
    for x in points:
        for y in points:
            for lam in DEFAULT_GRID:
                direct = qspace.canonical(entry.space.mix(x, lam, y))
                lifted = qspace.mix(qspace.canonical(x), lam, qspace.canonical(y))
                assert direct == lifted


def test_quotient_mixture_axioms_with_derived_relation():
    entry = load_entry("split_hm")
    qspace, qrel = quotient(entry.space, entry.relation, entry.universe.points)
    verdicts = check_mixture_axioms(qspace, qspace.representatives, relation=qrel)
    assert all(verdicts[name].passed for name in ("M1", "M2", "M3", "M4"))


def test_quotient_rejects_non_independent_relation():
    # appx2's block indifference is not respected by mixing toward the top
    entry = load_entry("appx2")
    with pytest.raises(QuotientError):
        quotient(entry.space, entry.relation, (pt(0), pt(F(1, 4)), pt(1)))


def test_derived_relation_is_anti_symmetric_complete_transitive():
    entry = load_entry("split_hm")
    qspace, qrel = quotient(entry.space, entry.relation, entry.universe.points)
    engine = AxiomEngine(qrel, Universe(qspace.representatives))
    for axiom in ("anti_symmetric", "complete", "transitive", "mixture_continuous"):
        assert engine.verdict(axiom).passed, axiom


def test_real_interval_carrier():
    space = RealInterval(F(0), F(3))
    assert space.contains(pt(3)) and not space.contains(pt(4))
    assert mix(space, pt(3), F(1, 3), pt(0)) == pt(1)


def test_mixture_axioms_report_the_first_failing_tuple():
    class LeftMix(RealInterval):
        def mix(self, x, lam, y):
            return x

    points = [pt(0), pt(F(1, 2)), pt(1)]
    verdicts = check_mixture_axioms(LeftMix(F(0), F(1)), points)
    assert verdicts["S2"].failed
    assert verdicts["S2"].witness == {"x": pt(0), "y": pt(F(1, 2)), "mu": F(1, 4)}
    assert all(verdicts[name].passed for name in ("S1", "S3", "S4"))


def hashed_interval(points, seed):
    """A pure but broken carrier: x lam y is a seeded-hash choice among
    `points`, so nested mixtures stay in the point set."""

    class Hashed(RealInterval):
        def mix(self, x, lam, y):
            return points[zlib.crc32(f"{seed}|{x}|{lam}|{y}".encode()) % len(points)]

    return Hashed(F(0), F(4))


WEIGHTS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1))


@st.composite
def hashed_carriers(draw):
    """A hashed carrier over 2-4 points, with a grid drawn from WEIGHTS."""
    points = [pt(i) for i in range(draw(st.integers(2, 4)))]
    space = hashed_interval(points, draw(st.integers(0, 2**32 - 1)))
    grid = tuple(w for w in WEIGHTS if draw(st.booleans())) or (F(1, 2),)
    return space, points, grid


def first_witness(keys, tuples, broken):
    """The first tuple that breaks an axiom, as a witness dict, or None."""
    return next((dict(zip(keys, t)) for t in tuples if broken(*t)), None)


def assert_verdict(verdict, witness, passing=Status.HOLDS):
    assert verdict.status is (Status.FAILS if witness else passing), verdict.axiom
    # key order too: witnesses are serialized in insertion order
    assert list((verdict.witness or {}).items()) == list((witness or {}).items())


@settings(max_examples=200, deadline=None)
@given(hashed_carriers())
def test_c1_c2_match_their_definitions(case):
    space, points, grid = case
    mix = space.mix
    inner = [g for g in grid if 0 < g < 1]
    weights = sorted(set(grid) | {F(0), F(1)})
    c1 = first_witness(
        ("x", "y", "y_prime", "lam"), product(points, points, points, inner),
        lambda x, y, y2, lam: y != y2 and mix(x, lam, y) == mix(x, lam, y2))
    c2 = first_witness(
        ("x", "y", "z", "lam", "mu"),
        ((x, y, z, lam, mu)
         for x, y, z, lam, mu in product(points, points, points, weights, weights)
         if lam * mu != 1),
        lambda x, y, z, lam, mu: mix(mix(x, lam, y), mu, z)
        != mix(x, lam * mu, mix(y, mu * (1 - lam) / (1 - lam * mu), z)))
    verdicts = check_c1_c2(space, points, grid)
    assert_verdict(verdicts["C1"], c1, Status.SAMPLED)
    assert_verdict(verdicts["C2"], c2, Status.SAMPLED)


@settings(max_examples=200, deadline=None)
@given(hashed_carriers())
def test_s1_s4_match_their_definitions(case):
    space, points, grid = case
    mix = space.mix
    pairs = list(product(points, points))
    expected = {
        "S1": first_witness(("x", "y"), pairs, lambda x, y: mix(x, 1, y) != x),
        "S2": first_witness(
            ("x", "y", "mu"), product(points, points, grid),
            lambda x, y, mu: mix(x, mu, y) != mix(y, 1 - mu, x)),
        "S3": first_witness(
            ("x", "y", "mu", "lam"), product(points, points, grid, grid),
            lambda x, y, mu, lam: mix(mix(x, mu, y), lam, y) != mix(x, lam * mu, y)),
    }
    # S4 scans mu, then lam, then beta, but names lam before mu
    s4 = first_witness(
        ("x", "y", "mu", "lam", "beta"), product(points, points, grid, grid, grid),
        lambda x, y, mu, lam, beta: mix(mix(x, lam, y), mu, mix(x, beta, y))
        != mix(x, mu * lam + (1 - mu) * beta, y))
    expected["S4"] = s4 and {k: s4[k] for k in ("x", "y", "lam", "mu", "beta")}
    verdicts = check_mixture_axioms(space, points, grid)
    for name, witness in expected.items():
        assert_verdict(verdicts[name], witness)


@settings(max_examples=200, deadline=None)
@given(hashed_carriers(), st.data())
def test_independence_matches_its_definition(case, data):
    space, points, grid = case
    outcomes = st.sampled_from(list(ComparisonOutcome))
    table = {(x, y): data.draw(outcomes) for x in points for y in points}
    rel = PointwiseOnly("table", space, lambda x, y: table[x, y])
    engine = AxiomEngine(rel, Universe(tuple(points), closure_depth=0, grid=grid))

    def equiv(x, y):
        return table[x, y] is ComparisonOutcome.EQUIVALENT

    mix = space.mix
    witness = first_witness(
        ("x", "y", "z", "lam"),
        product(points, points, points, [g for g in grid if 0 < g <= 1]),
        lambda x, y, z, lam: equiv(x, y) != equiv(mix(x, lam, z), mix(y, lam, z)))
    assert_verdict(engine.verdict("independent"), witness, Status.SAMPLED)


def counting_interval():
    """An exact interval carrier that counts its `mix` calls per argument."""
    calls = Counter()

    class Counting(RealInterval):
        def mix(self, x, lam, y):
            calls[x, lam, y] += 1
            return super().mix(x, lam, y)

    return Counting(F(0), F(1)), calls


def test_scans_mix_each_distinct_argument_once():
    """C1/C2, S1-S4 and independence reach the carrier once per distinct
    (x, lam, y); each scan runs in full, since every axiom holds."""
    points = [pt(0), pt(F(1, 2)), pt(1)]

    def by_value(x, y):
        return ComparisonOutcome.from_weak(x.coords >= y.coords, y.coords >= x.coords)

    scans = {
        "c1_c2": lambda space: check_c1_c2(space, points).values(),
        "mixture_axioms": lambda space: check_mixture_axioms(space, points).values(),
        "independent": lambda space: [AxiomEngine(
            PointwiseOnly("by_value", space, by_value),
            Universe(tuple(points), closure_depth=0)).verdict("independent")],
    }
    for name, scan in scans.items():
        space, calls = counting_interval()
        assert not any(v.failed for v in scan(space)), name
        assert calls and max(calls.values()) == 1, name
