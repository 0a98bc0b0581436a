import operator
import zlib
from collections import Counter
from fractions import Fraction
from inspect import getattr_static
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefcheck.axioms import AxiomEngine, Universe
from prefcheck.catalog import ENTRY_IDS, load_entry
from prefcheck.quadratic import QuadRat, RootTwoUnitInterval, quad_pt
from prefcheck.relations import ComparisonOutcome, MultiUtility, PointwiseOnly
from prefcheck.spaces import (
    CarrierError,
    DEFAULT_GRID,
    MixTable,
    Point,
    QuotientError,
    RealInterval,
    Simplex,
    SplitSpace,
    augment_points,
    check_c1_c2,
    closure_table,
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


def hashed_interval(points, seed, fresh=False):
    """A pure but broken carrier: x lam y is a seeded-hash choice among
    `points`, so nested mixtures stay in the point set.  With `fresh`, each
    call returns a new `Point` equal to the chosen one."""

    class Hashed(RealInterval):
        def mix(self, x, lam, y):
            got = points[zlib.crc32(f"{seed}|{x}|{lam}|{y}".encode()) % len(points)]
            return Point(tuple(got.coords)) if fresh else got

    return Hashed(F(0), F(4))


WEIGHTS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1))


@st.composite
def hashed_carriers(draw, fresh=False):
    """A hashed carrier over 2-4 points, with a grid drawn from WEIGHTS."""
    points = [pt(i) for i in range(draw(st.integers(2, 4)))]
    space = hashed_interval(points, draw(st.integers(0, 2**32 - 1)), fresh)
    grid = tuple(w for w in WEIGHTS if draw(st.booleans())) or (F(1, 2),)
    return space, points, grid


def first_witness(keys, tuples, broken):
    """The first tuple that breaks an axiom, as a witness dict, or None."""
    return next((dict(zip(keys, t)) for t in tuples if broken(*t)), None)


def assert_verdict(verdict, witness, passing=Status.HOLDS):
    assert verdict.status is (Status.FAILS if witness else passing), verdict.axiom
    # key order too: witnesses are serialized in insertion order
    assert list((verdict.witness or {}).items()) == list((witness or {}).items())


def c1_c2_by_definition(space, points, grid):
    """First C1 and C2 witnesses in scan order, from plain `space.mix`."""
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
    return {"C1": c1, "C2": c2}


def s1_s4_by_definition(space, points, grid, same=operator.eq, prefix="S"):
    """First witnesses of S1-S4 (M1-M4 when `same` is an indifference) in
    scan order, from plain `space.mix`."""
    mix = space.mix
    pairs = list(product(points, points))
    expected = {
        "1": first_witness(("x", "y"), pairs, lambda x, y: not same(mix(x, 1, y), x)),
        "2": first_witness(
            ("x", "y", "mu"), product(points, points, grid),
            lambda x, y, mu: not same(mix(x, mu, y), mix(y, 1 - mu, x))),
        "3": first_witness(
            ("x", "y", "mu", "lam"), product(points, points, grid, grid),
            lambda x, y, mu, lam: not same(mix(mix(x, mu, y), lam, y),
                                           mix(x, lam * mu, y))),
    }
    # S4 scans mu, then lam, then beta, but names lam before mu
    s4 = first_witness(
        ("x", "y", "mu", "lam", "beta"), product(points, points, grid, grid, grid),
        lambda x, y, mu, lam, beta: not same(mix(mix(x, lam, y), mu, mix(x, beta, y)),
                                             mix(x, mu * lam + (1 - mu) * beta, y)))
    expected["4"] = s4 and {k: s4[k] for k in ("x", "y", "lam", "mu", "beta")}
    return {prefix + k: witness for k, witness in expected.items()}


@settings(max_examples=200, deadline=None)
@given(hashed_carriers())
def test_c1_c2_match_their_definitions(case):
    verdicts = check_c1_c2(*case)
    for name, witness in c1_c2_by_definition(*case).items():
        assert_verdict(verdicts[name], witness, Status.SAMPLED)


@settings(max_examples=200, deadline=None)
@given(hashed_carriers())
def test_s1_s4_match_their_definitions(case):
    verdicts = check_mixture_axioms(*case)
    for name, witness in s1_s4_by_definition(*case).items():
        assert_verdict(verdicts[name], witness)


@settings(max_examples=200, deadline=None)
@given(hashed_carriers(), st.data())
def test_m1_m4_match_their_definitions(case, data):
    space, points, grid = case
    outcomes = st.sampled_from(list(ComparisonOutcome))
    table = {(x, y): data.draw(outcomes) for x in points for y in points}
    rel = PointwiseOnly("table", space, lambda x, y: table[x, y])

    def indifferent(x, y):
        return table[x, y] is ComparisonOutcome.EQUIVALENT

    verdicts = check_mixture_axioms(space, points, grid, relation=rel)
    for name, witness in s1_s4_by_definition(*case, indifferent, "M").items():
        assert_verdict(verdicts[name], witness)


@settings(max_examples=100, deadline=None)
@given(hashed_carriers(fresh=True))
def test_equal_points_are_one_point_to_the_scans(case):
    """A carrier that returns a new but equal `Point` on every call: the
    scans compare points by value, as their definitions do."""
    verdicts = {**check_c1_c2(*case), **check_mixture_axioms(*case)}
    for name, witness in c1_c2_by_definition(*case).items():
        assert_verdict(verdicts[name], witness, Status.SAMPLED)
    for name, witness in s1_s4_by_definition(*case).items():
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


@pytest.mark.parametrize("entry_id, depth", [
    *((eid, None) for eid in ENTRY_IDS
      if not isinstance(load_entry(eid).relation, MultiUtility)),
    *((eid, 2) for eid in ("appx1", "appx2", "appx3", "fragile_unit", "flimsy_0_3")),
])
def test_catalog_independence_matches_its_definition(entry_id, depth):
    """The first independence witness, where mixtures leave the universe:
    a brute force in (x, y, z, lam) order over `space.mix` and
    `rel.compare`, with no table or memo.  Multi-utility entries are left
    out, since their verdict holds exactly without a scan."""
    entry = load_entry(entry_id)
    universe = entry.universe
    if depth is not None:
        universe = Universe(universe.points, depth, universe.grid)
    engine = AxiomEngine(entry.relation, universe)
    space, compare = entry.space, entry.relation.compare

    def equiv(x, y):
        return compare(x, y) is ComparisonOutcome.EQUIVALENT

    mix = space.mix
    witness = first_witness(
        ("x", "y", "z", "lam"),
        product(engine.points, engine.points, engine.points,
                [g for g in universe.grid if 0 < g <= 1]),
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
    """C1/C2, S1-S4 and an engine (its independence scan, then its mixture
    table) reach the carrier once per distinct (x, lam, y); each scan runs
    in full, since every axiom holds."""
    points = [pt(0), pt(F(1, 2)), pt(1)]

    def by_value(x, y):
        return ComparisonOutcome.from_weak(x.coords >= y.coords, y.coords >= x.coords)

    def engine_scan(space):
        """Independence, then every grid mixture of the universe through
        `engine.mix_table()`: both read the engine's one table, whose
        numbers start with the engine's points in order."""
        engine = AxiomEngine(PointwiseOnly("by_value", space, by_value),
                             Universe(tuple(points), closure_depth=0))
        verdict = engine.verdict("independent")
        exact, table = RealInterval(F(0), F(1)), engine.mix_table()
        assert table.points[:len(engine.points)] == engine.points
        for x, y in product(points, repeat=2):
            for lam in DEFAULT_GRID:
                got = table.mix(table.number(x), table.weight(lam), table.number(y))
                assert table.points[got] == exact.mix(x, lam, y)
        return [verdict]

    scans = {
        "c1_c2": lambda space: check_c1_c2(space, points).values(),
        "mixture_axioms": lambda space: check_mixture_axioms(space, points).values(),
        "engine": engine_scan,
    }
    for name, scan in scans.items():
        space, calls = counting_interval()
        assert not any(v.failed for v in scan(space)), name
        assert calls and max(calls.values()) == 1, name


# ---------------------------------------------------------------------------
# integer mixing against the Fraction formula
# ---------------------------------------------------------------------------


def fraction_mix(lam, xs, ys):
    """The reference: lam*a + (1-lam)*b per coordinate, in Fraction arithmetic."""
    return tuple(lam * a + (1 - lam) * b for a, b in zip(xs, ys))


def split_reference(x, lam, y):
    """The split-space mixture of the class docstring, in Fraction arithmetic."""
    if x.part == y.part:
        coords = fraction_mix(lam, x.coords, y.coords)
        if x.part == "B" and coords[0] == 0:
            return split_a(0)
        return Point(coords, part=x.part)
    if x.part == "A":
        return x if lam == 1 else split_b((1 - lam) * y.coords[0])
    return y if lam == 0 else split_b(lam * x.coords[0])


unit_fractions = st.fractions(0, 1, max_denominator=12)
# the ends, as Fractions and as ints, and rational weights in between
mix_weights = st.one_of(st.sampled_from([F(0), F(1), 0, 1, F(1, 2)]), unit_fractions)


@st.composite
def simplex_pair(draw):
    """Two points of a simplex; coordinates are often equal, or both 0."""
    dim = draw(st.integers(1, 4))

    def point():
        raw = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7]), min_size=dim, max_size=dim)
                   .filter(any))
        return Point(tuple(F(c, sum(raw)) for c in raw))

    x = point()
    return Simplex(dim), x, draw(st.sampled_from([x, point()]))


@st.composite
def split_pair(draw):
    def point():
        if draw(st.booleans()):
            return split_a(draw(unit_fractions))
        return split_b(draw(unit_fractions.filter(bool)))

    return point(), point()


def assert_same_point(got, want):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.part == want.part
    assert all(type(c) is F for c in got.coords)


@settings(max_examples=200, deadline=None)
@given(simplex_pair(), mix_weights)
def test_simplex_mix_matches_fraction_formula(case, lam):
    space, x, y = case
    assert_same_point(space.mix(x, lam, y), Point(fraction_mix(F(lam), x.coords, y.coords)))


@settings(max_examples=200, deadline=None)
@given(st.fractions(-3, 3, max_denominator=6), st.fractions(-3, 3, max_denominator=6),
       mix_weights)
def test_interval_mix_matches_fraction_formula(a, b, lam):
    space = RealInterval(min(a, b), max(a, b))
    assert_same_point(space.mix(pt(a), lam, pt(b)), pt(F(lam) * a + (1 - F(lam)) * b))
    assert_same_point(space.mix(pt(a), lam, pt(a)), pt(a))


@settings(max_examples=200, deadline=None)
@given(split_pair(), mix_weights)
def test_split_mix_matches_fraction_formula(pair, lam):
    x, y = pair
    assert_same_point(SplitSpace().mix(x, lam, y), split_reference(x, F(lam), y))


# ---------------------------------------------------------------------------
# mixing through keys, and the tables that do it
# ---------------------------------------------------------------------------


def key_mix(space, x, lam, y):
    """x lam y through the carrier's keys, as a `MixTable` mixes it."""
    return space.point(space.mix_key(space.key(x), lam, space.key(y)))


def assert_keys_match_points(space, x, y):
    assert (space.key(x) == space.key(y)) == (x == y)
    assert_same_point(space.point(space.key(x)), x)


@settings(max_examples=200, deadline=None)
@given(simplex_pair(), mix_weights)
def test_simplex_keys_mix_as_fractions(case, lam):
    space, x, y = case
    assert_same_point(key_mix(space, x, lam, y), Point(fraction_mix(F(lam), x.coords, y.coords)))
    assert_keys_match_points(space, x, y)


@settings(max_examples=200, deadline=None)
@given(st.fractions(-3, 3, max_denominator=6), st.fractions(-3, 3, max_denominator=6),
       mix_weights)
def test_interval_keys_mix_as_fractions(a, b, lam):
    space = RealInterval(min(a, b), max(a, b))
    assert_same_point(key_mix(space, pt(a), lam, pt(b)), pt(F(lam) * a + (1 - F(lam)) * b))
    assert_keys_match_points(space, pt(a), pt(b))


@settings(max_examples=200, deadline=None)
@given(split_pair(), mix_weights)
def test_split_keys_mix_as_fractions(pair, lam):
    x, y = pair
    space = SplitSpace()
    assert_same_point(key_mix(space, x, lam, y), split_reference(x, F(lam), y))
    assert_keys_match_points(space, x, y)
    assert_keys_match_points(space, x, Point(x.coords, part=x.part))


def test_split_keys_across_arms():
    space = SplitSpace()
    # the A point collapses to the origin: a lam b is (1-lam) b on the B arm
    assert_same_point(key_mix(space, split_a(1), F(1, 4), split_b(F(2, 3))), split_b(F(1, 2)))
    assert_same_point(key_mix(space, split_b(F(2, 3)), F(3, 4), split_a(1)), split_b(F(1, 2)))
    # except where all weight is on the A point
    assert_same_point(key_mix(space, split_a(F(1, 3)), 1, split_b(1)), split_a(F(1, 3)))
    assert_same_point(key_mix(space, split_b(1), 0, split_a(F(1, 3))), split_a(F(1, 3)))
    # the origin is an A point, keyed apart from every B point, and a B
    # mixture that lands on coordinate 0 collapses to it
    zero_b = Point((F(0), F(0)), part="B")
    assert space.key(split_a(0)) != space.key(zero_b)
    assert_same_point(key_mix(space, zero_b, F(1, 2), zero_b), split_a(0))


@settings(max_examples=200, deadline=None)
@given(st.fractions(0, 1, max_denominator=8), st.sampled_from([F(0), F(1, 4), F(-1, 4)]),
       st.fractions(0, 1, max_denominator=8), st.sampled_from([F(0), F(1, 2)]),
       st.one_of(mix_weights, st.just(QuadRat(F(1), F(-1, 2)))))
def test_root_two_keys_mix_as_fractions(a, b, c, d, lam):
    space, x, y = RootTwoUnitInterval(), quad_pt(a, b), quad_pt(c, d)
    if isinstance(lam, QuadRat):
        v = lam * QuadRat(a, b) + (1 - lam) * QuadRat(c, d)
        want = quad_pt(v.a, v.b)
    else:
        want = Point(fraction_mix(F(lam), x.coords, y.coords))
    assert_same_point(key_mix(space, x, lam, y), want)
    assert_keys_match_points(space, x, y)


def old_augment_points(space, points, grid, depth):
    """The closure loop on `Point`s, before tables: each round mixes every
    pair of the points so far, and keeps each new point in first-seen order."""
    out = list(dict.fromkeys(points))
    seen = set(out)
    for _ in range(depth):
        fresh = []
        for x in out:
            for y in out:
                for g in grid:
                    m = space.mix(x, g, y)
                    if m not in seen:
                        seen.add(m)
                        fresh.append(m)
        out = out + fresh
    return out


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_closure_keeps_the_point_loop_order(entry_id):
    entry = load_entry(entry_id)
    universe = entry.universe
    want = old_augment_points(entry.space, universe.points, universe.grid, 2)
    got = augment_points(entry.space, universe.points, universe.grid, 2)
    assert got == want
    for g, w in zip(got, want):
        assert_same_point(g, w)
    table = closure_table(entry.space, universe.points, universe.grid, 2)
    assert table.points[:] == want and len(table.points) == len(want)
    engine = AxiomEngine(entry.relation, Universe(universe.points, 2, universe.grid))
    assert engine.points == want and engine.mix_table().points[:len(want)] == want


def test_table_points_read_like_a_list():
    table = closure_table(Simplex(2), [pt(1, 0), pt(0, 1), pt(1, 0)], (F(1, 2),), 1)
    want = [pt(1, 0), pt(0, 1), pt(F(1, 2), F(1, 2))]
    assert len(table.points) == 3 and list(table.points) == want
    assert table.points[-1] == want[-1] and table.points[1:] == want[1:]
    assert table.points[2] is table.points[2]   # built once, on first read
    with pytest.raises(IndexError):
        table.points[3]


def carriers():
    """One instance of each built-in keyed carrier, with two of its points."""
    return [
        (Simplex(2), pt(1, 0), pt(0, 1)),
        (RealInterval(F(0), F(1)), pt(0), pt(1)),
        (SplitSpace(), split_a(1), split_b(1)),
        (RootTwoUnitInterval(), quad_pt(0), quad_pt(1, 0)),
    ]


def subclass(space, **body):
    cls = type(f"Sub{type(space).__name__}", (type(space),), body)
    return cls(*(getattr(space, name) for name in type(space).__match_args__))


@pytest.mark.parametrize("space, x, y", carriers())
def test_table_mixes_an_overridden_mix_through_it(space, x, y):
    # overriding `mix` alone takes the carrier off its keys
    left = subclass(space, mix=lambda self, x, lam, y: x)
    table = MixTable(left)
    i, j = table.number(x), table.number(y)
    assert table.points[table.mix(j, table.weight(F(1, 2)), i)] == y
    assert table.keys == [x, y]
    # overriding nothing, or `mix_key` with `mix`, keeps them
    both = {name: getattr_static(space, name) for name in ("mix", "mix_key")}
    for keyed in (subclass(space), subclass(space, **both)):
        table = MixTable(keyed)
        i, j = table.number(x), table.number(y)
        got = table.points[table.mix(i, table.weight(F(1, 2)), j)]
        assert_same_point(got, space.mix(x, F(1, 2), y))
        assert table.keys[0] == space.key(x)
