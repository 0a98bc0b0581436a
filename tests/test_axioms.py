import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefcheck import intervals as iv
from prefcheck.axioms import (
    EQUIV,
    WEAK,
    AxiomEngine,
    AxiomId,
    Universe,
)
from prefcheck.catalog import ENTRY_IDS, load_entry
from prefcheck.generate import fuzz_corpus
from prefcheck.intervals import (
    FULL,
    OPEN_UNIT,
    Interval,
    analyze,
    interval,
    point,
    representative,
    union,
)
from prefcheck.relations import (
    CLOSED,
    CONVEX,
    COVERS_OPEN_UNIT,
    FLIMSY_HIT,
    FRAGILE_HIT,
    FULL_SET,
    MEETS_OPEN_UNIT,
    OPEN,
    ComparisonOutcome,
    Label,
    MultiUtility,
    NotRepresentableError,
    PointwiseOnly,
    RelationModel,
    flag_bit,
)
from prefcheck.spaces import Point, RealInterval, pt
from prefcheck.verdicts import Status

from affine_regions import assemble_partition

F = Fraction


def entry_engine(eid):
    entry = load_entry(eid)
    return AxiomEngine(entry.relation, entry.universe)


# ---------------------------------------------------------------------------
# order axioms
# ---------------------------------------------------------------------------


def test_appx1_order_axioms():
    entry = load_entry("appx1")
    engine = entry_engine("appx1")
    assert engine.verdict("complete").failed
    w = engine.verdict("complete").witness
    assert entry.relation.compare(w["x"], w["y"]) is ComparisonOutcome.INCOMPARABLE
    assert engine.verdict("transitive").passed
    assert engine.verdict("nontrivial").passed


def test_single_utility_is_total_preorder():
    rel = MultiUtility(((0, 1, 2),))
    engine = AxiomEngine(rel, Universe(tuple(rel.space.vertices())))
    for name in ("complete", "transitive", "semi_transitive"):
        assert engine.verdict(name).passed


def test_pareto_incompleteness_witnessed():
    engine = entry_engine("pareto2")
    assert engine.verdict("complete").failed
    assert engine.verdict("transitive").passed
    assert engine.verdict("nontrivial").passed


@st.composite
def outcome_tables(draw):
    """2-5 points and an arbitrary comparison outcome for every ordered pair."""
    points = [pt(i) for i in range(draw(st.integers(2, 5)))]
    outcomes = st.sampled_from(list(ComparisonOutcome))
    return points, {(x, y): draw(outcomes) for x in points for y in points}


def _order_verdicts_by_definition(compare, points):
    """(status, witness) of every order axiom, and of the strict part's
    negative transitivity, from the first `product` tuple, in scan order,
    that breaks its defining formula; nontrivial is existential and holds
    on the first strict pair."""
    def weak(x, y):
        return compare(x, y) in (ComparisonOutcome.BETTER, ComparisonOutcome.EQUIVALENT)

    def strict(x, y):
        return compare(x, y) is ComparisonOutcome.BETTER

    def equiv(x, y):
        return compare(x, y) is ComparisonOutcome.EQUIVALENT

    def first(arity, broken):
        for t in product(points, repeat=arity):
            if broken(*t):
                return dict(zip("xyz", t))
        return None

    fails_on = {
        "reflexive": first(1, lambda x: not equiv(x, x)),
        "complete": first(2, lambda x, y: compare(x, y) is ComparisonOutcome.INCOMPARABLE),
        "anti_symmetric": first(2, lambda x, y: x != y and equiv(x, y)),
        "transitive": first(
            3, lambda x, y, z: weak(x, y) and weak(y, z) and not weak(x, z)),
        "negatively_transitive": first(
            3, lambda x, y, z: not weak(x, y) and not weak(y, z) and weak(x, z)),
        "semi_transitive_down": first(
            3, lambda x, y, z: strict(x, y) and equiv(y, z) and not strict(x, z)),
        "semi_transitive_up": first(
            3, lambda x, y, z: equiv(x, y) and strict(y, z) and not strict(x, z)),
        "transitive_sym": first(
            3, lambda x, y, z: equiv(x, y) and equiv(y, z) and not equiv(x, z)),
        "transitive_strict": first(
            3, lambda x, y, z: strict(x, y) and strict(y, z) and not strict(x, z)),
        "negatively_transitive_strict": first(
            3, lambda x, y, z: not strict(x, y) and not strict(y, z) and strict(x, z)),
    }
    fails_on["semi_transitive"] = (fails_on["semi_transitive_down"]
                                   or fails_on["semi_transitive_up"])
    out = {name: (Status.FAILS if witness else Status.HOLDS, witness)
           for name, witness in fails_on.items()}
    strict_pair = first(2, strict)
    out["nontrivial"] = (Status.HOLDS if strict_pair else Status.FAILS, strict_pair)
    return out


def _verdict(engine, name):
    if name == "negatively_transitive_strict":
        return engine.negatively_transitive_strict()
    return engine.verdict(name)


@settings(max_examples=300, deadline=None)
@given(outcome_tables())
def test_order_verdicts_match_their_definitions(case):
    """Every order axiom's status and witness equal the first tuple, in
    scan order, that breaks the axiom's defining formula."""
    points, table = case
    rel = PointwiseOnly("table", RealInterval(F(0), F(4)), lambda x, y: table[x, y])
    engine = AxiomEngine(rel, Universe(tuple(points), closure_depth=0))
    expected = _order_verdicts_by_definition(lambda x, y: table[x, y], points)
    for name, (status, witness) in expected.items():
        verdict = _verdict(engine, name)
        assert verdict.status is status, name
        assert verdict.witness == witness, name


def test_semi_transitive_is_conjunction_of_halves(entry_engines):
    for engine in entry_engines.values():
        combined = engine.verdict(AxiomId.SEMI_TRANSITIVE)
        up = engine.verdict(AxiomId.SEMI_TRANSITIVE_UP)
        down = engine.verdict(AxiomId.SEMI_TRANSITIVE_DOWN)
        assert combined.passed == (up.passed and down.passed)


# ---------------------------------------------------------------------------
# continuity and interior-weight axioms
# ---------------------------------------------------------------------------


def test_mixture_continuity_verdicts():
    assert entry_engine("appx1").verdict(AxiomId.MIXTURE_CONTINUOUS).passed

    appx3 = load_entry("appx3")
    verdict = entry_engine("appx3").verdict(AxiomId.MIXTURE_CONTINUOUS)
    assert verdict.failed
    # the weak lower section at (0, 1, 0) is a half-open interval
    sec = appx3.relation.section(pt(0), pt(1), pt(0), "le")
    assert sec == interval(F(1, 2), 1, False, True)
    assert not analyze(sec).is_closed

    assert entry_engine("eu3").verdict(AxiomId.MIXTURE_CONTINUOUS).passed


def test_archimedean_verdicts():
    verdict = entry_engine("appx1").verdict(AxiomId.ARCHIMEDEAN)
    assert verdict.failed
    w = verdict.witness
    assert w["x"] == pt(1) and w["y"] == pt(0)
    # no interior weight keeps the mixture strictly above the bottom
    assert iv.intersect(w["section"], OPEN_UNIT).is_empty()

    assert entry_engine("eu3").verdict(AxiomId.ARCHIMEDEAN).passed

    assert entry_engine("fragile_unit").verdict(AxiomId.ARCHIMEDEAN).failed


def test_strong_archimedean_verdicts():
    appx3 = load_entry("appx3")
    verdict = entry_engine("appx3").verdict(AxiomId.STRONG_ARCHIMEDEAN)
    assert verdict.failed
    w = verdict.witness
    assert (w["x"], w["y"], w["z"]) == (pt(F(1, 2)), pt(0), pt(0))
    assert appx3.relation.section(pt(F(1, 2)), pt(0), pt(0), "gt") == point(1)

    vacuous = entry_engine("appx2").verdict(AxiomId.STRONG_ARCHIMEDEAN)
    assert vacuous.passed and "vacuous" in vacuous.note

    assert entry_engine("eu3").verdict(AxiomId.STRONG_ARCHIMEDEAN).passed


def test_archimedean_tie_rule():
    """Per target the upper half is tried before the lower half: where the
    first misses of both halves fall on one target, strong Archimedean
    reports the upper half.  Plain Archimedean names a lower-half partner w."""
    # u(z) - u(y) = (-1, 1, 0) and u(x) - u(y) = (0, 0, 1): z is incomparable
    # to x and y, x z never rises above y, and y z never sinks below x
    rel = MultiUtility(((-1, 0, 0), (1, 0, 0), (0, 1, 0)))
    z, x, y = rel.space.vertices()
    engine = _assert_verdicts_match(rel, Universe((z, x, y), closure_depth=0))
    assert engine.strict_pairs() == [(1, 2)]
    strong = engine.verdict(AxiomId.STRONG_ARCHIMEDEAN)
    assert strong.failed
    assert strong.note == "no interior weight keeps x-side strictly above y"
    assert strong.witness == {"x": x, "y": y, "z": z,
                              "section": rel.section(x, z, y, "gt")}
    assert rel.section(y, z, x, "lt") == point(1)

    # w is incomparable to x only and above y, so only the lower half asks
    # for it, and y w never sinks below x
    rel = MultiUtility(((0, 0, 1), (1, 0, 0)))
    x, y, w = rel.space.vertices()
    engine = _assert_verdicts_match(rel, Universe((x, y, w), closure_depth=0))
    plain = engine.verdict(AxiomId.ARCHIMEDEAN)
    assert plain.failed
    assert plain.note == "no interior weight keeps y-side strictly below x"
    assert plain.witness == {"x": x, "y": y, "w": w,
                             "section": rel.section(y, w, x, "lt")}


def test_pointwise_strong_archimedean_for_quadratic_entry():
    engine = entry_engine("appx4_rationals")
    verdict = engine.verdict(AxiomId.STRONG_ARCHIMEDEAN)
    assert verdict.status is Status.HOLDS
    assert verdict.note == "pointwise witness search"
    assert engine.verdict(AxiomId.MIXTURE_CONTINUOUS).status \
        is Status.NOT_APPLICABLE


def test_pointwise_weights_are_asked_once_per_pair():
    """lam depends on (x, z) and delta on (y, z): on appx4's closure the
    hooks run once per distinct x (or y) and target, not once per triple."""
    entry = load_entry("appx4_rationals")
    upper, lower = entry.relation.strong_weights
    calls = {"upper": 0, "lower": 0}

    def counted(name, hook):
        def wrapped(a, z):
            calls[name] += 1
            return hook(a, z)
        return wrapped

    rel = PointwiseOnly("appx4_rationals", entry.space, entry.relation.compare,
                        strong_weights=(counted("upper", upper), counted("lower", lower)))
    engine = AxiomEngine(rel, entry.universe)
    verdict = engine.verdict(AxiomId.STRONG_ARCHIMEDEAN)
    assert verdict.status is Status.HOLDS
    assert verdict.note == "pointwise witness search"
    n, pairs = len(engine.points), engine.strict_pairs()
    assert (n, len(pairs)) == (19, 70)
    xs, ys = {i for i, _ in pairs}, {j for _, j in pairs}
    assert (len(xs), len(ys)) == (5, 14)
    assert calls["upper"] <= len(xs) * n
    assert calls["lower"] <= len(ys) * n


def _by_value(u, v):
    a, b = u.coords[0], v.coords[0]
    if a == b:
        return ComparisonOutcome.EQUIVALENT
    return ComparisonOutcome.BETTER if a > b else ComparisonOutcome.WORSE


def _pointwise_strong(values, strong_weights):
    rel = PointwiseOnly("by_value", RealInterval(F(0), F(4)), _by_value,
                        strong_weights=strong_weights)
    engine = AxiomEngine(rel, Universe(tuple(pt(v) for v in values), closure_depth=0))
    return engine.verdict(AxiomId.STRONG_ARCHIMEDEAN)


def _const(w):
    return lambda a, z: w


def test_pointwise_strong_archimedean_reasons():
    half = _const(F(1, 2))
    held = _pointwise_strong((0, 4), (half, half))
    assert held.status is Status.HOLDS
    assert held.note == "pointwise witness search"

    def reason(values, weights):
        verdict = _pointwise_strong(values, weights)
        assert verdict.status is Status.NOT_APPLICABLE
        return verdict.note

    assert reason((0, 4), None) == "no segment oracle and no pointwise witness constructor"
    inconclusive = "pointwise witness search inconclusive"
    assert reason((0, 4), (_const(None), half)) == inconclusive
    assert reason((0, 4), (half, _const(None))) == inconclusive
    failed = "pointwise witness failed verification"
    for w in (F(0), F(1)):
        assert reason((0, 4), (_const(w), half)) == failed
        assert reason((0, 4), (half, _const(w))) == failed


def test_pointwise_weight_is_verified_against_every_partner():
    # upper(4, 0) = 1/2 gives 4 (1/2) 0 = 2: above y = 0, not above y = 3
    def upper(x, z):
        return F(1, 2) if z.coords[0] == 0 else F(1, 10)

    half = _const(F(1, 2))
    assert _pointwise_strong((0, 4), (upper, half)).status is Status.HOLDS
    verdict = _pointwise_strong((0, 3, 4), (upper, half))
    assert verdict.status is Status.NOT_APPLICABLE
    assert verdict.note == "pointwise witness failed verification"


def test_open_strict_sections_verdicts():
    appx1 = load_entry("appx1")
    assert entry_engine("appx1").verdict(AxiomId.OPEN_STRICT_SECTIONS).failed
    assert appx1.relation.section(pt(1), pt(0), pt(0), "gt") == point(1)

    # appx2 has no strict part at all
    assert entry_engine("appx2").verdict(AxiomId.OPEN_STRICT_SECTIONS).passed

    assert entry_engine("eu3").verdict(AxiomId.OPEN_STRICT_SECTIONS).passed


def test_open_incomparable_sections_verdicts():
    appx2 = load_entry("appx2")
    verdict = entry_engine("appx2").verdict(AxiomId.OPEN_INCOMPARABLE_SECTIONS)
    assert verdict.failed
    assert appx2.relation.section(pt(1), pt(0), pt(0), "incomparable") \
        == interval(F(1, 2), 1)

    # appx3 is complete: no incomparability anywhere
    assert entry_engine("appx3").verdict(AxiomId.OPEN_INCOMPARABLE_SECTIONS).passed

    assert entry_engine("appx1").verdict(AxiomId.OPEN_INCOMPARABLE_SECTIONS).passed


# ---------------------------------------------------------------------------
# convexity family
# ---------------------------------------------------------------------------


def test_star_convex_but_not_convex():
    engine = entry_engine("star_cvx_not_cvx")
    assert engine.verdict("star_convex").passed
    convex = engine.verdict("convex")
    assert convex.failed
    e1, e2, e3 = pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)
    assert (convex.witness["x"], convex.witness["y"], convex.witness["z"]) \
        == (e1, e3, e2)
    assert convex.witness["lam"] == F(1, 2)


def test_single_utility_convexity_family():
    rel = MultiUtility(((0, 1, 2),))
    engine = AxiomEngine(rel, Universe(tuple(rel.space.vertices())))
    for name in ("linear", "convex", "concave"):
        assert engine.verdict(name).passed


def test_linear_check_requires_lemma_hypotheses():
    # a relation with intransitive indifference gets no linearity verdict
    from prefcheck.relations import CatalogPiecewise
    from prefcheck.spaces import RealInterval

    def cmp(u, v):
        gap = abs(u.coords[0] - v.coords[0])
        return (ComparisonOutcome.EQUIVALENT if gap <= F(1, 4)
                else ComparisonOutcome.INCOMPARABLE)

    def cuts(z):
        return ((z.coords[0] - F(1, 4), z.coords[0] + F(1, 4)),)

    rel = CatalogPiecewise("near", RealInterval(F(0), F(1)), cmp, cuts)
    engine = AxiomEngine(rel, Universe((pt(0), pt(F(1, 2)), pt(1))))
    assert engine.verdict("linear").status is Status.NOT_APPLICABLE


# ---------------------------------------------------------------------------
# independence, fragility, flimsiness
# ---------------------------------------------------------------------------


def test_independence_verdicts():
    verdict = entry_engine("split_hm").verdict(AxiomId.INDEPENDENT)
    assert verdict.status is Status.SAMPLED

    rel = MultiUtility(((2, 1, 0), (0, 1, 3)))
    analytic = AxiomEngine(rel, Universe(tuple(rel.space.vertices()))).verdict(
        AxiomId.INDEPENDENT)
    assert analytic.status is Status.HOLDS

    appx3 = load_entry("appx3")
    broken = entry_engine("appx3").verdict(AxiomId.INDEPENDENT)
    assert broken.failed
    w = broken.witness
    mixed_x = appx3.space.mix(w["x"], w["lam"], w["z"])
    mixed_y = appx3.space.mix(w["y"], w["lam"], w["z"])
    same = appx3.relation.compare(w["x"], w["y"]) is ComparisonOutcome.EQUIVALENT
    mixed_same = appx3.relation.compare(mixed_x, mixed_y) is ComparisonOutcome.EQUIVALENT
    assert same != mixed_same


def test_fragile_unit_is_fragile():
    entry = load_entry("fragile_unit")
    verdict = entry_engine("fragile_unit").verdict(AxiomId.FRAGILE)
    assert verdict.status is Status.HOLDS
    # the defining set computation at the sure-thing triple
    part = entry.relation.segment(pt(1), pt(0), pt(0))
    assert part.section("gt") == point(1)
    bowtie = part.section("incomparable")
    assert iv.interior(bowtie) == interval(0, 1, False, False)
    assert iv.closure(iv.interior(bowtie)) == FULL


def test_complete_relations_are_not_fragile_or_flimsy():
    for eid in ("eu3", "appx3", "split_hm"):
        engine = entry_engine(eid)
        assert engine.verdict(AxiomId.FRAGILE).failed
        assert engine.verdict(AxiomId.FLIMSY).failed


def test_pareto_is_fragile_with_reverifiable_witness():
    entry = load_entry("pareto2")
    verdict = entry_engine("pareto2").verdict(AxiomId.FRAGILE)
    assert verdict.status is Status.HOLDS
    w = verdict.witness
    part = entry.relation.segment(w["x"], w["y"], w["z"])
    strict = iv.union(part.section("gt"), part.section("lt"))
    target = iv.closure(iv.interior(part.section("incomparable")))
    assert w["lam"] in iv.intersect(strict, target)


def test_flimsy_0_3_is_flimsy():
    entry = load_entry("flimsy_0_3")
    verdict = entry_engine("flimsy_0_3").verdict(AxiomId.FLIMSY)
    assert verdict.status is Status.HOLDS
    part = entry.relation.segment(pt(3), pt(0), pt(0))
    bowtie = part.section("incomparable")
    assert bowtie == interval(F(1, 3), F(2, 3))
    comparable = iv.union(part.section("ge"), part.section("le"))
    hit = iv.intersect(bowtie, iv.closure(comparable))
    assert hit == union(point(F(1, 3)), point(F(2, 3)))
    assert entry_engine("flimsy_0_3").verdict(AxiomId.FRAGILE).failed


def test_fragility_matches_shrinking_neighborhood_test(entry_engines):
    """Set form == neighborhood form on ten dyadic neighborhoods."""
    for eid, engine in entry_engines.items():
        verdict = engine.verdict(AxiomId.FRAGILE)
        if verdict.status is not Status.HOLDS:
            continue
        w = verdict.witness
        part = engine.rel.segment(w["x"], w["y"], w["z"])
        bowtie = part.section("incomparable")
        lam = w["lam"]
        for k in range(1, 11):
            eps = F(1, 2 ** k)
            lo = max(iv.ZERO, lam - eps)
            hi = min(iv.ONE, lam + eps)
            nbhd = interval(lo, hi, lo == 0, hi == 1)
            inside = iv.intersect(nbhd, iv.interior(bowtie))
            assert not iv.interior(inside).is_empty() or not inside.is_empty()
            # the open core of the neighborhood meets open incomparability
            assert not iv.intersect(iv.interior(nbhd), iv.interior(bowtie)).is_empty()


# ---------------------------------------------------------------------------
# every failing verdict re-verifies against the defining formula
# ---------------------------------------------------------------------------


def _reverify(engine, name, verdict):
    w = verdict.witness
    rel, space = engine.rel, engine.space

    def weak(x, y):
        return bool(engine.compare(x, y).bit & WEAK)

    def strict(x, y):
        return engine.compare(x, y) is ComparisonOutcome.BETTER

    def equiv(x, y):
        return engine.compare(x, y) is ComparisonOutcome.EQUIVALENT

    def incomparable(x, y):
        return engine.compare(x, y) is ComparisonOutcome.INCOMPARABLE

    if name == "reflexive":
        return not equiv(w["x"], w["x"])
    if name == "complete":
        return incomparable(w["x"], w["y"])
    if name == "transitive":
        return weak(w["x"], w["y"]) and weak(w["y"], w["z"]) and not weak(w["x"], w["z"])
    if name == "negatively_transitive":
        return (not weak(w["x"], w["y"]) and not weak(w["y"], w["z"])
                and weak(w["x"], w["z"]))
    if name in ("semi_transitive", "semi_transitive_down"):
        down = (strict(w["x"], w["y"]) and equiv(w["y"], w["z"])
                and not strict(w["x"], w["z"]))
        if name == "semi_transitive_down":
            return down
        up = (equiv(w["x"], w["y"]) and strict(w["y"], w["z"])
              and not strict(w["x"], w["z"]))
        return down or up
    if name == "semi_transitive_up":
        return (equiv(w["x"], w["y"]) and strict(w["y"], w["z"])
                and not strict(w["x"], w["z"]))
    if name == "transitive_sym":
        return equiv(w["x"], w["y"]) and equiv(w["y"], w["z"]) and not equiv(w["x"], w["z"])
    if name == "transitive_strict":
        return strict(w["x"], w["y"]) and strict(w["y"], w["z"]) and not strict(w["x"], w["z"])
    if name == "anti_symmetric":
        return w["x"] != w["y"] and equiv(w["x"], w["y"])
    if name == "mixture_continuous":
        sec = rel.section(w["x"], w["y"], w["z"], w["which"])
        return not analyze(sec).is_closed
    if name == "open_strict_sections":
        sec = rel.section(w["x"], w["y"], w["z"], w["which"])
        return not analyze(sec).is_open
    if name == "open_incomparable_sections":
        sec = rel.section(w["x"], w["y"], w["z"], "incomparable")
        return not analyze(sec).is_open
    if name == "archimedean":
        if "z" in w:
            return (strict(w["x"], w["y"])
                    and incomparable(w["y"], w["z"])
                    and iv.intersect(rel.section(w["x"], w["z"], w["y"], "gt"),
                                     OPEN_UNIT).is_empty())
        return (strict(w["x"], w["y"])
                and incomparable(w["x"], w["w"])
                and iv.intersect(rel.section(w["y"], w["w"], w["x"], "lt"),
                                 OPEN_UNIT).is_empty())
    if name == "strong_archimedean":
        above = iv.intersect(rel.section(w["x"], w["z"], w["y"], "gt"), OPEN_UNIT)
        below = iv.intersect(rel.section(w["y"], w["z"], w["x"], "lt"), OPEN_UNIT)
        return strict(w["x"], w["y"]) and (above.is_empty() or below.is_empty())
    if name == "convex":
        return (weak(w["x"], w["z"]) and weak(w["y"], w["z"])
                and w["lam"] not in rel.section(w["x"], w["y"], w["z"], "ge"))
    if name == "concave":
        return (weak(w["z"], w["x"]) and weak(w["z"], w["y"])
                and w["lam"] not in rel.section(w["x"], w["y"], w["z"], "le"))
    if name == "star_convex":
        return (w["x"] != w["y"] and weak(w["x"], w["y"])
                and w["lam"] not in rel.section(w["x"], w["y"], w["y"], "gt"))
    if name == "star_concave":
        return (w["x"] != w["y"] and weak(w["y"], w["x"])
                and w["lam"] not in rel.section(w["x"], w["y"], w["y"], "lt"))
    if name == "linear":
        return not analyze(rel.section(w["x"], w["y"], w["z"], "eq")).is_convex
    if name == "independent":
        mixed_x = space.mix(w["x"], w["lam"], w["z"])
        mixed_y = space.mix(w["y"], w["lam"], w["z"])
        return equiv(w["x"], w["y"]) != (
            rel.compare(mixed_x, mixed_y) is ComparisonOutcome.EQUIVALENT
        )
    if name == "fragile":
        part = rel.segment(w["x"], w["y"], w["z"])
        strict_set = iv.union(part.section("gt"), part.section("lt"))
        target = iv.closure(iv.interior(part.section("incomparable")))
        return w["lam"] in iv.intersect(strict_set, target)
    if name == "flimsy":
        part = rel.segment(w["x"], w["y"], w["z"])
        comparable = iv.union(part.section("ge"), part.section("le"))
        return w["lam"] in iv.intersect(part.section("incomparable"),
                                        iv.closure(comparable))
    raise AssertionError(f"no reverifier for {name}")


def test_every_witnessed_verdict_reverifies(entry_engines):
    checked = 0
    for eid, engine in entry_engines.items():
        for name, verdict in engine.all_verdicts().items():
            if verdict.witness is None:
                continue
            if verdict.status is Status.HOLDS and name not in ("fragile", "flimsy"):
                continue  # existential holds (nontrivial) checked elsewhere
            assert _reverify(engine, name, verdict), (eid, name, verdict)
            checked += 1
    assert checked > 25


# ---------------------------------------------------------------------------
# section axioms against their definitions
# ---------------------------------------------------------------------------


def _section_verdicts_by_definition(rel, pts):
    """(status, witness) of every section axiom from the first `product`
    tuple whose partition flags (`rel.segment(...).flags`) break it; for
    the ge/le section-convexity scans (`lemma1_suite`) the triple alone.
    The two Archimedean axioms also give their note, which names the side."""
    better = ComparisonOutcome.BETTER

    def flags(x, y, z):
        return rel.segment(x, y, z).flags

    def weak(x, y):
        return rel.compare(x, y) in (better, ComparisonOutcome.EQUIVALENT)

    def first(tuples, broken):
        return next((t for t in tuples if broken(*t)), None)

    out = {}
    for name, props in (
        ("mixture_continuous", (("ge", CLOSED), ("le", CLOSED))),
        ("open_strict_sections", (("gt", OPEN), ("lt", OPEN))),
        ("open_incomparable_sections", (("incomparable", OPEN),)),
        ("linear", (("eq", CONVEX),)),
        ("ge", (("ge", CONVEX),)),
        ("le", (("le", CONVEX),)),
    ):
        def lacking(x, y, z, props=props):
            return next((w for w, p in props if not flags(x, y, z) & flag_bit(w, p)), None)

        t = first(product(pts, repeat=3), lacking)
        witness = None
        if t:
            which = lacking(*t)
            witness = dict(zip("xyz", t))
            if len(props) > 1:
                witness["which"] = which
            witness["section"] = rel.section(*t, which)
        out[name] = (Status.FAILS if t else Status.HOLDS, witness)

    for name, which, above in (("convex", "ge", True), ("concave", "le", False)):
        def broken(x, y, z, which=which, above=above):
            both = weak(x, z) and weak(y, z) if above else weak(z, x) and weak(z, y)
            return both and not flags(x, y, z) & flag_bit(which, FULL_SET)

        t = first(product(pts, repeat=3), broken)
        out[name] = (Status.FAILS, {
            **dict(zip("xyz", t)),
            "lam": representative(iv.complement(rel.section(*t, which)))},
        ) if t else (Status.HOLDS, None)

    for name, which, above in (("star_convex", "gt", True), ("star_concave", "lt", False)):
        def broken(x, y, which=which, above=above):
            return (x != y and (weak(x, y) if above else weak(y, x))
                    and not flags(x, y, y) & flag_bit(which, COVERS_OPEN_UNIT))

        t = first(product(pts, repeat=2), broken)
        out[name] = (Status.FAILS, {
            "x": t[0], "y": t[1],
            "lam": representative(
                iv.difference(OPEN_UNIT, rel.section(t[0], t[1], t[1], which)))},
        ) if t else (Status.HOLDS, None)

    gt_meets, lt_meets = flag_bit("gt", MEETS_OPEN_UNIT), flag_bit("lt", MEETS_OPEN_UNIT)
    side_note = {"g": "no interior weight keeps x-side strictly above y",
                 "l": "no interior weight keeps y-side strictly below x"}
    pairs = [(x, y) for x, y in product(pts, repeat=2) if rel.compare(x, y) is better]
    # strong: every z, upper half before lower half
    t = first(((x, y, z, half) for (x, y), z, half in product(pairs, pts, "gl")),
              lambda x, y, z, half: not (flags(x, z, y) & gt_meets if half == "g"
                                         else flags(y, z, x) & lt_meets))
    out["strong_archimedean"] = (Status.FAILS, {
        "x": t[0], "y": t[1], "z": t[2],
        "section": (rel.section(t[0], t[2], t[1], "gt") if t[3] == "g"
                    else rel.section(t[1], t[2], t[0], "lt"))}, side_note[t[3]],
    ) if t else (Status.HOLDS, None, None if pairs else "vacuous: no strict pair")
    # plain: z runs over y's incomparable partners, then w over x's
    partners = {p: [q for q in pts if rel.compare(p, q) is ComparisonOutcome.INCOMPARABLE]
                for p in pts}
    t = first(((x, y, half, v) for x, y in pairs
               for half, v in [*(("g", z) for z in partners[y]),
                               *(("l", w) for w in partners[x])]),
              lambda x, y, half, v: not (flags(x, v, y) & gt_meets if half == "g"
                                         else flags(y, v, x) & lt_meets))
    if t is None:
        guarded = any(partners[x] or partners[y] for x, y in pairs)
        out["archimedean"] = (Status.HOLDS, None,
                              None if guarded else "vacuous: no qualifying tuple")
    elif t[2] == "g":
        out["archimedean"] = (Status.FAILS, {
            "x": t[0], "y": t[1], "z": t[3], "section": rel.section(t[0], t[3], t[1], "gt")},
            side_note["g"])
    else:
        out["archimedean"] = (Status.FAILS, {
            "x": t[0], "y": t[1], "w": t[3], "section": rel.section(t[1], t[3], t[0], "lt")},
            side_note["l"])

    # existential: the first hit holds, witnessed by its triple
    for name, bit in (("fragile", FRAGILE_HIT), ("flimsy", FLIMSY_HIT)):
        t = first(product(pts, repeat=3), lambda x, y, z, bit=bit: flags(x, y, z) & bit)
        out[name] = (Status.HOLDS, dict(zip("xyz", t))) if t else (Status.FAILS, None)
    return out


def _assert_verdicts_match(rel, universe):
    """The engine's order and section verdicts, read from its outcome and
    flag-row tables, equal those of the brute-force scans over `rel.compare`
    and `rel.segment(...).flags`, first witness included."""
    engine = AxiomEngine(rel, universe)
    expected = _order_verdicts_by_definition(rel.compare, engine.points)
    order = set(expected)
    if rel.has_segment_oracle:
        expected.update(_section_verdicts_by_definition(rel, engine.points))
        if not (expected["reflexive"][0] is expected["transitive_sym"][0] is Status.HOLDS):
            expected["linear"] = (Status.NOT_APPLICABLE, None)
        for which in ("ge", "le"):
            _, witness = expected.pop(which)
            bad = engine.first_section_failure(((which, CONVEX),))
            assert bad == (None if witness is None else
                           (witness["x"], witness["y"], witness["z"], which)), which
    for name, (status, witness, *note) in expected.items():
        verdict = _verdict(engine, name)
        assert verdict.status is status, name
        if note:  # the Archimedean side
            assert verdict.note == note[0], name
        if witness is None or name in order:
            assert verdict.witness == witness, name
        else:  # its leading keys, in order; `lam` is built from the section
            got = list(verdict.witness.items())[:len(witness)]
            assert got == list(witness.items()), name
    return engine


@st.composite
def multi_utility_universes(draw):
    """1-3 utility rows on a 2- or 3-simplex, and 2-6 points with small
    integer weights (so mixed denominators).

    Or else, half the time, three rows on the 3-simplex whose first two
    repeat an entry at the same two coordinates, and the simplex's vertices
    followed by 0-3 such points.  Two vertices can then tie in two rows and
    a third lie below them in one and above in the other, so that both
    Archimedean sides first miss at one target: about 1 drawn case in 8."""
    ties = draw(st.booleans())
    n = 3 if ties else draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=3 if ties else 1, max_size=3))
    points = []
    if ties:
        i, j = draw(st.permutations(range(n)))[:2]
        for row in rows[:2]:
            row[j] = row[i]
        points = [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
    for _ in range(draw(st.integers(0, 3) if ties else st.integers(2, 6))):
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        if not any(weights):
            weights[0] = 1
        points.append(Point(tuple(F(w, sum(weights)) for w in weights)))
    return rows, tuple(points)


@settings(max_examples=150, deadline=None)
@given(multi_utility_universes())
# both Archimedean sides miss first at one target: strong Archimedean must
# name the upper side, and plain Archimedean the lower side of its partner w
# (`test_archimedean_tie_rule`); drawn cases tie too, and these two always run
@example((((-1, 0, 0), (1, 0, 0), (0, 1, 0)), (pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))))
@example((((0, 0, 1), (1, 0, 0)), (pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))))
def test_multi_utility_section_verdicts_match_their_definitions(case):
    rows, points = case
    _assert_verdicts_match(MultiUtility(rows), Universe(points, closure_depth=0))


@pytest.mark.parametrize("eid", ENTRY_IDS)
def test_catalog_section_verdicts_match_their_definitions(eid):
    entry = load_entry(eid)
    _assert_verdicts_match(entry.relation, entry.universe)


class _ManyWords(RelationModel):
    """Points 0..n-1 of [0, n] with a seeded, not necessarily antisymmetric,
    outcome table.  The partitions of (i, j, k) and (j, i, k), mirrors of
    each other, are handed out in scan order from two-cut partitions with
    distinct flag words and no fragile weight, except the last triple's,
    which has one.  The pool is cycled so that at most `words` distinct
    words are handed out in all; with `words=None` every triple i <= j has
    its own."""

    kind = "many_words"

    def __init__(self, n, seed=0, words=256):
        super().__init__(RealInterval(F(0), F(n)))
        self.points = tuple(pt(i) for i in range(n))
        rng = random.Random(seed)
        self._table = {(x, y): ComparisonOutcome.EQUIVALENT if x == y
                       else rng.choice(list(ComparisonOutcome))
                       for x in self.points for y in self.points}
        cuts = (F(0), F(1, 3), F(2, 3), F(1))
        pieces = [piece for lo, hi in zip(cuts, cuts[1:])
                  for piece in (Interval(lo, lo), Interval(lo, hi, False, False))]
        pieces.append(Interval(F(1), F(1)))
        pool, seen = [], set()
        for labels in product(Label, repeat=len(pieces)):
            part = assemble_partition({
                label: iv.normalize([p for p, lab in zip(pieces, labels) if lab is label])
                for label in Label})
            if not part.flags & FRAGILE_HIT and part.flags not in seen:
                seen.add(part.flags)
                pool.append(part)
        fragile = assemble_partition({
            Label.STRICT_ABOVE: iv.interval(0, F(1, 2)),
            Label.INCOMPARABLE: iv.interval(F(1, 2), 1, False, True)})
        slots = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)]
        period = len(slots) if words is None else words - 1
        self._parts = {slot: pool[s % period] for s, slot in enumerate(slots)}
        self._parts[slots[-1]] = fragile

    def compare(self, x, y):
        return self._table[x, y]

    def classify_segment(self, x, y, z):
        i, j, k = (int(p.coords[0]) for p in (x, y, z))
        if i > j:
            return self._parts[j, i, k].mirrored()
        return self._parts[i, j, k]


def test_verdicts_match_past_255_flag_words():
    """All 256 distinct words that one byte per id can number; the fragile
    hit sits in the last row, met last."""
    rel = _ManyWords(9)
    engine = _assert_verdicts_match(rel, Universe(rel.points, closure_depth=0))
    assert len(engine._words) == 256
    assert engine.verdict("fragile").witness["x"] == rel.points[8]


def test_archimedean_scans_after_every_row_is_built():
    """Both Archimedean verdicts fail on `_ManyWords(9)`, and equal their
    definitions when `fragile` has first built every row (256 words)."""
    rel = _ManyWords(9)
    engine = AxiomEngine(rel, Universe(rel.points, closure_depth=0))
    engine.verdict("fragile")
    assert len(engine._words) == 256
    expected = _section_verdicts_by_definition(rel, engine.points)
    for name in ("archimedean", "strong_archimedean"):
        status, witness, note = expected[name]
        verdict = engine.verdict(name)
        assert status is Status.FAILS, name
        assert (verdict.status, verdict.witness, verdict.note) == (status, witness, note), name


def test_a_257th_flag_word_is_refused():
    """Every triple i <= j of `_ManyWords(9, words=None)` has its own word,
    405 in all: the row kernel refuses the 257th."""
    rel = _ManyWords(9, words=None)
    engine = AxiomEngine(rel, Universe(rel.points, closure_depth=0))
    with pytest.raises(NotRepresentableError, match="256"):
        engine.verdict("fragile")


@pytest.mark.parametrize("rel", [MultiUtility(((2, 1, 0), (0, 1, 3))), _ManyWords(9)],
                         ids=["lanes", "default_loop"])
def test_flag_rows_are_the_kernels_own(rel, monkeypatch):
    """The engine keeps every flag row as the relation's kernel returned it,
    and reads the ids through the kernel's own word list."""
    kernel, handed = {}, {}

    def segment_flag_rows(points):
        row, kernel["words"] = type(rel).segment_flag_rows(rel, points)

        def spy(i, j):
            got = handed[i, j] = row(i, j)
            return got

        return spy, kernel["words"]

    monkeypatch.setattr(rel, "segment_flag_rows", segment_flag_rows)
    if isinstance(rel, _ManyWords):
        universe = Universe(rel.points, closure_depth=0)
    else:
        universe = Universe((pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)))
    engine = AxiomEngine(rel, universe)
    for name in ("mixture_continuous", "fragile", "archimedean", "strong_archimedean",
                 "convex", "star_convex"):
        engine.verdict(name)
    assert engine._words is kernel["words"]
    assert len(handed) == len(engine._flag_rows)
    for (i, j), row in handed.items():
        assert engine.flag_row(i, j) is row
        assert engine.flag_row(j, i) is row


def _assert_convexity_scans_lazily(rel, universe):
    """`convex` and `concave` each compute, from a fresh engine, the flag
    rows of exactly the pairs i <= j met up to the witness whose points
    are both weakly above (below) some point."""
    for name, above in (("convex", True), ("concave", False)):
        engine = AxiomEngine(rel, universe)
        verdict = engine.verdict(name)
        p, n = engine.points, len(engine.points)
        weak = [sum(1 << k for k, z in enumerate(p)
                    if rel.compare(*((x, z) if above else (z, x)))
                    in (ComparisonOutcome.BETTER, ComparisonOutcome.EQUIVALENT))
                for x in p]
        stop = (n, n)
        if verdict.failed:
            stop = (p.index(verdict.witness["x"]), p.index(verdict.witness["y"]))
        assert set(engine._flag_rows) == {
            i * n + j for i in range(n) for j in range(i, n)
            if (i, j) <= stop and weak[i] & weak[j]}, name


def test_convexity_scans_skip_pairs_with_no_candidate():
    """On relations that no theorem decides: the line kernel's
    `star_cvx_not_cvx`, the ranked `split_hm` and the default loop."""
    for eid in ("star_cvx_not_cvx", "split_hm"):
        entry = load_entry(eid)
        _assert_convexity_scans_lazily(entry.relation, entry.universe)
    rel = _ManyWords(9)
    _assert_convexity_scans_lazily(rel, Universe(rel.points, closure_depth=0))


@settings(max_examples=50, deadline=None)
@given(multi_utility_universes())
def test_multi_utility_convexity_scans_skip_pairs_with_no_candidate(case):
    """Multi-utility `convex` and `concave` hold by theorem: each skips
    every pair, and a fresh engine builds no flag row."""
    rows, points = case
    for name in ("convex", "concave"):
        engine = AxiomEngine(MultiUtility(rows), Universe(points, closure_depth=0))
        assert engine.verdict(name).passed, name
        assert not engine._flag_rows and engine._row_kernel is None, name


def test_fuzz_corpus_theorem_verdicts_match_definitions_and_scans():
    """What `prefcheck fuzz` draws: every verdict, decided by theorem or
    scanned, equals the brute force over `rel.compare` and
    `rel.segment(...).flags`; and the engine's own row scans, run with each
    decided verdict's masks, find what the theorem says they must."""
    one_utility = 0
    for name, rel, universe in fuzz_corpus(15, 1):
        engine = _assert_verdicts_match(rel, universe)
        p, n = engine.points, len(engine.points)
        one = len(rel.utilities) == 1
        one_utility += one
        # mixture continuity, incomparable sections, linearity; one utility:
        # strict sections
        for props in ((("ge", CLOSED), ("le", CLOSED)), (("incomparable", OPEN),),
                      (("eq", CONVEX),), *([(("gt", OPEN), ("lt", OPEN))] if one else [])):
            assert engine.first_section_failure(props) is None, (name, props)
        # convex, concave
        for which, above in (("ge", True), ("le", False)):
            full = flag_bit(which, FULL_SET)
            among = engine.outcome_rows(WEAK, transposed=not above)
            assert engine.first_triple(full, full, among) is None, (name, which)
        # flimsy; one utility: fragile
        for hit in (FLIMSY_HIT, *([FRAGILE_HIT] if one else [])):
            assert engine.first_triple(hit, 0) is None, (name, hit)
        # star convexity fails first at the first distinct indifferent pair
        for which, above in (("gt", True), ("lt", False)):
            covers = flag_bit(which, COVERS_OPEN_UNIT)
            weak = engine.outcome_rows(WEAK, transposed=not above)
            first = next(((p[i], p[j]) for i in range(n) for j in range(n)
                          if i != j and weak[i] >> j & 1
                          and not engine.flag_word(i, j, j) & covers), None)
            assert first == engine.first_pair(EQUIV, distinct=True), (name, which)
        # one utility: strong Archimedean sides miss nowhere
        if one:
            for i, j in engine.strict_pairs():
                assert engine._least_misses(i, True)[j] == n, name
                assert engine._least_misses(j, False)[i] == n, name
    assert one_utility >= 2
