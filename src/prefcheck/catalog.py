"""Built-in relation fixtures with expected verdicts.

Each entry packages a carrier, a relation, a default universe, and the
verdicts the engine must reproduce on it.  A relation whose sections are
interval unions is a comparator plus its cut values, the values where each
comparison can change, or a mixture-affine ranking.  `run_catalog`
re-derives everything and reports any mismatch; it is the regression core
of the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import intervals as iv
from .axioms import AxiomEngine, Universe
from .intervals import SectionSet
from .quadratic import (
    QuadRat,
    RootTwoUnitInterval,
    is_rational_point,
    quad_pt,
)
from .records import field, record
from .relations import (
    CatalogPiecewise,
    ComparisonOutcome,
    MultiUtility,
    PointwiseOnly,
    RelationModel,
)
from .representation import calibrate, extreme_points, verify_representation
from .spaces import (
    MixtureSpace,
    Point,
    RealInterval,
    Simplex,
    SplitSpace,
    check_c1_c2,
    check_mixture_axioms,
    pt,
    quotient,
    split_a,
    split_b,
)
from .theorems import HarnessReport, run_all_theorems
from .verdicts import AxiomVerdict

F = Fraction
HALF = F(1, 2)

EQ = ComparisonOutcome.EQUIVALENT
BETTER = ComparisonOutcome.BETTER
WORSE = ComparisonOutcome.WORSE
BOWTIE = ComparisonOutcome.INCOMPARABLE


class UnknownEntryError(ValueError):
    pass


@record(frozen=True)
class SectionCheck:
    x: Point
    y: Point
    z: Point
    which: str
    expected: SectionSet


@record
class CatalogEntry:
    id: str
    space: MixtureSpace
    relation: RelationModel
    universe: Universe
    expectations: dict[str, str]
    space_expectations: dict[str, str] = field(default_factory=dict)
    section_checks: tuple[SectionCheck, ...] = ()
    run_quotient_representation: bool = False
    notes: str = ""


# ---------------------------------------------------------------------------
# Relations on real-interval carriers.  Each declares the values where
# compare(., z) can change: z's coordinate and the ends of the relation's
# blocks, the carrier's ends included.
# ---------------------------------------------------------------------------


def _appx1_compare(u: Point, v: Point) -> ComparisonOutcome:
    a, b = u.coords[0], v.coords[0]
    if a == b:
        return EQ
    if a == 1:
        return BETTER
    if b == 1:
        return WORSE
    return BOWTIE


def _appx1_cuts(z: Point) -> tuple:
    return ((z.coords[0], iv.ONE),)


def _appx2_compare(u: Point, v: Point) -> ComparisonOutcome:
    a, b = u.coords[0], v.coords[0]
    if a == b:
        return EQ
    if a < HALF and b < HALF:
        return EQ
    return BOWTIE


def _appx2_cuts(z: Point) -> tuple:
    return ((z.coords[0], HALF),)


def _appx3_block(v: Fraction) -> int:
    return 0 if v < HALF else 1


def _appx3_compare(u: Point, v: Point) -> ComparisonOutcome:
    bu, bv = _appx3_block(u.coords[0]), _appx3_block(v.coords[0])
    if bu == bv:
        return EQ
    return BETTER if bu > bv else WORSE


def _appx3_cuts(z: Point) -> tuple:
    return ((HALF,),)


def _fragile_compare(u: Point, v: Point) -> ComparisonOutcome:
    a, b = u.coords[0], v.coords[0]
    if a == b:
        return EQ
    if a == 1 and b == 0:
        return BETTER
    if a == 0 and b == 1:
        return WORSE
    return BOWTIE


def _fragile_cuts(z: Point) -> tuple:
    return ((z.coords[0], iv.ZERO, iv.ONE),)


def _flimsy_block(v: Fraction) -> int:
    if v < 1:
        return 0
    if v > 2:
        return 2
    return 1


def _flimsy_compare(u: Point, v: Point) -> ComparisonOutcome:
    a, b = u.coords[0], v.coords[0]
    if a == b:
        return EQ
    bu, bv = _flimsy_block(a), _flimsy_block(b)
    if bu == 1 or bv == 1:
        return BOWTIE
    if bu == bv:
        return EQ
    return BETTER if bu > bv else WORSE


def _flimsy_cuts(z: Point) -> tuple:
    return ((z.coords[0], F(1), F(2)),)


# ---------------------------------------------------------------------------
# Star-shaped relation on the triangle: two edges strictly beat the shared
# vertex, nothing else is comparable.
# ---------------------------------------------------------------------------

_E1 = pt(1, 0, 0)
_E2 = pt(0, 1, 0)
_E3 = pt(0, 0, 1)


def _on_star(p: Point) -> bool:
    return (p.coords[2] == 0 and p.coords[0] > 0) or (
        p.coords[0] == 0 and p.coords[2] > 0
    )


def _star_compare(u: Point, v: Point) -> ComparisonOutcome:
    if u == v:
        return EQ
    if v == _E2 and _on_star(u):
        return BETTER
    if u == _E2 and _on_star(v):
        return WORSE
    return BOWTIE


def _star_cuts(z: Point) -> list:
    # being on the star reads the signs of the first and last coordinates,
    # u == z every coordinate against z's; u == E2 where both of those are 0
    return [(iv.ZERO, c) for c in z.coords]


# ---------------------------------------------------------------------------
# Split space: two arms glued at the origin, ranked by an affine coordinate
# ---------------------------------------------------------------------------


def _split_value(p: Point) -> Fraction:
    """The ranking v: a B point's coordinate, 0 on the A arm.

    `SplitSpace.mix` keeps v mixture-affine.  Within an arm the mix is
    convex; a`lam`b is B((1-lam)*s_b), or a at lam = 1; b`lam`a is
    B(lam*s_b), or a at lam = 0; and a B mixture that lands on coordinate
    0 is the A origin, where v = 0.
    """
    return p.coords[0] if p.part == "B" else iv.ZERO


# ---------------------------------------------------------------------------
# Rational-versus-irrational relation on [0,1] over Q(sqrt(2)) coordinates
# ---------------------------------------------------------------------------


def _rats_compare(u: Point, v: Point) -> ComparisonOutcome:
    ru, rv = is_rational_point(u), is_rational_point(v)
    if ru == rv:
        return EQ
    return BETTER if ru else WORSE


def _rats_upper_weight(x: Point, z: Point):
    """A weight lam with  x lam z  rational, for a rational x.

    For irrational z the weight must itself be quadratic: lam = p + q*sqrt(2)
    with the sqrt(2) part of the mixture cancelled exactly.
    """
    if z.coords[1] == 0:
        return F(1, 2)
    ax, az, bz = x.coords[0], z.coords[0], z.coords[1]
    if ax == az:
        return QuadRat(F(1), F(-1, 2))
    c = bz / (ax - az)
    for k in range(1, 80):
        for p in (1 - F(1, 2**k), 1 + F(1, 2**k)):
            lam = QuadRat(p, (p - 1) * c)
            if 0 < lam < 1:
                return lam
    return None  # pragma: no cover - the ladder always lands inside (0,1)


def _rats_lower_weight(y: Point, z: Point):
    """A weight delta with  y delta z  irrational, for an irrational y."""
    for d in (F(1, 2), F(1, 3)):
        if d * y.coords[1] + (1 - d) * z.coords[1] != 0:
            return d
    return None  # pragma: no cover - needs y and z both rational


# ---------------------------------------------------------------------------
# Entry builders
# ---------------------------------------------------------------------------

_UNIT_POINTS = (pt(0), pt(HALF), pt(1))

_H = "holds"
_F = "fails"
_S = "sampled"
_NA = "not_applicable"

_ORDER_BASE = {
    "reflexive": _H,
    "transitive": _H,
    "semi_transitive": _H,
    "semi_transitive_up": _H,
    "semi_transitive_down": _H,
    "transitive_sym": _H,
    "transitive_strict": _H,
}


def _unit_interval_entry(entry_id, compare_fn, cuts, expectations,
                         section_checks=(), notes=""):
    space = RealInterval(iv.ZERO, iv.ONE)
    rel = CatalogPiecewise(entry_id, space, compare_fn, cuts)
    return CatalogEntry(
        id=entry_id,
        space=space,
        relation=rel,
        universe=Universe(_UNIT_POINTS),
        expectations=expectations,
        section_checks=tuple(section_checks),
        notes=notes,
    )


def _build_appx1() -> CatalogEntry:
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _F, "nontrivial": _H, "negatively_transitive": _F,
        "anti_symmetric": _H, "mixture_continuous": _H, "archimedean": _F,
        "strong_archimedean": _F, "open_strict_sections": _F,
        "open_incomparable_sections": _H, "linear": _H, "convex": _F,
        "concave": _H, "star_convex": _F, "star_concave": _H,
        "independent": _S, "fragile": _H, "flimsy": _F,
    })
    checks = (
        SectionCheck(pt(1), pt(0), pt(0), "gt", iv.point(1)),
        SectionCheck(pt(1), pt(0), pt(0), "eq", iv.point(0)),
        SectionCheck(pt(1), pt(0), pt(0), "incomparable", iv.interval(0, 1, False, False)),
    )
    return _unit_interval_entry(
        "appx1", _appx1_compare, _appx1_cuts, expect, checks,
        notes="Reflexive on [0,1]; the top point strictly beats everything "
              "below it and nothing else is comparable.  Weak sections are "
              "closed while the strict section at the top is a single point.",
    )


def _build_appx2() -> CatalogEntry:
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _F, "nontrivial": _F, "negatively_transitive": _F,
        "anti_symmetric": _F, "mixture_continuous": _F, "archimedean": _H,
        "strong_archimedean": _H, "open_strict_sections": _H,
        "open_incomparable_sections": _F, "linear": _H, "convex": _H,
        "concave": _H, "star_convex": _F, "star_concave": _F,
        "independent": _F, "fragile": _F, "flimsy": _H,
    })
    checks = (
        SectionCheck(pt(1), pt(0), pt(0), "incomparable", iv.interval(HALF, 1)),
        SectionCheck(pt(0), pt(1), pt(0), "ge", iv.interval(HALF, 1, False, True)),
    )
    return _unit_interval_entry(
        "appx2", _appx2_compare, _appx2_cuts, expect, checks,
        notes="All points below 1/2 are mutually indifferent; everything else "
              "is incomparable (diagonal added).  Both Archimedean forms hold "
              "vacuously; weak sections like the one at (0,1,0) are half-open "
              "(the mirrored weight convention writes that set as [0,1/2)), so "
              "closedness fails either way.",
    )


def _build_appx3() -> CatalogEntry:
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _H, "nontrivial": _H, "negatively_transitive": _H,
        "anti_symmetric": _F, "mixture_continuous": _F, "archimedean": _H,
        "strong_archimedean": _F, "open_strict_sections": _F,
        "open_incomparable_sections": _H, "linear": _H, "convex": _H,
        "concave": _H, "star_convex": _F, "star_concave": _F,
        "independent": _F, "fragile": _F, "flimsy": _F,
    })
    checks = (
        SectionCheck(pt(0), pt(1), pt(0), "le", iv.interval(HALF, 1, False, True)),
    )
    return _unit_interval_entry(
        "appx3", _appx3_compare, _appx3_cuts, expect, checks,
        notes="Two indifference blocks [0,1/2) and [1/2,1], upper block "
              "strictly preferred: complete, but mixing 1/2 toward 0 drops "
              "out of the upper block immediately, so the strong Archimedean "
              "property fails while the guarded form is vacuous.  The weak "
              "section at (0,1,0) is (1/2,1] (mirrored convention: [0,1/2)); "
              "not closed either way.",
    )


def _build_fragile_unit() -> CatalogEntry:
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _F, "nontrivial": _H, "negatively_transitive": _F,
        "anti_symmetric": _H, "mixture_continuous": _H, "archimedean": _F,
        "strong_archimedean": _F, "open_strict_sections": _F,
        "open_incomparable_sections": _H, "linear": _H, "convex": _F,
        "concave": _F, "star_convex": _F, "star_concave": _F,
        "independent": _S, "fragile": _H, "flimsy": _F,
    })
    checks = (
        SectionCheck(pt(1), pt(0), pt(0), "gt", iv.point(1)),
        SectionCheck(pt(1), pt(0), pt(0), "incomparable",
                     iv.interval(0, 1, False, False)),
    )
    return _unit_interval_entry(
        "fragile_unit", _fragile_compare, _fragile_cuts, expect, checks,
        notes="Sure-thing top beats sure-thing bottom; every proper lottery "
              "between them is incomparable to both.  Every neighborhood of "
              "the strict weight 1 contains an open interval of "
              "incomparability, the fragile configuration.",
    )


def _build_flimsy_0_3() -> CatalogEntry:
    space = RealInterval(iv.ZERO, F(3))
    rel = CatalogPiecewise("flimsy_0_3", space, _flimsy_compare, _flimsy_cuts)
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _F, "nontrivial": _H, "negatively_transitive": _F,
        "anti_symmetric": _F, "mixture_continuous": _F, "archimedean": _H,
        "strong_archimedean": _H, "open_strict_sections": _H,
        "open_incomparable_sections": _F, "linear": _H, "convex": _F,
        "concave": _F, "star_convex": _F, "star_concave": _F,
        "independent": _F, "fragile": _F, "flimsy": _H,
    })
    checks = (
        SectionCheck(pt(3), pt(0), pt(0), "ge",
                     iv.union(iv.interval(0, F(1, 3), True, False),
                              iv.interval(F(2, 3), 1, False, True))),
        SectionCheck(pt(3), pt(0), pt(0), "incomparable",
                     iv.interval(F(1, 3), F(2, 3))),
    )
    return CatalogEntry(
        id="flimsy_0_3",
        space=space,
        relation=rel,
        universe=Universe((pt(0), pt(HALF), pt(1), pt(2), pt(3))),
        expectations=expect,
        section_checks=checks,
        notes="Blocks [0,1) and (2,3] are internally indifferent with the "
              "upper block strictly better; the middle band compares to "
              "nothing.  The incomparability section [1/3,2/3] at (3,0,0) is "
              "closed, so its endpoints are limits of comparable weights: "
              "flimsy, while both Archimedean forms survive.",
    )


def _build_star_cvx() -> CatalogEntry:
    space = Simplex(3)
    rel = CatalogPiecewise("star_cvx_not_cvx", space, _star_compare, _star_cuts)
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _F, "nontrivial": _H, "negatively_transitive": _F,
        "anti_symmetric": _H, "mixture_continuous": _H, "archimedean": _F,
        "strong_archimedean": _F, "open_strict_sections": _F,
        "open_incomparable_sections": _H, "linear": _H, "convex": _F,
        "concave": _F, "star_convex": _H, "star_concave": _F,
        "independent": _S, "fragile": _H, "flimsy": _F,
    })
    checks = (
        SectionCheck(_E1, _E3, _E2, "gt", iv.union(iv.point(0), iv.point(1))),
        SectionCheck(_E1, _E3, _E2, "ge", iv.union(iv.point(0), iv.point(1))),
    )
    return CatalogEntry(
        id="star_cvx_not_cvx",
        space=space,
        relation=rel,
        universe=Universe((_E1, _E2, _E3)),
        expectations=expect,
        section_checks=checks,
        notes="On the triangle, both edges into the middle vertex strictly "
              "beat it and nothing else is comparable: star-convex (moving "
              "along either edge keeps the strict preference) but not convex "
              "(mixtures of the two far vertices are incomparable to the "
              "middle one).",
    )


def _build_split_hm() -> CatalogEntry:
    space = SplitSpace()
    rel = CatalogPiecewise("split_hm", space, ranking=_split_value)
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _H, "nontrivial": _H, "negatively_transitive": _H,
        "anti_symmetric": _F, "mixture_continuous": _H, "archimedean": _H,
        "strong_archimedean": _H, "open_strict_sections": _H,
        "open_incomparable_sections": _H, "linear": _H, "convex": _H,
        "concave": _H, "star_convex": _F, "star_concave": _F,
        "independent": _S, "fragile": _F, "flimsy": _F,
    })
    space_expect = {
        "S1": _H, "S2": _H, "S3": _H, "S4": _H,
        "C1": _F, "C2": _S,
    }
    checks = (
        SectionCheck(split_b(1), split_a(0), split_b(HALF), "ge",
                     iv.interval(HALF, 1)),
    )
    return CatalogEntry(
        id="split_hm",
        space=space,
        relation=rel,
        universe=Universe((split_b(1), split_a(0), split_a(1), split_b(HALF))),
        expectations=expect,
        space_expectations=space_expect,
        section_checks=checks,
        run_quotient_representation=True,
        notes="Vertical arm all indifferent and strictly below the horizontal "
              "arm, which is ranked by its coordinate.  A valid mixture set "
              "on which cancellation (C1) fails: mixing any vertical point "
              "toward a horizontal one collapses to the same path, so the "
              "carrier embeds in no linear space, yet the quotient by "
              "indifference is the unit interval with its usual order.",
    )


def _build_pareto2() -> CatalogEntry:
    rel = MultiUtility(((2, 1, 0), (0, 1, 3)))
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _F, "nontrivial": _H, "negatively_transitive": _F,
        "anti_symmetric": _H, "mixture_continuous": _H, "archimedean": _F,
        "strong_archimedean": _F, "open_strict_sections": _F,
        "open_incomparable_sections": _H, "linear": _H, "convex": _H,
        "concave": _H, "star_convex": _H, "star_concave": _H,
        "independent": _H, "fragile": _H, "flimsy": _F,
    })
    return CatalogEntry(
        id="pareto2",
        space=rel.space,
        relation=rel,
        universe=Universe((_E1, _E2, _E3)),
        expectations=expect,
        notes="Two-objective Pareto dominance on the triangle with generic "
              "utilities (2,1,0) and (0,1,3): incomplete, transitive, "
              "mixture-continuous, and therefore fragile.",
    )


def _build_eu3() -> CatalogEntry:
    rel = MultiUtility(((0, 1, 2),))
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _H, "nontrivial": _H, "negatively_transitive": _H,
        "anti_symmetric": _F, "mixture_continuous": _H, "archimedean": _H,
        "strong_archimedean": _H, "open_strict_sections": _H,
        "open_incomparable_sections": _H, "linear": _H, "convex": _H,
        "concave": _H, "star_convex": _F, "star_concave": _F,
        "independent": _H, "fragile": _F, "flimsy": _F,
    })
    checks = (
        SectionCheck(_E1, _E3, _E2, "eq", iv.point(HALF)),
        SectionCheck(_E1, _E3, _E2, "gt", iv.interval(0, HALF, True, False)),
        SectionCheck(_E1, _E3, _E2, "lt", iv.interval(HALF, 1, False, True)),
    )
    return CatalogEntry(
        id="eu3",
        space=rel.space,
        relation=rel,
        universe=Universe((_E1, _E2, _E3)),
        expectations=expect,
        section_checks=checks,
        notes="Single linear utility (0,1,2) on the triangle; the canonical "
              "well-behaved instance (thick indifference curves, so star "
              "convexity still fails).",
    )


def _build_appx4() -> CatalogEntry:
    space = RootTwoUnitInterval()
    rel = PointwiseOnly("appx4_rationals", space, _rats_compare,
                        strong_weights=(_rats_upper_weight, _rats_lower_weight))
    expect = dict(_ORDER_BASE)
    expect.update({
        "complete": _H, "nontrivial": _H, "negatively_transitive": _H,
        "anti_symmetric": _F, "mixture_continuous": _NA, "archimedean": _H,
        "strong_archimedean": _H, "open_strict_sections": _NA,
        "open_incomparable_sections": _NA, "linear": _NA, "convex": _NA,
        "concave": _NA, "star_convex": _NA, "star_concave": _NA,
        # mixing a strict pair with an irrational target collapses both
        # sides to the irrational class, so independence genuinely fails
        "independent": _F, "fragile": _NA, "flimsy": _NA,
    })
    universe = Universe((
        quad_pt(0), quad_pt(1), quad_pt(0, F(1, 4)), quad_pt(0, HALF),
    ))
    return CatalogEntry(
        id="appx4_rationals",
        space=space,
        relation=rel,
        universe=universe,
        expectations=expect,
        notes="Rationals mutually indifferent and strictly above the "
              "irrationals (coordinates live in Q(sqrt 2)).  Sections are "
              "dense sets, not interval unions, so only the pointwise "
              "comparator is exposed; the strong Archimedean property is "
              "certified by constructed witnesses, quadratic weights where "
              "needed.",
    )


_BUILDERS = {
    "star_cvx_not_cvx": _build_star_cvx,
    "split_hm": _build_split_hm,
    "fragile_unit": _build_fragile_unit,
    "flimsy_0_3": _build_flimsy_0_3,
    "appx1": _build_appx1,
    "appx2": _build_appx2,
    "appx3": _build_appx3,
    "appx4_rationals": _build_appx4,
    "pareto2": _build_pareto2,
    "eu3": _build_eu3,
}

ENTRY_IDS = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def load_entry(entry_id: str) -> CatalogEntry:
    if entry_id not in _BUILDERS:
        raise UnknownEntryError(f"unknown catalog entry: {entry_id!r}")
    return _BUILDERS[entry_id]()


# ---------------------------------------------------------------------------
# Catalog runner
# ---------------------------------------------------------------------------


@record
class EntryReport:
    entry_id: str
    verdicts: dict[str, AxiomVerdict]
    space_verdicts: dict[str, AxiomVerdict]
    section_results: list[dict]
    theorem_reports: list[HarnessReport]
    representation: dict | None
    mismatches: list[str]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        out = {
            "entry": self.entry_id,
            "verdicts": {k: v.to_json() for k, v in sorted(self.verdicts.items())},
            "space_checks": {k: v.to_json() for k, v in sorted(self.space_verdicts.items())},
            "sections": self.section_results,
            "theorems": [r.to_json() for r in self.theorem_reports],
            "mismatches": list(self.mismatches),
        }
        if self.representation is not None:
            out["representation"] = self.representation
        return out


@record
class CatalogReport:
    entries: list[EntryReport]

    @property
    def mismatch_count(self) -> int:
        return sum(len(e.mismatches) for e in self.entries)

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "mismatches": self.mismatch_count,
        }


def _quotient_representation_report(entry: CatalogEntry) -> tuple[dict, list[str]]:
    mismatches: list[str] = []
    qspace, qrel = quotient(
        entry.space, entry.relation, entry.universe.points, entry.universe.grid
    )
    quniverse = Universe(
        qspace.representatives, entry.universe.closure_depth, entry.universe.grid
    )
    qengine = AxiomEngine(qrel, quniverse)
    derived = {}
    for axiom in ("anti_symmetric", "complete", "transitive", "mixture_continuous"):
        verdict = qengine.verdict(axiom)
        derived[axiom] = verdict.status.value
        if not verdict.passed:
            mismatches.append(f"quotient relation fails {axiom}")

    low, high = extreme_points(qengine)
    rep, trace = calibrate(qengine, low, high)
    outcome = verify_representation(qengine, rep)
    if not outcome.passed:
        mismatches.append("quotient representation failed verification")
    for p, value in rep.values.items():
        expected = entry.relation.ranking(p)
        if value != expected:
            mismatches.append(
                f"quotient utility of {p} is {value}, expected {expected}"
            )
    report = {
        "derived_relation": derived,
        "anchors": {"low": repr(low), "high": repr(high)},
        "values": {repr(p): str(v) for p, v in sorted(rep.values.items(), key=lambda kv: repr(kv[0]))},
        "verification": outcome.to_json(),
        "warnings": trace.warnings,
    }
    return report, mismatches


@lru_cache(maxsize=None)
def _space_checks(space: MixtureSpace, points: tuple, grid: tuple) -> dict:
    """S1-S4 and C1/C2 on one carrier universe.  Carriers compare by value,
    so entries on equal carriers and universes share one run."""
    return {**check_mixture_axioms(space, points, grid),
            **check_c1_c2(space, points, grid)}


def run_entry(entry_id: str) -> EntryReport:
    entry = load_entry(entry_id)
    engine = AxiomEngine(entry.relation, entry.universe)
    verdicts = engine.all_verdicts()
    mismatches: list[str] = []

    for axiom, expected in sorted(entry.expectations.items()):
        got = verdicts[axiom].status.value
        if got != expected:
            mismatches.append(f"{axiom}: expected {expected}, engine says {got}")

    space_verdicts = dict(_space_checks(
        entry.space, tuple(entry.universe.points), tuple(entry.universe.grid)
    ))
    for name, expected in sorted(entry.space_expectations.items()):
        got = space_verdicts[name].status.value
        if got != expected:
            mismatches.append(f"space {name}: expected {expected}, engine says {got}")

    section_results = []
    for check in entry.section_checks:
        got = entry.relation.section(check.x, check.y, check.z, check.which)
        ok = got == check.expected
        section_results.append({
            "triple": [repr(check.x), repr(check.y), repr(check.z)],
            "which": check.which,
            "expected": check.expected.to_json(),
            "got": got.to_json(),
            "ok": ok,
        })
        if not ok:
            mismatches.append(
                f"section {check.which} at ({check.x}, {check.y}, {check.z}): "
                f"expected {check.expected}, got {got}"
            )

    theorem_reports = run_all_theorems(engine)
    for report in theorem_reports:
        if report.applicable and not report.consistent:
            mismatches.append(
                f"soundness: {report.theorem}"
                + (f"/{report.variant}" if report.variant else "")
                + " is applicable but inconsistent"
            )

    representation = None
    if entry.run_quotient_representation:
        representation, extra = _quotient_representation_report(entry)
        mismatches.extend(extra)

    return EntryReport(
        entry_id=entry.id,
        verdicts=verdicts,
        space_verdicts=space_verdicts,
        section_results=section_results,
        theorem_reports=theorem_reports,
        representation=representation,
        mismatches=mismatches,
    )


def run_catalog(ids=None) -> CatalogReport:
    targets = tuple(ids) if ids else ENTRY_IDS
    for entry_id in targets:
        if entry_id not in _BUILDERS:
            raise UnknownEntryError(f"unknown catalog entry: {entry_id!r}")
    return CatalogReport([run_entry(entry_id) for entry_id in targets])
