"""Finite decision procedures, with witnesses, for the preference axioms.

Every universally quantified axiom is decided over an explicit finite
universe (closed under grid-weight mixtures) with a deterministic
counterexample on failure.  Section-based axioms use the relation's exact
segment oracle, so quantification over the mixing weight itself is exact,
not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import intervals as iv
from .intervals import OPEN_UNIT, SectionSet, representative
from .relations import (
    CLOSED,
    CONVEX,
    COVERS_OPEN_UNIT,
    FLIMSY_HIT,
    FRAGILE_HIT,
    FULL_SET,
    MEETS_OPEN_UNIT,
    OPEN,
    ComparisonOutcome,
    MultiUtility,
    RelationModel,
    flag_bit,
)
from .spaces import DEFAULT_GRID, Point, augment_points, mixer, point_to_json
from .verdicts import AxiomVerdict, Status


class AxiomId(str, Enum):
    REFLEXIVE = "reflexive"
    COMPLETE = "complete"
    NONTRIVIAL = "nontrivial"
    TRANSITIVE = "transitive"
    NEGATIVELY_TRANSITIVE = "negatively_transitive"
    SEMI_TRANSITIVE = "semi_transitive"
    SEMI_TRANSITIVE_UP = "semi_transitive_up"      # x ~ y > z  =>  x > z
    SEMI_TRANSITIVE_DOWN = "semi_transitive_down"  # x > y ~ z  =>  x > z
    TRANSITIVE_SYM = "transitive_sym"
    TRANSITIVE_STRICT = "transitive_strict"
    ANTI_SYMMETRIC = "anti_symmetric"
    MIXTURE_CONTINUOUS = "mixture_continuous"
    ARCHIMEDEAN = "archimedean"
    STRONG_ARCHIMEDEAN = "strong_archimedean"
    OPEN_STRICT_SECTIONS = "open_strict_sections"
    OPEN_INCOMPARABLE_SECTIONS = "open_incomparable_sections"
    LINEAR = "linear"
    CONVEX = "convex"
    CONCAVE = "concave"
    STAR_CONVEX = "star_convex"
    STAR_CONCAVE = "star_concave"
    INDEPENDENT = "independent"
    FRAGILE = "fragile"
    FLIMSY = "flimsy"


ORDER_AXIOMS = (
    AxiomId.REFLEXIVE, AxiomId.COMPLETE, AxiomId.NONTRIVIAL, AxiomId.TRANSITIVE,
    AxiomId.NEGATIVELY_TRANSITIVE, AxiomId.SEMI_TRANSITIVE,
    AxiomId.SEMI_TRANSITIVE_UP, AxiomId.SEMI_TRANSITIVE_DOWN,
    AxiomId.TRANSITIVE_SYM, AxiomId.TRANSITIVE_STRICT, AxiomId.ANTI_SYMMETRIC,
)

CONVEXITY_AXIOMS = (
    AxiomId.LINEAR, AxiomId.CONVEX, AxiomId.CONCAVE,
    AxiomId.STAR_CONVEX, AxiomId.STAR_CONCAVE,
)

ALL_AXIOMS = ORDER_AXIOMS + (
    AxiomId.MIXTURE_CONTINUOUS, AxiomId.ARCHIMEDEAN, AxiomId.STRONG_ARCHIMEDEAN,
    AxiomId.OPEN_STRICT_SECTIONS, AxiomId.OPEN_INCOMPARABLE_SECTIONS,
) + CONVEXITY_AXIOMS + (AxiomId.INDEPENDENT, AxiomId.FRAGILE, AxiomId.FLIMSY)


@dataclass(frozen=True)
class Universe:
    """Finite instantiation of the carrier: base points, mixture-closure
    depth, and the rational weight grid used for closure and sampling."""

    points: tuple[Point, ...]
    closure_depth: int = 1
    grid: tuple[Fraction, ...] = DEFAULT_GRID

    def to_json(self) -> dict:
        return {
            "points": [point_to_json(p) for p in self.points],
            "closure_depth": self.closure_depth,
            "grid": [str(g) for g in self.grid],
        }


def _holds(axiom, note=None):
    return AxiomVerdict(axiom, Status.HOLDS, note=note)


def _fails(axiom, witness=None, note=None):
    return AxiomVerdict(axiom, Status.FAILS, witness, note)


def _na(axiom, note):
    return AxiomVerdict(axiom, Status.NOT_APPLICABLE, note=note)


GT_MEETS, LT_MEETS = flag_bit("gt", MEETS_OPEN_UNIT), flag_bit("lt", MEETS_OPEN_UNIT)

WEAK = frozenset((ComparisonOutcome.BETTER, ComparisonOutcome.EQUIVALENT))
NOT_WEAK = frozenset(ComparisonOutcome) - WEAK
STRICT = frozenset((ComparisonOutcome.BETTER,))
NOT_STRICT = frozenset(ComparisonOutcome) - STRICT
EQUIV = frozenset((ComparisonOutcome.EQUIVALENT,))


def _chain_axiom(axiom, first, second, then):
    """A `_check_` method: `axiom` fails on the first chain x, y, z with
    (x, y) in `first` and (y, z) in `second` but (x, z) not in `then`.
    Each call makes a new function, so per-axiom tracing tells axioms apart."""

    def check(self):
        bad = self.first_broken_chain(first, second, then)
        if bad is None:
            return _holds(axiom)
        return _fails(axiom, {"x": bad[0], "y": bad[1], "z": bad[2]})

    return check


def _section_axiom(axiom, *which_props):
    """A `_check_` method: `axiom` holds unless some triple's section lacks its
    property; the witness carries that section, and `which` when there are two."""

    def check(self):
        na = self._oracle_or_na(axiom)
        if na:
            return na
        bad = self.first_section_failure(which_props)
        if bad is None:
            return _holds(axiom)
        x, y, z, which = bad
        witness = {"x": x, "y": y, "z": z}
        if len(which_props) > 1:
            witness["which"] = which
        witness["section"] = self.section(x, y, z, which)
        return _fails(axiom, witness)

    return check


class AxiomEngine:
    """Caches comparisons, grid mixtures, sections and verdicts for one
    (relation, universe)."""

    def __init__(self, rel: RelationModel, universe: Universe):
        self.rel = rel
        self.space = rel.space
        self.universe = universe
        self.grid = tuple(universe.grid)
        self.points = augment_points(
            self.space, universe.points, universe.grid, universe.closure_depth
        )
        self.mix = mixer(self.space)
        self._cmp: dict[tuple[Point, Point], ComparisonOutcome] = {}
        self._verdicts: dict[str, AxiomVerdict] = {}
        self._strict_pairs: Optional[list[tuple[Point, Point]]] = None
        self._incomp: Optional[dict[Point, list[Point]]] = None

    # -- comparison layer ---------------------------------------------------

    def compare(self, x: Point, y: Point) -> ComparisonOutcome:
        key = (x, y)
        got = self._cmp.get(key)
        if got is None:
            got = self.rel.compare(x, y)
            self._cmp[key] = got
        return got

    def weak(self, x, y) -> bool:
        return self.compare(x, y) in WEAK

    def strict(self, x, y) -> bool:
        return self.compare(x, y) is ComparisonOutcome.BETTER

    def equiv(self, x, y) -> bool:
        return self.compare(x, y) is ComparisonOutcome.EQUIVALENT

    def incomparable(self, x, y) -> bool:
        return self.compare(x, y) is ComparisonOutcome.INCOMPARABLE

    def strict_pairs(self) -> list[tuple[Point, Point]]:
        if self._strict_pairs is None:
            self._strict_pairs = [
                (x, y) for x in self.points for y in self.points if self.strict(x, y)
            ]
        return self._strict_pairs

    def incomparable_partners(self) -> dict[Point, list[Point]]:
        if self._incomp is None:
            self._incomp = {
                x: [y for y in self.points if self.incomparable(x, y)]
                for x in self.points
            }
        return self._incomp

    def section(self, x, y, z, which: str) -> SectionSet:
        return self.rel.segment(x, y, z).section(which)

    def first_triple(self, mask: int, expect: int):
        """First (x, y, z) in scan order whose flag word, masked by `mask`,
        is not `expect`; None when there is none."""
        flags = self.rel.section_flags
        for x in self.points:
            for y in self.points:
                for z in self.points:
                    if flags(x, y, z) & mask != expect:
                        return x, y, z
        return None

    def first_section_failure(self, which_props):
        """First (x, y, z, which) in scan order whose section `which` lacks
        its property, trying the (which, property) pairs in the given order;
        None when every triple has them all."""
        checks = [(which, flag_bit(which, prop)) for which, prop in which_props]
        need = sum(bit for _, bit in checks)
        bad = self.first_triple(need, need)
        if bad is None:
            return None
        word = self.rel.section_flags(*bad)
        return (*bad, next(which for which, bit in checks if not word & bit))

    # -- verdict dispatch ---------------------------------------------------

    def verdict(self, axiom) -> AxiomVerdict:
        name = axiom.value if isinstance(axiom, AxiomId) else str(axiom)
        if name not in self._verdicts:
            method = getattr(self, f"_check_{name}")
            self._verdicts[name] = method()
        return self._verdicts[name]

    def all_verdicts(self) -> dict[str, AxiomVerdict]:
        return {a.value: self.verdict(a) for a in ALL_AXIOMS}

    # -- order axioms ---------------------------------------------------------

    def first_broken_chain(self, first, second, then):
        """First (x, y, z) in scan order with compare(x, y) in `first` and
        compare(y, z) in `second` but compare(x, z) not in `then`; None when
        there is none.  z is not scanned when the (x, y) premise fails."""
        for x in self.points:
            for y in self.points:
                if self.compare(x, y) not in first:
                    continue
                for z in self.points:
                    if self.compare(y, z) in second and self.compare(x, z) not in then:
                        return x, y, z
        return None

    def first_pair(self, outcomes, distinct=False):
        """First (x, y) in scan order with compare(x, y) in `outcomes`,
        skipping x == y when `distinct`; None when there is none."""
        for x in self.points:
            for y in self.points:
                if not (distinct and x == y) and self.compare(x, y) in outcomes:
                    return x, y
        return None

    def _check_reflexive(self):
        for x in self.points:
            if not self.equiv(x, x):
                return _fails(AxiomId.REFLEXIVE, {"x": x})
        return _holds(AxiomId.REFLEXIVE)

    def _check_complete(self):
        pair = self.first_pair((ComparisonOutcome.INCOMPARABLE,))
        if pair is not None:
            return _fails(AxiomId.COMPLETE, {"x": pair[0], "y": pair[1]})
        return _holds(AxiomId.COMPLETE)

    def _check_nontrivial(self):
        pair = self.first_pair(STRICT)
        if pair is not None:
            return AxiomVerdict(
                AxiomId.NONTRIVIAL, Status.HOLDS, {"x": pair[0], "y": pair[1]})
        return _fails(AxiomId.NONTRIVIAL, note="no strict pair on the universe")

    def _check_anti_symmetric(self):
        pair = self.first_pair(EQUIV, distinct=True)
        if pair is not None:
            return _fails(AxiomId.ANTI_SYMMETRIC, {"x": pair[0], "y": pair[1]})
        return _holds(AxiomId.ANTI_SYMMETRIC)

    # premise on (x, y), premise on (y, z), conclusion on (x, z)
    _check_transitive = _chain_axiom(AxiomId.TRANSITIVE, WEAK, WEAK, WEAK)
    _check_negatively_transitive = _chain_axiom(
        AxiomId.NEGATIVELY_TRANSITIVE, NOT_WEAK, NOT_WEAK, NOT_WEAK)
    _check_semi_transitive_down = _chain_axiom(
        AxiomId.SEMI_TRANSITIVE_DOWN, STRICT, EQUIV, STRICT)
    _check_semi_transitive_up = _chain_axiom(
        AxiomId.SEMI_TRANSITIVE_UP, EQUIV, STRICT, STRICT)
    _check_transitive_sym = _chain_axiom(AxiomId.TRANSITIVE_SYM, EQUIV, EQUIV, EQUIV)
    _check_transitive_strict = _chain_axiom(
        AxiomId.TRANSITIVE_STRICT, STRICT, STRICT, STRICT)
    # negative transitivity of the strict part (not a Table axiom)
    negatively_transitive_strict = _chain_axiom(
        "negatively_transitive_strict", NOT_STRICT, NOT_STRICT, NOT_STRICT)

    def _check_semi_transitive(self):
        down = self.verdict(AxiomId.SEMI_TRANSITIVE_DOWN)
        up = self.verdict(AxiomId.SEMI_TRANSITIVE_UP)
        if down.passed and up.passed:
            return _holds(AxiomId.SEMI_TRANSITIVE)
        bad = down if down.failed else up
        bad_name = getattr(bad.axiom, "value", bad.axiom)
        return _fails(AxiomId.SEMI_TRANSITIVE, bad.witness, note=f"{bad_name} fails")

    # -- section topology axioms ----------------------------------------------

    def _oracle_or_na(self, axiom):
        if not self.rel.has_segment_oracle:
            return _na(axiom, "sections are not finite interval unions for this relation")
        return None

    _check_mixture_continuous = _section_axiom(
        AxiomId.MIXTURE_CONTINUOUS, ("ge", CLOSED), ("le", CLOSED))
    _check_open_strict_sections = _section_axiom(
        AxiomId.OPEN_STRICT_SECTIONS, ("gt", OPEN), ("lt", OPEN))
    _check_open_incomparable_sections = _section_axiom(
        AxiomId.OPEN_INCOMPARABLE_SECTIONS, ("incomparable", OPEN))

    def _check_archimedean(self):
        # Each half carries its own incomparability guard: the upper half is
        # required whenever y has an incomparable partner z, the lower half
        # whenever x has an incomparable partner w.
        incomp = self.incomparable_partners()
        guarded = [
            (x, y) for x, y in self.strict_pairs() if incomp[x] or incomp[y]
        ]
        if not guarded:
            return _holds(AxiomId.ARCHIMEDEAN, note="vacuous: no qualifying tuple")
        na = self._oracle_or_na(AxiomId.ARCHIMEDEAN)
        if na:
            return na
        flags = self.rel.section_flags
        for x, y in guarded:
            for z in incomp[y]:
                if not flags(x, z, y) & GT_MEETS:
                    return _fails(
                        AxiomId.ARCHIMEDEAN,
                        {"x": x, "y": y, "z": z,
                         "section": self.section(x, z, y, "gt")},
                        note="no interior weight keeps x-side strictly above y",
                    )
            for w in incomp[x]:
                if not flags(y, w, x) & LT_MEETS:
                    return _fails(
                        AxiomId.ARCHIMEDEAN,
                        {"x": x, "y": y, "w": w,
                         "section": self.section(y, w, x, "lt")},
                        note="no interior weight keeps y-side strictly below x",
                    )
        return _holds(AxiomId.ARCHIMEDEAN)

    def _check_strong_archimedean(self):
        pairs = self.strict_pairs()
        if not pairs:
            return _holds(AxiomId.STRONG_ARCHIMEDEAN, note="vacuous: no strict pair")
        if not self.rel.has_segment_oracle:
            return self._strong_archimedean_pointwise(pairs)
        flags = self.rel.section_flags
        for x, y in pairs:
            for z in self.points:
                if not flags(x, z, y) & GT_MEETS:
                    return _fails(
                        AxiomId.STRONG_ARCHIMEDEAN,
                        {"x": x, "y": y, "z": z, "section": self.section(x, z, y, "gt")},
                        note="no interior weight keeps x-side strictly above y",
                    )
                if not flags(y, z, x) & LT_MEETS:
                    return _fails(
                        AxiomId.STRONG_ARCHIMEDEAN,
                        {"x": x, "y": y, "z": z, "section": self.section(y, z, x, "lt")},
                        note="no interior weight keeps y-side strictly below x",
                    )
        return _holds(AxiomId.STRONG_ARCHIMEDEAN)

    def _strong_archimedean_pointwise(self, pairs):
        fn = getattr(self.rel, "strong_witness_fn", None)
        if fn is None:
            return _na(
                AxiomId.STRONG_ARCHIMEDEAN,
                "no segment oracle and no pointwise witness constructor",
            )
        for x, y in pairs:
            for z in self.points:
                got = fn(x, y, z)
                if got is None:
                    return _na(
                        AxiomId.STRONG_ARCHIMEDEAN,
                        "pointwise witness search inconclusive",
                    )
                lam, delta = got
                ok = (
                    0 < lam < 1
                    and 0 < delta < 1
                    and self.rel.compare(self.mix(x, lam, z), y)
                    is ComparisonOutcome.BETTER
                    and self.rel.compare(self.mix(y, delta, z), x)
                    is ComparisonOutcome.WORSE
                )
                if not ok:  # pragma: no cover - witness constructors are exact
                    return _na(
                        AxiomId.STRONG_ARCHIMEDEAN, "pointwise witness failed verification"
                    )
        return _holds(AxiomId.STRONG_ARCHIMEDEAN, note="pointwise witness search")

    # -- convexity family -------------------------------------------------------

    def _weak_sections_full(self, axiom, which, weak):
        """x and y both `weak` to z => section `which` of (x, y, z) is [0,1]."""
        na = self._oracle_or_na(axiom)
        if na:
            return na
        full = flag_bit(which, FULL_SET)
        flags = self.rel.section_flags
        for x in self.points:
            for y in self.points:
                for z in self.points:
                    if weak(x, z) and weak(y, z) and not flags(x, y, z) & full:
                        sec = self.section(x, y, z, which)
                        return _fails(
                            axiom,
                            {"x": x, "y": y, "z": z,
                             "lam": representative(iv.complement(sec))},
                        )
        return _holds(axiom)

    def _check_convex(self):
        return self._weak_sections_full(AxiomId.CONVEX, "ge", self.weak)

    def _check_concave(self):
        return self._weak_sections_full(
            AxiomId.CONCAVE, "le", lambda a, b: self.weak(b, a)
        )

    def _strict_sections_cover(self, axiom, which, weak):
        """x != y, x `weak` to y => strict section `which` of (x, y, y)
        contains every interior weight."""
        na = self._oracle_or_na(axiom)
        if na:
            return na
        covers = flag_bit(which, COVERS_OPEN_UNIT)
        flags = self.rel.section_flags
        for x in self.points:
            for y in self.points:
                if x != y and weak(x, y) and not flags(x, y, y) & covers:
                    sec = self.section(x, y, y, which)
                    return _fails(
                        axiom,
                        {"x": x, "y": y,
                         "lam": representative(iv.difference(OPEN_UNIT, sec))},
                    )
        return _holds(axiom)

    def _check_star_convex(self):
        return self._strict_sections_cover(AxiomId.STAR_CONVEX, "gt", self.weak)

    def _check_star_concave(self):
        return self._strict_sections_cover(
            AxiomId.STAR_CONCAVE, "lt", lambda a, b: self.weak(b, a)
        )

    def _check_linear(self):
        na = self._oracle_or_na(AxiomId.LINEAR)
        if na:
            return na
        if not (self.verdict(AxiomId.REFLEXIVE).passed
                and self.verdict(AxiomId.TRANSITIVE_SYM).passed):
            return _na(
                AxiomId.LINEAR,
                "linearity is characterized by convex indifference sections only "
                "for reflexive relations with transitive indifference",
            )
        bad = self.first_section_failure((("eq", CONVEX),))
        if bad:
            x, y, z, _ = bad
            sec = self.section(x, y, z, "eq")
            first, second = sec.intervals[0], sec.intervals[1]
            return _fails(
                AxiomId.LINEAR,
                {"x": x, "y": y, "z": z, "section": sec,
                 "lam": (first.hi + second.lo) / 2},
            )
        return _holds(AxiomId.LINEAR)

    # -- independence, fragility, flimsiness ------------------------------------

    def _check_independent(self):
        if isinstance(self.rel, MultiUtility):
            return _holds(
                AxiomId.INDEPENDENT,
                note="exact: utility gaps scale linearly in the mixing weight",
            )
        weights = [g for g in self.grid if 0 < g <= 1]
        for x in self.points:
            for y in self.points:
                same = self.equiv(x, y)
                for z in self.points:
                    for lam in weights:
                        mixed_same = self.compare(
                            self.mix(x, lam, z), self.mix(y, lam, z)
                        ) is ComparisonOutcome.EQUIVALENT
                        if mixed_same != same:
                            return _fails(
                                AxiomId.INDEPENDENT,
                                {"x": x, "y": y, "z": z, "lam": lam},
                                note="indifference and mixed indifference disagree",
                            )
        return AxiomVerdict(
            AxiomId.INDEPENDENT, Status.SAMPLED,
            note="biconditional verified on grid weights",
        )

    def _check_fragile(self):
        na = self._oracle_or_na(AxiomId.FRAGILE)
        if na:
            return na
        hit = self.first_triple(FRAGILE_HIT, 0)
        if hit:
            x, y, z = hit
            part = self.rel.segment(x, y, z)
            strict = iv.union(part.section("gt"), part.section("lt"))
            target = iv.closure(iv.interior(part.section("incomparable")))
            return AxiomVerdict(
                AxiomId.FRAGILE, Status.HOLDS,
                {"x": x, "y": y, "z": z,
                 "lam": representative(iv.intersect(strict, target))},
                note="strict weight inside the closure of open incomparability",
            )
        return _fails(AxiomId.FRAGILE, note="no fragile weight on the universe")

    def _check_flimsy(self):
        na = self._oracle_or_na(AxiomId.FLIMSY)
        if na:
            return na
        hit = self.first_triple(FLIMSY_HIT, 0)
        if hit:
            x, y, z = hit
            part = self.rel.segment(x, y, z)
            bowtie = part.section("incomparable")
            comparable = iv.union(part.section("ge"), part.section("le"))
            return AxiomVerdict(
                AxiomId.FLIMSY, Status.HOLDS,
                {"x": x, "y": y, "z": z,
                 "lam": representative(iv.intersect(bowtie, iv.closure(comparable)))},
                note="incomparable weight is a limit of comparable weights",
            )
        return _fails(AxiomId.FLIMSY, note="no flimsy weight on the universe")
