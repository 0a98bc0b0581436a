"""Utility construction by exact calibration along anchor segments.

Given strictly ordered anchors  low < high  and a complete, transitive,
mixture-continuous relation, every point z is placed by solving an
indifference equation on a segment through the anchors:

  low <= z <= high :  mix(low, lam, high) ~ z   gives  u(z) = 1 - lam*
  z < low          :  mix(z, lam, high) ~ low   gives  u(z) = -(1-lam)/lam
  high < z         :  mix(low, lam, z) ~ high   gives  u(z) = 1/(1-lam)

with u(low) = 0 and u(high) = 1.  All solutions are exact rationals; the
verifier then demands exact order agreement and mixture preservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .axioms import AxiomEngine, AxiomId, Universe
from .intervals import OPEN_UNIT, analyze, intersect
from .relations import ComparisonOutcome, RelationModel
from .spaces import Point, value_to_json


class CalibrationError(ValueError):
    pass


@dataclass
class UtilityRepresentation:
    anchor_low: Point
    anchor_high: Point
    values: dict[Point, Fraction]

    def to_json(self) -> dict:
        from .spaces import point_to_json

        return {
            "anchor_low": point_to_json(self.anchor_low),
            "anchor_high": point_to_json(self.anchor_high),
            "values": [
                {"point": point_to_json(p), "value": str(v)}
                for p, v in self.values.items()
            ],
        }


@dataclass(frozen=True)
class CalibrationStep:
    point: Point
    case: str  # "anchor", "i", "ii", "iii"
    lam: Optional[Fraction]
    warning: Optional[str] = None


@dataclass
class CalibrationTrace:
    steps: list[CalibrationStep] = field(default_factory=list)

    @property
    def warnings(self) -> list[str]:
        return [s.warning for s in self.steps if s.warning]

    def to_json(self) -> list:
        out = []
        for s in self.steps:
            item = {
                "point": value_to_json(s.point),
                "case": s.case,
                "lam": str(s.lam) if s.lam is not None else None,
            }
            if s.warning:
                item["warning"] = s.warning
            out.append(item)
        return out


def _solved_weight(engine: AxiomEngine, a: Point, b: Point, target: Point,
                   interior_only: bool) -> tuple[Fraction, Optional[str]]:
    """Least weight with mix(a, lam, b) ~ target, plus a plateau warning."""
    sec = engine.section(a, b, target, "eq")
    if interior_only:
        sec = intersect(sec, OPEN_UNIT)
    report = analyze(sec)
    if report.min is None:
        raise CalibrationError(
            "indifference never attained on a calibration segment although the "
            "continuity hypotheses were verified; the segment oracle is "
            f"inconsistent at ({a}, {b}, {target})"
        )
    warning = None
    single_point = report.component_count == 1 and sec.intervals[0].lo == sec.intervals[0].hi
    if not single_point:
        warning = (
            f"indifference plateau on the segment ({a}, {b}, {target}): {sec}; "
            "the relation is not independent there"
        )
    return report.min, warning


def _calibrate_point(engine: AxiomEngine, low: Point, high: Point,
                     z: Point) -> CalibrationStep:
    against_low = engine.compare(z, low)
    against_high = engine.compare(z, high)
    if against_low is ComparisonOutcome.WORSE:
        lam, warn = _solved_weight(engine, z, high, low, interior_only=True)
        return CalibrationStep(z, "i", lam, warn)
    if against_high is ComparisonOutcome.BETTER:
        lam, warn = _solved_weight(engine, low, z, high, interior_only=True)
        return CalibrationStep(z, "iii", lam, warn)
    if against_low in (ComparisonOutcome.BETTER, ComparisonOutcome.EQUIVALENT) and (
        against_high in (ComparisonOutcome.WORSE, ComparisonOutcome.EQUIVALENT)
    ):
        lam, warn = _solved_weight(engine, low, high, z, interior_only=False)
        return CalibrationStep(z, "ii", lam, warn)
    raise CalibrationError(
        f"point {z} is incomparable to an anchor although completeness was verified"
    )


def _value_of_step(step: CalibrationStep) -> Fraction:
    if step.case == "ii":
        return 1 - step.lam
    if step.case == "i":
        return -(1 - step.lam) / step.lam
    return 1 / (1 - step.lam)  # case iii


def _require_hypotheses(engine: AxiomEngine) -> None:
    bad = [
        name.value
        for name in (AxiomId.COMPLETE, AxiomId.TRANSITIVE, AxiomId.MIXTURE_CONTINUOUS)
        if not engine.verdict(name).passed
    ]
    if bad:
        raise CalibrationError(f"calibration hypotheses fail on the universe: {bad}")


def extreme_points(engine: AxiomEngine) -> tuple[Point, Point]:
    """Default calibration anchors (low, high): starting from the first
    point, each later point replaces low when strictly worse than it and
    high when strictly better."""
    low = high = engine.points[0]
    for p in engine.points[1:]:
        if engine.compare(p, low) is ComparisonOutcome.WORSE:
            low = p
        if engine.compare(p, high) is ComparisonOutcome.BETTER:
            high = p
    return low, high


def calibrate(
    rel: RelationModel,
    universe: Universe,
    anchor_low: Point,
    anchor_high: Point,
    engine: Optional[AxiomEngine] = None,
) -> tuple[UtilityRepresentation, CalibrationTrace]:
    if engine is None:
        engine = AxiomEngine(rel, universe)
    _require_hypotheses(engine)
    if engine.compare(anchor_low, anchor_high) is not ComparisonOutcome.WORSE:
        raise CalibrationError("anchors must satisfy low < high strictly")

    rep = UtilityRepresentation(anchor_low, anchor_high, {})
    trace = CalibrationTrace()
    rep.values[anchor_low] = Fraction(0)
    rep.values[anchor_high] = Fraction(1)
    trace.steps.append(CalibrationStep(anchor_low, "anchor", None))
    trace.steps.append(CalibrationStep(anchor_high, "anchor", None))

    for z in engine.points:
        if z in rep.values:
            continue
        step = _calibrate_point(engine, anchor_low, anchor_high, z)
        rep.values[z] = _value_of_step(step)
        trace.steps.append(step)
    return rep, trace


def representation_value(
    rep: UtilityRepresentation, engine: AxiomEngine, p: Point
) -> Fraction:
    """Value of `p`, calibrating on demand for points outside the universe."""
    space = engine.space
    if hasattr(space, "canonical"):
        p = space.canonical(p)
    if p not in rep.values:
        if p == rep.anchor_low:
            rep.values[p] = Fraction(0)
        elif p == rep.anchor_high:
            rep.values[p] = Fraction(1)
        else:
            step = _calibrate_point(engine, rep.anchor_low, rep.anchor_high, p)
            rep.values[p] = _value_of_step(step)
    return rep.values[p]


@dataclass
class VerificationReport:
    order_checked: int = 0
    mixture_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "order_checked": self.order_checked,
            "mixture_checked": self.mixture_checked,
            "failures": [value_to_json(f) for f in self.failures],
            "passed": self.passed,
        }


_ORDER_OF_SIGN = {
    1: ComparisonOutcome.BETTER,
    0: ComparisonOutcome.EQUIVALENT,
    -1: ComparisonOutcome.WORSE,
}


def verify_representation(
    rel: RelationModel,
    rep: UtilityRepresentation,
    universe: Universe,
    grid=None,
    engine: Optional[AxiomEngine] = None,
) -> VerificationReport:
    """Exact order agreement on all pairs and mixture preservation on the grid."""
    if engine is None:
        engine = AxiomEngine(rel, universe)
    weights = tuple(grid) if grid is not None else engine.grid
    report = VerificationReport()

    for x in engine.points:
        vx = representation_value(rep, engine, x)
        for y in engine.points:
            vy = representation_value(rep, engine, y)
            expected = _ORDER_OF_SIGN[(vx > vy) - (vx < vy)]
            got = engine.compare(x, y)
            report.order_checked += 1
            if got is not expected:
                report.failures.append(
                    {"kind": "order", "x": x, "y": y, "value_x": vx, "value_y": vy,
                     "outcome": got.value}
                )

    for x in engine.points:
        vx = representation_value(rep, engine, x)
        for y in engine.points:
            vy = representation_value(rep, engine, y)
            for g in weights:
                mixed = engine.mix(x, g, y)
                vm = representation_value(rep, engine, mixed)
                report.mixture_checked += 1
                if vm != g * vx + (1 - g) * vy:
                    report.failures.append(
                        {"kind": "mixture", "x": x, "y": y, "lam": g,
                         "value": vm, "expected": g * vx + (1 - g) * vy}
                    )
    return report
