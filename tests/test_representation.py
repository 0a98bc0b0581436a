from fractions import Fraction

import pytest

from prefcheck import intervals as iv
from prefcheck.axioms import AxiomEngine, Universe
from prefcheck.catalog import load_entry
from prefcheck.relations import (
    CatalogPiecewise,
    ComparisonOutcome,
    MultiUtility,
)
from prefcheck.representation import (
    CalibrationError,
    calibrate,
    representation_value,
    verify_representation,
)
from prefcheck.spaces import RealInterval, pt, quotient
from prefcheck.theorems import run_harness

F = Fraction


def eu3():
    entry = load_entry("eu3")
    return entry.relation, entry.universe


def test_anchors_are_normalized():
    rel, universe = eu3()
    e1, e2, e3 = rel.space.vertices()
    rep, trace = calibrate(AxiomEngine(rel, universe), e1, e3)
    assert rep.values[e1] == 0
    assert rep.values[e3] == 1
    assert rep.values[e2] == F(1, 2)
    assert not trace.warnings


def test_interior_anchors_use_extension_cases():
    rel, universe = eu3()
    e1, e2, e3 = rel.space.vertices()
    low = pt(F(1, 4), F(3, 4), 0)    # utility 3/4
    high = pt(0, F(3, 4), F(1, 4))   # utility 5/4
    engine = AxiomEngine(rel, universe)
    rep, trace = calibrate(engine, low, high)
    cases = {step.point: step for step in trace.steps}
    assert cases[e1].case == "i" and cases[e1].lam == F(2, 5)
    assert rep.values[e1] == F(-3, 2)
    assert cases[e3].case == "iii" and cases[e3].lam == F(3, 5)
    assert rep.values[e3] == F(5, 2)
    assert cases[e2].case == "ii"
    assert rep.values[e2] == F(1, 2)
    outcome = verify_representation(engine, rep)
    assert outcome.passed


def test_calibrated_value_is_normalized_model_utility():
    rel, universe = eu3()
    e1, _, e3 = rel.space.vertices()
    engine = AxiomEngine(rel, universe)
    rep, _ = calibrate(engine, e1, e3)
    u = rel.utilities[0]
    for p in engine.points:
        model = sum(a * c for a, c in zip(u, p.coords))
        assert rep.values[p] == (model - 0) / (2 - 0)


def test_verification_is_exact():
    rel, universe = eu3()
    e1, _, e3 = rel.space.vertices()
    engine = AxiomEngine(rel, universe)
    rep, _ = calibrate(engine, e1, e3)
    outcome = verify_representation(engine, rep)
    assert outcome.passed
    assert outcome.order_checked > 0 and outcome.mixture_checked > 0


def test_single_point_universe_verifies_vacuously():
    rel, universe = eu3()
    e1, _, e3 = rel.space.vertices()
    rep, _ = calibrate(AxiomEngine(rel, universe), e1, e3)
    small = Universe((e1,), closure_depth=0, grid=(F(1, 2),))
    outcome = verify_representation(AxiomEngine(rel, small), rep)
    assert outcome.passed


def test_equal_anchors_rejected():
    rel, universe = eu3()
    e1 = rel.space.vertices()[0]
    with pytest.raises(CalibrationError):
        calibrate(AxiomEngine(rel, universe), e1, e1)


def test_incomplete_relation_rejected():
    entry = load_entry("pareto2")
    pts = entry.universe.points
    with pytest.raises(CalibrationError):
        calibrate(AxiomEngine(entry.relation, entry.universe), pts[0], pts[2])


def test_quotient_split_space_utilities():
    entry = load_entry("split_hm")
    qspace, qrel = quotient(entry.space, entry.relation, entry.universe.points)
    quniverse = Universe(qspace.representatives)
    engine = AxiomEngine(qrel, quniverse)
    low = next(p for p in engine.points if p.part == "A")
    high = next(p for p in engine.points if p.part == "B" and p.coords[0] == 1)
    rep, trace = calibrate(engine, low, high)
    for p, value in rep.values.items():
        assert value == (p.coords[0] if p.part == "B" else 0)
    outcome = verify_representation(engine, rep)
    assert outcome.passed
    universe_values = [rep.values[p] for p in engine.points]
    assert len(set(universe_values)) == len(universe_values)


def test_on_demand_value_for_new_mixture():
    rel, universe = eu3()
    e1, e2, e3 = rel.space.vertices()
    engine = AxiomEngine(rel, universe)
    rep, _ = calibrate(engine, e1, e3)
    fresh = rel.space.mix(e2, F(1, 3), e3)   # utility 1/3 + 4/3 = 5/3
    assert fresh not in rep.values
    assert representation_value(rep, engine, fresh) == F(5, 6)


def test_reanchoring_is_a_positive_affine_rescaling():
    rel, universe = eu3()
    e1, e2, e3 = rel.space.vertices()
    engine = AxiomEngine(rel, universe)
    first, _ = calibrate(engine, e1, e3)
    second, _ = calibrate(engine, e1, e2)
    pts = engine.points
    # fit the affine map from two calibration points, then check it everywhere
    p0, p1 = e1, e3
    scale = (second.values[p1] - second.values[p0]) / (first.values[p1] - first.values[p0])
    shift = second.values[p0] - scale * first.values[p0]
    assert scale > 0
    for p in pts:
        assert second.values[p] == scale * first.values[p] + shift
    ranked_first = sorted(pts, key=lambda p: first.values[p])
    ranked_second = sorted(pts, key=lambda p: second.values[p])
    assert [first.values[p] for p in ranked_first] == sorted(first.values[p] for p in pts)
    assert ranked_first == ranked_second


def _plateau_relation():
    """Complete relation ranked by max(value, 1/2): flat below one half."""
    def level(v):
        return v if v > F(1, 2) else F(1, 2)

    def cmp(u, v):
        lu, lv = level(u.coords[0]), level(v.coords[0])
        return ComparisonOutcome.from_weak(lu >= lv, lv >= lu)

    return CatalogPiecewise("plateau", RealInterval(F(0), F(1)), cmp,
                            lambda z: ((F(1, 2), z.coords[0]),))


def test_plateau_warns_and_verification_fails_honestly():
    rel = _plateau_relation()
    universe = Universe((pt(0), pt(F(1, 4)), pt(F(3, 4)), pt(1)),
                        closure_depth=0, grid=(F(1, 2),))
    engine = AxiomEngine(rel, universe)
    rep, trace = calibrate(engine, pt(0), pt(1))
    assert trace.warnings, "non-degenerate indifference should be flagged"
    outcome = verify_representation(engine, rep)
    assert not outcome.passed
    assert any(f["kind"] == "order" for f in outcome.failures)
