from fractions import Fraction

import pytest

from prefcheck.axioms import AxiomEngine, AxiomId, Universe
from prefcheck.catalog import ENTRY_IDS, load_entry
from prefcheck.relations import MultiUtility
from prefcheck.spaces import quotient
from prefcheck.theorems import (
    THEOREM_IDS,
    THEOREMS,
    lemma1_suite,
    run_all_theorems,
    run_harness,
    run_harness_all_variants,
)
from prefcheck.verdicts import Status

F = Fraction


def test_theorem_table_covers_all_ids():
    assert set(THEOREM_IDS) == {
        "P1", "P2", "T1", "OBS1", "COR1", "T2", "T3a", "T3b", "T3c", "T3d",
        "COR2", "COR3", "L1d", "T4", "P3", "P4",
    }


def test_unknown_theorem_and_missing_variant_raise():
    entry = load_entry("eu3")
    engine = AxiomEngine(entry.relation, entry.universe)
    with pytest.raises(ValueError):
        run_harness("T9", engine)
    with pytest.raises(ValueError):
        run_harness("COR1", engine)  # variant needed
    with pytest.raises(ValueError):
        run_harness("COR1", engine, variant="c")


def test_t1_on_appx1_inapplicable_but_consistent(entry_engines):
    report = run_harness("T1", entry_engines["appx1"])
    assert not report.applicable
    assert report.consistent
    assert report.hypotheses["archimedean"].failed
    assert "negatively_transitive_strict" in report.intermediates


def test_t1_on_well_behaved_instance(entry_engines):
    report = run_harness("T1", entry_engines["eu3"])
    assert report.applicable and report.consistent
    assert report.conclusions["complete"].passed
    assert report.conclusions["transitive"].passed
    assert report.intermediates["negatively_transitive_strict"].passed


def test_p3_on_pareto(entry_engines):
    report = run_harness("P3", entry_engines["pareto2"])
    assert report.applicable
    assert report.conclusions["fragile"].status is Status.HOLDS
    assert report.consistent


def test_p4_on_flimsy(entry_engines):
    report = run_harness("P4", entry_engines["flimsy_0_3"])
    assert report.applicable
    assert report.conclusions["flimsy"].status is Status.HOLDS
    assert report.consistent


def test_p2_inapplicable_where_an_hypothesis_drops(entry_engines):
    # closed incomparability section blocks P2 on the flimsy instance
    report = run_harness("P2", entry_engines["flimsy_0_3"])
    assert not report.applicable
    assert report.hypotheses["open_incomparable_sections"].failed
    # vacuous strictness blocks it on the block-indifference instance
    report = run_harness("P2", entry_engines["appx3"])
    assert not report.applicable
    assert report.hypotheses["strong_archimedean"].failed


def test_p1_coincidence_verdicts_on_catalog(entry_engines):
    for eid, engine in entry_engines.items():
        report = run_harness("P1", engine)
        assert report.consistent, eid
        if report.applicable:
            flags = {v.passed for v in report.conclusions.values()}
            assert len(flags) == 1, eid


def test_t1_contrapositive_on_catalog(entry_engines):
    order_hyps = ("nontrivial", "reflexive", "semi_transitive", "transitive_sym")
    for eid, engine in entry_engines.items():
        complete = engine.verdict(AxiomId.COMPLETE)
        if not complete.failed:
            continue
        mc = engine.verdict(AxiomId.MIXTURE_CONTINUOUS)
        arch = engine.verdict(AxiomId.ARCHIMEDEAN)
        orders = [engine.verdict(a) for a in order_hyps]
        assert (not mc.passed) or (not arch.passed) or any(
            not v.passed for v in orders
        ), eid


def test_t4_on_quotient_of_split_space():
    entry = load_entry("split_hm")
    qspace, qrel = quotient(entry.space, entry.relation, entry.universe.points)
    quniverse = Universe(qspace.representatives)
    report = run_harness("T4", AxiomEngine(qrel, quniverse))
    assert report.applicable and report.consistent
    assert report.conclusions["representation"].status is Status.HOLDS


def test_obs1_on_quotient_of_split_space():
    entry = load_entry("split_hm")
    qspace, qrel = quotient(entry.space, entry.relation, entry.universe.points)
    report = run_harness("OBS1", AxiomEngine(qrel, Universe(qspace.representatives)))
    assert report.applicable and report.consistent


def test_t4_inapplicable_on_thick_relation(entry_engines):
    report = run_harness("T4", entry_engines["split_hm"])
    assert not report.applicable
    assert report.hypotheses["anti_symmetric"].failed
    assert report.consistent


def test_variant_theorems_report_their_variant(entry_engines):
    reports = run_harness_all_variants("COR3", entry_engines["eu3"])
    assert [r.variant for r in reports] == ["a", "b"]
    for r in reports:
        assert r.applicable and r.consistent


def test_t2_applicable_on_injective_single_utility():
    rel = MultiUtility(((0, 1, 5),))   # injective on vertices and grid mixtures
    universe = Universe(tuple(rel.space.vertices()))
    engine = AxiomEngine(rel, universe)
    report = run_harness("T2", engine, variant="a")
    assert report.applicable and report.consistent


def test_soundness_sentinel_on_catalog(entry_engines):
    for eid, engine in entry_engines.items():
        for report in run_all_theorems(engine):
            assert not (report.applicable and not report.consistent), (
                eid, report.theorem, report.variant
            )


# ---------------------------------------------------------------------------
# lemma suite: direct convexity versus section convexity
# ---------------------------------------------------------------------------


def test_lemma_suite_on_well_behaved_instance(entry_engines):
    report = lemma1_suite(entry_engines["eu3"])
    assert report.applicable and report.consistent
    assert report.conclusions["convex"].passed
    assert report.conclusions["upper_sections_convex"].passed


def test_lemma_suite_equality_on_star_example(entry_engines):
    report = lemma1_suite(entry_engines["star_cvx_not_cvx"])
    assert report.applicable and report.consistent
    assert report.conclusions["convex"].failed
    assert report.conclusions["upper_sections_convex"].failed


def test_lemma_suite_not_applicable_without_oracle(entry_engines):
    report = lemma1_suite(entry_engines["appx4_rationals"])
    assert not report.applicable
    assert report.consistent


def test_report_json_shape(entry_engines):
    report = run_harness("T1", entry_engines["eu3"])
    payload = report.to_json()
    assert payload["theorem"] == "T1"
    assert payload["applicable"] is True and payload["consistent"] is True
    assert set(payload["hypotheses"]) == {
        "nontrivial", "reflexive", "semi_transitive", "mixture_continuous",
        "archimedean", "transitive_sym",
    }
