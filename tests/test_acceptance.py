"""Acceptance suite: one test per criterion, each printing a PASS line.

All expected values are exact rationals; every comparison is equality, not
tolerance.  Random corpora are seeded and shared across criteria through
module-scoped fixtures.
"""

import time
from fractions import Fraction

import pytest

from prefcheck import intervals as iv
from prefcheck.axioms import AxiomEngine, AxiomId, Universe
from prefcheck.catalog import ENTRY_IDS, load_entry, run_catalog
from prefcheck.generate import (
    fuzz_corpus,
    random_multi_utility_instance,
    random_pareto_instance,
    random_single_utility_instance,
    seeded_rng,
)
from prefcheck.intervals import interval, point, union
from prefcheck.relations import OUTCOME_TO_LABEL
from prefcheck.representation import calibrate, verify_representation
from prefcheck.spaces import pt, quotient, split_a, split_b
from prefcheck.theorems import lemma1_suite, run_all_theorems
from prefcheck.verdicts import Status

F = Fraction

MULTI_SEED = 20260411
PARETO_SEED = 20260412
SINGLE_SEED = 20260413
FUZZ_SEED = 20260414


def _announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def multi_corpus():
    """200 seeded multi-utility instances on the 2- and 3-simplex."""
    rng = seeded_rng(MULTI_SEED)
    out = []
    for i in range(200):
        n_coords = 3 if i < 120 else 4
        rel, universe = random_multi_utility_instance(rng, n_coords, (i % 3) + 1)
        out.append((f"multi-{i:03d}", rel, universe, AxiomEngine(rel, universe)))
    return out


@pytest.fixture(scope="module")
def pareto_corpus():
    """100 seeded two-utility instances, verified incomplete and nontrivial."""
    started = time.monotonic()
    rng = seeded_rng(PARETO_SEED)
    out = []
    for i in range(100):
        rel, universe, engine = random_pareto_instance(rng)
        out.append((f"pareto-{i:03d}", rel, universe, engine))
    return out, time.monotonic() - started


@pytest.fixture(scope="module")
def single_corpus():
    """100 seeded single-utility instances with a strict pair."""
    rng = seeded_rng(SINGLE_SEED)
    out = []
    while len(out) < 100:
        rel, universe = random_single_utility_instance(rng)
        engine = AxiomEngine(rel, universe)
        if engine.verdict(AxiomId.NONTRIVIAL).passed:
            out.append((f"single-{len(out):03d}", rel, universe, engine))
    return out


# ---------------------------------------------------------------------------
# 1. catalog exactness
# ---------------------------------------------------------------------------


def test_criterion_1_catalog_exactness():
    started = time.monotonic()
    report = run_catalog()
    elapsed = time.monotonic() - started
    assert report.mismatch_count == 0, [
        (e.entry_id, e.mismatches) for e in report.entries if e.mismatches
    ]
    by_id = {e.entry_id: e for e in report.entries}

    appx1 = by_id["appx1"].verdicts
    assert appx1["mixture_continuous"].status is Status.HOLDS
    for name in ("archimedean", "strong_archimedean", "open_strict_sections"):
        assert appx1[name].status is Status.FAILS
    rel1 = load_entry("appx1").relation
    assert rel1.section(pt(1), pt(0), pt(0), "gt") == point(1)

    appx2 = by_id["appx2"].verdicts
    rel2 = load_entry("appx2").relation
    assert rel2.section(pt(1), pt(0), pt(0), "incomparable") == interval(F(1, 2), 1)
    assert appx2["strong_archimedean"].status is Status.HOLDS
    assert appx2["mixture_continuous"].status is Status.FAILS

    appx3 = by_id["appx3"].verdicts
    assert appx3["strong_archimedean"].status is Status.FAILS
    assert appx3["mixture_continuous"].status is Status.FAILS

    star = by_id["star_cvx_not_cvx"].verdicts
    assert star["star_convex"].status is Status.HOLDS
    assert star["convex"].status is Status.FAILS

    split = by_id["split_hm"].verdicts
    for name in ("complete", "transitive", "mixture_continuous"):
        assert split[name].status is Status.HOLDS
    assert split["independent"].passed  # finite grid pass reported as sampled
    c1 = by_id["split_hm"].space_verdicts["C1"]
    assert c1.status is Status.FAILS
    assert c1.witness["x"] == split_b(1)
    assert {c1.witness["y"], c1.witness["y_prime"]} == {split_a(0), split_a(1)}

    assert by_id["fragile_unit"].verdicts["fragile"].status is Status.HOLDS
    assert by_id["flimsy_0_3"].verdicts["flimsy"].status is Status.HOLDS

    assert elapsed < 5.0, f"catalog took {elapsed:.2f}s"
    _announce(1, "catalog exactness")


# ---------------------------------------------------------------------------
# 2. interior-weight formulations coincide
# ---------------------------------------------------------------------------

TRIO = (AxiomId.ARCHIMEDEAN, AxiomId.STRONG_ARCHIMEDEAN,
        AxiomId.OPEN_STRICT_SECTIONS)


def test_criterion_2_coincidence(multi_corpus, entry_engines):
    checked = 0
    for eid, engine in entry_engines.items():
        semi = engine.verdict(AxiomId.SEMI_TRANSITIVE)
        mc = engine.verdict(AxiomId.MIXTURE_CONTINUOUS)
        if not (semi.passed and mc.passed):
            continue
        flags = {engine.verdict(a).passed for a in TRIO}
        assert len(flags) == 1, eid
        checked += 1
    for name, rel, universe, engine in multi_corpus:
        assert engine.verdict(AxiomId.SEMI_TRANSITIVE).passed, name
        assert engine.verdict(AxiomId.MIXTURE_CONTINUOUS).passed, name
        flags = {engine.verdict(a).passed for a in TRIO}
        assert len(flags) == 1, name
        checked += 1
    assert checked >= 200
    _announce(2, f"interior-weight coincidence on {checked} instances")


# ---------------------------------------------------------------------------
# 3. incompleteness under full continuity forces fragility
# ---------------------------------------------------------------------------


def test_criterion_3_fragility_law(pareto_corpus):
    corpus, generation_time = pareto_corpus
    started = time.monotonic()
    for name, rel, universe, engine in corpus:
        assert engine.verdict(AxiomId.COMPLETE).failed, name
        for hyp in (AxiomId.NONTRIVIAL, AxiomId.REFLEXIVE,
                    AxiomId.TRANSITIVE, AxiomId.MIXTURE_CONTINUOUS):
            assert engine.verdict(hyp).passed, (name, hyp)
        fragile = engine.verdict(AxiomId.FRAGILE)
        assert fragile.status is Status.HOLDS, name
        w = fragile.witness
        part = rel.segment(w["x"], w["y"], w["z"])
        strict = iv.union(part.section("gt"), part.section("lt"))
        target = iv.closure(iv.interior(part.section("incomparable")))
        assert w["lam"] in iv.intersect(strict, target), name
    elapsed = generation_time + (time.monotonic() - started)
    assert elapsed < 30.0, f"criterion took {elapsed:.2f}s"
    _announce(3, f"fragility law on 100 instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. soundness sentinel across the fuzz corpus
# ---------------------------------------------------------------------------


def test_criterion_4_soundness_sentinel(multi_corpus, pareto_corpus,
                                        single_corpus, entry_engines):
    corpus = []
    corpus.extend((f"entry-{eid}", e.rel, e.universe, e) for eid, e in entry_engines.items())
    corpus.extend(multi_corpus)
    corpus.extend(pareto_corpus[0])
    corpus.extend(single_corpus)
    for name, rel, universe in fuzz_corpus(100, FUZZ_SEED):
        corpus.append((name, rel, universe, AxiomEngine(rel, universe)))
    assert len(corpus) >= 500

    violations = []
    for name, rel, universe, engine in corpus:
        for report in run_all_theorems(engine):
            if report.applicable and not report.consistent:
                violations.append((name, report.theorem, report.variant))
    assert violations == []
    _announce(4, f"no refutation across {len(corpus)} instances x "
                 f"{len(run_all_theorems(corpus[0][3]))} harness runs")


# ---------------------------------------------------------------------------
# 5. representation exactness on single-utility instances
# ---------------------------------------------------------------------------


def test_criterion_5_representation_exactness(single_corpus):
    from prefcheck.relations import ComparisonOutcome

    for name, rel, universe, engine in single_corpus:
        low = high = engine.points[0]
        for p in engine.points[1:]:
            if engine.compare(p, low) is ComparisonOutcome.WORSE:
                low = p
            if engine.compare(p, high) is ComparisonOutcome.BETTER:
                high = p
        rep, trace = calibrate(engine, low, high)
        outcome = verify_representation(engine, rep)
        assert outcome.passed, (name, outcome.failures[:2])
        u = rel.utilities[0]

        def model(p):
            return sum(a * c for a, c in zip(u, p.coords))

        span = model(high) - model(low)
        for p in engine.points:
            assert rep.values[p] == (model(p) - model(low)) / span, name
    _announce(5, "exact representation on 100 single-utility instances")


# ---------------------------------------------------------------------------
# 6. quotient pipeline on the split space
# ---------------------------------------------------------------------------


def test_criterion_6_quotient_pipeline():
    entry = load_entry("split_hm")
    qspace, qrel = quotient(entry.space, entry.relation, entry.universe.points,
                            entry.universe.grid)
    quniverse = Universe(qspace.representatives, entry.universe.closure_depth,
                         entry.universe.grid)
    engine = AxiomEngine(qrel, quniverse)
    for axiom in (AxiomId.ANTI_SYMMETRIC, AxiomId.COMPLETE,
                  AxiomId.TRANSITIVE, AxiomId.MIXTURE_CONTINUOUS):
        assert engine.verdict(axiom).passed, axiom

    low = next(p for p in engine.points if p.part == "A")
    high = next(p for p in engine.points if p.part == "B" and p.coords[0] == 1)
    rep, _ = calibrate(engine, low, high)
    for p, value in rep.values.items():
        if p.part == "B":
            assert value == p.coords[0]
        else:
            assert value == 0
    outcome = verify_representation(engine, rep)
    assert outcome.passed and not outcome.failures
    _announce(6, "quotient of the split space calibrates to the identity")


# ---------------------------------------------------------------------------
# 7. oracle cross-check at 1001 grid points
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_cross_check():
    weights = [F(p, 1000) for p in range(1001)]
    checked = 0
    for eid in ENTRY_IDS:
        entry = load_entry(eid)
        rel, space = entry.relation, entry.space
        if not rel.has_segment_oracle:
            continue
        pts = entry.universe.points
        for x in pts:
            for y in pts:
                for z in pts:
                    part = rel.segment(x, y, z)
                    for lam in weights:
                        got = part.label_at(lam)
                        want = OUTCOME_TO_LABEL[rel.compare(space.mix(x, lam, y), z)]
                        assert got == want, (eid, x, y, z, lam)
                    checked += 1
    assert checked > 300
    _announce(7, f"oracle agrees with pointwise comparison on {checked} triples")


# ---------------------------------------------------------------------------
# 8. direct convexity equals section convexity
# ---------------------------------------------------------------------------


def test_criterion_8_convexity_characterization(multi_corpus, entry_engines):
    checked = 0
    for eid, engine in entry_engines.items():
        report = lemma1_suite(engine)
        assert report.consistent, eid
        if report.applicable:
            assert report.conclusions["convex"].passed == \
                report.conclusions["upper_sections_convex"].passed, eid
            assert report.conclusions["concave"].passed == \
                report.conclusions["lower_sections_convex"].passed, eid
            checked += 1
    for name, rel, universe, engine in multi_corpus[:100]:
        report = lemma1_suite(engine)
        assert report.applicable and report.consistent, name
        assert report.conclusions["convex"].passed == \
            report.conclusions["upper_sections_convex"].passed, name
        assert report.conclusions["concave"].passed == \
            report.conclusions["lower_sections_convex"].passed, name
        mc = engine.verdict(AxiomId.MIXTURE_CONTINUOUS)
        arch = engine.verdict(AxiomId.ARCHIMEDEAN)
        if mc.passed and arch.passed:
            assert report.conclusions["linear"].passed == (
                report.conclusions["convex"].passed
                and report.conclusions["concave"].passed
            ), name
        checked += 1
    assert checked >= 100
    _announce(8, f"convexity characterization on {checked} instances")
