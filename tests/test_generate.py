import hashlib
import json
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefcheck import generate
from prefcheck.axioms import AxiomEngine, Universe
from prefcheck.generate import (
    DEFAULT_SEED,
    ENRICH_GRID,
    _incomparable_partner,
    env_seed,
    fuzz_corpus,
    seeded_rng,
)
from prefcheck.relations import FRAGILE_HIT, ComparisonOutcome, MultiUtility
from prefcheck.spaces import Point, Simplex, augment_points, point_to_json, pt


def test_enrichment_fragile_scan_matches_brute_force():
    """The engine scan that enrichment reads its fragile triple from finds
    the first one of a brute-force scan over `rel.segment(...).flags`, in
    (i, j, k) order."""
    hits = 0
    for _, rel, universe in fuzz_corpus(12, seed=1):
        points = augment_points(rel.space, universe.points[:4], ENRICH_GRID, depth=1)
        want = next((ijk for ijk in product(range(len(points)), repeat=3)
                     if rel.segment(*(points[t] for t in ijk)).flags & FRAGILE_HIT), None)
        engine = AxiomEngine(rel, Universe(tuple(points), 0, ENRICH_GRID))
        assert engine.first_triple(FRAGILE_HIT, 0) == want
        hits += want is not None
    assert hits >= 3


def test_seed_variable_is_read_as_an_integer(monkeypatch):
    monkeypatch.delenv("PREFCHECK_SEED", raising=False)
    assert env_seed() == DEFAULT_SEED
    monkeypatch.setenv("PREFCHECK_SEED", "7")
    assert env_seed() == 7
    assert seeded_rng().random() == seeded_rng(7).random()
    monkeypatch.setenv("PREFCHECK_SEED", "abc")
    with pytest.raises(ValueError, match="PREFCHECK_SEED must be an integer"):
        seeded_rng()
    assert seeded_rng(7).random() == seeded_rng(7).random()  # an explicit seed wins


def _reference_partner(rel, points, target):
    """The partner search in Fraction arithmetic, one `compare` per pair."""
    for w in points:
        if rel.compare(target, w) is ComparisonOutcome.INCOMPARABLE:
            return None
    directions = []
    for c in points:
        for d in points:
            if rel.compare(c, d) is ComparisonOutcome.INCOMPARABLE:
                directions.append(tuple(a - b for a, b in zip(c.coords, d.coords)))
    for vec in directions:
        for k in range(1, 12):
            step = F(1, 2 ** k)
            for sign in (1, -1):
                coords = tuple(a + sign * step * v
                               for a, v in zip(target.coords, vec))
                if all(c >= 0 for c in coords):
                    cand = Point(coords)
                    if rel.compare(target, cand) is ComparisonOutcome.INCOMPARABLE:
                        return cand
    return None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_partner_search_matches_reference_on_corpus(monkeypatch, seed):
    """On every enrichment call of a 200-instance corpus, the integer
    partner search returns what the Fraction search does, None included."""
    found = []

    def checked(rel, points, target):
        got = _incomparable_partner(rel, points, target)
        assert got == _reference_partner(rel, points, target)
        found.append(got)
        return got

    monkeypatch.setattr(generate, "_incomparable_partner", checked)
    for _ in fuzz_corpus(200, seed):
        pass
    assert found and None in found and any(p is not None for p in found)


_TRIANGLE_CLOSURE = augment_points(
    Simplex(3), [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)], ENRICH_GRID, depth=2
)


@st.composite
def partner_cases(draw):
    """Two or three non-constant utility rows, a target and some other
    points of the depth-2 triangle closure, in any order; often only the
    points comparable to the target, so that the search runs."""
    entries = st.lists(st.integers(-4, 4), min_size=3, max_size=3).filter(
        lambda row: len(set(row)) > 1)
    rel = MultiUtility(draw(st.lists(entries, min_size=2, max_size=3)))
    target = draw(st.sampled_from(_TRIANGLE_CLOSURE))
    points = draw(st.lists(st.sampled_from(_TRIANGLE_CLOSURE), min_size=2, max_size=10,
                           unique=True))
    if draw(st.booleans()):
        points = [p for p in points
                  if rel.compare(target, p) is not ComparisonOutcome.INCOMPARABLE]
    points = [target, *(p for p in points if p != target)]
    return rel, draw(st.permutations(points)), target


@settings(max_examples=300, deadline=None)
@given(partner_cases())
def test_partner_search_matches_reference(case):
    rel, points, target = case
    assert _incomparable_partner(rel, points, target) == _reference_partner(rel, points, target)


def test_partner_search_reaches_the_smallest_step():
    """The target lies on one edge of the triangle and 1/1500 from another.
    Steps along the one incomparable pair leave through the first edge in
    one direction and the second in the other; only 1/2**11 stays inside."""
    rel = MultiUtility([[1, 2, 0], [0, 2, 1]])
    eps = F(1, 1500)
    target = Point((eps, 1 - eps, F(0)))
    points = [target, pt(1, 0, 0), pt(0, 0, 1)]
    want = Point((eps - F(1, 2048), 1 - eps, F(1, 2048)))
    assert _incomparable_partner(rel, points, target) == want
    assert _reference_partner(rel, points, target) == want


def test_corpus_is_pinned():
    """Every instance's universe points and verdicts, witnesses included,
    of `fuzz_corpus(50, 1)`; the `fuzz` report alone is fixed whenever no
    theorem is violated, so it cannot see a changed universe or witness."""
    digest = hashlib.sha256()
    for name, rel, universe in fuzz_corpus(50, 1):
        verdicts = AxiomEngine(rel, universe).all_verdicts()
        record = {"name": name, "points": [point_to_json(p) for p in universe.points],
                  "verdicts": [v.to_json() for v in verdicts.values()]}
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "d7cbecfe023732123a8981f4640b2f0dff2411536eaf7df9762f3a3e50586019")
