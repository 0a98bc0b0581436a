from itertools import product

import pytest

from prefcheck.generate import (
    DEFAULT_SEED,
    ENRICH_GRID,
    _first_fragile_triple,
    env_seed,
    fuzz_corpus,
    seeded_rng,
)
from prefcheck.relations import FRAGILE_HIT
from prefcheck.spaces import augment_points


def test_first_fragile_triple_matches_brute_force():
    """Enrichment's row-kernel search finds the first fragile triple of a
    brute-force scan over `rel.segment(...).flags`, in (i, j, k) order."""
    hits = 0
    for _, rel, universe in fuzz_corpus(12, seed=1):
        points = augment_points(rel.space, universe.points[:4], ENRICH_GRID, depth=1)
        want = next((ijk for ijk in product(range(len(points)), repeat=3)
                     if rel.segment(*(points[t] for t in ijk)).flags & FRAGILE_HIT), None)
        assert _first_fragile_triple(rel, points) == want
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
