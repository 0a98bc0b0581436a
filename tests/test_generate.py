from itertools import product

from prefcheck.generate import ENRICH_GRID, _first_fragile_triple, fuzz_corpus
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
