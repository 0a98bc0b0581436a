"""Seeded random multi-utility instances for fuzzing and property sweeps.

Universes are the simplex vertices plus a random rational point, closed
under midpoint mixtures, then enriched: whenever some strict section has a
boundary weight adjacent to an open incomparability interval, the boundary
mixture, an adjacent incomparable mixture, and (if needed) a constructed
incomparable partner are added as points.  On the enriched universe the
interior-weight checks fail exactly when the section shapes say they must,
so finite verdicts line up with the relation's global behavior.
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterator
from fractions import Fraction
from math import lcm
from operator import sub

from . import intervals as iv
from .axioms import AxiomEngine, AxiomId, Universe
from .relations import ComparisonOutcome, MultiUtility
from .spaces import Point, augment_points

F = Fraction

DEFAULT_SEED = 20260808
ENRICH_GRID = (F(1, 2),)


def env_seed() -> int:
    """The seed in PREFCHECK_SEED, or DEFAULT_SEED when it is unset; a value
    that is not an integer raises ValueError naming the variable."""
    raw = os.environ.get("PREFCHECK_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PREFCHECK_SEED must be an integer, got {raw!r}") from None


def seeded_rng(seed: int | None = None) -> random.Random:
    return random.Random(env_seed() if seed is None else seed)


def random_utilities(rng: random.Random, n_coords: int, n_utils: int,
                     lo: int = -5, hi: int = 5) -> tuple:
    return tuple(
        tuple(F(rng.randint(lo, hi)) for _ in range(n_coords))
        for _ in range(n_utils)
    )


def random_simplex_point(rng: random.Random, n_coords: int) -> Point:
    weights = [rng.randint(0, 6) for _ in range(n_coords)]
    if sum(weights) == 0:
        weights[rng.randrange(n_coords)] = 1
    total = sum(weights)
    return Point(tuple(F(w, total) for w in weights))


def _incomparable_partner(rel: MultiUtility, points: list[Point],
                          target: Point) -> Point | None:
    """A point incomparable to `target`, constructed when none of `points`
    is; None when one of `points` already is, or when the search finds none.
    `target` must be one of `points`.

    If (c, d) is an incomparable pair, the gaps u.(c - d) over the
    utilities u have signs of both kinds, and so do those of any nonzero
    multiple of c - d.  So every step from `target` along c - d that stays
    inside the simplex is incomparable to `target`.  The search tries the
    incomparable pairs of `points` in scan order, and for each the steps
    +-(c - d) / 2**k for k = 1, ..., 11, testing in integers, over one
    common denominator, that the step stays inside.
    """
    incomparable = ComparisonOutcome.INCOMPARABLE.bit
    rows = rel.outcome_rows(points)
    at = points.index(target)
    if incomparable in rows[at]:
        return None
    den = lcm(*(c.denominator for p in points for c in p.coords))
    nums = [[c.numerator * (den // c.denominator) for c in p.coords] for p in points]
    here = nums[at]
    for c, row in enumerate(rows):
        for d, bit in enumerate(row):
            if bit != incomparable:
                continue
            vec = list(map(sub, nums[c], nums[d]))
            for k in range(1, 12):
                scale = 2 ** k
                for sign in (1, -1):
                    coords = [scale * a + sign * v for a, v in zip(here, vec)]
                    if all(num >= 0 for num in coords):
                        cand = Point(tuple(F(num, scale * den) for num in coords))
                        if rel.compare(target, cand) is ComparisonOutcome.INCOMPARABLE:
                            return cand
    return None


def _boundary_enrichment(rel: MultiUtility, points: list[Point]) -> list[Point]:
    # the first triple in scan order whose strict section meets the closure
    # of the interior of incomparability: the witness of `fragile`
    found = AxiomEngine(rel, Universe(tuple(points), 0, ENRICH_GRID)).verdict(
        AxiomId.FRAGILE).witness
    if found is None:
        return []

    x, y, z = found["x"], found["y"], found["z"]
    part = rel.segment(x, y, z)
    bowtie_core = iv.closure(iv.interior(part.section("incomparable")))
    hit = next(meet for meet in (iv.intersect(part.section(which), bowtie_core)
                                 for which in ("gt", "lt"))
               if not meet.is_empty())
    lam0 = iv.representative(hit)
    bow_interior = iv.interior(part.section("incomparable"))
    piece = next(p for p in bow_interior.intervals if p.lo <= lam0 <= p.hi)
    lam_mid = (piece.lo + piece.hi) / 2
    boundary = rel.space.mix(x, lam0, y)
    inside = rel.space.mix(x, lam_mid, y)
    additions = [p for p in (boundary, inside) if p not in points]
    partner = _incomparable_partner(rel, points + additions, boundary)
    if partner is not None and partner not in points:
        additions.append(partner)
    return additions


def instance_universe(rel: MultiUtility, base_points: tuple[Point, ...]) -> Universe:
    points = augment_points(rel.space, base_points, ENRICH_GRID, depth=1)
    points = points + _boundary_enrichment(rel, points)
    return Universe(tuple(points), closure_depth=0, grid=ENRICH_GRID)


def random_multi_utility_instance(
    rng: random.Random, n_coords: int, n_utils: int
) -> tuple[MultiUtility, Universe]:
    rel = MultiUtility(random_utilities(rng, n_coords, n_utils))
    base = tuple(rel.space.vertices())
    if n_coords <= 3:  # keep larger simplexes at vertex resolution
        base += (random_simplex_point(rng, n_coords),)
    return rel, instance_universe(rel, base)


def random_single_utility_instance(
    rng: random.Random, n_coords: int = 3
) -> tuple[MultiUtility, Universe]:
    return random_multi_utility_instance(rng, n_coords, 1)


def random_pareto_instance(
    rng: random.Random, n_coords: int = 3, max_tries: int = 400
) -> tuple[MultiUtility, Universe, AxiomEngine]:
    """Two-utility instance verified incomplete and nontrivial on its universe."""
    for _ in range(max_tries):
        rel, universe = random_multi_utility_instance(rng, n_coords, 2)
        engine = AxiomEngine(rel, universe)
        if engine.verdict(AxiomId.COMPLETE).failed and engine.verdict(
            AxiomId.NONTRIVIAL
        ).passed:
            return rel, universe, engine
    raise RuntimeError("could not draw an incomplete nontrivial instance")


def fuzz_corpus(count: int, seed: int | None = None) -> Iterator[tuple[str, MultiUtility, Universe]]:
    """Deterministic stream of instances cycling utility counts and simplex sizes."""
    rng = seeded_rng(seed)
    shapes = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
    for i in range(count):
        n_coords, n_utils = shapes[i % len(shapes)]
        rel, universe = random_multi_utility_instance(rng, n_coords, n_utils)
        yield f"fuzz-{i:04d}-u{n_utils}x{n_coords}", rel, universe


def soundness_violations(engine: AxiomEngine) -> list:
    from .theorems import run_all_theorems

    return [
        report
        for report in run_all_theorems(engine)
        if report.applicable and not report.consistent
    ]
