from fractions import Fraction
from itertools import combinations_with_replacement, islice, product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefcheck import intervals as iv
from prefcheck.axioms import AxiomEngine, Universe
from prefcheck.catalog import ENTRY_IDS, load_entry
from prefcheck.generate import fuzz_corpus
from prefcheck.intervals import FULL, OPEN_UNIT, Interval, interval, point, union
from prefcheck.quadratic import quad_pt
from prefcheck.relations import (
    CLOSED,
    CONVEX,
    COVERS_OPEN_UNIT,
    FLIMSY_HIT,
    FRAGILE_HIT,
    FULL_SET,
    MEETS_OPEN_UNIT,
    OPEN,
    SECTION_LABELS,
    ComparisonOutcome,
    Label,
    CatalogPiecewise,
    LabeledPartition,
    MultiUtility,
    NotRepresentableError,
    OUTCOME_TO_LABEL,
    PartitionError,
    RelationModel,
    classify_segment,
    compare,
    flag_bit,
    section,
)
from prefcheck.spaces import (
    CarrierError,
    Point,
    QuotientError,
    RealInterval,
    Simplex,
    SplitSpace,
    augment_points,
    pt,
    quotient,
)

from affine_regions import affine_eq, affine_ge, affine_le, assemble_partition

F = Fraction

ORACLE_ENTRIES = [eid for eid in ENTRY_IDS
                  if load_entry(eid).relation.has_segment_oracle]


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def test_fragile_unit_compare_examples():
    rel = load_entry("fragile_unit").relation
    assert compare(rel, pt(1), pt(0)) is ComparisonOutcome.BETTER
    assert compare(rel, pt(F(3, 10)), pt(F(7, 10))) is ComparisonOutcome.INCOMPARABLE
    assert compare(rel, pt(F(3, 10)), pt(F(3, 10))) is ComparisonOutcome.EQUIVALENT


def test_compare_rejects_points_outside_carrier():
    rel = load_entry("fragile_unit").relation
    with pytest.raises(CarrierError):
        compare(rel, pt(2), pt(0))


def test_reflexive_on_every_entry():
    for eid in ENTRY_IDS:
        entry = load_entry(eid)
        for p in entry.universe.points:
            assert entry.relation.compare(p, p) is ComparisonOutcome.EQUIVALENT


# ---------------------------------------------------------------------------
# segment oracles
# ---------------------------------------------------------------------------


def test_appx1_segment_at_top_triple():
    rel = load_entry("appx1").relation
    part = classify_segment(rel, pt(1), pt(0), pt(0))
    assert part.section("gt") == point(1)
    assert part.section("eq") == point(0)
    assert part.section("incomparable") == interval(0, 1, False, False)


def test_single_utility_segment_crosses_at_half():
    rel = MultiUtility(((0, 1, 2),))
    e1, e2, e3 = rel.space.vertices()
    part = classify_segment(rel, e1, e3, e2)
    assert part.section("eq") == point(F(1, 2))
    assert part.section("gt") == interval(0, F(1, 2), True, False)
    assert part.section("lt") == interval(F(1, 2), 1, False, True)


@pytest.mark.parametrize("eid", ORACLE_ENTRIES)
def test_constant_segment_on_diagonal(eid):
    entry = load_entry(eid)
    x = entry.universe.points[0]
    part = classify_segment(entry.relation, x, x, x)
    assert part.section("eq") == FULL


def test_section_examples():
    appx2 = load_entry("appx2").relation
    assert section(appx2, pt(1), pt(0), pt(0), "incomparable") == interval(F(1, 2), 1)
    flimsy = load_entry("flimsy_0_3").relation
    got = section(flimsy, pt(3), pt(0), pt(0), "ge")
    assert got == union(interval(0, F(1, 3), True, False),
                        interval(F(2, 3), 1, False, True))


def test_section_rejects_unknown_selector():
    rel = load_entry("appx1").relation
    with pytest.raises(ValueError):
        section(rel, pt(1), pt(0), pt(0), "nonsense")


def test_pointwise_relation_has_no_sections():
    entry = load_entry("appx4_rationals")
    with pytest.raises(NotRepresentableError):
        classify_segment(entry.relation, quad_pt(1), quad_pt(0), quad_pt(0, F(1, 2)))


# ---------------------------------------------------------------------------
# partition invariants
# ---------------------------------------------------------------------------


def _universe_triples(entry, limit=None):
    pts = entry.universe.points
    triples = [(x, y, z) for x in pts for y in pts for z in pts]
    return triples if limit is None else triples[:limit]


@pytest.mark.parametrize("eid", ORACLE_ENTRIES)
def test_partition_totality(eid):
    entry = load_entry(eid)
    for x, y, z in _universe_triples(entry):
        part = entry.relation.segment(x, y, z)
        total = iv.EMPTY
        for which in ("gt", "lt", "eq", "incomparable"):
            total = iv.union(total, part.section(which))
        assert total == FULL


@pytest.mark.parametrize("eid", ORACLE_ENTRIES)
def test_segment_endpoints_match_compare(eid):
    entry = load_entry(eid)
    rel = entry.relation
    for x, y, z in _universe_triples(entry):
        part = rel.segment(x, y, z)
        assert part.label_at(iv.ONE) == OUTCOME_TO_LABEL[rel.compare(x, z)]
        assert part.label_at(iv.ZERO) == OUTCOME_TO_LABEL[rel.compare(y, z)]


@pytest.mark.parametrize("eid", ORACLE_ENTRIES)
def test_segment_swap_symmetry(eid):
    entry = load_entry(eid)
    weights = [F(p, 20) for p in range(21)]
    for x, y, z in _universe_triples(entry):
        forward = entry.relation.segment(x, y, z)
        backward = entry.relation.segment(y, x, z)
        for lam in weights:
            assert forward.label_at(lam) == backward.label_at(1 - lam)


def test_multi_utility_weak_sections_are_convex():
    import random

    rng = random.Random(7)
    for _ in range(25):
        utils = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rng.randint(1, 3))]
        rel = MultiUtility(utils)
        pts = rel.space.vertices()
        for x in pts:
            for y in pts:
                for z in pts:
                    part = rel.segment(x, y, z)
                    assert iv.analyze(part.section("ge")).is_convex
                    assert iv.analyze(part.section("le")).is_convex


@pytest.mark.parametrize("eid", ORACLE_ENTRIES)
def test_oracle_against_pointwise_compare(eid):
    """Labels agree with direct comparison of the mixed point (p/100 grid)."""
    entry = load_entry(eid)
    rel, space = entry.relation, entry.space
    weights = [F(p, 100) for p in range(101)]
    for x, y, z in _universe_triples(entry):
        part = rel.segment(x, y, z)
        for lam in weights:
            got = part.label_at(lam)
            want = OUTCOME_TO_LABEL[rel.compare(space.mix(x, lam, y), z)]
            assert got == want, (eid, x, y, z, lam)


CUT_ENTRIES = [eid for eid in ENTRY_IDS
               if isinstance(load_entry(eid).relation, CatalogPiecewise)]


@pytest.mark.parametrize("eid", CUT_ENTRIES)
def test_derived_oracle_at_off_grid_weights(eid):
    """A cut-declared relation's oracle labels every weight, not only those
    of a grid, as compare labels the mixed point: random rational weights
    lam and mu off the p/100 grid, over triples (x, y, z) of the depth-2
    closure and over (x, y, x`mu`y), whose target lies on the segment."""
    entry = load_entry(eid)
    rel, space = entry.relation, entry.space
    points = st.sampled_from(
        augment_points(space, entry.universe.points, entry.universe.grid, 2))
    off_grid = st.fractions(0, 1, max_denominator=1000).filter(
        lambda w: (100 * w).denominator != 1)

    @settings(max_examples=200, deadline=None)
    @given(points, points, points, off_grid, off_grid)
    def check(x, y, z, lam, mu):
        for target in (z, space.mix(x, mu, y)):
            part = rel.segment(x, y, target)
            for w in (lam, mu):
                want = OUTCOME_TO_LABEL[rel.compare(space.mix(x, w, y), target)]
                assert part.label_at(w) == want, (x, y, target, w)

    check()


def test_cut_features_need_a_coordinate_wise_mix_or_a_ranking():
    """Off a simplex or an interval the coordinates are not mixture-affine
    (split-space mixtures across the arms collapse), so a relation there
    must declare its ranking instead."""
    with pytest.raises(ValueError):
        CatalogPiecewise("split", SplitSpace(), lambda x, y: ComparisonOutcome.EQUIVALENT,
                         lambda z: ())


def test_int_features_and_cuts_give_exact_cut_weights():
    """Points with int coordinates, each declaring its own int value as its
    cut: the derived oracle still cuts [0,1] at Fraction weights, and gives
    the partition it gives for the same values as Fractions."""
    def compare_fn(u, v):
        return ComparisonOutcome.from_weak(u.coords[0] >= v.coords[0], v.coords[0] >= u.coords[0])

    space = RealInterval(F(0), F(4))
    ints = CatalogPiecewise("ints", space, compare_fn, lambda z: (z.coords,))
    fractions = CatalogPiecewise(
        "fractions", space, compare_fn, lambda z: ((F(z.coords[0]),),))
    for value, weight in ((1, F(1, 4)), (3, F(3, 4))):
        part = ints.classify_segment(Point((4,)), Point((0,)), Point((value,)))
        bounds = [b for which in ("gt", "eq", "lt")
                  for piece in part.section(which).intervals for b in (piece.lo, piece.hi)]
        assert weight in bounds and all(type(b) is Fraction for b in bounds), value
        assert part == fractions.classify_segment(pt(4), pt(0), pt(value)), value


# ---------------------------------------------------------------------------
# affine region helpers and partition assembly
# ---------------------------------------------------------------------------


def test_affine_regions_match_brute_force():
    values = [F(p, 16) for p in range(17)]
    cases = [(F(2), F(-1), F(0)), (F(-3), F(2), F(1, 2)), (F(0), F(1), F(1)),
             (F(0), F(0), F(1)), (F(1, 3), F(0), F(1))]
    for a, b, c in cases:
        for strict in (False, True):
            ge = affine_ge(a, b, c, strict)
            le = affine_le(a, b, c, strict)
            for lam in values:
                val = a * lam + b
                assert (lam in ge) == (val > c if strict else val >= c)
                assert (lam in le) == (val < c if strict else val <= c)
        eq = affine_eq(a, b, c)
        for lam in values:
            assert (lam in eq) == (a * lam + b == c)


def test_assemble_partition_rejects_gaps_and_overlaps():
    with pytest.raises(PartitionError):
        assemble_partition({Label.INDIFFERENT: interval(0, F(1, 2), True, False)})
    with pytest.raises(PartitionError):
        assemble_partition({
            Label.INDIFFERENT: interval(0, F(1, 2)),
            Label.INCOMPARABLE: interval(F(1, 2), 1),
        })


# ---------------------------------------------------------------------------
# flag words and the integer multi-utility oracle, against intervals.py
# ---------------------------------------------------------------------------


@st.composite
def partitions(draw):
    """A random tiling of [0,1]: rational cuts, each cut point and each gap
    labeled at random, merged into maximal same-label runs unless `raw`."""
    cuts = sorted(set(draw(st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=12), max_size=4,
    ))) - {iv.ZERO, iv.ONE})
    weights = [iv.ZERO, *cuts, iv.ONE]
    labels = st.sampled_from(list(Label))
    elementary = [(Interval(weights[0], weights[0]), draw(labels))]
    for lo, hi in zip(weights, weights[1:]):
        elementary.append((Interval(lo, hi, False, False), draw(labels)))
        elementary.append((Interval(hi, hi), draw(labels)))
    if draw(st.booleans()):  # raw: adjacent pieces may share a label
        return LabeledPartition(tuple(elementary))
    runs = [elementary[0]]
    for piece, label in elementary[1:]:
        last, last_label = runs[-1]
        if label is last_label:
            runs[-1] = (Interval(last.lo, piece.hi, last.lo_closed, piece.hi_closed), label)
        else:
            runs.append((piece, label))
    return LabeledPartition(tuple(runs))


def _reference_flags(part):
    """The flag word rebuilt from interval-set answers."""
    word = 0
    for which in SECTION_LABELS:
        sec = part.section(which)
        report = iv.analyze(sec)
        for prop, holds in (
            (CLOSED, report.is_closed),
            (OPEN, report.is_open),
            (CONVEX, report.is_convex),
            (FULL_SET, sec == FULL),
            (MEETS_OPEN_UNIT, not iv.intersect(sec, OPEN_UNIT).is_empty()),
            (COVERS_OPEN_UNIT, iv.is_subset(OPEN_UNIT, sec)),
        ):
            if holds:
                word |= flag_bit(which, prop)
    strict = iv.union(part.section("gt"), part.section("lt"))
    bowtie = part.section("incomparable")
    if not iv.intersect(strict, iv.closure(iv.interior(bowtie))).is_empty():
        word |= FRAGILE_HIT
    comparable = iv.union(part.section("ge"), part.section("le"))
    if not iv.intersect(bowtie, iv.closure(comparable)).is_empty():
        word |= FLIMSY_HIT
    return word


@settings(max_examples=400, deadline=None)
@given(partitions())
def test_flag_word_matches_interval_sets(part):
    mirror = part.mirrored()
    assert part.flags == _reference_flags(part)
    assert mirror.flags == _reference_flags(mirror)
    assert mirror.flags == part.flags


def test_partition_rejects_bad_tilings():
    half = F(1, 2)
    for pieces in (
        (),
        ((Interval(0, half, True, False), Label.INDIFFERENT),),
        ((Interval(0, half), Label.INDIFFERENT), (Interval(half, 1), Label.INCOMPARABLE)),
        ((Interval(0, half, True, False), Label.INDIFFERENT),
         (Interval(half, 1, False, True), Label.INCOMPARABLE)),
        ((Interval(0, 1, False, True), Label.INDIFFERENT),),
        ((Interval(0, 1, True, False), Label.INDIFFERENT),),
    ):
        with pytest.raises(PartitionError):
            LabeledPartition(pieces)


@st.composite
def simplex_points(draw, n):
    weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    return Point(tuple(F(w, sum(weights)) for w in weights))


@st.composite
def utility_rows(draw, n):
    """One to three utility vectors of length n, one of them zero at times."""
    entries = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [0] * n
    return rows


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(2, 4))
    rows = draw(utility_rows(n))
    x, y, z = (draw(simplex_points(n)) for _ in range(3))
    shape = draw(st.sampled_from(["distinct", "x==y", "z==x", "z==y", "all equal"]))
    if shape in ("x==y", "all equal"):
        y = x
    if shape in ("z==x", "all equal"):
        z = x
    if shape == "z==y":
        z = y
    return rows, x, y, z


def _word_rows(rel, points):
    """The relation's row kernel over `points`, read through the kernel's
    own word list: row(i, j) gives the flag words of (i, j, k) for every k."""
    row, words = rel.segment_flag_rows(points)
    return lambda i, j: [words[w] for w in row(i, j)]


def _reference_partition(utilities, x, y, z):
    """Sections from `affine_ge`/`affine_le` and interval-set algebra alone."""
    ge = le = FULL
    for u in utilities:
        ux, uy, uz = (sum(F(a) * c for a, c in zip(u, p.coords)) for p in (x, y, z))
        ge = iv.intersect(ge, affine_ge(ux - uy, uy, uz))
        le = iv.intersect(le, affine_le(ux - uy, uy, uz))
    return assemble_partition({
        Label.STRICT_ABOVE: iv.difference(ge, le),
        Label.STRICT_BELOW: iv.difference(le, ge),
        Label.INDIFFERENT: iv.intersect(ge, le),
        Label.INCOMPARABLE: iv.complement(iv.union(ge, le)),
    })


@settings(max_examples=400, deadline=None)
@given(oracle_cases())
def test_integer_oracle_matches_reference(case):
    rows, x, y, z = case
    rel = MultiUtility(rows)
    got = rel.classify_segment(x, y, z)
    want = _reference_partition(rows, x, y, z)
    assert got.pieces == want.pieces
    assert got.flags == want.flags
    # the row kernel's word, for the triple and its mirror
    row = _word_rows(rel, [x, y, z])
    assert row(0, 1)[2] == got.flags
    assert row(1, 0)[2] == rel.classify_segment(y, x, z).flags
    dx, dy = ([sum(F(a) * c for a, c in zip(u, p.coords)) for u in rows] for p in (x, y))
    assert rel.compare(x, y) is ComparisonOutcome.from_weak(
        all(a >= b for a, b in zip(dx, dy)), all(b >= a for a, b in zip(dx, dy))
    )


def _assert_rows_match_classify_segment(rel, points):
    """Every row (i, j) and (j, i) of the kernel is the flag word of
    `classify_segment` per target."""
    row = _word_rows(rel, points)
    for i, j in product(range(len(points)), repeat=2):
        want = [rel.classify_segment(points[i], points[j], p).flags for p in points]
        assert row(i, j) == want, (i, j)
        assert row(j, i) == want, (j, i)


@st.composite
def flag_row_cases(draw):
    n = draw(st.integers(2, 4))
    return draw(utility_rows(n)), draw(st.lists(simplex_points(n), min_size=4, max_size=7))


@settings(max_examples=400, deadline=None)
@given(flag_row_cases())
def test_flag_row_kernel_matches_segment_flags(case):
    """The multi-utility row kernel, over one common denominator, gives
    the word of `classify_segment` for every target, and row (i, j) equals
    row (j, i).  With several points, sign-code keys recur across rows and
    targets, so memoised words are read back, and keys where two utilities
    cross inside (0, 1) occur."""
    rows, points = case
    _assert_rows_match_classify_segment(MultiUtility(rows), points)


_TRIANGLE_CLOSURE = augment_points(
    Simplex(3), [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)], (F(1, 2),), depth=2
)


@st.composite
def coinciding_crossing_cases(draw):
    """Utility rows that are positive combinations of one or two base rows,
    over points of a grid closure: a row and its positive multiple cross
    zero at the same weight, and grid points put the crossings of other
    rows on shared weights too."""
    coefficient = st.integers(-3, 3)
    bases = draw(st.lists(st.lists(coefficient, min_size=3, max_size=3),
                          min_size=1, max_size=2))
    weights = st.lists(st.integers(0, 3), min_size=len(bases), max_size=len(bases))
    rows = []
    for _ in range(draw(st.integers(2, 4))):
        w = draw(weights.filter(any))
        rows.append([sum(c * b[t] for c, b in zip(w, bases)) for t in range(3)])
    points = draw(st.lists(st.sampled_from(_TRIANGLE_CLOSURE), min_size=4, max_size=8,
                           unique=True))
    return rows, points


@settings(max_examples=200, deadline=None)
@given(coinciding_crossing_cases())
def test_flag_row_kernel_with_coinciding_crossings(case):
    """Keys whose interior crossings tie get their own extended keys: the
    kernel still gives the word of `classify_segment` on every row."""
    rows, points = case
    _assert_rows_match_classify_segment(MultiUtility(rows), points)


def test_flag_row_kernel_on_pareto2_closure():
    """The first 40 points of the depth-2 closure under the `pareto2`
    utilities: many keys with two interior crossings, whose words differ
    with the order of those crossings, so the kernel reads them by the
    key and its crossing-order digits."""
    entry = load_entry("pareto2")
    universe = entry.universe
    points = augment_points(entry.space, universe.points, universe.grid, depth=2)[:40]
    _assert_rows_match_classify_segment(MultiUtility(entry.relation.utilities), points)


_BIG = 10**40


@st.composite
def lane_cases(draw):
    """One to eight utilities over a simplex of two to four coordinates,
    with entries up to 4 or from 10**39 to 10**40 in size, half the time
    all drawn from a pool of one to three values, so that entries and
    utilities repeat (ties); one to eight points."""
    n = draw(st.integers(2, 4))
    big = st.builds(mul, st.sampled_from([1, -1]), st.integers(_BIG // 10, _BIG))
    entry = st.one_of(st.integers(-4, 4), big)
    if draw(st.booleans()):
        entry = st.sampled_from(draw(st.lists(entry, min_size=1, max_size=3)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8))
    return rows, draw(st.lists(simplex_points(n), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(lane_cases())
# all utilities zero (M = 0), no point, one point, two utilities of size
# 10**40 over eight points, where lanes one byte short carry, and eight
# utilities of size 10**40, whose composites (16 sign digits and 28 pair
# digits) pass 64 bits
@example(([[0, 0, 0], [0, 0, 0]], [pt(1, 0, 0), pt(0, 1, 0), pt(F(1, 2), F(1, 2), 0)]))
@example(([[3, -1, 0], [-2, 4, 1]], []))
@example(([[3, -1, 0], [-2, 4, 1]], [pt(F(1, 3), F(1, 3), F(1, 3))]))
@example(([[_BIG, -_BIG, 2], [-_BIG, 2 * _BIG, 5]],
          [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(F(1, 2), F(1, 2), 0),
           pt(F(1, 2), 0, F(1, 2)), pt(0, F(1, 2), F(1, 2)), pt(F(1, 3), F(1, 3), F(1, 3)),
           pt(F(1, 2), F(1, 4), F(1, 4))]))
@example(([[(-1) ** u * _BIG + u, u - _BIG, _BIG // (u + 1)] for u in range(8)],
          [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(F(1, 2), F(1, 4), F(1, 4)),
           pt(F(1, 6), F(1, 2), F(1, 3))]))
def test_lane_kernel_matches_segment_flags(case):
    """The lane kernel packs one lane per target into one int, with lanes
    as wide as the largest entry needs: read through its word list, every
    row (i, j) and (j, i) is the word of `classify_segment` per target."""
    rows, points = case
    _assert_rows_match_classify_segment(MultiUtility(rows), points)


@pytest.mark.parametrize("depth", [1, 2])
def test_split_flag_row_kernel_matches_oracle(depth):
    """`split_hm` ranks by a mixture-affine functional, so its rows come
    from the one-utility sign-code kernel, cross-arm mixtures included (49
    points at depth 2)."""
    entry = load_entry("split_hm")
    universe = entry.universe
    points = augment_points(entry.space, universe.points, universe.grid, depth)
    assert {p.part for p in points} == {"A", "B"}
    rel = entry.relation
    row = _word_rows(rel, points)
    for i, j in combinations_with_replacement(range(len(points)), 2):
        want = [rel.classify_segment(points[i], points[j], p).flags for p in points]
        assert row(i, j) == want, (i, j)
        assert row(j, i) == want, (j, i)


def _quotient_cases():
    """(entry id, derived relation, quotient universe points) of every
    catalog entry whose quotient exists and has a segment oracle."""
    cases = []
    for eid in ORACLE_ENTRIES:
        entry = load_entry(eid)
        universe = entry.universe
        try:
            qspace, qrel = quotient(entry.space, entry.relation, universe.points, universe.grid)
        except QuotientError:
            continue
        quniverse = Universe(qspace.representatives, universe.closure_depth, universe.grid)
        cases.append((eid, qrel, AxiomEngine(qrel, quniverse).points))
    return cases


def test_quotient_flag_rows_match_classify_segment():
    """A quotient's rows are the base kernel's on canonical members; each
    must be the word of the derived relation's own `classify_segment`."""
    cases = _quotient_cases()
    assert {eid for eid, _, _ in cases} == set(ORACLE_ENTRIES) - {"appx3", "flimsy_0_3"}
    for eid, qrel, points in cases:
        # a class member other than the representative, mixed in
        extra = [p for p in load_entry(eid).universe.points if p not in points]
        _assert_rows_match_classify_segment(qrel, points + extra)


class _AllIndifferent(RelationModel):
    """Every point indifferent to every other, with the segment oracle of
    `appx1`: deliberately inconsistent."""

    kind = "all_indifferent"

    def __init__(self):
        super().__init__(RealInterval(F(0), F(1)))

    def compare(self, x, y):
        return ComparisonOutcome.EQUIVALENT

    def classify_segment(self, x, y, z):
        return load_entry("appx1").relation.classify_segment(x, y, z)


def test_quotient_flag_rows_read_canonical_members():
    """The derived relation reads the base on canonical members, so its rows
    must too, even where the base oracle tells class members apart (on the
    catalog it never does)."""
    base = _AllIndifferent()
    points = [pt(0), pt(F(1, 2)), pt(1)]
    qspace, qrel = quotient(base.space, base, points)
    assert qspace.representatives == (pt(0),)
    _assert_rows_match_classify_segment(qrel, points)
    assert _word_rows(qrel, points)(1, 2) != _word_rows(base, points)(1, 2)


def _compare_rows(rel, points):
    """`outcome_rows` by its definition: one `compare` per pair."""
    return [bytes(rel.compare(x, y).bit for y in points) for x in points]


@st.composite
def outcome_row_cases(draw):
    """One to five utility rows, among them at times a zero row, a
    constant row and a repeated row, with negative entries, over points of
    the depth-2 triangle closure, a point at times repeated."""
    entry = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
    rows = draw(st.lists(st.one_of(
        st.lists(entry, min_size=3, max_size=3),
        entry.map(lambda c: [c] * 3),
    ), min_size=1, max_size=5))
    if len(rows) < 5 and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    points = draw(st.lists(st.sampled_from(_TRIANGLE_CLOSURE), min_size=1, max_size=15))
    return rows, points


@settings(max_examples=300, deadline=None)
@given(outcome_row_cases())
# entries of size 10**40, whose lanes are 34 bytes wide, and no point
@example(([[_BIG, -_BIG, 1], [-_BIG, 2 * _BIG, 0], [_BIG, _BIG, _BIG]], _TRIANGLE_CLOSURE[:12]))
@example(([[3, -1, 0]], []))
def test_multi_utility_outcome_rows_match_compare(case):
    """Outcome rows read off lanes of sign digits are the outcomes of
    `compare`."""
    rows, points = case
    rel = MultiUtility(rows)
    assert rel.outcome_rows(points) == _compare_rows(rel, points)


@pytest.mark.parametrize("depth", [1, 2])
def test_split_outcome_rows_match_compare(depth):
    """`split_hm` reads its outcome rows off its ranking column."""
    entry = load_entry("split_hm")
    universe = entry.universe
    points = augment_points(entry.space, universe.points, universe.grid, depth)
    assert entry.relation.outcome_rows(points) == _compare_rows(entry.relation, points)


class _InconsistentAboveHalf(RelationModel):
    """On [0, 1], points up to 1/2 are indifferent to one another and
    others compare by value, except that 0 is above 1: deliberately
    inconsistent, so 1/4 and its class representative 0 compare with 1
    differently."""

    kind = "inconsistent"

    def __init__(self):
        super().__init__(RealInterval(F(0), F(1)))

    def compare(self, x, y):
        a, b = x.coords[0], y.coords[0]
        if {a, b} == {0, 1}:
            a, b = b, a
        return ComparisonOutcome.from_weak(a >= b or max(a, b) <= F(1, 2),
                                           b >= a or max(a, b) <= F(1, 2))


def test_quotient_outcome_rows_match_compare():
    """A quotient's outcome rows are its base's on canonical members, for
    every catalog entry whose quotient exists and for a base whose
    comparisons tell class members apart."""
    checked = set()
    for eid in ENTRY_IDS:
        entry = load_entry(eid)
        universe = entry.universe
        try:
            qspace, qrel = quotient(entry.space, entry.relation, universe.points, universe.grid)
        except QuotientError:
            continue
        points = AxiomEngine(qrel, Universe(qspace.representatives, universe.closure_depth,
                                            universe.grid)).points
        points += tuple(p for p in universe.points if p not in points)
        assert qrel.outcome_rows(points) == _compare_rows(qrel, points), eid
        checked.add(eid)
    assert checked == set(ENTRY_IDS) - {"appx3", "flimsy_0_3"}
    base = _InconsistentAboveHalf()
    qspace, qrel = quotient(base.space, base, [pt(0), pt(1)])
    points = [pt(0), pt(F(1, 4)), pt(1)]
    assert qrel.outcome_rows(points) == _compare_rows(qrel, points)
    assert qrel.outcome_rows(points) != base.outcome_rows(points)


@pytest.mark.parametrize("eid", ENTRY_IDS)
def test_engine_compare_reads_outcome_rows(eid):
    """The engine answers every pair of universe points from the
    relation's outcome rows, the same objects `compare` returns, and caches
    no such pair one at a time."""
    entry = load_entry(eid)
    rel = entry.relation
    engine = AxiomEngine(rel, entry.universe)
    points = engine.points
    assert rel.outcome_rows(points) == _compare_rows(rel, points)
    for x, y in product(points, repeat=2):
        assert engine.compare(x, y) is rel.compare(x, y)
    assert not engine._cmp


def test_default_flag_row_kernel_reads_partitions():
    """A relation with neither utility columns nor declared cuts reads its
    rows off `classify_segment`, one triple at a time."""
    rel = _AllIndifferent()
    points = AxiomEngine(load_entry("appx1").relation, load_entry("appx1").universe).points
    row = _word_rows(rel, points)
    for i, j in product(range(len(points)), repeat=2):
        assert row(i, j) == [rel.segment(points[i], points[j], p).flags for p in points]


def test_default_flag_row_kernel_caches_no_partition():
    """The default row loop classifies each triple afresh: on a freshly
    built relation it leaves the segment cache empty."""
    rel = _AllIndifferent()
    points = AxiomEngine(load_entry("appx1").relation, load_entry("appx1").universe).points
    row = _word_rows(rel, points)
    for i, j in product(range(len(points)), repeat=2):
        row(i, j)
    assert not rel._segment_cache


def _fuzz_instance():
    _, rel, universe = next(islice(fuzz_corpus(3, seed=1), 2, None))
    return rel, AxiomEngine(rel, universe).points


def _split_instance():
    entry = load_entry("split_hm")
    return entry.relation, AxiomEngine(entry.relation, entry.universe).points


def _star_instance():
    entry = load_entry("star_cvx_not_cvx")
    return entry.relation, AxiomEngine(entry.relation, entry.universe).points


def _flimsy_instance():
    entry = load_entry("flimsy_0_3")
    return entry.relation, AxiomEngine(entry.relation, entry.universe).points


@pytest.mark.parametrize("make", [_fuzz_instance, _split_instance, _star_instance,
                                  _flimsy_instance])
def test_column_rows_call_no_compare_or_classify_segment(make, monkeypatch):
    """A relation with utility columns reads both tables off sign codes:
    with `compare` and `classify_segment` raising, its outcome and flag
    rows are those it gave before.  A relation that declares cuts reads its
    flag rows off the line kernel, whose cells it labels by its comparator:
    with `classify_segment` raising, they are those it gave before."""
    rel, points = make()
    n = len(points)
    refused = ["classify_segment"]
    if rel._columns(points) is not None:
        refused.append("compare")

    def tables():
        row = _word_rows(rel, points)
        flags = [row(i, j) for i, j in product(range(n), repeat=2)]
        return rel.outcome_rows(points), flags

    want = tables()

    def refuse(*_):
        raise AssertionError("read off sign codes, not per pair or triple")

    for name in refused:
        monkeypatch.setattr(type(rel), name, refuse)
    assert tables() == want


INTERVAL_ENTRIES = [eid for eid in ENTRY_IDS
                    if isinstance(load_entry(eid).space, RealInterval)]


@pytest.mark.parametrize("entry_id", INTERVAL_ENTRIES)
def test_interval_flag_row_kernel_matches_oracle(entry_id):
    """On an interval carrier the line kernel has one feature, so no key
    has crossing digits; each word must be the oracle's own for the
    triple."""
    rel = load_entry(entry_id).relation
    points = AxiomEngine(rel, load_entry(entry_id).universe).points
    row = _word_rows(rel, points)
    for i, j in product(range(len(points)), repeat=2):
        want = [rel.classify_segment(points[i], points[j], z).flags for z in points]
        assert row(i, j) == want, (i, j)
        assert row(j, i) == want, (i, j)


LABEL_TO_OUTCOME = {label: outcome for outcome, label in OUTCOME_TO_LABEL.items()}


@st.composite
def interval_relations(draw):
    """A random relation on a random interval [lo, hi]: thresholds cut the
    values into classes (each threshold, each open gap between them), and
    how a point compares with z is drawn per (class of z, class of the
    point).  Returns the relation, which declares the thresholds as its
    cuts, a reference oracle built from affine regions, and some points."""
    lo = draw(st.fractions(-2, 2, max_denominator=4))
    width = draw(st.fractions(F(1, 4), 3, max_denominator=4))
    hi = lo + width

    def inside(max_denominator):
        return st.fractions(0, 1, max_denominator=max_denominator).map(lambda f: lo + f * width)

    cuts = sorted(set(draw(st.lists(inside(6), max_size=3))))
    classes = 2 * len(cuts) + 1  # gap 0, cut 0, gap 1, ..., gap m
    labels = draw(st.lists(
        st.lists(st.sampled_from(list(Label)), min_size=classes, max_size=classes),
        min_size=classes, max_size=classes,
    ))

    def value_class(v):
        below = sum(1 for t in cuts if t < v)
        return 2 * below + (1 if below < len(cuts) and cuts[below] == v else 0)

    def compare_fn(u, z):
        return LABEL_TO_OUTCOME[labels[value_class(z.coords[0])][value_class(u.coords[0])]]

    def oracle(x, y, z):
        a, b = x.coords[0] - y.coords[0], y.coords[0]
        regions = []
        for k, t in enumerate(cuts):
            regions.append(affine_le(a, b, t, strict=True) if k == 0 else iv.intersect(
                affine_ge(a, b, cuts[k - 1], strict=True), affine_le(a, b, t, strict=True)))
            regions.append(affine_eq(a, b, t))
        regions.append(affine_ge(a, b, cuts[-1], strict=True) if cuts else FULL)
        sections = {}
        for label, region in zip(labels[value_class(z.coords[0])], regions):
            sections[label] = union(sections.get(label, iv.EMPTY), region)
        return assemble_partition(sections)

    values = st.one_of(st.sampled_from([lo, hi, *cuts]), inside(8))
    points = [pt(v) for v in draw(st.lists(values, min_size=1, max_size=6))]
    rel = CatalogPiecewise("random", RealInterval(lo, hi), compare_fn, lambda z: (cuts,))
    return rel, oracle, points


@settings(max_examples=300, deadline=None)
@given(interval_relations())
def test_interval_flag_row_kernel_matches_reference(case):
    """The derived oracle and the line kernel both match a reference built
    from affine regions and interval-set algebra alone."""
    rel, oracle, points = case
    row = _word_rows(rel, points)
    for i, j in product(range(len(points)), repeat=2):
        want = [oracle(points[i], points[j], z) for z in points]
        assert [rel.classify_segment(points[i], points[j], z) for z in points] == want
        assert row(i, j) == [part.flags for part in want]


@pytest.mark.parametrize("depth, limit", [(1, None), (2, 40)])
def test_star_flag_rows_match_oracle(depth, limit):
    """`star_cvx_not_cvx` declares two values per coordinate, so the line
    kernel meets keys whose crossings lie on two coordinates and reads
    them by their crossing-order digits: every triple at depth 1, and the
    first 40 points of depth 2."""
    entry = load_entry("star_cvx_not_cvx")
    universe = entry.universe
    points = augment_points(entry.space, universe.points, universe.grid, depth)[:limit]
    _assert_rows_match_classify_segment(entry.relation, points)


@st.composite
def simplex_relations(draw):
    """The twin of `interval_relations` on the triangle: thresholds on each
    coordinate cut its values into classes, and how a point compares with
    z is drawn per (classes of z, classes of the point), on first use.
    Returns the relation, which declares the thresholds as its cuts, and
    some points, at times on a threshold."""
    cuts = [sorted(set(draw(st.lists(st.fractions(0, 1, max_denominator=4), max_size=2))))
            for _ in range(3)]
    rnd = draw(st.randoms(use_true_random=False))
    table = {}

    def classes(p):
        return tuple(2 * sum(1 for t in at if t < v) + (v in at)
                     for v, at in zip(p.coords, cuts))

    def compare_fn(u, z):
        key = classes(z), classes(u)
        if key not in table:
            table[key] = rnd.choice(list(ComparisonOutcome))
        return table[key]

    points = draw(st.lists(st.one_of(st.sampled_from(_TRIANGLE_CLOSURE), simplex_points(3)),
                           min_size=1, max_size=6))
    return CatalogPiecewise("random", Simplex(3), compare_fn, lambda z: cuts), points


@settings(max_examples=200, deadline=None)
@given(simplex_relations())
def test_simplex_flag_row_kernel_matches_oracle(case):
    """With lines on three coordinates, crossing digits read keys whose
    crossings lie on two coordinates; the kernel's rows are the words of
    `classify_segment` on every triple."""
    rel, points = case
    _assert_rows_match_classify_segment(rel, points)
