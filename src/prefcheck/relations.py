"""Relation models: pairwise comparison plus an exact segment oracle.

For a triple (x, y, z) the segment oracle labels every weight lam in [0,1]
by how the mixture x`lam`y compares with z, as a finite exact partition of
the unit interval.  All section sets are read off that partition.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import combinations, repeat
from math import lcm
from operator import add, ge, le, sub

from . import intervals as iv
from .intervals import Interval, SectionSet
from .records import record
from .spaces import CarrierError, MixtureSpace, Point, RealInterval, Simplex


class ComparisonOutcome(Enum):
    BETTER = "better"          # x > y
    WORSE = "worse"            # x < y
    EQUIVALENT = "equivalent"  # x ~ y
    INCOMPARABLE = "incomparable"

    @staticmethod
    def from_weak(x_over_y: bool, y_over_x: bool) -> "ComparisonOutcome":
        if x_over_y and y_over_x:
            return ComparisonOutcome.EQUIVALENT
        if x_over_y:
            return ComparisonOutcome.BETTER
        if y_over_x:
            return ComparisonOutcome.WORSE
        return ComparisonOutcome.INCOMPARABLE


# one bit per outcome, so a set of outcomes is a mask and membership is `&`
for _i, _outcome in enumerate(ComparisonOutcome):
    _outcome.bit = 1 << _i
del _i, _outcome


class Label(str, Enum):
    STRICT_ABOVE = "strict_above"    # x lam y  >  z
    STRICT_BELOW = "strict_below"    # x lam y  <  z
    INDIFFERENT = "indifferent"      # x lam y  ~  z
    INCOMPARABLE = "incomparable"


OUTCOME_TO_LABEL = {
    ComparisonOutcome.BETTER: Label.STRICT_ABOVE,
    ComparisonOutcome.WORSE: Label.STRICT_BELOW,
    ComparisonOutcome.EQUIVALENT: Label.INDIFFERENT,
    ComparisonOutcome.INCOMPARABLE: Label.INCOMPARABLE,
}

SECTION_LABELS = {
    "ge": (Label.STRICT_ABOVE, Label.INDIFFERENT),
    "le": (Label.STRICT_BELOW, Label.INDIFFERENT),
    "gt": (Label.STRICT_ABOVE,),
    "lt": (Label.STRICT_BELOW,),
    "eq": (Label.INDIFFERENT,),
    "incomparable": (Label.INCOMPARABLE,),
}


class PartitionError(ValueError):
    pass


class NotRepresentableError(ValueError):
    """Raised when a relation's sections are not finite interval unions."""


# Section flag words.  Each section selector owns one bit of a class mask;
# a property of the section is that bit shifted by the property's offset.
_CLASS_INDEX = {"ge": 0, "le": 1, "gt": 2, "lt": 3, "eq": 4, "incomparable": 5}
_LABEL_CLASSES = {
    label: sum(1 << _CLASS_INDEX[which]
               for which, labels in SECTION_LABELS.items() if label in labels)
    for label in Label
}
CLOSED, OPEN, CONVEX, FULL_SET, MEETS_OPEN_UNIT, COVERS_OPEN_UNIT = range(0, 36, 6)
FRAGILE_HIT = 1 << 36  # a strict weight in closure(interior(incomparable))
FLIMSY_HIT = 1 << 37   # an incomparable weight in the closure of the comparable ones
_STRICT = (1 << _CLASS_INDEX["gt"]) | (1 << _CLASS_INDEX["lt"])
_INCOMPARABLE = 1 << _CLASS_INDEX["incomparable"]
_ALL_CLASSES = (1 << len(_CLASS_INDEX)) - 1


def flag_bit(which: str, prop: int) -> int:
    """The flag-word bit saying section `which` has property `prop`."""
    return 1 << (prop + _CLASS_INDEX[which])


def _flag_word(pieces) -> int:
    """Every section property, read in one walk that also checks that the
    pieces tile [0,1] (no gap, no overlap).

    A section's components are the maximal runs of consecutive pieces whose
    labels it collects, so each property is decided where runs start and
    end, from the endpoint flags alone.  Every property is invariant under
    lam -> 1 - lam.
    """
    not_closed = not_open = not_convex = seen = hits = meets = 0
    full = covers = _ALL_CLASSES
    prev = 0
    pos, owned = iv.ZERO, False
    for piece, label in pieces:
        if piece.lo != pos or piece.lo_closed == owned:
            raise PartitionError(f"gap or overlap at {pos}: {pieces}")
        pos, owned = piece.hi, piece.hi_closed
        mask = _LABEL_CLASSES[label]
        full &= mask
        if piece.lo != piece.hi or iv.ZERO < piece.lo < iv.ONE:
            meets |= mask
            covers &= mask
        starts, ends = mask & ~prev, prev & ~mask
        # runs start at 0 closed and end at 1 closed; at a cut inside (0,1)
        # exactly one of the two pieces owns the cut point
        if prev and piece.lo_closed:
            not_open |= starts
            not_closed |= ends
            if starts & _INCOMPARABLE:
                hits |= FLIMSY_HIT
            if ends & _INCOMPARABLE and mask & _STRICT:
                hits |= FRAGILE_HIT
        elif prev:
            not_closed |= starts
            not_open |= ends
            if starts & _INCOMPARABLE and prev & _STRICT:
                hits |= FRAGILE_HIT
            if ends & _INCOMPARABLE:
                hits |= FLIMSY_HIT
        not_convex |= starts & seen
        seen |= starts
        prev = mask
    if pos != iv.ONE or not owned:
        raise PartitionError(f"partition does not reach 1: {pieces}")
    return (
        (_ALL_CLASSES & ~not_closed) << CLOSED
        | (_ALL_CLASSES & ~not_open) << OPEN
        | (_ALL_CLASSES & ~not_convex) << CONVEX
        | full << FULL_SET
        | meets << MEETS_OPEN_UNIT
        | covers << COVERS_OPEN_UNIT
        | hits
    )


@record(frozen=True)
class LabeledPartition:
    """Exact cover of [0,1] by labeled intervals, sorted and disjoint;
    construction raises PartitionError on a gap or an overlap.

    `flags` is its flag word: one bit per (section, property) pair of
    `flag_bit`, plus FRAGILE_HIT and FLIMSY_HIT.
    """

    pieces: tuple[tuple[Interval, Label], ...]

    def __post_init__(self):
        object.__setattr__(self, "_sections", {})
        object.__setattr__(self, "flags", _flag_word(self.pieces))

    def label_at(self, lam: Fraction) -> Label:
        for piece, label in self.pieces:
            if lam in piece:
                return label
        raise PartitionError(f"weight {lam} not covered")  # pragma: no cover

    def section(self, which: str) -> SectionSet:
        got = self._sections.get(which)
        if got is None:
            labels = SECTION_LABELS[which]
            got = iv.normalize([p for p, lab in self.pieces if lab in labels])
            self._sections[which] = got
        return got

    def mirrored(self) -> "LabeledPartition":
        """The partition for the swapped pair: weight lam becomes 1 - lam."""
        flipped = tuple(
            (Interval(1 - piece.hi, 1 - piece.lo, piece.hi_closed, piece.lo_closed),
             label)
            for piece, label in reversed(self.pieces)
        )
        return LabeledPartition(flipped)


# ---------------------------------------------------------------------------
# Relation models
# ---------------------------------------------------------------------------


class RelationModel:
    kind = "abstract"
    has_segment_oracle = True

    def __init__(self, space: MixtureSpace):
        self.space = space
        self._segment_cache: dict = {}

    def compare(self, x: Point, y: Point) -> ComparisonOutcome:  # pragma: no cover
        raise NotImplementedError

    def classify_segment(self, x: Point, y: Point, z: Point) -> LabeledPartition:
        raise NotRepresentableError(f"{self.kind} relation has no segment oracle")

    def segment(self, x: Point, y: Point, z: Point) -> LabeledPartition:
        key = (x, y, z)
        got = self._segment_cache.get(key)
        if got is None:
            mirrored = self._segment_cache.get((y, x, z))
            if mirrored is not None:
                got = mirrored.mirrored()
            else:
                got = self.classify_segment(x, y, z)
            self._segment_cache[key] = got
        return got

    def _columns(self, points: Sequence[Point]) -> list[tuple[int, ...]] | None:
        """Integer utility columns of `points`, when the relation is "weakly
        preferred iff no utility is lower" for mixture-affine utilities:
        columns[p][u] = D[p][u], the u-th utility of point number p over one
        positive common denominator.  None when it is not."""
        return None

    def segment_flag_rows(self, points: Sequence[Point]) -> tuple[Callable, list[int]]:
        """The row kernel of `points`: a function of point numbers (i, j)
        giving, for every z in `points` in order, the id of the flag word of
        (points[i], points[j], z), and the list of distinct words the ids
        index, which grows as rows are computed (`_WordIds`).  The words are
        read off lanes of sign codes when the relation has utility columns,
        else from one uncached `classify_segment` per triple."""
        dots = self._columns(points)
        if dots is not None:
            return _lane_rows(dots)
        classify, ids = self.classify_segment, _WordIds()

        def row(i: int, j: int) -> bytes | list[int]:
            x, y = points[i], points[j]
            return ids.row([ids.of(classify(x, y, z).flags) for z in points])

        return row, ids.words

    def outcome_rows(self, points: Sequence[Point]) -> list[bytes]:
        """Per point number i, the `bit` of the outcome of (points[i],
        points[k]) for every k, in order: read off sign codes when the
        relation has utility columns, else one `compare` per pair."""
        columns = self._columns(points)
        if columns is not None:
            return _sign_outcome_rows(columns)
        compare = self.compare
        return [bytes(compare(x, y).bit for y in points) for x in points]

    def section(self, x: Point, y: Point, z: Point, which: str) -> SectionSet:
        return self.segment(x, y, z).section(which)

    def descriptor(self) -> dict:  # pragma: no cover - overridden
        return {"kind": self.kind}


def _over_common_denominator(values) -> tuple[int, tuple[int, ...]]:
    """(d, n) with values[i] == n[i] / d and d > 0 their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


_GE_LO, _GE_HI, _LE_LO, _LE_HI = 1, 2, 4, 8


def _integer_cuts(gaps) -> list:
    """The sorted [num, den, tags] cuts of [0,1] where, for integer pairs
    (a, b), one per utility, the gaps a*lam + b change sign: 0, 1 and the
    ends of the ge and le sections, each tagged by the ends at it."""
    # ge = {lam : every gap >= 0} = [gl/gld, gh/ghd] and le = {lam : every
    # gap <= 0} = [ll/lld, lh/lhd], closed, with integer ends over d > 0
    gl, gld, gh, ghd, ll, lld, lh, lhd = 0, 1, 1, 1, 0, 1, 1, 1
    ge_ok = le_ok = True
    for a, b in gaps:
        if a > 0:  # the gap crosses zero upward at -b/a
            if -b * gld > gl * a:
                gl, gld = -b, a
            if -b * lhd < lh * a:
                lh, lhd = -b, a
        elif a < 0:  # downward at b/(-a)
            if b * ghd < gh * -a:
                gh, ghd = b, -a
            if b * lld > ll * -a:
                ll, lld = b, -a
        elif b < 0:
            ge_ok = False
        elif b > 0:
            le_ok = False
    ends = []
    if ge_ok and gl * ghd <= gh * gld:
        ends += ((gl, gld, _GE_LO), (gh, ghd, _GE_HI))
    if le_ok and ll * lhd <= lh * lld:
        ends += ((ll, lld, _LE_LO), (lh, lhd, _LE_HI))
    cuts = [[0, 1, 0], [1, 1, 0]]
    for num, den, tag in ends:
        # the first cut at or above num/den, which is at most 1
        i = 0
        while num * cuts[i][1] > cuts[i][0] * den:
            i += 1
        if num * cuts[i][1] == cuts[i][0] * den:
            cuts[i][2] |= tag
        else:
            cuts.insert(i, [num, den, tag])
    return cuts


def _merge_runs(weights: Sequence[Fraction], labels: Sequence[Label]) -> tuple:
    """Maximal same-label runs over the sorted cut weights, from 0 to 1:
    labels[2k] labels the cut weights[k] and labels[2k + 1] the open gap
    after it."""
    pieces = []
    start = start_closed = label = None
    for e, lab in enumerate(labels):
        if lab is label:
            continue
        at, is_point = weights[e >> 1], not e & 1
        if label is not None:
            pieces.append((Interval(start, at, start_closed, not is_point), label))
        start, start_closed, label = at, is_point, lab
    pieces.append((Interval(start, iv.ONE, start_closed, True), label))
    return tuple(pieces)


# Flag word by label sequence, in the order `_merge_runs` reads labels.
# A sequence is either `_tag_labels` of at most six cuts (0, 1 and the
# four ge/le ends), or the cell labels along one catalog segment, with at
# most one cut per declared value: neither grows with the universe, so
# the table stays small.
_LABEL_WORDS: dict[tuple[Label, ...], int] = {}


def _label_word(labels: tuple[Label, ...]) -> int:
    """Flag word of the partition with these cut and gap labels.

    Every flag bit is topological: it depends on the order of the labels,
    not on where the cuts fall.  So a new sequence is classified once, over
    the cuts k/m.
    """
    got = _LABEL_WORDS.get(labels)
    if got is None:
        m = len(labels) // 2
        pieces = _merge_runs([Fraction(k, m) for k in range(m + 1)], labels)
        got = _LABEL_WORDS[labels] = LabeledPartition(pieces).flags
    return got


_PAIR_LABEL = {
    (True, True): Label.INDIFFERENT,
    (True, False): Label.STRICT_ABOVE,
    (False, True): Label.STRICT_BELOW,
    (False, False): Label.INCOMPARABLE,
}


def _tag_labels(tags: Iterable[int]) -> tuple[Label, ...]:
    """The labels of the cuts of `_integer_cuts`, by their tags in order:
    each cut, then the open gap after it (none after 1), labeled by its
    ge/le membership."""
    labels = []
    in_ge = in_le = False
    for tag in tags:
        point_ge = in_ge or bool(tag & _GE_LO)
        point_le = in_le or bool(tag & _LE_LO)
        in_ge = point_ge and not tag & _GE_HI
        in_le = point_le and not tag & _LE_HI
        labels += (_PAIR_LABEL[point_ge, point_le], _PAIR_LABEL[in_ge, in_le])
    return tuple(labels[:-1])


def _cut_word(a: Iterable[int], b: Iterable[int]) -> int:
    """Flag word of the partition cut by the integer gaps a[u]*lam + b[u]."""
    return _label_word(_tag_labels([cut[2] for cut in _integer_cuts(zip(a, b))]))


def _line_codes(feats: Sequence[tuple[int, ...]], lines: Sequence[tuple]) -> list[tuple[int, ...]]:
    """The sign code of every pair of point numbers (i, k), as codes[i][k]:
    one base-3 digit per line (f, c) of target k, lines[k], in order,
    1 + sign(feats[i][f] - c), for integer features and line values."""
    columns = list(zip(*feats))
    by_target = []
    for lk in lines:
        code, w = [0] * len(feats), 1
        for f, c in lk:
            code = [d + w * (1 + (v > c) - (v < c)) for d, v in zip(code, columns[f])]
            w *= 3
        by_target.append(code)
    return list(zip(*by_target))


def _packed(dots: Sequence[tuple[int, ...]], width: int) -> tuple[int, int, Callable, list[int]]:
    """Integer utility columns dots[p][u] = D[p][u] in lanes, one per point
    number: (lane, ones, signs, columns).  A lane is `lane` bytes, the
    fewest that hold `width` bytes and have 2**(8*lane - 1) > 8*M*M for
    M = max |D|; `ones` has 1 in every lane, and lane k of columns[u]
    holds D[k][u].  `signs(lanes)` gives 1 + the sign of every lane value
    d of `lanes`, for |d| <= 8*M*M: every lane of S = d + 2**(8*lane - 1)
    lies in (0, 2**(8*lane)), so the lanes never carry, and the top bit of
    lane k of S says d >= 0, that of S - ones says d >= 1."""
    n, utilities = len(dots), len(dots[0]) if dots else 0
    top = max((abs(v) for d in dots for v in d), default=0)
    lane = max(width, ((8 * top * top).bit_length() + 8) // 8)
    shift, ones = 8 * lane - 1, int.from_bytes((1).to_bytes(lane, "little") * n, "little")
    bias = (1 << shift) * ones

    def signs(lanes: int) -> int:
        s = bias + lanes
        return (s >> shift & ones) + ((s - ones) >> shift & ones)

    columns = [int.from_bytes(b"".join(map(int.to_bytes, (d[u] + top for d in dots),
                                           repeat(lane), repeat("little"))), "little")
               - top * ones for u in range(utilities)]
    return lane, ones, signs, columns


# outcome bit of a lane holding (weakly better) + 2 * (weakly worse)
_WEAK_OUTCOMES = bytes(ComparisonOutcome.from_weak(bool(v & 1), bool(v & 2)).bit
                       for v in range(4)).ljust(256, b"\0")


def _sign_outcome_rows(dots: Sequence[tuple[int, ...]]) -> list[bytes]:
    """`RelationModel.outcome_rows` of the relation "weakly preferred iff no
    utility is lower", over integer utility columns dots[p][u] = D[p][u]:
    per point p, lane k of signs(D[p][u] - D[k][u]) is a sign digit per
    utility u (`_packed`), and p is weakly better than k iff no digit is 0,
    weakly worse iff none is 2."""
    n = len(dots)
    lane, ones, signs, columns = _packed(dots, 1)
    rows = []
    for d in dots:
        better = worse = ones
        for v, column in zip(d, columns):
            digits = signs(v * ones - column)
            better &= digits | digits >> 1
            worse &= ~(digits >> 1)
        rows.append((better + 2 * worse).to_bytes(n * lane, "little")[::lane].translate(_WEAK_OUTCOMES))
    return rows


class _WordIds:
    """The distinct flag words a row kernel has met, numbered in the order
    met: `words[w]` is the word of id w.  A row of ids is `bytes` while at
    most 256 words are known, and a list after that; words are only
    appended, so the ids of a `bytes` row stay valid."""

    def __init__(self):
        self.words: list[int] = []
        self._ids: dict[int, int] = {}

    def of(self, word: int) -> int:
        got = self._ids.get(word)
        if got is None:
            got = self._ids[word] = len(self.words)
            self.words.append(word)
        return got

    def row(self, ids: list[int]) -> bytes | list[int]:
        return bytes(ids) if len(self.words) <= 256 else ids


# a byte-wide composite not yet met; there are at most 243 composites, so
# at most 243 words, and their ids stay below it
_UNSET = 255


def _lane_rows(dots: Sequence[tuple[int, ...]]) -> tuple[Callable, list[int]]:
    """The flag-row kernel over integer utility columns dots[p][u] = D[p][u]
    of "weakly preferred iff no utility is lower": target k has one line
    per utility u, at D[k][u], and the word of (i, j, k) is `_cut_word` of
    the gaps D[j] - D[k] at lam = 0 and D[i] - D[k] at lam = 1.

    Target k of row (i, j) gets a composite, the base-3 numeral of the
    sign codes of (i, k) and (j, k), as `_line_codes` gives them, and one
    digit per utility pair (l, m), 1 + sign(d_k) for
    d_k = g0_l*g1_m - g0_m*g1_l, which is
    (fj_l*fi_m - fj_m*fi_l) + D[k][l]*(fj_m - fi_m) + D[k][m]*(fi_l - fj_l)
    for f = D[i], D[j].  The codes and the digits of the crossing pairs fix
    the word (the line kernel's key, see `_line_rows`), so the composite
    does, and a table filled by `_cut_word` on a miss is exact.

    The targets are lanes of L bits in one int: lane k of a packed column
    holds D[k][u], so with a_p = fp_m*D[.][l] - fp_l*D[.][m] packed once per
    point, d_k is lane k of c + a_j - a_i for the number
    c = fj_l*fi_m - fj_m*fi_l.  A row is a few big-int operations per
    utility pair, no Python step per target; so are the sign codes, once
    per point.  Every lane value (a d_k, or D[p][u] - D[k][u]) is at most
    8*M*M in size for M = max |D|, so `_packed` lanes read its sign
    exactly.  A lane is also wide enough for a composite, of `width` bytes
    at its low end.  Composites of one byte (at most two utilities, 3**5
    values) map to ids through a `translate` table, and wider ones, as
    byte strings, through a dict.
    """
    n, utilities = len(dots), len(dots[0]) if dots else 0
    pairs = tuple(combinations(range(utilities), 2))
    width = max(1, ((3 ** (2 * utilities + len(pairs)) - 1).bit_length() + 7) // 8)
    lane, ones, signs, columns = _packed(dots, width)
    # lane k of low[p] is the sign code of (p, k), 1 + sign(D[p][u] - D[k][u])
    # per utility u, above the pair digits; high[p] has it above those of low
    low = [3 ** len(pairs) * sum(3 ** u * signs(v * ones - column)
                                 for u, (v, column) in enumerate(zip(d, columns)))
           for d in dots]
    high = [v * 3 ** utilities for v in low]
    steps = [(l, m, 3 ** p, [d[m] * columns[l] - d[l] * columns[m] for d in dots])
             for p, (l, m) in enumerate(pairs)]
    ids = _WordIds()

    def word_id(i: int, j: int, k: int) -> int:
        return ids.of(_cut_word(map(sub, dots[i], dots[j]), map(sub, dots[j], dots[k])))

    def composites(i: int, j: int) -> bytes:
        fi, fj = dots[i], dots[j]
        total = high[i] + low[j]
        for l, m, weight, a in steps:
            total += weight * signs((fj[l] * fi[m] - fj[m] * fi[l]) * ones + a[j] - a[i])
        return total.to_bytes(n * lane, "little")

    if width == 1:
        table = bytearray([_UNSET]) * 256

        def row(i: int, j: int) -> bytes:
            keys = composites(i, j)[::lane]
            out = keys.translate(table)
            k = out.find(_UNSET)
            while k >= 0:
                table[keys[k]] = word_id(i, j, k)
                out = keys.translate(table)
                k = out.find(_UNSET, k + 1)
            return out

        return row, ids.words
    known: dict[bytes, int] = {}

    def row(i: int, j: int) -> bytes | list[int]:
        lanes = composites(i, j)
        keys = [lanes[s:s + width] for s in range(0, n * lane, lane)]
        out = list(map(known.get, keys))
        if None in out:
            for k, key in enumerate(keys):
                if out[k] is None:
                    got = known.get(key)
                    if got is None:
                        got = known[key] = word_id(i, j, k)
                    out[k] = got
        return ids.row(out)

    return row, ids.words


def _line_rows(feats: Sequence[tuple[int, ...]], lines: Sequence[tuple],
               codes: Sequence[Sequence[int]],
               word_of: Callable[[int, int, int], int]) -> tuple[Callable, list[int]]:
    """The catalog cell walk's row kernel over integer lines: target k has
    the lines lines[k], pairs (f, c) whose gap at point number p is
    feats[p][f] - c, affine in lam along x`lam`y since every feature is
    mixture-affine.  codes[i][k] is `_line_codes` of (i, k), made distinct
    per target.  `word_of(i, j, k)` gives the word of a new key; `row(i, j)`
    gives the ids of the words of (i, j, k) for every k, into the word list
    returned with it.
    """
    # Target k of row (i, j) is keyed by codes[i][k] and codes[j][k], the
    # signs of every gap at lam = 1 and lam = 0.  They fix each gap's sign
    # on [0, 1] except where it crosses zero inside (0, 1), at
    # t = g0 / (g0 - g1) for its gaps g0 at lam = 0 and g1 at lam = 1, so
    # the word is a function of the key and the order of those crossings.
    # For lines l and m, sign(g0_l*g1_m - g0_m*g1_l) is
    # sign((g0_l - g1_l)*(g0_m - g1_m)) * sign(t_m - t_l), and the key
    # fixes the first factor.  On one feature f, at values c and e, the
    # left side is (c - e)*(feats[j][f] - feats[i][f]), which k and the key
    # fix.  A key with crossings on two features maps to its crossing pairs
    # on distinct features, and its targets get one balanced base-3 digit
    # per pair, that sign: the key fixes how many.
    scale = 1 + max(map(max, codes), default=0)
    high = [[c * scale for c in code] for code in codes]
    memo: dict[int, int] = {}
    crossing_pairs: dict[int, tuple] = {}
    ordered: dict[tuple[int, int], int] = {}
    ids = _WordIds()

    def row(i: int, j: int) -> bytes | list[int]:
        fi, fj = feats[i], feats[j]
        keys = list(map(add, high[i], codes[j]))
        out = list(map(memo.get, keys))
        for k, got in enumerate(out):
            if got is not None:
                continue
            key, lk = keys[k], lines[k]
            pairs = crossing_pairs.get(key)
            if pairs is None:
                crossing = [l for l, (f, c) in enumerate(lk) if (fi[f] - c) * (fj[f] - c) < 0]
                pairs = crossing_pairs[key] = tuple(
                    (l, m) for l, m in combinations(crossing, 2) if lk[l][0] != lk[m][0])
            if not pairs:
                got = memo.get(key)  # a first miss earlier in this row
                if got is None:
                    got = memo[key] = ids.of(word_of(i, j, k))
            else:
                digits = 0
                for l, m in pairs:
                    f, c = lk[l]
                    g, e = lk[m]
                    d = (fj[f] - c) * (fi[g] - e) - (fj[g] - e) * (fi[f] - c)
                    digits = 3 * digits + (d > 0) - (d < 0)
                got = ordered.get((key, digits))
                if got is None:
                    got = ordered[key, digits] = ids.of(word_of(i, j, k))
            out[k] = got
        return ids.row(out)

    return row, ids.words


class MultiUtility(RelationModel):
    """x is weakly preferred to y iff every utility agrees: u.x >= u.y."""

    kind = "multi_utility"

    def __init__(self, utilities: Sequence[Sequence], space: MixtureSpace | None = None):
        utils = tuple(tuple(Fraction(v) for v in u) for u in utilities)
        if not utils or len({len(u) for u in utils}) != 1 or not utils[0]:
            raise ValueError("need one or more utility vectors of equal, nonzero length")
        super().__init__(space or Simplex(len(utils[0])))
        self.utilities = utils
        # each row times its positive common denominator: same comparisons
        self._rows = tuple(_over_common_denominator(u)[1] for u in utils)

    def _columns(self, points: Sequence[Point]) -> list[tuple[int, ...]]:
        den = lcm(*(c.denominator for p in points for c in p.coords))
        return [
            tuple(sum(u * c.numerator * (den // c.denominator)
                      for u, c in zip(row, p.coords)) for row in self._rows)
            for p in points
        ]

    def compare(self, x: Point, y: Point) -> ComparisonOutcome:
        dx, dy = self._columns((x, y))
        return ComparisonOutcome.from_weak(all(map(ge, dx, dy)), all(map(le, dx, dy)))

    def classify_segment(self, x: Point, y: Point, z: Point) -> LabeledPartition:
        dx, dy, dz = self._columns((x, y, z))
        # the u-th utility of x`lam`y minus that of z is (a*lam + b) / d
        cuts = _integer_cuts(zip(map(sub, dx, dy), map(sub, dy, dz)))
        weights = [iv.ZERO] + [Fraction(num, den) for num, den, _ in cuts[1:-1]] + [iv.ONE]
        return LabeledPartition(_merge_runs(weights, _tag_labels([cut[2] for cut in cuts])))

    def descriptor(self) -> dict:
        return {
            "kind": "multi_utility",
            "utilities": [[str(v) for v in u] for u in self.utilities],
        }


class CatalogPiecewise(RelationModel):
    """Relation given by its comparator and, per target, the values where
    the comparison can change; its segment oracle is derived from both.

    A point's features are its coordinates on a `Simplex` or a
    `RealInterval`, whose mix is coordinate-wise, or the one value of
    `ranking` where that is declared.  `cuts(z)` gives, for each feature,
    the values where compare(., z) can change.  Every feature is
    mixture-affine, so along x`lam`y it meets a value at one weight at most,
    or stays on it.  The oracle cuts [0,1] at every weight in (0,1) where a
    feature of x`lam`y meets a cut value, labels each cut and one inner
    point of each open gap by `compare` on the mixed point, and the ends by
    compare(y, z) and compare(x, z).  It is exact whenever compare(., z) is
    constant on every cell that the declared values cut out: the points
    whose every feature lies on the same value, or strictly between the
    same two neighbouring values.

    `ranking`, when given, is a functional v on the carrier that is
    mixture-affine, v(x`lam`y) = lam*v(x) + (1-lam)*v(y), and that the
    relation ranks by: x is weakly preferred to y iff v(x) >= v(y).  It
    defines the comparator, and the one cut value v(z).
    """

    kind = "catalog"

    def __init__(
        self,
        entry_id: str,
        space: MixtureSpace,
        compare_fn: Callable[[Point, Point], ComparisonOutcome] | None = None,
        cuts: Callable[[Point], Sequence[Iterable[Fraction]]] | None = None,
        ranking: Callable[[Point], Fraction] | None = None,
    ):
        super().__init__(space)
        if ranking is not None:
            def compare_fn(x: Point, y: Point) -> ComparisonOutcome:
                vx, vy = ranking(x), ranking(y)
                return ComparisonOutcome.from_weak(vx >= vy, vy >= vx)

            def cuts(z: Point) -> tuple:
                return ((ranking(z),),)
        elif not isinstance(space, (Simplex, RealInterval)):
            raise ValueError("off a simplex or an interval, a catalog relation needs a ranking")
        self.entry_id = entry_id
        self._compare = compare_fn
        self._cuts = cuts
        self.ranking = ranking

    def compare(self, x: Point, y: Point) -> ComparisonOutcome:
        return self._compare(x, y)

    def _features(self, p: Point) -> tuple:
        return p.coords if self.ranking is None else (self.ranking(p),)

    def _cut_labels(self, x: Point, y: Point, z: Point) -> tuple[list, tuple]:
        """The cut weights of (x, y, z), 0 and 1 included, and its labels:
        labels[2k] at the cut weights[k], labels[2k + 1] on the open gap
        after it."""
        roots = set()
        for a, b, at in zip(self._features(x), self._features(y), self._cuts(z)):
            # the feature of x`lam`y is b + lam*(a - b): it meets c inside
            # (0,1) exactly when c lies strictly between b and a
            lo, hi = (a, b) if a < b else (b, a)
            for c in at:
                if lo < c < hi:
                    roots.add(Fraction(c - b, a - b))
        mix, compare = self.space.mix, self._compare
        weights = [iv.ZERO, *sorted(roots), iv.ONE]
        labels = [OUTCOME_TO_LABEL[compare(y, z)]]
        for lo, hi in zip(weights, weights[1:]):
            inner, end = mix(x, (lo + hi) / 2, y), x if hi == 1 else mix(x, hi, y)
            labels += (OUTCOME_TO_LABEL[compare(inner, z)], OUTCOME_TO_LABEL[compare(end, z)])
        return weights, tuple(labels)

    def classify_segment(self, x: Point, y: Point, z: Point) -> LabeledPartition:
        return LabeledPartition(_merge_runs(*self._cut_labels(x, y, z)))

    def _columns(self, points: Sequence[Point]) -> list[tuple[int]] | None:
        if self.ranking is None:
            return None
        # compare ranks by v: one utility, the column v
        _, column = _over_common_denominator([self.ranking(p) for p in points])
        return [(v,) for v in column]

    def segment_flag_rows(self, points: Sequence[Point]) -> tuple[Callable, list[int]]:
        # The features are the coordinates, and target k's lines are its
        # declared values: the line kernel over one denominator, with k in
        # the codes since the labels of the cells depend on the target.
        if self.ranking is not None:
            return super().segment_flag_rows(points)
        values = [[tuple(at) for at in self._cuts(z)] for z in points]
        den = lcm(*(v.denominator for p in points for v in p.coords),
                  *(c.denominator for cz in values for at in cz for c in at))
        feats = [tuple(int(v * den) for v in p.coords) for p in points]
        lines = [tuple((f, int(c * den)) for f, at in enumerate(cz) for c in at) for cz in values]
        width = 3 ** max(map(len, lines), default=0)
        codes = [[c + k * width for k, c in enumerate(code)] for code in _line_codes(feats, lines)]
        mix, compare = self.space.mix, self._compare
        known: list[dict[int, Label]] = [{} for _ in points]  # per target, by cell

        def word_of(i: int, j: int, k: int) -> int:
            x, y, fi, fj = points[i], points[j], feats[i], feats[j]
            ends = [(fj[f] - c, fi[f] - c) for f, c in lines[k]]  # gaps at lam = 0, 1
            at = [Fraction(g0, g0 - g1) if g0 * g1 < 0 else None for g0, g1 in ends]
            weights = [iv.ZERO, *sorted({t for t in at if t is not None}), iv.ONE]
            # The cell of each cut and of the open gap after it, in
            # `_merge_runs` order: one base-3 digit per line, 1 + the sign of
            # its gap there.  Inside (0, 1) a gap has the sign of g0 + g1
            # unless it crosses zero at t: then that of g0 before t, g1 after.
            last = 2 * len(weights) - 2
            cells = [0] * (last + 1)
            for (g0, g1), t in zip(ends, at):
                s0, s1 = 1 + (g0 > 0) - (g0 < 0), 1 + (g1 > 0) - (g1 < 0)
                if t is None:
                    digits = [s0] + [1 + (g0 + g1 > 0) - (g0 + g1 < 0)] * (last - 1) + [s1]
                else:
                    cut = 2 * weights.index(t)
                    digits = [s0] * cut + [1] + [s1] * (last - cut)
                cells = [3 * cell + d for cell, d in zip(cells, digits)]
            labels, seen = [], known[k]
            for e, cell in enumerate(cells):
                label = seen.get(cell)
                if label is None:  # label the cell at an end, a cut or a gap's middle
                    lo = weights[e >> 1]
                    p = (y if e == 0 else x if e == last else
                         mix(x, (lo + weights[(e >> 1) + 1]) / 2 if e & 1 else lo, y))
                    label = seen[cell] = OUTCOME_TO_LABEL[compare(p, points[k])]
                labels.append(label)
            return _label_word(tuple(labels))

        return _line_rows(feats, lines, codes, word_of)

    def descriptor(self) -> dict:
        return {"kind": "catalog", "id": self.entry_id}


class QuotientDerived(RelationModel):
    """Relation induced on a quotient space; anti-symmetric by construction."""

    kind = "quotient"

    def __init__(self, base: RelationModel, qspace):
        super().__init__(qspace)
        self.base = base
        self.has_segment_oracle = base.has_segment_oracle

    def compare(self, x: Point, y: Point) -> ComparisonOutcome:
        return self.base.compare(self.space.canonical(x), self.space.canonical(y))

    def classify_segment(self, x: Point, y: Point, z: Point) -> LabeledPartition:
        cx, cy, cz = (self.space.canonical(p) for p in (x, y, z))
        return self.base.segment(cx, cy, cz)

    def outcome_rows(self, points: Sequence[Point]) -> list[bytes]:
        return self.base.outcome_rows([self.space.canonical(p) for p in points])

    def segment_flag_rows(self, points: Sequence[Point]) -> tuple[Callable, list[int]]:
        # each triple's partition is the base's on the canonical members
        return self.base.segment_flag_rows([self.space.canonical(p) for p in points])

    def descriptor(self) -> dict:
        return {"kind": "quotient", "base": self.base.descriptor()}


class PointwiseOnly(RelationModel):
    """Comparator without a segment oracle; sections are unrepresentable."""

    kind = "pointwise"
    has_segment_oracle = False

    def __init__(
        self,
        entry_id: str,
        space: MixtureSpace,
        compare_fn: Callable[[Point, Point], ComparisonOutcome],
        strong_weights=None,
    ):
        super().__init__(space)
        self.entry_id = entry_id
        self._compare = compare_fn
        # optional hooks (upper, lower): upper(x, z) -> lam with x lam z
        # still above each y below x, lower(y, z) -> delta with y delta z
        # still below each x above y; either may return None when unknown
        self.strong_weights = strong_weights

    def compare(self, x: Point, y: Point) -> ComparisonOutcome:
        return self._compare(x, y)

    def descriptor(self) -> dict:
        return {"kind": "catalog", "id": self.entry_id}


# ---------------------------------------------------------------------------
# Checked module-level surface
# ---------------------------------------------------------------------------


def compare(rel: RelationModel, x: Point, y: Point) -> ComparisonOutcome:
    for p in (x, y):
        if not rel.space.contains(p):
            raise CarrierError(f"point not in carrier: {p}")
    return rel.compare(x, y)


def classify_segment(rel: RelationModel, x: Point, y: Point, z: Point) -> LabeledPartition:
    for p in (x, y, z):
        if not rel.space.contains(p):
            raise CarrierError(f"point not in carrier: {p}")
    return rel.segment(x, y, z)


def section(rel: RelationModel, x: Point, y: Point, z: Point, which: str) -> SectionSet:
    if which not in SECTION_LABELS:
        raise ValueError(f"unknown section selector: {which!r}")
    return classify_segment(rel, x, y, z).section(which)
