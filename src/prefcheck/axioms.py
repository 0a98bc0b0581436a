"""Finite decision procedures, with witnesses, for the preference axioms.

Every universally quantified axiom is decided over an explicit finite
universe (closed under grid-weight mixtures) with a deterministic
counterexample on failure.  Section-based axioms use the relation's exact
segment oracle, so quantification over the mixing weight itself is exact,
not sampled.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import intervals as iv
from .intervals import OPEN_UNIT, SectionSet, representative
from .records import record
from .relations import (
    CLOSED,
    CONVEX,
    COVERS_OPEN_UNIT,
    FLIMSY_HIT,
    FRAGILE_HIT,
    FULL_SET,
    MEETS_OPEN_UNIT,
    OPEN,
    ComparisonOutcome,
    MultiUtility,
    RelationModel,
    flag_bit,
)
from .spaces import (DEFAULT_GRID, MixTable, Point, augment_points, closure_table,
                     point_to_json)
from .verdicts import AxiomVerdict, Status


class AxiomId(str, Enum):
    REFLEXIVE = "reflexive"
    COMPLETE = "complete"
    NONTRIVIAL = "nontrivial"
    TRANSITIVE = "transitive"
    NEGATIVELY_TRANSITIVE = "negatively_transitive"
    SEMI_TRANSITIVE = "semi_transitive"
    SEMI_TRANSITIVE_UP = "semi_transitive_up"      # x ~ y > z  =>  x > z
    SEMI_TRANSITIVE_DOWN = "semi_transitive_down"  # x > y ~ z  =>  x > z
    TRANSITIVE_SYM = "transitive_sym"
    TRANSITIVE_STRICT = "transitive_strict"
    ANTI_SYMMETRIC = "anti_symmetric"
    MIXTURE_CONTINUOUS = "mixture_continuous"
    ARCHIMEDEAN = "archimedean"
    STRONG_ARCHIMEDEAN = "strong_archimedean"
    OPEN_STRICT_SECTIONS = "open_strict_sections"
    OPEN_INCOMPARABLE_SECTIONS = "open_incomparable_sections"
    LINEAR = "linear"
    CONVEX = "convex"
    CONCAVE = "concave"
    STAR_CONVEX = "star_convex"
    STAR_CONCAVE = "star_concave"
    INDEPENDENT = "independent"
    FRAGILE = "fragile"
    FLIMSY = "flimsy"


ORDER_AXIOMS = (
    AxiomId.REFLEXIVE, AxiomId.COMPLETE, AxiomId.NONTRIVIAL, AxiomId.TRANSITIVE,
    AxiomId.NEGATIVELY_TRANSITIVE, AxiomId.SEMI_TRANSITIVE,
    AxiomId.SEMI_TRANSITIVE_UP, AxiomId.SEMI_TRANSITIVE_DOWN,
    AxiomId.TRANSITIVE_SYM, AxiomId.TRANSITIVE_STRICT, AxiomId.ANTI_SYMMETRIC,
)

CONVEXITY_AXIOMS = (
    AxiomId.LINEAR, AxiomId.CONVEX, AxiomId.CONCAVE,
    AxiomId.STAR_CONVEX, AxiomId.STAR_CONCAVE,
)

ALL_AXIOMS = ORDER_AXIOMS + (
    AxiomId.MIXTURE_CONTINUOUS, AxiomId.ARCHIMEDEAN, AxiomId.STRONG_ARCHIMEDEAN,
    AxiomId.OPEN_STRICT_SECTIONS, AxiomId.OPEN_INCOMPARABLE_SECTIONS,
) + CONVEXITY_AXIOMS + (AxiomId.INDEPENDENT, AxiomId.FRAGILE, AxiomId.FLIMSY)


@record(frozen=True)
class Universe:
    """Finite instantiation of the carrier: base points, mixture-closure
    depth, and the rational weight grid used for closure and sampling."""

    points: tuple[Point, ...]
    closure_depth: int = 1
    grid: tuple[Fraction, ...] = DEFAULT_GRID

    def to_json(self) -> dict:
        return {
            "points": [point_to_json(p) for p in self.points],
            "closure_depth": self.closure_depth,
            "grid": [str(g) for g in self.grid],
        }


def _holds(axiom, note=None):
    return AxiomVerdict(axiom, Status.HOLDS, note=note)


def _fails(axiom, witness=None, note=None):
    return AxiomVerdict(axiom, Status.FAILS, witness, note)


def _na(axiom, note):
    return AxiomVerdict(axiom, Status.NOT_APPLICABLE, note=note)


def _no_weight(axiom):
    """An existential `axiom` fails: no triple has a weight of its kind."""
    return _fails(axiom, note=f"no {axiom.value} weight on the universe")


GT_MEETS, LT_MEETS = flag_bit("gt", MEETS_OPEN_UNIT), flag_bit("lt", MEETS_OPEN_UNIT)

# sets of comparison outcomes, as masks of their `bit`s
STRICT = ComparisonOutcome.BETTER.bit
EQUIV = ComparisonOutcome.EQUIVALENT.bit
WEAK = STRICT | EQUIV
INCOMPARABLE = ComparisonOutcome.INCOMPARABLE.bit
_ANY = sum(outcome.bit for outcome in ComparisonOutcome)
NOT_WEAK = _ANY & ~WEAK
NOT_STRICT = _ANY & ~STRICT
_OUTCOME_OF_BIT = {outcome.bit: outcome for outcome in ComparisonOutcome}

# marks are ASCII digits, so a row of them reversed is the binary numeral of
# the int whose bit k is mark k
_MARK, _CLEAR = ord("1"), ord("0")


@lru_cache(maxsize=16)  # one per outcome mask, of which there are 16
def _outcome_marks(outcomes: int) -> bytes:
    """`bytes.translate` table taking an outcome byte to _MARK where its
    bit is in `outcomes`, and to _CLEAR elsewhere."""
    return bytes(_MARK if bit & outcomes else _CLEAR for bit in range(256))


def _bitset(marks: bytes) -> int:
    """The int whose bit k is set where marks[k] is _MARK."""
    return int(marks[::-1], 2)


def _lowest(bits: int) -> int:
    """Position of the lowest set bit of `bits` (> 0)."""
    return (bits & -bits).bit_length() - 1


def _members(bits: int):
    """Positions of the set bits of `bits`, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _chain_axiom(axiom, first, second, then):
    """A `_check_` method: `axiom` fails on the first chain x, y, z with
    (x, y) in `first` and (y, z) in `second` but (x, z) not in `then`.
    Each call makes a new function, so per-axiom tracing tells axioms apart."""

    def check(self):
        bad = self.first_broken_chain(first, second, then)
        if bad is None:
            return _holds(axiom)
        return _fails(axiom, {"x": bad[0], "y": bad[1], "z": bad[2]})

    return check


def _section_axiom(axiom, *which_props):
    """A `_check_` method: `axiom` holds unless some triple's section lacks its
    property; the witness carries that section, and `which` when there are two."""

    def check(self):
        decided = self._by_theorem(axiom) or self._oracle_or_na(axiom)
        if decided:
            return decided
        bad = self.first_section_failure(which_props)
        if bad is None:
            return _holds(axiom)
        x, y, z, which = bad
        witness = {"x": x, "y": y, "z": z}
        if len(which_props) > 1:
            witness["which"] = which
        witness["section"] = self.section(x, y, z, which)
        return _fails(axiom, witness)

    return check


def _full_section_axiom(axiom, which, above):
    """A `_check_` method: `axiom` fails on the first (x, y, z) with x and y
    both weakly above z (below it when not `above`) whose section `which` is
    not all of [0,1]; the witness `lam` is a weight outside it."""
    full = flag_bit(which, FULL_SET)

    def check(self):
        decided = self._by_theorem(axiom) or self._oracle_or_na(axiom)
        if decided:
            return decided
        bad = self.first_triple(full, full, self.outcome_rows(WEAK, transposed=not above))
        if bad is None:
            return _holds(axiom)
        x, y, z = (self.points[t] for t in bad)
        sec = self.section(x, y, z, which)
        return _fails(
            axiom, {"x": x, "y": y, "z": z, "lam": representative(iv.complement(sec))})

    return check


def _covering_section_axiom(axiom, which, above):
    """A `_check_` method: `axiom` fails on the first x != y with x weakly
    above y (below it when not `above`) whose strict section `which` of
    (x, y, y) misses an interior weight; the witness `lam` is one it misses."""
    covers = flag_bit(which, COVERS_OPEN_UNIT)

    def check(self):
        decided = self._by_theorem(axiom) or self._oracle_or_na(axiom)
        if decided:
            return decided
        weak, p = self.outcome_rows(WEAK, transposed=not above), self.points
        for i, row in enumerate(weak):
            for j in _members(row & ~(1 << i)):
                if not self.flag_word(i, j, j) & covers:
                    return _uncovered(self, axiom, which, p[i], p[j])
        return _holds(axiom)

    return check


def _uncovered(engine, axiom, which, x, y):
    """`axiom` fails on x != y, whose strict section `which` of (x, y, y)
    misses the witness `lam`, an interior weight."""
    sec = engine.section(x, y, y, which)
    return _fails(
        axiom, {"x": x, "y": y, "lam": representative(iv.difference(OPEN_UNIT, sec))})


def _existential_axiom(axiom, hit, note, weights):
    """A `_check_` method: `axiom` holds on the first triple whose flag word
    has a bit of `hit`; the witness `lam` is a weight of `weights(partition)`
    for that triple, the set that `note` names."""

    def check(self):
        decided = self._by_theorem(axiom) or self._oracle_or_na(axiom)
        if decided:
            return decided
        found = self.first_triple(hit, 0)
        if found is None:
            return _no_weight(axiom)
        x, y, z = (self.points[t] for t in found)
        return AxiomVerdict(
            axiom, Status.HOLDS,
            {"x": x, "y": y, "z": z,
             "lam": representative(weights(self.rel.segment(x, y, z)))},
            note=note,
        )

    return check


class AxiomEngine:
    """Caches comparisons, grid mixtures, section flag words and verdicts
    for one (relation, universe).

    Points are numbered by their place in `points`.  The scans read three
    tables indexed by point number, each filled at the first scan that
    reads it:

    - outcome rows: per set of comparison outcomes, one n-bit int per
      point i whose bit k says the outcome of (i, k) is in the set, and
      the transposed rows, whose bit k says that of (k, i) is.  They are
      read off the relation's own table, `rel.outcome_rows(points)`, one
      `bytes` row of outcome bits per point, which also answers
      `compare` on every pair of points; only pairs with a point outside
      `points` are compared one at a time, and cached;
    - flag rows: per unordered pair {i, j}, the ids of the flag words of
      (i, j, k) for every k, kept as the relation's row kernel returns
      them.  An id indexes `_words`, the kernel's own list of the distinct
      words it has met.  A row is `bytes`, one id per k, so a kernel meets
      at most 256 words and refuses a relation with more.  A scan marks a
      row, or a joined block of rows, with one `translate` through a table
      per (mask, expect);
    - mixtures: a `MixTable` that numbers `points` first, in order, so
      that point i of the engine is point i of the table and each new
      mixture is numbered after them.  With a closure depth it is the
      table that closed the universe.

    For a `MultiUtility`, `_by_theorem` decides most section verdicts
    before any flag row is built.
    """

    def __init__(self, rel: RelationModel, universe: Universe):
        self.rel = rel
        self.space = rel.space
        self.universe = universe
        self.grid = tuple(universe.grid)
        # a closure is the prefix of the table that mixed it; without one
        # the table waits for the first scan that mixes
        self._mixtures: MixTable | None = None
        if universe.closure_depth > 0:
            self._mixtures = closure_table(
                self.space, universe.points, self.grid, universe.closure_depth)
            self.points = self._mixtures.points[:]
        else:
            self.points = augment_points(self.space, universe.points, self.grid, 0)
        self._n = len(self.points)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._cmp: dict[tuple[Point, Point], ComparisonOutcome] = {}
        self._outcomes: tuple[list[bytes], list[bytes]] | None = None
        self._outcome_rows: dict[tuple[int, bool], list[int]] = {}
        self._row_kernel = None
        self._flag_rows: dict[int, bytes] = {}
        self._words: list[int] = []
        self._mark_tables: dict[tuple[int, int], bytes] = {}
        self._verdicts: dict[str, AxiomVerdict] = {}
        self._strict_pairs: list[tuple[int, int]] | None = None

    # -- mixtures -------------------------------------------------------------

    def mix_table(self) -> MixTable:
        """The engine's mixture table: the one that closed the universe, or
        else one built at the first call that mixes.

        Table number i is `points[i]`, so scans mix by point number."""
        if self._mixtures is None:
            table = self._mixtures = MixTable(self.space)
            for p in self.points:
                table.number(p)
        return self._mixtures

    # -- comparison layer ---------------------------------------------------

    def _outcome_table(self) -> tuple[list[bytes], list[bytes]]:
        """The relation's outcome rows over `points`, and their transpose."""
        if self._outcomes is None:
            rows = self.rel.outcome_rows(self.points)
            self._outcomes = rows, [bytes(col) for col in zip(*rows)]
        return self._outcomes

    def compare(self, x: Point, y: Point) -> ComparisonOutcome:
        i = self._index.get(x)
        if i is not None:
            k = self._index.get(y)
            if k is not None:
                return _OUTCOME_OF_BIT[self._outcome_table()[0][i][k]]
        key = (x, y)
        got = self._cmp.get(key)
        if got is None:
            got = self.rel.compare(x, y)
            self._cmp[key] = got
        return got

    def strict(self, x, y) -> bool:
        return self.compare(x, y) is ComparisonOutcome.BETTER

    def outcome_rows(self, outcomes: int, transposed: bool = False) -> list[int]:
        """Per point number i, the int whose bit k is set when the outcome
        of (points[i], points[k]) -- of (points[k], points[i]) when
        `transposed` -- is in the mask `outcomes`."""
        key = (outcomes, transposed)
        got = self._outcome_rows.get(key)
        if got is None:
            marks = _outcome_marks(outcomes)
            got = self._outcome_rows[key] = [
                _bitset(row.translate(marks)) for row in self._outcome_table()[transposed]
            ]
        return got

    def strict_pairs(self) -> list[tuple[int, int]]:
        """Point numbers (i, j) of every strict pair, in scan order."""
        if self._strict_pairs is None:
            self._strict_pairs = [
                (i, j) for i, row in enumerate(self.outcome_rows(STRICT))
                for j in _members(row)
            ]
        return self._strict_pairs

    def section(self, x, y, z, which: str) -> SectionSet:
        return self.rel.segment(x, y, z).section(which)

    def flag_row(self, i: int, j: int) -> bytes:
        """Ids of the flag words of points (i, j, k) for every k, computed
        on first use.  Flag words are mirror invariant, so (j, i) shares it."""
        if j < i:
            i, j = j, i
        key = i * self._n + j
        got = self._flag_rows.get(key)
        if got is None:
            if self._row_kernel is None:
                self._row_kernel, self._words = self.rel.segment_flag_rows(self.points)
            known = len(self._words)
            got = self._flag_rows[key] = self._row_kernel(i, j)
            if len(self._words) > known:  # the mark tables lack the new ids
                self._mark_tables.clear()
        return got

    def flag_word(self, i: int, j: int, k: int) -> int:
        """Flag word of the partition for points i, j, k."""
        row = self.flag_row(i, j)  # may build the kernel, and with it `_words`
        return self._words[row[k]]

    def _marks(self, rows: list[bytes], mask: int, expect: int) -> bytes:
        """The flag rows `rows` joined, with _MARK at each id whose word,
        masked by `mask`, is not `expect`, and _CLEAR elsewhere."""
        table = self._mark_tables.get((mask, expect))
        if table is None:
            table = self._mark_tables[mask, expect] = bytes(
                _MARK if word & mask != expect else _CLEAR for word in self._words
            ).ljust(256, b"0")
        return b"".join(rows).translate(table)

    def first_triple(self, mask: int, expect: int, among: list[int] | None = None):
        """Point numbers (i, j, k) of the first triple in scan order whose
        flag word, masked by `mask`, is not `expect`; None when there is none.

        With `among`, one n-bit int per point, k runs only over the bits of
        among[i] & among[j], and a pair with none gets no flag row."""
        n = self._n
        rows = among or [(1 << n) - 1] * n
        for i, row in enumerate(rows):
            # row (j, i) is row (i, j), met first, so the first hit has i <= j
            for j in range(i, n):
                bad = row & rows[j]
                if bad:
                    marks = self._marks([self.flag_row(i, j)], mask, expect)
                    if _MARK in marks:
                        bad &= _bitset(marks)
                        if bad:
                            return i, j, _lowest(bad)
        return None

    def first_section_failure(self, which_props):
        """First (x, y, z, which) in scan order whose section `which` lacks
        its property, trying the (which, property) pairs in the given order;
        None when every triple has them all."""
        checks = [(which, flag_bit(which, prop)) for which, prop in which_props]
        need = sum(bit for _, bit in checks)
        bad = self.first_triple(need, need)
        if bad is None:
            return None
        word = self.flag_word(*bad)
        return (*(self.points[t] for t in bad),
                next(which for which, bit in checks if not word & bit))

    # -- verdict dispatch ---------------------------------------------------

    def verdict(self, axiom) -> AxiomVerdict:
        name = axiom.value if isinstance(axiom, AxiomId) else str(axiom)
        if name not in self._verdicts:
            method = getattr(self, f"_check_{name}")
            self._verdicts[name] = method()
        return self._verdicts[name]

    def all_verdicts(self) -> dict[str, AxiomVerdict]:
        return {a.value: self.verdict(a) for a in ALL_AXIOMS}

    def _by_theorem(self, axiom) -> AxiomVerdict | None:
        """The verdict that affine multi-utility dominance forces on `axiom`;
        None for every other relation, and where the scan must decide.
        `linear` asks only once reflexivity and transitive indifference
        hold, and `strong_archimedean` once there is a strict pair.

        A `MultiUtility`'s utilities are mixture-preserving, so along x`lam`y
        each gap g_l(lam) = u_l(x lam y) - u_l(z) is affine in lam:

        - ge = {every g_l >= 0} and le = {every g_l <= 0} are closed
          intervals, and so is eq = ge & le: `mixture_continuous`, upper
          and lower section convexity and `linear` hold.
        - incomparable is the complement in [0,1] of the closed set
          ge | le, so it is relatively open (`open_incomparable_sections`
          holds), and none of its weights is a limit of comparable ones:
          `flimsy` fails.
        - With x and y both weakly above z, ge is an interval that holds
          0 and 1, so it is [0,1]: `convex` holds, and `concave` likewise.
        - Against y itself, g_l(lam) = lam (u_l(x) - u_l(y)).  For x weakly
          above y, every interior weight is strictly above y unless x ~ y,
          where none is: `star_convex` and `star_concave` fail at exactly
          the first pair of distinct indifferent points, and hold when
          there is none.
        - u_l(x lam z) - u_l(y lam z) = lam (u_l(x) - u_l(y)), so for
          lam > 0 the mixtures are indifferent iff x and y are:
          `independent` holds exactly.
        - With one utility u the relation is complete, and gt = {g > 0} and
          lt are open: `open_strict_sections` holds.  For x > y and any z,
          u(x lam z) tends to u(x) > u(y) as lam -> 1, and u(y lam z) to
          u(y) < u(x): `strong_archimedean` holds.  Nothing is
          incomparable, so there is no `fragile` weight.
        """
        rel = self.rel
        if not isinstance(rel, MultiUtility):
            return None
        one = len(rel.utilities) == 1
        if axiom in (AxiomId.MIXTURE_CONTINUOUS, "upper_sections_convex",
                     "lower_sections_convex", AxiomId.LINEAR,
                     AxiomId.OPEN_INCOMPARABLE_SECTIONS, AxiomId.CONVEX, AxiomId.CONCAVE) or (
                one and axiom in (AxiomId.OPEN_STRICT_SECTIONS, AxiomId.STRONG_ARCHIMEDEAN)):
            return _holds(axiom)
        if axiom is AxiomId.FLIMSY or (one and axiom is AxiomId.FRAGILE):
            return _no_weight(axiom)
        if axiom in (AxiomId.STAR_CONVEX, AxiomId.STAR_CONCAVE):
            pair = self.first_pair(EQUIV, distinct=True)
            if pair is None:
                return _holds(axiom)
            return _uncovered(self, axiom, "gt" if axiom is AxiomId.STAR_CONVEX else "lt", *pair)
        if axiom is AxiomId.INDEPENDENT:
            return _holds(axiom, note="exact: utility gaps scale linearly in the mixing weight")
        return None

    # -- order axioms ---------------------------------------------------------

    def first_broken_chain(self, first, second, then):
        """First (x, y, z) in scan order with compare(x, y) in `first` and
        compare(y, z) in `second` but compare(x, z) not in `then`; None when
        there is none."""
        firsts, seconds, thens = (self.outcome_rows(m) for m in (first, second, then))
        p = self.points
        for i, row in enumerate(firsts):
            for j in _members(row):
                bad = seconds[j] & ~thens[i]
                if bad:
                    return p[i], p[j], p[_lowest(bad)]
        return None

    def first_pair(self, outcomes, distinct=False):
        """First (x, y) in scan order with compare(x, y) in `outcomes`,
        skipping x == y when `distinct`; None when there is none."""
        p = self.points
        for i, row in enumerate(self.outcome_rows(outcomes)):
            if distinct:
                row &= ~(1 << i)
            if row:
                return p[i], p[_lowest(row)]
        return None

    def _check_reflexive(self):
        for i, row in enumerate(self.outcome_rows(EQUIV)):
            if not row >> i & 1:
                return _fails(AxiomId.REFLEXIVE, {"x": self.points[i]})
        return _holds(AxiomId.REFLEXIVE)

    def _check_complete(self):
        pair = self.first_pair(INCOMPARABLE)
        if pair is not None:
            return _fails(AxiomId.COMPLETE, {"x": pair[0], "y": pair[1]})
        return _holds(AxiomId.COMPLETE)

    def _check_nontrivial(self):
        pair = self.first_pair(STRICT)
        if pair is not None:
            return AxiomVerdict(
                AxiomId.NONTRIVIAL, Status.HOLDS, {"x": pair[0], "y": pair[1]})
        return _fails(AxiomId.NONTRIVIAL, note="no strict pair on the universe")

    def _check_anti_symmetric(self):
        pair = self.first_pair(EQUIV, distinct=True)
        if pair is not None:
            return _fails(AxiomId.ANTI_SYMMETRIC, {"x": pair[0], "y": pair[1]})
        return _holds(AxiomId.ANTI_SYMMETRIC)

    # premise on (x, y), premise on (y, z), conclusion on (x, z)
    _check_transitive = _chain_axiom(AxiomId.TRANSITIVE, WEAK, WEAK, WEAK)
    _check_negatively_transitive = _chain_axiom(
        AxiomId.NEGATIVELY_TRANSITIVE, NOT_WEAK, NOT_WEAK, NOT_WEAK)
    _check_semi_transitive_down = _chain_axiom(
        AxiomId.SEMI_TRANSITIVE_DOWN, STRICT, EQUIV, STRICT)
    _check_semi_transitive_up = _chain_axiom(
        AxiomId.SEMI_TRANSITIVE_UP, EQUIV, STRICT, STRICT)
    _check_transitive_sym = _chain_axiom(AxiomId.TRANSITIVE_SYM, EQUIV, EQUIV, EQUIV)
    _check_transitive_strict = _chain_axiom(
        AxiomId.TRANSITIVE_STRICT, STRICT, STRICT, STRICT)
    # negative transitivity of the strict part (not a Table axiom)
    negatively_transitive_strict = _chain_axiom(
        "negatively_transitive_strict", NOT_STRICT, NOT_STRICT, NOT_STRICT)

    def _check_semi_transitive(self):
        down = self.verdict(AxiomId.SEMI_TRANSITIVE_DOWN)
        up = self.verdict(AxiomId.SEMI_TRANSITIVE_UP)
        if down.passed and up.passed:
            return _holds(AxiomId.SEMI_TRANSITIVE)
        bad = down if down.failed else up
        bad_name = getattr(bad.axiom, "value", bad.axiom)
        return _fails(AxiomId.SEMI_TRANSITIVE, bad.witness, note=f"{bad_name} fails")

    # -- section topology axioms ----------------------------------------------

    def _oracle_or_na(self, axiom):
        if not self.rel.has_segment_oracle:
            return _na(axiom, "sections are not finite interval unions for this relation")
        return None

    _check_mixture_continuous = _section_axiom(
        AxiomId.MIXTURE_CONTINUOUS, ("ge", CLOSED), ("le", CLOSED))
    _check_open_strict_sections = _section_axiom(
        AxiomId.OPEN_STRICT_SECTIONS, ("gt", OPEN), ("lt", OPEN))
    _check_open_incomparable_sections = _section_axiom(
        AxiomId.OPEN_INCOMPARABLE_SECTIONS, ("incomparable", OPEN))
    # Lemma 1's section convexity (not Table axioms)
    _check_upper_sections_convex = _section_axiom(
        "upper_sections_convex", ("ge", CONVEX))
    _check_lower_sections_convex = _section_axiom(
        "lower_sections_convex", ("le", CONVEX))

    def _least_misses(self, a: int, upper: bool, guard: bytes | None = None) -> list[int]:
        """Per point number b, the least point number k with no interior
        weight that keeps the mixture of points[a] with points[k] strictly
        above points[b] (`upper`), or else strictly below it; n where there
        is none.  With `guard`, an n x n block of marks, k runs only over
        the k with _MARK at guard[k*n + b].

        The marks of rows {a, k}, k = 0..n-1, are one n x n block whose
        column b, `block[b::n]`, marks the misses of b; with `guard` it is
        ANDed with it as one int, and the ASCII marks keep _MARK only where
        both have it.  A row k with no mark in the guard is left out whole,
        and its flag row is not built."""
        n = self._n
        meets = GT_MEETS if upper else LT_MEETS
        if guard is None:
            block = self._marks([self.flag_row(a, k) for k in range(n)], meets, meets)
        else:
            clear = bytes(n)
            block = self._marks([self.flag_row(a, k) if _MARK in guard[k * n:k * n + n] else clear
                                 for k in range(n)], meets, meets)
            block = int.from_bytes(block, "little") & int.from_bytes(guard, "little")
            block = block.to_bytes(n * n, "little")
        return [n if (k := block[b::n].find(_MARK)) < 0 else k for b in range(n)]

    def _archimedean_miss(self, axiom, i: int, j: int, k: int, upper: bool, name="z"):
        """`axiom` fails on the strict pair (i, j) at the side miss k,
        whose point the witness calls `name` on the lower side."""
        x, y, t = self.points[i], self.points[j], self.points[k]
        if upper:
            witness = {"x": x, "y": y, "z": t, "section": self.section(x, t, y, "gt")}
            return _fails(axiom, witness, note="no interior weight keeps x-side strictly above y")
        witness = {"x": x, "y": y, name: t, "section": self.section(y, t, x, "lt")}
        return _fails(axiom, witness, note="no interior weight keeps y-side strictly below x")

    def _check_archimedean(self):
        # Each half carries its own incomparability guard: the upper half is
        # required whenever y has an incomparable partner z, the lower half
        # whenever x has an incomparable partner w.
        incomp = self.outcome_rows(INCOMPARABLE)
        guarded = [(i, j) for i, j in self.strict_pairs() if incomp[i] | incomp[j]]
        if not guarded:
            return _holds(AxiomId.ARCHIMEDEAN, note="vacuous: no qualifying tuple")
        na = self._oracle_or_na(AxiomId.ARCHIMEDEAN)
        if na:
            return na
        # the least misses of each (point, side), guarded per target point:
        # _MARK at k*n + b where (points[b], points[k]) is incomparable
        n, misses = self._n, {}
        guard = b"".join(self._outcome_table()[1]).translate(_outcome_marks(INCOMPARABLE))
        for i, j in guarded:
            for upper, a, b, name in ((True, i, j, "z"), (False, j, i, "w")):
                if (a, upper) not in misses:
                    misses[a, upper] = self._least_misses(a, upper, guard)
                k = misses[a, upper][b]
                if k < n:
                    return self._archimedean_miss(AxiomId.ARCHIMEDEAN, i, j, k, upper, name)
        return _holds(AxiomId.ARCHIMEDEAN)

    def _check_strong_archimedean(self):
        pairs = self.strict_pairs()
        if not pairs:
            return _holds(AxiomId.STRONG_ARCHIMEDEAN, note="vacuous: no strict pair")
        decided = self._by_theorem(AxiomId.STRONG_ARCHIMEDEAN)
        if decided:
            return decided
        if not self.rel.has_segment_oracle:
            return self._strong_archimedean_pointwise(pairs)
        n, uppers, lowers = self._n, {}, {}
        for i, j in pairs:
            if i not in uppers:
                uppers[i] = self._least_misses(i, True)
            if j not in lowers:
                lowers[j] = self._least_misses(j, False)
            up, down = uppers[i][j], lowers[j][i]
            # per target the upper side comes first, so the lower side wins
            # only below the first upper miss
            if down < up:
                return self._archimedean_miss(AxiomId.STRONG_ARCHIMEDEAN, i, j, down, False)
            if up < n:
                return self._archimedean_miss(AxiomId.STRONG_ARCHIMEDEAN, i, j, up, True)
        return _holds(AxiomId.STRONG_ARCHIMEDEAN)

    def _strong_archimedean_pointwise(self, pairs):
        hooks = getattr(self.rel, "strong_weights", None)
        if hooks is None:
            return _na(
                AxiomId.STRONG_ARCHIMEDEAN,
                "no segment oracle and no pointwise witness constructor",
            )
        table = self.mix_table()
        mix, weight, mixed, p = table.mix, table.weight, table.points, self.points

        def side(hook, i):
            # per target k: p[i] w p[k] for the hook's weight w on (p[i], p[k]),
            # None where it has none, False where w is not in (0, 1)
            a, cells = p[i], []
            for k, z in enumerate(p):
                w = hook(a, z)
                cells.append(None if w is None else
                             mixed[mix(i, weight(w), k)] if 0 < w < 1 else False)
            return cells

        # weights depend on (x, z) and (y, z) only; each is mixed once, and
        # verified against the other point of every triple
        upper, lower = hooks
        uppers, lowers = {}, {}
        compare, better, worse = (
            self.rel.compare, ComparisonOutcome.BETTER, ComparisonOutcome.WORSE)
        for i, j in pairs:
            if i not in uppers:
                uppers[i] = side(upper, i)
            if j not in lowers:
                lowers[j] = side(lower, j)
            x, y = p[i], p[j]
            for up, down in zip(uppers[i], lowers[j]):
                if up is None or down is None:
                    return _na(
                        AxiomId.STRONG_ARCHIMEDEAN,
                        "pointwise witness search inconclusive",
                    )
                if (up is False or down is False or compare(up, y) is not better
                        or compare(down, x) is not worse):
                    return _na(
                        AxiomId.STRONG_ARCHIMEDEAN, "pointwise witness failed verification"
                    )
        return _holds(AxiomId.STRONG_ARCHIMEDEAN, note="pointwise witness search")

    # -- convexity family -------------------------------------------------------

    _check_convex = _full_section_axiom(AxiomId.CONVEX, "ge", above=True)
    _check_concave = _full_section_axiom(AxiomId.CONCAVE, "le", above=False)
    _check_star_convex = _covering_section_axiom(AxiomId.STAR_CONVEX, "gt", above=True)
    _check_star_concave = _covering_section_axiom(AxiomId.STAR_CONCAVE, "lt", above=False)

    def _check_linear(self):
        na = self._oracle_or_na(AxiomId.LINEAR)
        if na:
            return na
        if not (self.verdict(AxiomId.REFLEXIVE).passed
                and self.verdict(AxiomId.TRANSITIVE_SYM).passed):
            return _na(
                AxiomId.LINEAR,
                "linearity is characterized by convex indifference sections only "
                "for reflexive relations with transitive indifference",
            )
        decided = self._by_theorem(AxiomId.LINEAR)
        if decided:
            return decided
        bad = self.first_section_failure((("eq", CONVEX),))
        if bad:
            x, y, z, _ = bad
            sec = self.section(x, y, z, "eq")
            first, second = sec.intervals[0], sec.intervals[1]
            return _fails(
                AxiomId.LINEAR,
                {"x": x, "y": y, "z": z, "section": sec,
                 "lam": (first.hi + second.lo) / 2},
            )
        return _holds(AxiomId.LINEAR)

    # -- independence, fragility, flimsiness ------------------------------------

    def _check_independent(self):
        decided = self._by_theorem(AxiomId.INDEPENDENT)
        if decided:
            return decided
        table = self.mix_table()
        n, mixed = self._n, table.points
        weights = [(lam, table.weight(lam)) for lam in self.grid if 0 < lam <= 1]
        outcomes = self._outcome_table()[0]
        compare, equivalent = self.rel.compare, ComparisonOutcome.EQUIVALENT
        # row[i]: the numbers of x_i mixed with each z_k at each weight, in
        # scan order (k, then lam); same[(a, b)]: whether mixtures a and b
        # are equivalent
        row: list[list[int] | None] = [None] * n
        same: dict[tuple[int, int], bool] = {}

        def mixtures(i: int) -> list[int]:
            got = row[i]
            if got is None:
                got = row[i] = [table.mix(i, w, k) for k in range(n) for _, w in weights]
            return got

        for i in range(n):
            mi = mixtures(i)
            for j in range(n):
                want = outcomes[i][j] == EQUIV
                for bad, pair in enumerate(zip(mi, mixtures(j))):
                    got = same.get(pair)
                    if got is None:
                        a, b = pair
                        got = same[pair] = (outcomes[a][b] == EQUIV if a < n and b < n
                                            else compare(mixed[a], mixed[b]) is equivalent)
                    if got is not want:
                        k, w = divmod(bad, len(weights))
                        p = self.points
                        return _fails(
                            AxiomId.INDEPENDENT,
                            {"x": p[i], "y": p[j], "z": p[k], "lam": weights[w][0]},
                            note="indifference and mixed indifference disagree",
                        )
        return AxiomVerdict(
            AxiomId.INDEPENDENT, Status.SAMPLED,
            note="biconditional verified on grid weights",
        )

    _check_fragile = _existential_axiom(
        AxiomId.FRAGILE, FRAGILE_HIT,
        "strict weight inside the closure of open incomparability",
        lambda part: iv.intersect(iv.union(part.section("gt"), part.section("lt")),
                                  iv.closure(iv.interior(part.section("incomparable")))))
    _check_flimsy = _existential_axiom(
        AxiomId.FLIMSY, FLIMSY_HIT,
        "incomparable weight is a limit of comparable weights",
        lambda part: iv.intersect(part.section("incomparable"),
                                  iv.closure(iv.union(part.section("ge"), part.section("le")))))
