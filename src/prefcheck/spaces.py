"""Mixture-space carriers with exact mixture operations.

The mixture convention is fixed globally as  x `lam` y = lam*x + (1-lam)*y,
the unique affine convention with  x 1 y = x.  Concrete carriers: probability
simplexes, real intervals, the two-armed split space, and quotients of a
carrier by the symmetric part of a relation.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from types import MethodType

from .intervals import ONE, ZERO, Interval, SectionSet, rat
from .records import record
from .verdicts import AxiomVerdict, Status


@record(frozen=True)
class Point:
    """Carrier element; `part` tags the arm for split-space points."""

    coords: tuple[Fraction, ...]
    part: str | None = None

    def __post_init__(self):
        # points are dict keys in every cache; Fraction hashing is costly
        object.__setattr__(self, "_hash", hash((self.coords, self.part)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        # most tests in comparators are on unequal points: the cached hashes
        # tell those apart without comparing Fractions
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.coords == other.coords
                and self.part == other.part)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coords)
        if self.part is not None:
            return f"{self.part}({body})"
        return f"({body})"


def pt(*values) -> Point:
    return Point(tuple(rat(v) for v in values))


def split_a(t) -> Point:
    return Point((ZERO, rat(t)), part="A")


def split_b(s) -> Point:
    return Point((rat(s), ZERO), part="B")


# A rational vector's key is its numerators over their least common
# denominator, then that denominator: (n_1, ..., n_k, d) with d > 0 and no
# common factor, so equal vectors have equal keys.  Keys are homogeneous
# coordinates, and mixing is linear on them.


def vector_key(p: Point) -> tuple[int, ...]:
    den = lcm(*[c.denominator for c in p.coords])
    return (*[c.numerator * (den // c.denominator) for c in p.coords], den)


def vector_point(key: Sequence[int], part: str | None = None) -> Point:
    den = key[-1]
    return Point(tuple([Fraction(n, den) for n in key[:-1]]), part)


def mix_vectors(kx: tuple[int, ...], lam, ky: tuple[int, ...]) -> tuple[int, ...]:
    """The key of lam*x + (1-lam)*y from the keys of x and y.

    With lam = p/q, x = X/d and y = Y/e it is (p*e*X + (q-p)*d*Y) / (q*d*e);
    the same combination of the two denominators is q*d*e, so the whole
    key is one combination, divided by its gcd.
    """
    p, q = lam.numerator, lam.denominator
    if p == q:
        return kx
    if p == 0:
        return ky
    a, b = p * ky[-1], (q - p) * kx[-1]
    out = [a * m + b * n for m, n in zip(kx, ky)]
    g = gcd(*out)
    return tuple([v // g for v in out]) if g != 1 else tuple(out)


# the hooks of a carrier keyed by `vector_key`, for its class body
VECTOR_HOOKS = staticmethod(vector_key), staticmethod(vector_point), staticmethod(mix_vectors)


class CarrierError(ValueError):
    pass


class MixtureSpace:
    """A carrier: its points, its mixture, and the keys a `MixTable` mixes.

    A table numbers each point by `key(point)` and mixes keys with
    `mix_key`; `point(key)` builds a point back, only when one is read.  By
    default a point is its own key and `mix_key` is `mix`.  A carrier that
    overrides all three must keep `key` one-to-one on points.
    """

    kind = "abstract"

    def contains(self, p: Point) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def mix(self, x: Point, lam, y: Point) -> Point:  # pragma: no cover
        raise NotImplementedError

    def key(self, p: Point):
        return p

    def point(self, key) -> Point:
        return key

    def mix_key(self, kx, lam, ky):
        return self.mix(kx, lam, ky)

    def descriptor(self) -> dict:  # pragma: no cover
        raise NotImplementedError


@record(frozen=True)
class Simplex(MixtureSpace):
    """Probability vectors with `dim` coordinates (dim vertices)."""

    dim: int
    kind = "simplex"

    def contains(self, p: Point) -> bool:
        return (
            p.part is None
            and len(p.coords) == self.dim
            and all(c >= 0 for c in p.coords)
            and sum(p.coords) == 1
        )

    def vertices(self) -> list[Point]:
        return [
            Point(tuple(ONE if i == j else ZERO for j in range(self.dim)))
            for i in range(self.dim)
        ]

    key, point, mix_key = VECTOR_HOOKS

    def mix(self, x: Point, lam, y: Point) -> Point:
        return self.point(self.mix_key(self.key(x), lam, self.key(y)))

    def descriptor(self) -> dict:
        return {"kind": "simplex", "dim": self.dim}


@record(frozen=True)
class RealInterval(MixtureSpace):
    lo: Fraction
    hi: Fraction
    kind = "interval"

    def contains(self, p: Point) -> bool:
        return p.part is None and len(p.coords) == 1 and self.lo <= p.coords[0] <= self.hi

    key, point, mix_key = VECTOR_HOOKS

    def mix(self, x: Point, lam, y: Point) -> Point:
        return self.point(self.mix_key(self.key(x), lam, self.key(y)))

    def descriptor(self) -> dict:
        return {"kind": "interval", "lo": str(self.lo), "hi": str(self.hi)}


_ORIGIN = (0, 0, 1)  # the vector key of (0, 0)


@record(frozen=True)
class SplitSpace(MixtureSpace):
    """Two arms glued at the origin: A = {0} x [0,1], B = (0,1] x {0}.

    Within an arm mixtures are convex combinations.  Across arms the
    A-point collapses to the origin: a `lam` b = lam*(0,0) + (1-lam)*b for
    lam < 1, a 1 b = a, and b `lam` a = a (1-lam) b.
    """

    kind = "split"

    def contains(self, p: Point) -> bool:
        if len(p.coords) != 2:
            return False
        s, t = p.coords
        if p.part == "A":
            return s == 0 and ZERO <= t <= ONE
        if p.part == "B":
            return t == 0 and ZERO < s <= ONE
        return False

    def key(self, p: Point):
        return p.part, vector_key(p)

    def point(self, key) -> Point:
        return vector_point(key[1], key[0])

    def mix_key(self, kx, lam, ky):
        (px, vx), (py, vy) = kx, ky
        if px == py:
            v = mix_vectors(vx, lam, vy)
            if px == "B" and v[0] == 0:  # both weights on the origin side
                return "A", _ORIGIN
            return px, v
        if px == "A":  # a lam b
            return kx if lam == 1 else ("B", mix_vectors(_ORIGIN, lam, vy))
        # b lam a == a (1-lam) b
        return ky if lam == 0 else ("B", mix_vectors(vx, lam, _ORIGIN))

    def mix(self, x: Point, lam, y: Point) -> Point:
        return self.point(self.mix_key(self.key(x), lam, self.key(y)))

    def descriptor(self) -> dict:
        return {"kind": "split"}


class QuotientError(ValueError):
    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness


@record(frozen=True)
class QuotientSpace(MixtureSpace):
    """Carrier of equivalence classes, represented by canonical members.

    `classes` partitions the universe the quotient was built from; points
    produced later by mixing are canonicalized against those classes and
    otherwise represent themselves.
    """

    base: MixtureSpace
    base_relation: "RelationModel"
    classes: tuple[tuple[Point, ...], ...]
    kind = "quotient"

    @property
    def representatives(self) -> tuple[Point, ...]:
        return tuple(cls[0] for cls in self.classes)

    def canonical(self, w: Point) -> Point:
        from .relations import ComparisonOutcome

        for cls in self.classes:
            if self.base_relation.compare(cls[0], w) is ComparisonOutcome.EQUIVALENT:
                return cls[0]
        return w

    def contains(self, p: Point) -> bool:
        return self.base.contains(p)

    def mix(self, x: Point, lam, y: Point) -> Point:
        return self.canonical(self.base.mix(x, lam, y))

    def descriptor(self) -> dict:
        return {"kind": "quotient", "base": self.base.descriptor()}


def mix(space: MixtureSpace, x: Point, lam, y: Point) -> Point:
    """Checked mixture: endpoints in the carrier, weight in [0,1]."""
    lam = rat(lam) if not isinstance(lam, Fraction) else lam
    if not (ZERO <= lam <= ONE):
        raise CarrierError(f"mixture weight outside [0,1]: {lam}")
    if not space.contains(x):
        raise CarrierError(f"point not in carrier: {x}")
    if not space.contains(y):
        raise CarrierError(f"point not in carrier: {y}")
    return space.mix(x, lam, y)


def _owner(cls: type, name: str) -> type:
    return next(c for c in cls.__mro__ if name in vars(c))


class _Points(Sequence):
    """A table's points, each built from its key when first read."""

    def __init__(self, keys: list, point):
        self._keys, self._point, self._made = keys, point, {}

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self._keys)))]
        if i < 0:
            i = range(len(self._keys))[i]
        got = self._made.get(i)
        if got is None:
            got = self._made[i] = self._point(self._keys[i])
        return got


class MixTable:
    """`space.mix` over numbered points and weights (hash-consing).

    A point gets a number on first sight, keyed by `space.key(point)`, so
    equal points share one and comparing numbers is comparing points; a
    weight gets one keyed by its value.  `mix(i, w, j)` is the number of
    key i mixed with key j at weights[w] by `space.mix_key`, memoised on the
    int triple: mixing is a pure function of its arguments, so each
    distinct (x, lam, y) reaches the carrier once.  `points[i]` is built
    from key i on first read.  A carrier whose `mix` is overridden below
    its `mix_key` is mixed by the `MixtureSpace` defaults, through that
    `mix`, each point its own key.  A table lives as long as the scan or
    engine that made it.
    """

    def __init__(self, space: MixtureSpace):
        self.keys: list = []
        self.weights: list = []
        self._ids: dict = {}
        self._weight_ids: dict = {}
        self._mixed: dict[tuple[int, int, int], int] = {}
        cls = type(space)
        if issubclass(_owner(cls, "mix_key"), _owner(cls, "mix")):
            self._key, point, self._mix_key = space.key, space.point, space.mix_key
        else:  # `mix` overridden below `mix_key`: the defaults, which call it
            self._key, point, self._mix_key = (
                MethodType(f, space)
                for f in (MixtureSpace.key, MixtureSpace.point, MixtureSpace.mix_key))
        self.points = _Points(self.keys, point)

    def number(self, p: Point) -> int:
        key = self._key(p)
        got = self._ids.get(key)
        if got is None:
            got = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.points._made[got] = p
        return got

    def weight(self, lam) -> int:
        got = self._weight_ids.get(lam)
        if got is None:
            got = self._weight_ids[lam] = len(self.weights)
            self.weights.append(lam)
        return got

    def mix(self, i: int, w: int, j: int) -> int:
        triple = (i, w, j)
        got = self._mixed.get(triple)
        if got is None:
            keys = self.keys
            key = self._mix_key(keys[i], self.weights[w], keys[j])
            got = self._ids.get(key)
            if got is None:
                got = self._ids[key] = len(keys)
                keys.append(key)
            self._mixed[triple] = got
        return got


DEFAULT_GRID: tuple[Fraction, ...] = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def closure_table(
    space: MixtureSpace,
    points: Sequence[Point],
    grid: Sequence[Fraction] = DEFAULT_GRID,
    depth: int = 1,
) -> MixTable:
    """A table whose numbers are `points` closed under grid-weight
    mixtures, `depth` rounds, in first-seen order: each round mixes every
    pair of the numbers so far."""
    table = MixTable(space)
    for p in points:
        table.number(p)
    weights = [table.weight(g) for g in grid]
    mix = table.mix
    for _ in range(depth):
        numbers = range(len(table.keys))
        for x in numbers:
            for y in numbers:
                for w in weights:
                    mix(x, w, y)
    return table


def augment_points(
    space: MixtureSpace,
    points: Sequence[Point],
    grid: Sequence[Fraction] = DEFAULT_GRID,
    depth: int = 1,
) -> list[Point]:
    """Close a point list under grid-weight mixtures, `depth` rounds: the
    points of `closure_table`.  With no rounds only repeats go, and no
    point is keyed."""
    if depth < 1:
        return list(dict.fromkeys(points))
    return closure_table(space, points, grid, depth).points[:]


def check_mixture_axioms(
    space: MixtureSpace,
    points: Sequence[Point],
    grid: Sequence[Fraction] = DEFAULT_GRID,
    relation: "RelationModel" | None = None,
) -> dict[str, AxiomVerdict]:
    """S1-S4 with structural equality, or M1-M4 with a relation's indifference.

    Each axiom's witness is its first failing tuple in scan order; a failed
    axiom is not evaluated again.
    """
    table = MixTable(space)
    mix, pts, weight = table.mix, table.points, table.weight
    ids = [table.number(p) for p in points]
    if relation is None:
        prefix, eq = "S", operator.eq
    else:
        from .relations import ComparisonOutcome

        compare, equivalent = relation.compare, ComparisonOutcome.EQUIVALENT
        prefix = "M"

        def eq(a: int, b: int) -> bool:
            return compare(pts[a], pts[b]) is equivalent

    names = [f"{prefix}{i}" for i in (1, 2, 3, 4)]
    # weight numbers by grid position: g[m] is mu, flip[m] is 1 - mu,
    # prod[m][l] is lam * mu and comb[m][l][b] is mu*lam + (1-mu)*beta
    one, g = weight(ONE), [weight(mu) for mu in grid]
    flip = [weight(1 - mu) for mu in grid]
    prod = [[weight(lam * mu) for lam in grid] for mu in grid]
    comb = [[[weight(mu * lam + (1 - mu) * beta) for beta in grid] for lam in grid]
            for mu in grid]
    witnesses: list[dict | None] = [None] * 4

    for x in ids:
        for y in ids:
            if witnesses[0] is None and not eq(mix(x, one, y), x):
                witnesses[0] = {"x": pts[x], "y": pts[y]}
            for m, mu in enumerate(grid):
                if witnesses[1] is None and not eq(mix(x, g[m], y), mix(y, flip[m], x)):
                    witnesses[1] = {"x": pts[x], "y": pts[y], "mu": mu}
                for l, lam in enumerate(grid):
                    if witnesses[2] is None and not eq(
                        mix(mix(x, g[m], y), g[l], y), mix(x, prod[m][l], y)
                    ):
                        witnesses[2] = {"x": pts[x], "y": pts[y], "mu": mu, "lam": lam}
                    if witnesses[3] is None:
                        witnesses[3] = next((
                            {"x": pts[x], "y": pts[y], "lam": lam, "mu": mu, "beta": beta}
                            for b, beta in enumerate(grid)
                            if not eq(mix(mix(x, g[l], y), g[m], mix(x, g[b], y)),
                                      mix(x, comb[m][l][b], y))
                        ), None)
    return {
        name: AxiomVerdict(name, Status.FAILS, witness)
        if witness else AxiomVerdict(name, Status.HOLDS)
        for name, witness in zip(names, witnesses)
    }


def check_c1_c2(
    space: MixtureSpace,
    points: Sequence[Point],
    grid: Sequence[Fraction] = DEFAULT_GRID,
) -> dict[str, AxiomVerdict]:
    """Cancellation (C1) and mixture associativity (C2), finite check.

    A pass certifies the tested tuples only, hence status `sampled`;
    failures are definitive and carry a witness.
    """
    table = MixTable(space)
    mix, pts, weight = table.mix, table.points, table.weight
    ids = [table.number(p) for p in points]
    inner_grid = [(lam, weight(lam)) for lam in grid if ZERO < lam < ONE]
    c1_witness = next((
        {"x": pts[x], "y": pts[y], "y_prime": pts[y_prime], "lam": lam}
        for x, y, y_prime in product(ids, repeat=3) if y != y_prime
        for lam, w in inner_grid
        if mix(x, w, y) == mix(x, w, y_prime)
    ), None)

    weights = sorted(set(grid) | {ZERO, ONE})
    # every weight pair with lam * mu != 1, with the numbers of lam, mu,
    # lam * mu and the inner weight
    pairs = [(lam, mu, weight(lam), weight(mu), weight(lam * mu),
              weight(mu * (1 - lam) / (1 - lam * mu)))
             for lam, mu in product(weights, repeat=2) if lam * mu != 1]
    c2_witness = next((
        {"x": pts[x], "y": pts[y], "z": pts[z], "lam": lam, "mu": mu}
        for x, y, z in product(ids, repeat=3)
        for lam, mu, w_lam, w_mu, w_lam_mu, w_inner in pairs
        if mix(mix(x, w_lam, y), w_mu, z) != mix(x, w_lam_mu, mix(y, w_inner, z))
    ), None)

    verdicts: dict[str, AxiomVerdict] = {}
    for name, witness in (("C1", c1_witness), ("C2", c2_witness)):
        verdicts[name] = (
            AxiomVerdict(name, Status.FAILS, witness)
            if witness
            else AxiomVerdict(name, Status.SAMPLED, note="no violation on tested tuples")
        )
    return verdicts


def quotient(
    space: MixtureSpace,
    relation: "RelationModel",
    points: Sequence[Point],
    grid: Sequence[Fraction] = DEFAULT_GRID,
):
    """Quotient a carrier by the relation's symmetric part.

    Verifies that indifference is an equivalence on `points`, that
    comparisons and grid mixtures are independent of representatives, and
    returns the class space plus the derived (anti-symmetric) relation.
    """
    from .relations import ComparisonOutcome, QuotientDerived

    def indifferent(p, q):
        return relation.compare(p, q) is ComparisonOutcome.EQUIVALENT

    for x in points:
        if not indifferent(x, x):
            raise QuotientError("relation is not reflexive on the universe", {"x": x})
    for x in points:
        for y in points:
            for z in points:
                if indifferent(x, y) and indifferent(y, z) and not indifferent(x, z):
                    raise QuotientError(
                        "indifference is not transitive on the universe",
                        {"x": x, "y": y, "z": z},
                    )

    classes: list[list[Point]] = []
    for p in points:
        for cls in classes:
            if indifferent(cls[0], p):
                cls.append(p)
                break
        else:
            classes.append([p])

    for ca in classes:
        for cb in classes:
            base = relation.compare(ca[0], cb[0])
            for a in ca:
                for b in cb:
                    if relation.compare(a, b) is not base:
                        raise QuotientError(
                            "comparison depends on representatives",
                            {"x": ca[0], "x_prime": a, "y": cb[0], "y_prime": b},
                        )

    table = MixTable(space)
    mix, pts = table.mix, table.points
    numbered = [[table.number(p) for p in cls] for cls in classes]
    weights = [(lam, table.weight(lam)) for lam in grid]
    for ca, ia in zip(classes, numbered):
        for cb, ib in zip(classes, numbered):
            for lam, w in weights:
                ref = pts[mix(ia[0], w, ib[0])]
                for a, i in zip(ca, ia):
                    for b, j in zip(cb, ib):
                        if not indifferent(ref, pts[mix(i, w, j)]):
                            raise QuotientError(
                                "class mixture depends on representatives "
                                "(the relation is not independent)",
                                {"x": ca[0], "x_prime": a, "y": cb[0],
                                 "y_prime": b, "lam": lam},
                            )

    qspace = QuotientSpace(space, relation, tuple(tuple(c) for c in classes))
    return qspace, QuotientDerived(relation, qspace)


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------


def point_to_json(p: Point):
    if p.part is not None:
        return {"part": p.part, "coords": [str(c) for c in p.coords]}
    return [str(c) for c in p.coords]


def rat_from_json(value) -> Fraction:
    """A rational read from JSON: an int or a string such as "2/3".  A JSON
    float has been rounded already and a boolean is no number, so both
    are refused; a zero denominator raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"rationals are ints or 'p/q' strings, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def point_from_json(obj) -> Point:
    coords, part = (obj["coords"], obj.get("part")) if isinstance(obj, dict) else (obj, None)
    if not isinstance(coords, (list, tuple)):
        raise TypeError(f"point coordinates must be a JSON array, got {coords!r}")
    return Point(tuple(rat_from_json(c) for c in coords), part=part)


def space_from_json(obj: dict) -> MixtureSpace:
    kind = obj.get("kind")
    if kind == "simplex":
        dim = obj["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"simplex dim must be a JSON integer >= 1, got {dim!r}")
        return Simplex(dim)
    if kind == "interval":
        return RealInterval(rat_from_json(obj["lo"]), rat_from_json(obj["hi"]))
    if kind == "split":
        return SplitSpace()
    if kind == "root2_interval":
        from .quadratic import RootTwoUnitInterval  # quadratic imports this module

        return RootTwoUnitInterval()
    raise ValueError(f"unknown space kind: {kind!r}")


def value_to_json(v):
    """Serialize witness payloads: points, rationals, interval sets, nests."""
    if isinstance(v, Point):
        return point_to_json(v)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, SectionSet):
        return v.to_json()
    if isinstance(v, Interval):
        return v.to_json()
    if isinstance(v, (list, tuple)):
        return [value_to_json(item) for item in v]
    if isinstance(v, dict):
        return {k: value_to_json(item) for k, item in v.items()}
    return v
