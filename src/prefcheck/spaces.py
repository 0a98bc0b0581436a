"""Mixture-space carriers with exact mixture operations.

The mixture convention is fixed globally as  x `lam` y = lam*x + (1-lam)*y,
the unique affine convention with  x 1 y = x.  Concrete carriers: probability
simplexes, real intervals, the two-armed split space, and quotients of a
carrier by the symmetric part of a relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Optional, Sequence

from .intervals import ONE, ZERO, Interval, SectionSet, rat
from .verdicts import AxiomVerdict, Status

if TYPE_CHECKING:  # pragma: no cover
    from .relations import RelationModel


@dataclass(frozen=True)
class Point:
    """Carrier element; `part` tags the arm for split-space points."""

    coords: tuple[Fraction, ...]
    part: Optional[str] = None

    def __post_init__(self):
        # points are dict keys in every cache; Fraction hashing is costly
        object.__setattr__(self, "_hash", hash((self.coords, self.part)))

    def __hash__(self) -> int:
        return self._hash

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


class CarrierError(ValueError):
    pass


class MixtureSpace:
    kind = "abstract"

    def contains(self, p: Point) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def mix(self, x: Point, lam, y: Point) -> Point:  # pragma: no cover
        raise NotImplementedError

    def descriptor(self) -> dict:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
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

    def mix(self, x: Point, lam, y: Point) -> Point:
        return Point(tuple(lam * a + (1 - lam) * b for a, b in zip(x.coords, y.coords)))

    def descriptor(self) -> dict:
        return {"kind": "simplex", "dim": self.dim}


@dataclass(frozen=True)
class RealInterval(MixtureSpace):
    lo: Fraction
    hi: Fraction
    kind = "interval"

    def contains(self, p: Point) -> bool:
        return p.part is None and len(p.coords) == 1 and self.lo <= p.coords[0] <= self.hi

    def mix(self, x: Point, lam, y: Point) -> Point:
        return Point((lam * x.coords[0] + (1 - lam) * y.coords[0],))

    def descriptor(self) -> dict:
        return {"kind": "interval", "lo": str(self.lo), "hi": str(self.hi)}


@dataclass(frozen=True)
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

    def mix(self, x: Point, lam, y: Point) -> Point:
        if x.part == y.part:
            coords = tuple(lam * a + (1 - lam) * b for a, b in zip(x.coords, y.coords))
            if x.part == "B" and coords[0] == 0:  # both weights on the origin side
                return Point((ZERO, ZERO), part="A")
            return Point(coords, part=x.part)
        if x.part == "A":  # a lam b
            if lam == 1:
                return x
            return Point(((1 - lam) * y.coords[0], ZERO), part="B")
        # b lam a == a (1-lam) b
        if lam == 0:
            return y
        return Point((lam * x.coords[0], ZERO), part="B")

    def descriptor(self) -> dict:
        return {"kind": "split"}


class QuotientError(ValueError):
    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
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


DEFAULT_GRID: tuple[Fraction, ...] = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def augment_points(
    space: MixtureSpace,
    points: Sequence[Point],
    grid: Sequence[Fraction] = DEFAULT_GRID,
    depth: int = 1,
) -> list[Point]:
    """Close a point list under grid-weight mixtures, `depth` rounds."""
    out: list[Point] = []
    seen: set[Point] = set()
    for p in points:
        if p not in seen:
            seen.add(p)
            out.append(p)
    current = list(out)
    for _ in range(depth):
        fresh = []
        for x in current:
            for y in current:
                for g in grid:
                    m = space.mix(x, g, y)
                    if m not in seen:
                        seen.add(m)
                        fresh.append(m)
        out.extend(fresh)
        current = out
    return out


def _equality(relation: Optional["RelationModel"]):
    if relation is None:
        return lambda p, q: p == q
    from .relations import ComparisonOutcome

    return lambda p, q: relation.compare(p, q) is ComparisonOutcome.EQUIVALENT


def check_mixture_axioms(
    space: MixtureSpace,
    points: Sequence[Point],
    grid: Sequence[Fraction] = DEFAULT_GRID,
    relation: Optional["RelationModel"] = None,
) -> dict[str, AxiomVerdict]:
    """S1-S4 with structural equality, or M1-M4 with a relation's indifference."""
    eq = _equality(relation)
    prefix = "S" if relation is None else "M"
    verdicts: dict[str, AxiomVerdict] = {}

    def fail(name, **witness):
        verdicts[name] = AxiomVerdict(name, Status.FAILS, witness)

    names = [f"{prefix}{i}" for i in (1, 2, 3, 4)]
    for name in names:
        verdicts[name] = AxiomVerdict(name, Status.HOLDS)

    for x in points:
        for y in points:
            if not eq(space.mix(x, ONE, y), x):
                fail(names[0], x=x, y=y)
            for mu in grid:
                if not eq(space.mix(x, mu, y), space.mix(y, 1 - mu, x)):
                    fail(names[1], x=x, y=y, mu=mu)
                for lam in grid:
                    if not eq(
                        space.mix(space.mix(x, mu, y), lam, y),
                        space.mix(x, lam * mu, y),
                    ):
                        fail(names[2], x=x, y=y, mu=mu, lam=lam)
                    for beta in grid:
                        lhs = space.mix(space.mix(x, lam, y), mu, space.mix(x, beta, y))
                        rhs = space.mix(x, mu * lam + (1 - mu) * beta, y)
                        if not eq(lhs, rhs):
                            fail(names[3], x=x, y=y, lam=lam, mu=mu, beta=beta)
    return verdicts


def check_c1_c2(
    space: MixtureSpace,
    points: Sequence[Point],
    grid: Sequence[Fraction] = DEFAULT_GRID,
) -> dict[str, AxiomVerdict]:
    """Cancellation (C1) and mixture associativity (C2), finite check.

    A pass certifies the tested tuples only, hence status `sampled`;
    failures are definitive and carry a witness.
    """
    inner_grid = [g for g in grid if ZERO < g < ONE]
    c1_witness = next((
        {"x": x, "y": y, "y_prime": y_prime, "lam": lam}
        for x, y, y_prime in product(points, repeat=3) if y != y_prime
        for lam in inner_grid
        if space.mix(x, lam, y) == space.mix(x, lam, y_prime)
    ), None)

    weights = sorted(set(grid) | {ZERO, ONE})
    # (lam, mu, lam * mu, inner weight) for every weight pair with lam * mu != 1
    pairs = [(lam, mu, lam * mu, mu * (1 - lam) / (1 - lam * mu))
             for lam, mu in product(weights, repeat=2) if lam * mu != 1]
    c2_witness = next((
        {"x": x, "y": y, "z": z, "lam": lam, "mu": mu}
        for x, y, z in product(points, repeat=3)
        for lam, mu, lam_mu, inner in pairs
        if space.mix(space.mix(x, lam, y), mu, z)
        != space.mix(x, lam_mu, space.mix(y, inner, z))
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

    for ca in classes:
        for cb in classes:
            for lam in grid:
                ref = space.mix(ca[0], lam, cb[0])
                for a in ca:
                    for b in cb:
                        got = space.mix(a, lam, b)
                        if not indifferent(ref, got):
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


def point_from_json(obj) -> Point:
    if isinstance(obj, dict):
        return Point(tuple(rat(c) for c in obj["coords"]), part=obj.get("part"))
    return Point(tuple(rat(c) for c in obj))


def space_from_json(obj: dict) -> MixtureSpace:
    kind = obj.get("kind")
    if kind == "simplex":
        return Simplex(int(obj["dim"]))
    if kind == "interval":
        return RealInterval(rat(obj["lo"]), rat(obj["hi"]))
    if kind == "split":
        return SplitSpace()
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
