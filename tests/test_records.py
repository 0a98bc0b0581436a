"""The `record` decorator: what the package's record types rely on."""

import importlib
import pkgutil
import subprocess
import sys
from collections.abc import Hashable
from fractions import Fraction
from pathlib import Path

import pytest

import prefcheck
from prefcheck.axioms import Universe
from prefcheck.catalog import CatalogEntry, CatalogReport, EntryReport, SectionCheck
from prefcheck.intervals import FULL, OPEN_UNIT, Interval, SectionSet, TopologyReport
from prefcheck.quadratic import QuadRat, RootTwoUnitInterval
from prefcheck.records import field, record
from prefcheck.relations import Label, LabeledPartition, MultiUtility
from prefcheck.representation import (
    CalibrationStep,
    CalibrationTrace,
    UtilityRepresentation,
    VerificationReport,
)
from prefcheck.spaces import Point, QuotientSpace, RealInterval, Simplex, SplitSpace, pt
from prefcheck.theorems import HarnessReport, Rule
from prefcheck.verdicts import AxiomVerdict, Status

F = Fraction
P, Q = pt(1, 0), pt(0, 1)
REL = MultiUtility(((1, 0),))

# (type, constructor arguments, frozen); every record type of the package
SAMPLES = [
    (AxiomVerdict, ("transitive", Status.HOLDS, None, "a note"), True),
    (Universe, ((P, Q), 0), True),
    (Point, ((F(1), F(0)),), True),
    (Simplex, (2,), True),
    (RealInterval, (F(0), F(4)), True),
    (SplitSpace, (), True),
    (QuotientSpace, (Simplex(2), REL, ((P,), (Q,))), True),
    (Interval, (F(1, 3), F(1, 2), False, True), True),
    (SectionSet, ((Interval(F(0), F(1, 2)),),), True),
    (TopologyReport, (False, True, True, 1, FULL, OPEN_UNIT, F(0), F(1)), True),
    (UtilityRepresentation, (P, Q, {P: F(1)}), False),
    (CalibrationStep, (P, "i", F(2, 5)), True),
    (CalibrationTrace, ([],), False),
    (VerificationReport, (3, 4), False),
    (SectionCheck, (P, Q, P, "gt", FULL), True),
    (CatalogEntry, ("e", Simplex(2), REL, Universe((P, Q)), {"transitive": "holds"}), False),
    (EntryReport, ("e", {}, {}, [], [], None, []), False),
    (CatalogReport, ([],), False),
    (Rule, ((("transitive", True),), (("complete", False),)), True),
    (HarnessReport, ("P1", None, {}, {}, True, False), True),
    (QuadRat, (F(1), F(-2)), True),
    (RootTwoUnitInterval, (), True),
    (LabeledPartition, (((Interval(F(0), F(1)), Label.STRICT_ABOVE),),), True),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def _record_types():
    """Every class of the package that `record` built, found by its
    `__match_args__` (no other class of the package has one)."""
    found = set()
    for info in pkgutil.iter_modules(prefcheck.__path__):
        module = importlib.import_module(f"prefcheck.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and "__match_args__" in vars(value)):
                found.add(value)
    return found


def test_samples_cover_every_record_type():
    assert _record_types() == {cls for cls, _, _ in SAMPLES}


def test_importing_the_package_loads_no_dataclasses_inspect_or_typing():
    src = str(Path(prefcheck.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import prefcheck, prefcheck.cli, prefcheck.catalog; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    # -I -S: no site hooks or environment, so only the package's own imports count
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("cls, args, frozen", SAMPLES, ids=IDS)
def test_equal_fields_are_equal_and_hash_alike(cls, args, frozen):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    values = tuple(getattr(a, name) for name in cls.__match_args__)
    assert values[:len(args)] == args
    if not frozen:
        with pytest.raises(TypeError):
            hash(a)
    elif all(isinstance(v, Hashable) for v in values):
        assert hash(a) == hash(b)
        if cls is not Point:  # hashes of the field tuple, as dataclasses gave
            assert hash(a) == hash(values)


@pytest.mark.parametrize("cls, args, frozen", SAMPLES, ids=IDS)
def test_a_subclass_instance_is_not_equal(cls, args, frozen):
    sub = type(f"Sub{cls.__name__}", (cls,), {})
    assert cls(*args) != sub(*args)
    assert sub(*args) != cls(*args)
    assert sub(*args) == sub(*args)


@pytest.mark.parametrize("cls, args, frozen", SAMPLES, ids=IDS)
def test_frozen_fields_cannot_be_assigned(cls, args, frozen):
    a = cls(*args)
    for name in cls.__match_args__:
        value = getattr(a, name)
        if frozen:
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
        else:
            setattr(a, name, value)
        assert getattr(a, name) is value


def test_default_factory_fields_are_fresh_per_instance():
    for make, name in (
        (CalibrationTrace, "steps"),
        (VerificationReport, "failures"),
        (lambda: CatalogEntry("e", Simplex(2), REL, Universe((P,)), {}), "space_expectations"),
        (lambda: HarnessReport("P1", None, {}, {}, True, True), "intermediates"),
    ):
        a, b = make(), make()
        assert getattr(a, name) == getattr(b, name)
        assert getattr(a, name) is not getattr(b, name)
    assert "steps" not in vars(CalibrationTrace)


def test_repr_and_constructor_follow_the_fields():
    step = CalibrationStep(P, case="ii", lam=None)
    assert repr(step) == "CalibrationStep(point=(1, 0), case='ii', lam=None, warning=None)"
    assert CalibrationStep.__match_args__ == ("point", "case", "lam", "warning")
    assert repr(Simplex(3)) == "Simplex(dim=3)"
    assert repr(SplitSpace()) == "SplitSpace()"
    assert repr(Interval(F(0), F(1, 2), True, False)) == "[0, 1/2)"  # the class's own
    with pytest.raises(TypeError):
        CalibrationStep(P, "i")
    with pytest.raises(TypeError):
        CalibrationStep(P, "i", None, None, None)
    with pytest.raises(TypeError):
        CalibrationStep(P, "i", None, colour="red")


def test_record_keeps_class_methods_and_runs_post_init():
    @record(frozen=True)
    class Pair:
        left: int
        right: list = field(default_factory=list)

        def __post_init__(self):
            object.__setattr__(self, "total", self.left + len(self.right))

        def __repr__(self):
            return "pair"

    assert Pair(2).total == 2 and Pair(1, right=[0, 0]).total == 3
    assert repr(Pair(1)) == "pair"

    @record(frozen=True)
    class Box:
        item: int

        def __eq__(self, other):
            return self is other

        def __hash__(self):
            return id(self)

    assert Box(1) != Box(1) and len({Box(1), Box(1)}) == 2
    assert Box(1).__match_args__ == ("item",)
