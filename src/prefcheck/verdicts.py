"""Verdict records shared by the axiom checkers and space checkers."""

from __future__ import annotations

from enum import Enum

from .records import record


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    SAMPLED = "sampled"  # passed a finite grid check of a universally quantified claim
    NOT_APPLICABLE = "not_applicable"


@record(frozen=True)
class AxiomVerdict:
    """Outcome of one check.

    For universally quantified axioms a FAILS verdict carries a concrete
    counterexample in `witness`.  For existential properties (nontrivial,
    fragile, flimsy) the witness documents the HOLDS side instead, and a
    FAILS verdict records an exhaustive search that found nothing.
    """

    axiom: str
    status: Status
    witness: dict | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.status in (Status.HOLDS, Status.SAMPLED)

    @property
    def failed(self) -> bool:
        return self.status is Status.FAILS

    def to_json(self) -> dict:
        from .spaces import value_to_json  # deferred; avoids import cycle

        name = getattr(self.axiom, "value", self.axiom)
        out: dict = {"axiom": name, "status": self.status.value}
        if self.witness is not None:
            out["witness"] = {k: value_to_json(v) for k, v in self.witness.items()}
        if self.note is not None:
            out["note"] = self.note
        return out
