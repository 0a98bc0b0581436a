"""Instance-level harness for the engine's theorem catalog.

Each rule maps hypothesis axioms to conclusion axioms.  A harness run
evaluates both sides on a finite universe and reports `applicable` (all
hypotheses come out as required) and `consistent` (no refutation: if
applicable, the conclusions hold).  A report with applicable=true and
consistent=false can only come from a bug in a checker or oracle.
"""

from __future__ import annotations


from .axioms import AxiomEngine, AxiomId
from .records import field, record
from .verdicts import AxiomVerdict, Status


@record(frozen=True)
class Rule:
    hypotheses: tuple[tuple[str, bool], ...]
    conclusions: tuple[tuple[str, bool], ...] = ()
    variants: dict[str, tuple[tuple[str, bool], ...]] | None = None
    mode: str = "standard"  # standard | coincide | biconditional | representation
    note: str | None = None


def _t(*names) -> tuple[tuple[str, bool], ...]:
    return tuple((n, True) for n in names)


THEOREMS: dict[str, Rule] = {
    # Under indifference-respecting transitivity and closed weak sections,
    # the three interior-weight formulations stand or fall together.
    "P1": Rule(
        hypotheses=_t("semi_transitive", "mixture_continuous"),
        conclusions=_t("archimedean", "strong_archimedean", "open_strict_sections"),
        mode="coincide",
    ),
    "P2": Rule(
        hypotheses=_t("semi_transitive", "strong_archimedean",
                      "open_incomparable_sections"),
        conclusions=_t("mixture_continuous"),
        note="finitely many section components holds structurally for every "
             "relation with a segment oracle",
    ),
    # Continuity plus weak transitivity forces decisiveness and consistency.
    "T1": Rule(
        hypotheses=_t("nontrivial", "reflexive", "semi_transitive",
                      "mixture_continuous", "archimedean", "transitive_sym"),
        conclusions=_t("complete", "transitive"),
    ),
    "OBS1": Rule(
        hypotheses=_t("anti_symmetric", "nontrivial", "reflexive",
                      "mixture_continuous", "archimedean"),
        conclusions=_t("complete", "transitive"),
    ),
    "COR1": Rule(
        hypotheses=_t("complete", "mixture_continuous", "archimedean"),
        variants={"a": _t("semi_transitive_down"), "b": _t("semi_transitive_up")},
        conclusions=_t("transitive"),
    ),
    "T2": Rule(
        hypotheses=_t("complete", "strong_archimedean", "transitive_strict"),
        variants={"a": _t("star_convex"), "b": _t("star_concave")},
        conclusions=_t("transitive"),
        note="the transitivity hypothesis is read on the strict part",
    ),
    "T3a": Rule(
        hypotheses=_t("reflexive", "mixture_continuous", "archimedean",
                      "transitive_sym", "linear"),
        conclusions=_t("semi_transitive"),
    ),
    "T3b": Rule(
        hypotheses=_t("reflexive", "mixture_continuous", "archimedean",
                      "transitive_sym", "convex"),
        conclusions=_t("semi_transitive_up"),
    ),
    "T3c": Rule(
        hypotheses=_t("reflexive", "mixture_continuous", "archimedean",
                      "transitive_sym", "concave"),
        conclusions=_t("semi_transitive_down"),
    ),
    "T3d": Rule(
        hypotheses=_t("reflexive", "mixture_continuous", "archimedean",
                      "transitive_sym", "complete"),
        variants={"a": _t("convex"), "b": _t("concave")},
        conclusions=_t("semi_transitive"),
    ),
    "COR2": Rule(
        hypotheses=_t("nontrivial", "reflexive", "mixture_continuous",
                      "archimedean", "transitive_sym"),
        variants={"a": _t("linear"), "b": _t("semi_transitive")},
        conclusions=_t("complete", "transitive"),
    ),
    "COR3": Rule(
        hypotheses=_t("complete", "mixture_continuous", "archimedean",
                      "transitive_sym"),
        variants={"a": _t("convex"), "b": _t("concave")},
        conclusions=_t("transitive"),
    ),
    "L1d": Rule(
        hypotheses=_t("reflexive", "transitive_sym", "mixture_continuous",
                      "archimedean"),
        conclusions=_t("linear", "convex", "concave"),
        mode="biconditional",
    ),
    # An anti-symmetric instance calibrates to a strictly monotone,
    # mixture-preserving coordinate: the desk-scale order isomorphism.
    "T4": Rule(
        hypotheses=_t("nontrivial", "complete", "transitive", "anti_symmetric",
                      "mixture_continuous"),
        mode="representation",
    ),
    "P3": Rule(
        hypotheses=(("complete", False),) + _t("nontrivial", "reflexive",
                                               "transitive", "mixture_continuous"),
        conclusions=_t("fragile"),
    ),
    "P4": Rule(
        hypotheses=(("complete", False),) + _t("nontrivial", "reflexive",
                                               "transitive", "strong_archimedean"),
        conclusions=_t("flimsy"),
        note="finitely many section components holds structurally for every "
             "relation with a segment oracle",
    ),
}

THEOREM_IDS = tuple(THEOREMS)


@record(frozen=True)
class HarnessReport:
    theorem: str
    variant: str | None
    hypotheses: dict[str, AxiomVerdict]
    conclusions: dict[str, AxiomVerdict]
    applicable: bool
    consistent: bool
    intermediates: dict[str, AxiomVerdict] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem,
            "applicable": self.applicable,
            "consistent": self.consistent,
            "hypotheses": {k: v.to_json() for k, v in sorted(self.hypotheses.items())},
            "conclusions": {k: v.to_json() for k, v in sorted(self.conclusions.items())},
        }
        if self.variant is not None:
            out["variant"] = self.variant
        if self.intermediates:
            out["intermediates"] = {
                k: v.to_json() for k, v in sorted(self.intermediates.items())
            }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _matches(verdict: AxiomVerdict, expected_pass: bool) -> bool:
    if verdict.status is Status.NOT_APPLICABLE:
        return False
    return verdict.passed if expected_pass else verdict.failed


def _representation_verdict(engine: AxiomEngine) -> AxiomVerdict:
    from .representation import (
        CalibrationError,
        calibrate,
        extreme_points,
        verify_representation,
    )

    low, high = extreme_points(engine)
    if not engine.strict(high, low):
        return AxiomVerdict(
            "representation", Status.FAILS,
            {"low": low, "high": high},
            note="no strictly ordered anchor pair",
        )
    try:
        rep, _ = calibrate(engine, low, high)
    except CalibrationError as exc:
        return AxiomVerdict("representation", Status.FAILS, note=str(exc))
    outcome = verify_representation(engine, rep)
    # injectivity is claimed on the universe; on-demand mixture points added
    # by the verifier may legitimately share values with each other
    values = [rep.values[p] for p in engine.points]
    injective = len(set(values)) == len(values)
    if outcome.passed and injective:
        return AxiomVerdict(
            "representation", Status.HOLDS,
            note="strictly monotone mixture-preserving coordinate on the universe",
        )
    note = "verification failed" if not outcome.passed else "coordinate not injective"
    return AxiomVerdict(
        "representation", Status.FAILS,
        {"failures": outcome.failures[:3]}, note=note,
    )


def run_harness(
    theorem: str,
    engine: AxiomEngine,
    variant: str | None = None,
) -> HarnessReport:
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id: {theorem!r}")
    rule = THEOREMS[theorem]
    if rule.variants:
        if variant is None:
            raise ValueError(f"{theorem} needs a variant: {sorted(rule.variants)}")
        if variant not in rule.variants:
            raise ValueError(f"unknown variant {variant!r} for {theorem}")
        hypotheses = rule.hypotheses + rule.variants[variant]
    else:
        hypotheses = rule.hypotheses

    hyp_verdicts = {name: engine.verdict(name) for name, _ in hypotheses}
    applicable = all(_matches(hyp_verdicts[n], want) for n, want in hypotheses)

    if rule.mode != "representation":
        conclusions = {name: engine.verdict(name) for name, _ in rule.conclusions}
    elif applicable:
        conclusions = {"representation": _representation_verdict(engine)}
    else:
        conclusions = {"representation": AxiomVerdict(
            "representation", Status.NOT_APPLICABLE, note="hypotheses not met")}

    if not applicable:
        consistent = True
    elif rule.mode == "representation":
        consistent = conclusions["representation"].passed
    elif rule.mode == "coincide":
        consistent = len({v.passed for v in conclusions.values()}) == 1
    elif rule.mode == "biconditional":
        consistent = conclusions["linear"].passed == (
            conclusions["convex"].passed and conclusions["concave"].passed
        )
    else:
        consistent = all(
            conclusions[n].status is Status.NOT_APPLICABLE or
            _matches(conclusions[n], want)
            for n, want in rule.conclusions
        )

    intermediates: dict[str, AxiomVerdict] = {}
    if theorem == "T1":
        intermediates["negatively_transitive_strict"] = engine.negatively_transitive_strict()

    return HarnessReport(
        theorem=theorem,
        variant=variant,
        hypotheses=hyp_verdicts,
        conclusions=conclusions,
        applicable=applicable,
        consistent=consistent,
        intermediates=intermediates,
        notes=(rule.note,) if rule.note else (),
    )


def run_harness_all_variants(theorem: str, engine: AxiomEngine) -> list[HarnessReport]:
    rule = THEOREMS[theorem]
    if rule.variants:
        return [run_harness(theorem, engine, variant=v) for v in sorted(rule.variants)]
    return [run_harness(theorem, engine)]


def run_all_theorems(engine: AxiomEngine) -> list[HarnessReport]:
    reports = []
    for theorem in THEOREM_IDS:
        reports.extend(run_harness_all_variants(theorem, engine))
    return reports


def lemma1_suite(engine: AxiomEngine) -> HarnessReport:
    """Convexity of a relation versus convexity of its weight sections.

    Checks, as verdict equalities on the universe: direct convexity ==
    convex upper sections, direct concavity == convex lower sections, and,
    under closed weak sections plus interior-weight strictness, linearity ==
    (convexity and concavity).
    """
    hypotheses = {
        "reflexive": engine.verdict(AxiomId.REFLEXIVE),
        "transitive_sym": engine.verdict(AxiomId.TRANSITIVE_SYM),
    }
    applicable = (all(v.passed for v in hypotheses.values())
                  and engine.rel.has_segment_oracle)

    conclusions = {
        "convex": engine.verdict(AxiomId.CONVEX),
        "upper_sections_convex": engine.verdict("upper_sections_convex"),
        "concave": engine.verdict(AxiomId.CONCAVE),
        "lower_sections_convex": engine.verdict("lower_sections_convex"),
        "linear": engine.verdict(AxiomId.LINEAR),
    }
    notes = []
    if applicable:
        eq_b = conclusions["convex"].passed == conclusions["upper_sections_convex"].passed
        eq_c = conclusions["concave"].passed == conclusions["lower_sections_convex"].passed
        mc = engine.verdict(AxiomId.MIXTURE_CONTINUOUS)
        arch = engine.verdict(AxiomId.ARCHIMEDEAN)
        if mc.passed and arch.passed:
            eq_d = conclusions["linear"].passed == (
                conclusions["convex"].passed and conclusions["concave"].passed
            )
        else:
            eq_d = True
            notes.append("part (d) vacuous: continuity hypotheses not met")
        consistent = eq_b and eq_c and eq_d
    else:
        consistent = True

    return HarnessReport(
        theorem="L1",
        variant=None,
        hypotheses=hypotheses,
        conclusions=conclusions,
        applicable=applicable,
        consistent=consistent,
        notes=tuple(notes),
    )
