"""Command-line front end: axiom checks, theorem harnesses, representations,
the built-in catalog, and a randomized soundness sentinel, over JSON models.

Exit codes: 0 success, 1 mismatch/violation/verification failure, 2 input
error.  JSON reports are deterministic (sorted keys, no timing fields).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from .axioms import ALL_AXIOMS, AxiomEngine, Universe
from .catalog import UnknownEntryError, load_entry, run_catalog
from .generate import fuzz_corpus, soundness_violations
from .relations import MultiUtility
from .representation import (
    CalibrationError,
    calibrate,
    extreme_points,
    verify_representation,
)
from .spaces import (
    DEFAULT_GRID,
    point_from_json,
    point_to_json,
    quotient,
    space_from_json,
)
from .theorems import THEOREMS, run_harness_all_variants


class ModelError(ValueError):
    pass


def _parse_grid(values) -> tuple[Fraction, ...]:
    try:
        grid = tuple(Fraction(v) for v in values)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"bad grid weight: {exc}")
    if not grid or any(not 0 <= g <= 1 for g in grid):
        raise ModelError("grid weights must lie in [0,1]")
    return grid


def load_model(path: str, grid_override=None, depth_override=None):
    """Read a model file into (space, relation, universe, echo)."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}")
    if not isinstance(raw, dict):
        raise ModelError("model file must hold a JSON object")

    rel_desc = raw.get("relation")
    if not isinstance(rel_desc, dict) or "kind" not in rel_desc:
        raise ModelError("model needs a relation descriptor with a 'kind'")

    quotient_wrapped = False
    if rel_desc["kind"] in ("quotient", "quotient_of"):
        inner = rel_desc.get("base") or rel_desc.get("quotient_of")
        if not isinstance(inner, dict):
            raise ModelError("quotient relation needs a 'base' descriptor")
        rel_desc = inner
        quotient_wrapped = True

    kind = rel_desc["kind"]
    if kind == "catalog":
        if not isinstance(rel_desc.get("id"), str):
            raise ModelError("catalog relation needs a string 'id'")
        try:
            entry = load_entry(rel_desc["id"])
        except UnknownEntryError as exc:
            raise ModelError(str(exc))
        space, relation, universe = entry.space, entry.relation, entry.universe
    elif kind == "multi_utility":
        try:
            relation = MultiUtility(rel_desc["utilities"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"bad multi_utility descriptor: {exc}")
        space = relation.space
        universe = None
    else:
        raise ModelError(f"unsupported relation kind: {kind!r}")

    if "space" in raw:
        if not isinstance(raw["space"], dict):
            raise ModelError("space descriptor must be a JSON object")
        try:
            declared = space_from_json(raw["space"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"bad space descriptor: {exc}")
        if declared.descriptor() != space.descriptor():
            raise ModelError(
                f"model space {declared.descriptor()} does not match the "
                f"relation's carrier {space.descriptor()}"
            )

    if "universe" in raw:
        u = raw["universe"]
        try:
            points = tuple(point_from_json(p) for p in u["points"])
            depth = u.get("closure_depth", 1)
            universe = Universe(
                points,
                depth,
                _parse_grid(u.get("grid", [str(g) for g in DEFAULT_GRID])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"bad universe: {exc}")
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise ModelError(f"closure_depth must be an integer, got {depth!r}")
    elif universe is None:
        if hasattr(space, "vertices"):
            universe = Universe(tuple(space.vertices()))
        else:
            raise ModelError("model needs a universe")

    if grid_override:
        universe = Universe(universe.points, universe.closure_depth,
                            _parse_grid(grid_override))
    if depth_override is not None:
        universe = Universe(universe.points, depth_override, universe.grid)
    if universe.closure_depth < 0:
        raise ModelError(f"closure_depth must be non-negative, got {universe.closure_depth}")

    for p in universe.points:
        if not space.contains(p):
            raise ModelError(f"universe point outside the carrier: {p}")

    if quotient_wrapped:
        space, relation, universe = _apply_quotient(space, relation, universe)

    echo = {
        "space": space.descriptor(),
        "relation": relation.descriptor(),
        "universe": universe.to_json(),
    }
    return space, relation, universe, echo


def _apply_quotient(space, relation, universe):
    qspace, qrel = quotient(space, relation, universe.points, universe.grid)
    quniverse = Universe(qspace.representatives, universe.closure_depth, universe.grid)
    return qspace, qrel, quniverse


def _emit(payload: dict, as_json: bool, pretty_lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in pretty_lines:
            print(line)


def _parse_expect(pairs) -> dict[str, str]:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ModelError(f"bad --expect entry (want axiom=status): {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_axioms(args) -> int:
    space, relation, universe, echo = load_model(
        args.model, args.grid, args.closure_depth
    )
    if args.quotient:
        space, relation, universe = _apply_quotient(space, relation, universe)
    engine = AxiomEngine(relation, universe)

    wanted = args.axiom or [a.value for a in ALL_AXIOMS]
    known = {a.value for a in ALL_AXIOMS}
    for name in wanted:
        if name not in known:
            raise ModelError(f"unknown axiom: {name!r}")
    verdicts = {name: engine.verdict(name) for name in wanted}

    expect = _parse_expect(args.expect)
    for name in expect:
        if name not in known:
            raise ModelError(f"unknown axiom in --expect: {name!r}")
    mismatches = [
        f"{name}: expected {want}, got {engine.verdict(name).status.value}"
        for name, want in sorted(expect.items())
        if engine.verdict(name).status.value != want
    ]

    payload = {
        "model": echo,
        "verdicts": {k: v.to_json() for k, v in sorted(verdicts.items())},
        "mismatches": mismatches,
    }
    lines = [f"{k}: {v.status.value}" + (f"  [{v.note}]" if v.note else "")
             for k, v in sorted(verdicts.items())]
    lines += [f"MISMATCH {m}" for m in mismatches]
    _emit(payload, args.json, lines)
    return 1 if mismatches else 0


def cmd_theorem(args) -> int:
    if args.theorem not in THEOREMS:
        raise ModelError(f"unknown theorem id: {args.theorem!r}")
    space, relation, universe, echo = load_model(
        args.model, args.grid, args.closure_depth
    )
    if args.quotient:
        space, relation, universe = _apply_quotient(space, relation, universe)
    reports = run_harness_all_variants(args.theorem, relation, universe)
    payload = {"model": echo, "reports": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        tag = f"{r.theorem}" + (f"/{r.variant}" if r.variant else "")
        lines.append(
            f"{tag}: applicable={str(r.applicable).lower()} "
            f"consistent={str(r.consistent).lower()}"
        )
    _emit(payload, args.json, lines)
    bad = any(r.applicable and not r.consistent for r in reports)
    return 1 if bad else 0


def cmd_represent(args) -> int:
    space, relation, universe, echo = load_model(
        args.model, args.grid, args.closure_depth
    )
    if args.quotient:
        space, relation, universe = _apply_quotient(space, relation, universe)
    engine = AxiomEngine(relation, universe)

    if args.anchors:
        try:
            i, j = (int(part) for part in args.anchors.split(","))
            low, high = engine.points[i], engine.points[j]
        except (ValueError, IndexError) as exc:
            raise ModelError(f"bad --anchors (want two point indices): {exc}")
    else:
        low, high = extreme_points(engine)

    try:
        rep, trace = calibrate(relation, universe, low, high, engine=engine)
    except CalibrationError as exc:
        raise ModelError(str(exc))
    outcome = verify_representation(relation, rep, universe, engine=engine)

    payload = {
        "model": echo,
        "representation": rep.to_json(),
        "trace": trace.to_json(),
        "verification": outcome.to_json(),
    }
    lines = [
        f"u({point_to_json(p)}) = {v}" for p, v in rep.values.items()
    ]
    lines.append(f"verification: {'pass' if outcome.passed else 'FAIL'}")
    lines += [f"warning: {w}" for w in trace.warnings]
    _emit(payload, args.json, lines)
    return 0 if outcome.passed else 1


def cmd_catalog(args) -> int:
    started = time.monotonic()
    try:
        report = run_catalog(args.entry or None)
    except UnknownEntryError as exc:
        raise ModelError(str(exc))
    elapsed = time.monotonic() - started
    payload = report.to_json()
    lines = []
    for entry in report.entries:
        status = "ok" if entry.passed else "MISMATCH"
        lines.append(f"{entry.entry_id}: {status}")
        lines.extend(f"  {m}" for m in entry.mismatches)
    lines.append(f"entries={len(report.entries)} mismatches={report.mismatch_count}")
    _emit(payload, args.json, lines)
    if not args.json:
        print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.mismatch_count == 0 else 1


def cmd_fuzz(args) -> int:
    rng_seed = args.seed if args.seed is not None else None
    violations = []
    checked = 0
    for name, rel, universe in fuzz_corpus(args.count, rng_seed):
        bad = soundness_violations(rel, universe)
        checked += 1
        for report in bad:
            violations.append({
                "instance": name,
                "theorem": report.theorem,
                "variant": report.variant,
                "relation": rel.descriptor(),
            })
    payload = {"instances": checked, "violations": violations}
    lines = [f"instances checked: {checked}", f"violations: {len(violations)}"]
    lines += [f"VIOLATION {v['instance']} {v['theorem']}" for v in violations]
    _emit(payload, args.json, lines)
    return 1 if violations else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefcheck",
        description="Exact-arithmetic checks for preference axioms on mixture spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def model_opts(p):
        p.add_argument("model", help="path to a JSON model file")
        p.add_argument("--grid", nargs="+", default=None,
                       help="override universe grid weights, e.g. 1/4 1/2 3/4")
        p.add_argument("--closure-depth", type=int, default=None,
                       help="override mixture-closure depth")
        p.add_argument("--quotient", action="store_true",
                       help="quotient the model by indifference first")

    p_ax = sub.add_parser("axioms", help="run axiom checkers on a model")
    model_opts(p_ax)
    p_ax.add_argument("--axiom", action="append", default=None,
                      help="check only this axiom (repeatable)")
    p_ax.add_argument("--expect", action="append", default=None,
                      metavar="AXIOM=STATUS",
                      help="fail (exit 1) unless the verdict matches")
    common(p_ax)
    p_ax.set_defaults(func=cmd_axioms)

    p_th = sub.add_parser("theorem", help="run one theorem harness on a model")
    p_th.add_argument("theorem", help=f"one of {', '.join(THEOREMS)}")
    model_opts(p_th)
    common(p_th)
    p_th.set_defaults(func=cmd_theorem)

    p_rep = sub.add_parser("represent", help="calibrate a utility on a model")
    model_opts(p_rep)
    p_rep.add_argument("--anchors", default=None, metavar="I,J",
                       help="indices of the low and high anchor points")
    common(p_rep)
    p_rep.set_defaults(func=cmd_represent)

    p_cat = sub.add_parser("catalog", help="run the built-in catalog regression")
    p_cat.add_argument("--entry", action="append", default=None,
                       help="restrict to this entry (repeatable)")
    common(p_cat)
    p_cat.set_defaults(func=cmd_catalog)

    p_fz = sub.add_parser("fuzz", help="random instances through every harness")
    p_fz.add_argument("--count", type=int, default=25)
    p_fz.add_argument("--seed", type=int, default=None,
                      help="override PREFCHECK_SEED")
    common(p_fz)
    p_fz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
