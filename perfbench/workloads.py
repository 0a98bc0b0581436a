"""Seeded workloads for the prefcheck benchmark, and the checks on their output.

A workload turns a seed into the command-line arguments handed to
`prefcheck` (plus, for `scale`, the model file it reads) and knows the
right answer for that input.  This module imports only the standard
library: the benchmark's parent process never imports the program under
test, so every timed pass starts cold.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WHY = {
    "catalog": "the ten built-in fixtures: tiny universes over four carriers; "
               "time goes to mixture arithmetic, C1/C2, S1-S4, independence "
               "and the piecewise and quotient oracles",
    "fuzz": "50 seeded multi-utility instances through all 16 theorem "
            "harnesses: cold caches per instance, multi-utility oracle, "
            "interval algebra and section scans",
    "scale": "all 24 axioms on one seeded two-utility relation over 40 "
             "points (64,000 triples): warm, memory-bound segment cache",
}
NAMES = tuple(WHY)

# `catalog --json` at the seed commit, full and for the TINY_ENTRIES subset.
CATALOG_SHA256 = {
    False: "9a1bfc32645d8b6d9e49846707312e47877f6f5eeaf653c1ae4bc3a230c73221",
    True: "5bdaf3db5ac28d2d26a8bd315974fa1ff56106bd4feaa877a879987916e95b04",
}
CATALOG_ENTRIES = 10
# one entry per carrier: split (and the quotient pipeline), Q(sqrt 2),
# simplex, real interval
TINY_ENTRIES = ("split_hm", "appx4_rationals", "eu3", "appx1")

FUZZ_COUNT = {False: 50, True: 5}

SCALE_POINTS = {False: 40, True: 12}
# verdicts that hold for every multi-utility dominance relation
SCALE_EXPECT = {
    "reflexive": "holds", "transitive": "holds", "mixture_continuous": "holds",
    "open_incomparable_sections": "holds", "linear": "holds", "convex": "holds",
    "concave": "holds", "independent": "holds",
}
AXIOM_COUNT = 24
GRID = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


@dataclass(frozen=True)
class Workload:
    """What one pass hands to `prefcheck`, and what it must answer."""

    name: str
    seed: int
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


def grid_closure(n_coords: int, depth: int) -> list[tuple[Fraction, ...]]:
    """Simplex vertices closed `depth` rounds under x lam y = lam*x + (1-lam)*y,
    lam in GRID, in first-seen order (the order `prefcheck` closes universes in)."""
    out = [tuple(Fraction(int(i == j)) for j in range(n_coords))
           for i in range(n_coords)]
    seen = set(out)
    current = list(out)
    for _ in range(depth):
        fresh = []
        for x in current:
            for y in current:
                for lam in GRID:
                    m = tuple(lam * a + (1 - lam) * b for a, b in zip(x, y))
                    if m not in seen:
                        seen.add(m)
                        fresh.append(m)
        out.extend(fresh)
        current = out
    return out


def scale_model(seed: int, n_points: int) -> dict:
    """Two integer utilities in [-5, 5] drawn from `seed` (as
    `prefcheck.generate.random_utilities(seeded_rng(seed), 3, 2)` draws them),
    over the first `n_points` of the depth-2 grid closure of the triangle."""
    rng = random.Random(seed)
    utilities = [[str(rng.randint(-5, 5)) for _ in range(3)] for _ in range(2)]
    points = grid_closure(3, 2)[:n_points]
    return {
        "relation": {"kind": "multi_utility", "utilities": utilities},
        "universe": {"points": [[str(c) for c in p] for p in points],
                     "closure_depth": 0},
    }


def expect_args(verdicts: dict) -> tuple[str, ...]:
    """`prefcheck axioms` arguments that demand these verdict statuses."""
    return tuple(arg for axiom, status in verdicts.items()
                 for arg in ("--expect", f"{axiom}={status}"))


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """The workload `name` for `seed`; writes any model file under `workdir`."""
    if name == "catalog":
        argv = ["catalog", "--json"]
        if tiny:
            for entry in TINY_ENTRIES:
                argv += ["--entry", entry]
        return Workload(name, seed, tuple(argv), {
            "sha256": CATALOG_SHA256[tiny],
            "entries": len(TINY_ENTRIES) if tiny else CATALOG_ENTRIES,
        })
    if name == "fuzz":
        count = FUZZ_COUNT[tiny]
        return Workload(name, seed, ("fuzz", "--count", str(count), "--seed",
                                     str(seed), "--json"), {"instances": count})
    if name == "scale":
        n_points = SCALE_POINTS[tiny]
        path = workdir / f"scale-seed{seed}-{n_points}pts.json"
        path.write_text(json.dumps(scale_model(seed, n_points), indent=1))
        argv = ("axioms", str(path), "--json") + expect_args(SCALE_EXPECT)
        return Workload(name, seed, argv, {"verdicts": dict(SCALE_EXPECT)})
    raise ValueError(f"unknown workload: {name!r}")


def attempted(workload: Workload) -> int:
    """Checks one pass makes: entries plus the byte-identity check on
    `catalog`, instances on `fuzz`, expected verdicts on `scale`."""
    expect = workload.expect
    if workload.name == "catalog":
        return expect["entries"] + 1
    if workload.name == "fuzz":
        return expect["instances"]
    return len(expect["verdicts"])


def check(workload: Workload, exit_code, stdout: str) -> list[str]:
    """Failed checks of one pass, one message each (empty when all pass).

    A non-zero exit or unreadable output with no other failure fails every
    check of the pass."""
    total = attempted(workload)
    expect = workload.expect
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"exit {exit_code}, output is not JSON"] * total
    failures: list[str] = []
    if workload.name == "catalog":
        entries = report.get("entries", [])
        for entry in entries:
            if entry.get("mismatches"):
                failures.append(f"{entry.get('entry')}: {entry['mismatches'][0]}")
        if len(entries) != expect["entries"]:
            failures.append(f"{len(entries)} entries, expected {expect['entries']}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != expect["sha256"]:
            failures.append(f"--json output sha256 {digest} differs from the "
                            f"seed commit's {expect['sha256']}")
    elif workload.name == "fuzz":
        bad = sorted({v["instance"] for v in report.get("violations", [])})
        failures += [f"soundness violation on {name}" for name in bad]
        missing = expect["instances"] - report.get("instances", 0)
        failures += [f"instance not checked ({missing} missing)"] * max(missing, 0)
    else:
        verdicts = report.get("verdicts", {})
        for axiom, want in expect["verdicts"].items():
            got = verdicts.get(axiom, {}).get("status")
            if got != want:
                failures.append(f"{axiom}: expected {want}, got {got}")
        if not failures and len(verdicts) != AXIOM_COUNT:
            failures = [f"{len(verdicts)} verdicts, expected {AXIOM_COUNT}"] * total
    if exit_code != 0 and not failures:
        failures = [f"exit {exit_code}"] * total
    return failures[:total]
