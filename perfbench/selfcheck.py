"""Self-check of the prefcheck benchmark; stops at the first failed check.

Usage, from the root of a checkout (about a minute):

    python3 perfbench/selfcheck.py

It checks that
- BENCHMARK.json names exactly the metrics the benchmark emits, with their units;
- the workload generator builds the inputs `prefcheck`'s own helpers would;
- on tiny workloads set-up-only passes run, every end-to-end metric is
  emitted and positive (the printed instance metrics too), and
  every layer metric is non-zero on the workloads meant to exercise it;
- a deliberately wrong expected answer, or a set-up that stops short, fails
  the gate;
- without the program in the checkout the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
import workloads
from layers import LAYER_METRICS

SEED = 3


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the required keys")
    check([(w["name"], w["why"]) for w in spec["workloads"]]
          == list(workloads.WHY.items()), "workloads and reasons match workloads.WHY")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "end-to-end metrics match run.END_TO_END")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {name: unit for name, unit, *_ in LAYER_METRICS},
          "per-layer metrics match layers.LAYER_METRICS")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "bounds are at most 0.25")


def check_generator() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from prefcheck.generate import random_utilities, seeded_rng
    from prefcheck.spaces import Simplex, augment_points

    simplex = Simplex(3)
    closure = augment_points(simplex, simplex.vertices(), depth=2)
    check([p.coords for p in closure] == workloads.grid_closure(3, 2),
          "scale universe is prefcheck's depth-2 grid closure, in its order")
    check(all(
        [[str(v) for v in u] for u in random_utilities(seeded_rng(seed), 3, 2)]
        == workloads.scale_model(seed, 1)["relation"]["utilities"]
        for seed in range(1, 30)), "scale utilities are random_utilities(seeded_rng(seed), 3, 2)")


def check_tiny_runs() -> None:
    for name in workloads.NAMES:
        workload = workloads.build(name, SEED, run.WORKDIR, tiny=True)
        plain = run.measure(workload, 0, trace=False)
        check(not plain["failures"], f"{name}: tiny run passes its checks")
        check(len(plain["setups"]) > 0, f"{name}: set-up-only passes ran")
        line = run.result_line(plain)
        check(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
              f"{name}: result line reports every check passed")
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        check(emitted == run.END_TO_END, f"{name}: every end-to-end metric emitted with its unit")
        check(all(value > 0 for value, _unit in plain["metrics"].values())
              and set(plain["metrics"]) == set(run.END_TO_END) | set(run.UNBOUNDED),
              f"{name}: every end-to-end and instance metric is positive")

        traced = run.measure(workload, 0, trace=True)
        check(not traced["failures"], f"{name}: tiny traced run passes its checks")
        layer = run.result_line(traced)["metrics"]
        check({k: v["unit"] for k, v in layer.items()}
              == {n: u for n, u, *_ in LAYER_METRICS},
              f"{name}: every layer metric emitted with its unit")
        idle = [n for n, _u, meant, _m in LAYER_METRICS
                if name in meant and not layer[n]["value"] > 0]
        check(not idle, f"{name}: layer metrics it exercises are non-zero {idle or ''}")


def check_gate() -> None:
    good = workloads.build("scale", SEED, run.WORKDIR, tiny=True)
    wrong = dict(good.expect["verdicts"], transitive="fails")
    bad = workloads.Workload("scale", SEED, good.argv[:3] + workloads.expect_args(wrong),
                             {"verdicts": wrong})
    report = run.measure(bad, 0, trace=False)
    check(report["failures"] and not run.result_line(report)["correct"],
          "a wrong expected verdict fails the gate")

    catalog = workloads.build("catalog", SEED, run.WORKDIR, tiny=True)
    wrong_sha = workloads.Workload("catalog", SEED, catalog.argv,
                                   dict(catalog.expect, sha256="0" * 64))
    result = run.run_pass(wrong_sha, 0, False, time.monotonic() + run.RUN_LIMIT_S)
    check(bool(result["failures"]), "a wrong expected catalog digest fails the gate")

    missing = workloads.Workload("scale", SEED, ("axioms", str(run.WORKDIR / "missing.json")))
    result = run.run_setup_pass(missing, time.monotonic() + run.RUN_LIMIT_S)
    check(bool(result["failures"]), "a set-up-only pass that stops short fails the gate")


def check_without_program() -> None:
    bare = run.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/prefcheck the benchmark exits non-zero and prints no result")


def main() -> int:
    run.WORKDIR.mkdir(exist_ok=True)
    check_spec()
    check_generator()
    check_gate()
    check_without_program()
    check_tiny_runs()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
