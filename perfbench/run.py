"""prefcheck benchmark: one seeded workload, timed cold, checked against known answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {catalog,fuzz,scale} --seed N --seconds S --trace {0,1}

Each pass runs `prefcheck.cli.main` in a fresh interpreter (`child.py`),
one pass at a time, because a user's CLI call is cold and the package's
caches (`load_entry`, `analyze`, each relation's segment cache) would
otherwise carry over from one pass to the next.  Passes repeat until the
next one would end after S seconds (at least MIN_PASSES).  Between them,
set-up-only passes (which stop at the first verdict request) take about
SETUP_SHARE of the time, so that `setup_s` is the median of many set-ups.
With `--trace 1` untraced and traced passes alternate, with no set-up-only
passes; the traced ones give the per-layer metrics of
`layers.LAYER_METRICS` and the tracing overhead.

Every pass's output is checked (`workloads.check`), and every pass's
`--json` output must be byte-identical to the first pass's.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (END_TO_END, or with `--trace 1` the layer metrics); the
lines before it give every metric with its unit and sample count, the
instance metrics, `failed_share` and the host.  The exit code is 0 only
when every check passed; without a `src/prefcheck` package in the
checkout it is 2 and nothing is printed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from layers import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prefcheck"
WORKDIR = ROOT / ".perfbench"
MIN_PASSES = 3
SETUP_SHARE = 0.1  # of the run spent in set-up-only passes
RUN_LIMIT_S = 170  # a run must end within 180 s, passes included

# the end-to-end metrics of BENCHMARK.json, which bound regressions
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed with them, but not bounded.  The instance metrics: over ten seeds
# on a shared 2-core host their spread reached a third of the median, above
# any bound BENCHMARK.json may hold.  `host_ref_s`: the host's own speed,
# which drifts by a quarter within minutes there, so that a slower host can
# be told from a slower program.
UNBOUNDED = ("instance_p50_s", "instance_tail_s", "host_ref_s")


def host() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu}"


def host_reference() -> float:
    """Seconds for a fixed loop of Fraction arithmetic, the kind of work
    `prefcheck` does, timed in this process (which never imports it)."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total = total * Fraction(i, i + 1) + Fraction(1, i)
        total = Fraction(total.numerator % 1000003, total.denominator % 1000003 or 1)
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten instances beyond it, or the
    slowest instance when there are ten or fewer."""
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], "max"
    k = len(ordered) - 11
    return ordered[k], f"p{100 * (k + 1) // len(ordered)}"


def run_child(workload: workloads.Workload, mode: str, out_path: Path,
              trace_id: str, spans, deadline: float) -> dict:
    """Run child.py once; its JSON line, or the exit and standard error of
    a child that printed none, plus the time it took."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), workload.name,
           mode, str(out_path), trace_id, str(spans), "--", *workload.argv]
    out_path.unlink(missing_ok=True)
    begin = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - begin))
    except subprocess.TimeoutExpired:
        result = {"exit": "timeout", "stderr": "pass timed out"}
    else:
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"exit": f"child exit {proc.returncode}",
                      "stderr": proc.stderr[-2000:]}
    result["elapsed"] = time.monotonic() - begin
    return result


def run_pass(workload: workloads.Workload, index: int, traced: bool,
             deadline: float) -> dict:
    """One pass in a fresh interpreter; the child's measurements plus this
    pass's failed checks, elapsed time and output digest."""
    out_path = WORKDIR / f"{workload.name}-pass{index}.out"
    trace_id = f"{workload.name}-seed{workload.seed}-pass{index}" if traced else "-"
    spans = WORKDIR / f"spans-{trace_id}.jsonl" if traced else "-"
    result = run_child(workload, "pass", out_path, trace_id, spans, deadline)
    result["traced"] = traced
    result["measured"] = "wall_s" in result
    stdout = out_path.read_text() if out_path.exists() else ""
    result["digest"] = hashlib.sha256(stdout.encode()).hexdigest()
    if result["measured"]:
        result["failures"] = workloads.check(workload, result["exit"], stdout)
    else:
        reason = f"pass did not finish ({result['exit']}): {result['stderr'][-300:]}"
        result["failures"] = [reason] * workloads.attempted(workload)
    return result


def run_setup_pass(workload: workloads.Workload, deadline: float) -> dict:
    """One set-up-only pass in a fresh interpreter: its `setup_s`, elapsed
    time and failed checks (one, when it did not finish its set-up)."""
    result = run_child(workload, "setup", WORKDIR / f"{workload.name}-setup.out",
                       "-", "-", deadline)
    done = result.get("setup_done", False)
    result["failures"] = [] if done else [
        f"set-up-only pass did not finish ({result['exit']}): {result['stderr'][-300:]}"]
    return result


def measure(workload: workloads.Workload, seconds: float, trace: bool) -> dict:
    """Run passes of `workload` for about `seconds`; return the checks made,
    the failures, and (when some pass was measured) the metrics."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    setups: list[dict] = []
    references: list[float] = []
    while True:
        references.append(host_reference())
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, len(passes), traced, deadline))
        if not passes[-1]["measured"]:
            break
        if not trace:
            budget = SETUP_SHARE * sum(p["elapsed"] for p in passes)
            while sum(s["elapsed"] for s in setups) < budget:
                setups.append(run_setup_pass(workload, deadline))
                if setups[-1]["failures"]:
                    break
            if setups and setups[-1]["failures"]:
                break
        elapsed = time.monotonic() - start
        next_traced = trace and len(passes) % 2 == 1
        alike = [p["elapsed"] for p in passes if p["traced"] == next_traced]
        expected = statistics.median(alike or [p["elapsed"] for p in passes])
        if not trace:
            expected *= 1 + SETUP_SHARE
        minimum = 2 if trace else MIN_PASSES
        if elapsed + expected > (seconds if len(passes) >= minimum else RUN_LIMIT_S):
            break

    failures = [f for p in passes + setups for f in p["failures"]]
    attempted = workloads.attempted(workload) * len(passes) + len(setups)
    first = passes[0]["digest"]
    for index, p in enumerate(passes[1:], 1):
        attempted += 1
        if p["measured"] and p["digest"] != first:
            failures.append(f"pass {index} output differs from pass 0")

    report = {"passes": passes, "setups": setups, "attempted": attempted,
              "failures": failures,
              "metrics": None, "samples": None, "notes": []}
    # a pass that requested no verdict (say, on refused input) has no timing
    plain = [p for p in passes if p["measured"] and not p["traced"] and p["instances"]]
    traced = [p for p in passes if p["measured"] and p["traced"]]
    if not plain or (trace and not traced):
        return report
    wall = statistics.median(p["wall_s"] for p in plain)
    n = len(plain)
    if trace:
        metrics = {}
        for name, unit, *_ in LAYER_METRICS:
            if name == "trace_overhead_s":
                value = statistics.median(p["wall_s"] for p in traced) - wall
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = (value, unit)
        report["samples"] = dict.fromkeys(metrics, f"median of {len(traced)} traced passes")
        report["samples"]["trace_overhead_s"] = (
            f"median of {len(traced)} traced minus median of {n} untraced passes")
        report["notes"] += [f"spans: {WORKDIR / f'spans-{workload.name}-seed{workload.seed}-pass{i}.jsonl'}"
                            for i, p in enumerate(passes) if p["traced"] and p["measured"]]
    else:
        # passes repeat the same instances in the same order: time each one
        # by its median over passes, then take percentiles over instances
        instances = [statistics.median(times)
                     for times in zip(*(p["instances"] for p in plain))]
        tail_value, tail_label = tail(instances)
        setup_times = [p["setup_s"] for p in plain]
        setup_times += [p["setup_s"] for p in setups if not p["failures"]]
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "instance_p50_s": (statistics.median(instances), "s"),
            "instance_tail_s": (tail_value, "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
            "host_ref_s": (statistics.median(references), "s"),
        }
        each = f"of {len(instances)} instances, each the median of {n} passes"
        report["samples"] = {
            "wall_s": f"median of {n} passes",
            "setup_s": f"median of {len(setup_times)} set-ups ({n} passes, "
                       f"{len(setup_times) - n} set-up-only passes)",
            "instance_p50_s": f"median {each}",
            "instance_tail_s": f"{tail_label} {each}",
            "peak_rss_mb": f"median of {n} passes",
            "host_ref_s": f"median of {len(references)} loops, one before each pass",
        }
    report["metrics"] = metrics
    return report


def result_line(report: dict) -> dict:
    """The benchmark's last output line, from a report with metrics."""
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()
                    if name not in UNBOUNDED},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no prefcheck package at {PACKAGE}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(PACKAGE), quiet=1)
    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, WORKDIR)
    report = measure(workload, args.seconds, bool(args.trace))

    passes = report["passes"]
    print(f"prefcheck benchmark: workload={workload.name} seed={workload.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"why: {workloads.WHY[workload.name]}")
    print(f"host: {host()}")
    setups = report["setups"]
    print(f"passes: {len(passes)} in {sum(p['elapsed'] for p in passes):.1f} s, "
          f"set-up-only passes: {len(setups)} in "
          f"{sum(p['elapsed'] for p in setups):.1f} s")
    failed = len(report["failures"])
    for message in report["failures"][:10]:
        print(f"FAILED {message}")
    print(f"failed_share: {failed / report['attempted']:.4g} "
          f"({failed} of {report['attempted']} checks)")
    for note in report["notes"]:
        print(note)
    if report["metrics"] is None:
        print("no pass was measured", file=sys.stderr)
        return 1
    for name, (value, unit) in report["metrics"].items():
        note = " (printed, not bounded)" if name in UNBOUNDED else ""
        print(f"{name:42s} {value:>14.6g} {unit:6s} {report['samples'][name]}{note}")
    result = result_line(report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
