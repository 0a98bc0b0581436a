"""Steadiness report: every workload on ten seeds, and the run-to-run spread
of every end-to-end metric against its bound in BENCHMARK.json.

Usage, from the root of a checkout (about 25 minutes):

    python3 perfbench/steadiness.py [--out FILE]

Runs `run.py` once per seed in SEEDS for each workload, one run at a time,
with BENCHMARK.json's `run_seconds`.  For each workload and metric it
reports the median and the spread: the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median.  Every bounded metric whose spread reaches a third of its bound is
flagged, `setup_s` included.  The metrics `run.py` prints but does not
bound (`run.UNBOUNDED`: the instance metrics and the host's reference
speed) are read from its metric lines and reported unflagged.

With `--out FILE` the values, medians and spreads are appended to FILE as
one more set (`perfbench/baseline.json` holds the seed commit's sets);
FILE's other keys are kept.  Each median is then compared with the previous
set's, and one worse by more than its bound is flagged.  The exit code is 1
when anything is flagged or a check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

SEEDS = range(1, 11)


def spread(values: list[float]) -> tuple[float, float]:
    """Median, and interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def measure(name: str, seconds: int) -> tuple[dict[str, list[float]], int]:
    """Each metric's values over SEEDS, and the failed checks."""
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name} seed {seed}: no result (exit {proc.returncode})")
            failed += 1
            continue
        failed += result["failed"]
        for metric, got in result["metrics"].items():
            values.setdefault(metric, []).append(got["value"])
        for line in lines:
            words = line.split()
            if words and words[0] in run.UNBOUNDED:
                values.setdefault(words[0], []).append(float(words[1]))
    return values, failed


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    history = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    previous = history["sets"][-1]["workloads"] if history.get("sets") else {}
    this_set = {"set": len(history.get("sets", [])) + 1, "commit": git_commit(),
                "host": run.host(), "run_seconds": spec["run_seconds"],
                "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for name in workloads.NAMES:
        values, failed = measure(name, spec["run_seconds"])
        steady &= failed == 0
        rows: dict = {"failed_checks": failed}
        for metric, vals in values.items():
            median, share = spread(vals)
            rows[metric] = {"median": median, "spread": share, "values": vals}
            line = f"{name:8s} {metric:16s} median {median:10.5g}  spread {share:6.1%}"
            bound = bounds.get(metric)
            line += f"  bound {bound:.0%}" if bound else "  not bounded"
            if bound and share >= bound / 3:
                steady = False
                line += "  SPREAD AT OR ABOVE A THIRD OF THE BOUND"
            before = previous.get(name, {}).get(metric)
            if before:
                change = median / before["median"] - 1
                line += f"  vs previous set {change:+.1%}"
                if bound and change > bound:
                    steady = False
                    line += " WORSE BY MORE THAN THE BOUND"
            print(line)
        this_set["workloads"][name] = rows
        print(f"{name:8s} failed checks: {failed}")
    if args.out:
        history.setdefault("sets", []).append(this_set)
        args.out.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
