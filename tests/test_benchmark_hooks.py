"""The benchmark's tracer wraps engine methods, space checks and harness
functions by name; traced passes of a small `scale` model, a short `fuzz`
run and a four-entry `catalog` must still run and reach the wrapped
layers, so renaming a wrapped function fails here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["scale", "fuzz", "catalog"])
def test_traced_scale_pass_runs(tmp_path, workload):
    if workload == "scale":
        model = tmp_path / "scale.json"
        model.write_text(json.dumps(_workloads().scale_model(1, 12)))
        argv = ["axioms", str(model), "--json"]
    elif workload == "fuzz":
        argv = ["fuzz", "--count", "5", "--seed", "1", "--json"]
    else:
        argv = ["catalog", "--json"]
        for entry in _workloads().TINY_ENTRIES:
            argv += ["--entry", entry]
    run = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "child.py"), workload, "pass",
         str(tmp_path / "out.json"), "hooks", str(tmp_path / "spans.jsonl"),
         "--", *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["exit"] == 0, result["stderr"]
    assert isinstance(result["layers"], dict)
    if workload == "scale":
        assert result["layers"]["axioms.verdicts"] == 24
        assert len(json.loads((tmp_path / "out.json").read_text())["verdicts"]) == 24
    elif workload == "fuzz":
        assert result["layers"]["theorems.harness.calls"] > 0
    else:
        for metric in ("spaces.c1_c2.busy_s", "spaces.mixture_axioms.busy_s",
                       "axioms.independent.busy_s", "spaces.canonical.calls"):
            assert result["layers"][metric] > 0, metric
