import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prefcheck
from prefcheck.axioms import AxiomEngine
from prefcheck.catalog import ENTRY_IDS
from prefcheck.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def catalog_model(tmp_path, entry_id, name=None):
    path = tmp_path / f"{name or entry_id}.json"
    path.write_text(json.dumps({"relation": {"kind": "catalog", "id": entry_id}}))
    return str(path)


def multi_utility_model(tmp_path, utilities, name="model"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "relation": {"kind": "multi_utility", "utilities": utilities},
    }))
    return str(path)


def test_axioms_fragile_entry(tmp_path, capsys):
    model = catalog_model(tmp_path, "fragile_unit")
    code, out, _ = run_cli(capsys, "axioms", model, "--axiom", "fragile", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["fragile"]["status"] == "holds"


def test_axioms_all_pass_for_eu3(tmp_path, capsys):
    model = catalog_model(tmp_path, "eu3")
    code, out, _ = run_cli(capsys, "axioms", model, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["complete"]["status"] == "holds"
    assert payload["verdicts"]["transitive"]["status"] == "holds"


def test_axioms_expectation_contract(tmp_path, capsys):
    model = multi_utility_model(tmp_path, [["2", "1", "0"], ["0", "1", "3"]])
    code, _, _ = run_cli(capsys, "axioms", model, "--axiom", "complete",
                         "--expect", "complete=fails")
    assert code == 0
    code, out, _ = run_cli(capsys, "axioms", model, "--axiom", "complete",
                           "--expect", "complete=holds")
    assert code == 1
    assert "MISMATCH" in out
    code, out, err = run_cli(capsys, "axioms", model, "--axiom", "complete",
                             "--expect", "complete=maybe")
    assert code == 2 and "error:" in err and out == ""


def test_axioms_bad_inputs_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "axioms", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run_cli(capsys, "axioms", str(bad))
    assert code == 2
    model = catalog_model(tmp_path, "eu3")
    code, _, err = run_cli(capsys, "axioms", model, "--axiom", "bogus")
    assert code == 2
    code, _, err = run_cli(capsys, "axioms", model, "--closure-depth", "-1")
    assert code == 2 and "error:" in err
    relation = {"kind": "multi_utility", "utilities": [["1", "0", "0"]]}
    unit = {"kind": "catalog", "id": "appx1"}
    split = {"kind": "catalog", "id": "split_hm"}
    for name, raw in (
        ("scalar_points", {"relation": relation, "universe": {"points": [1, 2]}}),
        ("array", [relation]),
        ("negative_depth", {"relation": relation, "universe": {
            "points": [["1", "0", "0"]], "closure_depth": -1}}),
        ("fractional_depth", {"relation": relation, "universe": {
            "points": [["1", "0", "0"]], "closure_depth": 1.5}}),
        ("bool_depth", {"relation": relation, "universe": {
            "points": [["1", "0", "0"]], "closure_depth": True}}),
        ("string_depth", {"relation": relation, "universe": {
            "points": [["1", "0", "0"]], "closure_depth": "2"}}),
        ("null_utilities", {"relation": {"kind": "multi_utility", "utilities": None}}),
        ("null_space", {"relation": relation, "space": None}),
        ("list_catalog_id", {"relation": {"kind": "catalog", "id": [1]}}),
        # 1e400 is written as Infinity; json reads both as float inf
        ("overflow_utility", {"relation": {"kind": "multi_utility",
                                           "utilities": [[1e400, 0, 1]]}}),
        ("overflow_point", {"relation": relation, "universe": {"points": [[1e400, 0, 0]]}}),
        ("overflow_dim", {"relation": relation, "space": {"kind": "simplex", "dim": 1e400}}),
        # arrays, not strings read one character at a time
        ("string_grid", {"relation": unit, "universe": {"points": [["0"]], "grid": "1"}}),
        ("string_points", {"relation": unit, "universe": {"points": "01"}}),
        ("string_point", {"relation": unit, "universe": {"points": ["0", "1"]}}),
        # a zero denominator
        ("rat_zero_den_point", {"relation": unit, "universe": {"points": [["1/0"]]}}),
        ("rat_zero_den_split_point", {"relation": split, "universe": {
            "points": [{"part": "B", "coords": ["1/0", "0"]}]}}),
        ("rat_zero_den_utility", {"relation": {"kind": "multi_utility",
                                               "utilities": [["1/0", "0", "1"]]}}),
        ("rat_zero_den_space_lo", {"relation": unit, "space": {
            "kind": "interval", "lo": "1/0", "hi": "1"}}),
        ("rat_zero_den_space_hi", {"relation": unit, "space": {
            "kind": "interval", "lo": "0", "hi": "1/0"}}),
        # JSON floats and booleans are not rationals
        ("rat_float_grid", {"relation": unit, "universe": {"points": [["0"]], "grid": [0.1]}}),
        ("rat_bool_grid", {"relation": unit, "universe": {"points": [["0"]], "grid": [True]}}),
        ("rat_float_point", {"relation": unit, "universe": {"points": [[0.5]]}}),
        ("rat_bool_point", {"relation": unit, "universe": {"points": [[True]]}}),
        ("rat_float_split_point", {"relation": split, "universe": {
            "points": [{"part": "B", "coords": [0.5, "0"]}]}}),
        ("rat_float_utility", {"relation": {"kind": "multi_utility",
                                            "utilities": [[0.5, 0, 1]]}}),
        ("rat_bool_utility", {"relation": {"kind": "multi_utility",
                                           "utilities": [[True, 0, 1]]}}),
        ("rat_float_space_hi", {"relation": unit, "space": {
            "kind": "interval", "lo": "0", "hi": 1.0}}),
        ("rat_bool_space_lo", {"relation": unit, "space": {
            "kind": "interval", "lo": False, "hi": "1"}}),
        # utility rows are arrays, a simplex dim is a JSON integer >= 1
        ("string_utility_rows", {"relation": {"kind": "multi_utility",
                                              "utilities": ["210", "013"]}}),
        ("string_utilities", {"relation": {"kind": "multi_utility", "utilities": "210"}}),
        ("float_dim", {"relation": relation, "space": {"kind": "simplex", "dim": 3.7}}),
        ("string_dim", {"relation": relation, "space": {"kind": "simplex", "dim": "3"}}),
        ("bool_dim", {"relation": relation, "space": {"kind": "simplex", "dim": True}}),
        ("zero_dim", {"relation": relation, "space": {"kind": "simplex", "dim": 0}}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "axioms", str(path))
        assert code == 2 and "error:" in err, name
        if name.startswith("rat_"):
            section = ("space descriptor" if "space" in name else
                       "multi_utility descriptor" if "utility" in name else "universe")
            assert f"error: bad {section}: " in err, name
        if name.startswith("string_utilit"):
            assert "error: bad multi_utility descriptor: " in err, name
        if name.endswith("_dim"):
            assert "error: bad space descriptor: " in err, name


def test_input_errors_say_what_is_wrong(tmp_path, capsys):
    """An empty grid, a missing key, a universe that is not an object and a
    quotient base without a kind are named as such, not as a weight range,
    a bare key repr, a Python indexing error or a traceback."""
    relation = {"kind": "multi_utility", "utilities": [["1", "0", "0"]]}
    split = {"kind": "catalog", "id": "split_hm"}
    for name, raw, message in (
        ("empty_grid", {"relation": relation, "universe": {
            "points": [["1", "0", "0"]], "grid": []}},
         "bad universe: grid needs at least one weight"),
        ("no_points", {"relation": relation, "universe": {"grid": ["1/2"]}},
         "bad universe: missing key 'points'"),
        ("no_coords", {"relation": split, "universe": {"points": [{"part": "B"}]}},
         "bad universe: missing key 'coords'"),
        ("no_utilities", {"relation": {"kind": "multi_utility"}},
         "bad multi_utility descriptor: missing key 'utilities'"),
        ("no_dim", {"relation": relation, "space": {"kind": "simplex"}},
         "bad space descriptor: missing key 'dim'"),
        ("list_universe", {"relation": relation, "universe": [["1", "0", "0"]]},
         "universe must be a JSON object"),
        ("kindless_base", {"relation": {"kind": "quotient", "base": {"id": "split_hm"}}},
         "quotient relation needs a 'base' descriptor with a 'kind'"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "axioms", str(path))
        assert code == 2 and f"error: {message}\n" in err, (name, err)


def test_quotient_that_does_not_exist_exits_2(tmp_path, capsys):
    """Where indifference does not give a quotient (here class mixtures
    depend on representatives), each command that quotients exits 2."""
    appx3, flimsy = catalog_model(tmp_path, "appx3"), catalog_model(tmp_path, "flimsy_0_3")
    wrapped = tmp_path / "quotient_appx3.json"
    wrapped.write_text(json.dumps({
        "relation": {"kind": "quotient", "base": {"kind": "catalog", "id": "appx3"}},
    }))
    for argv in (
        ("axioms", appx3, "--quotient"),
        ("axioms", flimsy, "--quotient", "--json"),
        ("theorem", "T4", appx3, "--quotient"),
        ("represent", str(wrapped)),
        ("axioms", str(wrapped)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: cannot quotient: "), argv


def test_non_integer_seed_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PREFCHECK_SEED", "abc")
    code, out, err = run_cli(capsys, "fuzz", "--count", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: PREFCHECK_SEED must be an integer")
    # an explicit --seed does not read the variable
    assert run_cli(capsys, "fuzz", "--count", "1", "--seed", "3")[0] == 0
    monkeypatch.setenv("PREFCHECK_SEED", "3")
    assert run_cli(capsys, "fuzz", "--count", "1")[0] == 0


def test_int_and_string_rationals_are_read(tmp_path, capsys):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({
        "relation": {"kind": "multi_utility", "utilities": [[2, "1/2", "0.25"]]},
        "universe": {"points": [[1, 0, 0], ["0", "1/2", "0.5"]], "grid": [0, "1/3", 1]},
    }))
    code, out, _ = run_cli(capsys, "axioms", str(path), "--axiom", "complete", "--json")
    assert code == 0
    universe = json.loads(out)["model"]["universe"]
    assert universe["points"] == [["1", "0", "0"], ["0", "1/2", "1/2"]]
    assert universe["grid"] == ["0", "1/3", "1"]


def test_empty_universe_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "relation": {"kind": "multi_utility", "utilities": [["1", "0"]]},
        "universe": {"points": []},
    }))
    for argv in (("axioms",), ("theorem", "P1"), ("represent",)):
        code, _, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and "error:" in err, argv


def test_zero_length_utility_rows_exit_2(tmp_path, capsys):
    model = multi_utility_model(tmp_path, [[]])
    code, _, err = run_cli(capsys, "axioms", model)
    assert code == 2 and "error: bad multi_utility descriptor" in err


def test_theorem_subcommand(tmp_path, capsys):
    pareto = multi_utility_model(tmp_path, [["2", "1", "0"], ["0", "1", "3"]])
    code, out, _ = run_cli(capsys, "theorem", "P3", pareto, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["applicable"] is True
    assert payload["reports"][0]["consistent"] is True

    appx1 = catalog_model(tmp_path, "appx1")
    code, out, _ = run_cli(capsys, "theorem", "T1", appx1, "--json")
    assert code == 0
    assert json.loads(out)["reports"][0]["applicable"] is False

    code, _, err = run_cli(capsys, "theorem", "T99", appx1)
    assert code == 2


def test_theorem_builds_one_engine(tmp_path, capsys, monkeypatch):
    built = []
    init = AxiomEngine.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(AxiomEngine, "__init__", counting_init)
    model = catalog_model(tmp_path, "eu3")
    code, out, _ = run_cli(capsys, "theorem", "COR3", model, "--json")
    assert code == 0 and len(json.loads(out)["reports"]) == 2
    assert len(built) == 1


def test_theorem_t4_on_quotient(tmp_path, capsys):
    model = catalog_model(tmp_path, "split_hm", name="quotient_split")
    code, out, _ = run_cli(capsys, "theorem", "T4", model, "--quotient", "--json")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["applicable"] is True and report["consistent"] is True


def test_theorem_t4_on_quotient_relation_kind(tmp_path, capsys):
    path = tmp_path / "quotient_split.json"
    path.write_text(json.dumps({
        "relation": {"kind": "quotient", "base": {"kind": "catalog", "id": "split_hm"}},
    }))
    code, out, _ = run_cli(capsys, "theorem", "T4", str(path), "--json")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["applicable"] is True and report["consistent"] is True


def test_represent_eu3(tmp_path, capsys):
    model = catalog_model(tmp_path, "eu3")
    code, out, _ = run_cli(capsys, "represent", model, "--anchors", "0,2", "--json")
    assert code == 0
    payload = json.loads(out)
    values = {tuple(item["point"]): item["value"]
              for item in payload["representation"]["values"]}
    assert values[("0", "1", "0")] == "1/2"
    assert payload["verification"]["passed"] is True


def test_represent_rejects_equal_anchors(tmp_path, capsys):
    model = catalog_model(tmp_path, "eu3")
    code, _, err = run_cli(capsys, "represent", model, "--anchors", "0,0")
    assert code == 2


def test_represent_rejects_negative_anchor(tmp_path, capsys):
    model = catalog_model(tmp_path, "eu3")
    code, _, err = run_cli(capsys, "represent", model, "--anchors", "0,-1")
    assert code == 2 and "error:" in err


def test_represent_quotient_split(tmp_path, capsys):
    model = catalog_model(tmp_path, "split_hm")
    code, out, _ = run_cli(capsys, "represent", model, "--quotient", "--json")
    assert code == 0
    payload = json.loads(out)
    values = {}
    for item in payload["representation"]["values"]:
        p = item["point"]
        key = (p["part"], tuple(p["coords"])) if isinstance(p, dict) else tuple(p)
        values[key] = item["value"]
    assert values[("B", ("1/2", "0"))] == "1/2"
    assert values[("B", ("1", "0"))] == "1"


def test_catalog_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "catalog", "--entry", "appx2", "--json")
    assert code == 0
    assert json.loads(out)["mismatches"] == 0

    code, _, err = run_cli(capsys, "catalog", "--entry", "no_such")
    assert code == 2


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    """A reader that closes the pipe (`prefcheck ... | head -c 10`) leaves
    the report unwritten: exit 1, and nothing on stderr."""
    model = catalog_model(tmp_path, "eu3")
    env = {**os.environ, "PYTHONPATH": str(Path(prefcheck.__file__).parent.parent)}
    for argv in (["axioms", model, "--json"], ["catalog", "--entry", "appx2"]):
        proc = subprocess.Popen([sys.executable, "-m", "prefcheck.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # before the child can have written anything
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1, argv
        assert err == b"", (argv, err)


def test_json_reports_are_byte_identical(tmp_path, capsys):
    model = catalog_model(tmp_path, "appx3")
    _, first, _ = run_cli(capsys, "axioms", model, "--json")
    _, second, _ = run_cli(capsys, "axioms", model, "--json")
    assert first == second


@pytest.mark.parametrize("relation", [
    *({"kind": "catalog", "id": eid} for eid in ENTRY_IDS),
    {"kind": "quotient", "base": {"kind": "catalog", "id": "split_hm"}},
], ids=[*ENTRY_IDS, "quotient_split_hm"])
def test_model_echo_replays_to_the_same_report(tmp_path, capsys, relation):
    """The `model` block of an `axioms --json` report is a model file that
    gives the same report back, byte for byte."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"relation": relation}))
    code, report, _ = run_cli(capsys, "axioms", str(model), "--json")
    assert code == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(json.loads(report)["model"]))
    code, replay, err = run_cli(capsys, "axioms", str(echo), "--json")
    assert (code, err) == (0, "")
    assert replay == report


def test_fuzz_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--count", "4", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] == 4 and payload["violations"] == []
    code, out, _ = run_cli(capsys, "fuzz", "--count", "0", "--json")
    assert code == 0 and json.loads(out)["instances"] == 0
    code, out, err = run_cli(capsys, "fuzz", "--count", "-3")
    assert code == 2 and "error:" in err and out == ""


def test_grid_and_depth_overrides(tmp_path, capsys):
    model = catalog_model(tmp_path, "eu3")
    code, out, _ = run_cli(capsys, "axioms", model, "--axiom", "complete",
                           "--grid", "1/2", "--closure-depth", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["universe"]["grid"] == ["1/2"]
    assert payload["model"]["universe"]["closure_depth"] == 0


def test_malformed_grid_exits_2(tmp_path, capsys):
    model = catalog_model(tmp_path, "eu3")
    code, _, err = run_cli(capsys, "axioms", model, "--grid", "abc")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "axioms", model, "--grid", "3/2")
    assert code == 2


def test_universe_override_from_model(tmp_path, capsys):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({
        "relation": {"kind": "multi_utility", "utilities": [["0", "1", "2"]]},
        "universe": {
            "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "closure_depth": 0,
            "grid": ["1/2"],
        },
    }))
    code, out, _ = run_cli(capsys, "axioms", str(path), "--axiom", "complete", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["universe"]["closure_depth"] == 0
