import json

import pytest

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
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "axioms", str(path))
        assert code == 2 and "error:" in err, name


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


def test_json_reports_are_byte_identical(tmp_path, capsys):
    model = catalog_model(tmp_path, "appx3")
    _, first, _ = run_cli(capsys, "axioms", model, "--json")
    _, second, _ = run_cli(capsys, "axioms", model, "--json")
    assert first == second


def test_fuzz_subcommand(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--count", "4", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["instances"] == 4 and payload["violations"] == []


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
