import pytest

from prefcheck import catalog, spaces
from prefcheck.catalog import (
    ENTRY_IDS,
    UnknownEntryError,
    load_entry,
    run_catalog,
    run_entry,
)
from prefcheck.verdicts import Status


def test_entry_roster():
    assert set(ENTRY_IDS) == {
        "star_cvx_not_cvx", "split_hm", "fragile_unit", "flimsy_0_3",
        "appx1", "appx2", "appx3", "appx4_rationals", "pareto2", "eu3",
    }


def test_unknown_entry_rejected():
    with pytest.raises(UnknownEntryError):
        load_entry("no_such")
    with pytest.raises(UnknownEntryError):
        run_catalog(["no_such"])


def test_entries_are_well_formed():
    for eid in ENTRY_IDS:
        entry = load_entry(eid)
        assert entry.id == eid
        assert entry.universe.points
        for p in entry.universe.points:
            assert entry.space.contains(p)
        assert entry.expectations
        assert entry.notes


@pytest.mark.parametrize("eid", ENTRY_IDS)
def test_entry_reproduces_expectations(eid, entry_reports):
    report = entry_reports[eid]
    assert report.passed, report.mismatches


def test_fragile_unit_expectation_snapshot(entry_reports):
    verdicts = entry_reports["fragile_unit"].verdicts
    assert verdicts["mixture_continuous"].status is Status.HOLDS
    assert verdicts["archimedean"].status is Status.FAILS
    assert verdicts["fragile"].status is Status.HOLDS


def test_appx4_expectation_snapshot(entry_reports):
    verdicts = entry_reports["appx4_rationals"].verdicts
    assert verdicts["strong_archimedean"].status is Status.HOLDS
    assert verdicts["strong_archimedean"].note == "pointwise witness search"
    assert verdicts["mixture_continuous"].status is Status.NOT_APPLICABLE


def test_single_entry_run():
    report = run_catalog(["appx2"])
    assert report.mismatch_count == 0
    assert [e.entry_id for e in report.entries] == ["appx2"]


def test_split_quotient_representation_in_report(entry_reports):
    rep = entry_reports["split_hm"].representation
    assert rep is not None
    assert rep["derived_relation"] == {
        "anti_symmetric": "holds", "complete": "holds",
        "transitive": "holds", "mixture_continuous": "holds",
    }
    assert rep["verification"]["passed"] is True


def test_catalog_report_serializes(entry_reports):
    import json

    payload = run_catalog(["eu3"]).to_json()
    text = json.dumps(payload, sort_keys=True)
    assert '"mismatches": 0' in text.replace("[]", "0") or payload["mismatches"] == 0
    assert payload["entries"][0]["entry"] == "eu3"


def test_equal_carrier_universes_share_space_checks(monkeypatch):
    """S1-S4 and C1/C2 run once per distinct (carrier, points, grid): the
    ten entries sit on five, and each report equals an uncached run's."""
    calls = {"check_mixture_axioms": 0, "check_c1_c2": 0}

    def counted(name):
        check = getattr(spaces, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(catalog, name, counted(name))
    catalog._space_checks.cache_clear()
    try:
        report = run_catalog()
    finally:
        catalog._space_checks.cache_clear()
    assert calls == {"check_mixture_axioms": 5, "check_c1_c2": 5}
    for entry_report in report.entries:
        entry = load_entry(entry_report.entry_id)
        args = (entry.space, entry.universe.points, entry.universe.grid)
        fresh = {**spaces.check_mixture_axioms(*args), **spaces.check_c1_c2(*args)}
        assert entry_report.to_json()["space_checks"] == {
            k: v.to_json() for k, v in fresh.items()}
