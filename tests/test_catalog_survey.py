"""Catalog manifests and the batch survey."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor import survey as survey_module
from equiarbor.catalog import (
    GraphCatalogEntry,
    default_catalog,
    default_manifest_json,
    entry_from_manifest,
    load_manifest,
)
from equiarbor.errors import EquiarborError, ParameterError
from equiarbor.graphs import generate
from equiarbor.survey import survey


def test_default_catalog_contents():
    entries = default_catalog()
    assert len(entries) >= 12
    names = {e.name for e in entries}
    for required in ("C5", "C6", "Petersen", "H(2,2)", "H(2,3)", "H(3,2)",
                     "J(4,2)", "J(5,2)", "Q3", "Q4", "TriangularPrism"):
        assert required in names
    prism = next(e for e in entries if e.name == "TriangularPrism")
    assert prism.negative_control


def test_default_manifest_roundtrip():
    loaded = load_manifest(default_manifest_json())
    assert [e.name for e in loaded] == [e.name for e in default_catalog()]
    assert all(a.graph == b.graph
               for a, b in zip(loaded, default_catalog()))


def test_manifest_alternate_formats():
    manifest = json.dumps([
        {"name": "K4-g6", "format": "graph6", "payload": "C~",
         "expected_regularity": 3},
        {"name": "path", "format": "edge-list", "payload": "3 2\n0 1\n1 2\n"},
    ])
    entries = load_manifest(manifest)
    assert entries[0].graph == generate("complete", (4,))
    assert entries[0].provenance == "graph6"
    assert entries[1].graph.edge_count == 2


def test_manifest_regularity_mismatch():
    manifest = json.dumps([
        {"name": "bad", "format": "graph6", "payload": "C~",
         "expected_regularity": 4},
    ])
    with pytest.raises(ParameterError):
        load_manifest(manifest)


def test_entry_provenance_validation():
    with pytest.raises(ParameterError):
        GraphCatalogEntry("x", generate("cycle", (4,)), provenance="magic")


def test_survey_default_catalog_passes():
    report = survey(default_catalog())
    assert report.failed == 0
    summary = report.summary
    assert summary["total"] == len(default_catalog())
    assert summary["passed"] + summary["skipped"] == summary["total"]

    by_name = {e.graph_name: e for e in report.entries}
    prism = by_name["TriangularPrism"]
    assert prism.status == "skipped"
    assert prism.equiarboreal is False
    assert prism.main_theorem == "skipped"
    assert "negative control" in prism.notes
    assert "8/15" in prism.notes and "3/5" in prism.notes

    petersen = by_name["Petersen"]
    assert petersen.status == "passed"
    assert petersen.main_theorem == "pass"
    assert petersen.matching == "pass"
    assert petersen.omega is not None

    star = by_name["S5"]
    assert star.equiarboreal is True  # trees are equiarboreal
    assert star.main_theorem == "skipped"  # but not regular


def test_survey_empty_catalog():
    report = survey([])
    assert report.summary == {"total": 0, "passed": 0, "failed": 0, "skipped": 0}
    assert report.failed == 0


def test_survey_concurrent_matches_sequential():
    catalog = default_catalog()
    sequential = survey(catalog, jobs=1)
    threaded = survey(catalog, jobs=4)
    assert sequential.to_json() == threaded.to_json()


def test_survey_deterministic_flag_controls_timestamp():
    catalog = default_catalog()[:2]
    with_stamp = survey(catalog, deterministic=False)
    without = survey(catalog, deterministic=True)
    assert with_stamp.timestamp is not None
    assert "timestamp" not in without.to_json_dict()
    assert survey(catalog).to_json() == without.to_json()


def test_survey_handles_unexpectedly_passing_negative_control():
    # A negative control that is actually equiarboreal must fail the run.
    entry = GraphCatalogEntry("fake-control", generate("cycle", (5,)),
                              negative_control=True)
    report = survey([entry])
    assert report.failed == 1
    assert report.entries[0].status == "failed"


def test_survey_rational_serialization():
    report = survey([GraphCatalogEntry("Petersen", generate("petersen"))])
    data = report.to_json_dict()
    assert data["entries"][0]["omega"] == "3/5"
    assert data["entries"][0]["lambda"] == 3


def test_survey_report_validates_against_published_schema():
    import jsonschema

    from equiarbor.survey import SURVEY_REPORT_SCHEMA

    report = survey(default_catalog())
    jsonschema.validate(report.to_json_dict(), SURVEY_REPORT_SCHEMA)
    stamped = survey(default_catalog()[:1], deterministic=False)
    jsonschema.validate(stamped.to_json_dict(), SURVEY_REPORT_SCHEMA)


# Integers stay small so that a generator family drawn by name cannot ask
# for a huge graph.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)
_manifest_items = st.one_of(
    _json_values,
    st.fixed_dictionaries(
        {"name": st.one_of(st.text(max_size=6), _json_values),
         "format": st.one_of(st.sampled_from(["generator", "graph6", "edge-list"]),
                             _json_values),
         "payload": st.one_of(
             _json_values,
             st.fixed_dictionaries(
                 {"family": st.one_of(st.sampled_from(
                     ["cycle", "complete", "hypercube", "johnson", "hamming",
                      "petersen"]), _json_values),
                  "params": st.one_of(st.lists(st.integers(-2, 4), max_size=3),
                                      _json_values)}))},
        optional={"expected_regularity": _json_values,
                  "negative_control": _json_values}))


@settings(max_examples=200, deadline=None)
@given(_manifest_items)
def test_entry_from_manifest_fuzz(item):
    try:
        assert isinstance(entry_from_manifest(item), GraphCatalogEntry)
    except EquiarborError:
        pass


@pytest.mark.parametrize("item", [
    {"name": "x", "format": "graph6", "payload": 5},
    {"name": "x", "format": "edge-list", "payload": ["2 1", "0 1"]},
    {"name": "x", "format": "generator", "payload": "cycle"},
    {"name": "x", "format": "generator", "payload": {"family": ["cycle"]}},
    {"name": "x", "format": "generator",
     "payload": {"family": "cycle", "params": [5.0]}},
    {"name": 5, "format": "graph6", "payload": "C~"},
    ["name", "format", "payload"],
])
def test_entry_from_manifest_rejects_wrong_types(item):
    with pytest.raises(ParameterError):
        entry_from_manifest(item)


def test_survey_records_an_internal_error_and_continues(monkeypatch):
    real = survey_module.check_equiarboreal
    broken = generate("cycle", (6,))

    def check(g):
        if g == broken:
            raise RuntimeError("injected")
        return real(g)

    monkeypatch.setattr(survey_module, "check_equiarboreal", check)
    report = survey([GraphCatalogEntry("C5", generate("cycle", (5,))),
                     GraphCatalogEntry("C6", broken),
                     GraphCatalogEntry("C7", generate("cycle", (7,)))])
    assert [e.status for e in report.entries] == ["passed", "failed", "passed"]
    assert report.entries[1].notes == "internal error: RuntimeError: injected"
