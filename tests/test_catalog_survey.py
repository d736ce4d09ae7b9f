"""Catalog manifests and the batch survey."""

import dataclasses
import io
import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor import cuts as cuts_module
from equiarbor import exactalg as exactalg_module
from equiarbor import schemes as schemes_module
from equiarbor import survey as survey_module
from equiarbor.catalog import (
    GraphCatalogEntry,
    default_catalog,
    default_manifest,
    entry_from_manifest,
)
from equiarbor.cli import run_command
from equiarbor.errors import EquiarborError, ParameterError
from equiarbor.graphs import emit_graph6, generate
from equiarbor.matching import MatchingResult
from equiarbor.resistance import _reduced_laplacian
from equiarbor.survey import survey

import oracles


def generated(name, family, *params, **extra):
    """A manifest item for a generator family member."""
    return {"name": name, "format": "generator",
            "payload": {"family": family, "params": list(params)}, **extra}


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
    loaded = [entry_from_manifest(item)
              for item in json.loads(json.dumps(default_manifest()))]
    assert loaded == default_catalog()
    assert [e.name for e in loaded] == [e.name for e in default_catalog()]
    assert all(a.graph == b.graph
               for a, b in zip(loaded, default_catalog()))


def test_manifest_alternate_formats():
    manifest = json.dumps([
        {"name": "K4-g6", "format": "graph6", "payload": "C~",
         "expected_regularity": 3},
        {"name": "path", "format": "edge-list", "payload": "3 2\n0 1\n1 2\n"},
    ])
    entries = [entry_from_manifest(item) for item in json.loads(manifest)]
    assert entries[0].graph == generate("complete", (4,))
    assert entries[1].graph.edge_count == 2


def test_manifest_regularity_mismatch():
    manifest = json.dumps([
        {"name": "bad", "format": "graph6", "payload": "C~",
         "expected_regularity": 4},
    ])
    with pytest.raises(ParameterError):
        entry_from_manifest(json.loads(manifest)[0])


def test_survey_default_catalog_passes():
    report = survey(default_manifest())
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


def test_survey_deterministic_flag_controls_timestamp():
    catalog = default_manifest()[:2]
    with_stamp = survey(catalog, deterministic=False)
    without = survey(catalog, deterministic=True)
    assert with_stamp.timestamp is not None
    assert "timestamp" not in without.to_json_dict()
    assert survey(catalog).to_json() == without.to_json()


def test_survey_handles_unexpectedly_passing_negative_control():
    # A negative control that is actually equiarboreal must fail the run.
    report = survey([generated("fake-control", "cycle", 5, negative_control=True)])
    assert report.failed == 1
    assert report.entries[0].status == "failed"


def test_survey_rational_serialization():
    report = survey([generated("Petersen", "petersen")])
    data = report.to_json_dict()
    assert data["entries"][0]["omega"] == "3/5"
    assert data["entries"][0]["lambda"] == 3


def test_survey_report_validates_against_published_schema():
    import jsonschema

    from equiarbor.survey import SURVEY_REPORT_SCHEMA

    report = survey(default_manifest())
    jsonschema.validate(report.to_json_dict(), SURVEY_REPORT_SCHEMA)
    stamped = survey(default_manifest()[:1], deterministic=False)
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
    {"name": "x", "format": "graph6", "payload": "A_", "negative_control": "false"},
    {"name": "x", "format": "graph6", "payload": "A_", "negative_control": 0},
    {"name": "x", "format": "graph6", "payload": "A_", "negative_control": None},
    {"name": "x", "format": "graph6", "payload": "C~", "expected_regularity": "3"},
    {"name": "x", "format": "graph6", "payload": "C~", "expected_regularity": 3.0},
    {"name": "x", "format": "graph6", "payload": "A_", "expected_regularity": True},
    {"name": "x", "format": "graph6", "payload": "A_", "expected_regularity": [1]},
])
def test_entry_from_manifest_rejects_wrong_types(item):
    key = next((k for k in ("expected_regularity", "negative_control") if k in item), None)
    with pytest.raises(ParameterError, match=key and f"x: {key} must be"):
        entry_from_manifest(item)


def test_entry_from_manifest_optional_keys():
    # K2 is 1-regular; null regularity means the key is absent.
    k2 = {"name": "K2", "format": "graph6", "payload": "A_"}
    assert entry_from_manifest(k2).expected_regularity is None
    for extra in ({"expected_regularity": None}, {"negative_control": False}):
        entry = entry_from_manifest({**k2, **extra})
        assert (entry.expected_regularity, entry.negative_control) == (None, False)
    entry = entry_from_manifest({**k2, "expected_regularity": 1, "negative_control": True})
    assert (entry.expected_regularity, entry.negative_control) == (1, True)


def test_survey_records_an_internal_error_and_continues(monkeypatch):
    real = survey_module.check_equiarboreal
    broken = generate("cycle", (6,))

    def check(g):
        if g == broken:
            raise RuntimeError("injected")
        return real(g)

    monkeypatch.setattr(survey_module, "check_equiarboreal", check)
    report = survey([generated("C5", "cycle", 5), generated("C6", "cycle", 6),
                     generated("C7", "cycle", 7)])
    assert [e.status for e in report.entries] == ["passed", "failed", "passed"]
    assert report.entries[1].notes == "internal error: RuntimeError: injected"


def test_survey_reports_a_non_ascii_graph6_payload_as_unreadable():
    # A non-ASCII payload fails as unreadable; it must not pass for "C?",
    # 4 isolated vertices that the survey would skip as disconnected.
    report = survey([{"name": "bad", "format": "graph6", "payload": "C\u00e9"},
                     generated("C5", "cycle", 5)])
    bad = report.entries[0]
    assert (bad.graph_name, bad.status, bad.notes) == (
        "bad", "failed", "unreadable entry: non-ASCII character '\u00e9' (byte offset 1)")
    assert report.summary == {"total": 2, "passed": 1, "failed": 1, "skipped": 0}


def test_survey_failure_paths_fail_only_their_entry(monkeypatch, tmp_path):
    # One entry per failure path, each forced on its own graph: a
    # disconnected graph, a theorem counterexample, a failing colour class,
    # a missing perfect matching and an EquiarborError.  The healthy C5 and
    # C9 around them come out as they do alone, and the run exits 1.
    petersen, q3, k4, c7 = (generate("petersen"), generate("hypercube", (3,)),
                            generate("complete", (4,)), generate("cycle", (7,)))
    real_theorem = survey_module.verify_degree_connectivity
    real_godsil = survey_module.verify_godsil_theorems
    real_matching = survey_module.has_perfect_matching
    real_lambda = survey_module.edge_connectivity

    def theorem(g):
        report = real_theorem(g)
        if g == petersen:
            report = dataclasses.replace(report, counterexamples=("injected counterexample",))
        return report

    def godsil(scheme):
        report = real_godsil(scheme)
        if scheme.point_count == q3.vertex_count:
            first = report.classes[0]
            report = dataclasses.replace(report, classes=(
                dataclasses.replace(first, lambda_value=first.degree - 1),) + report.classes[1:])
        return report

    def matching(g):
        return MatchingResult(False, None, ()) if g == k4 else real_matching(g)

    def lam(g):
        if g == c7:
            raise ParameterError("injected")
        return real_lambda(g)

    monkeypatch.setattr(survey_module, "verify_degree_connectivity", theorem)
    monkeypatch.setattr(survey_module, "verify_godsil_theorems", godsil)
    monkeypatch.setattr(survey_module, "has_perfect_matching", matching)
    monkeypatch.setattr(survey_module, "edge_connectivity", lam)
    healthy = [generated("C5", "cycle", 5), generated("C9", "cycle", 9)]
    items = [healthy[0],
             {"name": "2C3", "format": "edge-list",
              "payload": "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"},
             generated("Petersen", "petersen"), generated("Q3", "hypercube", 3),
             generated("K4", "complete", 4), generated("C7", "cycle", 7), healthy[1]]
    report = survey(items)
    assert [(e.graph_name, e.status, e.main_theorem, e.matching, e.notes)
            for e in report.entries] == [
        ("C5", "passed", "pass", "skipped",
         "scheme with 2 classes: all colour classes pass"),
        ("2C3", "skipped", "skipped", "skipped", "disconnected; checks skipped"),
        ("Petersen", "failed", "fail", "pass",
         "injected counterexample; scheme with 2 classes: all colour classes pass"),
        ("Q3", "failed", "pass", "pass", "scheme colour-class verification failed"),
        ("K4", "failed", "pass", "fail", "scheme with 1 classes: all colour classes pass"),
        ("C7", "failed", "skipped", "skipped", "error: injected"),
        ("C9", "passed", "pass", "skipped",
         "scheme with 4 classes: all colour classes pass"),
    ]
    assert (report.entries[1].regularity, report.entries[1].equiarboreal,
            report.entries[1].lambda_value) == (2, None, None)
    assert report.entries[5].regularity is None
    alone = survey(healthy).entries
    assert (report.entries[0], report.entries[-1]) == alone
    assert report.summary == {"total": 7, "passed": 2, "failed": 4, "skipped": 1}

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(items))
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["--deterministic", "survey", str(path)], out, err) == 1
    assert json.loads(out.getvalue()) == report.to_json_dict()
    assert err.getvalue() == "survey: 2 passed, 4 failed, 1 skipped\n"


def test_survey_entry_inverts_each_graph_once(monkeypatch):
    inverted = []
    real = exactalg_module.integer_solve

    def counting(rows, what):
        inverted.append([row[:len(rows)] for row in rows])
        return real(rows, what)

    monkeypatch.setattr(exactalg_module, "integer_solve", counting)
    host = generate("petersen")
    host_laplacian, _, _ = _reduced_laplacian(host.edge_items(), range(10), 9)
    entry = generated("Petersen", "petersen")
    report = survey([entry])
    assert report.entries[0].status == "passed"
    # The host once (entry verdict, degree-connectivity hypothesis, colour
    # class 1); every other solve is a 3 x 3 Bose-Mesner system, one per
    # colour class, so no class Laplacian is inverted.
    assert inverted.count(host_laplacian) == 1
    assert [len(rows) for rows in inverted if rows != host_laplacian] == [3, 3]
    # Facts do not outlive their entry.
    survey([entry, entry])
    assert inverted.count(host_laplacian) == 3
    assert [len(rows) for rows in inverted if rows != host_laplacian] == [3] * 6


def test_survey_entry_runs_each_max_flow_once(monkeypatch):
    flows = []
    real_flows = cuts_module._flows

    def counting_flows(g):
        for flow in real_flows(g):
            flows.append(flow[0])
            yield flow

    monkeypatch.setattr(cuts_module, "_flows", counting_flows)
    report = survey([generated("Petersen", "petersen")])
    assert report.entries[0].lambda_value == 3
    # Degree 3 needs no minimum cut.  One set of prefix flows gives lambda
    # of the host, which the entry and colour class 1 share, and one that
    # of colour class 2, the complement.
    assert flows == list(range(1, 10)) * 2


def test_survey_decides_the_distance_partition_without_a_witness(monkeypatch):
    # A tree or the prism is not distance-regular; the survey notes that
    # from the first mismatching pair and never looks for the least one.
    def refuse(rel):
        raise AssertionError("the witness rescan ran")

    monkeypatch.setattr(schemes_module, "_intersection_witness", refuse)
    path = "40 39\n" + "".join(f"{v} {v + 1}\n" for v in range(39))
    report = survey([{"name": "P40", "format": "edge-list", "payload": path},
                     generated("S12", "star", 12),
                     generated("Prism", "triangular_prism")])
    for entry in report.entries:
        assert "distance partition is not an association scheme" in entry.notes


def test_scheme_above_the_class_limit_leaves_its_colour_classes_unchecked(monkeypatch):
    # C130 is distance-regular with 65 classes, one above the limit.
    def refuse(scheme):
        raise AssertionError("colour classes checked above the class limit")

    monkeypatch.setattr(survey_module, "verify_godsil_theorems", refuse)
    entry = survey([generated("C130", "cycle", 130)]).entries[0]
    assert entry.status == "passed"
    assert entry.notes == ("scheme with 65 classes: above the class limit 64, "
                           "colour classes not checked")


def test_semisymmetric_graphs_pass_without_a_distance_scheme(tmp_path):
    # Edge-transitive but not vertex-transitive: every edge has one
    # resistance, so the main theorem applies, yet neither graph is
    # distance-regular, so no colour class of a scheme covers it.
    items = []
    for name, code in oracles.SEMISYMMETRIC.items():
        g = oracles.lcf_graph(*code)
        ref = oracles.to_networkx(g)
        assert nx.is_bipartite(ref)
        assert (g.vertex_count, g.edge_count, nx.girth(ref)) == \
            {"Folkman": (20, 40, 4), "Gray": (54, 81, 8)}[name]
        items.append({"name": name, "format": "graph6", "payload": emit_graph6(g)})
    manifest = tmp_path / "semisymmetric.json"
    manifest.write_text(json.dumps(items))
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["--deterministic", "survey", str(manifest)], out, err) == 0
    assert err.getvalue() == "survey: 2 passed, 0 failed, 0 skipped\n"
    note = "distance partition is not an association scheme"
    assert [(e["graphName"], e["regularity"], e["equiarboreal"], e["omega"], e["lambda"],
             e["mainTheoremPass"], e["matchingPass"], e["notes"])
            for e in json.loads(out.getvalue())["entries"]] == [
        ("Folkman", 4, True, "19/40", 4, "pass", "pass", note),
        ("Gray", 3, True, "53/81", 3, "pass", "pass", note),
    ]


def test_edge_transitive_generalized_petersen_graphs_pass(tmp_path):
    # The cubic edge-transitive generalized Petersen graphs beyond the
    # catalog's Petersen graph, and GP(13, 5), which is not edge-transitive,
    # as the control: its outer and spoke edges differ in resistance, so
    # the main theorem's hypothesis fails and the entry is skipped.
    nauru = oracles.to_networkx(oracles.lcf_graph([5, -9, 7, -7, 9, -5], 4))
    named = {(8, 3): nx.moebius_kantor_graph(), (12, 5): nauru,
             (10, 2): nx.dodecahedral_graph(), (10, 3): nx.desargues_graph()}
    params = [(8, 3), (12, 5), (24, 5), (10, 2), (10, 3), (13, 5)]
    items = []
    for n, k in params:
        g = oracles.generalized_petersen(n, k)
        assert (g.vertex_count, g.edge_count, g.is_regular()) == (2 * n, 3 * n, 3)
        if (n, k) in named:
            assert nx.is_isomorphic(oracles.to_networkx(g), named[n, k])
        items.append({"name": f"GP({n},{k})", "format": "graph6", "payload": emit_graph6(g)})
    manifest = tmp_path / "petersen.json"
    manifest.write_text(json.dumps(items))
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["--deterministic", "survey", str(manifest)], out, err) == 0
    assert err.getvalue() == "survey: 5 passed, 0 failed, 1 skipped\n"
    no_scheme = "distance partition is not an association scheme"
    scheme = "scheme with 5 classes: all colour classes pass"
    control = "not equiarboreal: edge (0, 1) has 16/25, edge (0, 13) has 209/325; " + no_scheme
    assert [(e["graphName"], e["regularity"], e["equiarboreal"], e["omega"], e["lambda"],
             e["mainTheoremPass"], e["matchingPass"], e["notes"])
            for e in json.loads(out.getvalue())["entries"]] == [
        ("GP(8,3)", 3, True, "5/8", 3, "pass", "pass", no_scheme),
        ("GP(12,5)", 3, True, "23/36", 3, "pass", "pass", no_scheme),
        ("GP(24,5)", 3, True, "47/72", 3, "pass", "pass", no_scheme),
        ("GP(10,2)", 3, True, "19/30", 3, "pass", "pass", scheme),
        ("GP(10,3)", 3, True, "19/30", 3, "pass", "pass", scheme),
        ("GP(13,5)", 3, False, None, 3, "skipped", "skipped", control),
    ]
