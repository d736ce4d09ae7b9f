"""The command-line surface: grammar, outputs, exit codes."""

import io
import json
from pathlib import Path

import pytest

from equiarbor import bounds as bounds_module
from equiarbor import cli as cli_module
from equiarbor import cuts as cuts_module
from equiarbor import exactalg as exactalg_module
from equiarbor import graphs as graphs_module
from equiarbor import schemes as schemes_module
from equiarbor import survey as survey_module
from equiarbor import transform as transform_module
from equiarbor.catalog import default_manifest
from equiarbor.cli import run_command
from equiarbor.errors import EquiarborError
from equiarbor.graphs import fact_scope, generate
from equiarbor.resistance import WeightedNetwork, dump_network
from equiarbor.schemes import format_scheme_table, scheme_from_distance_partition


GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_fxy_prints_exact_fraction():
    code, out, _ = run(["fxy", "5", "1", "1"])
    assert code == 0
    assert out.strip() == "3/7"


def test_fxy_domain_error_is_usage():
    code, _, err = run(["fxy", "7", "7", "1"])
    assert code == 2
    assert "error" in err


def test_analyze_petersen():
    code, out, _ = run(["analyze", "--family", "petersen"])
    assert code == 0
    data = json.loads(out)
    assert data == {"equiarboreal": True, "omega": "3/5", "witness": None,
                    "godsilBound": "5/3", "lambda": 3}


def test_analyze_fails_loudly_when_lambda_is_below_the_tree_bound(monkeypatch):
    # lambda >= m/(n-1) is a theorem on equiarboreal graphs, so a lambda
    # below it can only be a defect, never a verdict.
    monkeypatch.setattr(cuts_module, "edge_connectivity", lambda g: 1)
    code, out, err = run(["analyze", "--family", "petersen"])
    assert (code, out) == (2, "")
    assert err == "error: lambda = 1 is below the spanning-tree bound m/(n-1) = 5/3\n"


def test_analyze_negative_control():
    code, out, _ = run(["analyze", "--family", "triangular_prism"])
    assert code == 0
    data = json.loads(out)
    assert data["equiarboreal"] is False
    assert data["witness"] == {"edgeA": [0, 1], "edgeB": [0, 3],
                               "valueA": "8/15", "valueB": "3/5"}
    assert data["godsilBound"] is None


def test_resist_network_file(tmp_path):
    from fractions import Fraction

    net = WeightedNetwork.from_resistances(4, [
        (0, 2, 1), (0, 3, 1), (1, 3, Fraction(1, 2)),
        (0, 1, Fraction(1, 3)), (2, 3, Fraction(1, 4))])
    path = tmp_path / "net.json"
    path.write_text(dump_network(net))
    code, out, _ = run(["resist", str(path), "0", "2"])
    assert code == 0
    assert out.strip() == "31/75"


def test_cut_enumerate_classify():
    code, out, _ = run(["cut", "--family", "petersen",
                        "--enumerate", "--classify"])
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == 3
    assert len(data["cuts"]) == 10
    assert all(c["isTrivial"] for c in data["classifications"])
    assert data["theorem"]["passed"] is True


def test_cut_enumerate_takes_lambda_from_the_cuts(monkeypatch):
    # lambda is read through edge_connectivity, whose memo already holds the
    # listed cuts, so the prefix flows run once, for the enumeration.
    flows = []
    real_flows = cuts_module._flows
    monkeypatch.setattr(cuts_module, "_flows", lambda g: flows.append(g) or real_flows(g))
    code, out, _ = run(["cut", "--family", "johnson", "--params", "6", "3",
                        "--enumerate"])
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == 9
    assert len(data["cuts"]) == 20
    assert len(flows) == 1


@pytest.mark.parametrize("family, params, lam, count", [
    ("johnson", ["7", "3"], 12, 35),
    ("hypercube", ["5"], 5, 32),
    ("hamming", ["2", "5"], 8, 25),
])
def test_cut_enumerate_classify_above_24_vertices(family, params, lam, count):
    # The listing cap is the 512 matrix limit: every minimum cut is a
    # vertex star, one per vertex.
    code, out, _ = run(["cut", "--family", family, "--params", *params,
                        "--enumerate", "--classify"])
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == lam
    assert len(data["cuts"]) == count
    assert all(min(len(c["sideA"]), len(c["sideB"])) == 1 for c in data["cuts"])
    assert all(c["isTrivial"] for c in data["classifications"])
    assert data["theorem"]["passed"] is True


@pytest.mark.parametrize("n, times", [(4, 2), (5, 2), (4, 3)],
                         ids=["doubled-c4", "doubled-c5", "tripled-c4"])
def test_cut_passes_on_multiplied_cycles(tmp_path, n, times):
    # Each has a non-trivial minimum cut whose reduced-network bound exceeds
    # omega (5/12 > 3/8 on doubled C4); the cut lemma holds for simple graphs
    # only, so the verdict must not apply it here.
    edges = [(i, (i + 1) % n) for i in range(n)] * times
    path = tmp_path / "multi.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, err = run(["cut", str(path)])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["lambda"] == 2 * times
    assert data["theorem"]["passed"] is True


@pytest.mark.parametrize("argv, message", [
    (["cut", "--family", "cycle", "--params", "600", "--enumerate"],
     "exceed the enumeration limit"),
    (["cut", "--family", "hypercube", "--params", "10", "--classify"],
     "exceed the enumeration limit"),
    (["cut", "disconnected.txt", "--enumerate"], "connected graph"),
])
def test_cut_enumerate_error_exits(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "disconnected.txt").write_text("4 2\n0 1\n2 3\n")
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_plain_cut_runs_its_max_flows_once(monkeypatch):
    flows = []
    real_flows = cuts_module._flows

    def counting_flows(g):
        for flow in real_flows(g):
            flows.append(flow[0])
            yield flow

    monkeypatch.setattr(cuts_module, "_flows", counting_flows)
    code, out, _ = run(["cut", "--family", "petersen"])
    assert code == 0
    data = json.loads(out)
    assert data == {"lambda": 3,
                    "theorem": {"applicable": True, "k": 3, "lambdaEqualsDegree": True,
                                "passed": True, "counterexamples": []}}
    # Degree 3 needs no minimum cut: the theorem check and the printed
    # lambda share one set of prefix flows.
    assert flows == list(range(1, 10))


def test_plain_cut_below_two_vertices_and_disconnected(tmp_path):
    code, out, err = run(["cut", "--family", "complete", "--params", "1"])
    assert (code, out) == (2, "")
    assert err == "error: edge connectivity needs at least 2 vertices\n"
    path = tmp_path / "disconnected.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, out, _ = run(["cut", str(path)])
    assert code == 0
    assert json.loads(out) == {
        "lambda": 0,
        "theorem": {"applicable": False,
                    "reason": "degree-connectivity check needs a connected graph"}}


def test_cut_above_the_matrix_limit_keeps_lambda():
    # lambda needs no matrix; the theorem's equiarboreal precondition
    # needs a matrix above the limit, so the theorem is not applicable.
    code, out, err = run(["cut", "--family", "cycle", "--params", "514"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "lambda": 2,
        "theorem": {"applicable": False,
                    "reason": "matrix exceeds the 512 soft size limit"}}
    code, out, err = run(["analyze", "--family", "cycle", "--params", "514"])
    assert (code, out) == (2, "")
    assert err == "error: matrix exceeds the 512 soft size limit\n"


def test_cut_classifies_each_cut_once_below_degree_four(monkeypatch):
    calls = []
    real = cuts_module._classify_cut

    def counting(cut):
        calls.append(cut)
        return real(cut)

    monkeypatch.setattr(cuts_module, "_classify_cut", counting)
    code, out, _ = run(["cut", "--family", "cycle", "--params", "12",
                        "--enumerate", "--classify"])
    assert code == 0
    data = json.loads(out)
    assert len(data["classifications"]) == 66
    assert data["theorem"]["passed"] is True
    # No cut-graph prohibition applies at degree 2, so the theorem check
    # classifies none of the 54 non-trivial cuts.
    assert len(calls) == 66


@pytest.mark.parametrize("family,params,count", [
    ("johnson", (6, 3), 20), ("cycle", (12,), 66)])
def test_cut_builds_each_minimum_cut_once(monkeypatch, family, params, count):
    built = []
    real = cuts_module._cut

    def counting(g, side):
        built.append(side)
        return real(g, side)

    monkeypatch.setattr(cuts_module, "_cut", counting)
    code, out, _ = run(["cut", "--family", family, "--params", *map(str, params),
                        "--enumerate", "--classify"])
    assert code == 0
    assert len(json.loads(out)["cuts"]) == count
    # The cut list, the theorem check, --classify and the printed lambda
    # read one set of cuts, each built once.
    assert len(built) == len(set(built)) == count
    g = generate(family, params)
    with fact_scope():
        lam = cuts_module.minimum_cuts(g)[0].size
        built.clear()
        assert cuts_module.edge_connectivity(g) == lam
    assert built == []


def test_scheme_verifies_the_table_once(monkeypatch):
    calls = []
    real = schemes_module.verify_scheme

    def counting(table):
        calls.append(table)
        return real(table)

    monkeypatch.setattr(schemes_module, "verify_scheme", counting)
    code, _, _ = run(["scheme", "--family", "petersen", "--verify-godsil"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("n, outcome", [
    (129, "error: reached the axiom check\n"),
    (130, "error: at least 65 classes exceed the scheme class limit 64\n"),
])
def test_scheme_above_the_class_limit_exits_2(monkeypatch, n, outcome):
    # C129 has 64 distance classes and reaches the axiom check; C130 has 65,
    # all seen from vertex 0, and is refused from that one BFS row before
    # the distance table is built, naming the limit.
    def reached(table):
        raise EquiarborError("reached the axiom check")

    monkeypatch.setattr(schemes_module, "verify_scheme", reached)
    code, out, err = run(["scheme", "--family", "cycle", "--params", str(n)])
    assert (code, out, err) == (2, "", outcome)


@pytest.mark.parametrize("argv, outcome", [
    (["--family", "hypercube", "--params", "9"], "error: reached the axiom check\n"),
    (["--family", "complete", "--params", "513"],
     "error: 513 points exceed the scheme point limit 512\n"),
    (["k512.txt"], "error: reached the axiom check\n"),
    (["k513.txt"], "error: 513 points exceed the scheme point limit 512\n"),
], ids=["Q9", "K513", "K512-table", "K513-table"])
def test_scheme_above_the_point_limit_exits_2(tmp_path, monkeypatch, argv, outcome):
    # A relation on exactalg.SIZE_LIMIT = 512 points reaches the axiom check;
    # one more point is refused, for a graph before its distance table is
    # built and for a table file before its axioms are checked.
    def reached(table):
        raise EquiarborError("reached the axiom check")

    monkeypatch.setattr(schemes_module, "verify_scheme", reached)
    monkeypatch.chdir(tmp_path)
    for n in (512, 513):  # K_n's one-class table
        rows = (" ".join(["0"] + ["1"] * (n - 1 - i)) for i in range(n))
        (tmp_path / f"k{n}.txt").write_text(f"{n} 1\n" + "\n".join(rows) + "\n")
    assert run(["scheme", *argv]) == (2, "", outcome)


def _parallel_edges(tmp_path, m: int) -> str:
    """An edge-list file of two vertices joined by m parallel edges, so
    lambda = m and the one minimum cut crosses all of them."""
    path = tmp_path / f"parallel_{m}.txt"
    path.write_text(f"2 {m}\n" + "0 1\n" * m)
    return str(path)


def test_cut_classify_at_the_classification_limit(tmp_path):
    # A classification's double-star map has lambda(lambda-1)/2 entries; one
    # more parallel edge is refused (tests/test_input_checks.py).
    code, out, err = run(["cut", _parallel_edges(tmp_path, 64), "--classify"])
    assert (code, err) == (0, "")
    (cls,) = json.loads(out)["classifications"]
    assert len(cls["stronglySxyFree"]) == 64 * 63 // 2


def test_cut_enumerate_alone_is_not_capped(tmp_path):
    code, out, err = run(["cut", _parallel_edges(tmp_path, 400), "--enumerate"])
    assert (code, err) == (0, "")
    assert json.loads(out)["cuts"] == [
        {"sideA": [0], "sideB": [1], "crossing": [[0, 1]] * 400}]


def test_scheme_refuses_a_diameter_above_the_class_limit_from_the_full_table(tmp_path):
    # A path on 101 vertices numbered from its middle: vertex 0 sees only 50
    # classes, so the 100 of the diameter are counted in the whole table.
    order = [50 + (i + 1) // 2 * (-1) ** i for i in range(101)]
    at = {x: i for i, x in enumerate(order)}
    path = tmp_path / "path.txt"
    path.write_text("101 100\n" + "".join(f"{at[x]} {at[x + 1]}\n" for x in range(100)))
    code, out, err = run(["scheme", "--from-distance", str(path)])
    assert (code, out, err) == (2, "", "error: 100 classes exceed the scheme class limit 64\n")
    # A path of 70 from vertex 0 plus an isolated vertex is refused as
    # disconnected, though vertex 0 alone sees 69 classes.
    path.write_text("71 69\n" + "".join(f"{x} {x + 1}\n" for x in range(69)))
    code, out, err = run(["scheme", "--from-distance", str(path)])
    assert (code, out, err) == (2, "", "error: distance table requires a connected graph\n")


@pytest.mark.parametrize("name, text", [("empty.g6", "?\n"), ("empty.edges", "0 0\n")],
                         ids=["graph6", "edge-list"])
def test_scheme_refuses_a_graph_with_no_vertices(tmp_path, name, text):
    # No vertex gives an empty relation table, which the axiom check refuses.
    path = tmp_path / name
    path.write_text(text)
    assert run(["scheme", "--from-distance", str(path)]) == \
        (2, "", "error: empty relation table\n")


def test_cut_exits_1_on_a_failing_degree_connectivity_report(monkeypatch):
    report = cuts_module.DegreeConnectivityReport(
        k=3, lam=2, lambda_equals_degree=False, parity_ok=None,
        counterexamples=("lambda = 2 != degree 3",))
    monkeypatch.setattr(cuts_module, "verify_degree_connectivity", lambda g: report)
    code, out, _ = run(["cut", "--family", "petersen"])
    assert code == 1
    assert json.loads(out)["theorem"] == {
        "applicable": True, "k": 3, "lambdaEqualsDegree": False, "passed": False,
        "counterexamples": ["lambda = 2 != degree 3"]}


def test_scheme_verify_godsil_exits_1_when_a_class_lambda_misses_its_degree(monkeypatch):
    monkeypatch.setattr(schemes_module, "edge_connectivity", lambda g: g.is_regular() - 1)
    code, out, _ = run(["scheme", "--family", "petersen", "--verify-godsil"])
    assert code == 1
    godsil = json.loads(out)["godsil"]
    assert godsil["passed"] is False
    assert [(c["degree"], c["lambda"]) for c in godsil["classes"]] == [(3, 2), (6, 5)]


def test_verify_claims_exits_1_when_a_certificate_fails(monkeypatch):
    monkeypatch.setattr(bounds_module, "verify_reduced_network", lambda k: k != 8)
    code, out, err = run(["verify", "claims", "--k-range", "7..9"])
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert [e["reducedNetworkGrid"] for e in data["perK"]] == [True, False, True]
    assert err == "verify claims 7..9: FAIL\n"


def test_cut_non_regular_graph_marks_theorem_inapplicable():
    code, out, _ = run(["cut", "--family", "star", "--params", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == 1
    assert data["theorem"]["applicable"] is False


def test_transform_bipartite():
    code, out, err = run(["transform", "--bipartite", "2", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 7
    assert {"u": 5, "v": 6, "r": "-1/6"} in data["edges"]
    assert "bipartite-to-double-star" in err


def test_transform_bipartite_above_the_network_limit_exits_2():
    code, out, err = run(["transform", "--bipartite", "129023", "129023"])
    assert (code, out) == (2, "")
    assert "above the network limit 258047" in err


def test_transform_eliminate(tmp_path):
    net = WeightedNetwork.from_resistances(
        3, [(0, 1, 1), (1, 2, 1)], terminals=(0, 2))
    path = tmp_path / "path.json"
    path.write_text(dump_network(net))
    code, out, err = run(["transform", str(path), "--eliminate", "1"])
    assert code == 0
    data = json.loads(out)
    assert {"u": 0, "v": 2, "r": "2"} in data["edges"]
    assert "series" in err


def test_transform_eliminate_isolated_vertex(tmp_path):
    # An isolated vertex adds no branches, so it is not refused as singular.
    path = tmp_path / "isolated.json"
    path.write_text(dump_network(WeightedNetwork.from_resistances(3, [(0, 1, 1)])))
    code, out, err = run(["transform", str(path), "--eliminate", "2"])
    assert (code, out) == (0, path.read_text())
    assert err == "transform: star-mesh; removed [2]; added []\n"


def test_transform_eliminate_builds_its_mesh_once(monkeypatch):
    # The record reads each branch off the networks before and after, so
    # only the elimination builds the mesh; the reported branches, on a
    # network with an existing edge and negative conductances, are those
    # of the golden file.
    calls = []
    real = transform_module._mesh_branches
    monkeypatch.setattr(transform_module, "_mesh_branches",
                        lambda net, w: calls.append(w) or real(net, w))
    code, _, err = run(["transform", str(GOLDEN / "eliminate_network.json"),
                        "--eliminate", "2"])
    assert code == 0
    assert calls == [2]
    assert err == (GOLDEN / "transform_eliminate_2.stderr").read_text()


def test_scheme_from_family_with_godsil():
    code, out, _ = run(["scheme", "--family", "petersen", "--verify-godsil"])
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["classCount"] == 2
    assert data["godsil"]["passed"] is True
    assert len(data["godsil"]["classes"]) == 2


def test_scheme_table_file(tmp_path):
    scheme = scheme_from_distance_partition(generate("cycle", (5,)))
    path = tmp_path / "c5.scheme"
    path.write_text(format_scheme_table(scheme))
    code, out, _ = run(["scheme", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["intersectionNumbers"][1][1][2] == 1


def test_scheme_table_with_a_negative_class_exits_2(tmp_path):
    # The parser takes any integer; the axiom check refuses the negative.
    path = tmp_path / "negative.scheme"
    path.write_text("3 1\n0 1 -1\n0 1\n0\n")
    assert run(["scheme", str(path)]) == (2, "", "error: negative class index at (0, 2)\n")


def test_scheme_invalid_reports_witness():
    code, out, _ = run(["scheme", "--family", "triangular_prism"])
    assert code == 0  # reporting invalidity is a result, not a failure
    data = json.loads(out)
    assert data["valid"] is False
    assert data["violation"]["axiom"] == "intersection"
    # With verification requested, the invalid scheme is a counterexample.
    code, _, _ = run(["scheme", "--family", "triangular_prism",
                      "--verify-godsil"])
    assert code == 1


def test_matching_command():
    code, out, _ = run(["matching", "--family", "cycle", "--params", "5"])
    assert code == 0
    assert json.loads(out) == {"hasPerfect": False, "matching": None}
    code, out, _ = run(["matching", "--family", "petersen"])
    data = json.loads(out)
    assert data["hasPerfect"] is True
    assert len(data["matching"]) == 5


def test_verify_claims_small_range():
    code, out, _ = run(["verify", "claims", "--k-range", "7..9"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert [e["k"] for e in data["perK"]] == [7, 8, 9]
    assert all(e["doubleStarThreshold"] and e["denominatorPositivity"]
               and e["reducedNetworkGrid"] for e in data["perK"])


def test_verify_claims_certifies_the_reduced_network_once(monkeypatch):
    # One three-by-three nodal solve on a cleared cache, at the Kronecker
    # point, none on a second run in the same process, and no per-point
    # solve at all.
    solves = []
    solve = exactalg_module.integer_solve
    monkeypatch.setattr(exactalg_module, "integer_solve",
                        lambda rows, what: solves.append(len(rows)) or solve(rows, what))
    monkeypatch.setattr(bounds_module, "kirchhoff_cross_check",
                        lambda k, x, y: pytest.fail("per-point solve"))
    bounds_module._check_identities.cache_clear()
    try:
        first = run(["verify", "claims", "--k-range", "7..120"])
        assert solves == [3]
        assert run(["verify", "claims", "--k-range", "7..120"]) == first
        assert solves == [3]
    finally:
        bounds_module._check_identities.cache_clear()
    assert first[0] == 0 and first[2] == "verify claims 7..120: PASS\n"


@pytest.mark.parametrize("k_range, ks", [("7..7", [7]), ("3..6", [3, 4, 5, 6])])
def test_verify_claims_short_ranges(k_range, ks):
    code, out, err = run(["verify", "claims", "--k-range", k_range])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert [e["k"] for e in data["perK"]] == ks
    assert err == f"verify claims {k_range}: PASS\n"


@pytest.mark.parametrize("k_range", ["40..7", "1..2"])
def test_verify_claims_empty_range_exits_two(k_range):
    code, out, err = run(["verify", "claims", "--k-range", k_range])
    assert (code, out) == (2, "")
    assert err == f"error: --k-range {k_range} checks no degree k >= 3\n"


def test_survey_default_exit_zero(tmp_path, monkeypatch):
    monkeypatch.delenv("EQUIARBOR_CATALOG", raising=False)
    code, out, err = run(["survey"])
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0
    assert "survey:" in err


def test_survey_env_manifest(tmp_path, monkeypatch):
    manifest = tmp_path / "cat.json"
    manifest.write_text(json.dumps([
        {"name": "C5", "format": "generator",
         "payload": {"family": "cycle", "params": [5]}},
    ]))
    monkeypatch.setenv("EQUIARBOR_CATALOG", str(manifest))
    code, out, _ = run(["survey"])
    assert code == 0
    data = json.loads(out)
    assert [e["graphName"] for e in data["entries"]] == ["C5"]
    assert data["entries"][0]["omega"] == "4/5"


def test_survey_empty_manifest(tmp_path):
    manifest = tmp_path / "empty.json"
    manifest.write_text("[]")
    code, out, _ = run(["survey", str(manifest)])
    assert code == 0
    assert json.loads(out)["summary"]["total"] == 0


def test_survey_unreadable_entry_fails_but_continues(tmp_path):
    manifest = tmp_path / "cat.json"
    manifest.write_text(json.dumps([
        {"name": "ok", "format": "generator",
         "payload": {"family": "cycle", "params": [5]}},
        {"name": "broken", "format": "graph6", "payload": "C~",
         "expected_regularity": 4},
    ]))
    code, out, _ = run(["survey", str(manifest)])
    assert code == 1
    data = json.loads(out)
    statuses = {e["graphName"]: e for e in data["entries"]}
    assert statuses["ok"]["equiarboreal"] is True
    assert "unreadable entry" in statuses["broken"]["notes"]
    assert data["summary"]["failed"] == 1


def test_survey_records_malformed_entries_and_completes(tmp_path):
    manifest = tmp_path / "cat.json"
    manifest.write_text(json.dumps([
        {"name": "x", "format": "graph6", "payload": 5},
        {"name": "y", "format": "generator", "payload": "cycle"},
        {"name": "z", "format": "edge-list", "payload": "2 1\n0 one\n"},
        {"name": 7, "format": "graph6", "payload": "C~"},
        {"name": "ok", "format": "generator",
         "payload": {"family": "cycle", "params": [5]}},
    ]))
    code, out, err = run(["survey", str(manifest)])
    assert code == 1
    assert "Traceback" not in err
    data = json.loads(out)
    entries = data["entries"]
    assert [e["graphName"] for e in entries] == ["x", "y", "z", "<unnamed>", "ok"]
    assert all(e["notes"].startswith("unreadable entry: ") for e in entries[:4])
    assert entries[4]["mainTheoremPass"] == "pass"
    assert (data["summary"]["failed"], data["summary"]["passed"]) == (4, 1)


@pytest.mark.parametrize("from_file", [False, True])
def test_survey_makes_one_survey_call(tmp_path, monkeypatch, from_file):
    monkeypatch.delenv("EQUIARBOR_CATALOG", raising=False)
    calls = []
    real = survey_module.survey

    def counting(items, *args, **kwargs):
        calls.append(items)
        return real(items, *args, **kwargs)

    monkeypatch.setattr(survey_module, "survey", counting)
    argv = ["--deterministic", "survey"]
    want = default_manifest()
    if from_file:
        want = want[:2]
        (tmp_path / "cat.json").write_text(json.dumps(want))
        argv.append(str(tmp_path / "cat.json"))
    code, out, _ = run(argv)
    assert code == 0
    assert calls == [want]
    assert json.loads(out)["summary"]["total"] == len(want)


def test_survey_reruns_are_byte_identical():
    _, first, _ = run(["--deterministic", "survey"])
    _, second, _ = run(["--deterministic", "survey"])
    assert first == second
    # Without the flag the only permitted difference is the timestamp.
    _, stamped_a, _ = run(["survey"])
    _, stamped_b, _ = run(["survey"])
    a, b = json.loads(stamped_a), json.loads(stamped_b)
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_graph_file_sniffing(tmp_path):
    from equiarbor.graphs import emit_graph6, format_edge_list

    g6 = tmp_path / "petersen.g6"
    g6.write_text(emit_graph6(generate("petersen")) + "\n")
    code, out, _ = run(["analyze", str(g6)])
    assert code == 0
    assert json.loads(out)["omega"] == "3/5"

    # The same graph through the multigraph edge-list format.
    el = tmp_path / "petersen.edges"
    el.write_text(format_edge_list(generate("petersen")))
    code, out2, _ = run(["analyze", str(el)])
    assert code == 0
    assert json.loads(out2) == json.loads(out)


def test_scheme_from_distance_file(tmp_path):
    from equiarbor.graphs import emit_graph6

    path = tmp_path / "c5.g6"
    path.write_text(emit_graph6(generate("cycle", (5,))))
    code, out, _ = run(["scheme", "--from-distance", str(path)])
    assert code == 0
    assert json.loads(out)["classCount"] == 2


def test_usage_errors_exit_two(capsys):
    # argparse's usage text reaches the stderr given to run_command.
    code, out, err = run(["nosuch"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: equiarbor [-h]")
    assert "equiarbor: error: argument command: invalid choice: 'nosuch'" in err
    code, _, err = run(["fxy", "5", "1"])
    assert code == 2
    assert err.startswith("usage: equiarbor fxy [-h] k x y\n")
    assert err.endswith("equiarbor fxy: error: the following arguments are "
                        "required: y\n")
    code, _, err = run([])
    assert code == 2 and "the following arguments are required: command" in err
    code, _, err = run(["--jobs", "2", "survey"])  # removed; surveys run in order
    assert code == 2 and "invalid choice: '2'" in err
    assert capsys.readouterr() == ("", "")


def test_help_reaches_the_given_stdout(capsys):
    code, out, err = run(["cut", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: equiarbor cut [-h]")
    assert "--enumerate" in out and "--classify" in out
    code, out, err = run(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: equiarbor [-h]")
    assert "--format" in out and "--deterministic" in out
    assert "limit" not in out  # the cut list's cap is fixed, not an option
    assert capsys.readouterr() == ("", "")


def test_consecutive_calls_share_no_parser_state():
    assert cli_module._parser() is cli_module._parser()
    code, out, _ = run(["cut", "--enumerate", "--family", "petersen"])
    assert code == 0 and "cuts" in json.loads(out)
    code, out, _ = run(["cut", "--family", "petersen"])
    assert code == 0 and "cuts" not in json.loads(out)
    code, out, _ = run(["--format", "text", "analyze", "--family", "petersen"])
    assert (code, out.splitlines()[0]) == (0, "equiarboreal: True")
    code, out, _ = run(["analyze", "--family", "petersen"])
    assert code == 0 and json.loads(out)["omega"] == "3/5"
    assert run(["cut", "--no-such-flag"])[0] == 2
    assert run(["fxy", "5", "1", "1"]) == (0, "3/7\n", "")


def test_the_cached_parser_is_built_through_the_public_builder(monkeypatch):
    # A wrapper put on build_parser, as a tracer does, sees the one build.
    builds = []
    original = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser",
                        lambda: builds.append(1) or original())
    cli_module._parser.cache_clear()
    try:
        assert run(["fxy", "5", "1", "1"])[0] == 0
        assert run(["fxy", "5", "1", "1"])[0] == 0
    finally:
        cli_module._parser.cache_clear()
    assert builds == [1]


def test_text_format_prints_nested_values_as_json():
    code, out, _ = run(["--format", "text", "analyze", "--family", "triangular_prism"])
    assert code == 0
    assert out == ("equiarboreal: False\n"
                   "omega: None\n"
                   'witness: {"edgeA":[0,1],"edgeB":[0,3],"valueA":"8/15","valueB":"3/5"}\n'
                   "godsilBound: None\n"
                   "lambda: 3\n")


def test_every_json_document_is_indented_json_dumps(tmp_path):
    # One writer prints every document; each must read back to the same bytes.
    table = tmp_path / "c5.scheme"
    table.write_text(format_scheme_table(scheme_from_distance_partition(generate("cycle", (5,)))))
    network = tmp_path / "path.json"
    network.write_text(dump_network(WeightedNetwork.from_resistances(
        3, [(0, 1, 1), (1, 2, 1)], terminals=(0, 2))))
    manifest = tmp_path / "cat.json"
    manifest.write_text(json.dumps([
        {"name": "ok", "format": "generator", "payload": {"family": "cycle", "params": [5]}},
        {"name": "broken", "format": "graph6", "payload": "C~", "expected_regularity": 4},
    ]))
    classify = ["--enumerate", "--classify"]
    calls = [
        (["analyze", "--family", "petersen"], 0),
        (["analyze", "--family", "triangular_prism"], 0),
        (["cut", "--family", "complete", "--params", "20", *classify], 0),
        (["cut", "--family", "johnson", "--params", "6", "3", *classify], 0),
        (["cut", "--family", "cycle", "--params", "12", *classify], 0),
        (["cut", "--family", "petersen", *classify], 0),
        (["cut", "--family", "star", "--params", "6", *classify], 0),
        (["scheme", str(table), "--verify-godsil"], 0),
        (["scheme", "--family", "triangular_prism", "--verify-godsil"], 1),
        (["matching", "--family", "petersen"], 0),
        (["matching", "--family", "star", "--params", "6"], 0),
        (["verify", "claims", "--k-range", "3..40"], 0),
        (["--deterministic", "survey"], 0),
        (["--deterministic", "survey", str(manifest)], 1),
        (["transform", "--bipartite", "3", "4"], 0),
        (["transform", str(network), "--eliminate", "1"], 0),
    ]
    for argv, want in calls:
        code, out, _ = run(argv)
        assert code == want, argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_analyze_refuses_an_over_limit_family_member_before_building_it(monkeypatch):
    def refuse(*params):
        pytest.fail("the over-limit member was built")

    size = graphs_module._FAMILIES["complete"][2]
    monkeypatch.setitem(graphs_module._FAMILIES, "complete", (refuse, 1, size))
    code, out, err = run(["analyze", "--family", "complete", "--params", "1000"])
    assert (code, out, err) == (2, "", "error: matrix exceeds the 512 soft size limit\n")
    # Generator limits are still checked first.
    code, _, err = run(["analyze", "--family", "complete", "--params", "300000"])
    assert code == 2 and "above the generator limits" in err
    monkeypatch.undo()
    # matching and cut need no Laplacian, so they keep accepting such members.
    code, out, _ = run(["matching", "--family", "star", "--params", "600"])
    assert code == 0 and json.loads(out)["hasPerfect"] is False


def test_missing_file_exits_two(tmp_path):
    code, _, err = run(["resist", str(tmp_path / "missing.json"), "0", "1"])
    assert code == 2
    assert "error" in err


_NOT_AN_OBJECT = "error: bad network JSON: the top level must be an object\n"


@pytest.mark.parametrize("network, message", [
    ({"vertices": 3, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2, "r": "1"}]}, None),
    ({"vertices": 3, "edges": 5}, None),
    ({"vertices": 3, "edges": [[0, 1, "1"], [1, 2, "1"]]}, None),
    ({"vertices": 3, "edges": [{"u": 0.5, "v": 1, "r": "1"}, {"u": 1, "v": 2, "r": "1"}]}, None),
    ({"vertices": 3, "edges": [{"u": 0, "v": "1", "r": "1"}, {"u": 1, "v": 2, "r": "1"}]}, None),
    ({"vertices": 3, "edges": [{"u": 0, "v": True, "r": "1"}, {"u": 1, "v": 2, "r": "1"}]}, None),
    ({"vertices": 3, "terminals": 5, "edges": [{"u": 0, "v": 1, "r": "1"}]}, None),
    ({"vertices": 3, "terminals": ["a"], "edges": [{"u": 0, "v": 1, "r": "1"}]}, None),
    ({"vertices": 3, "terminals": [0, 3], "edges": [{"u": 0, "v": 1, "r": "1"}]}, None),
    ({"vertices": 3, "terminals": [0, True], "edges": [{"u": 0, "v": 1, "r": "1"}]}, None),
    ({"vertices": 3.7, "edges": [{"u": 0, "v": 1, "r": "1"}, {"u": 1, "v": 2, "r": "1"}]}, None),
    ({"vertices": True, "edges": [{"u": 0, "v": 1, "r": "1"}]}, None),
    ({"vertices": "3", "edges": [{"u": 0, "v": 1, "r": "1"}, {"u": 1, "v": 2, "r": "1"}]}, None),
    ({"vertices": -1, "edges": []}, None),
    ({"vertices": 10**9, "edges": [{"u": 0, "v": 1, "r": "1"}, {"u": 1, "v": 2, "r": "1"}]}, None),
    ([1, 2], _NOT_AN_OBJECT),
    ("x", _NOT_AN_OBJECT),
    (3, _NOT_AN_OBJECT),
    (None, _NOT_AN_OBJECT),
    ({"vertices": 3}, "error: bad network JSON: missing key 'edges'\n"),
    ({"edges": []}, "error: bad network JSON: missing key 'vertices'\n"),
], ids=["missing-r", "edges-int", "edges-lists", "float-u", "string-v", "bool-v",
        "terminals-int", "terminals-string", "terminal-out-of-range", "terminal-bool",
        "vertices-float", "vertices-bool", "vertices-string", "vertices-negative",
        "vertices-huge", "top-level-list", "top-level-string", "top-level-number",
        "top-level-null", "edges-missing", "vertices-missing"])
def test_malformed_network_json_exits_two(tmp_path, network, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(network))
    for argv in (["resist", str(path), "0", "2"], ["transform", str(path), "--eliminate", "1"]):
        code, out, err = run(argv)
        assert code == 2
        assert out == ""
        assert "bad network JSON" in err
        assert message is None or err == message
