"""Input checks no other test reaches: each refusal's exception class and
message, and for the CLI its exit code 2 and stderr line."""

import io
import json
from fractions import Fraction

import pytest

from equiarbor import cuts, equiarboreal, graphs, schemes, transform
from equiarbor.cli import run_command
from equiarbor.errors import Graph6ParseError, ParameterError
from equiarbor.graphs import Graph, generate
from equiarbor.resistance import (
    WeightedNetwork,
    network_from_json_dict,
    resistance,
    spanning_tree_count,
    w_sum,
)

import oracles

EDGE = WeightedNetwork(3, {(0, 1): 1})  # vertex 2 is isolated


@pytest.mark.parametrize("argv, files, message", [
    (["analyze"], {}, "either a graph file or --family is required"),
    (["transform", "--eliminate", "1"], {}, "--eliminate needs a network file"),
    (["scheme"], {}, "a scheme table file or --from-distance is required"),
    (["verify", "claims", "--k-range", "7-40"], {}, "bad --k-range '7-40'; expected A..B"),
    # Refused before any degree is checked: 7..200000 would write 20 MB of JSON.
    (["verify", "claims", "--k-range", "7..200000"], {},
     "--k-range 7..200000 holds 199994 degrees, above the verify limit 100000"),
    (["survey", "manifest.json"], {"manifest.json": '{"graphs": []}'},
     "manifest must be a JSON array"),
    (["resist", "bad_r.json", "0", "1"],
     {"bad_r.json": json.dumps({"vertices": 2, "edges": [{"u": 0, "v": 1, "r": "x"}]})},
     "not a rational literal: 'x'"),
    (["cut", "p65.txt", "--enumerate", "--classify"], {"p65.txt": "2 65\n" + "0 1\n" * 65},
     "lambda = 65 exceeds the classification limit 64"),
    # A star has one class, so only the point limit refuses it, before the
    # n x n distance table is built.
    (["scheme", "--family", "star", "--params", "4800"], {},
     "4800 points exceed the scheme point limit 512"),
], ids=["no-graph", "eliminate-without-network", "scheme-without-input",
        "k-range-without-dots", "k-range-above-limit", "manifest-object", "network-r-unparsable",
        "classify-above-lambda-64", "scheme-above-512-points"])
def test_cli_refusal_exits_two(tmp_path, monkeypatch, argv, files, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    assert run_command(argv, out, err) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"error: {message}\n")


@pytest.mark.parametrize("call, error, message", [
    # graphs
    (lambda: Graph(-1), ParameterError, "negative vertex count"),
    (lambda: generate("complete", (0,)), ParameterError, "complete(n) needs n >= 1"),
    (lambda: generate("cycle", (2,)), ParameterError, "cycle(n) needs n >= 3"),
    (lambda: generate("star", (1,)), ParameterError, "star(n) needs n >= 2"),
    (lambda: generate("double_star", (0, 1)), ParameterError,
     "double_star(m, n) needs m, n >= 1"),
    (lambda: generate("hypercube", (0,)), ParameterError, "hypercube(d) needs d >= 1"),
    (lambda: graphs.parse_graph6("~~~~"), Graph6ParseError,
     "graphs above 258047 vertices are unsupported (byte offset 1)"),
    (lambda: graphs.parse_graph6("~??"), Graph6ParseError,
     "truncated extended header (byte offset 3)"),
    (lambda: graphs.parse_graph6("~? ?"), Graph6ParseError,
     "bad header byte 32 (byte offset 2)"),
    # The largest 4-byte header decodes to 258047 vertices, the supported top.
    (lambda: graphs.parse_graph6("~}~~"), Graph6ParseError,
     "bit vector needs 5548999681 bytes, found 0 (byte offset 4)"),
    (lambda: graphs.parse_graph6("A!"), Graph6ParseError, "bad body byte 33 (byte offset 1)"),
    # A non-ASCII character is refused where it stands, before the header is
    # read, so it cannot pass for "?" (63), which is a valid byte.
    (lambda: graphs.parse_graph6("C\u00e9"), Graph6ParseError,
     "non-ASCII character '\u00e9' (byte offset 1)"),
    (lambda: graphs.parse_graph6("\u00e9"), Graph6ParseError,
     "non-ASCII character '\u00e9' (byte offset 0)"),
    (lambda: graphs.emit_graph6(Graph(2, [(0, 1, 2)])), ParameterError,
     "graph6 cannot encode multiplicities"),
    (lambda: graphs.emit_graph6(Graph(258048)), ParameterError,
     "vertex count 258048 above supported range"),
    (lambda: graphs.parse_edge_list("3 1\n0 1 2\n"), ParameterError,
     "bad edge line '0 1 2'"),
    (lambda: graphs.identify_vertices(generate("cycle", (5,)), [{0, 1}, set()]),
     ParameterError, "empty identification group"),
    (lambda: graphs.identify_vertices(generate("cycle", (5,)), [{0, 5}]),
     ParameterError, "vertex 5 out of range"),
    # resistance
    # Two loop entries that cancel would leave the constructor no loop to see.
    (lambda: WeightedNetwork.from_resistances(3, [(0, 1, 1), (2, 2, 1), (2, 2, -1)]),
     ParameterError, "loop at vertex 2"),
    (lambda: spanning_tree_count(Graph(0)), ParameterError,
     "spanning trees of the empty graph are undefined"),
    (lambda: resistance(EDGE, 0, 3), ParameterError,
     "probe vertex out of range 0..2"),
    (lambda: resistance(EDGE, -1, 1), ParameterError,
     "probe vertex out of range 0..2"),
    (lambda: w_sum(EDGE, 3), ParameterError, "vertex 3 out of range"),
    (lambda: network_from_json_dict(
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "r": "1/0"}]}), ParameterError,
     "zero denominator: '1/0'"),
    # schemes
    (lambda: schemes.scheme_from_distance_partition(Graph(2, [(0, 1, 2)])),
     ParameterError, "distance partition needs a simple graph"),
    (lambda: schemes.parse_scheme_table("2 1\n0 1\n0 0\n"), ParameterError,
     "row 1 should list 1 upper-triangular entries"),
    (lambda: schemes.parse_scheme_table("2 2\n0 1\n0\n"), ParameterError,
     "header declares 2 classes but the table uses 1"),
    # transform
    (lambda: transform.eliminate_vertex(EDGE, 3), ParameterError, "vertex 3 out of range"),
    # cuts
    (lambda: cuts.minimum_cuts(Graph(1)), ParameterError,
     "minimum cuts need at least 2 vertices"),
    (lambda: cuts.cuts_up_to(generate("petersen"), 4), ParameterError,
     "only minimum cuts are enumerated; 4 exceeds lambda = 3"),
    # equiarboreal
    (lambda: equiarboreal.EquiarborealVerdict(True, None, None), ParameterError,
     "positive verdict must carry omega only"),
    (lambda: equiarboreal.EquiarborealVerdict(
        True, Fraction(1), ((0, 1), (1, 2), Fraction(1), Fraction(2))), ParameterError,
     "positive verdict must carry omega only"),
    (lambda: equiarboreal.EquiarborealVerdict(False, None, None), ParameterError,
     "negative verdict must carry a witness"),
], ids=["graph-negative", "complete-0", "cycle-2", "star-1", "double-star-0-1",
        "hypercube-0", "graph6-eight-byte-header", "graph6-truncated-extended-header", "graph6-bad-extended-header-byte",
        "graph6-largest-header", "graph6-bad-body-byte", "graph6-non-ascii-body",
        "graph6-non-ascii-header", "emit-graph6-multigraph", "emit-graph6-too-large",
        "edge-list-bad-line", "identify-empty-group", "identify-out-of-range",
        "from-resistances-loop", "spanning-trees-empty", "probe-above-range",
        "probe-below-range", "w-sum-out-of-range", "network-json-zero-denominator",
        "distance-partition-multigraph", "scheme-row-length", "scheme-class-count",
        "eliminate-out-of-range", "minimum-cuts-one-vertex", "cuts-up-to-above-lambda",
        "positive-verdict-without-omega", "positive-verdict-with-witness",
        "negative-verdict-without-witness"])
def test_library_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("command", ["matching", "analyze"])
def test_cli_refuses_a_non_ascii_graph6_file(tmp_path, command):
    path = tmp_path / "bad.g6"
    path.write_text("C\u00e9\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run_command([command, str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == (
        "", "error: non-ASCII character '\u00e9' (byte offset 1)\n")


def test_graph6_prefix_is_stripped():
    assert graphs.parse_graph6(">>graph6<<C~") == generate("complete", (4,))
    assert graphs.parse_graph6(">>graph6<<C~\n") == graphs.parse_graph6("C~")


def test_s_equivalent_reports_a_disconnected_terminal_pair():
    # Infinite resistance is a value of its own: None in the witness.
    path = WeightedNetwork(3, {(0, 1): 1, (1, 2): 1})
    assert oracles.s_equivalent(EDGE, EDGE, [0, 2]) == oracles.SEquivalence(True, None)
    assert oracles.s_equivalent(EDGE, path, [0, 2]) == oracles.SEquivalence(
        False, (0, 2, None, Fraction(2)))
