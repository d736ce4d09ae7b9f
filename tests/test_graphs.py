"""Multigraph core: generators, graph6 codec, identification."""

import io
import random
import threading
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor.errors import EquiarborError, Graph6ParseError, ParameterError, ScaleError
from equiarbor import exactalg as exactalg_module
from equiarbor import graphs as graphs_module
from equiarbor.cli import run_command
from equiarbor.equiarboreal import check_equiarboreal
from equiarbor.graphs import (
    Graph,
    emit_graph6,
    fact_scope,
    format_edge_list,
    generate,
    identify_vertices,
    memoized,
    parse_edge_list,
    parse_graph6,
)

import oracles


def test_graph_rejects_loops_and_bad_indices():
    with pytest.raises(ParameterError):
        Graph(3, [(1, 1)])
    with pytest.raises(ParameterError):
        Graph(3, [(0, 3)])
    with pytest.raises(ParameterError):
        Graph(3, [(0, 1, 0)])


def test_multiplicity_accumulates():
    g = Graph(3, [(0, 1), (1, 0), (1, 2, 3)])
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(2, 1) == 3
    assert g.edge_count == 5
    assert g.degree(1) == 5
    assert not g.is_simple


def test_multiplicity_of_a_vertex_with_itself_is_zero():
    # The constructor refuses loops, so no (u, u) entry is ever stored.
    g = Graph(3, [(0, 1), (1, 2, 3)])
    assert [g.multiplicity(u, u) for u in range(3)] == [0, 0, 0]
    assert not g.has_edge(1, 1)


def test_graphs_below_two_vertices_are_connected():
    assert Graph(0).is_connected() and Graph(0).components() == []
    assert Graph(1).is_connected()
    assert not Graph(2).is_connected()


@pytest.mark.parametrize("family,params,n,m,k", [
    ("complete", (4,), 4, 6, 3),
    ("complete", (5,), 5, 10, 4),
    ("complete_bipartite", (3, 3), 6, 9, 3),
    ("cycle", (5,), 5, 5, 2),
    ("star", (5,), 5, 4, None),
    ("double_star", (2, 3), 7, 6, None),
    ("hypercube", (3,), 8, 12, 3),
    ("hypercube", (4,), 16, 32, 4),
    ("petersen", (), 10, 15, 3),
    ("triangular_prism", (), 6, 9, 3),
    ("hamming", (2, 3), 9, 18, 4),
    ("hamming", (3, 2), 8, 12, 3),
    ("johnson", (4, 2), 6, 12, 4),
    ("johnson", (5, 2), 10, 30, 6),
])
def test_generator_families(family, params, n, m, k):
    g = generate(family, params)
    assert g.vertex_count == n
    assert g.edge_count == m
    assert g.is_regular() == k
    assert g.is_connected()
    assert g.is_simple


def test_hamming_2_3_matches_rooks_graph():
    # Brute force from the definition: digits differ in one coordinate.
    g = generate("hamming", (2, 3))
    for u in range(9):
        for v in range(u + 1, 9):
            du, dv = divmod(u, 3), divmod(v, 3)
            expected = sum(1 for a, b in zip(du, dv) if a != b) == 1
            assert g.has_edge(u, v) == expected


def test_hamming_and_johnson_match_their_definitions():
    # H(d, q): base-q strings in lexicographic order, adjacent at Hamming
    # distance 1.  J(n, k): k-subsets in lexicographic order, adjacent when
    # they meet in k - 1 points.
    for d in range(1, 5):
        for q in range(2, 6):
            words = list(product(range(q), repeat=d))
            assert generate("hamming", (d, q)).edge_items() == [
                ((u, v), 1) for u, v in combinations(range(len(words)), 2)
                if sum(a != b for a, b in zip(words[u], words[v])) == 1]
    for n in range(1, 10):
        for k in range(1, n + 1):
            subsets = [set(c) for c in combinations(range(n), k)]
            assert generate("johnson", (n, k)).edge_items() == [
                ((i, j), 1) for i, j in combinations(range(len(subsets)), 2)
                if len(subsets[i] & subsets[j]) == k - 1]


def test_generator_size_is_checked_before_building(monkeypatch):
    built = []
    for family, (_, arity, size) in list(graphs_module._FAMILIES.items()):
        def stub(*params, family=family):
            built.append((family, params))
            return Graph(1)
        monkeypatch.setitem(graphs_module._FAMILIES, family, (stub, arity, size))

    generate("complete", (1414,))                 # 998,991 edges
    generate("cycle", (258047,))                  # the graph6 vertex limit
    generate("hamming", (16, 2))                  # 65,536 vertices, 524,288 edges
    generate("johnson", (258047, 258047))         # one vertex
    assert [family for family, _ in built] == ["complete", "cycle", "hamming", "johnson"]
    for family, params in [("complete", (1415,)), ("cycle", (258048,)),
                           ("hypercube", (17,)), ("hamming", (40, 2)),
                           ("johnson", (60, 30)), ("johnson", (258048, 258048)),
                           ("hypercube", (10 ** 9,)), ("hamming", (10 ** 9, 10 ** 9)),
                           ("complete_bipartite", (1, 10 ** 6 + 1))]:
        with pytest.raises(ScaleError):
            generate(family, params)
    err = io.StringIO()
    assert run_command(["analyze", "--family", "complete", "--params", "5000"],
                       io.StringIO(), err) == 2
    assert "generator limits" in err.getvalue()
    assert len(built) == 4


def test_generator_parameter_errors_win_over_size():
    # A parameter below 1 is the builder's to reject, however large the rest.
    for family, params in [("hamming", (10 ** 9, 1)), ("johnson", (10 ** 9, 0)),
                           ("complete_bipartite", (0, 10 ** 9))]:
        with pytest.raises(ParameterError):
            generate(family, params)


def test_johnson_degree_formula():
    # J(n, k) is k(n-k)-regular.
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        assert generate("johnson", (n, k)).is_regular() == k * (n - k)


def test_generate_errors():
    with pytest.raises(ParameterError):
        generate("nosuch", ())
    with pytest.raises(ParameterError):
        generate("johnson", (3, 4))
    with pytest.raises(ParameterError):
        generate("petersen", (1,))


def test_degree_sum_is_twice_edge_count():
    for family, params in [("petersen", ()), ("hamming", (2, 3)),
                           ("johnson", (5, 2)), ("double_star", (3, 4))]:
        g = generate(family, params)
        assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count


# ---------------------------------------------------------------------------
# graph6


def test_parse_graph6_k4():
    g = parse_graph6("C~")
    assert g == generate("complete", (4,))


def test_parse_graph6_single_vertex():
    g = parse_graph6("@")
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_parse_graph6_truncated():
    with pytest.raises(Graph6ParseError):
        parse_graph6("D~")  # 5 vertices need 2 body bytes


def test_parse_graph6_nonzero_padding():
    with pytest.raises(Graph6ParseError):
        parse_graph6("B" + chr(63 + 1))  # n=3 uses 3 bits; padding must be 0


def test_graph6_roundtrip_catalog():
    for family, params in [("complete", (4,)), ("cycle", (6,)),
                           ("petersen", ()), ("hypercube", (4,)),
                           ("johnson", (5, 2)), ("star", (5,))]:
        g = generate(family, params)
        s = emit_graph6(g)
        assert parse_graph6(s) == g
        assert emit_graph6(parse_graph6(s)) == s


def test_graph6_against_reference_codec():
    rng = random.Random(7)
    for _ in range(25):
        g = oracles.random_connected_graph(rng, rng.randint(1, 12))
        ours = emit_graph6(g)
        ref = nx.from_graph6_bytes(ours.encode("ascii"))
        assert set(ref.nodes) == set(range(g.vertex_count))
        assert {tuple(sorted(e)) for e in ref.edges} == {
            e for e, _ in g.edge_items()}
        # And the reference emitter agrees byte for byte.
        ref_bytes = nx.to_graph6_bytes(ref, header=False).strip()
        assert ref_bytes.decode("ascii") == ours


def test_graph6_header_boundary():
    g = Graph(63, [(0, 1)])
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


# ---------------------------------------------------------------------------
# Edge-list text format


def test_edge_list_roundtrip_with_multiplicity():
    g = Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
    text = format_edge_list(g)
    assert text.splitlines()[0] == "4 4"
    assert parse_edge_list(text) == g


def test_edge_list_header_mismatch():
    with pytest.raises(ParameterError):
        parse_edge_list("3 2\n0 1\n")


# ---------------------------------------------------------------------------
# Vertex identification


def test_identify_triangle_edge():
    k3 = generate("complete", (3,))
    merged, mapping = identify_vertices(k3, [{0, 1}])
    assert merged.vertex_count == 2
    assert merged.multiplicity(0, 1) == 2
    assert mapping == (0, 0, 1)


def test_identify_c4_opposite_vertices():
    c4 = generate("cycle", (4,))
    merged, _ = identify_vertices(c4, [{0, 2}])
    assert merged.vertex_count == 3
    assert merged.edge_count == 4
    assert oracles.tau_deletion_contraction(merged) == 4


def test_identify_petersen_edge_ratio():
    from fractions import Fraction

    p = generate("petersen")
    merged, _ = identify_vertices(p, [{0, 1}])
    assert merged.vertex_count == 9
    tau_merged = oracles.tau_deletion_contraction(merged)
    tau = oracles.tau_deletion_contraction(p)
    assert Fraction(tau_merged, tau) == Fraction(3, 5)


def test_identify_rejects_overlap():
    with pytest.raises(ParameterError):
        identify_vertices(generate("cycle", (5,)), [{0, 1}, {1, 2}])


def test_identify_preserves_multiplicity_minus_loops():
    rng = random.Random(11)
    for _ in range(30):
        g = oracles.random_connected_graph(rng, rng.randint(3, 9))
        verts = list(range(g.vertex_count))
        rng.shuffle(verts)
        group = set(verts[:rng.randint(2, max(2, g.vertex_count // 2))])
        merged, mapping = identify_vertices(g, [group])
        loops = sum(m for (u, v), m in g.edge_items()
                    if mapping[u] == mapping[v])
        assert merged.edge_count == g.edge_count - loops


@settings(max_examples=200, deadline=None)
@given(oracles.multigraphs())
def test_components_and_neighbours_agree_with_networkx(g):
    multigraph = nx.MultiGraph()
    multigraph.add_nodes_from(range(g.vertex_count))
    multigraph.add_edges_from(g.edge_list())
    expected = sorted(map(frozenset, nx.connected_components(multigraph)), key=min)
    net = oracles.network_from_graph(g)
    assert g.components() == expected
    assert net.components() == expected
    for u in range(-1, g.vertex_count + 1):      # no neighbours out of range
        scan = tuple(sorted(b if a == u else a for (a, b), _ in g.edge_items()
                            if u in (a, b)))
        assert g.neighbors(u) == net.neighbors(u) == scan


@settings(max_examples=200, deadline=None)
@given(oracles.multigraphs())
def test_distances_agree_with_networkx(g):
    multigraph = nx.MultiGraph()
    multigraph.add_nodes_from(range(g.vertex_count))
    multigraph.add_edges_from(g.edge_list())
    for s in range(g.vertex_count):
        lengths = nx.single_source_shortest_path_length(multigraph, s)
        assert g.distances(s) == [lengths.get(v, -1) for v in range(g.vertex_count)]


def test_graphs_and_networks_are_unequal_to_other_types():
    # Each __eq__ declines a foreign type, so equality falls back to identity.
    g = generate("cycle", (3,))
    net = oracles.network_from_graph(g)
    assert g.__eq__(net) is NotImplemented and net.__eq__(g) is NotImplemented
    assert g != net and net != g and g != "C3"


# ---------------------------------------------------------------------------
# Parser fuzzing: parse, or raise EquiarborError; nothing else escapes.

_graph6_like = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=130),
                       max_size=24)
_edge_list_like = st.lists(
    st.lists(st.one_of(st.integers(-2, 12).map(str), st.text(max_size=3)),
             max_size=3).map(" ".join),
    max_size=8).map("\n".join)


def _parses_or_rejects(parse, text):
    try:
        assert isinstance(parse(text), Graph)
    except EquiarborError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _graph6_like))
def test_parse_graph6_fuzz(text):
    _parses_or_rejects(parse_graph6, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), _edge_list_like))
def test_parse_edge_list_fuzz(text):
    _parses_or_rejects(parse_edge_list, text)


def test_parse_edge_list_rejects_non_integers_and_huge_counts():
    for text in ("3 x\n", "3 1\n0 one\n", "2.5 0\n", "9999999999 0\n"):
        with pytest.raises(ParameterError):
            parse_edge_list(text)


def test_facts_are_cached_only_inside_a_scope():
    calls = []

    @memoized
    def fact(g):
        calls.append(g)
        if len(calls) == 1:
            raise ParameterError("first call fails")
        return g.edge_count

    c5 = generate("cycle", (5,))
    relabelled_c5 = Graph(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])
    with fact_scope():
        with pytest.raises(ParameterError):
            fact(c5)                          # exceptions are not cached
        assert fact(c5) == fact(relabelled_c5) == 5
        assert len(calls) == 2
        with fact_scope():                    # a nested scope starts empty
            fact(c5)
        assert len(calls) == 3
        fact(c5)
        worker = threading.Thread(target=fact, args=(c5,))
        worker.start()                        # a thread starts outside any scope
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(calls) == 4
    fact(c5)
    fact(c5)
    assert len(calls) == 6


def test_library_calls_outside_a_scope_recompute(monkeypatch):
    inverted = []
    real = exactalg_module.integer_solve

    def counting(rows, what):
        inverted.append([row[:len(rows)] for row in rows])
        return real(rows, what)

    monkeypatch.setattr(exactalg_module, "integer_solve", counting)
    g = generate("petersen")
    assert check_equiarboreal(g) == check_equiarboreal(g)
    assert len(inverted) == 2
    with fact_scope():
        assert check_equiarboreal(g) is check_equiarboreal(g)
    assert len(inverted) == 3
