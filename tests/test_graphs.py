"""Multigraph core: generators, graph6 codec, identification."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor.errors import EquiarborError, Graph6ParseError, ParameterError
from equiarbor.graphs import (
    Graph,
    emit_graph6,
    format_edge_list,
    generate,
    identify_vertices,
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
