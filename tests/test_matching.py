"""Perfect matchings and Tutte barriers against the exhaustive-search and
networkx oracles."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings

from equiarbor import matching
from equiarbor.catalog import default_catalog
from equiarbor.errors import VerificationError
from equiarbor.graphs import Graph, generate
from equiarbor.matching import has_perfect_matching, maximum_matching

import oracles

#: Greedy in vertex order matches 0-1, 2-3 and 4-5 and leaves 6 and 7
#: exposed; the only augmenting path, 6-0=1-3=2-4=5-7, runs round the
#: triangle {1, 2, 3}, so it is found only after that blossom is shrunk.
BLOSSOM_PATH = Graph(8, [(0, 1), (0, 6), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5), (5, 7)])

#: K1,3 beside an edge: D = {1, 2, 3}, barrier {0}; the edge 4-5 lies in
#: neither D nor the barrier.
STAR_AND_EDGE = Graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])


def _tutte_berge_deficiency(g, barrier):
    """odd(G - U) - |U|, recounted with networkx components."""
    ref = oracles.to_networkx(g)
    ref.remove_nodes_from(barrier)
    return sum(len(c) % 2 for c in nx.connected_components(ref)) - len(barrier)


def _check_witnesses(g, pairs, barrier):
    """Disjoint graph edges, sorted with u < v; a barrier exactly when the
    matching is not perfect, meeting the Tutte-Berge equality."""
    ends = [v for e in pairs for v in e]
    assert len(ends) == len(set(ends))
    assert all(u < v and g.has_edge(u, v) for u, v in pairs)
    assert list(pairs) == sorted(pairs)
    if 2 * len(pairs) == g.vertex_count:
        assert barrier is None
    else:
        assert list(barrier) == sorted(set(barrier))
        assert _tutte_berge_deficiency(g, barrier) == g.vertex_count - 2 * len(pairs)


def test_complete_graph():
    result = has_perfect_matching(generate("complete", (4,)))
    assert result.has_perfect
    assert len(result.matching) == 2


def test_petersen():
    result = has_perfect_matching(generate("petersen"))
    assert result.has_perfect
    covered = sorted(v for e in result.matching for v in e)
    assert covered == list(range(10))
    assert oracles.exhaustive_max_matching_size(generate("petersen")) == 5


def test_odd_order_is_immediate():
    result = has_perfect_matching(generate("cycle", (5,)))
    assert not result.has_perfect
    assert result.matching is None
    assert result.barrier == ()


def test_even_order_without_perfect_matching():
    # A star has maximum matching size 1; its centre is the barrier.
    for order in (4, 6):
        result = has_perfect_matching(generate("star", (order,)))
        assert (result.has_perfect, result.matching, result.barrier) == (False, None, (0,))


def test_matching_edges_are_graph_edges():
    for family, params in [("petersen", ()), ("hypercube", (3,)),
                           ("complete_bipartite", (3, 3))]:
        g = generate(family, params)
        for (u, v) in maximum_matching(g):
            assert g.has_edge(u, v)


def test_maximum_matching_size_against_exhaustive_oracle():
    rng = random.Random(41)
    for _ in range(30):
        g = oracles.random_connected_graph(rng, rng.randint(2, 10))
        assert len(maximum_matching(g)) == oracles.exhaustive_max_matching_size(g)
    # Also a couple of disconnected graphs.
    g = Graph(6, [(0, 1), (2, 3)])
    assert len(maximum_matching(g)) == 2 == oracles.exhaustive_max_matching_size(g)


@settings(max_examples=300, deadline=None)
@given(oracles.multigraphs(max_vertices=14))
def test_matching_and_barrier_against_oracles(g):
    pairs, barrier = matching._matching_and_barrier(g)
    assert len(pairs) == oracles.networkx_max_matching_size(g)
    if g.vertex_count <= 10:
        assert len(pairs) == oracles.exhaustive_max_matching_size(g)
    _check_witnesses(g, pairs, barrier)


@pytest.mark.parametrize("g,search_barrier", [
    (generate("cycle", (5,)), ()), (generate("complete", (7,)), ()), (Graph(1), ()),
    # The shortcut's empty barrier is valid, but the search finds the tight one.
    (generate("star", (5,)), (0,)),
], ids=["C5", "K7", "K1", "S5"])
def test_odd_order_search_barrier(g, search_barrier):
    # The shortcut's empty barrier proves no perfect matching.
    assert has_perfect_matching(g).barrier == ()
    assert _tutte_berge_deficiency(g, ()) > 0
    pairs, barrier = matching._matching_and_barrier(g)
    assert barrier == search_barrier
    _check_witnesses(g, pairs, barrier)


def test_empty_graph():
    assert maximum_matching(Graph(0)) == ()
    assert has_perfect_matching(Graph(0)) == matching.MatchingResult(True, (), None)


def test_two_disjoint_triangles():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    result = has_perfect_matching(g)
    assert (result.has_perfect, result.barrier) == (False, ())
    assert len(maximum_matching(g)) == 2


def test_star_beside_an_edge():
    pairs, barrier = matching._matching_and_barrier(STAR_AND_EDGE)
    assert (len(pairs), barrier) == (2, (0,))
    _check_witnesses(STAR_AND_EDGE, pairs, barrier)


def test_petersen_with_doubled_edges():
    g = Graph(10, [(u, v, 2) for (u, v), _ in generate("petersen").edge_items()])
    result = has_perfect_matching(g)
    assert result.has_perfect and result.barrier is None
    _check_witnesses(g, result.matching, None)


def test_augmenting_path_through_a_blossom():
    result = has_perfect_matching(BLOSSOM_PATH)
    assert result.matching == ((0, 6), (1, 3), (2, 4), (5, 7))


@pytest.mark.parametrize("entry", default_catalog(), ids=lambda e: e.name)
def test_catalog_member_against_networkx(entry):
    g = entry.graph
    pairs, barrier = matching._matching_and_barrier(g)
    assert len(pairs) == oracles.networkx_max_matching_size(g)
    _check_witnesses(g, pairs, barrier)
    result = has_perfect_matching(g)
    assert result.has_perfect == (barrier is None)
    assert result.matching == (pairs if barrier is None else None)
    if not result.has_perfect:
        assert _tutte_berge_deficiency(g, result.barrier) > 0


@pytest.mark.parametrize("old,new", [
    # No blossom is shrunk.
    ("bases = _mark(", "continue\n                bases = _mark("),
    # No path is augmented: the greedy matching comes back.
    ("_flip(mate, parent, v, w)\n", "continue\n"),
    # The barrier taken as V - D instead of N(D) - D.
    ("barrier = {w for v in range(n) if even[v] for w in adj[v] if not even[w]}",
     "barrier = {v for v in range(n) if not even[v]}"),
])
def test_mutant_fails_its_witness_check(monkeypatch, old, new):
    # The witness checks raise, also under python -O, when the search is broken.
    mutant = oracles.mutant_module(monkeypatch, matching, old, new)
    with pytest.raises(VerificationError):
        for g in (BLOSSOM_PATH, STAR_AND_EDGE):
            mutant.maximum_matching(g)
