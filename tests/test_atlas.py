"""Every connected graph of networkx's atlas on 2..7 vertices, against the
brute-force oracles, and the paper's theorem on each connected regular
equiarboreal one."""

import networkx as nx

from equiarbor.cuts import edge_connectivity, minimum_cuts
from equiarbor.equiarboreal import check_equiarboreal
from equiarbor.graphs import Graph
from equiarbor.matching import has_perfect_matching

import oracles


def _connected_atlas_graphs() -> list[Graph]:
    return [Graph(ref.number_of_nodes(), list(ref.edges()))
            for ref in nx.graph_atlas_g()
            if ref.number_of_nodes() >= 2 and nx.is_connected(ref)]


def test_atlas_census():
    graphs = _connected_atlas_graphs()
    equiarboreal = []
    for g in graphs:
        assert edge_connectivity(g) == oracles.brute_force_edge_connectivity(g)
        assert [c.side_a for c in minimum_cuts(g)] == sorted(
            oracles.brute_force_min_cut_sides(g), key=lambda a: (len(a), sorted(a)))
        if check_equiarboreal(g).is_equiarboreal:
            equiarboreal.append(g)
    regular = [g for g in equiarboreal if g.is_regular() is not None]
    for g in regular:
        # The paper's theorem: lambda = k, and a perfect matching at even n.
        assert edge_connectivity(g) == g.is_regular()
        if g.vertex_count % 2 == 0:
            assert has_perfect_matching(g).has_perfect
    assert (len(graphs), len(equiarboreal), len(regular)) == (995, 48, 12)
