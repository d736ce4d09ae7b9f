"""Every connected graph of networkx's atlas on 2..7 vertices, against the
brute-force oracles: lambda and the minimum cuts, the equiarboreal verdict
with its omega and witness, the matching size with the Tutte-Berge barrier,
and the distance-partition scheme verdict.  The paper's theorem is checked
on each connected regular equiarboreal one."""

import networkx as nx

from equiarbor.cuts import edge_connectivity, minimum_cuts
from equiarbor.equiarboreal import check_equiarboreal
from equiarbor.graphs import Graph
from equiarbor.matching import has_perfect_matching, maximum_matching
from equiarbor.schemes import distance_table, scheme_from_distance_partition

import oracles


def _connected_atlas_graphs() -> list[Graph]:
    return [Graph(ref.number_of_nodes(), list(ref.edges()))
            for ref in nx.graph_atlas_g()
            if ref.number_of_nodes() >= 2 and nx.is_connected(ref)]


def _odd_components_without(g: Graph, barrier) -> int:
    ref = oracles.to_networkx(g)
    ref.remove_nodes_from(barrier)
    return sum(len(c) % 2 for c in nx.connected_components(ref))


def test_atlas_census():
    graphs = _connected_atlas_graphs()
    equiarboreal, barriers, schemes = [], 0, 0
    for g in graphs:
        assert edge_connectivity(g) == oracles.brute_force_edge_connectivity(g)
        assert [c.side_a for c in minimum_cuts(g)] == sorted(
            oracles.brute_force_min_cut_sides(g), key=lambda a: (len(a), sorted(a)))
        verdict = check_equiarboreal(g)
        assert verdict == oracles.fraction_check_equiarboreal(g)
        size = oracles.exhaustive_max_matching_size(g)
        assert len(maximum_matching(g)) == size
        result = has_perfect_matching(g)
        if g.vertex_count % 2 == 0 and not result.has_perfect:
            # Tutte-Berge: the barrier U proves the matching maximum.
            assert (_odd_components_without(g, result.barrier) - len(result.barrier)
                    == g.vertex_count - 2 * size)
            barriers += 1
        is_scheme = scheme_from_distance_partition(g) is not None
        assert is_scheme == oracles.scan_verify_scheme(distance_table(g)).valid
        schemes += is_scheme
        if verdict.is_equiarboreal:
            equiarboreal.append(g)
    regular = [g for g in equiarboreal if g.is_regular() is not None]
    for g in regular:
        # The paper's theorem: lambda = k, and a perfect matching at even n.
        assert edge_connectivity(g) == g.is_regular()
        if g.vertex_count % 2 == 0:
            assert has_perfect_matching(g).has_perfect
    assert (len(graphs), len(equiarboreal), len(regular)) == (995, 48, 12)
    assert (barriers, schemes) == (18, 12)
