"""Equiarboreality verdicts and the spanning-tree connectivity bound."""

from fractions import Fraction

import pytest

from equiarbor.cuts import godsil_bound_check
from equiarbor.equiarboreal import check_equiarboreal
from equiarbor.errors import ConnectivityError, ParameterError, PreconditionError
from equiarbor.graphs import Graph, generate
from equiarbor.resistance import tree_ratio_resistance


def test_petersen_is_equiarboreal():
    verdict = check_equiarboreal(generate("petersen"))
    assert verdict.is_equiarboreal
    assert verdict.omega == Fraction(3, 5)
    assert verdict.witness is None


def test_triangular_prism_is_not():
    verdict = check_equiarboreal(generate("triangular_prism"))
    assert not verdict.is_equiarboreal
    edge_a, edge_b, val_a, val_b = verdict.witness
    # A triangle edge against a rung, in lexicographic order.
    assert edge_a == (0, 1) and edge_b == (0, 3)
    assert val_a == Fraction(8, 15) and val_b == Fraction(3, 5)


def test_trees_are_equiarboreal():
    for family, params in [("star", (6,)), ("double_star", (2, 3))]:
        verdict = check_equiarboreal(generate(family, params))
        assert verdict.is_equiarboreal
        assert verdict.omega == 1


def test_edge_transitive_catalog_members():
    for family, params in [("hypercube", (3,)), ("hypercube", (4,)),
                           ("complete", (5,)), ("complete_bipartite", (3, 3)),
                           ("petersen", ())]:
        g = generate(family, params)
        verdict = check_equiarboreal(g)
        assert verdict.is_equiarboreal
        assert verdict.omega == Fraction(g.vertex_count - 1, g.edge_count)


def test_omega_matches_tree_ratio_on_equiarboreal_members():
    for family, params in [("petersen", ()), ("hypercube", (3,)),
                           ("johnson", (4, 2))]:
        g = generate(family, params)
        verdict = check_equiarboreal(g)
        for (u, v), _ in g.edge_items():
            assert tree_ratio_resistance(g, u, v) == verdict.omega


def test_regular_equiarboreal_omega_below_two_over_k():
    for family, params in [("petersen", ()), ("hypercube", (4,)),
                           ("johnson", (5, 2)), ("hamming", (2, 3))]:
        g = generate(family, params)
        k = g.is_regular()
        verdict = check_equiarboreal(g)
        assert verdict.omega < Fraction(2, k)


def test_check_requires_connected_graph_with_edges():
    with pytest.raises(ConnectivityError):
        check_equiarboreal(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ParameterError):
        check_equiarboreal(Graph(2))


def test_godsil_bound_values():
    bound, lam, holds = godsil_bound_check(generate("petersen"))
    assert (bound, lam, holds) == (Fraction(5, 3), 3, True)
    bound, lam, holds = godsil_bound_check(generate("cycle", (7,)))
    assert (bound, lam, holds) == (Fraction(7, 6), 2, True)
    bound, lam, holds = godsil_bound_check(generate("complete", (5,)))
    assert (bound, lam, holds) == (Fraction(5, 2), 4, True)


def test_godsil_bound_requires_equiarboreal():
    with pytest.raises(PreconditionError):
        godsil_bound_check(generate("triangular_prism"))
