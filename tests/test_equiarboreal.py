"""Equiarboreality verdicts and the spanning-tree connectivity bound."""

import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor import equiarboreal as equiarboreal_module
from equiarbor import exactalg
from equiarbor import graphs as graphs_module
from equiarbor.cli import run_command
from equiarbor.cuts import godsil_bound_check
from equiarbor.equiarboreal import check_equiarboreal
from equiarbor.errors import (
    ConnectivityError,
    DimensionError,
    ParameterError,
    PreconditionError,
    VerificationError,
)
from equiarbor.graphs import Graph, generate
from equiarbor.resistance import WeightedNetwork

import oracles


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
            assert oracles.tree_ratio_resistance(g, u, v) == verdict.omega


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


@st.composite
def connected_multigraphs(draw) -> Graph:
    """An ``oracles.multigraphs`` draw joined up by a random spanning tree."""
    g = draw(oracles.multigraphs(min_vertices=2))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, g.vertex_count)]
    return Graph(g.vertex_count, [(u, v, m) for (u, v), m in g.edge_items()] + tree)


@settings(max_examples=200, deadline=None)
@given(connected_multigraphs())
def test_verdict_equals_fraction_oracle(g):
    verdict = check_equiarboreal(g)
    assert verdict == oracles.fraction_check_equiarboreal(g)
    if verdict.is_equiarboreal:
        (u, v), _ = g.edge_items()[0]
        assert verdict.omega == oracles.tree_ratio_resistance(g, u, v)
    else:
        edge_a, edge_b, val_a, val_b = verdict.witness
        assert val_a == oracles.tree_ratio_resistance(g, *edge_a)
        assert val_b == oracles.tree_ratio_resistance(g, *edge_b)


def test_check_builds_no_network_and_no_rational_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("the check built a WeightedNetwork")

    monkeypatch.setattr(WeightedNetwork, "__init__", refuse)
    assert check_equiarboreal(generate("petersen")).omega == Fraction(3, 5)
    assert not check_equiarboreal(generate("triangular_prism")).is_equiarboreal


def test_corrupt_adjugate_fails_the_residual_check(monkeypatch):
    # A grounded graph Laplacian is symmetric with positive leading minors,
    # so the symmetric kernel always inverts it.
    symmetric_eliminate = exactalg._symmetric_eliminate

    def corrupted(rows):
        det, det_inv = symmetric_eliminate(rows)
        det_inv[1][0] += 1
        return det, det_inv

    monkeypatch.setattr(exactalg, "_symmetric_eliminate", corrupted)
    with pytest.raises(VerificationError, match="inverse residual check failed in row 0"):
        check_equiarboreal(generate("petersen"))


def test_equal_but_wrong_numerators_fail_the_foster_identity(monkeypatch):
    numerators = equiarboreal_module._edge_numerators
    monkeypatch.setattr(equiarboreal_module, "_edge_numerators",
                        lambda m, pairs: [num + 1 for num in numerators(m, pairs)])
    with pytest.raises(VerificationError,
                       match=r"common edge resistance 1201/2000 != \(n-1\)/m = 3/5"):
        check_equiarboreal(generate("petersen"))


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


def test_over_limit_graph_is_refused_before_its_adjacency_is_built(monkeypatch):
    def refuse(n, pairs):
        pytest.fail("the adjacency of an over-limit graph was built")

    monkeypatch.setattr(graphs_module, "_adjacency", refuse)
    err = io.StringIO()
    assert run_command(["analyze", "--family", "complete", "--params", "600"],
                       io.StringIO(), err) == 2
    assert err.getvalue() == "error: matrix exceeds the 512 soft size limit\n"
    # A disconnected graph above the limit reports the limit, not its
    # connectivity.
    with pytest.raises(DimensionError, match="matrix exceeds the 512 soft size limit"):
        check_equiarboreal(Graph(600, [(0, 1)]))
