"""Equiarboreality decisions.

A connected graph is equiarboreal when every edge has the same effective
resistance across its endpoints (equivalently, lies in the same number of
spanning trees).  When that holds the common value must be (n-1)/m; the
analyzer asserts that identity instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConnectivityError, ParameterError, VerificationError
from .graphs import Graph, memoized
from .resistance import WeightedNetwork, resistance_matrix

Edge = tuple[int, int]


@dataclass(frozen=True)
class EquiarborealVerdict:
    is_equiarboreal: bool
    omega: Fraction | None
    # (edge a, edge b, resistance of a, resistance of b) for the
    # lexicographically first unequal pair of edges.
    witness: tuple[Edge, Edge, Fraction, Fraction] | None

    def __post_init__(self) -> None:
        if self.is_equiarboreal and (self.omega is None or self.witness is not None):
            raise ParameterError("positive verdict must carry omega only")
        if not self.is_equiarboreal and self.witness is None:
            raise ParameterError("negative verdict must carry a witness")


def edge_resistances(g: Graph) -> list[tuple[Edge, Fraction]]:
    """Per-edge resistances from one Laplacian factorization, in
    lexicographic edge order (distinct edges; multiplicity does not change
    the endpoint resistance)."""
    if g.edge_count == 0:
        raise ParameterError("graph has no edges")
    if not g.is_connected():
        raise ConnectivityError("equiarboreality is defined for connected graphs")
    omega = resistance_matrix(WeightedNetwork.from_graph(g))
    return [((u, v), omega[u][v]) for (u, v), _ in g.edge_items()]


@memoized
def check_equiarboreal(g: Graph) -> EquiarborealVerdict:
    """Compare all edge resistances exactly.

    On success the common value is checked against (n-1)/m, which follows
    from the Foster sum; a mismatch would mean the solver is broken, so it
    raises rather than reporting a verdict.
    """
    per_edge = edge_resistances(g)
    first_edge, first_val = per_edge[0]
    for edge, val in per_edge[1:]:
        if val != first_val:
            return EquiarborealVerdict(False, None,
                                       (first_edge, edge, first_val, val))
    expected = Fraction(g.vertex_count - 1, g.edge_count)
    if first_val != expected:
        raise VerificationError(
            f"common edge resistance {first_val} != (n-1)/m = {expected}")
    return EquiarborealVerdict(True, first_val, None)
