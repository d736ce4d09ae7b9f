"""Equiarboreality decisions.

A connected graph is equiarboreal when every edge has the same effective
resistance across its endpoints (equivalently, lies in the same number of
spanning trees).  The check compares the edges' integer resistance
numerators over one determinant (see ``resistance``) and builds
``Fraction``s only for the reported value and witness.  When all are equal
the common value must be (n-1)/m by the Foster sum, so the common numerator
must satisfy ``num * m == det * (n - 1)``; the analyzer checks that integer
identity instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConnectivityError, ParameterError, VerificationError
from .exactalg import _check_size
from .graphs import Graph, memoized
from .resistance import _edge_numerators, _grounded_adjugate

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


@memoized
def check_equiarboreal(g: Graph) -> EquiarborealVerdict:
    """Compare all edge resistances exactly, as integer numerators over one
    determinant (multiplicity does not change the endpoint resistance).

    On success the common value is checked against (n-1)/m, which follows
    from the Foster sum; a mismatch would mean the solver is broken, so it
    raises rather than reporting a verdict.
    """
    if g.edge_count == 0:
        raise ParameterError("graph has no edges")
    _check_size(g.vertex_count - 1)  # before the adjacency is built
    if not g.is_connected():
        raise ConnectivityError("equiarboreality is defined for connected graphs")
    items = g.edge_items()
    det, m = _grounded_adjugate(items, g.vertex_count)
    edges = [e for e, _ in items]
    nums = _edge_numerators(m, edges)
    first = nums[0]
    for edge, num in zip(edges, nums):
        if num != first:
            witness = (edges[0], edge, Fraction(first, det), Fraction(num, det))
            return EquiarborealVerdict(False, None, witness)
    n, e = g.vertex_count, g.edge_count
    if first * e != det * (n - 1):
        raise VerificationError(
            f"common edge resistance {Fraction(first, det)} != (n-1)/m = {Fraction(n - 1, e)}")
    return EquiarborealVerdict(True, Fraction(first, det), None)
