"""Terminal-preserving network transformations behind the ``transform``
command.

Star-mesh (Kron) elimination is the single reduction primitive; series
contraction is its degree-2 special case.  The
complete-bipartite-to-double-star rewrite (Gervacio) introduces one
negative resistance edge, which flows through the ordinary solver
unchanged.  The S-equivalence check and the principle of substitution that
test these rewrites live in the test suite's oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ParameterError, ScaleError, SingularEliminationError
from .graphs import _GRAPH6_MAX_N
from .resistance import WeightedNetwork


@dataclass(frozen=True)
class TransformRecord:
    kind: str  # series | star-mesh | bipartite-to-double-star
    removed_vertices: tuple[int, ...]
    added_edges: tuple[tuple[int, int, Fraction], ...]


def eliminate_vertex(net: WeightedNetwork, w: int) -> WeightedNetwork:
    """Remove w by star-mesh reduction, preserving all pairwise resistances
    among the remaining vertices exactly.

    The returned network keeps the original vertex numbering; w simply has
    no incident edges any more.
    """
    if not 0 <= w < net.vertex_count:
        raise ParameterError(f"vertex {w} out of range")
    if net.terminals is not None and w in net.terminals:
        raise ParameterError(f"vertex {w} is a terminal")
    cond = {e: c for e, c in net.edge_items() if w not in e}
    for a, b, branch in _mesh_branches(net, w):
        cond[a, b] = cond.get((a, b), Fraction(0)) + branch
    return WeightedNetwork(net.vertex_count, cond, net.terminals)


def _mesh_branches(net: WeightedNetwork, w: int) -> list[tuple[int, int, Fraction]]:
    """(a, b, c_a c_b / sum c) for each pair a < b of w's neighbours; an
    isolated w adds none."""
    star = [(v, net.conductance(w, v)) for v in net.neighbors(w)]
    total = sum((c for _, c in star), Fraction(0))
    if star and total == 0:
        raise SingularEliminationError(
            f"conductance sum at vertex {w} is zero")
    return [(a, b, ca * cb / total) for (a, ca), (b, cb) in combinations(star, 2)]


def record_for_elimination(before: WeightedNetwork, after: WeightedNetwork,
                           w: int) -> TransformRecord:
    """Describe an elimination as the mesh branches it added: the
    conductance ``after`` gained on each pair of w's neighbours.  Branch
    resistances are reported as standalone resistors; where a branch lands
    on an existing edge the two are merged in parallel in ``after``."""
    branches = [(a, b, after.conductance(a, b) - before.conductance(a, b))
                for a, b in combinations(before.neighbors(w), 2)]
    kind = "series" if len(branches) == 1 else "star-mesh"  # w had degree 2
    return TransformRecord(kind, (w,), tuple((a, b, 1 / c) for a, b, c in branches if c != 0))


def bipartite_to_double_star(m: int, n: int) -> WeightedNetwork:
    """The weighted double star S-equivalent to K_{m,n} on its original
    vertices.

    Vertices 0..m-1 are the left part, m..m+n-1 the right part (matching
    the ``complete_bipartite`` generator labels), vertex m+n is the left
    centre and m+n+1 the right centre.  Leg resistances are 1/n and 1/m and
    the centre edge carries -1/(n*m); the originals are the terminals.
    Raises ``ScaleError`` first above the network limit of 258,047 vertices.
    """
    if m < 1 or n < 1:
        raise ParameterError("bipartite_to_double_star needs m, n >= 1")
    if m + n + 2 > _GRAPH6_MAX_N:
        raise ScaleError(f"the double star of K{m},{n} has {m + n + 2} vertices, "
                         f"above the network limit {_GRAPH6_MAX_N}")
    u0, v0 = m + n, m + n + 1
    cond = {(i, u0): n for i in range(m)} | {(m + j, v0): m for j in range(n)}
    cond[u0, v0] = -n * m
    return WeightedNetwork(m + n + 2, cond, terminals=range(m + n))


def record_for_double_star(net: WeightedNetwork) -> TransformRecord:
    added = tuple((u, v, 1 / c) for (u, v), c in net.edge_items())
    return TransformRecord("bipartite-to-double-star", (), added)
