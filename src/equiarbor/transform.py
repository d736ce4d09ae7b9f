"""Terminal-preserving network transformations and the S-equivalence oracle.

Star-mesh (Kron) elimination is the single reduction primitive; series
contraction is its degree-2 special case and parallel merging happens in
network construction.  The complete-bipartite-to-double-star rewrite
(Gervacio) introduces one negative resistance edge, which flows through the
ordinary solver unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    InfiniteResistanceError,
    NonRealizableError,
    ParameterError,
    SingularEliminationError,
)
from .exactalg import Rational
from .resistance import WeightedNetwork, resistance

#: An ordered set of terminal vertices shared by the networks under
#: comparison.
TerminalSet = Sequence[int]


@dataclass(frozen=True)
class TransformRecord:
    kind: str  # series | parallel | star-mesh | bipartite-to-double-star
    removed_vertices: tuple[int, ...]
    added_edges: tuple[tuple[int, int, Fraction], ...]


@dataclass(frozen=True)
class SEquivalence:
    """Outcome of an S-equivalence check.

    ``witness`` is the lexicographically first terminal pair whose
    resistances differ, together with both values (None means the pair is
    disconnected in that network).
    """

    equivalent: bool
    witness: tuple[int, int, Fraction | None, Fraction | None] | None = None

    def __bool__(self) -> bool:
        return self.equivalent


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
    cond = net.without_vertex_edges(w)
    for a, b, branch in _mesh_branches(net, w):
        cond[a, b] = cond.get((a, b), Fraction(0)) + branch
    return WeightedNetwork(net.vertex_count, cond, net.terminals)


def _mesh_branches(net: WeightedNetwork, w: int) -> list[tuple[int, int, Fraction]]:
    """(a, b, c_a c_b / sum c) for each pair a < b of w's neighbours."""
    star = [(v, net.conductance(w, v)) for v in net.neighbors(w)]
    total = sum((c for _, c in star), Fraction(0))
    if total == 0:
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
    """
    if m < 1 or n < 1:
        raise ParameterError("bipartite_to_double_star needs m, n >= 1")
    u0, v0 = m + n, m + n + 1
    cond = {(i, u0): n for i in range(m)} | {(m + j, v0): m for j in range(n)}
    cond[u0, v0] = -n * m
    return WeightedNetwork(m + n + 2, cond, terminals=range(m + n))


def record_for_double_star(m: int, n: int, net: WeightedNetwork
                           ) -> TransformRecord:
    added = tuple((u, v, 1 / c) for (u, v), c in net.edge_items())
    return TransformRecord("bipartite-to-double-star", (), added)


def synthesize_star(r12: Rational, r13: Rational, r23: Rational
                    ) -> tuple[Fraction, Fraction, Fraction]:
    """Leg resistances of the 3-leaf star reproducing three pairwise
    resistances.

    Legs are half the triangle-inequality slacks; a negative leg means the
    three distances are not realizable by a star.
    """
    r12, r13, r23 = Fraction(r12), Fraction(r13), Fraction(r23)
    if r12 <= 0 or r13 <= 0 or r23 <= 0:
        raise ParameterError("pairwise resistances must be positive")
    q1 = (r12 + r13 - r23) / 2
    q2 = (r12 + r23 - r13) / 2
    q3 = (r13 + r23 - r12) / 2
    if q1 < 0 or q2 < 0 or q3 < 0:
        raise NonRealizableError(
            f"triangle inequality violated: ({r12}, {r13}, {r23})")
    return q1, q2, q3


def _pair_resistance(net: WeightedNetwork, u: int, v: int) -> Fraction | None:
    try:
        return resistance(net, u, v)
    except InfiniteResistanceError:
        return None


def s_equivalent(a: WeightedNetwork, b: WeightedNetwork,
                 s: TerminalSet) -> SEquivalence:
    """True iff every pair of terminals has identical exact resistance in
    both networks."""
    terms = sorted(set(s))
    if not terms:
        raise ParameterError("empty terminal set")
    for t in terms:
        if t >= a.vertex_count or t >= b.vertex_count or t < 0:
            raise ParameterError(f"terminal {t} missing from a network")
    for u, v in combinations(terms, 2):
        ra = _pair_resistance(a, u, v)
        rb = _pair_resistance(b, u, v)
        if ra != rb:
            return SEquivalence(False, (u, v, ra, rb))
    return SEquivalence(True)


def substitute_network(host: WeightedNetwork,
                       removed: Sequence[tuple[int, int]],
                       replacement: WeightedNetwork,
                       attach: Sequence[int]) -> WeightedNetwork:
    """Replace a subnetwork of the host.

    ``removed`` lists host edges to delete; ``replacement`` is a network
    whose vertex i attaches to host vertex ``attach[i]`` for i < len(attach)
    and whose remaining vertices are appended as fresh host vertices.  Used
    to exercise the principle of substitution.
    """
    if len(attach) > replacement.vertex_count:
        raise ParameterError("more attachment points than replacement vertices")
    n_host = host.vertex_count
    fresh = replacement.vertex_count - len(attach)
    mapping = list(attach) + list(range(n_host, n_host + fresh))
    removed_set = {(min(u, v), max(u, v)) for u, v in removed}
    cond = {e: c for e, c in host.edge_items() if e not in removed_set}
    for (u, v), c in replacement.edge_items():  # parallel pieces add
        key = tuple(sorted((mapping[u], mapping[v])))
        cond[key] = cond.get(key, Fraction(0)) + c
    return WeightedNetwork(n_host + fresh, cond, host.terminals)
