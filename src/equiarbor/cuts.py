"""Edge connectivity, minimum-cut enumeration, and structural
classification of the bipartite graph spanned by a cut's crossing edges.

Edge connectivity runs n-1 max-flow computations from a fixed source.  The
minimum cuts are read off the same flows' residual graphs (Picard &
Queyranne 1980), behind a size limit: the work grows with the number of
minimum cuts, at most n(n-1)/2, not with the 2^(n-1) bipartitions.  Every
enumerated cut is recounted from the graph and checked against lambda.

Terminology: for a cut with sides (A, B) and crossing edge set C, the "cut
graph" is the edge-induced bipartite subgraph on C, with parts A1 and B1.
A cut is trivial when one side is a single vertex.  The star prohibitions
are tested on the literal induced-subgraph wording: the closed neighborhood
of a candidate centre must induce exactly a star (which additionally rules
out parallel crossing edges at the centre).

The spanning-tree lower bound lambda >= m/(n-1) on equiarboreal graphs is
checked here too, beside the max-flow lambda it compares against.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from .equiarboreal import check_equiarboreal
from .errors import (
    ConnectivityError,
    ParameterError,
    PreconditionError,
    ScaleError,
    VerificationError,
)
from .graphs import Graph, _adjacency, _components, known_fact, memoized

Edge = tuple[int, int]

DEFAULT_ENUMERATION_LIMIT = 24


@dataclass(frozen=True)
class EdgeCut:
    """A vertex bipartition with its crossing edges.

    ``crossing`` lists (u, v) pairs with u on side A, repeated per
    multiplicity, in lexicographic order.
    """

    side_a: frozenset[int]
    side_b: frozenset[int]
    crossing: tuple[Edge, ...]

    @property
    def size(self) -> int:
        return len(self.crossing)

    @property
    def is_trivial(self) -> bool:
        return len(self.side_a) == 1 or len(self.side_b) == 1


def cut_from_side(g: Graph, side_a) -> EdgeCut:
    """Build the cut determined by one side of a bipartition."""
    a = frozenset(side_a)
    if not a or len(a) == g.vertex_count:
        raise ParameterError("both sides of a cut must be nonempty")
    for v in a:
        if not 0 <= v < g.vertex_count:
            raise ParameterError(f"vertex {v} out of range")
    b = frozenset(range(g.vertex_count)) - a
    crossing: list[Edge] = []
    for (u, v), m in g.edge_items():
        if u in a and v in b:
            crossing.extend([(u, v)] * m)
        elif v in a and u in b:
            crossing.extend([(v, u)] * m)
    crossing.sort()
    return EdgeCut(a, b, tuple(crossing))


# ---------------------------------------------------------------------------
# Edge connectivity and minimum cuts by max-flow


def _max_flow(g: Graph, s: int, t: int) -> tuple[int, list[dict[int, int]]]:
    """Integral max flow with capacities equal to edge multiplicities, and
    the residual capacities it leaves: ``residual[x][y]`` for every edge
    direction x -> y."""
    residual: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for (u, v), m in g.edge_items():
        residual[u][v] = m
        residual[v][u] = m
    flow = 0
    while True:
        parent: dict[int, int | None] = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            x = queue.popleft()
            for y, c in residual[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            return flow, residual
        path = []
        y = t
        while parent[y] is not None:
            x = parent[y]
            path.append((x, y))
            y = x
        bottleneck = min(residual[x][y] for (x, y) in path)
        for (x, y) in path:
            residual[x][y] -= bottleneck
            residual[y][x] += bottleneck
        flow += bottleneck


@memoized
def edge_connectivity(g: Graph) -> int:
    """lambda(G); 0 for a disconnected graph."""
    if g.vertex_count < 2:
        raise ParameterError("edge connectivity needs at least 2 vertices")
    if not g.is_connected():
        return 0
    known = known_fact(_minimum_cut_sides, g)  # the same n-1 flows
    if known is not None:
        return known[0]
    return min(_max_flow(g, 0, t)[0] for t in range(1, g.vertex_count))


def _reach(residual: list[dict[int, int]], start: int, forward: bool) -> int:
    """Bitmask of the vertices that ``start`` reaches along residual arcs,
    or, with ``forward`` false, of the vertices that reach ``start``."""
    seen = 1 << start
    stack = [start]
    while stack:
        y = stack.pop()
        for z, c in residual[y].items():
            if (c if forward else residual[z][y]) > 0 and not seen >> z & 1:
                seen |= 1 << z
                stack.append(z)
    return seen


def _closed_sides(residual: list[dict[int, int]], t: int) -> Iterator[int]:
    """Bitmasks of the vertex sets that contain 0, omit t and are closed
    under residual arcs: the source sides of every minimum 0-t cut
    (Picard & Queyranne 1980).

    Each branch either adds a free vertex with everything it reaches or
    drops it with everything that reaches it, so every leaf is a distinct
    closed set and the work is proportional to the output."""
    reach = functools.cache(functools.partial(_reach, residual))
    everything = (1 << len(residual)) - 1
    stack = [(reach(0, True), everything & ~(reach(0, True) | reach(t, False)))]
    while stack:
        side, free = stack.pop()
        if not free:
            yield side
            continue
        v = (free & -free).bit_length() - 1
        stack.append((side, free & ~reach(v, False)))
        grown = side | reach(v, True)
        stack.append((grown, free & ~grown))


@memoized
def _minimum_cut_sides(g: Graph) -> tuple[int, frozenset[int]]:
    """lambda(G) and the bitmask of side A, the side holding vertex 0, of
    every minimum cut of a connected graph.

    A minimum cut separates 0 from every vertex t on its far side, so it is
    a minimum 0-t cut for each t whose max flow is lambda.  Only the current
    residual is kept; sides gathered for a flow value above lambda are
    dropped once a smaller flow shows up."""
    n = g.vertex_count
    most = n * (n - 1) // 2  # Dinits-Karzanov-Lomonosov bound
    lam: int | None = None
    sides: set[int] = set()
    for t in range(1, n):
        flow, residual = _max_flow(g, 0, t)
        if lam is None or flow < lam:
            lam, sides = flow, set()
        elif flow > lam:
            continue
        for side in _closed_sides(residual, t):
            if len(sides) > most:
                break
            sides.add(side)
    if len(sides) > most:
        raise VerificationError(
            f"more than n(n-1)/2 = {most} minimum cuts enumerated")
    return lam, frozenset(sides)


def cuts_up_to(g: Graph, max_size: int,
               limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[EdgeCut]:
    """All cuts of at most ``max_size`` edges, for ``max_size`` up to
    lambda(G): the minimum cuts, or none below lambda.  Cuts above the
    minimum are not enumerated, so a larger ``max_size`` is a
    ``ParameterError``.  Nothing in the package calls it; the benchmark's
    per-layer trace (``bench/tracer.py``) measures it by this name."""
    cuts = minimum_cuts(g, limit)
    if max_size > cuts[0].size:
        raise ParameterError(
            f"only minimum cuts are enumerated; {max_size} exceeds "
            f"lambda = {cuts[0].size}")
    return cuts if max_size == cuts[0].size else []


def minimum_cuts(g: Graph,
                 limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[EdgeCut]:
    """Every cut of size lambda(G), read off max-flow residual graphs,
    normalized so side A contains vertex 0 and sorted by (|A|,
    lexicographic A)."""
    if g.vertex_count < 2:
        raise ParameterError("minimum cuts need at least 2 vertices")
    if not g.is_connected():
        raise ConnectivityError("cut enumeration needs a connected graph")
    if g.vertex_count > limit:
        raise ScaleError(
            f"{g.vertex_count} vertices exceed the enumeration limit {limit}; "
            "use edge_connectivity instead")
    lam, sides = _minimum_cut_sides(g)
    cuts = [cut_from_side(g, (v for v in range(g.vertex_count) if side >> v & 1))
            for side in sides]
    cuts.sort(key=lambda c: (len(c.side_a), sorted(c.side_a)))
    # Recount every crossing set from the graph itself: a side that is not
    # a minimum cut means the residual closure went wrong.
    off = next((c for c in cuts if c.size != lam), None)
    if off is not None:
        raise VerificationError(
            f"enumerated cut of size {off.size} disagrees with max-flow lambda {lam}")
    return cuts


# ---------------------------------------------------------------------------
# Cut-graph classification


@dataclass(frozen=True)
class CutClassification:
    is_trivial: bool
    a1_size: int
    b1_size: int
    k2_component_free: bool
    strongly_sx_free: Mapping[int, bool]
    strongly_sxy_free: Mapping[tuple[int, int], bool]
    min_degree_in_cut_graph: int


def _cut_graph_degrees(cut: EdgeCut) -> Counter[int]:
    return Counter(v for edge in cut.crossing for v in edge)


def classify_cut(g: Graph, cut: EdgeCut) -> CutClassification:
    """Compute all structural predicates of the cut graph by inspection."""
    recomputed = cut_from_side(g, cut.side_a)
    if recomputed.crossing != cut.crossing or recomputed.side_b != cut.side_b:
        raise ParameterError("crossing set does not match the bipartition")
    deg = _cut_graph_degrees(cut)
    adj = _adjacency(g.vertex_count, cut.crossing)
    a1 = {v for v in deg if v in cut.side_a}
    b1 = {v for v in deg if v in cut.side_b}
    size = cut.size

    # In a two-vertex component every crossing edge at u joins u to v, so
    # deg[u] is the multiplicity of uv.
    comps = _components(sorted(deg), adj)
    k2_free = not any(len(comp) == 2 and deg[min(comp)] == 1 for comp in comps)

    # The cut graph is bipartite, so no edge joins two neighbours of a
    # centre u: its closed neighbourhood induces a star exactly when no
    # crossing edge at u is parallel, i.e. when u has deg[u] neighbours.
    # Such a star of order deg[u] + 1 with a degree-1 leaf is forbidden.
    stars = {deg[u] + 1 for u in deg
             if len(adj[u]) == deg[u] and any(deg[v] == 1 for v in adj[u])}
    sx_free = {x: x not in stars for x in range(3, size + 2)}

    degree_pairs = {(deg[u], deg[v]) for (u, v) in cut.crossing}
    sxy_free = {(x, y): (x + 1, y + 1) not in degree_pairs
                for x in range(1, size) for y in range(1, size - x + 1)}

    return CutClassification(
        is_trivial=cut.is_trivial,
        a1_size=len(a1),
        b1_size=len(b1),
        k2_component_free=k2_free,
        strongly_sx_free=sx_free,
        strongly_sxy_free=sxy_free,
        min_degree_in_cut_graph=min(deg.values()),
    )


# ---------------------------------------------------------------------------
# The degree-connectivity verdict for regular equiarboreal graphs


@dataclass(frozen=True)
class DegreeConnectivityReport:
    k: int
    lam: int
    lambda_equals_degree: bool
    parity_ok: bool | None  # None when k is odd
    enumerated: bool
    nontrivial_min_cut_count: int | None
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def _floor_k_minus_sqrt_k(k: int) -> int:
    # floor(k - sqrt(k)) = k - ceil(sqrt(k)), computed with integer roots.
    return k - (math.isqrt(k - 1) + 1) if k >= 2 else 0


def _small_degree_sum_rows(k: int) -> list[tuple[int, range]]:
    """Every (x, y) with x, y >= 1 and x + y <= k - sqrt(k) - 2, grouped by
    x in increasing order: (x, range of y).  The bound is an integer,
    floor(k - sqrt(k)) - 2, so the boundary is exact."""
    top = _floor_k_minus_sqrt_k(k) - 2
    return [(x, range(1, top - x + 1)) for x in range(1, top)]


def verify_degree_connectivity(
        g: Graph,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> DegreeConnectivityReport:
    """Verify that a connected regular equiarboreal graph has edge
    connectivity equal to its degree, plus every structural cut property
    that applies at its degree.

    Up to ``enumeration_limit`` vertices every minimum cut is enumerated
    and checked: a minimum cut below k, any non-trivial cut of k edges at
    k >= 11, and any non-trivial minimum cut violating the applicable
    cut-graph prohibitions is flagged as a counterexample.  When lambda = k
    the minimum cuts are all the cuts of at most k edges; when lambda < k
    (impossible under the preconditions, by the main theorem) only the
    minimum cuts are listed.
    """
    if not g.is_connected():
        raise ConnectivityError("degree-connectivity check needs a connected graph")
    k = g.is_regular()
    if k is None:
        raise PreconditionError("graph is not regular")
    verdict = check_equiarboreal(g)
    if not verdict.is_equiarboreal:
        raise PreconditionError(
            f"graph is not equiarboreal; witness {verdict.witness}")

    enumerated = g.vertex_count <= enumeration_limit
    cuts = minimum_cuts(g, enumeration_limit) if enumerated else []
    lam = cuts[0].size if enumerated else edge_connectivity(g)
    counterexamples: list[str] = []
    if lam != k:
        counterexamples.append(f"lambda = {lam} != degree {k}")
    parity_ok: bool | None = None
    if k % 2 == 0:
        parity_ok = lam % 2 == 0
        if not parity_ok:
            counterexamples.append(f"even degree {k} but odd lambda {lam}")

    nontrivial_count: int | None = None
    if enumerated:
        nontrivial = [c for c in cuts if not c.is_trivial]
        nontrivial_count = len(nontrivial)
        for cut in cuts:
            if cut.size < k:
                counterexamples.append(
                    f"cut of size {cut.size} < {k}: sides {sorted(cut.side_a)}")
        for cut in nontrivial:
            if cut.size < k:
                continue  # already flagged above
            if k >= 11:
                counterexamples.append(
                    f"non-trivial cut of {cut.size} edges at degree {k}: "
                    f"sides {sorted(cut.side_a)}")
                continue
            if k < 4:
                continue  # no cut-graph prohibition applies below degree 4
            cls = classify_cut(g, cut)
            if not cls.k2_component_free:
                counterexamples.append(
                    f"cut {sorted(cut.side_a)} has a K2 component")
            if k >= 7:
                for x, ys in _small_degree_sum_rows(k):
                    counterexamples.extend(
                        f"cut {sorted(cut.side_a)} contains the forbidden "
                        f"double star for degrees ({x + 1}, {y + 1})"
                        for y in ys if not cls.strongly_sxy_free.get((x, y), True))
            if k >= 8:
                if cls.min_degree_in_cut_graph < 2:
                    counterexamples.append(
                        f"cut {sorted(cut.side_a)} has a degree-1 vertex")
                least = 2 * _floor_k_minus_sqrt_k(k) - 2
                if cut.size < least:
                    counterexamples.append(
                        f"non-trivial cut of {cut.size} < {least} edges")
                if not all(cls.strongly_sx_free.values()):
                    counterexamples.append(
                        f"cut {sorted(cut.side_a)} contains a forbidden "
                        "pendant star")

    return DegreeConnectivityReport(
        k=k,
        lam=lam,
        lambda_equals_degree=lam == k,
        parity_ok=parity_ok,
        enumerated=enumerated,
        nontrivial_min_cut_count=nontrivial_count,
        counterexamples=tuple(counterexamples),
    )


# ---------------------------------------------------------------------------
# The spanning-tree lower bound on lambda


class GodsilBoundResult(NamedTuple):
    bound: Fraction
    lam: int
    holds: bool


def godsil_bound_check(g: Graph) -> GodsilBoundResult:
    """Check the spanning-tree lower bound lambda >= m/(n-1) on a connected
    equiarboreal graph."""
    verdict = check_equiarboreal(g)
    if not verdict.is_equiarboreal:
        raise PreconditionError(
            "the bound's hypothesis needs an equiarboreal graph; "
            f"witness {verdict.witness}")
    bound = Fraction(g.edge_count, g.vertex_count - 1)
    lam = edge_connectivity(g)
    return GodsilBoundResult(bound, lam, lam >= bound)
