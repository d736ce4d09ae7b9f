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
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping

from .equiarboreal import check_equiarboreal
from .errors import (
    ConnectivityError,
    ParameterError,
    PreconditionError,
    ScaleError,
    VerificationError,
)
from .graphs import Graph

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


def edge_connectivity(g: Graph) -> int:
    """lambda(G); 0 for a disconnected graph."""
    if g.vertex_count < 2:
        raise ParameterError("edge connectivity needs at least 2 vertices")
    if not g.is_connected():
        return 0
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


def _minimum_cut_sides(g: Graph) -> tuple[int, set[int]]:
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
    return lam, sides


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


def _cut_graph_degrees(cut: EdgeCut) -> dict[int, int]:
    deg: dict[int, int] = {}
    for (u, v) in cut.crossing:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def _cut_graph_components(cut: EdgeCut) -> list[set[int]]:
    adj: dict[int, set[int]] = {}
    for (u, v) in cut.crossing:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = {start}
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _induces_star(cut: EdgeCut, centre: int, deg: dict[int, int]) -> bool:
    """Does the closed neighborhood of ``centre`` induce a star in the cut
    graph?  Parallel crossing edges or edges among the neighbors disqualify
    it (the induced subgraph would not be a star)."""
    nbrs: dict[int, int] = {}
    for (u, v) in cut.crossing:
        if u == centre:
            nbrs[v] = nbrs.get(v, 0) + 1
        elif v == centre:
            nbrs[u] = nbrs.get(u, 0) + 1
    if any(m != 1 for m in nbrs.values()):
        return False
    nbr_set = set(nbrs)
    for (u, v) in cut.crossing:
        if u in nbr_set and v in nbr_set:
            return False
    return True


def classify_cut(g: Graph, cut: EdgeCut) -> CutClassification:
    """Compute all structural predicates of the cut graph by inspection."""
    recomputed = cut_from_side(g, cut.side_a)
    if recomputed.crossing != cut.crossing or recomputed.side_b != cut.side_b:
        raise ParameterError("crossing set does not match the bipartition")
    deg = _cut_graph_degrees(cut)
    a1 = {v for v in deg if v in cut.side_a}
    b1 = {v for v in deg if v in cut.side_b}
    size = cut.size

    comps = _cut_graph_components(cut)
    k2_free = True
    for comp in comps:
        if len(comp) == 2:
            u, v = sorted(comp)
            if sum(1 for e in cut.crossing if set(e) == {u, v}) == 1:
                k2_free = False
                break

    sx_free: dict[int, bool] = {}
    for x in range(3, size + 2):
        violated = False
        for u in sorted(deg):
            if deg[u] != x - 1:
                continue
            if not _induces_star(cut, u, deg):
                continue
            leaf_nbrs = {b if a == u else a
                         for (a, b) in cut.crossing if u in (a, b)}
            if any(deg[v] == 1 for v in leaf_nbrs):
                violated = True
                break
        sx_free[x] = not violated

    sxy_free: dict[tuple[int, int], bool] = {}
    degree_pairs = {(deg[u], deg[v]) for (u, v) in cut.crossing}
    for x in range(1, size):
        for y in range(1, size):
            if x + y > size:
                continue
            sxy_free[(x, y)] = (x + 1, y + 1) not in degree_pairs

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


def _small_degree_sum_pairs(k: int, size: int) -> Iterator[tuple[int, int]]:
    """(x, y) pairs with x, y >= 1 and x + y <= k - sqrt(k) - 2, compared by
    integer squaring so the boundary is exact."""
    for x in range(1, size):
        for y in range(1, size):
            s = k - x - y - 2
            if s >= 0 and s * s >= k:
                yield x, y


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
            cls = classify_cut(g, cut)
            if k >= 4 and not cls.k2_component_free:
                counterexamples.append(
                    f"cut {sorted(cut.side_a)} has a K2 component")
            if k >= 7:
                for (x, y) in _small_degree_sum_pairs(k, cut.size + 1):
                    if not cls.strongly_sxy_free.get((x, y), True):
                        counterexamples.append(
                            f"cut {sorted(cut.side_a)} contains the forbidden "
                            f"double star for degrees ({x + 1}, {y + 1})")
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
