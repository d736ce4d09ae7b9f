"""Edge connectivity, minimum-cut enumeration, and structural
classification of the bipartite graph spanned by a cut's crossing edges.

Edge connectivity alone comes from maximum-adjacency orderings (Stoer &
Wagner 1997) over per-vertex adjacency dicts, at every size.  Max-flows
from a fixed source serve only the minimum cuts: those are read off the
residual graphs (Picard & Queyranne 1980), each once, so the work grows
with the number of minimum cuts, at most n(n-1)/2, not with the 2^(n-1)
bipartitions.  Every side is recounted from the graph and checked against
lambda, and that lambda against the ordering's when the same scope
computed the ordering first.  The enumeration limit caps only the cut list
of ``minimum_cuts``.

Terminology: for a cut with sides (A, B) and crossing edge set C, the "cut
graph" is the edge-induced bipartite subgraph on C, with parts A1 and B1.
A cut is trivial when one side is a single vertex.  The star prohibitions
are tested on the literal induced-subgraph wording: the closed neighborhood
of a candidate centre must induce exactly a star (which additionally rules
out parallel crossing edges at the centre).

The spanning-tree lower bound lambda >= m/(n-1) on equiarboreal graphs is
checked here too, beside the lambda it compares against.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from .equiarboreal import check_equiarboreal
from .errors import (
    ConnectivityError,
    ParameterError,
    PreconditionError,
    ScaleError,
    VerificationError,
)
from .exactalg import SIZE_LIMIT
from .graphs import Graph, _adjacency, _components, known_fact, memoized

Edge = tuple[int, int]

DEFAULT_ENUMERATION_LIMIT = SIZE_LIMIT  # the largest matrix the package builds


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
# Edge connectivity and minimum cuts


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
def _ordering_lambda(g: Graph) -> int:
    """lambda(G) of a multigraph by maximum-adjacency orderings
    (Stoer & Wagner 1997) over per-vertex adjacency dicts.

    Each phase orders the remaining vertices from vertex 0, each next one
    the most strongly connected to those before it; ``connection`` holds
    only the vertices adjacent to those, so a sparse graph keeps it short.
    The last one's connection is a cut (the cut of the phase), and no cut
    separating the last two vertices is smaller.  Merging the last vertex
    into the one before it keeps every other cut, so the least cut of a
    phase is lambda.  A phase that runs out of connected vertices has found
    a disconnected graph."""
    adjacent: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for (u, v), m in g.edge_items():
        adjacent[u][v] = adjacent[v][u] = m
    best = g.edge_count
    for remaining in range(g.vertex_count - 1, 0, -1):
        connection = dict(adjacent[0])
        ordered = {0}
        before = last = 0
        for _ in range(remaining):
            if not connection:
                return 0
            before, last = last, max(connection, key=connection.__getitem__)
            cut = connection.pop(last)
            ordered.add(last)
            for v, m in adjacent[last].items():
                if v not in ordered:
                    connection[v] = connection.get(v, 0) + m
        best = min(best, cut)
        merged = adjacent[before]
        for v, m in adjacent[last].items():
            del adjacent[v][last]
            if v != before:
                merged[v] = adjacent[v][before] = merged.get(v, 0) + m
        adjacent[last] = {}
    return best


@memoized
def edge_connectivity(g: Graph) -> int:
    """lambda(G); 0 for a disconnected graph.

    Read from the minimum cuts when they are already known, otherwise by
    maximum-adjacency orderings, at every size."""
    if g.vertex_count < 2:
        raise ParameterError("edge connectivity needs at least 2 vertices")
    known = known_fact(_minimum_cut_sides, g)
    return _ordering_lambda(g) if known is None else known[0]


def _reach(residual: list[dict[int, int]], starts: Iterable[int],
           forward: bool) -> int:
    """Bitmask of the vertices that some vertex of ``starts`` reaches along
    residual arcs, or, with ``forward`` false, of the vertices that reach
    one of ``starts``."""
    stack = list(starts)
    seen = sum(1 << v for v in stack)
    while stack:
        y = stack.pop()
        for z, c in residual[y].items():
            if (c if forward else residual[z][y]) > 0 and not seen >> z & 1:
                seen |= 1 << z
                stack.append(z)
    return seen


def _closed_sides(residual: list[dict[int, int]], t: int) -> Iterator[int]:
    """Bitmasks of the vertex sets that contain 0..t-1, omit t and are
    closed under residual arcs: the source sides of the minimum 0-t cuts
    (Picard & Queyranne 1980) whose least far-side vertex is t.  Over all
    t with a minimum flow, each minimum cut is found exactly once.

    Each branch either adds a free vertex with everything it reaches or
    drops it with everything that reaches it, so every leaf is a distinct
    closed set and the work is proportional to the output."""
    side = _reach(residual, range(t), True)
    if side >> t & 1:
        return  # 0..t-1 reach t: no minimum cut has t as least far vertex
    reach = functools.cache(lambda v, forward: _reach(residual, (v,), forward))
    everything = (1 << len(residual)) - 1
    stack = [(side, everything & ~(side | reach(t, False)))]
    while stack:
        side, free = stack.pop()
        if not free:
            yield side
            continue
        v = (free & -free).bit_length() - 1
        stack.append((side, free & ~reach(v, False)))
        grown = side | reach(v, True)
        stack.append((grown, free & ~grown))


def _vertices(side: int) -> list[int]:
    return [v for v in range(side.bit_length()) if side >> v & 1]


@memoized
def _minimum_cut_sides(g: Graph) -> tuple[int, tuple[int, ...]]:
    """lambda(G) and the bitmask of side A, the side holding vertex 0, of
    every minimum cut of a connected graph, sorted by (|A|, lexicographic A).

    A minimum cut is found at the flow to the least vertex on its far side.
    Only the current residual is kept; sides gathered for a flow value above
    lambda are dropped once a smaller flow shows up.  A side that does not
    cross lambda edges means the residual closure went wrong, and a lambda
    other than the one the orderings already found in this scope means one
    of the two went wrong."""
    n = g.vertex_count
    most = n * (n - 1) // 2  # Dinits-Karzanov-Lomonosov bound
    lam: int | None = None
    sides: list[int] = []
    for t in range(1, n):
        flow, residual = _max_flow(g, 0, t)
        if lam is None or flow < lam:
            lam, sides = flow, []
        elif flow > lam:
            continue
        for side in _closed_sides(residual, t):
            if len(sides) > most:
                break
            sides.append(side)
    if len(sides) > most:
        raise VerificationError(
            f"more than n(n-1)/2 = {most} minimum cuts enumerated")
    ordered = known_fact(_ordering_lambda, g)
    if ordered is not None and ordered != lam:
        raise VerificationError(
            f"max-flow lambda {lam} disagrees with maximum-adjacency lambda {ordered}")
    items = g.edge_items()
    for side in sides:
        lone = 1 if side == 1 else ((1 << n) - 1) ^ side
        if lone & (lone - 1) == 0:  # a vertex star crosses its vertex's degree
            size = g.degree(lone.bit_length() - 1)
        else:
            size = sum(m for (u, v), m in items if (side >> u ^ side >> v) & 1)
        if size != lam:
            raise VerificationError(
                f"enumerated cut of size {size} disagrees with max-flow lambda {lam}")
    sides.sort(key=lambda side: (side.bit_count(), _vertices(side)))
    return lam, tuple(sides)


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
    return [cut_from_side(g, _vertices(side)) for side in _minimum_cut_sides(g)[1]]


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


def verify_degree_connectivity(g: Graph) -> DegreeConnectivityReport:
    """Verify that a connected regular equiarboreal graph has edge
    connectivity equal to its degree, plus every structural cut property
    that applies at its degree.

    Every minimum cut is checked, within the matrix limit of the
    equiarboreal precondition: a minimum cut below k, any non-trivial cut
    of k edges at k >= 11, and any non-trivial minimum cut violating the
    prohibitions that apply at 4 <= k <= 10 is flagged as a counterexample.
    When lambda = k the minimum cuts are all the cuts of at most k edges;
    when lambda < k (impossible under the preconditions, by the main
    theorem) only the minimum cuts are listed.  Below degree 4 with
    lambda = k no cut property applies, so only lambda is computed.
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

    if k >= 4:
        lam, sides = _minimum_cut_sides(g)
    else:
        lam = edge_connectivity(g)
        sides = _minimum_cut_sides(g)[1] if lam < k else ()
    counterexamples: list[str] = []
    if lam != k:
        counterexamples.append(f"lambda = {lam} != degree {k}")
    parity_ok: bool | None = None
    if k % 2 == 0:
        parity_ok = lam % 2 == 0
        if not parity_ok:
            counterexamples.append(f"even degree {k} but odd lambda {lam}")

    if lam < k:
        counterexamples.extend(
            f"cut of size {lam} < {k}: sides {_vertices(side)}" for side in sides)
    elif k >= 4:
        for side in sides:
            if side.bit_count() in (1, g.vertex_count - 1):
                continue  # trivial cuts are allowed
            a = _vertices(side)
            if k >= 11:
                counterexamples.append(
                    f"non-trivial cut of {lam} edges at degree {k}: sides {a}")
                continue
            cls = classify_cut(g, cut_from_side(g, a))
            if not cls.k2_component_free:
                counterexamples.append(f"cut {a} has a K2 component")
            if k >= 7:
                for x, ys in _small_degree_sum_rows(k):
                    counterexamples.extend(
                        f"cut {a} contains the forbidden "
                        f"double star for degrees ({x + 1}, {y + 1})"
                        for y in ys if not cls.strongly_sxy_free.get((x, y), True))
            if k >= 8:
                if cls.min_degree_in_cut_graph < 2:
                    counterexamples.append(f"cut {a} has a degree-1 vertex")
                least = 2 * _floor_k_minus_sqrt_k(k) - 2
                if lam < least:
                    counterexamples.append(
                        f"non-trivial cut of {lam} < {least} edges")
                if not all(cls.strongly_sx_free.values()):
                    counterexamples.append(
                        f"cut {a} contains a forbidden pendant star")

    return DegreeConnectivityReport(
        k=k,
        lam=lam,
        lambda_equals_degree=lam == k,
        parity_ok=parity_ok,
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
