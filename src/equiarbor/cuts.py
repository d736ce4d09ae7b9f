"""Edge connectivity, minimum-cut enumeration, and structural
classification of the bipartite graph spanned by a cut's crossing edges.

Edge connectivity and the minimum cuts come from one set of max-flows: for
each t one flow runs from the prefix 0..t-1, contracted, to t (Hao & Orlin
1994).  They share one residual: the flow to t - 1 stays a flow when t - 1
joins the prefix, so the flow to t augments from it.  Every cut separates
some such prefix from its least far-side vertex t, so lambda is the least
flow value, and the minimum cuts whose least far-side vertex is t are the
closed sets of that flow's residual graph, taken as unions of per-vertex
residual bitmasks.  They are the same for every maximum flow (Picard &
Queyranne 1980), so carrying the residual changes none.  Each is found
once, so the work grows with the number of minimum cuts, at most n(n-1)/2,
not with the 2^(n-1) bipartitions.  One walk over the neighbour lists of
its smaller side builds each side into its cut, once per fact scope; the
recount, the theorem check and the cut list all read that cut.  Every
lambda is recounted as a cut's size: each minimum cut, or for lambda alone
the cut of the minimising flow's sink side, must cross exactly lambda
edges.  Only the cut list of ``minimum_cuts`` is capped, at the matrix
limit ``exactalg.SIZE_LIMIT`` (512 vertices); lambda is not.

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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from .bounds import _floor_k_minus_sqrt_k, degree_pair_bound
from .equiarboreal import check_equiarboreal
from .errors import (
    ConnectivityError,
    ParameterError,
    PreconditionError,
    ScaleError,
    VerificationError,
)
from .exactalg import SIZE_LIMIT
from .graphs import Graph, known_fact, memoized

Edge = tuple[int, int]


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
    return _cut(g, sum(1 << v for v in a))


def _cut(g: Graph, side: int) -> EdgeCut:
    """The cut whose side A is the vertex bitmask ``side``: the one place a
    side becomes an ``EdgeCut``.  The bitmask is read once, and the
    crossing edges come from the neighbour lists of the smaller side, so a
    vertex star costs its degree."""
    n = g.vertex_count
    a = frozenset(v for v in range(side.bit_length()) if side >> v & 1)
    b = frozenset(range(n)) - a
    small = a if 2 * len(a) <= n else b
    crossing: list[Edge] = []
    for u in small:
        for w in g.neighbors(u):
            if w not in small:
                edge = (u, w) if small is a else (w, u)
                crossing.extend([edge] * g.multiplicity(u, w))
    return EdgeCut(a, b, tuple(sorted(crossing)))


# ---------------------------------------------------------------------------
# Edge connectivity and minimum cuts


def _flows(g: Graph) -> Iterator[tuple[int, int, list[int], list[int], int]]:
    """``(t, value, out, into, sink_side)`` for t = 1..n-1: the value of an
    integral max flow from the prefix 0..t-1, contracted, to t, copies of
    its residual arcs as bitmasks ``out[v]`` (each w with residual capacity
    on v -> w) and ``into[v]`` (each w with residual capacity on w -> v),
    and the bitmask of the vertices that reach t.

    One residual ``arcs[x][y]`` serves every t.  The prefix arcs into t
    count as saturated: only their bits are cleared, since no path uses
    them.  As arcs[x][y] + arcs[y][x] is twice the capacity, the value is
    t's degree less the residual on the arcs from later vertices.  Each
    augmenting path comes from a BFS backwards from t that stops at the
    first prefix vertex it reaches, so no path enters the prefix; the BFS
    that fails has visited exactly the vertices that reach t."""
    n = g.vertex_count
    arcs: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), m in g.edge_items():
        arcs[u][v] = arcs[v][u] = m
    out = [sum(1 << w for w in row) for row in arcs]
    into = out.copy()
    parent = [0] * n
    for t in range(1, n):
        prefix = (1 << t) - 1
        for s in arcs[t]:
            if s < t:
                out[s] &= ~(1 << t)
        into[t] &= ~prefix
        while True:
            seen, queue = 1 << t, [t]
            for y in queue:
                new = into[y] & ~seen
                if new & prefix:
                    break
                seen |= new
                while new:
                    low = new & -new
                    new ^= low
                    x = low.bit_length() - 1
                    parent[x] = y
                    queue.append(x)
            else:
                break
            path = [(new & prefix).bit_length() - 1, y]
            while y != t:
                y = parent[y]
                path.append(y)
            pairs = list(zip(path, path[1:]))
            bottleneck = min(arcs[x][y] for x, y in pairs)
            for x, y in pairs:
                arcs[x][y] -= bottleneck
                if not arcs[x][y]:
                    out[x] &= ~(1 << y)
                    into[y] &= ~(1 << x)
                arcs[y][x] += bottleneck
                out[y] |= 1 << x
                into[x] |= 1 << y
        value = g.degree(t) - sum(arcs[x][t] for x in arcs[t] if x > t)
        yield t, value, out.copy(), into.copy(), seen


@memoized
def edge_connectivity(g: Graph) -> int:
    """lambda(G); 0 for a disconnected graph.

    Read from the minimum cuts when they are already known, otherwise the
    least prefix flow, whose sink side (the vertices that still reach t)
    must cross exactly lambda edges.  The flows carry one residual from sink
    to sink, and any maximum flow has the same sink side."""
    if g.vertex_count < 2:
        raise ParameterError("edge connectivity needs at least 2 vertices")
    if (known := known_fact(_minimum_cuts, g)) is not None:
        return known[0]
    lam, t, side = min((value, t, sink_side) for t, value, _, _, sink_side in _flows(g))
    cut = _cut(g, side)
    if cut.size != lam or t not in cut.side_a or 0 in cut.side_a:
        raise VerificationError(
            f"the flow to {t} gives lambda {lam}, but its sink side "
            f"{sorted(cut.side_a)} crosses {cut.size} edges")
    return lam


def _reach(arcs: list[int], start: int) -> int:
    """Bitmask of the vertices reached from the bitmask ``start`` along
    ``arcs``, where ``arcs[v]`` is the bitmask of the heads of v's arcs."""
    seen = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = arcs[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen


def _closed_sides(out: list[int], into: list[int], sink_side: int,
                  t: int) -> Iterator[int]:
    """Bitmasks of the vertex sets that contain 0..t-1, omit t and are
    closed under the residual arcs ``out``/``into`` of the max flow from
    0..t-1 to t, ``sink_side`` the vertices that reach t: the near sides of
    the minimum cuts between them (Picard & Queyranne 1980).

    The closures are unions of residual bitmasks, one per vertex reached.
    Each branch either adds a free vertex with everything it reaches or
    drops it with everything that reaches it, so every leaf is a distinct
    closed set and the work is proportional to the output."""
    side = _reach(out, (1 << t) - 1)
    reach = functools.cache(lambda v, forward: _reach(out if forward else into, 1 << v))
    everything = (1 << len(out)) - 1
    stack = [(side, everything & ~(side | sink_side))]
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
def _minimum_cuts(g: Graph) -> tuple[int, tuple[EdgeCut, ...]]:
    """lambda(G) and every minimum cut of a connected graph, side A holding
    vertex 0, sorted by (|A|, lexicographic A).

    Sides found at a flow above lambda are dropped once a smaller flow shows
    up.  Each side is built into its cut once, and every cut is recounted:
    one that does not cross lambda edges means the residual closure went
    wrong."""
    n = g.vertex_count
    most = n * (n - 1) // 2  # Dinits-Karzanov-Lomonosov bound
    lam: int | None = None
    sides: list[int] = []
    for t, value, out, into, sink_side in _flows(g):
        if lam is None or value < lam:
            lam, sides = value, []
        elif value > lam:
            continue
        for side in _closed_sides(out, into, sink_side, t):
            if len(sides) > most:
                break
            sides.append(side)
    if len(sides) > most:
        raise VerificationError(
            f"more than n(n-1)/2 = {most} minimum cuts enumerated")
    cuts = [_cut(g, side) for side in sides]
    for cut in cuts:
        if cut.size != lam:
            raise VerificationError(
                f"enumerated cut of size {cut.size} disagrees with max-flow lambda {lam}")
    cuts.sort(key=lambda cut: (len(cut.side_a), sorted(cut.side_a)))
    return lam, tuple(cuts)


def cuts_up_to(g: Graph, max_size: int) -> list[EdgeCut]:
    """All cuts of at most ``max_size`` edges, for ``max_size`` up to
    lambda(G): the minimum cuts, or none below lambda; a larger ``max_size``
    is a ``ParameterError``.  Nothing in the package calls it; the
    benchmark's per-layer trace (``bench/tracer.py``) measures it by name."""
    cuts = minimum_cuts(g)
    if max_size > cuts[0].size:
        raise ParameterError(
            f"only minimum cuts are enumerated; {max_size} exceeds "
            f"lambda = {cuts[0].size}")
    return cuts if max_size == cuts[0].size else []


def minimum_cuts(g: Graph) -> list[EdgeCut]:
    """Every cut of size lambda(G), read off max-flow residual graphs,
    normalized so side A contains vertex 0 and sorted by (|A|,
    lexicographic A)."""
    if g.vertex_count < 2:
        raise ParameterError("minimum cuts need at least 2 vertices")
    if not g.is_connected():
        raise ConnectivityError("cut enumeration needs a connected graph")
    if g.vertex_count > SIZE_LIMIT:
        raise ScaleError(
            f"{g.vertex_count} vertices exceed the enumeration limit {SIZE_LIMIT}; "
            "use edge_connectivity instead")
    return list(_minimum_cuts(g)[1])


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
    """Compute all structural predicates of the cut graph by inspection,
    once ``cut`` is checked to be the cut of g with side A ``cut.side_a``."""
    if cut_from_side(g, cut.side_a) != cut:
        raise ParameterError("crossing set does not match the bipartition")
    return _classify_cut(cut)


@functools.cache
def _degree_sum_pairs(size: int) -> tuple[tuple[int, int], ...]:
    """Every (x, y) with x, y >= 1 and x + y <= size, in increasing order."""
    return tuple((x, y) for x in range(1, size) for y in range(1, size - x + 1))


def _classify_cut(cut: EdgeCut) -> CutClassification:
    """``classify_cut`` of a cut built by ``_cut``, unchecked; the adjacency
    covers the cut graph's vertices only.  Both star maps hold their keys in
    increasing order."""
    deg = _cut_graph_degrees(cut)
    adj: dict[int, set[int]] = {v: set() for v in deg}
    for u, v in cut.crossing:
        adj[u].add(v)
        adj[v].add(u)
    size = cut.size

    # The cut graph is bipartite, so no edge joins two neighbours of a
    # centre u: its closed neighbourhood induces a star exactly when no
    # crossing edge at u is parallel, i.e. when u has deg[u] neighbours.
    # Such a star of order deg[u] + 1 with a degree-1 leaf is forbidden.
    stars = {deg[u] + 1 for u in deg
             if len(adj[u]) == deg[u] and any(deg[v] == 1 for v in adj[u])}
    sx_free = {x: x not in stars for x in range(3, size + 2)}

    degree_pairs = {(deg[u], deg[v]) for (u, v) in cut.crossing}
    # A K2 component is a crossing edge whose ends meet no other.
    k2_free = (1, 1) not in degree_pairs
    sxy_free = dict.fromkeys(_degree_sum_pairs(size), True)
    for x, y in degree_pairs:  # a degree-1 end or parallel edges fall outside
        if (x - 1, y - 1) in sxy_free:
            sxy_free[x - 1, y - 1] = False

    return CutClassification(
        is_trivial=cut.is_trivial,
        a1_size=len({u for u, _ in cut.crossing}),  # crossing runs from side A
        b1_size=len({v for _, v in cut.crossing}),
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
    lambda = k no cut property applies, so only lambda is computed.  Each
    non-trivial minimum cut of a simple graph at k >= 4 must also obey the
    paper's cut lemma, every crossing edge's ``degree_pair_bound`` at most
    omega; one that does not raises ``VerificationError``.  The lemma does
    not hold for multigraphs (doubled C4 has omega 3/8 and a cut with
    bound 5/12), so they skip it.
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
        lam, min_cuts = _minimum_cuts(g)
    else:
        lam = edge_connectivity(g)
        min_cuts = _minimum_cuts(g)[1] if lam < k else ()
    counterexamples: list[str] = []
    parity_ok = lam % 2 == 0 if k % 2 == 0 else None
    if lam < k:  # a vertex star has k edges, and odd lambda at even k is below k
        counterexamples.append(f"lambda = {lam} != degree {k}")
        if parity_ok is False:
            counterexamples.append(f"even degree {k} but odd lambda {lam}")
        counterexamples.extend(
            f"cut of size {lam} < {k}: sides {sorted(cut.side_a)}" for cut in min_cuts)
    elif k >= 4:
        simple = g.is_simple
        # x + y <= k - sqrt(k) - 2 exactly; top < k, so each pair is in the cut's map.
        top = _floor_k_minus_sqrt_k(k) - 2
        for cut in min_cuts:
            if cut.is_trivial:
                continue  # trivial cuts are allowed
            a = sorted(cut.side_a)
            if simple:
                # The lemma's reduced network shorts a simple graph only.
                # There connectivity keeps each cut-graph degree <= k-1 and
                # the cut's size keeps x + y <= k+1, so every pair is in the
                # bound's domain.
                deg = _cut_graph_degrees(cut)
                bound = max(degree_pair_bound(k, deg[u], deg[v]) for u, v in cut.crossing)
                if bound > verdict.omega:
                    raise VerificationError(
                        f"cut lemma fails on the cut with sides {a}: "
                        f"bound {bound} > omega {verdict.omega}")
            if k >= 11:
                counterexamples.append(
                    f"non-trivial cut of {lam} edges at degree {k}: sides {a}")
                continue
            cls = _classify_cut(cut)
            if not cls.k2_component_free:
                counterexamples.append(f"cut {a} has a K2 component")
            if k >= 7:
                counterexamples.extend(
                    f"cut {a} contains the forbidden "
                    f"double star for degrees ({x + 1}, {y + 1})"
                    for (x, y), free in cls.strongly_sxy_free.items()
                    if not free and x + y <= top)
            if k >= 8:
                if cls.min_degree_in_cut_graph < 2:
                    counterexamples.append(f"cut {a} has a degree-1 vertex")
                least = 2 * top + 2
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
