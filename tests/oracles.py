"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's computation paths:
spanning trees by deletion-contraction, connectivity and cuts by exhaustive
bipartitions, matchings by exhaustive search, distances by BFS over plain
adjacency sets, solves and inverses by Gaussian and Gauss-Jordan
elimination over ``Fraction``, resistances and the equiarboreal verdict
from a ``Fraction`` Laplacian and those solves and inverses, scheme
intersection numbers by counting z for every (i, j, k) and pair, the bound
grids by filtering the whole (x, y) square and comparing ``Fraction``
values.  Agreement between these and the package is the point of the tests
importing them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from equiarbor.bounds import degree_pair_bound
from equiarbor.cuts import EdgeCut, cut_from_side
from equiarbor.equiarboreal import EquiarborealVerdict
from equiarbor.errors import (
    ConnectivityError,
    DimensionError,
    InfiniteResistanceError,
    SingularNetworkError,
    SingularSystemError,
)
from equiarbor.exactalg import RationalMatrix
from equiarbor.graphs import Graph
from equiarbor.resistance import WeightedNetwork
from equiarbor.schemes import (
    IntersectionTensor,
    SchemeCheck,
    SchemeViolation,
    _validate_table,
)


def tau_deletion_contraction(g: Graph) -> int:
    """Spanning-tree count by deletion-contraction with a multiplicity
    shortcut: tau(G) = tau(G - e*) + mult(e) * tau(G / e)."""

    def rec(n: int, mult: dict[tuple[int, int], int]) -> int:
        if n == 1:
            return 1
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for (u, v) in mult:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            return 0
        if len(mult) == n - 1:  # spanning tree topology
            product = 1
            for m in mult.values():
                product *= m
            return product
        (u, v), m = next(iter(mult.items()))
        rest = {k: x for k, x in mult.items() if k != (u, v)}
        t_delete = rec(n, rest)
        contracted: dict[tuple[int, int], int] = {}
        for (a, b), mm in rest.items():
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 == b2:
                continue
            a2 = a2 - 1 if a2 > v else a2
            b2 = b2 - 1 if b2 > v else b2
            key = (min(a2, b2), max(a2, b2))
            contracted[key] = contracted.get(key, 0) + mm
        return t_delete + m * rec(n - 1, contracted)

    return rec(g.vertex_count, dict(g.edge_items()))


def brute_force_edge_connectivity(g: Graph) -> int:
    """Minimum crossing size over all bipartitions, straight from the
    definition (itertools, no incremental tricks)."""
    n = g.vertex_count
    best = None
    vertices = list(range(1, n))
    for size in range(0, n - 1):
        for rest in combinations(vertices, size):
            side_a = {0, *rest}
            crossing = sum(m for (u, v), m in g.edge_items()
                           if (u in side_a) != (v in side_a))
            if best is None or crossing < best:
                best = crossing
    return best if best is not None else 0


def brute_force_min_cut_sides(g: Graph) -> list[frozenset[int]]:
    """Side-A sets (containing vertex 0) of every minimum cut."""
    lam = brute_force_edge_connectivity(g)
    n = g.vertex_count
    out = []
    vertices = list(range(1, n))
    for size in range(0, n - 1):
        for rest in combinations(vertices, size):
            side_a = frozenset({0, *rest})
            crossing = sum(m for (u, v), m in g.edge_items()
                           if (u in side_a) != (v in side_a))
            if crossing == lam:
                out.append(side_a)
    return out


def sweep_cuts_up_to(g: Graph, max_size: int) -> list[EdgeCut]:
    """Every cut of at most ``max_size`` edges, side A holding vertex 0,
    sorted by (|A|, lexicographic A): a Gray-code walk over all 2^(n-1)
    bipartitions that keeps the crossing count up to date one vertex flip
    at a time."""
    n = g.vertex_count
    nbr: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), m in g.edge_items():
        nbr[u].append((v, m))
        nbr[v].append((u, m))
    deg = [g.degree(v) for v in range(n)]
    in_b = [False] * n
    crossing = 0
    hits = []
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length()  # lowest set bit of i -> vertex v in 1..n-1
        to_b = sum(m for (u, m) in nbr[v] if in_b[u])
        if in_b[v]:
            crossing -= deg[v] - 2 * to_b
        else:
            crossing += deg[v] - 2 * to_b
        in_b[v] = not in_b[v]
        if crossing <= max_size:
            hits.append(frozenset(x for x in range(n) if not in_b[x]))
    cuts = [cut_from_side(g, side) for side in hits]
    cuts.sort(key=lambda c: (len(c.side_a), sorted(c.side_a)))
    return cuts


def exhaustive_max_matching_size(g: Graph) -> int:
    """Maximum matching size by branching on the first uncovered vertex."""
    edges = [e for e, _ in g.edge_items()]
    adj: dict[int, list[int]] = {v: [] for v in range(g.vertex_count)}
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)

    def rec(covered: frozenset[int], start: int) -> int:
        for u in range(start, g.vertex_count):
            if u not in covered:
                best = rec(covered, u + 1)  # leave u uncovered
                for v in adj[u]:
                    if v not in covered:
                        best = max(best, 1 + rec(covered | {u, v}, u + 1))
                return best
        return 0

    return rec(frozenset(), 0)


def bfs_distances(g: Graph, source: int) -> list[int]:
    from collections import deque

    dist = [-1] * g.vertex_count
    dist[source] = 0
    adj = [list(g.neighbors(v)) for v in range(g.vertex_count)]
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def scan_verify_scheme(rel: list[list[int]]) -> SchemeCheck:
    """The scheme axioms checked by the direct scan: for every (i, j, k),
    count the z for each pair of class k and compare with the class's first
    pair.  O(c^2 n^3) for c classes; the reference for ``verify_scheme``."""
    size, n = _validate_table(rel)

    for x in range(size):
        if rel[x][x] != 0:
            return SchemeCheck(False, None,
                               SchemeViolation("identity", (x, x, rel[x][x])))
        for y in range(size):
            if x != y and rel[x][y] == 0:
                return SchemeCheck(False, None,
                                   SchemeViolation("identity", (x, y, 0)))

    attained = {rel[x][y] for x in range(size) for y in range(size)}
    for cls in range(n + 1):
        if cls not in attained:
            return SchemeCheck(False, None, SchemeViolation("cover", (cls,)))

    for x in range(size):
        for y in range(x + 1, size):
            if rel[x][y] != rel[y][x]:
                return SchemeCheck(False, None,
                                   SchemeViolation("symmetry", (x, y)))

    # Intersection counts: group ordered pairs by class once, then demand
    # the z-count be constant over each class for every (i, j).
    pairs_by_class: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for x in range(size):
        for y in range(size):
            pairs_by_class[rel[x][y]].append((x, y))

    values = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                ref_x, ref_y = pairs_by_class[k][0]
                ref = sum(1 for z in range(size)
                          if rel[ref_x][z] == i and rel[z][ref_y] == j)
                for (x, y) in pairs_by_class[k]:
                    count = sum(1 for z in range(size)
                                if rel[x][z] == i and rel[z][y] == j)
                    if count != ref:
                        return SchemeCheck(
                            False, None,
                            SchemeViolation("intersection", (i, j, x, y)))
                values[i][j][k] = ref

    tensor = IntersectionTensor(
        n, tuple(tuple(tuple(row) for row in plane) for plane in values))
    return SchemeCheck(True, tensor, None)


def fraction_double_star_threshold(k: int) -> bool:
    """The double-star threshold grid over every (x, y) in 1..k-1: the
    range x + y <= k - sqrt(k) - 2 tested as s >= 0 and s^2 >= k for
    s = k - x - y - 2, each bound a ``Fraction`` compared with 2/k.  The
    reference for ``verify_double_star_threshold``."""
    threshold = Fraction(2, k)
    for x in range(1, k):
        for y in range(1, k):
            s = k - x - y - 2
            if s < 0 or s * s < k:
                continue
            if degree_pair_bound(k, x + 1, y + 1) < threshold:
                return False
    return True


def scan_denominator_positive(k: int) -> bool:
    """The positivity grid with the whole denominator evaluated per pair;
    the reference for ``verify_denominator_positive``."""
    for x in range(1, k - 1):
        for y in range(1, k - x):
            c = k - x - y - 1
            if 2 * (k - x - 1) * (k - y - 1) * (k + 1) - k * c * c <= 0:
                return False
    return True


def fraction_solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over ``Fraction`` with the first-nonzero pivot
    rule, then back substitution; raises ``SingularSystemError`` naming the
    first column without a pivot."""
    n = len(a)
    aug = [list(a[i]) + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {col}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        for r in range(col + 1, n):
            factor = aug[r][col] / aug[col][col]
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = aug[i][n] - sum(aug[i][j] * x[j] for j in range(i + 1, n))
        x[i] = s / aug[i][i]
    return x


def matvec(m: RationalMatrix, v: list[Fraction | int]) -> tuple[Fraction, ...]:
    """The product ``m @ v`` over ``Fraction``, for multiplying results back."""
    if len(v) != m.cols:
        raise DimensionError(f"vector length {len(v)} != {m.cols}")
    return tuple(
        sum((m.entry(i, j) * Fraction(v[j]) for j in range(m.cols)), Fraction(0))
        for i in range(m.rows)
    )


def fraction_invert(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan elimination of ``[a | I]`` over ``Fraction`` with the
    first-nonzero pivot rule."""
    n = len(a)
    aug = [list(a[i]) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {col}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [rv - factor * cv for rv, cv in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fraction_reduced_laplacian(net: WeightedNetwork, vertices: list[int],
                               grounded: int) -> list[list[Fraction]]:
    """The ``Fraction`` conductance Laplacian on ``vertices`` (a union of
    components) with ``grounded`` deleted, rows and columns in vertex order."""
    idx = [x for x in vertices if x != grounded]
    pos = {x: i for i, x in enumerate(idx)}
    rows = [[Fraction(0)] * len(idx) for _ in idx]
    for (a, b), c in net.edge_items():
        for x, y in ((a, b), (b, a)):
            if x in pos:
                rows[pos[x]][pos[x]] += c
                if y in pos:
                    rows[pos[x]][pos[y]] -= c
    return rows


def _component(net: WeightedNetwork, u: int) -> set[int]:
    adj: dict[int, set[int]] = {x: set() for x in range(net.vertex_count)}
    for (a, b), _ in net.edge_items():
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {u}, [u]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return seen


def fraction_resistance_matrix(net: WeightedNetwork) -> list[list[Fraction]]:
    """All pairwise resistances over ``Fraction``: invert the Laplacian
    grounded at the last vertex with ``fraction_invert``, then form the n^2
    pair sums M[u][u] + M[v][v] - 2 M[u][v], the grounded row and column
    read as zero.  The reference for ``resistance_matrix``."""
    n = net.vertex_count
    if n == 0:
        return []
    if len(_component(net, 0)) != n:
        raise ConnectivityError("resistance matrix needs a connected network")
    try:
        inv = fraction_invert(fraction_reduced_laplacian(net, list(range(n)), n - 1))
    except SingularSystemError as exc:
        raise SingularNetworkError("reduced system is singular") from exc
    m = [row + [Fraction(0)] for row in inv] + [[Fraction(0)] * n]
    return [[m[a][a] + m[b][b] - 2 * m[a][b] for b in range(n)] for a in range(n)]


def fraction_resistance(net: WeightedNetwork, u: int, v: int) -> Fraction:
    """Ground v in u's component and solve for a unit current injected at u
    with ``fraction_solve``.  The reference for ``resistance``."""
    comp = _component(net, u)
    if v not in comp:
        raise InfiniteResistanceError(
            f"vertices {u} and {v} lie in different components")
    rows = fraction_reduced_laplacian(net, sorted(comp), v)
    idx = [x for x in sorted(comp) if x != v]
    rhs = [Fraction(int(x == u)) for x in idx]
    try:
        x = fraction_solve(rows, rhs)
    except SingularSystemError as exc:
        raise SingularNetworkError(
            f"reduced system is singular for probe pair ({u}, {v})") from exc
    return x[idx.index(u)]


def fraction_check_equiarboreal(g: Graph) -> EquiarborealVerdict:
    """Every edge resistance as a ``Fraction`` from
    ``fraction_resistance_matrix``, compared with the first edge's; the
    reference for ``check_equiarboreal`` on connected graphs with edges."""
    omega = fraction_resistance_matrix(WeightedNetwork.from_graph(g))
    edges = [e for e, _ in g.edge_items()]
    first = omega[edges[0][0]][edges[0][1]]
    for u, v in edges:
        if omega[u][v] != first:
            return EquiarborealVerdict(False, None, (edges[0], (u, v), first, omega[u][v]))
    return EquiarborealVerdict(True, first, None)


# ---------------------------------------------------------------------------
# Random instances (always seeded by the caller)


@st.composite
def multigraphs(draw, min_vertices: int = 1, max_vertices: int = 12) -> Graph:
    """Hypothesis strategy: a multigraph with up to 24 edge entries of
    multiplicity 1..3, often disconnected."""
    n = draw(st.integers(min_vertices, max_vertices))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                      st.integers(1, 3)), max_size=24))
    return Graph(n, [(u, v, m) for u, v, m in entries if u != v])


def random_connected_graph(rng: random.Random, n: int,
                           extra_edges: int | None = None) -> Graph:
    """Random spanning tree plus a few random chords; always simple."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = order[i], order[j]
        edges.add((min(u, v), max(u, v)))
    if extra_edges is None:
        extra_edges = rng.randrange(0, n)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return Graph(n, sorted(edges))


def random_positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 12))


def random_positive_network(rng: random.Random, n: int) -> WeightedNetwork:
    g = random_connected_graph(rng, n)
    return WeightedNetwork.from_resistances(
        n, [(u, v, random_positive_rational(rng)) for (u, v), _ in g.edge_items()])
