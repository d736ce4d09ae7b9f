"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's computation paths:
spanning trees by deletion-contraction, connectivity and cuts by exhaustive
bipartitions, matchings by exhaustive search, distances by BFS over plain
adjacency sets, solves and inverses by Gaussian and Gauss-Jordan
elimination over ``Fraction``.  Agreement between these and the package is
the point of the tests importing them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from equiarbor.cuts import EdgeCut, cut_from_side
from equiarbor.errors import SingularSystemError
from equiarbor.graphs import Graph
from equiarbor.resistance import WeightedNetwork


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


# ---------------------------------------------------------------------------
# Random instances (always seeded by the caller)


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
