"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's computation paths:
spanning trees by deletion-contraction, connectivity and cuts by exhaustive
bipartitions, matching sizes by exhaustive search and by networkx's
weighted blossom (a separate implementation), distances by BFS over plain
adjacency sets, solves and inverses by Gaussian and Gauss-Jordan
elimination over ``Fraction``, resistances and the equiarboreal verdict
from a ``Fraction`` Laplacian and those solves and inverses, scheme
intersection numbers by counting z for every (i, j, k) and pair, schemes
beyond distance schemes (cyclotomic schemes, group schemes and direct
products), regular equiarboreal graphs beyond schemes (semisymmetric
graphs from their LCF codes, built by networkx, and generalized Petersen
graphs), the bound grids by filtering the whole (x, y) square and
comparing ``Fraction`` values, or by walking every pair of the range with
integer cross-multiplication (the package proves the grids algebraically),
the claims identities on a 4x4x4 product grid and their sides' coefficients
by exact Lagrange interpolation (the package proves them at one point),
and the paper's lemmas as plain formulas: the worked closed-form networks,
the cut bound, star synthesis, and S-equivalence over ``Fraction``
resistances with the principle of substitution.
Agreement between these and the package is the point of the tests
importing them.
"""

from __future__ import annotations

import inspect
import random
import sys
import types
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable

import networkx as nx
from hypothesis import strategies as st

from equiarbor import bounds
from equiarbor.bounds import U1, V1, degree_pair_bound, reduced_cut_network
from equiarbor.cuts import EdgeCut, cut_from_side
from equiarbor.equiarboreal import EquiarborealVerdict
from equiarbor.errors import (
    ConnectivityError,
    DimensionError,
    InfiniteResistanceError,
    ParameterError,
    SingularNetworkError,
    SingularSystemError,
    VerificationError,
)
from equiarbor.graphs import Graph, identify_vertices
from equiarbor.resistance import WeightedNetwork, spanning_tree_count
from equiarbor.schemes import (
    AssociationScheme,
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


def tree_ratio_resistance(g: Graph, u: int, v: int) -> Fraction:
    """Resistance as tau(G with u,v identified) / tau(G): independent of
    the Laplacian-solve path, a cross-check on unweighted graphs."""
    if u == v:
        raise ParameterError("identical probe vertices")
    tau = spanning_tree_count(g)
    if tau == 0:
        raise ConnectivityError("tree-ratio resistance needs a connected graph")
    merged, _ = identify_vertices(g, [{u, v}])
    return Fraction(spanning_tree_count(merged), tau)


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


def _single_source_flow(g: Graph, t: int) -> tuple[int, list[dict[int, int]]]:
    """Edmonds-Karp max flow from vertex 0 to t with capacities equal to
    edge multiplicities, and its residual ``residual[x][y]`` per arc."""
    residual: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    for (u, v), m in g.edge_items():
        residual[u][v] = residual[v][u] = m
    flow = 0
    while True:
        parent: dict[int, int | None] = {0: None}
        queue = [0]
        for x in queue:
            for y, c in residual[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            return flow, residual
        path = []
        y = t
        while parent[y] is not None:
            path.append((parent[y], y))
            y = parent[y]
        bottleneck = min(residual[x][y] for x, y in path)
        for x, y in path:
            residual[x][y] -= bottleneck
            residual[y][x] += bottleneck
        flow += bottleneck


def _residual_reach(residual: list[dict[int, int]], starts: Iterable[int],
                    forward: bool) -> set[int]:
    """The vertices that ``starts`` reach along residual arcs, or with
    ``forward`` false, the vertices that reach one of ``starts``."""
    stack = list(starts)
    seen = set(stack)
    while stack:
        y = stack.pop()
        for z in residual[y]:
            if (residual[y][z] if forward else residual[z][y]) > 0 and z not in seen:
                seen.add(z)
                stack.append(z)
    return seen


def single_source_min_cut_sides(g: Graph) -> tuple[int, tuple[int, ...]]:
    """lambda of a connected graph and the side-A bitmask (A holding vertex
    0) of every minimum cut, sorted by (|A|, lexicographic A): n - 1 max
    flows from vertex 0 and, at each flow of value lambda to t, the sets
    holding 0..t-1, omitting t and closed under residual arcs (Picard &
    Queyranne 1980), walked by branching on the least free vertex.  The
    reference for ``cuts._minimum_cuts``."""
    n = g.vertex_count
    flows = [_single_source_flow(g, t) for t in range(1, n)]
    lam = min(flow for flow, _ in flows)
    sides = []
    for t, (flow, residual) in enumerate(flows, 1):
        side = _residual_reach(residual, range(t), True)
        if flow > lam or t in side:
            continue
        stack = [(side, set(range(n)) - side - _residual_reach(residual, [t], False))]
        while stack:
            side, free = stack.pop()
            if not free:
                sides.append(sum(1 << v for v in side))
                continue
            v = min(free)
            stack.append((side, free - _residual_reach(residual, [v], False)))
            grown = side | _residual_reach(residual, [v], True)
            stack.append((grown, free - grown))
    sides.sort(key=lambda a: (a.bit_count(), [v for v in range(n) if a >> v & 1]))
    return lam, tuple(sides)


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


def strongly_sxy_free(cut: EdgeCut) -> dict[tuple[int, int], bool]:
    """The double-star map of a cut graph, by comprehension over every pair:
    (x, y) with x, y >= 1 and x + y <= |C| is False exactly when a crossing
    edge joins ends of cut-graph degrees x + 1 and y + 1."""
    deg = Counter(v for edge in cut.crossing for v in edge)
    degree_pairs = {(deg[u], deg[v]) for (u, v) in cut.crossing}
    size = cut.size
    return {(x, y): (x + 1, y + 1) not in degree_pairs
            for x in range(1, size) for y in range(1, size - x + 1)}


def bounded_cut_sides(g: Graph, limit: int) -> list[frozenset[int]]:
    """Side-A sets (holding vertex 0) of every cut of at most ``limit``
    edges, sorted by (|A|, lexicographic A): vertices are placed one at a
    time in BFS order from vertex 0, and a partial placement is dropped once
    the edges between its two sides exceed ``limit``, since placing more
    vertices never takes a crossing edge away.  Reaches graphs far past the
    2^(n-1) walk of ``sweep_cuts_up_to`` when few cuts are small."""
    n = g.vertex_count
    dist = bfs_distances(g, 0)
    order = sorted(range(n), key=lambda v: (dist[v] < 0, dist[v], v))
    rank = {v: i for i, v in enumerate(order)}
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), m in g.edge_items():
        first, last = sorted((u, v), key=rank.__getitem__)
        earlier[last].append((first, m))
    in_a = [False] * n
    sides = []

    def place(i: int, crossing: int) -> None:
        if i == n:
            if not all(in_a):
                sides.append(frozenset(v for v in range(n) if in_a[v]))
            return
        v = order[i]
        for to_a in (True, False):
            added = sum(m for u, m in earlier[v] if in_a[u] != to_a)
            if crossing + added <= limit:
                in_a[v] = to_a
                place(i + 1, crossing + added)

    in_a[0] = True
    place(1, 0)
    sides.sort(key=lambda a: (len(a), sorted(a)))
    return sides


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


def to_networkx(g: Graph) -> nx.Graph:
    """The simple graph under ``g`` as a networkx graph on ``0..n-1``."""
    ref = nx.Graph()
    ref.add_nodes_from(range(g.vertex_count))
    ref.add_edges_from(e for e, _ in g.edge_items())
    return ref


def networkx_max_matching_size(g: Graph) -> int:
    """Maximum matching size from networkx's max-weight blossom with unit
    weights."""
    return len(nx.max_weight_matching(to_networkx(g), maxcardinality=True))


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


def cyclotomic_relation(p: int, e: int) -> list[list[int]]:
    """The cyclotomic relation on Z_p, p prime and e dividing p - 1:
    rel(x, y) is 0 on the diagonal, else 1 + the index of x - y to a
    primitive root, modulo e, so class i + 1 is the i-th coset of the e-th
    powers in GF(p)*.  A symmetric scheme iff (p - 1)/e is even (Delsarte
    1973; Bannai & Ito 1984)."""
    g = next(r for r in range(2, p) if len({pow(r, i, p) for i in range(p - 1)}) == p - 1)
    index = {pow(g, i, p): i % e for i in range(p - 1)}
    return [[0 if x == y else 1 + index[(x - y) % p] for y in range(p)]
            for x in range(p)]


def group_relation(elements: list[tuple[int, ...]]) -> list[list[int]]:
    """The group scheme of a permutation group listed with the identity
    first: rel(x, y) is the index of the conjugacy class of x^-1 y, the
    classes numbered in the order their first member appears in
    ``elements``.  A symmetric scheme when every element is conjugate to
    its inverse, as in symmetric and dihedral groups (Bannai & Ito 1984)."""
    def compose(p, q):  # p after q
        return tuple(p[i] for i in q)

    def inverse(p):
        inv = [0] * len(p)
        for i, image in enumerate(p):
            inv[image] = i
        return tuple(inv)

    class_of: dict[tuple[int, ...], int] = {}
    for g in elements:
        if g not in class_of:
            number = len(set(class_of.values()))
            for h in elements:
                class_of[compose(inverse(h), compose(g, h))] = number
    return [[class_of[compose(inverse(x), y)] for y in elements] for x in elements]


def product_relation(r: list[list[int]], s: list[list[int]]) -> list[list[int]]:
    """The direct product of two relation tables on pairs (x1, x2), point
    x1 * |s| + x2: class (i, j) is numbered i * (d + 1) + j for s's d
    classes, so (0, j) holds |r| disjoint copies of s's class j."""
    width = 1 + max(max(row) for row in s)
    return [[r[x1][y1] * width + s[x2][y2] for y1 in range(len(r)) for y2 in range(len(s))]
            for x1 in range(len(r)) for x2 in range(len(s))]


def lcf_graph(shifts: list[int], repeats: int) -> Graph:
    """The graph of an LCF code, built by networkx: the cycle 0..n-1 with n =
    len(shifts) * repeats, plus the chord i -- i + shifts[i mod len(shifts)]
    at every vertex i (Frucht 1977)."""
    g = nx.LCF_graph(len(shifts) * repeats, shifts, repeats)
    return Graph(g.number_of_nodes(), g.edges())


def generalized_petersen(n: int, k: int) -> Graph:
    """The generalized Petersen graph GP(n, k) on 2n vertices: the outer
    cycle i -- i+1, the spokes i -- n+i and the inner edges n+i --
    n+(i+k mod n), for i mod n.  Edge-transitive exactly for (n, k) in
    {(4, 1), (5, 2), (8, 3), (10, 2), (10, 3), (12, 5), (24, 5)} up to
    isomorphism (Frucht, Graver & Watkins 1971)."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(2 * n, edges)


#: Semisymmetric graphs by LCF code: edge-transitive, so equiarboreal, but
#: not vertex-transitive, so not distance-regular.  Folkman's graph (Folkman
#: 1967) is 4-regular on 20 vertices with girth 4; the Gray graph (Bouwer
#: 1968) is cubic on 54 vertices with girth 8.
SEMISYMMETRIC = {
    "Folkman": ([5, -7, -7, 5], 5),
    "Gray": ([-25, 7, -7, 13, -13, 25], 9),
}


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

    scheme = AssociationScheme(tuple(map(tuple, rel)))
    for i, j, k in product(range(n + 1), repeat=3):
        if (count := scheme.intersections[i][j][k]) != values[i][j][k]:
            raise AssertionError(f"p_ij^k at ({i}, {j}, {k}) is {count}, "
                                 f"the scan counts {values[i][j][k]}")
    return SchemeCheck(True, scheme, None)


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


def row_meets_two_over_k(k: int, x: int, ys: Iterable[int]) -> bool:
    """Whether the shifted bound at (x+1, y+1) is at least 2/k for every y
    in ys.  N/D >= 2/k is decided as N*k >= 2D, reversed when D < 0; D
    vanishes only outside the bound's domain, so there the pair test raises
    the DomainError of ``degree_pair_bound``."""
    a, k2 = k - x - 1, 2 * (k + 1)
    for y in ys:
        ab, c = a * (k - y - 1), a - y
        num_k, den = (4 * ab - c * c) * k, k2 * ab - k * c * c
        if den > 0:
            if num_k < 2 * den:
                return False
        elif den == 0:
            degree_pair_bound(k, x + 1, y + 1)  # raises the DomainError
        elif num_k > 2 * den:
            return False
    return True


def small_degree_sum_rows(k: int) -> list[tuple[int, range]]:
    """Every (x, y) with x, y >= 1 and x + y <= k - sqrt(k) - 2, grouped by
    x in increasing order: (x, range of y).  The bound is k - 2 - s for the
    least s >= 0 with s^2 >= k, found by counting up, so the boundary is
    exact without an integer square root."""
    s = 0
    while s * s < k:
        s += 1
    top = k - 2 - s
    return [(x, range(1, top - x + 1)) for x in range(1, top)]


def integer_double_star_threshold(k: int) -> bool:
    """The double-star threshold grid walked pair by pair over the rows of
    ``small_degree_sum_rows``, each pair compared with 2/k by integer
    cross-multiplication: the range and the comparison both come from this
    module, so it checks ``verify_double_star_threshold`` independently."""
    return all(row_meets_two_over_k(k, x, ys) for x, ys in small_degree_sum_rows(k))


# The product grid of the claims identities: all six conductances of the
# reduced cut network are positive on it.
IDENTITY_GRID = (range(20, 24), range(2, 6), range(2, 6))


def grid_check_identities(module: types.ModuleType = bounds) -> None:
    """The claims identities of ``module._identity_sides`` on the 64 points
    of the product grid, one nodal solve per point; a disagreement raises.
    Every side has degree <= 3 in each variable, so agreement on 4 x 4 x 4
    points proves them (the product-set lemma behind Schwartz 1980 and
    Zippel 1979).  The reference for ``bounds._check_identities``."""
    for k, x, y in product(*IDENTITY_GRID):
        for statement, left, right in module._identity_sides(k, x, y):
            if left != right:
                raise VerificationError(
                    f"identity {statement} fails at (k, x, y) = ({k}, {x}, {y})")


def _lagrange_basis(nodes: range) -> list[list[Fraction]]:
    """Row i: the coefficients of z^0, z^1, ... of the Lagrange basis
    polynomial that is 1 at nodes[i] and 0 at the other nodes."""
    rows = []
    for i, t in enumerate(nodes):
        coeffs = [Fraction(1)]
        for u in nodes:
            if u != t:  # multiply by (z - u) / (t - u)
                coeffs = [((coeffs[e - 1] if e else 0)
                           - u * (coeffs[e] if e < len(coeffs) else 0)) / (t - u)
                          for e in range(len(coeffs) + 1)]
        rows.append(coeffs)
    return rows


def identity_side_coefficients(grid: tuple[range, ...]
                               ) -> list[tuple[str, dict, dict]]:
    """For each claims identity, its statement and the coefficients
    {(a, b, c): coefficient of k^a x^b y^c} of its two sides, interpolated
    exactly over ``Fraction`` from one nodal solve per point of the product
    grid: the polynomial of degree < len(r) in each variable, r the ranges
    of ``grid``, that agrees with the side there."""
    bases = [_lagrange_basis(r) for r in grid]
    values = {index: bounds._identity_sides(*(r[i] for r, i in zip(grid, index)))
              for index in product(*(range(len(r)) for r in grid))}
    out = []
    for which, (statement, _, _) in enumerate(next(iter(values.values()))):
        sides = []
        for side in (1, 2):
            table = {index: Fraction(v[which][side]) for index, v in values.items()}
            for axis, basis in enumerate(bases):
                spread = Counter()
                for index, v in table.items():
                    for e, coeff in enumerate(basis[index[axis]]):
                        spread[index[:axis] + (e,) + index[axis + 1:]] += v * coeff
                table = spread
            sides.append(dict(table))
        out.append((statement, *sides))
    return out


def balanced_digits(value: int, base: int, count: int) -> list[int]:
    """The digits d_0, ..., d_(count-1) in (-base/2, base/2] with value =
    sum d_e base^e; raises when ``count`` digits do not hold value."""
    digits = []
    for _ in range(count):
        d = value % base
        d -= base if d > base // 2 else 0
        digits.append(d)
        value = (value - d) // base
    if value:
        raise ValueError(f"{count} balanced base-{base} digits do not hold the value")
    return digits


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


def matvec(m: list[list[Fraction | int]], v: list[Fraction | int]
           ) -> tuple[Fraction, ...]:
    """The product ``m @ v`` over ``Fraction``, ``m`` given by its rows, for
    multiplying results back."""
    if any(len(row) != len(v) for row in m):
        raise DimensionError(f"vector length {len(v)} != row length")
    return tuple(sum((a * Fraction(x) for a, x in zip(row, v)), Fraction(0)) for row in m)


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
    omega = fraction_resistance_matrix(network_from_graph(g))
    edges = [e for e, _ in g.edge_items()]
    first = omega[edges[0][0]][edges[0][1]]
    for u, v in edges:
        if omega[u][v] != first:
            return EquiarborealVerdict(False, None, (edges[0], (u, v), first, omega[u][v]))
    return EquiarborealVerdict(True, first, None)


def mutant_module(monkeypatch, module: types.ModuleType, old: str, new: str
                  ) -> types.ModuleType:
    """A fresh copy of an ``equiarbor`` module with one source fragment
    replaced, for mutation tests; the fragment must occur exactly once."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    name = module.__name__.rsplit(".", 1)[1]
    mutant = types.ModuleType(f"equiarbor._mutant_{name}")
    mutant.__package__ = "equiarbor"
    # dataclasses resolve the module's string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    return mutant


# ---------------------------------------------------------------------------
# Network fixtures and the bound's domain


def network_from_graph(g: Graph) -> WeightedNetwork:
    """Unit resistors, one per edge; multiplicity m merges to conductance m."""
    return WeightedNetwork(g.vertex_count, dict(g.edge_items()))


def edge_resistance(net: WeightedNetwork, u: int, v: int) -> Fraction | None:
    """The resistance of the edge u-v itself, None when it is absent."""
    c = net.conductance(u, v)
    return None if c == 0 else 1 / c


def with_resistance(net: WeightedNetwork, u: int, v: int, r: Fraction | int
                    ) -> WeightedNetwork:
    """A copy of net with the resistance of the edge u-v set to r."""
    key = (min(u, v), max(u, v))
    cond = {e: c for e, c in net.edge_items() if e != key}
    cond[key] = 1 / Fraction(r)
    return WeightedNetwork(net.vertex_count, cond, net.terminals)


def valid_degree_pairs(k: int) -> list[tuple[int, int]]:
    """Every (x, y) in 1..k-1 with x + y <= k + 1: the domain
    ``degree_pair_bound`` accepts at degree k >= 3."""
    return [(x, y) for x in range(1, k) for y in range(1, min(k, k + 2 - x))]


# ---------------------------------------------------------------------------
# The paper's worked networks, cut bound, star synthesis and substitution
#
# Each worked network gives (closed form, network, u, v): the tests solve
# the network across u-v and compare.


def cycle4(p: Fraction, q: Fraction) -> tuple[Fraction, WeightedNetwork, int, int]:
    """The 4-cycle u1-u2-v2-v1 with sides p and q and unit rungs u1v1 and
    u2v2, probed across u1v1."""
    return (p + q + 1) / (p + q + 2), WeightedNetwork.from_resistances(
        4, [(0, 1, p), (1, 2, 1), (2, 3, q), (3, 0, 1)]), 0, 3


def theta(x: Fraction, y: Fraction) -> tuple[Fraction, WeightedNetwork, int, int]:
    """Unit edges u1v1, u1v2 and u2v2 plus sides u1u2 = x and v1v2 = y."""
    return ((1 + x) + (2 + x) * y) / (x * y + 2 * x + 2 * y + 3), \
        WeightedNetwork.from_resistances(
            4, [(0, 2, 1), (0, 3, 1), (1, 3, 1), (0, 1, x), (2, 3, y)]), 0, 2


def theta_half(x: Fraction, y: Fraction) -> tuple[Fraction, WeightedNetwork, int, int]:
    """As ``theta``, but u2v2 carries 1/2 (two merged edges)."""
    return (2 * x + y * (2 * x + 3) + 1) / (2 * x + (2 * x + 3) * (y + 1) + 1), \
        WeightedNetwork.from_resistances(
            4, [(0, 2, 1), (0, 3, 1), (1, 3, Fraction(1, 2)), (0, 1, x), (2, 3, y)]), 0, 2


def k4_cross(x: Fraction, y: Fraction) -> tuple[Fraction, WeightedNetwork, int, int]:
    """All four unit cross edges between {u1, u2} and {v1, v2} plus the
    diagonals u1u2 = x and v1v2 = y; the closed form comes from the
    double-star rewrite."""
    value = (1 + 2 * x) / (4 + 4 * x) + (1 + 2 * y) / (4 + 4 * y) - Fraction(1, 4)
    return value, WeightedNetwork.from_resistances(
        4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (0, 1, x), (2, 3, y)]), 0, 2


def cut_reduction(k: int, x: int, y: int) -> tuple[Fraction, WeightedNetwork, int, int]:
    """The reduced cut network, probed across its crossing edge."""
    return degree_pair_bound(k, x, y), reduced_cut_network(k, x, y), U1, V1


def star_leaf_bound(k: int, x: int) -> Fraction:
    """The cut bound at a pendant star: a degree-(x-1) centre whose edge
    partner has cut-graph degree 1."""
    return Fraction(3 * k + x - 5, k * k + (x - 1) * k - 2)


def cut_lower_bound(cut: EdgeCut, k: int) -> Fraction:
    """The cut lemma over a non-trivial cut of at most k edges in a k-regular
    graph: the largest degree-pair bound across its crossing edges."""
    degree = Counter(v for edge in cut.crossing for v in edge)
    return max(degree_pair_bound(k, degree[u], degree[v]) for u, v in cut.crossing)


def synthesize_star(r12: Fraction | int, r13: Fraction | int, r23: Fraction | int
                    ) -> tuple[Fraction, Fraction, Fraction]:
    """Leg resistances of the 3-leaf star with pairwise resistances r12, r13
    and r23: half of each triangle-inequality slack, so a negative leg means
    no star realizes them."""
    r12, r13, r23 = Fraction(r12), Fraction(r13), Fraction(r23)
    return (r12 + r13 - r23) / 2, (r12 + r23 - r13) / 2, (r13 + r23 - r12) / 2


@dataclass(frozen=True)
class SEquivalence:
    """``witness`` is the lexicographically first terminal pair whose
    resistances differ, with both values (None for a disconnected pair)."""

    equivalent: bool
    witness: tuple[int, int, Fraction | None, Fraction | None] | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def _pair_resistance(net: WeightedNetwork, u: int, v: int) -> Fraction | None:
    try:
        return fraction_resistance(net, u, v)
    except InfiniteResistanceError:
        return None


def s_equivalent(a: WeightedNetwork, b: WeightedNetwork,
                 terminals: Iterable[int]) -> SEquivalence:
    """Whether every pair of terminals has the same ``fraction_resistance``
    in both networks."""
    for u, v in combinations(sorted(set(terminals)), 2):
        ra, rb = _pair_resistance(a, u, v), _pair_resistance(b, u, v)
        if ra != rb:
            return SEquivalence(False, (u, v, ra, rb))
    return SEquivalence(True)


def substitute_network(host: WeightedNetwork, removed: Iterable[tuple[int, int]],
                       replacement: WeightedNetwork, attach: list[int]) -> WeightedNetwork:
    """The principle of substitution: delete the ``removed`` host edges and
    add ``replacement``, whose vertex i is host vertex ``attach[i]`` and whose
    further vertices are appended.  Parallel pieces add as conductances."""
    n = host.vertex_count + replacement.vertex_count - len(attach)
    mapping = list(attach) + list(range(host.vertex_count, n))
    gone = {(min(u, v), max(u, v)) for u, v in removed}
    cond = {e: c for e, c in host.edge_items() if e not in gone}
    for (u, v), c in replacement.edge_items():
        key = (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
        cond[key] = cond.get(key, Fraction(0)) + c
    return WeightedNetwork(n, cond, host.terminals)


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
