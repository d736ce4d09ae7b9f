"""Known answers for the benchmark, computed without equiarbor.

Graphs are built with networkx, encoded with networkx's own graph6 writer,
and every verdict the benchmark checks comes from a closed form for the
family, from networkx (distances, connectivity) or from the small exact
``Fraction`` solver below.  Nothing here imports equiarbor, so the program
under test is never its own oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import networkx as nx


# ---------------------------------------------------------------------------
# Graph families (labels as in equiarbor's generators; the benchmark relabels)


def _hamming(d: int, q: int) -> nx.Graph:
    g = nx.complete_graph(q)
    for _ in range(d - 1):
        g = nx.cartesian_product(g, nx.complete_graph(q))
    return nx.convert_node_labels_to_integers(g)


def _johnson(n: int, k: int) -> nx.Graph:
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    g = nx.empty_graph(len(subsets))
    g.add_edges_from((i, j) for i, j in combinations(range(len(subsets)), 2)
                     if len(subsets[i] & subsets[j]) == k - 1)
    return g


def _double_star(m: int, n: int) -> nx.Graph:
    g = nx.empty_graph(m + n + 2)
    g.add_edges_from((0, i) for i in range(1, m + 1))
    g.add_edge(0, m + 1)
    g.add_edges_from((m + 1, m + 1 + j) for j in range(1, n + 1))
    return g


BUILDERS = {
    "complete": nx.complete_graph,
    "complete_bipartite": nx.complete_bipartite_graph,
    "cycle": nx.cycle_graph,
    "star": lambda n: nx.star_graph(n - 1),
    "double_star": _double_star,
    "hypercube": lambda d: nx.convert_node_labels_to_integers(nx.hypercube_graph(d)),
    "petersen": nx.petersen_graph,
    "triangular_prism": lambda: nx.circular_ladder_graph(3),
    "hamming": _hamming,
    "johnson": _johnson,
}

#: Families whose automorphism group is transitive on edges (trees count:
#: every edge is a bridge of resistance 1), so every edge has resistance
#: (n-1)/m by Foster's theorem and lambda equals the minimum degree.
EDGE_TRANSITIVE = {"complete", "complete_bipartite", "cycle", "star",
                   "double_star", "hypercube", "petersen", "hamming",
                   "johnson"}

#: Distance-transitive families: the distance partition is an association
#: scheme and every distance-i graph is arc-transitive.
DISTANCE_TRANSITIVE = {"complete", "cycle", "hypercube", "petersen",
                       "hamming", "johnson"}

#: The prism's two edge orbits: triangle edges and rungs.
PRISM_RESISTANCES = {Fraction(8, 15), Fraction(3, 5)}


def build(family: str, params: tuple[int, ...]) -> nx.Graph:
    g = BUILDERS[family](*params)
    return nx.convert_node_labels_to_integers(g)


def relabel(g: nx.Graph, rng: random.Random) -> nx.Graph:
    perm = list(range(g.number_of_nodes()))
    rng.shuffle(perm)
    h = nx.relabel_nodes(g, dict(enumerate(perm)))
    out = nx.Graph()
    out.add_nodes_from(range(h.number_of_nodes()))
    out.add_edges_from(h.edges())
    return out


def graph6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


class Facts:
    """Closed-form facts about one (family, params) member."""

    def __init__(self, family: str, params: tuple[int, ...], g: nx.Graph):
        self.family = family
        self.n = g.number_of_nodes()
        self.m = g.number_of_edges()
        degrees = {d for _, d in g.degree()}
        self.regularity = degrees.pop() if len(degrees) == 1 else None
        bipartite_regular = (family == "complete_bipartite"
                             and params[0] == params[1])
        self.distance_regular = (family in DISTANCE_TRANSITIVE
                                 or bipartite_regular)
        self.equiarboreal = family in EDGE_TRANSITIVE
        self.omega = Fraction(self.n - 1, self.m) if self.equiarboreal else None
        # Edge-transitive graphs (and the vertex-transitive prism) have
        # lambda equal to the minimum degree.
        self.lam = min(d for _, d in g.degree())
        if family == "complete_bipartite":
            self.perfect_matching = params[0] == params[1]
        elif family == "star":
            self.perfect_matching = self.n == 2
        elif family == "double_star":
            self.perfect_matching = params == (1, 1)
        else:  # connected vertex-transitive
            self.perfect_matching = self.n % 2 == 0
        self.dist = dict(nx.all_pairs_shortest_path_length(g))
        self.diameter = max(max(row.values()) for row in self.dist.values())

    def class_degrees(self) -> list[int]:
        """k_i: vertices at distance i from vertex 0, i = 0..diameter."""
        counts = [0] * (self.diameter + 1)
        for d in self.dist[0].values():
            counts[d] += 1
        return counts

    def intersection_numbers(self) -> list[list[list[int]]]:
        """p^k_ij = #{z : d(x,z) = i, d(z,y) = j} for one pair at distance k."""
        d = self.diameter
        witness = {}
        for y, dy in self.dist[0].items():
            witness.setdefault(dy, y)
        p = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
        for k, y in witness.items():
            for z in range(self.n):
                p[self.dist[0][z]][self.dist[z][y]][k] += 1
        return p

    def survey_note(self) -> str:
        if not self.distance_regular:
            return "distance partition is not an association scheme"
        return f"scheme with {self.diameter} classes: all colour classes pass"


# ---------------------------------------------------------------------------
# Exact linear algebra and networks over Fraction


def fraction_solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with the first nonzero pivot; raises
    ZeroDivisionError on a singular system."""
    n = len(a)
    rows = [list(r) + [rhs] for r, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        inv = 1 / pivot_row[col]
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                f *= inv
                row = rows[r]
                for c in range(col, n + 1):
                    row[c] -= f * pivot_row[c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = rows[r][n] - sum(rows[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / rows[r][r]
    return x


def conductances(edges: list[tuple[int, int, Fraction]]) -> dict:
    """(u, v, resistance) triples to {(min, max): conductance}, merging
    parallel entries and dropping cancellations."""
    cond: dict[tuple[int, int], Fraction] = {}
    for u, v, r in edges:
        key = (min(u, v), max(u, v))
        cond[key] = cond.get(key, Fraction(0)) + 1 / r
    return {k: c for k, c in cond.items() if c != 0}


def effective_resistance(n: int, cond: dict, u: int, v: int) -> Fraction:
    """Ground v, inject a unit current at u, read the potential at u."""
    idx = [x for x in range(n) if x != v]
    pos = {x: i for i, x in enumerate(idx)}
    lap = [[Fraction(0)] * len(idx) for _ in idx]
    for (a, b), c in cond.items():
        for x in (a, b):
            if x != v:
                lap[pos[x]][pos[x]] += c
        if a != v and b != v:
            lap[pos[a]][pos[b]] -= c
            lap[pos[b]][pos[a]] -= c
    rhs = [Fraction(0)] * len(idx)
    rhs[pos[u]] = Fraction(1)
    return fraction_solve(lap, rhs)[pos[u]]


def star_mesh(cond: dict, w: int) -> dict:
    """Eliminate w: each pair of its neighbours gains c_a c_b / sum(c)."""
    star = sorted((b if a == w else a, c) for (a, b), c in cond.items()
                  if w in (a, b))
    total = sum(c for _, c in star)
    out = {k: c for k, c in cond.items() if w not in k}
    for (a, ca), (b, cb) in combinations(star, 2):
        key = (min(a, b), max(a, b))
        out[key] = out.get(key, Fraction(0)) + ca * cb / total
    return {k: c for k, c in out.items() if c != 0}


def network_json(n: int, cond: dict, terminals: list[int]) -> dict:
    edges = [{"u": u, "v": v, "r": str(1 / c)} for (u, v), c in sorted(cond.items())]
    return {"vertices": n, "terminals": terminals, "edges": edges}


def random_network(rng: random.Random, n: int) -> dict:
    """A connected network with positive rational resistances p/q,
    1 <= p, q <= 999: a random spanning tree plus about n/2 chords."""
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    while len(pairs) < n - 1 + n // 2:
        a, b = sorted(rng.sample(range(n), 2))
        pairs.add((a, b))
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b], Fraction(rng.randint(1, 999), rng.randint(1, 999)))
             for a, b in sorted(pairs)]
    return conductances(edges)


def double_star_network(m: int, n: int) -> tuple[int, dict, list[int]]:
    """The weighted double star equivalent to K_{m,n}: legs 1/n and 1/m,
    centre edge -1/(nm); the m + n originals are terminals."""
    u0, v0 = m + n, m + n + 1
    edges = [(u0, i, Fraction(1, n)) for i in range(m)]
    edges += [(v0, m + j, Fraction(1, m)) for j in range(n)]
    edges.append((u0, v0, Fraction(-1, n * m)))
    return m + n + 2, conductances(edges), list(range(m + n))


def bipartite_resistance(m: int, n: int, u: int, v: int) -> Fraction:
    """Effective resistance in K_{m,n} (left part 0..m-1)."""
    left_u, left_v = u < m, v < m
    if left_u and left_v:
        return Fraction(2, n)
    if not left_u and not left_v:
        return Fraction(2, m)
    return Fraction(m + n - 1, m * n)


def degree_pair_bound(k: int, x: int, y: int) -> Fraction | None:
    """The paper's reduced-cut-network bound, or None outside its domain."""
    a, b, c = k - x, k - y, k - x - y + 1
    den = 2 * a * b * (k + 1) - k * c * c
    if k < 3 or not (1 <= x <= k - 1 and 1 <= y <= k - 1) or x + y > k + 1 or den == 0:
        return None
    return Fraction(4 * a * b - c * c, den)
