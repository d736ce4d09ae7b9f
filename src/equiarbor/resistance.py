"""Exact effective resistances and spanning-tree counts.

A :class:`WeightedNetwork` stores conductances (1/resistance) per unordered
vertex pair.  Its constructor raises on a duplicate pair; ``from_resistances``
and ``transform.substitute_network`` merge parallel edges by conductance
addition.  An absent entry models an edge of infinite resistance, and a zero
resistance is rejected (identify the endpoints instead).  Negative
resistances are legal: some terminal-preserving transformations introduce
them, and the solver simply reports a singular network if a reduced system
degenerates.

Resistance is computed by grounding one probe vertex and solving the
reduced conductance-Laplacian system for a unit injected current.  The
Laplacian is built over the integers as ``D L D``, D the diagonal of each
vertex's lcm of conductance denominators (the identity for a graph), so it
stays symmetric.  Its integer inverse, scaled back to ``M = det L^-1``,
gives the resistance across (u, v) as the integer numerator
``M[u][u] + M[v][v] - 2 M[u][v]`` over ``det``; ``Fraction``s
are built only for values handed out.  For an unweighted connected graph
the result equals the ratio of spanning-tree counts of the edge-identified
graph and the graph itself; the test suite keeps that tree-ratio path as an
independent oracle.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import exactalg
from .errors import (
    ConnectivityError,
    InfiniteResistanceError,
    ParameterError,
    SingularNetworkError,
    SingularSystemError,
)
from .exactalg import Rational, format_rational, json_text, parse_rational
from .graphs import (
    _GRAPH6_MAX_N,
    Graph,
    _adjacency,
    _components,
    _norm_edge,
    require_connected,
)

Pair = tuple[int, int]


class WeightedNetwork:
    """Immutable electrical network over vertices ``0..n-1``."""

    __slots__ = ("_n", "_cond", "_terminals")

    def __init__(self, vertex_count: int, conductances: Mapping[Pair, Rational],
                 terminals: Iterable[int] | None = None):
        if vertex_count < 0:
            raise ParameterError("negative vertex count")
        cond: dict[Pair, Fraction] = {}
        for (u, v), c in conductances.items():
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ParameterError(f"edge {u}-{v} out of range")
            c = Fraction(c)
            if c == 0:
                continue
            key = _norm_edge(u, v)
            if key in cond:
                raise ParameterError(f"duplicate conductance entry for {key}")
            cond[key] = c
        self._n = vertex_count
        self._cond = cond
        if terminals is None:
            self._terminals = None
        else:
            ts = frozenset(terminals)
            for t in ts:
                if not 0 <= t < vertex_count:
                    raise ParameterError(f"terminal {t} out of range")
            self._terminals = ts

    @classmethod
    def from_resistances(cls, vertex_count: int,
                         edges: Iterable[tuple[int, int, Rational | int | str]],
                         terminals: Iterable[int] | None = None
                         ) -> "WeightedNetwork":
        """Build from (u, v, resistance) triples; parallel entries merge by
        conductance addition and cancellations to zero drop the edge."""
        cond: dict[Pair, Fraction] = {}
        for u, v, r in edges:
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            r = parse_rational(r) if isinstance(r, str) else Fraction(r)
            if r == 0:
                raise ParameterError(
                    f"zero resistance on {u}-{v}: identify the vertices instead")
            key = _norm_edge(u, v)
            cond[key] = cond.get(key, Fraction(0)) + 1 / r
        return cls(vertex_count,
                   {k: c for k, c in cond.items() if c != 0},
                   terminals)

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def terminals(self) -> frozenset[int] | None:
        return self._terminals

    def conductance(self, u: int, v: int) -> Fraction:
        return self._cond.get(_norm_edge(u, v), Fraction(0))

    def edge_items(self) -> list[tuple[Pair, Fraction]]:
        """(pair, conductance) in lexicographic pair order."""
        return sorted(self._cond.items())

    def neighbors(self, u: int) -> tuple[int, ...]:
        return _adjacency(self._n, self._cond)[u] if 0 <= u < self._n else ()

    def components(self) -> list[frozenset[int]]:
        return _components(range(self._n), _adjacency(self._n, self._cond))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedNetwork):
            return NotImplemented
        return (self._n == other._n and self._cond == other._cond
                and self._terminals == other._terminals)

    def __repr__(self) -> str:
        return f"WeightedNetwork({self._n}, {self.edge_items()})"


# ---------------------------------------------------------------------------
# Spanning trees (Matrix-Tree) and the tree-ratio resistance oracle


def spanning_tree_count(g: Graph) -> int:
    """Exact spanning-tree count respecting multiplicities.

    Any principal minor of the Laplacian works; vertex 0 is deleted for a
    deterministic trace.  Disconnected graphs give 0, K1 gives 1.
    """
    n = g.vertex_count
    if n == 0:
        raise ParameterError("spanning trees of the empty graph are undefined")
    rows, _, _ = _reduced_laplacian(g.edge_items(), range(n), 0)
    try:
        return exactalg.integer_solve(rows, "spanning-tree count")[0]
    except SingularSystemError:
        return 0


# ---------------------------------------------------------------------------
# Laplacian solves over the integers


def _reduced_laplacian(items: Sequence[tuple[Pair, Rational | int]],
                       vertices: Sequence[int], grounded: int
                       ) -> tuple[list[list[int]], list[int], dict[int, int]]:
    """Integer rows ``D L D`` of the conductance Laplacian on ``vertices``
    (whole components) with ``grounded`` deleted, for (pair, conductance)
    ``items``; the diagonal D holds each vertex's lcm of its conductance
    denominators, so every entry is an integer and the rows are symmetric.
    Returns the rows, the scales and each vertex's row index.  A matrix
    over ``exactalg.SIZE_LIMIT`` is refused before anything is built."""
    idx = [x for x in vertices if x != grounded]
    size = len(idx)
    exactalg._check_size(size)
    pos = {x: i for i, x in enumerate(idx)}
    scales = [1] * size
    for (a, b), c in items:
        for x in (a, b):
            i = pos.get(x)
            if i is not None:
                scales[i] = math.lcm(scales[i], c.denominator)
    rows = [[0] * size for _ in range(size)]
    for (a, b), c in items:
        for x, y in ((a, b), (b, a)):
            i = pos.get(x)
            if i is not None:
                w = c.numerator * (scales[i] // c.denominator)
                rows[i][i] += w * scales[i]
                j = pos.get(y)
                if j is not None:
                    rows[i][j] -= w * scales[j]
    return rows, scales, pos


def _grounded_adjugate(items: Sequence[tuple[Pair, Rational | int]], n: int
                       ) -> tuple[int, list[list[int]]]:
    """``(det, M)`` with ``M = det L^-1`` over the integers, L the Laplacian
    of vertices ``0..n-1`` grounded at ``n - 1``; M is n x n, its grounded
    row and column zero, so ``_edge_numerators`` can index it directly.
    ``M = D (det (D L D)^-1) D`` with ``det = det(D L D)``."""
    rows, scales, _ = _reduced_laplacian(items, range(n), n - 1)
    size = len(rows)
    for i, row in enumerate(rows):
        row += [0] * size
        row[size + i] = 1
    try:
        det, m = exactalg.integer_solve(rows, "inverse")
    except SingularSystemError as exc:
        raise SingularNetworkError("reduced system is singular") from exc
    if any(s != 1 for s in scales):
        m = [[x * si * sj for x, sj in zip(row, scales)] for row, si in zip(m, scales)]
    return det, [row + [0] for row in m] + [[0] * n]


def _edge_numerators(m: Sequence[Sequence[int]], pairs: Iterable[Pair]) -> list[int]:
    """``M[u][u] + M[v][v] - 2 M[u][v]`` per pair: the resistance across it
    times the determinant M was scaled by."""
    return [m[u][u] + m[v][v] - 2 * m[u][v] for u, v in pairs]


def resistance(net: WeightedNetwork, u: int, v: int) -> Fraction:
    """Effective resistance between u and v by grounding v and injecting a
    unit current at u."""
    det, potential = _potentials(net, u, v)
    return Fraction(potential[u], det)


def _potentials(net: WeightedNetwork, u: int, v: int) -> tuple[int, dict[int, int]]:
    """``(det, {vertex: det * potential})`` over the component of u and v
    except the grounded v, with a unit current injected at u.  The rows go
    by ascending degree, ties to the smaller vertex; a symmetric reordering
    changes neither det, with its sign, nor the potentials."""
    n = net.vertex_count
    if not (0 <= u < n and 0 <= v < n):
        raise ParameterError(f"probe vertex out of range 0..{n - 1}")
    if u == v:
        raise ParameterError("identical probe vertices")
    adj = _adjacency(n, net._cond)
    comp = _components((u,), adj)[0]
    if v not in comp:
        raise InfiniteResistanceError(
            f"vertices {u} and {v} lie in different components")
    # Low degree first (Tinney & Walker 1967): a vertex eliminated early
    # gives zero multipliers to every row it is not adjacent to.
    order = sorted(comp, key=lambda x: (len(adj[x]), x))
    rows, scales, pos = _reduced_laplacian(net.edge_items(), order, grounded=v)
    p = pos[u]
    for i, row in enumerate(rows):
        row.append(scales[p] if i == p else 0)
    try:  # (D L D) y = D e_p, so the potential at x is d_x y_x
        det, det_y = exactalg.integer_solve(rows, "solve")
    except SingularSystemError as exc:
        raise SingularNetworkError(
            f"reduced system is singular for probe pair ({u}, {v})") from exc
    return det, {x: scales[i] * det_y[i][0] for x, i in pos.items()}


def resistance_matrix(net: WeightedNetwork) -> list[list[Fraction]]:
    """All pairwise resistances from a single factorization.

    Grounds the last vertex and inverts the reduced Laplacian once over the
    integers; Omega(u, v) = (M[u][u] + M[v][v] - 2 M[u][v]) / det for
    M = det L^-1, with the grounded row and column read as zero.
    """
    n = net.vertex_count
    if len(net.components()) > 1:
        raise ConnectivityError("resistance matrix needs a connected network")
    det, m = _grounded_adjugate(net.edge_items(), n)
    pairs = list(combinations(range(n), 2))
    out = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), num in zip(pairs, _edge_numerators(m, pairs)):
        out[a][b] = out[b][a] = Fraction(num, det)
    return out


# ---------------------------------------------------------------------------
# Foster sum and inverse-weight sums


def foster_sum(g: Graph) -> Fraction:
    """Sum of edge resistances counting multiplicity; equals n - 1 on any
    connected graph."""
    require_connected(g, "foster sum")
    items = g.edge_items()
    det, m = _grounded_adjugate(items, g.vertex_count)
    nums = _edge_numerators(m, (e for e, _ in items))
    return Fraction(sum(mult * num for (_, mult), num in zip(items, nums)), det)


def w_sum(net: WeightedNetwork, u: int) -> Fraction:
    """Sum of inverse resistances over the edges incident to u.

    Equals the degree on unweighted graphs.
    """
    if not 0 <= u < net.vertex_count:
        raise ParameterError(f"vertex {u} out of range")
    nbrs = net.neighbors(u)
    if not nbrs:
        raise ParameterError(f"vertex {u} has no incident edges")
    return sum((net.conductance(u, v) for v in nbrs), Fraction(0))


# ---------------------------------------------------------------------------
# Network JSON format: {"vertices": n, "terminals": [...],
#                       "edges": [{"u":, "v":, "r": "p/q"}]}


def network_to_json_dict(net: WeightedNetwork) -> dict:
    edges = []
    for (u, v), c in net.edge_items():
        edges.append({"u": u, "v": v, "r": format_rational(1 / c)})
    return {
        "vertices": net.vertex_count,
        "terminals": sorted(net.terminals) if net.terminals is not None else [],
        "edges": edges,
    }


def _is_index(value: object, bound: int) -> bool:
    """An int, not a bool, in 0..bound-1."""
    return type(value) is int and 0 <= value < bound


def network_from_json_dict(data: Mapping) -> WeightedNetwork:
    if not isinstance(data, Mapping):
        raise ParameterError("bad network JSON: the top level must be an object")
    for key in ("vertices", "edges"):
        if key not in data:
            raise ParameterError(f"bad network JSON: missing key {key!r}")
    n, raw_edges = data["vertices"], data["edges"]
    if not _is_index(n, _GRAPH6_MAX_N + 1):
        raise ParameterError(
            f"bad network JSON: 'vertices' must be an integer in 0..{_GRAPH6_MAX_N}")
    if not isinstance(raw_edges, list):
        raise ParameterError("bad network JSON: 'edges' must be a list")
    terminals = data.get("terminals")
    if terminals is not None and not (
            isinstance(terminals, list) and all(_is_index(t, n) for t in terminals)):
        raise ParameterError(
            f"bad network JSON: 'terminals' must be a list of vertices in 0..{n - 1}")
    edges = []
    for i, e in enumerate(raw_edges):
        if not isinstance(e, dict) or not {"u", "v", "r"} <= e.keys():
            raise ParameterError(
                f"bad network JSON: edge {i} must be an object with u, v and r")
        u, v = e["u"], e["v"]
        if type(u) is not int or type(v) is not int:
            raise ParameterError(f"bad network JSON: edge {i} endpoints must be integers")
        try:
            r = parse_rational(str(e["r"]))
        except ValueError as exc:
            raise ParameterError(str(exc)) from exc
        edges.append((u, v, r))
    return WeightedNetwork.from_resistances(n, edges, terminals or None)


def load_network(path: str) -> WeightedNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_json_dict(json.load(fh))


def dump_network(net: WeightedNetwork) -> str:
    return json_text(network_to_json_dict(net)) + "\n"
