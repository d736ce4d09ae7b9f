"""Multigraph representation, graph6 codec, and the generator families
used by the verification catalog.

Vertices are always ``0..n-1``.  The core type is a multigraph because
vertex identification produces parallel edges; simple graphs are the
special case where every multiplicity is 1.

Generator labelings (stable, so witnesses in reports are reproducible):

* ``complete(n)``: all pairs.
* ``complete_bipartite(m, n)``: left part ``0..m-1``, right part ``m..m+n-1``.
* ``cycle(n)``: ``i -- i+1 mod n``.
* ``star(n)``: centre 0, leaves ``1..n-1`` (star of order n).
* ``double_star(m, n)``: centres 0 and ``m+1``; leaves ``1..m`` and
  ``m+2..m+n+1``; centres joined by an edge.
* ``hypercube(d)``: vertices are the integers ``0..2^d-1`` read as bit
  strings; edges flip one bit.
* ``petersen()``: outer cycle ``0..4``, inner pentagram ``5..9``, spokes
  ``i -- i+5``.
* ``triangular_prism()``: triangles ``{0,1,2}`` and ``{3,4,5}``, rungs
  ``i -- i+3``.
* ``hamming(d, q)``: vertices are length-d base-q digit strings in
  lexicographic order; edges join strings at Hamming distance 1.
* ``johnson(n, k)``: vertices are the k-subsets of ``{0..n-1}`` in
  lexicographic order; edges join subsets meeting in k-1 points.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ConnectivityError, Graph6ParseError, ParameterError, ScaleError

Edge = tuple[int, int]

_GRAPH6_MAX_N = 258047


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _adjacency(n: int, pairs: Iterable[Edge]) -> tuple[tuple[int, ...], ...]:
    """The sorted distinct neighbours of each vertex ``0..n-1`` of the
    undirected pairs; a pair may repeat."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def _components(vertices: Iterable[int],
                adj: Sequence[Sequence[int]]) -> list[frozenset[int]]:
    """Connected components reachable from ``vertices`` along ``adj``,
    each listed once, by depth-first search.  With ``vertices`` increasing,
    the components come ordered by their least vertex."""
    seen: set[int] = set()
    comps = []
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


class _PairMap:
    """Vertices ``0..n-1`` and a value per unordered vertex pair, keyed
    ``(u, v)`` with u < v: the core shared by :class:`Graph` (values are
    multiplicities) and ``resistance.WeightedNetwork`` (conductances).  A
    subclass validates its pairs after this constructor has checked the
    vertex count, and stores them in ``_pairs``."""

    __slots__ = ("_n", "_pairs", "_adj")

    def __init__(self, vertex_count: int):
        if vertex_count < 0:
            raise ParameterError("negative vertex count")
        self._n = vertex_count
        self._adj: tuple[tuple[int, ...], ...] | None = None  # built on first use

    @property
    def vertex_count(self) -> int:
        return self._n

    def edge_items(self) -> list:
        """(pair, value) in lexicographic pair order."""
        return sorted(self._pairs.items())

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._neighbour_table()[u] if 0 <= u < self._n else ()

    def components(self) -> list[frozenset[int]]:
        return _components(range(self._n), self._neighbour_table())

    def _neighbour_table(self) -> tuple[tuple[int, ...], ...]:
        if self._adj is None:
            self._adj = _adjacency(self._n, self._pairs)
        return self._adj

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._n}, {self.edge_items()})"


class Graph(_PairMap):
    """Immutable undirected multigraph with integer edge multiplicities."""

    __slots__ = ("_degrees",)

    def __init__(self, vertex_count: int,
                 edges: Iterable[Edge | tuple[int, int, int]] = ()):
        super().__init__(vertex_count)
        acc: dict[Edge, int] = {}
        for e in edges:
            if len(e) == 3:
                u, v, mult = e  # type: ignore[misc]
            else:
                u, v = e  # type: ignore[misc]
                mult = 1
            if mult < 1:
                raise ParameterError(f"multiplicity {mult} < 1 on edge {u}-{v}")
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ParameterError(f"edge {u}-{v} out of range 0..{vertex_count - 1}")
            key = _norm_edge(u, v)
            acc[key] = acc.get(key, 0) + mult
        self._pairs = acc
        degrees = [0] * vertex_count
        for (u, v), m in acc.items():
            degrees[u] += m
            degrees[v] += m
        self._degrees = tuple(degrees)

    @property
    def edge_count(self) -> int:
        """Total number of edges counting multiplicity."""
        return sum(self._pairs.values())

    def edge_list(self) -> list[Edge]:
        """Edges in lexicographic order, repeated per multiplicity."""
        out: list[Edge] = []
        for e, m in self.edge_items():
            out.extend([e] * m)
        return out

    def multiplicity(self, u: int, v: int) -> int:
        return self._pairs.get(_norm_edge(u, v), 0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.multiplicity(u, v) > 0

    def degree(self, u: int) -> int:
        return self._degrees[u]

    @property
    def is_simple(self) -> bool:
        return all(m == 1 for m in self._pairs.values())

    def is_regular(self) -> int | None:
        """The common degree, or None if the graph is not regular."""
        if self._n == 0:
            return None
        k = self._degrees[0]
        return k if all(d == k for d in self._degrees) else None

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._pairs == other._pairs

    def __hash__(self) -> int:
        # Cheap and consistent with __eq__, which decides equality.
        return hash((self._n, self._degrees))


# ---------------------------------------------------------------------------
# Generators


def _complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete(n) needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def _complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ParameterError("complete_bipartite(m, n) needs m, n >= 1")
    return Graph(m + n, ((u, m + v) for u in range(m) for v in range(n)))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle(n) needs n >= 3")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def _star(n: int) -> Graph:
    if n < 2:
        raise ParameterError("star(n) needs n >= 2")
    return Graph(n, ((0, i) for i in range(1, n)))


def _double_star(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ParameterError("double_star(m, n) needs m, n >= 1")
    edges = [(0, i) for i in range(1, m + 1)]
    edges.append((0, m + 1))
    edges.extend((m + 1, m + 1 + j) for j in range(1, n + 1))
    return Graph(m + n + 2, edges)


def _hypercube(d: int) -> Graph:
    if d < 1:
        raise ParameterError("hypercube(d) needs d >= 1")
    return Graph(1 << d, ((v, v ^ (1 << b)) for v in range(1 << d)
                          for b in range(d) if v < v ^ (1 << b)))


def _petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((i + 5, 5 + (i + 2) % 5))
    return Graph(10, edges)


def _triangular_prism() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


def _hamming(d: int, q: int) -> Graph:
    if d < 1 or q < 2:
        raise ParameterError("hamming(d, q) needs d >= 1 and q >= 2")
    # Vertex v encodes the digit string of v in base q, most significant
    # digit first, which is exactly lexicographic order on strings.  Raising
    # the digit of place value p from a to b > a lists each edge once.
    return Graph(q ** d, ((v, v + (b - v // p % q) * p)
                          for v in range(q ** d) for p in (q ** i for i in range(d))
                          for b in range(v // p % q + 1, q)))


def _johnson(n: int, k: int) -> Graph:
    if n < 1 or k < 1 or k > n:
        raise ParameterError(f"johnson({n}, {k}) needs 1 <= k <= n")
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    index = {s: i for i, s in enumerate(subsets)}
    # Swapping a point a of s for a larger point b outside s lists each
    # edge once.
    return Graph(len(subsets), ((i, index[s - {a} | {b}])
                                for i, s in enumerate(subsets)
                                for b in range(n) if b not in s
                                for a in s if a < b))


def _hamming_size(d: int, q: int) -> tuple[int, int]:
    n = q ** min(d, 18)  # q >= 2, so q**18 is already above the vertex limit
    return n, n * d * (q - 1) // 2


def _johnson_size(n: int, k: int) -> tuple[int, int]:
    # C(n, i) grows with i up to n/2, so the product stops once it passes
    # the vertex limit.  J(n, n) has one vertex, but that vertex is built as
    # a set of all n points, so the ground set counts against the limit too.
    count = 1
    for i in range(1, min(k, n - k) + 1):
        count = count * (n - i + 1) // i
        if count > _GRAPH6_MAX_N:
            break
    return max(count, n), count * k * (n - k) // 2


#: Edge budget of a generated graph; the vertex limit is graph6's.
_MAX_GENERATED_EDGES = 10 ** 6

_FAMILIES = {
    # name: (builder, arity, (vertices, edges) from the parameters)
    "complete": (_complete, 1, lambda n: (n, n * (n - 1) // 2)),
    "complete_bipartite": (_complete_bipartite, 2, lambda m, n: (m + n, m * n)),
    "cycle": (_cycle, 1, lambda n: (n, n)),
    "star": (_star, 1, lambda n: (n, n - 1)),
    "double_star": (_double_star, 2, lambda m, n: (m + n + 2, m + n + 1)),
    "hypercube": (_hypercube, 1, lambda d: _hamming_size(d, 2)),
    "petersen": (_petersen, 0, lambda: (10, 15)),
    "triangular_prism": (_triangular_prism, 0, lambda: (6, 9)),
    "hamming": (_hamming, 2, _hamming_size),
    "johnson": (_johnson, 2, _johnson_size),
}


def member_size(family: str, params: Sequence[int] = ()) -> tuple[int, int] | None:
    """``(vertices, edges)`` of a generator family member from its closed
    form, without building it; None when a parameter is below 1, which the
    builder rejects.  Raises the errors ``generate`` raises before building:
    an unknown family, a wrong parameter count, and ``ScaleError`` above the
    graph6 vertex limit or the edge budget."""
    if family not in _FAMILIES:
        raise ParameterError(f"unknown family {family!r}; "
                             f"known: {sorted(_FAMILIES)}")
    _, arity, size = _FAMILIES[family]
    if len(params) != arity:
        raise ParameterError(f"{family} takes {arity} parameter(s), got {len(params)}")
    # Every builder rejects a parameter below 1; the closed forms assume none.
    if not all(p >= 1 for p in params):
        return None
    n, m = size(*params)
    if n > _GRAPH6_MAX_N or m > _MAX_GENERATED_EDGES:
        raise ScaleError(
            f"{family} {list(params)} is above the generator limits of "
            f"{_GRAPH6_MAX_N} vertices and {_MAX_GENERATED_EDGES} edges")
    return n, m


def generate(family: str, params: Sequence[int] = ()) -> Graph:
    """Build the canonical labeled member of a generator family; see
    ``member_size`` for what is refused before any edge is built."""
    member_size(family, params)
    return _FAMILIES[family][0](*params)


# ---------------------------------------------------------------------------
# graph6 codec


def _g6_read_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed) from a graph6 header.  The 8-byte form
    ("~~") is refused, so n is at most ``_GRAPH6_MAX_N``."""
    if not data:
        raise Graph6ParseError("empty graph6 string", 0)
    b0 = data[0]
    if b0 != 126:  # '~'
        if not 63 <= b0 <= 126:
            raise Graph6ParseError(f"bad header byte {b0}", 0)
        return b0 - 63, 1
    if len(data) < 4:
        raise Graph6ParseError("truncated extended header", len(data))
    if data[1] == 126:
        raise Graph6ParseError("graphs above 258047 vertices are unsupported", 1)
    n = 0
    for i in range(1, 4):
        b = data[i]
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"bad header byte {b}", i)
        n = (n << 6) | (b - 63)
    return n, 4


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a simple graph (bit-exact round trip)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = s.encode("ascii", errors="replace")
    n, pos = _g6_read_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6ParseError(
            f"bit vector needs {nbytes} bytes, found {len(data) - pos}",
            len(data))
    bits: list[int] = []
    for i in range(nbytes):
        b = data[pos + i]
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"bad body byte {b}", pos + i)
        v = b - 63
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    for i in range(nbits, len(bits)):
        if bits[i]:
            raise Graph6ParseError("nonzero padding bits", pos + nbytes - 1)
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a simple graph as one graph6 line."""
    if not g.is_simple:
        raise ParameterError("graph6 cannot encode multiplicities")
    n = g.vertex_count
    if n > _GRAPH6_MAX_N:
        raise ParameterError(f"vertex count {n} above supported range")
    if n <= 62:
        header = [n + 63]
    else:
        header = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        v = 0
        for b in bits[i:i + 6]:
            v = (v << 1) | b
        body.append(v + 63)
    return bytes(header + body).decode("ascii")


# ---------------------------------------------------------------------------
# Multigraph edge-list text format: header "n m", then m lines "u v";
# repeated lines encode multiplicity (graph6 cannot carry multiplicities).


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParameterError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParameterError(f"bad edge-list header {lines[0]!r}; expected 'n m'")
    n, m = _edge_list_ints(head, lines[0])
    if n > _GRAPH6_MAX_N:
        raise ParameterError(f"vertex count {n} above supported range")
    if len(lines) - 1 != m:
        raise ParameterError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParameterError(f"bad edge line {ln!r}")
        edges.append(_edge_list_ints(parts, ln))
    return Graph(n, edges)


def _edge_list_ints(parts: list[str], line: str) -> tuple[int, int]:
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParameterError(f"non-integer value in edge-list line {line!r}") from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Vertex identification (quotient multigraph)


def identify_vertices(g: Graph, groups: Sequence[Iterable[int]]
                      ) -> tuple[Graph, tuple[int, ...]]:
    """Merge each group of vertices into one, deleting loops and keeping
    parallel edges as multiplicities.

    Returns the quotient graph and the old-to-new relabeling.  Each group
    collapses onto the slot of its smallest member; surviving labels keep
    their relative order.
    """
    group_sets = [frozenset(grp) for grp in groups]
    seen: set[int] = set()
    for grp in group_sets:
        if not grp:
            raise ParameterError("empty identification group")
        for v in grp:
            if not 0 <= v < g.vertex_count:
                raise ParameterError(f"vertex {v} out of range")
            if v in seen:
                raise ParameterError(f"vertex {v} appears in two groups")
            seen.add(v)
    rep: dict[int, int] = {}
    for grp in group_sets:
        r = min(grp)
        for v in grp:
            rep[v] = r
    survivors = sorted({rep.get(v, v) for v in range(g.vertex_count)})
    new_index = {old: i for i, old in enumerate(survivors)}
    mapping = tuple(new_index[rep.get(v, v)] for v in range(g.vertex_count))
    edges = []
    for (u, v), mult in g.edge_items():
        a, b = mapping[u], mapping[v]
        if a != b:
            edges.append((a, b, mult))
    return Graph(len(survivors), edges), mapping


def require_connected(g: Graph, what: str = "operation") -> None:
    if not g.is_connected():
        raise ConnectivityError(f"{what} requires a connected graph")


# ---------------------------------------------------------------------------
# Facts computed once per scope

_T = TypeVar("_T")

#: (function, graph) -> result inside the innermost fact_scope; None outside.
_facts: ContextVar[dict | None] = ContextVar("equiarbor_facts", default=None)


@contextmanager
def fact_scope() -> Iterator[None]:
    """Within the block, every :func:`memoized` fact of a graph is computed
    once; equal graphs share the result.  Nested scopes start empty, and each
    thread starts outside any scope."""
    token = _facts.set({})
    try:
        yield
    finally:
        _facts.reset(token)


def memoized(fn: Callable[[Graph], _T]) -> Callable[[Graph], _T]:
    """Cache ``fn(g)`` per graph inside a :func:`fact_scope`; outside one,
    call ``fn`` every time.  Every caller gets the same result object, so
    it must be immutable; exceptions are not cached."""
    @functools.wraps(fn)
    def cached(g: Graph) -> _T:
        facts = _facts.get()
        if facts is None:
            return fn(g)
        key = (fn, g)
        if key not in facts:
            facts[key] = fn(g)
        return facts[key]
    return cached


def known_fact(fact: Callable[[Graph], _T], g: Graph) -> _T | None:
    """The result the :func:`memoized` ``fact`` already holds for ``g`` in
    this scope, or None; never computes it."""
    facts = _facts.get()
    return None if facts is None else facts.get((fact.__wrapped__, g))
