"""Perfect-matching existence for even-order regular equiarboreal graphs.

Maximum matchings come from Edmonds' cardinality blossom algorithm (1965),
which unlike bipartite methods handles the non-bipartite catalog members:
a greedy matching in vertex order, then phases that each grow, by
breadth-first search, an alternating forest with one tree per exposed
vertex, shrink the odd cycles it closes into blossoms, and augment along
the first edge joining two trees.  The phase that finds no such edge labels
even the Gallai-Edmonds set D, the vertices some maximum matching leaves
exposed.  Both witnesses are checked: a perfect matching by a cover check,
otherwise the barrier U = N(D) minus D by the Tutte-Berge equality
odd(G - U) - |U| = n - 2|M|, which also proves M maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import VerificationError
from .graphs import Graph, _components

Edge = tuple[int, int]


@dataclass(frozen=True)
class MatchingResult:
    has_perfect: bool
    matching: Optional[tuple[Edge, ...]]
    #: A Tutte barrier U (odd(G - U) > |U|) when there is no perfect matching.
    barrier: Optional[tuple[int, ...]] = None


def _root_path(base: list[int], mate: list[int], parent: list[int],
               v: int) -> Iterator[int]:
    """The blossom bases met on the even alternating path from v to the
    root of its tree."""
    while True:
        v = base[v]
        yield v
        if mate[v] == -1:
            return
        v = parent[mate[v]]


def _mark(base: list[int], mate: list[int], parent: list[int],
          v: int, b: int, child: int) -> set[int]:
    """The bases on the tree path from v up to base b.  The even vertices on
    it are pointed across the new blossom, so that every vertex in it keeps
    an even alternating path to the root."""
    bases: set[int] = set()
    while base[v] != b:
        bases.update((base[v], base[mate[v]]))
        parent[v] = child
        child = mate[v]
        v = parent[child]
    return bases


def _flip(mate: list[int], parent: list[int], v: int, partner: int) -> None:
    """Match the even vertex v to partner and swap the matched and unmatched
    edges on v's alternating path to its root."""
    while True:
        odd = mate[v]
        mate[v] = partner
        if odd == -1:
            return
        v, partner = parent[odd], odd
        mate[odd] = v


def _phase(adj: Sequence[Sequence[int]], mate: list[int]) -> Optional[list[bool]]:
    """Grow an alternating forest from every exposed vertex.  Augment and
    return None at the first edge joining two trees; otherwise return the
    even labels, which mark the Gallai-Edmonds set D."""
    n = len(mate)
    base = list(range(n))
    parent = [-1] * n          # an odd vertex's tree parent
    even = [False] * n
    queue = [v for v in range(n) if mate[v] == -1]
    for r in queue:
        even[r] = True
    labelled = list(queue)
    for v in queue:            # the loop also visits vertices appended below
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if even[w]:
                path = set(_root_path(base, mate, parent, v))
                b = next((x for x in _root_path(base, mate, parent, w) if x in path), -1)
                if b == -1:            # w's tree is not v's: augment
                    _flip(mate, parent, v, w)
                    _flip(mate, parent, w, v)
                    return None
                bases = _mark(base, mate, parent, v, b, w) | _mark(base, mate, parent, w, b, v)
                for x in labelled:
                    if base[x] in bases:
                        base[x] = b
                        if not even[x]:
                            even[x] = True
                            queue.append(x)
            elif parent[w] == -1:
                parent[w] = v
                even[mate[w]] = True
                queue.append(mate[w])
                labelled += (w, mate[w])
    return even


def _matching_and_barrier(g: Graph) -> tuple[tuple[Edge, ...], Optional[tuple[int, ...]]]:
    """A maximum matching and, unless it is perfect, the Tutte barrier
    N(D) minus D; both checked."""
    n = g.vertex_count
    adj = [g.neighbors(v) for v in range(n)]
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            w = next((w for w in adj[v] if mate[w] == -1), -1)
            if w != -1:
                mate[v], mate[w] = w, v
    even = _phase(adj, mate)
    while even is None:
        even = _phase(adj, mate)
    pairs = tuple((v, w) for v, w in enumerate(mate) if v < w)
    covered: set[int] = set()
    for u, v in pairs:
        if u in covered or v in covered or not g.has_edge(u, v):
            raise VerificationError(f"matching fails the cover check at {u}-{v}")
        covered.update((u, v))
    if len(covered) == n:
        return pairs, None
    barrier = {w for v in range(n) if even[v] for w in adj[v] if not even[w]}
    rest = [v for v in range(n) if v not in barrier]
    odd = sum(len(c) % 2 for c in _components(
        rest, [[w for w in nbrs if w not in barrier] for nbrs in adj]))
    if odd - len(barrier) != n - 2 * len(pairs):
        raise VerificationError(
            f"barrier of {len(barrier)} vertices leaves {odd} odd components,"
            f" which does not prove a matching of {len(pairs)} maximum")
    return pairs, tuple(sorted(barrier))


def maximum_matching(g: Graph) -> tuple[Edge, ...]:
    """A maximum-cardinality matching, as sorted (u, v) pairs with u < v."""
    return _matching_and_barrier(g)[0]


def has_perfect_matching(g: Graph) -> MatchingResult:
    """Exact decision; odd orders are rejected without running the search,
    with the empty barrier (an odd order leaves an odd component)."""
    if g.vertex_count % 2 == 1:
        return MatchingResult(False, None, ())
    pairs, barrier = _matching_and_barrier(g)
    if barrier is not None:
        return MatchingResult(False, None, barrier)
    return MatchingResult(True, pairs)
