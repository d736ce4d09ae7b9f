"""Edge connectivity, cut enumeration, and cut-graph classification."""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equiarbor import cuts as cuts_module
from equiarbor.cuts import (
    classify_cut,
    cut_from_side,
    edge_connectivity,
    minimum_cuts,
    verify_degree_connectivity,
)
from equiarbor.equiarboreal import EquiarborealVerdict
from equiarbor.errors import (
    ConnectivityError,
    ParameterError,
    PreconditionError,
    ScaleError,
    VerificationError,
)
from equiarbor.graphs import Graph, fact_scope, generate, known_fact
from equiarbor.schemes import colour_class, scheme_from_distance_partition

import oracles


def test_edge_connectivity_values():
    assert edge_connectivity(generate("cycle", (8,))) == 2
    assert edge_connectivity(generate("petersen")) == 3
    assert edge_connectivity(generate("complete_bipartite", (3, 3))) == 3
    assert edge_connectivity(generate("star", (5,))) == 1
    assert edge_connectivity(generate("complete", (5,))) == 4
    # Max-flow against the exhaustive-bipartition definition.
    assert oracles.brute_force_edge_connectivity(
        generate("complete_bipartite", (3, 3))) == 3
    assert oracles.brute_force_edge_connectivity(generate("petersen")) == 3


def test_edge_connectivity_disconnected_is_zero():
    assert edge_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0


def test_edge_connectivity_multigraph_capacities():
    g = Graph(3, [(0, 1, 3), (1, 2, 2), (0, 2, 1)])
    assert edge_connectivity(g) == 3  # min over sinks: vertex 2 gives 3


def test_edge_connectivity_against_brute_force():
    import random

    rng = random.Random(13)
    for _ in range(25):
        g = oracles.random_connected_graph(rng, rng.randint(2, 8))
        assert edge_connectivity(g) == oracles.brute_force_edge_connectivity(g)


@settings(max_examples=200, deadline=None)
@given(oracles.multigraphs(min_vertices=2))
def test_edge_connectivity_matches_brute_force_on_multigraphs(g):
    assert edge_connectivity(g) == oracles.brute_force_edge_connectivity(g)


#: Two K4 joined by the bridge 3-4: lambda 1, below every degree.
BRIDGED_K4S = Graph(8, [(u, v) for b in (0, 4) for u in range(b, b + 4)
                        for v in range(u + 1, b + 4)] + [(3, 4)])


@pytest.mark.parametrize("g,lam", [
    # Lambda below the minimum degree, so no vertex star is a minimum cut:
    # the path 2-0-1-3 with its end edges doubled, two K4 joined by a
    # bridge, two doubled triangles joined by three parallel edges, and
    # three doubled edges.
    (Graph(4, [(0, 1), (0, 2, 2), (1, 3, 2)]), 1),
    (BRIDGED_K4S, 1),
    (Graph(6, [(0, 1, 2), (1, 2, 2), (0, 2, 2), (3, 4, 2), (4, 5, 2), (3, 5, 2),
               (2, 3, 3)]), 3),
    (Graph(6, [(0, 1, 2), (2, 3, 2), (4, 5, 2)]), 0),
])
def test_lambda_below_minimum_degree_matches_brute_force(g, lam):
    assert edge_connectivity(g) == lam == oracles.brute_force_edge_connectivity(g)


def _colour_class(family, params, i):
    return colour_class(scheme_from_distance_partition(generate(family, params)), i)


#: The stress survey's schemes and the catalog's Petersen, Q4 and J(5,2).
STRESS_SCHEMES = [("hypercube", (5,)), ("johnson", (7, 3)), ("johnson", (6, 3)),
                  ("hamming", (3, 3)), ("complete", (30,)), ("cycle", (30,)),
                  ("hamming", (2, 5)), ("petersen", ()), ("hypercube", (4,)),
                  ("johnson", (5, 2))]


def _connected_colour_classes():
    for family, params in STRESS_SCHEMES:
        s = scheme_from_distance_partition(generate(family, params))
        for i in range(1, s.class_count + 1):
            g = colour_class(s, i)
            if g.is_connected():
                yield pytest.param(g, id=f"{family}{list(params)}-class{i}")


@pytest.mark.parametrize("g", _connected_colour_classes())
def test_ordering_lambda_matches_flows_on_stress_colour_classes(g):
    # These classes are the lambda-only calls of a stress survey; each is a
    # connected regular equiarboreal graph, so lambda is its degree.  The
    # name is kept from the ordering that once gave lambda alone.
    assert edge_connectivity(g) == g.is_regular()


def _path(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def _refuse(*args):
    raise AssertionError("a minimum cut was enumerated for lambda alone")


@pytest.mark.parametrize("g,lam", [
    (generate("complete", (30,)), 29),
    (_colour_class("johnson", (7, 3), 2), 18),
    (generate("cycle", (200,)), 2),
    (_path(160), 1),
    (generate("star", (200,)), 1),
])
def test_lambda_alone_enumerates_no_cut(monkeypatch, g, lam):
    monkeypatch.setattr(cuts_module, "_closed_sides", _refuse)
    assert edge_connectivity(g) == lam


@pytest.mark.parametrize("g,lam", [
    (_path(600), 1),
    (generate("cycle", (700,)), 2),
    # 600 vertices in a cycle of doubled edges with one triple edge.
    (Graph(600, [(v, (v + 1) % 600, 3 if v == 0 else 2) for v in range(600)]), 4),
])
def test_lambda_above_the_matrix_limit_enumerates_no_cut(monkeypatch, g, lam):
    # The flows build no n x n rows, so there is no size limit.
    monkeypatch.setattr(cuts_module, "_closed_sides", _refuse)
    assert edge_connectivity(g) == lam


@pytest.mark.parametrize("corrupt,message", [
    (lambda value, out, into, sink_side, t: (value - 1, out, into, sink_side),
     "the flow to 4 gives lambda 0, but its sink side [4, 5, 6, 7] crosses 1 edges"),
    (lambda value, out, into, sink_side, t: (value, out, into, 1 << t),
     "the flow to 4 gives lambda 1, but its sink side [4] crosses 4 edges"),
    # An empty side crosses no edge, but it is no cut.
    (lambda value, out, into, sink_side, t: (0, out, into, 0),
     "the flow to 1 gives lambda 0, but its sink side [] crosses 0 edges"),
], ids=["one-less", "only-t", "empty-side"])
def test_lambda_alone_is_certified_by_its_sink_side(monkeypatch, corrupt, message):
    real = cuts_module._flows

    def corrupted(g):
        for t, *flow in real(g):
            yield (t, *corrupt(*flow, t))

    monkeypatch.setattr(cuts_module, "_flows", corrupted)
    with pytest.raises(VerificationError, match=re.escape(message)):
        edge_connectivity(BRIDGED_K4S)


def test_minimum_cuts_c4_exhaustive():
    # Every bipartition of a 4-cycle crosses exactly two edges, so all six
    # bipartitions are minimum cuts: four vertex stars and the two
    # opposite-edge pairs.
    cuts = minimum_cuts(generate("cycle", (4,)))
    assert len(cuts) == 6
    assert all(c.size == 2 for c in cuts)
    sides = {c.side_a for c in cuts}
    assert sides == {frozenset(s) for s in
                     ({0}, {0, 1}, {0, 3}, {0, 1, 2}, {0, 1, 3}, {0, 2, 3})}
    assert sides == set(oracles.brute_force_min_cut_sides(generate("cycle", (4,))))


def test_minimum_cuts_petersen_all_vertex_stars():
    p = generate("petersen")
    cuts = minimum_cuts(p)
    assert len(cuts) == 10
    for cut in cuts:
        assert cut.size == 3
        assert cut.is_trivial
    star_sides = {frozenset({v}) for v in range(10)} | \
        {frozenset(set(range(10)) - {v}) for v in range(10)}
    assert all(c.side_a in star_sides or c.side_b in star_sides for c in cuts)


def test_minimum_cuts_star():
    cuts = minimum_cuts(generate("star", (5,)))
    assert len(cuts) == 4
    assert all(c.size == 1 for c in cuts)


def test_minimum_cuts_normalization_and_order():
    cuts = minimum_cuts(generate("cycle", (4,)))
    assert all(0 in c.side_a for c in cuts)
    keys = [(len(c.side_a), sorted(c.side_a)) for c in cuts]
    assert keys == sorted(keys)


def test_minimum_cuts_c6_matches_brute_force():
    c6 = generate("cycle", (6,))
    cuts = minimum_cuts(c6)
    assert {c.side_a for c in cuts} == set(oracles.brute_force_min_cut_sides(c6))


def test_enumeration_scale_error():
    big = generate("cycle", (600,))
    with pytest.raises(ScaleError, match="600 vertices exceed the enumeration "
                       "limit 512; use edge_connectivity instead"):
        minimum_cuts(big)
    assert edge_connectivity(big) == 2  # the max-flow path still works
    assert len(minimum_cuts(generate("cycle", (30,)))) == 30 * 29 // 2


def test_minimum_cuts_never_walk_the_whole_edge_list(monkeypatch):
    # The flow base reads the edge list once; each of the 1,770 cuts is
    # recounted and built from the neighbour lists of its smaller side.
    calls = []
    real = Graph.edge_items
    monkeypatch.setattr(Graph, "edge_items", lambda g: calls.append(g) or real(g))
    c60 = generate("cycle", (60,))
    cuts = minimum_cuts(c60)
    assert len(cuts) == 60 * 59 // 2 and len(calls) == 1
    # Crossing edges run from side A, whichever side is walked.
    assert cuts[0].side_a == {0} and cuts[0].crossing == ((0, 1), (0, 59))
    assert cuts[-1].side_b == {1} and cuts[-1].crossing == ((0, 1), (2, 1))
    assert cut_from_side(c60, {1}).crossing == ((1, 0), (1, 2))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 32))
def test_minimum_cuts_match_brute_force_on_random_multigraphs(n, seed):
    rng = random.Random(seed)
    simple = oracles.random_connected_graph(rng, n)
    g = Graph(n, [(u, v, rng.choice((1, 1, 1, 2, 3)))
                  for (u, v), _ in simple.edge_items()])
    cuts = minimum_cuts(g)
    assert [c.side_a for c in cuts] == sorted(
        oracles.brute_force_min_cut_sides(g), key=lambda a: (len(a), sorted(a)))
    assert all(c.size == oracles.brute_force_edge_connectivity(g) for c in cuts)


@pytest.mark.parametrize("n", range(4, 13))
def test_minimum_cuts_cycle_has_n_choose_2(n):
    # Any two of the n cycle edges form a minimum cut, the most any graph
    # on n vertices has.
    c = generate("cycle", (n,))
    sides = {cut.side_a for cut in minimum_cuts(c)}
    assert len(sides) == n * (n - 1) // 2
    assert sides == set(oracles.brute_force_min_cut_sides(c))


def test_minimum_cuts_bridge():
    # Two K4s joined by the bridge 3-4: lambda = 1 and the bridge is the
    # only minimum cut.
    left = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = Graph(8, left + [(u + 4, v + 4) for (u, v) in left] + [(3, 4)])
    cuts = minimum_cuts(g)
    assert [(c.side_a, c.crossing) for c in cuts] == [
        (frozenset(range(4)), ((3, 4),))]
    assert [c.side_a for c in cuts] == oracles.brute_force_min_cut_sides(g)


def test_minimum_cuts_doubled_petersen():
    p = generate("petersen")
    doubled = Graph(10, [(u, v, 2) for (u, v), _ in p.edge_items()])
    cuts = minimum_cuts(doubled)
    assert len(cuts) == 10 and all(c.size == 6 for c in cuts)
    assert {c.side_a for c in cuts} == set(oracles.brute_force_min_cut_sides(doubled))


def _side_masks(min_cuts) -> tuple[int, ...]:
    """The side-A bitmask of each cut, in order."""
    return tuple(sum(1 << v for v in cut.side_a) for cut in min_cuts)


def _closed_side_count(g: Graph) -> int:
    """How many sides the closure walk yields over the minimum flows."""
    flows = list(cuts_module._flows(g))
    lam = min(value for _, value, *_ in flows)
    return sum(len(list(cuts_module._closed_sides(*residual, t)))
               for t, value, *residual in flows if value == lam)


@pytest.mark.parametrize("family,params,count", [
    ("cycle", (4,), 6),
    ("cycle", (6,), 15),
    ("cycle", (30,), 435),
    ("petersen", (), 10),
    ("johnson", (6, 3), 20),
])
def test_each_minimum_cut_is_found_once(family, params, count):
    g = generate(family, params)
    assert _closed_side_count(g) == count
    assert len(cuts_module._minimum_cuts(g)[1]) == count


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 32))
def test_each_minimum_cut_is_found_once_on_random_multigraphs(n, seed):
    rng = random.Random(seed)
    simple = oracles.random_connected_graph(rng, n)
    g = Graph(n, [(u, v, rng.choice((1, 1, 1, 2, 3)))
                  for (u, v), _ in simple.edge_items()])
    assert _closed_side_count(g) == len(oracles.brute_force_min_cut_sides(g))


def _prefix_cut(g: Graph, t: int) -> int:
    """The least cut between the prefix 0..t-1 and t, over every set that
    holds the prefix and omits t."""
    rest = [v for v in range(t + 1, g.vertex_count)]
    return min(sum(m for (u, v), m in g.edge_items() if (u in side) != (v in side))
               for size in range(len(rest) + 1) for extra in combinations(rest, size)
               for side in [set(range(t)) | set(extra)])


def _reaching(out: list[int], t: int) -> int:
    reached = 1 << t
    while True:
        grown = reached | sum(1 << v for v in range(len(out)) if out[v] & reached)
        if grown == reached:
            return reached
        reached = grown


#: Its flows push 3 -> 2 back against the saturated arc 2 -> 3, so the
#: residual bitmasks must gain that arc again.
CANCELLING = Graph(6, [(0, 2, 1), (0, 3, 1), (0, 4, 3), (1, 3, 2), (1, 4, 1), (1, 5, 1),
                       (2, 3, 1), (2, 5, 1), (3, 4, 3)])


@settings(max_examples=150, deadline=None)
@given(oracles.multigraphs(min_vertices=2, max_vertices=9))
@example(CANCELLING)
@example(generate("cycle", (8,)))
@example(generate("complete", (5,)))
def test_prefix_flow_is_a_minimum_cut_with_one_residual(g):
    # Each flow's value is the least prefix-t cut, ``into`` is ``out``
    # transposed, and the sink side is what reaches t along ``out``.  On
    # C8 and K5 the flow to 1 runs through later sinks, whose flows start
    # from its residual.
    n = g.vertex_count
    flows, snapshots = [], []
    for t, value, out, into, sink_side in cuts_module._flows(g):
        assert value == _prefix_cut(g, t)
        assert all((out[v] >> w ^ into[w] >> v) & 1 == 0
                   for v in range(n) for w in range(n))
        assert sink_side == _reaching(out, t)
        flows.append((out, into))
        snapshots.append((out.copy(), into.copy()))
    # The later flows leave the bitmasks an earlier flow was yielded with.
    assert flows == snapshots


def _relabelled(g: Graph, seed: int = 1) -> Graph:
    order = list(range(g.vertex_count))
    random.Random(seed).shuffle(order)
    return Graph(g.vertex_count,
                 [(order[u], order[v], m) for (u, v), m in g.edge_items()])


#: The survey's degree >= 4 stress hosts, the doubled Petersen graph and
#: C30, whose 435 minimum cuts are the most 30 vertices can have.
ORACLE_CUT_GRAPHS = {
    f"{family}{list(params)}": generate(family, params)
    for family, params in [("hypercube", (5,)), ("johnson", (7, 3)), ("complete", (30,)),
                           ("hamming", (3, 3)), ("hamming", (2, 5)), ("cycle", (30,))]}
ORACLE_CUT_GRAPHS["doubled-petersen"] = Graph(
    10, [(u, v, 2) for (u, v), _ in generate("petersen").edge_items()])


@pytest.mark.parametrize("name", ORACLE_CUT_GRAPHS)
def test_prefix_flows_match_single_source_flows(name):
    # The prefix-source flows against the enumerator they replaced: n - 1
    # flows from vertex 0, closed over residual dicts.
    g = _relabelled(ORACLE_CUT_GRAPHS[name])
    lam, min_cuts = cuts_module._minimum_cuts(g)
    assert (lam, _side_masks(min_cuts)) == oracles.single_source_min_cut_sides(g)


@settings(max_examples=100, deadline=None)
@given(oracles.multigraphs(min_vertices=2))
def test_prefix_flows_match_single_source_flows_on_multigraphs(g):
    # Join the components by a path of single edges between least vertices.
    least = [min(comp) for comp in g.components()]
    g = Graph(g.vertex_count, [(u, v, m) for (u, v), m in g.edge_items()]
              + list(zip(least, least[1:])))
    lam, min_cuts = cuts_module._minimum_cuts(g)
    assert (lam, _side_masks(min_cuts)) == oracles.single_source_min_cut_sides(g)
    assert lam == oracles.brute_force_edge_connectivity(g)
    assert ([cut.side_a for cut in min_cuts]
            == sorted(oracles.brute_force_min_cut_sides(g),
                      key=lambda a: (len(a), sorted(a))))


@pytest.mark.parametrize("family,params,message", [
    ("star", (3,), "disagrees with max-flow lambda"),
    ("petersen", (), "more than n(n-1)/2"),
])
def test_corrupt_residual_raises(monkeypatch, family, params, message):
    # A residual with every arc saturated, so that only t reaches t, makes
    # every set holding 0..t-1 and omitting t look closed: on the 3-star
    # that adds the side {0} of a 2-edge cut, on the Petersen graph 511
    # sides.
    real = cuts_module._flows

    def saturated(g):
        for t, value, out, into, sink_side in real(g):
            yield t, value, [0] * len(out), [0] * len(into), 1 << t

    monkeypatch.setattr(cuts_module, "_flows", saturated)
    with pytest.raises(VerificationError, match=re.escape(message)):
        minimum_cuts(generate(family, params))


def _without_edges(g: Graph, edges) -> Graph:
    removal: dict[tuple[int, int], int] = {}
    for (u, v) in edges:
        key = (min(u, v), max(u, v))
        removal[key] = removal.get(key, 0) + 1
    remaining = []
    for (u, v), m in g.edge_items():
        left = m - removal.get((u, v), 0)
        if left > 0:
            remaining.append((u, v, left))
    return Graph(g.vertex_count, remaining)


def test_minimum_cut_removal_disconnects_and_is_minimal():
    for family, params in [("cycle", (5,)), ("petersen", ()),
                           ("complete_bipartite", (2, 3))]:
        g = generate(family, params)
        for cut in minimum_cuts(g):
            assert not _without_edges(g, cut.crossing).is_connected()
            for skip in range(cut.size):
                subset = cut.crossing[:skip] + cut.crossing[skip + 1:]
                assert _without_edges(g, subset).is_connected()


def test_cut_degree_identity():
    # Crossing degrees on each side sum to the cut size.
    for family, params in [("petersen", ()), ("hamming", (2, 3))]:
        g = generate(family, params)
        for cut in oracles.sweep_cuts_up_to(g, g.is_regular() + 1):
            deg_a = sum(1 for (u, v) in cut.crossing for x in [u])
            deg_b = sum(1 for (u, v) in cut.crossing for x in [v])
            assert deg_a == cut.size == deg_b


# ---------------------------------------------------------------------------
# Classification


def _pendant_star_host() -> tuple[Graph, frozenset[int]]:
    """A host whose cut graph is a 3-star at one vertex plus one extra edge
    hanging off a shared endpoint: crossing {(0,3), (0,4), (0,5), (1,5)}."""
    edges = [(0, 1), (0, 2), (1, 2),               # inside A
             (3, 4), (4, 5), (3, 6), (5, 6), (3, 5),  # inside B
             (0, 3), (0, 4), (0, 5), (1, 5)]       # crossing
    return Graph(7, edges), frozenset({0, 1, 2})


def test_classify_pendant_star_cut():
    g, side_a = _pendant_star_host()
    cut = cut_from_side(g, side_a)
    assert cut.crossing == ((0, 3), (0, 4), (0, 5), (1, 5))
    cls = classify_cut(g, cut)
    assert not cls.is_trivial
    assert cls.a1_size == 2 and cls.b1_size == 3
    assert cls.k2_component_free  # the whole cut graph is one component
    assert cls.min_degree_in_cut_graph == 1
    # A centre of degree 3 with a degree-1 leaf: not strongly S_4-free.
    assert cls.strongly_sx_free[4] is False
    # The degree-2 vertex is a star centre with a degree-1 leaf too.
    assert cls.strongly_sx_free[3] is False
    assert cls.strongly_sx_free[5] is True
    # The edge (0, 5) has cut-graph degrees (3, 2): not strongly
    # S_{2,1}-free; no other degree pair lands in the table.
    assert cls.strongly_sxy_free[(2, 1)] is False
    assert all(ok for key, ok in cls.strongly_sxy_free.items()
               if key != (2, 1))


def test_classify_k2_component():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3),   # inside A
             (4, 5), (5, 6), (6, 7), (4, 7),   # inside B
             (0, 4),                            # isolated crossing edge (K2)
             (1, 5), (1, 6), (2, 5), (2, 6)]   # crossing 4-cycle
    g = Graph(8, edges)
    cut = cut_from_side(g, {0, 1, 2, 3})
    cls = classify_cut(g, cut)
    assert cls.k2_component_free is False
    assert cls.a1_size == 3 and cls.b1_size == 3


def _naive_star_predicates(cut):
    """From-scratch re-implementation of the star prohibitions, written
    directly from their definitions over an explicit edge list."""
    edges = list(cut.crossing)
    deg: dict[int, int] = {}
    for (u, v) in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    size = len(edges)

    sx = {}
    for x in range(3, size + 2):
        found = False
        for u in deg:
            closed = {u} | {b if a == u else a for (a, b) in edges
                            if u in (a, b)}
            inside = [(a, b) for (a, b) in edges if a in closed and b in closed]
            # The induced subgraph is the star of order x centred at u
            # exactly when it has x vertices and x-1 distinct edges, all at u.
            if len(closed) != x or len(set(inside)) != x - 1:
                continue
            if len(inside) != x - 1 or any(u not in e for e in inside):
                continue
            leaves = closed - {u}
            if any(deg[v] == 1 for v in leaves):
                found = True
                break
        sx[x] = not found

    sxy = {}
    for x in range(1, size):
        for y in range(1, size):
            if x + y > size:
                continue
            sxy[(x, y)] = not any(deg[u] == x + 1 and deg[v] == y + 1
                                  for (u, v) in edges)
    return sx, sxy


def test_star_predicates_against_naive_reimplementation():
    import random

    rng = random.Random(61)
    trials = 0
    while trials < 40:
        g = oracles.random_connected_graph(rng, rng.randint(4, 9))
        size = rng.randint(1, g.vertex_count - 1)
        side = frozenset([0] + rng.sample(range(1, g.vertex_count), size - 1))
        if len(side) == g.vertex_count:
            continue
        cut = cut_from_side(g, side)
        if not cut.crossing:
            continue
        cls = classify_cut(g, cut)
        sx, sxy = _naive_star_predicates(cut)
        assert dict(cls.strongly_sx_free) == sx
        assert dict(cls.strongly_sxy_free) == sxy
        trials += 1


@settings(max_examples=200, deadline=None)
@given(oracles.multigraphs(min_vertices=2), st.data())
def test_classification_on_multigraphs(g, data):
    side = data.draw(st.sets(st.integers(0, g.vertex_count - 1),
                             min_size=1, max_size=g.vertex_count - 1))
    cut = cut_from_side(g, side)
    assume(cut.crossing)
    cls = classify_cut(g, cut)
    cut_graph = nx.MultiGraph(list(cut.crossing))
    single_edge_k2 = any(len(comp) == 2 and cut_graph.number_of_edges(*comp) == 1
                         for comp in nx.connected_components(cut_graph))
    assert cls.k2_component_free is not single_edge_k2
    sx, sxy = _naive_star_predicates(cut)
    assert dict(cls.strongly_sx_free) == sx
    assert dict(cls.strongly_sxy_free) == sxy


def test_double_star_map_matches_the_comprehension_in_key_order():
    # The map is built from cached keys in increasing order, which cut
    # --classify's JSON relies on; cut sizes 2..19.
    hosts = [Graph(ref.number_of_nodes(), list(ref.edges())) for ref in nx.graph_atlas_g()]
    hosts = [g for g in hosts if (g.is_regular() or 0) >= 2 and g.is_connected()]
    hosts += [generate("complete", (20,)), generate("johnson", (6, 3)), generate("cycle", (12,))]
    sizes = set()
    for g in hosts:
        for cut in minimum_cuts(g):
            cls = cuts_module._classify_cut(cut)
            want = oracles.strongly_sxy_free(cut)
            assert list(cls.strongly_sxy_free.items()) == list(want.items())
            assert list(want) == sorted(want)
            assert list(cls.strongly_sx_free) == sorted(cls.strongly_sx_free)
            sizes.add(cut.size)
    assert (min(sizes), max(sizes)) == (2, 19)


def test_classify_rejects_stale_crossing():
    g = generate("cycle", (6,))
    cut = cut_from_side(g, {0, 1})
    tampered = type(cut)(cut.side_a, cut.side_b, ((0, 5),))
    with pytest.raises(ParameterError):
        classify_cut(g, tampered)
    short_side_b = type(cut)(cut.side_a, cut.side_b - {3}, cut.crossing)
    with pytest.raises(ParameterError):
        classify_cut(g, short_side_b)


# ---------------------------------------------------------------------------
# The degree-connectivity verdict


@pytest.mark.parametrize("family,params,k", [
    ("petersen", (), 3),
    ("hamming", (2, 3), 4),
    ("hypercube", (4,), 4),
    ("cycle", (6,), 2),
    ("johnson", (5, 2), 6),
])
def test_degree_connectivity_catalog(family, params, k):
    report = verify_degree_connectivity(generate(family, params))
    assert report.k == k
    assert report.lam == k
    assert report.lambda_equals_degree
    assert report.passed
    if k % 2 == 0:
        assert report.parity_ok is True
    else:
        assert report.parity_ok is None


def test_degree_connectivity_below_degree_reports_minimum_cuts(monkeypatch):
    # Two copies of K5 minus the edge 0-1, joined by 0-5 and 1-6: 4-regular
    # with lambda = 2.  It is not equiarboreal, so the theorem does not
    # apply; with the precondition forced, the report lists the minimum
    # cuts only, not every cut of at most k edges.
    k5e = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    g = Graph(10, k5e + [(u + 5, v + 5) for (u, v) in k5e] + [(0, 5), (1, 6)])
    assert g.is_regular() == 4
    monkeypatch.setattr(cuts_module, "check_equiarboreal",
                        lambda graph: EquiarborealVerdict(True, Fraction(9, 20), None))
    report = verify_degree_connectivity(g)
    assert (report.k, report.lam, report.parity_ok) == (4, 2, True)
    assert report.counterexamples == (
        "lambda = 2 != degree 4",
        "cut of size 2 < 4: sides [0, 1, 2, 3, 4]",
    )


def test_degree_connectivity_reports_every_minimum_cut_above_24_vertices(monkeypatch):
    # A ring of five K5 minus the edge 0-1, block i's vertex 1 joined to
    # block i+1's vertex 0: 25 vertices, 4-regular, and lambda = 2, whose
    # minimum cuts are the 10 pairs of ring edges.  Each separates the arc
    # of blocks a..b (1 <= a <= b <= 4) from the blocks holding vertex 0.
    k5e = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 1)]
    g = Graph(25, [(5 * i + u, 5 * i + v) for i in range(5) for (u, v) in k5e]
              + [(5 * i + 1, 5 * ((i + 1) % 5)) for i in range(5)])
    assert g.is_regular() == 4
    monkeypatch.setattr(cuts_module, "check_equiarboreal",
                        lambda graph: EquiarborealVerdict(True, Fraction(12, 25), None))
    report = verify_degree_connectivity(g)
    assert (report.k, report.lam, report.parity_ok) == (4, 2, True)
    sides = sorted((sorted(set(range(25)) - set(range(5 * a, 5 * b + 5)))
                    for a in range(1, 5) for b in range(a, 5)),
                   key=lambda side: (len(side), side))
    assert report.counterexamples == ("lambda = 2 != degree 4",) + tuple(
        f"cut of size 2 < 4: sides {side}" for side in sides)
    assert len(report.counterexamples) == 11


@pytest.mark.parametrize("family,params", [
    ("hypercube", (5,)), ("complete", (30,)), ("johnson", (7, 3))])
def test_degree_connectivity_reads_minimum_cuts_above_24_vertices(family, params):
    g = generate(family, params)
    with fact_scope():
        report = verify_degree_connectivity(g)
        assert report.passed and report.lam == report.k
        # Every minimum cut of these graphs is a vertex star.
        lam, min_cuts = known_fact(cuts_module._minimum_cuts, g)
    assert lam == report.k
    assert len(min_cuts) == g.vertex_count


def _two_block_host(k: int, crossing: list[tuple[int, int]]) -> Graph:
    """k-regular and simple: two blocks of k + 2 vertices, 0..k+1 and
    k+2..2k+3, joined by the k ``crossing`` edges.  Each block is K_{k+2}
    less a graph H in which a vertex of crossing degree d has degree d + 1,
    built greedily (Havel-Hakimi), so every vertex ends at degree k."""
    s = k + 2
    deg = Counter(v for edge in crossing for v in edge)
    edges = list(crossing)
    for base in (0, s):
        need = {v: 1 + deg[v] for v in range(base, base + s)}
        removed = set()
        while any(need.values()):
            v = max(need, key=lambda w: (need[w], -w))
            for w in sorted((w for w in need if w != v and need[w]),
                            key=lambda w: (-need[w], w))[:need[v]]:
                removed.add((min(v, w), max(v, w)))
                need[w] -= 1
            need[v] = 0
        edges += [(u, v) for u, v in combinations(range(base, base + s), 2)
                  if (u, v) not in removed]
    return Graph(2 * s, edges)


#: (k, crossing pairs of a two-block host, the prohibitions its block split
#: breaks at degree k).
_PROHIBITION_HOSTS = [
    # A perfect matching across: every crossing edge is a K2 component.
    (4, [(i, i) for i in range(1, 5)], ["{a} has a K2 component"]),
    # A 4-cycle (degrees (2, 2)) beside a 3-edge matching.
    (7, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (4, 4), (5, 5)],
     ["{a} has a K2 component",
      "{a} contains the forbidden double star for degrees (2, 2)"]),
    # A 4-cycle, a star K_{1,3} with degree-1 leaves and one K2 edge.
    (8, [(1, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6)],
     ["{a} has a K2 component",
      "{a} contains the forbidden double star for degrees (2, 2)",
      "{a} has a degree-1 vertex",
      "{a} contains a forbidden pendant star"]),
    # K_{3,3}: every crossing edge joins degrees (3, 3), and 9 edges are
    # fewer than 2 floor(9 - sqrt 9) - 2 = 10.
    (9, [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)],
     ["{a} contains the forbidden double star for degrees (3, 3)",
      "non-trivial cut of 9 < 10 edges"]),
    # From degree 11 on, any non-trivial cut of k edges is a counterexample.
    (11, [(i, i) for i in range(1, 12)],
     ["non-trivial cut of 11 edges at degree 11: sides {side}"]),
]


@pytest.mark.parametrize("k,pairs,expected", _PROHIBITION_HOSTS)
def test_degree_connectivity_reports_the_cut_prohibitions(monkeypatch, k, pairs, expected):
    # Hosts with lambda = k whose one non-trivial minimum cut, the block
    # split, breaks the prohibitions that apply at k; the equiarboreal
    # precondition is forced, as no such host is equiarboreal.
    g = _two_block_host(k, [(x, k + 2 + y) for x, y in pairs])
    assert g.is_simple and g.is_regular() == k
    monkeypatch.setattr(cuts_module, "check_equiarboreal",
                        lambda graph: EquiarborealVerdict(True, Fraction(1), None))
    report = verify_degree_connectivity(g)
    assert (report.k, report.lam, report.lambda_equals_degree) == (k, k, True)
    assert report.parity_ok is (True if k % 2 == 0 else None)
    side = list(range(k + 2))
    assert report.counterexamples == tuple(
        line.format(a=f"cut {side}", side=side) for line in expected)
    assert not report.passed


@pytest.mark.parametrize("k,pairs", [(k, pairs) for k, pairs, _ in _PROHIBITION_HOSTS])
def test_degree_connectivity_checks_the_cut_lemma(monkeypatch, k, pairs):
    # The prohibition hosts, with omega forced below the cut lemma's bound
    # on their block split: every edge of an equiarboreal host has at least
    # that resistance, so the verdict raises.  The prohibition test forces
    # omega = 1, above every one of these bounds.
    g = _two_block_host(k, [(x, k + 2 + y) for x, y in pairs])
    monkeypatch.setattr(cuts_module, "check_equiarboreal",
                        lambda graph: EquiarborealVerdict(True, Fraction(1, 100), None))
    side = list(range(k + 2))
    bound = oracles.cut_lower_bound(cut_from_side(g, side), k)
    with pytest.raises(VerificationError) as info:
        verify_degree_connectivity(g)
    assert str(info.value) == (
        f"cut lemma fails on the cut with sides {side}: bound {bound} > omega 1/100")


def test_degree_connectivity_reports_odd_lambda_at_even_degree(monkeypatch):
    # Even-regular graphs have only even cuts, so only a patched minimum
    # cut search can report lambda = 3 at degree 4.
    monkeypatch.setattr(cuts_module, "_minimum_cuts", lambda graph: (3, ()))
    report = verify_degree_connectivity(generate("complete", (5,)))
    assert (report.k, report.lam, report.parity_ok) == (4, 3, False)
    assert report.counterexamples == (
        "lambda = 3 != degree 4", "even degree 4 but odd lambda 3")


@pytest.mark.parametrize("side,message", [
    (set(), "both sides of a cut must be nonempty"),
    (set(range(5)), "both sides of a cut must be nonempty"),
    ({0, 5}, "vertex 5 out of range"),
    ({-1}, "vertex -1 out of range"),
])
def test_cut_from_side_rejects_a_bad_side(side, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        cut_from_side(generate("cycle", (5,)), side)


def test_minimum_cuts_rejects_a_disconnected_graph():
    with pytest.raises(ConnectivityError, match="^cut enumeration needs a connected graph$"):
        minimum_cuts(Graph(4, [(0, 1), (2, 3)]))


def test_degree_connectivity_preconditions():
    with pytest.raises(PreconditionError):
        verify_degree_connectivity(generate("triangular_prism"))
    with pytest.raises(PreconditionError):
        verify_degree_connectivity(generate("star", (5,)))
