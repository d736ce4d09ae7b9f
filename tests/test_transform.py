"""Terminal-preserving transformations and S-equivalence."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor.errors import (
    NonRealizableError,
    ParameterError,
    SingularEliminationError,
)
from equiarbor.graphs import generate
from equiarbor.resistance import WeightedNetwork, resistance, resistance_matrix
from equiarbor.transform import (
    bipartite_to_double_star,
    eliminate_vertex,
    record_for_elimination,
    s_equivalent,
    substitute_network,
    synthesize_star,
)

import oracles

positive_rationals = st.builds(Fraction,
                               st.integers(min_value=1, max_value=12),
                               st.integers(min_value=1, max_value=12))


def test_series_elimination():
    net = WeightedNetwork.from_resistances(3, [(0, 1, 1), (1, 2, 1)])
    reduced = eliminate_vertex(net, 1)
    assert reduced.resistance_of_edge(0, 2) == 2
    assert reduced.neighbors(1) == ()
    record = record_for_elimination(net, reduced, 1)
    assert record.kind == "series"
    assert record.added_edges == ((0, 2, Fraction(2)),)


def test_star_to_triangle():
    # Unit Y at vertex 3 becomes a triangle of resistance-3 edges.
    net = WeightedNetwork.from_resistances(
        4, [(3, 0, 1), (3, 1, 1), (3, 2, 1)])
    reduced = eliminate_vertex(net, 3)
    for u, v in combinations(range(3), 2):
        assert reduced.resistance_of_edge(u, v) == 3
        assert resistance(net, u, v) == resistance(reduced, u, v)
    record = record_for_elimination(net, reduced, 3)
    assert record.kind == "star-mesh"


def test_eliminating_cycle_interior_leaves_worked_value():
    # Weighted 4-cycle with side weights 2/3; eliminating both interior
    # vertices leaves a single edge of resistance 7/10 between the probes.
    net = WeightedNetwork.from_resistances(
        4,
        [(0, 1, Fraction(2, 3)), (1, 2, 1), (2, 3, Fraction(2, 3)), (3, 0, 1)],
        terminals=(0, 3))
    reduced = eliminate_vertex(eliminate_vertex(net, 1), 2)
    assert reduced.resistance_of_edge(0, 3) == Fraction(7, 10)
    assert resistance(reduced, 0, 3) == Fraction(7, 10)


def test_eliminate_terminal_rejected():
    net = WeightedNetwork.from_resistances(3, [(0, 1, 1), (1, 2, 1)],
                                           terminals=(0, 1))
    with pytest.raises(ParameterError):
        eliminate_vertex(net, 1)


def test_eliminate_zero_conductance_sum():
    net = WeightedNetwork.from_resistances(
        4, [(3, 0, 1), (3, 1, -1), (0, 1, 1), (1, 2, 1)])
    with pytest.raises(SingularEliminationError):
        eliminate_vertex(net, 3)


def test_elimination_preserves_resistances_randomized():
    rng = random.Random(17)
    for _ in range(40):
        net = oracles.random_positive_network(rng, rng.randint(3, 10))
        w = rng.randrange(net.vertex_count)
        if not net.neighbors(w):
            continue
        reduced = eliminate_vertex(net, w)
        survivors = [v for v in range(net.vertex_count) if v != w]
        for u, v in combinations(survivors, 2):
            assert resistance(net, u, v) == resistance(reduced, u, v)


def test_elimination_order_independent():
    rng = random.Random(23)
    for _ in range(15):
        net = oracles.random_positive_network(rng, 7)
        keep = [0, 1, 2]
        removable = [3, 4, 5, 6]
        perm = removable[:]
        rng.shuffle(perm)
        a = net
        for w in removable:
            a = eliminate_vertex(a, w)
        b = net
        for w in perm:
            b = eliminate_vertex(b, w)
        for u, v in combinations(keep, 2):
            assert a.resistance_of_edge(u, v) == b.resistance_of_edge(u, v)


# ---------------------------------------------------------------------------
# The double-star rewrite


def test_double_star_weights_2_3():
    net = bipartite_to_double_star(2, 3)
    u0, v0 = 5, 6
    assert net.resistance_of_edge(u0, 0) == Fraction(1, 3)
    assert net.resistance_of_edge(u0, 1) == Fraction(1, 3)
    for j in (2, 3, 4):
        assert net.resistance_of_edge(v0, j) == Fraction(1, 2)
    assert net.resistance_of_edge(u0, v0) == Fraction(-1, 6)
    assert net.terminals == frozenset(range(5))


def test_double_star_k11_is_an_edge():
    net = bipartite_to_double_star(1, 1)
    assert net.resistance_of_edge(2, 0) == 1
    assert net.resistance_of_edge(3, 1) == 1
    assert net.resistance_of_edge(2, 3) == -1
    assert resistance(net, 0, 1) == 1  # matches the single edge of K_{1,1}


def test_double_star_equivalent_to_k33():
    net = bipartite_to_double_star(3, 3)
    assert net.resistance_of_edge(6, 7) == Fraction(-1, 9)
    k33 = WeightedNetwork.from_graph(generate("complete_bipartite", (3, 3)))
    result = s_equivalent(k33, net, range(6))
    assert result.equivalent


def test_double_star_equals_its_resistance_form():
    # Legs 1/n and 1/m and the centre edge -1/(nm), given as resistances.
    for m in range(1, 11):
        for n in range(1, 11):
            u0, v0 = m + n, m + n + 1
            edges = [(u0, i, Fraction(1, n)) for i in range(m)]
            edges += [(v0, m + j, Fraction(1, m)) for j in range(n)]
            edges.append((u0, v0, Fraction(-1, n * m)))
            assert bipartite_to_double_star(m, n) == WeightedNetwork.from_resistances(
                m + n + 2, edges, terminals=range(m + n)), (m, n)


def test_double_star_rejects_zero_parts():
    with pytest.raises(ParameterError):
        bipartite_to_double_star(0, 2)


# ---------------------------------------------------------------------------
# Star synthesis


def test_star_synthesis_symmetric():
    assert synthesize_star(2, 2, 2) == (1, 1, 1)


def test_star_synthesis_345():
    q = synthesize_star(3, 4, 5)
    assert q == (1, 2, 3)
    # Substituting back reproduces the pairwise sums.
    assert q[0] + q[1] == 3
    assert q[0] + q[2] == 4
    assert q[1] + q[2] == 5


def test_star_synthesis_on_petersen_triples():
    net = WeightedNetwork.from_graph(generate("petersen"))
    omega = resistance_matrix(net)
    rng = random.Random(31)
    for _ in range(20):
        a, b, c = rng.sample(range(10), 3)
        q1, q2, q3 = synthesize_star(omega[a][b], omega[a][c], omega[b][c])
        assert q1 >= 0 and q2 >= 0 and q3 >= 0
        star = WeightedNetwork.from_resistances(
            4, [(0, 3, q1), (1, 3, q2), (2, 3, q3)])
        assert resistance(star, 0, 1) == omega[a][b]
        assert resistance(star, 0, 2) == omega[a][c]
        assert resistance(star, 1, 2) == omega[b][c]


def test_star_synthesis_rejects_violation():
    with pytest.raises(NonRealizableError):
        synthesize_star(1, 1, 5)
    with pytest.raises(ParameterError):
        synthesize_star(0, 1, 1)


# ---------------------------------------------------------------------------
# S-equivalence


def test_s_equivalent_reflexive():
    net = WeightedNetwork.from_graph(generate("petersen"))
    assert s_equivalent(net, net, range(10)).equivalent


def test_s_equivalent_detects_rayleigh_increase():
    c4 = WeightedNetwork.from_graph(generate("cycle", (4,)))
    doubled = c4.with_resistance(0, 1, 2)
    result = s_equivalent(c4, doubled, range(4))
    assert not result.equivalent
    u, v, ra, rb = result.witness
    assert (u, v) == (0, 1)  # lexicographically first differing pair
    assert ra == Fraction(3, 4)
    assert rb > ra


def test_s_equivalent_gervacio_grid():
    for m in range(1, 5):
        for n in range(1, 5):
            kmn = WeightedNetwork.from_graph(
                generate("complete_bipartite", (m, n)))
            star = bipartite_to_double_star(m, n)
            assert s_equivalent(kmn, star, range(m + n)).equivalent


def test_substitution_principle_small_host():
    # Host: K_{2,3} between {0,1} and {2,3,4} plus a path 0-5-2 and an edge
    # 1-5; replace the K_{2,3} by its double star and compare everything.
    host_edges = [(u, v, 1) for u in (0, 1) for v in (2, 3, 4)]
    host_edges += [(0, 5, 1), (5, 2, 1), (1, 5, 1)]
    host = WeightedNetwork.from_resistances(6, host_edges)
    replaced = substitute_network(
        host,
        removed=[(u, v) for u in (0, 1) for v in (2, 3, 4)],
        replacement=bipartite_to_double_star(2, 3),
        attach=[0, 1, 2, 3, 4])
    assert s_equivalent(host, replaced, range(6)).equivalent


def test_substitution_adds_parallel_conductances():
    # Edge 0-1 gets 1/2 + 1/2; edge 1-2 gets 1 - 1 and disappears.
    host = WeightedNetwork.from_resistances(3, [(0, 1, 2), (1, 2, 1)], terminals=(0, 2))
    replacement = WeightedNetwork.from_resistances(3, [(0, 1, 2), (2, 1, -1)])
    replaced = substitute_network(host, [], replacement, attach=[0, 1, 2])
    assert replaced == WeightedNetwork.from_resistances(3, [(0, 1, 1)], terminals=(0, 2))


@settings(max_examples=40, deadline=None)
@given(positive_rationals, positive_rationals, positive_rationals)
def test_star_synthesis_roundtrip_property(r12, r13, r23):
    try:
        q1, q2, q3 = synthesize_star(r12, r13, r23)
    except NonRealizableError:
        assert min(r12 + r13 - r23, r12 + r23 - r13, r13 + r23 - r12) < 0
        return
    assert (q1 + q2, q1 + q3, q2 + q3) == (r12, r13, r23)
