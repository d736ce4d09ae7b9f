"""Electrical inequalities as randomized property suites.

These are the module-level versions (a few dozen instances each); the
acceptance suite re-runs them at 200 instances per inequality.  Everything
is exact, so a violation is a real counterexample, never noise.
"""

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

from equiarbor.graphs import Graph, generate, identify_vertices
from equiarbor.resistance import (
    resistance,
    resistance_matrix,
    w_sum,
)

import oracles


def test_rayleigh_monotonicity():
    rng = random.Random(101)
    for _ in range(40):
        net = oracles.random_positive_network(rng, rng.randint(3, 8))
        before = resistance_matrix(net)
        (u, v), c = rng.choice(net.edge_items())
        increment = oracles.random_positive_rational(rng)
        bumped = oracles.with_resistance(net, u, v, 1 / c + increment)
        after = resistance_matrix(bumped)
        n = net.vertex_count
        assert all(after[a][b] >= before[a][b]
                   for a in range(n) for b in range(a + 1, n))


def test_identification_monotonicity():
    rng = random.Random(103)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randint(3, 8))
        i, j = rng.sample(range(g.vertex_count), 2)
        merged, mapping = identify_vertices(g, [{i, j}])
        before = resistance_matrix(oracles.network_from_graph(g))
        after = resistance_matrix(oracles.network_from_graph(merged))
        for u, v in combinations(range(g.vertex_count), 2):
            if mapping[u] != mapping[v]:
                assert before[u][v] >= after[mapping[u]][mapping[v]]


def test_inverse_weight_sum_lower_bound():
    rng = random.Random(107)
    for _ in range(40):
        net = oracles.random_positive_network(rng, rng.randint(3, 8))
        omega = resistance_matrix(net)
        n = net.vertex_count
        for u, v in combinations(range(n), 2):
            assert omega[u][v] >= max(1 / w_sum(net, u), 1 / w_sum(net, v))


def test_degree_lower_bounds_unweighted():
    rng = random.Random(109)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randint(3, 8))
        omega = resistance_matrix(oracles.network_from_graph(g))
        for u, v in combinations(range(g.vertex_count), 2):
            du, dv = g.degree(u), g.degree(v)
            if g.has_edge(u, v):
                assert omega[u][v] >= Fraction(1, du + 1) + Fraction(1, dv + 1)
            else:
                assert omega[u][v] >= Fraction(1, du) + Fraction(1, dv)


def test_resistance_is_a_metric_on_positive_networks():
    rng = random.Random(113)
    for _ in range(30):
        net = oracles.random_positive_network(rng, rng.randint(3, 7))
        omega = resistance_matrix(net)
        n = net.vertex_count
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if len({u, v, w}) == 3:
                        assert omega[u][w] <= omega[u][v] + omega[v][w]


def test_concurrent_edge_evaluation_is_deterministic():
    # Pure solves over an immutable network: a thread pool must reproduce
    # the sequential values bit for bit.
    g = generate("petersen")
    net = oracles.network_from_graph(g)
    pairs = [e for e, _ in g.edge_items()]
    sequential = [resistance(net, u, v) for u, v in pairs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda e: resistance(net, *e), pairs))
    assert concurrent == sequential


def test_multigraph_identification_monotonicity():
    # Integer multiplicities act as integer conductances; the quotient can
    # only lower resistances here too.
    rng = random.Random(127)
    for _ in range(20):
        base = oracles.random_connected_graph(rng, rng.randint(3, 7))
        g = Graph(base.vertex_count,
                  [(u, v, rng.randint(1, 3)) for (u, v), _ in base.edge_items()])
        i, j = rng.sample(range(g.vertex_count), 2)
        merged, mapping = identify_vertices(g, [{i, j}])
        if merged.vertex_count < 2 or not merged.is_connected():
            continue
        before = resistance_matrix(oracles.network_from_graph(g))
        after = resistance_matrix(oracles.network_from_graph(merged))
        for u, v in combinations(range(g.vertex_count), 2):
            if mapping[u] != mapping[v]:
                assert before[u][v] >= after[mapping[u]][mapping[v]]
