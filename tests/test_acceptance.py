"""Acceptance suite.

One test per acceptance criterion; each prints a pass/fail line and
enforces its stated runtime budget.  All comparisons are exact (rational
arithmetic), so every tolerance is zero.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from equiarbor.bounds import (
    kirchhoff_cross_check,
    verify_denominator_positive,
    verify_double_star_threshold,
)
from equiarbor.catalog import default_catalog
from equiarbor.cuts import edge_connectivity, minimum_cuts
from equiarbor.equiarboreal import check_equiarboreal
from equiarbor.graphs import generate, identify_vertices
from equiarbor.matching import has_perfect_matching
from equiarbor.resistance import (
    WeightedNetwork,
    foster_sum,
    resistance,
    resistance_matrix,
    w_sum,
)
from equiarbor.schemes import (
    colour_class,
    distance_table,
    scheme_from_distance_partition,
    verify_scheme,
)
from equiarbor.transform import bipartite_to_double_star

import oracles

#: Names of the catalog members whose distance partitions form schemes,
#: feeding the colour-class verification suite.
SCHEME_SOURCE_NAMES = (
    "C5", "C6", "Petersen", "H(2,2)", "H(2,3)", "H(3,2)",
    "J(4,2)", "J(5,2)", "Q3", "Q4",
)


@contextmanager
def criterion(number: int, label: str, limit: float | None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    budget = f" (limit {limit:g}s)" if limit else ""
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s{budget}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def _catalog_graphs():
    return [(e.name, e.graph) for e in default_catalog()]


def _regular_equiarboreal_members():
    out = []
    for name, g in _catalog_graphs():
        k = g.is_regular()
        if k is None or not g.is_connected():
            continue
        if check_equiarboreal(g).is_equiarboreal:
            out.append((name, g, k))
    return out


def test_criterion_1_boxed_constants():
    with criterion(1, "boxed constants", 1.0):
        # Weighted 4-cycle, parameter arcs at 2/3.
        c4 = WeightedNetwork.from_resistances(4, [
            (0, 1, Fraction(2, 3)), (1, 2, 1), (2, 3, Fraction(2, 3)), (3, 0, 1)])
        assert resistance(c4, 0, 3) == Fraction(7, 10)

        # Weighted triangle with arcs 8/15 and 9/20 against a unit edge.
        c3 = WeightedNetwork.from_resistances(3, [
            (0, 1, Fraction(8, 15)), (1, 2, 1), (0, 2, Fraction(9, 20))])
        assert resistance(c3, 1, 2) == Fraction(59, 119)

        # Unit K_{2,2} cross with both diagonals at 1/2.
        k4c = WeightedNetwork.from_resistances(4, [
            (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1),
            (0, 1, Fraction(1, 2)), (2, 3, Fraction(1, 2))])
        assert resistance(k4c, 0, 2) == Fraction(5, 12)

        # Fixed edges {1, 1, 1/2} with parameters 1/3 and 1/4.
        m3 = WeightedNetwork.from_resistances(4, [
            (0, 2, 1), (0, 3, 1), (1, 3, Fraction(1, 2)),
            (0, 1, Fraction(1, 3)), (2, 3, Fraction(1, 4))])
        assert resistance(m3, 0, 2) == Fraction(31, 75)

        # Double-star rewrite of a K_{2,3} host with p = 2/5, legs 1/6,
        # and the negative centre edge -1/6.
        n2 = WeightedNetwork.from_resistances(8, [
            (0, 1, Fraction(2, 5)),
            (2, 5, Fraction(1, 6)), (3, 5, Fraction(1, 6)), (4, 5, Fraction(1, 6)),
            (6, 0, Fraction(1, 3)), (6, 1, Fraction(1, 3)),
            (7, 2, Fraction(1, 2)), (7, 3, Fraction(1, 2)), (7, 4, Fraction(1, 2)),
            (6, 7, Fraction(-1, 6))])
        assert resistance(n2, 0, 6) == Fraction(11, 48)
        assert resistance(n2, 7, 2) == Fraction(1, 4)
        assert resistance(n2, 0, 2) == \
            Fraction(11, 48) - Fraction(1, 6) + Fraction(1, 4) == Fraction(5, 16)


def test_criterion_2_reduced_network_oracle_identity():
    with criterion(2, "reduced-network oracle identity", 10.0):
        for k in range(3, 13):
            pairs = oracles.valid_degree_pairs(k)
            assert pairs, k
            for x, y in pairs:
                # Covers the interior-voltage closed forms, the injected
                # current identity, and solver == closed form, pointwise.
                assert kirchhoff_cross_check(k, x, y), (k, x, y)


def test_criterion_3_integer_grids():
    with criterion(3, "threshold and positivity grids", 10.0):
        for k in range(7, 41):
            assert verify_double_star_threshold(k), k
            assert verify_denominator_positive(k), k


def test_criterion_4_colour_classes_equiarboreal():
    with criterion(4, "colour classes equiarboreal", 30.0):
        by_name = {e.name: e.graph for e in default_catalog()}
        for name in SCHEME_SOURCE_NAMES:
            scheme = scheme_from_distance_partition(by_name[name])
            assert scheme is not None, name
            for i in range(1, scheme.class_count + 1):
                cls = colour_class(scheme, i)
                if not cls.is_connected():
                    continue
                verdict = check_equiarboreal(cls)
                assert verdict.is_equiarboreal, (name, i)
                assert verdict.omega == Fraction(cls.vertex_count - 1,
                                                 cls.edge_count)


def test_criterion_5_degree_connectivity():
    with criterion(5, "edge connectivity equals degree", 60.0):
        members = _regular_equiarboreal_members()
        assert len(members) >= 10
        for name, g, k in members:
            assert edge_connectivity(g) == k, name
            if g.vertex_count <= 20:
                # Exhaustive: every bipartition crosses at least k edges,
                # so no cut (trivial or not) of size < k exists.
                for cut in oracles.sweep_cuts_up_to(g, k):
                    assert cut.size == k, (name, cut)
        petersen = generate("petersen")
        cuts = minimum_cuts(petersen)
        assert len(cuts) == 10
        star_sides = [frozenset({v}) for v in range(10)]
        for cut in cuts:
            assert cut.side_a in star_sides or cut.side_b in star_sides


def test_criterion_6_negative_control():
    with criterion(6, "triangular prism negative control", None):
        prism = generate("triangular_prism")
        verdict = check_equiarboreal(prism)
        assert not verdict.is_equiarboreal
        edge_a, edge_b, val_a, val_b = verdict.witness
        assert edge_a == (0, 1) and edge_b == (0, 3)
        assert (val_a, val_b) == (Fraction(8, 15), Fraction(3, 5))

        assert scheme_from_distance_partition(prism) is None
        check = verify_scheme(distance_table(prism))
        assert not check.valid
        assert check.violation.axiom == "intersection"
        assert len(check.violation.details) == 4


def _random_host(rng: random.Random, m: int, n: int):
    """A connected host containing the full unit K_{m,n} as a subnetwork
    (and no other edges between the two parts)."""
    extra = rng.randint(1, 3)
    total = m + n + extra
    hub = m + n  # first extra vertex connects everything
    edges = [(hub, v, oracles.random_positive_rational(rng))
             for v in range(total) if v != hub]
    # Random chords that avoid the U x V pairs and the hub spokes.
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(range(total), 2)
        if u > v:
            u, v = v, u
        if u < m and m <= v < m + n:
            continue
        if hub in (u, v):
            continue
        edges.append((u, v, oracles.random_positive_rational(rng)))
    cross = [(u, m + w, Fraction(1)) for u in range(m) for w in range(n)]
    host = WeightedNetwork.from_resistances(total, edges + cross)
    return host, cross


def test_criterion_7_transformation_suite():
    with criterion(7, "double-star transformation suite", None):
        for m in range(1, 6):
            for n in range(1, 6):
                kmn = oracles.network_from_graph(
                    generate("complete_bipartite", (m, n)))
                star = bipartite_to_double_star(m, n)
                assert oracles.s_equivalent(kmn, star, range(m + n)).equivalent, (m, n)

        rng = random.Random(20240)
        for trial in range(20):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            host, cross = _random_host(rng, m, n)
            replaced = oracles.substitute_network(
                host,
                removed=[(u, v) for (u, v, _) in cross],
                replacement=bipartite_to_double_star(m, n),
                attach=list(range(m + n)))
            result = oracles.s_equivalent(host, replaced, range(host.vertex_count))
            assert result.equivalent, (trial, result.witness)


def test_criterion_8_property_suites():
    with criterion(8, "Foster, tree-ratio, and inequality suites", None):
        # Foster's identity and the tree-ratio oracle on the whole catalog.
        for name, g in _catalog_graphs():
            assert foster_sum(g) == g.vertex_count - 1, name
            net = oracles.network_from_graph(g)
            omega = resistance_matrix(net)
            for (u, v), _ in g.edge_items():
                assert oracles.tree_ratio_resistance(g, u, v) == omega[u][v], (name, u, v)

        # Rayleigh monotonicity, 200 randomized instances.
        rng = random.Random(8001)
        for _ in range(200):
            net = oracles.random_positive_network(rng, rng.randint(3, 7))
            before = resistance_matrix(net)
            (u, v), c = rng.choice(net.edge_items())
            bumped = oracles.with_resistance(
                net, u, v, 1 / c + oracles.random_positive_rational(rng))
            after = resistance_matrix(bumped)
            nv = net.vertex_count
            assert all(after[a][b] >= before[a][b]
                       for a in range(nv) for b in range(a + 1, nv))

        # Identification monotonicity, 200 instances.
        rng = random.Random(8002)
        for _ in range(200):
            g = oracles.random_connected_graph(rng, rng.randint(3, 7))
            i, j = rng.sample(range(g.vertex_count), 2)
            merged, mapping = identify_vertices(g, [{i, j}])
            before = resistance_matrix(oracles.network_from_graph(g))
            after = resistance_matrix(oracles.network_from_graph(merged))
            for u, v in combinations(range(g.vertex_count), 2):
                if mapping[u] != mapping[v]:
                    assert before[u][v] >= after[mapping[u]][mapping[v]]

        # Inverse-weight-sum bound, 200 instances.
        rng = random.Random(8003)
        for _ in range(200):
            net = oracles.random_positive_network(rng, rng.randint(3, 7))
            omega = resistance_matrix(net)
            for u, v in combinations(range(net.vertex_count), 2):
                assert omega[u][v] >= max(1 / w_sum(net, u), 1 / w_sum(net, v))

        # Degree-based bounds on unweighted graphs, 200 instances.
        rng = random.Random(8004)
        for _ in range(200):
            g = oracles.random_connected_graph(rng, rng.randint(3, 7))
            omega = resistance_matrix(oracles.network_from_graph(g))
            for u, v in combinations(range(g.vertex_count), 2):
                du, dv = g.degree(u), g.degree(v)
                if g.has_edge(u, v):
                    assert omega[u][v] >= Fraction(1, du + 1) + Fraction(1, dv + 1)
                else:
                    assert omega[u][v] >= Fraction(1, du) + Fraction(1, dv)


def test_criterion_9_perfect_matchings():
    with criterion(9, "perfect matchings on even orders", None):
        checked = 0
        for name, g, k in _regular_equiarboreal_members():
            if g.vertex_count % 2:
                continue
            result = has_perfect_matching(g)
            assert result.has_perfect, name
            assert len(result.matching) == g.vertex_count // 2
            covered = sorted(v for e in result.matching for v in e)
            assert covered == list(range(g.vertex_count)), name
            checked += 1
        assert checked >= 6
