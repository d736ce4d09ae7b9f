"""Resistance engine: spanning trees, Laplacian solves, Foster sums."""

import io
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiarbor import exactalg
from equiarbor.cli import run_command
from equiarbor.errors import (
    ConnectivityError,
    DimensionError,
    EquiarborError,
    InfiniteResistanceError,
    ParameterError,
    SingularNetworkError,
    SingularSystemError,
    VerificationError,
)
from equiarbor.graphs import Graph, generate, identify_vertices
from equiarbor.resistance import (
    WeightedNetwork,
    _potentials,
    _reduced_laplacian,
    dump_network,
    foster_sum,
    network_from_json_dict,
    network_to_json_dict,
    resistance,
    resistance_matrix,
    spanning_tree_count,
    w_sum,
)
from equiarbor.transform import bipartite_to_double_star

import oracles


def test_spanning_trees_cycle():
    assert spanning_tree_count(generate("cycle", (5,))) == 5


def test_spanning_trees_cayley():
    # n^(n-2) for complete graphs.
    for n in range(2, 7):
        assert spanning_tree_count(generate("complete", (n,))) == n ** (n - 2)


def test_spanning_trees_petersen_against_deletion_contraction():
    p = generate("petersen")
    assert spanning_tree_count(p) == 2000
    assert oracles.tau_deletion_contraction(p) == 2000


def test_spanning_trees_disconnected_and_trivial():
    assert spanning_tree_count(Graph(3, [(0, 1)])) == 0
    assert spanning_tree_count(Graph(1)) == 1


def test_spanning_trees_multigraph():
    rng = random.Random(3)
    for _ in range(20):
        base = oracles.random_connected_graph(rng, rng.randint(2, 7))
        extra = [(u, v, rng.randint(1, 3)) for (u, v), _ in base.edge_items()]
        g = Graph(base.vertex_count, extra)
        assert spanning_tree_count(g) == oracles.tau_deletion_contraction(g)


def test_cycle_edge_resistance():
    for n in range(3, 11):
        net = oracles.network_from_graph(generate("cycle", (n,)))
        assert resistance(net, 0, 1) == Fraction(n - 1, n)


def test_worked_network_with_half_edge():
    # Four vertices; fixed resistances {1, 1, 1/2} plus parameters 1/3, 1/4.
    net = WeightedNetwork.from_resistances(4, [
        (0, 2, 1), (0, 3, 1), (1, 3, Fraction(1, 2)),
        (0, 1, Fraction(1, 3)), (2, 3, Fraction(1, 4))])
    assert resistance(net, 0, 2) == Fraction(31, 75)


def test_double_star_host_with_negative_edge():
    # Two-centre star rewrite of a K_{2,3} host with p = 2/5 and leg
    # weights 1/6; the centre edge carries -1/6.
    net = WeightedNetwork.from_resistances(8, [
        (0, 1, Fraction(2, 5)),
        (2, 5, Fraction(1, 6)), (3, 5, Fraction(1, 6)), (4, 5, Fraction(1, 6)),
        (6, 0, Fraction(1, 3)), (6, 1, Fraction(1, 3)),
        (7, 2, Fraction(1, 2)), (7, 3, Fraction(1, 2)), (7, 4, Fraction(1, 2)),
        (6, 7, Fraction(-1, 6))])
    assert resistance(net, 0, 6) == Fraction(11, 48)
    assert resistance(net, 6, 7) == Fraction(-1, 6)
    assert resistance(net, 7, 2) == Fraction(1, 4)
    assert resistance(net, 0, 2) == Fraction(5, 16)


def test_resistance_symmetry():
    rng = random.Random(5)
    for _ in range(15):
        net = oracles.random_positive_network(rng, rng.randint(2, 8))
        n = net.vertex_count
        omega = resistance_matrix(net)
        for u in range(n):
            for v in range(u + 1, n):
                assert resistance(net, u, v) == resistance(net, v, u)
                assert omega[u][v] == resistance(net, u, v)


def test_resistance_infinite_between_components():
    net = WeightedNetwork.from_resistances(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(InfiniteResistanceError):
        resistance(net, 0, 2)


def test_resistance_identical_vertices_rejected():
    net = oracles.network_from_graph(generate("cycle", (4,)))
    with pytest.raises(ParameterError):
        resistance(net, 1, 1)


def test_negative_edge_can_short_circuit():
    # A +1 and a -1 resistor in series: total resistance 0, not singular.
    net = WeightedNetwork.from_resistances(3, [(0, 1, 1), (1, 2, -1)])
    assert resistance(net, 0, 2) == 0


def test_singular_network_with_negative_edges():
    # Triangle with resistances 1, 1, -2: every reduced Laplacian is
    # singular (all cofactors of a zero-row-sum symmetric matrix agree).
    net = WeightedNetwork.from_resistances(
        3, [(0, 1, 1), (0, 2, 1), (1, 2, -2)])
    with pytest.raises(SingularNetworkError):
        resistance(net, 0, 1)
    with pytest.raises(SingularNetworkError):
        resistance_matrix(net)


@st.composite
def rational_networks(draw) -> WeightedNetwork:
    """Up to 6 vertices and 12 resistor entries, each a nonzero rational in
    [-4, 4], so parallel entries may cancel and reduced systems may be
    singular."""
    n = draw(st.integers(1, 6))
    resistances = st.fractions(-4, 4, max_denominator=6).filter(bool)
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                      resistances), max_size=12))
    return WeightedNetwork.from_resistances(n, [e for e in entries if e[0] != e[1]])


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of its error."""
    try:
        return fn(*args)
    except EquiarborError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(rational_networks())
@example(WeightedNetwork.from_resistances(3, [(0, 1, 1), (0, 2, 1), (1, 2, -2)]))
def test_resistances_equal_fraction_oracle(net):
    assert (_outcome(resistance_matrix, net)
            == _outcome(oracles.fraction_resistance_matrix, net))
    for u, v in permutations(range(net.vertex_count), 2):
        assert (_outcome(resistance, net, u, v)
                == _outcome(oracles.fraction_resistance, net, u, v))


@settings(max_examples=200, deadline=None)
@given(oracles.multigraphs())
def test_symmetric_kernel_inverts_multigraph_laplacians(g):
    # A grounded Laplacian with positive conductances has positive leading
    # minors, so the symmetric kernel runs and must equal the pivoted one.
    net = oracles.network_from_graph(g)
    for comp in g.components():
        vertices = sorted(comp)
        rows, _, _ = _reduced_laplacian(net.edge_items(), vertices, vertices[-1])
        rows = [row + [int(i == j) for j in range(len(rows))] for i, row in enumerate(rows)]
        det, det_inv = exactalg._eliminate(list(rows))
        assert exactalg._symmetric_eliminate(rows) == (det, det_inv)
        assert exactalg.integer_solve(rows, "inverse") == (det, det_inv)
    assert (_outcome(resistance_matrix, net)
            == _outcome(oracles.fraction_resistance_matrix, net))


# A 4-cycle with resistances 1, -1, 1, 1: grounded at 3, vertex 0's
# conductances cancel, so the first leading minor is zero.
ZERO_MINOR_NETWORK = WeightedNetwork.from_resistances(
    4, [(0, 1, 1), (0, 2, -1), (1, 3, 1), (2, 3, 1)])


def test_zero_leading_minor_takes_the_pivoted_fallback(monkeypatch):
    net = ZERO_MINOR_NETWORK
    rows, _, _ = _reduced_laplacian(net.edge_items(), range(4), 3)
    assert rows[0][0] == 0
    assert exactalg._symmetric_eliminate([row + [0, 0, 0] for row in rows]) is None
    eliminate = exactalg._eliminate
    calls = []
    monkeypatch.setattr(exactalg, "_eliminate",
                        lambda rows: calls.append(len(rows)) or eliminate(rows))
    omega = resistance_matrix(net)
    assert calls == [3]
    assert omega == oracles.fraction_resistance_matrix(net)
    assert {omega[0][1], omega[0][2], omega[1][2]} == {Fraction(1, 2), Fraction(-3, 2), 0}
    for u, v in permutations(range(4), 2):
        assert resistance(net, u, v) == oracles.fraction_resistance(net, u, v)


def test_corrupt_fallback_fails_the_residual_check(monkeypatch):
    eliminate = exactalg._eliminate

    def corrupted(rows):
        det, det_inv = eliminate(rows)
        det_inv[2][1] += 1
        return det, det_inv

    monkeypatch.setattr(exactalg, "_eliminate", corrupted)
    with pytest.raises(VerificationError, match="inverse residual check failed in row 0"):
        resistance_matrix(ZERO_MINOR_NETWORK)


def _natural_order_potentials(net, u, v):
    """``_potentials`` from the rows in natural vertex order, or "singular"."""
    comp = next(c for c in net.components() if u in c)
    rows, scales, pos = _reduced_laplacian(net.edge_items(), sorted(comp), v)
    p = pos[u]
    try:
        det, det_y = exactalg.integer_solve(
            [row + [scales[p] if i == p else 0] for i, row in enumerate(rows)], "solve")
    except SingularSystemError:
        return "singular"
    return det, {x: scales[i] * det_y[i][0] for x, i in pos.items()}


def _random_signed_network(rng, n):
    g = oracles.random_connected_graph(rng, n)
    return WeightedNetwork.from_resistances(n, [
        (u, v, rng.choice((-1, 1)) * oracles.random_positive_rational(rng))
        for (u, v), _ in g.edge_items()])


def test_degree_order_nodal_solve_equals_the_natural_order_solve():
    # Reordering the rows and columns alike keeps det, with its sign, and
    # every potential; the pivoted fallback runs on either side whenever a
    # leading minor of that order vanishes.
    rng = random.Random(29)
    nets = [oracles.random_positive_network(rng, n) for n in range(2, 15)]
    nets += [_random_signed_network(rng, n) for n in range(2, 15)]
    nets += [bipartite_to_double_star(m, n) for m, n in [(1, 2), (2, 3), (3, 4), (4, 6)]]
    for net in nets:
        for u, v in permutations(range(net.vertex_count), 2):
            try:
                got = _potentials(net, u, v)
            except SingularNetworkError:
                got = "singular"
            assert got == _natural_order_potentials(net, u, v)


def test_nodal_solve_corruption_fails_the_residual_check(monkeypatch):
    symmetric_eliminate = exactalg._symmetric_eliminate
    reached = []

    def corrupted(rows):
        det, det_x = symmetric_eliminate(rows)
        det_x[-1][0] += 1
        reached.append(len(rows))
        return det, det_x

    monkeypatch.setattr(exactalg, "_symmetric_eliminate", corrupted)
    monkeypatch.setattr(exactalg, "_eliminate", None)
    net = oracles.random_positive_network(random.Random(29), 9)
    with pytest.raises(VerificationError, match="solve residual check failed in row"):
        resistance(net, 2, 7)
    assert reached == [8]


def test_zero_leading_minor_of_the_degree_order_takes_the_pivoted_fallback(monkeypatch):
    # Vertex 0 has the least degree, so it leads the degree order too, and
    # its conductances +1 and -1 cancel on the diagonal.
    net = WeightedNetwork.from_resistances(
        5, [(0, 1, 1), (0, 2, -1), *((a, b, 1) for a, b in combinations(range(1, 5), 2))])
    eliminate = exactalg._eliminate
    calls = []
    monkeypatch.setattr(exactalg, "_eliminate",
                        lambda rows: calls.append([list(row) for row in rows]) or eliminate(rows))
    assert resistance(net, 3, 4) == Fraction(1, 2) == oracles.fraction_resistance(net, 3, 4)
    assert len(calls) == 1
    assert len(calls[0]) == 4 and calls[0][0][0] == 0


def test_positive_rational_network_takes_the_symmetric_kernel(monkeypatch):
    # Each conductance denominator divides the scale of both endpoints, so
    # D L D is integral, symmetric and positive definite: no pivoting.
    net = oracles.random_positive_network(random.Random(24), 12)
    assert any(c.denominator != 1 for _, c in net.edge_items())

    def refuse(rows):
        raise AssertionError("the pivoted kernel ran")

    monkeypatch.setattr(exactalg, "_eliminate", refuse)
    omega = oracles.fraction_resistance_matrix(net)
    assert resistance_matrix(net) == omega
    for u, v in permutations(range(12), 2):
        assert resistance(net, u, v) == omega[u][v]


@pytest.mark.parametrize("family, params, omega, degree", [
    ("hypercube", ["6"], "21/64", 6),
    ("johnson", ["8", "3"], "11/84", 15),
])
def test_analyze_at_scale(family, params, omega, degree):
    out = io.StringIO()
    assert run_command(["analyze", "--family", family, "--params", *params],
                       out, io.StringIO()) == 0
    report = json.loads(out.getvalue())
    assert report["equiarboreal"] is True
    assert (report["omega"], report["lambda"]) == (omega, degree)


class _UnreadItems(list):
    def __iter__(self):
        pytest.fail("the Laplacian builder read its edge items")


def test_over_limit_laplacian_is_refused_before_it_is_built():
    rows, scales, _ = _reduced_laplacian([], range(513), 512)
    assert len(rows) == len(scales) == 512
    with pytest.raises(DimensionError, match="matrix exceeds the 512 soft size limit"):
        _reduced_laplacian(_UnreadItems(), range(514), 513)
    err = io.StringIO()
    assert run_command(["analyze", "--family", "complete", "--params", "600"],
                       io.StringIO(), err) == 2
    assert err.getvalue() == "error: matrix exceeds the 512 soft size limit\n"


@pytest.mark.parametrize("n,conductances,terminals,message", [
    (-1, {}, None, "negative vertex count"),
    (3, {(1, 1): 1}, None, "loop at vertex 1"),
    (3, {(0, 3): 1}, None, "edge 0-3 out of range"),
    (3, {(-1, 2): 1}, None, "edge -1-2 out of range"),
    (3, {(0, 1): 1, (1, 0): 2}, None, r"duplicate conductance entry for \(0, 1\)"),
    (3, {(0, 1): 1}, (0, 3), "terminal 3 out of range"),
])
def test_network_constructor_rejects_bad_input(n, conductances, terminals, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        WeightedNetwork(n, conductances, terminals)


def test_resist_rejects_an_edge_past_the_vertex_count(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [
        {"u": 0, "v": 1, "r": "1"}, {"u": 1, "v": 3, "r": "1/2"}]}))
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["resist", str(path), "0", "1"], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == ("", "error: edge 1-3 out of range\n")


def test_parallel_merge_and_cancellation():
    net = WeightedNetwork.from_resistances(2, [(0, 1, 2), (0, 1, 2)])
    assert oracles.edge_resistance(net, 0, 1) == 1
    cancelled = WeightedNetwork.from_resistances(2, [(0, 1, 1), (0, 1, -1)])
    assert oracles.edge_resistance(cancelled, 0, 1) is None


def test_zero_resistance_rejected():
    with pytest.raises(ParameterError):
        WeightedNetwork.from_resistances(2, [(0, 1, 0)])


def test_tree_ratio_matches_laplacian_on_catalog():
    for family, params in [("complete", (4,)), ("cycle", (6,)),
                           ("petersen", ()), ("hamming", (2, 3))]:
        g = generate(family, params)
        net = oracles.network_from_graph(g)
        for (u, v), _ in g.edge_items():
            assert oracles.tree_ratio_resistance(g, u, v) == resistance(net, u, v)


def test_tree_ratio_via_identification():
    # The ratio equals tau(identified)/tau(G) by construction; check the
    # identified count directly too.
    g = generate("petersen")
    merged, _ = identify_vertices(g, [{0, 1}])
    assert Fraction(spanning_tree_count(merged), spanning_tree_count(g)) \
        == oracles.tree_ratio_resistance(g, 0, 1) == Fraction(3, 5)


def test_foster_sum_values():
    assert foster_sum(generate("complete", (4,))) == 3
    assert foster_sum(generate("petersen")) == 9
    assert foster_sum(generate("cycle", (6,))) == 5
    # Parallel edges count once per copy.
    assert foster_sum(Graph(3, [(0, 1, 2), (1, 2), (0, 2, 3)])) == 2


def test_resistance_matrix_below_two_vertices_and_disconnected():
    assert resistance_matrix(WeightedNetwork(0, {})) == []
    assert resistance_matrix(WeightedNetwork(1, {})) == [[0]]
    with pytest.raises(ConnectivityError) as info:
        resistance_matrix(WeightedNetwork(3, {(0, 1): 1}))
    assert str(info.value) == "resistance matrix needs a connected network"


def test_conductance_of_a_vertex_to_itself_is_zero():
    # The constructors refuse loops, so no (u, u) entry is ever stored.
    net = WeightedNetwork.from_resistances(3, [(0, 1, 2), (1, 2, 1), (0, 1, 2)])
    assert [net.conductance(u, u) for u in range(3)] == [0, 0, 0]
    assert net.conductance(1, 0) == 1


def test_foster_sum_disconnected():
    with pytest.raises(ConnectivityError):
        foster_sum(Graph(3, [(0, 1)]))


def test_w_sum_star_centre():
    net = oracles.network_from_graph(generate("star", (5,)))
    assert w_sum(net, 0) == 4


def test_w_sum_mixed_resistances():
    net = WeightedNetwork.from_resistances(4, [
        (0, 1, Fraction(1, 3)), (0, 2, Fraction(1, 3)), (0, 3, Fraction(2, 5))])
    assert w_sum(net, 0) == Fraction(17, 2)


def test_w_sum_unit_star_grid():
    # A vertex with k - x unit edges has inverse-weight sum k - x; this is
    # the collapsed-side weight sum used by the reduced cut network.
    for k in range(5, 10):
        for x in range(1, k):
            legs = k - x
            net = WeightedNetwork.from_resistances(
                legs + 1, [(0, i, 1) for i in range(1, legs + 1)])
            assert w_sum(net, 0) == k - x


def test_w_sum_isolated_vertex():
    net = WeightedNetwork.from_resistances(3, [(0, 1, 1)])
    with pytest.raises(ParameterError):
        w_sum(net, 2)


def test_resistance_results_carry_method_tags():
    # The Laplacian solve and the tree ratio are the two methods; they agree.
    g = generate("cycle", (5,))
    assert (resistance(oracles.network_from_graph(g), 0, 1)
            == oracles.tree_ratio_resistance(g, 0, 1) == Fraction(4, 5))


def test_network_json_roundtrip():
    net = WeightedNetwork.from_resistances(
        4, [(0, 1, Fraction(2, 5)), (1, 2, -1), (2, 3, 3)], terminals=(0, 3))
    data = network_to_json_dict(net)
    assert data["edges"][0]["r"] == "2/5"
    assert network_from_json_dict(data) == net
    assert "terminals" in dump_network(net)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)
_small = st.integers(-1, 4)
_network_dicts = st.fixed_dictionaries(
    {"vertices": st.one_of(_small, _json_values),
     "edges": st.one_of(_json_values, st.lists(st.one_of(_json_values, st.fixed_dictionaries(
         {"u": st.one_of(_small, _json_values), "v": st.one_of(_small, _json_values),
          "r": st.one_of(st.sampled_from(["1", "-1/2", "0", "3/0", "x"]), _json_values)})),
         max_size=4))},
    optional={"terminals": st.one_of(st.lists(_small, max_size=3), _json_values)})


@settings(max_examples=300, deadline=None)
@given(st.one_of(_json_values, _network_dicts))
def test_network_from_json_dict_fuzz(data):
    try:
        net = network_from_json_dict(data)
    except EquiarborError:
        return
    assert network_from_json_dict(network_to_json_dict(net)) == net
