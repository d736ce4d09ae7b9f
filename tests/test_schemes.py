"""Association schemes: axiom verification, tensors, colour classes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor.errors import EquiarborError, ParameterError
from equiarbor.graphs import generate
from equiarbor.schemes import (
    AssociationScheme,
    colour_class,
    distance_table,
    format_scheme_table,
    parse_scheme_table,
    scheme_from_distance_partition,
    verify_scheme,
    verify_godsil_theorems,
)

import oracles


def test_c5_distance_scheme():
    check = verify_scheme(distance_table(generate("cycle", (5,))))
    assert check.valid
    assert check.tensor.p(1, 1, 1) == 0  # adjacent pairs share no neighbor
    assert check.tensor.p(1, 1, 2) == 1  # distance-2 pairs share exactly one


def test_petersen_distance_scheme():
    check = verify_scheme(distance_table(generate("petersen")))
    assert check.valid
    assert check.tensor.class_count == 2
    assert check.tensor.p(1, 1, 1) == 0  # triangle-free


def test_prism_distance_partition_fails_intersection_axiom():
    check = verify_scheme(distance_table(generate("triangular_prism")))
    assert not check.valid
    assert check.violation.axiom == "intersection"
    i, j, x, y = check.violation.details
    # The witness pinpoints a pair whose z-count differs from its class's
    # reference pair; re-count both by brute force.
    table = distance_table(generate("triangular_prism"))
    k = table[x][y]
    ref = next((a, b) for a in range(6) for b in range(6) if table[a][b] == k)
    count = lambda a, b: sum(1 for z in range(6)
                             if table[a][z] == i and table[z][b] == j)
    assert count(x, y) != count(*ref)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 11), st.booleans())
def test_verify_scheme_matches_the_scan_oracle(seed, n, perturb):
    # Random connected graphs are rarely distance-regular, so most tables
    # fail the intersection axiom; the perturbed ones may fail any axiom.
    rng = random.Random(seed)
    table = distance_table(oracles.random_connected_graph(rng, n))
    if perturb:
        x, y = rng.sample(range(n), 2)
        table[x][y] = table[y][x] = rng.randint(0, max(map(max, table)) + 1)
    assert verify_scheme(table) == oracles.scan_verify_scheme(table)


@pytest.mark.parametrize("family, params", [
    ("cycle", (12,)), ("hypercube", (4,)), ("johnson", (6, 3)),
    ("hamming", (2, 4)), ("triangular_prism", ()), ("star", (6,)),
])
def test_verify_scheme_matches_the_scan_oracle_on_families(family, params):
    table = distance_table(generate(family, params))
    assert verify_scheme(table) == oracles.scan_verify_scheme(table)


def test_scheme_from_distance_partition():
    assert scheme_from_distance_partition(generate("hypercube", (3,))).class_count == 3
    assert scheme_from_distance_partition(generate("hamming", (2, 3))).class_count == 2
    assert scheme_from_distance_partition(generate("triangular_prism")) is None


def test_hand_built_violations():
    # Identity axiom: nonzero diagonal.
    bad_diag = [[1, 1], [1, 0]]
    assert verify_scheme(bad_diag).violation.axiom == "identity"
    # Cover: class index 1 skipped.
    gap = [[0, 2], [2, 0]]
    assert verify_scheme(gap).violation.axiom == "cover"
    # Symmetry.
    asym = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert verify_scheme(asym).violation.axiom == "symmetry"


def test_colour_class_petersen():
    scheme = scheme_from_distance_partition(generate("petersen"))
    assert colour_class(scheme, 1) == generate("petersen")
    complement = colour_class(scheme, 2)
    assert complement.is_regular() == 6
    # The distance-2 class is exactly the complement.
    p = generate("petersen")
    for u in range(10):
        for v in range(u + 1, 10):
            assert complement.has_edge(u, v) == (not p.has_edge(u, v))


def test_colour_class_c5_pentagram():
    scheme = scheme_from_distance_partition(generate("cycle", (5,)))
    pentagram = colour_class(scheme, 2)
    assert pentagram.is_regular() == 2
    assert pentagram.is_connected()
    assert pentagram.edge_count == 5


def test_colour_class_c6_antipodal_matching():
    scheme = scheme_from_distance_partition(generate("cycle", (6,)))
    antipodal = colour_class(scheme, 3)
    assert antipodal.is_regular() == 1
    assert not antipodal.is_connected()
    assert len(antipodal.components()) == 3


def test_colour_class_index_range():
    scheme = scheme_from_distance_partition(generate("cycle", (5,)))
    with pytest.raises(ParameterError):
        colour_class(scheme, 0)
    with pytest.raises(ParameterError):
        colour_class(scheme, 3)


def test_godsil_verification_petersen():
    scheme = scheme_from_distance_partition(generate("petersen"))
    report = verify_godsil_theorems(scheme)
    assert report.passed
    assert [(c.class_index, c.degree, c.lambda_value) for c in report.classes] \
        == [(1, 3, 3), (2, 6, 6)]


def test_godsil_verification_rooks_graph():
    scheme = scheme_from_distance_partition(generate("hamming", (2, 3)))
    report = verify_godsil_theorems(scheme)
    assert report.passed
    assert all(c.degree == 4 and c.lambda_value == 4 for c in report.classes)


def test_godsil_verification_c6_skips_disconnected():
    scheme = scheme_from_distance_partition(generate("cycle", (6,)))
    report = verify_godsil_theorems(scheme)
    assert report.passed
    by_index = {c.class_index: c for c in report.classes}
    assert by_index[3].connected is False
    assert by_index[3].lambda_value is None
    assert by_index[3].equiarboreal_ok  # every component is a single edge
    assert by_index[1].connected and by_index[1].lambda_value == 2


def test_intersection_row_sums_equal_valency():
    for family, params in [("petersen", ()), ("cycle", (6,)),
                           ("johnson", (4, 2))]:
        g = generate(family, params)
        scheme = scheme_from_distance_partition(g)
        check = verify_scheme(scheme.relation)
        n = scheme.class_count
        for i in range(n + 1):
            valency = sum(1 for y in range(scheme.point_count)
                          if scheme.rel(0, y) == i)
            for k in range(n + 1):
                assert sum(check.tensor.p(i, j, k) for j in range(n + 1)) \
                    == valency


def test_bose_mesner_matrix_identity():
    # A_i A_j == sum_k p^k_ij A_k entrywise, with exact integer matrices.
    for family, params in [("petersen", ()), ("cycle", (5,)),
                           ("hamming", (2, 3))]:
        g = generate(family, params)
        scheme = scheme_from_distance_partition(g)
        check = verify_scheme(scheme.relation)
        size, n = scheme.point_count, scheme.class_count
        mats = [[[1 if scheme.rel(x, y) == i else 0 for y in range(size)]
                 for x in range(size)] for i in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                for x in range(size):
                    for y in range(size):
                        product = sum(mats[i][x][z] * mats[j][z][y]
                                      for z in range(size))
                        combo = sum(check.tensor.p(i, j, k) * mats[k][x][y]
                                    for k in range(n + 1))
                        assert product == combo


def test_distance_table_matches_bfs_oracle():
    for family, params in [("petersen", ()), ("hypercube", (3,))]:
        g = generate(family, params)
        table = distance_table(g)
        for s in range(g.vertex_count):
            assert table[s] == oracles.bfs_distances(g, s)


def test_scheme_table_text_roundtrip():
    scheme = scheme_from_distance_partition(generate("cycle", (5,)))
    text = format_scheme_table(scheme)
    assert text.splitlines()[0] == "5 2"
    table = parse_scheme_table(text)
    check = verify_scheme(table)
    assert check.valid
    assert AssociationScheme(len(table), check.tensor.class_count,
                             tuple(map(tuple, table))) == scheme


def test_scheme_table_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        parse_scheme_table("2 1\n0 1\n")  # missing a row
    with pytest.raises(ParameterError):
        parse_scheme_table("2 2\n0 1\n0\n")  # header overstates classes


@pytest.mark.parametrize("text", [
    "0 0\n", "-1 0\n", "2 x\n0 1\n0\n", "2 1\n0 one\n0\n", "2 1\n0 1.0\n0\n",
])
def test_scheme_table_rejects_bad_values(text):
    with pytest.raises(ParameterError):
        parse_scheme_table(text)


@st.composite
def _scheme_texts(draw):
    """Well-shaped table texts with small class indices, mostly with a
    zero diagonal and a header that matches the rows."""
    size = draw(st.integers(1, 5))
    rows = [[draw(st.sampled_from([0, 0, 0, 1]))]
            + draw(st.lists(st.integers(0, 3), min_size=size - i - 1,
                            max_size=size - i - 1))
            for i in range(size)]
    classes = draw(st.one_of(st.just(max(map(max, rows))), st.integers(0, 3)))
    return "\n".join([f"{size} {classes}"] + [" ".join(map(str, row)) for row in rows])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _scheme_texts()))
def test_parse_scheme_table_fuzz(text):
    try:
        table = parse_scheme_table(text)
    except EquiarborError:
        return
    assert verify_scheme(table) == oracles.scan_verify_scheme(table)
