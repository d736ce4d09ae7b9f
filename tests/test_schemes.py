"""Association schemes: axiom verification, intersection numbers, colour
classes."""

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor import exactalg, schemes
from equiarbor.cuts import edge_connectivity
from equiarbor.equiarboreal import check_equiarboreal
from equiarbor.errors import (
    EquiarborError,
    ParameterError,
    SingularSystemError,
    VerificationError,
)
from equiarbor.graphs import Graph, fact_scope, generate
from equiarbor.schemes import (
    SchemeViolation,
    colour_class,
    distance_table,
    format_scheme_table,
    parse_scheme_table,
    scheme_from_distance_partition,
    verify_scheme,
    verify_godsil_theorems,
)

import oracles
from test_cuts import STRESS_SCHEMES


def test_c5_distance_scheme():
    check = verify_scheme(distance_table(generate("cycle", (5,))))
    assert check.valid
    assert check.scheme.p(1, 1, 1) == 0  # adjacent pairs share no neighbor
    assert check.scheme.p(1, 1, 2) == 1  # distance-2 pairs share exactly one


def test_petersen_distance_scheme():
    check = verify_scheme(distance_table(generate("petersen")))
    assert check.valid
    assert check.scheme.class_count == 2
    assert check.scheme.p(1, 1, 1) == 0  # triangle-free


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


VALID_SCHEMES = {f"{family}{params}": distance_table(generate(family, params))
                 for family, params in [("hypercube", (4,)), ("johnson", (6, 3)),
                                        ("hamming", (2, 4))]}


@st.composite
def corrupted_schemes(draw):
    """A valid scheme with one entry changed, or one entry and its mirror,
    to any class index up to one past the largest.  Q4 has (n + 1)^2 > size
    and so counts points; J(6,3) and H(2,4) take the popcount histograms."""
    table = [row[:] for row in VALID_SCHEMES[draw(st.sampled_from(sorted(VALID_SCHEMES)))]]
    x, y = draw(st.integers(0, len(table) - 1)), draw(st.integers(0, len(table) - 1))
    table[x][y] = draw(st.integers(0, max(map(max, table)) + 1))
    if draw(st.booleans()):
        table[y][x] = table[x][y]
    return table


@settings(max_examples=300, deadline=None)
@given(corrupted_schemes())
def test_single_entry_corruption_matches_the_scan_oracle(table):
    assert verify_scheme(table) == oracles.scan_verify_scheme(table)


# Its least intersection violation, (i, j) = (1, 2) at the pair (2, 0), lies
# below the diagonal: the witness scan must read every ordered pair.
BELOW_DIAGONAL_WITNESS = [[0, 3, 2, 1], [3, 0, 1, 2], [2, 1, 0, 2], [1, 2, 2, 0]]


def test_least_violation_below_the_diagonal():
    check = verify_scheme(BELOW_DIAGONAL_WITNESS)
    assert check.violation.details == (1, 2, 2, 0)
    assert check == oracles.scan_verify_scheme(BELOW_DIAGONAL_WITNESS)


def _path_table(n):
    return [[abs(x - y) for y in range(n)] for x in range(n)]


@pytest.mark.parametrize("table", [distance_table(generate("cycle", (21,))), _path_table(16)],
                         ids=["C21", "P16"])
def test_many_classes_match_the_scan_oracle(table):
    assert verify_scheme(table) == oracles.scan_verify_scheme(table)


def test_many_classes_count_points_instead_of_popcounts(monkeypatch):
    # A long cycle or path has one class per distance, so (n + 1)^2
    # popcounts per pair would cost more than counting its points.
    def refuse(*_):
        raise AssertionError("popcount histogram on a table with (n + 1)^2 > size")
    monkeypatch.setattr(schemes, "_popcount_histogram", refuse)
    cycle = verify_scheme(distance_table(generate("cycle", (120,))))
    assert cycle.valid and cycle.scheme.class_count == 60
    assert [cycle.scheme.p(1, 1, k) for k in range(4)] == [2, 0, 1, 0]
    path = verify_scheme(_path_table(80))
    assert path.violation == SchemeViolation("intersection", (1, 1, 1, 1))


def _verdict(check):
    return (check.valid, check.scheme and check.scheme.intersections,
            check.violation and (check.violation.axiom, check.violation.details))


@pytest.mark.parametrize("old,new", [
    # The diagonal pairs, whose histograms carry the valencies, skipped.
    ("for y in range(x, size):", "for y in range(x + 1, size):"),
    # The witness scan restricted to the pairs with x <= y.
    ("for y in range(size):\n            k = rel[x][y]",
     "for y in range(x, size):\n            k = rel[x][y]"),
])
def test_scheme_kernel_mutation_is_caught(monkeypatch, old, new):
    mutant = oracles.mutant_module(monkeypatch, schemes, old, new)
    for table in [BELOW_DIAGONAL_WITNESS, *VALID_SCHEMES.values()]:
        try:
            got = _verdict(mutant.verify_scheme(table))
        except LookupError:
            return
        if got != _verdict(oracles.scan_verify_scheme(table)):
            return
    pytest.fail("the mutant agreed with the scan oracle on every table")


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
    assert by_index[1].connected and by_index[1].lambda_value == 2


@pytest.mark.parametrize("family, params",
                         STRESS_SCHEMES + [("hypercube", (6,)), ("cycle", (40,))])
def test_distance_partition_carries_the_oracle_intersection_numbers(family, params):
    g = generate(family, params)
    table = distance_table(g)
    scheme = scheme_from_distance_partition(g)
    assert scheme.relation == tuple(map(tuple, table))
    assert scheme.intersections == oracles.scan_verify_scheme(table).scheme.intersections


def _component(g: Graph, comp: frozenset[int]) -> Graph:
    index = {v: i for i, v in enumerate(sorted(comp))}
    return Graph(len(comp), [(index[u], index[v]) for u, v in g.edge_list()
                             if u in comp])


@pytest.mark.parametrize("family, params", [("cycle", (40,)), ("hypercube", (6,))])
def test_godsil_report_agrees_with_each_component(family, params):
    scheme = scheme_from_distance_partition(generate(family, params))
    report = verify_godsil_theorems(scheme)
    assert [c.class_index for c in report.classes] == list(range(1, scheme.class_count + 1))
    assert any(not c.connected for c in report.classes)
    for c in report.classes:
        g = colour_class(scheme, c.class_index)
        comps = g.components()
        verdicts = [check_equiarboreal(_component(g, comp)) for comp in comps]
        assert c.degree == g.is_regular()
        assert c.connected == (len(comps) == 1)
        assert all(v.is_equiarboreal for v in verdicts)
        assert c.omega == (verdicts[0].omega if c.connected else None)
        # lambda appears exactly on the connected classes.
        assert c.lambda_value == (edge_connectivity(g) if c.connected else None)
    assert report.passed


def test_connected_class_reuses_the_memoized_verdict(monkeypatch):
    def refuse(*_):
        raise AssertionError("a connected colour class was relabelled")
    monkeypatch.setattr(schemes, "_subgraph", refuse)
    g = generate("petersen")
    with fact_scope():
        verdict = check_equiarboreal(g)
        report = verify_godsil_theorems(scheme_from_distance_partition(g))
    assert report.classes[0].omega is verdict.omega


@pytest.mark.parametrize("family, params",
                         STRESS_SCHEMES + [("hypercube", (6,)), ("cycle", (40,)),
                                           ("johnson", (8, 3))])
def test_algebra_resistance_equals_the_laplacian_on_every_component(family, params):
    scheme = scheme_from_distance_partition(generate(family, params))
    for i in range(1, scheme.class_count + 1):
        g = colour_class(scheme, i)
        comps = g.components()
        zero = next(c for c in comps if 0 in c)
        omega = schemes._class_resistance(scheme, i, {scheme.rel(0, y) for y in zero})
        for comp in comps:
            verdict = check_equiarboreal(_component(g, comp))
            assert verdict.is_equiarboreal and verdict.omega == omega, (i, sorted(comp))


def _with_one_more(scheme, i, j, k):
    p = [[list(row) for row in plane] for plane in scheme.intersections]
    p[i][j][k] += 1
    return schemes.AssociationScheme(
        scheme.relation, tuple(tuple(map(tuple, plane)) for plane in p))


@pytest.mark.parametrize("ijk", list(itertools.product(range(3), repeat=3)))
def test_one_corrupted_intersection_number_raises(ijk):
    petersen = scheme_from_distance_partition(generate("petersen"))
    with pytest.raises(VerificationError):
        verify_godsil_theorems(_with_one_more(petersen, *ijk))


@pytest.mark.parametrize("scheme", [
    scheme_from_distance_partition(generate("hypercube", (3,))),
    scheme_from_distance_partition(generate("cycle", (6,))),
    # rel(x, y) = x xor y: each class is a perfect matching of K4.
    verify_scheme([[x ^ y for y in range(4)] for x in range(4)]).scheme,
], ids=["Q3", "C6", "K4-matchings"])
def test_every_corrupted_intersection_number_is_caught_on_entry(monkeypatch, scheme):
    # The Bose-Mesner system alone misses a corruption in a class's own
    # row, so the entry check must catch each one before any class is built.
    monkeypatch.setattr(schemes, "colour_class", None)
    width = scheme.class_count + 1
    assert width == 4
    for i, j, k in itertools.product(range(width), repeat=3):
        with pytest.raises(VerificationError, match=rf"at \({i}, {j}, {k}\) is"):
            verify_godsil_theorems(_with_one_more(scheme, i, j, k))


def _resized(scheme, width):
    p = scheme.intersections
    tensor = tuple(tuple(tuple(p[i][j][k] if max(i, j, k) < len(p) else 0
                               for k in range(width)) for j in range(width))
                   for i in range(width))
    return schemes.AssociationScheme(scheme.relation, tensor)


@pytest.mark.parametrize("width", [3, 5], ids=["cut-to-3", "padded-to-5"])
def test_intersection_tensor_of_the_wrong_width_raises(width):
    # C6 has classes 0..3, so its tensor is 4 x 4 x 4.  One cut to 3 x 3 x 3
    # or padded to 5 x 5 x 5 is refused by its shape, before any count is
    # indexed by it.
    c6 = scheme_from_distance_partition(generate("cycle", (6,)))
    with pytest.raises(VerificationError, match=r"tensor is not 4\^3 for 3 classes"):
        verify_godsil_theorems(_resized(c6, width))


def test_singular_bose_mesner_system_names_the_class(monkeypatch):
    def singular(rows, what):
        raise SingularSystemError("no pivot in column 0")
    monkeypatch.setattr(exactalg, "integer_solve", singular)
    with pytest.raises(VerificationError, match="colour class 1: singular"):
        verify_godsil_theorems(scheme_from_distance_partition(generate("petersen")))


def test_class_1_disagreeing_with_its_laplacian_raises(monkeypatch):
    real = schemes.check_equiarboreal
    monkeypatch.setattr(schemes, "check_equiarboreal",
                        lambda g: dataclasses.replace(real(g), omega=real(g).omega + 1))
    with pytest.raises(VerificationError, match="colour class 1: the algebra gives 3/5"):
        verify_godsil_theorems(scheme_from_distance_partition(generate("petersen")))


def test_components_of_unequal_size_raise():
    # Class 1 is a triangle and a square: 2-regular, but no scheme's class.
    edges = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)}
    relation = tuple(tuple(0 if x == y else 1 if (min(x, y), max(x, y)) in edges else 2
                           for y in range(7)) for x in range(7))
    # The tensor is counted at the first pair (0, y) of each class, as the
    # entry check reads it, so the check passes and the sizes are reached.
    counts = [Counter(zip(relation[0], relation[relation[0].index(k)])) for k in range(3)]
    tensor = tuple(tuple(tuple(counts[k][i, j] for k in range(3)) for j in range(3))
                   for i in range(3))
    with pytest.raises(VerificationError, match="components of unequal size"):
        verify_godsil_theorems(schemes.AssociationScheme(relation, tensor))


def test_k4_as_three_perfect_matchings_checks_the_component_of_point_0(monkeypatch):
    # rel(x, y) = x xor y: each class is a perfect matching of K4.
    checked = []
    real = schemes.check_equiarboreal

    def spy(g):
        checked.append(g)
        return real(g)
    monkeypatch.setattr(schemes, "check_equiarboreal", spy)
    check = verify_scheme([[x ^ y for y in range(4)] for x in range(4)])
    report = verify_godsil_theorems(check.scheme)
    assert report.passed
    assert [(c.degree, c.connected, c.omega, c.lambda_value) for c in report.classes] \
        == [(1, False, None, None)] * 3
    assert checked == [Graph(2, [(0, 1)])]


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
                assert sum(check.scheme.p(i, j, k) for j in range(n + 1)) \
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
                        combo = sum(check.scheme.p(i, j, k) * mats[k][x][y]
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
    assert check.scheme == scheme


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
