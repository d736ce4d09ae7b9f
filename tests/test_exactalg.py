"""Exact linear algebra: determinants, solves, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor import exactalg
from equiarbor.catalog import default_catalog
from equiarbor.errors import DimensionError, SingularSystemError, VerificationError
from equiarbor.exactalg import (
    determinant,
    format_rational,
    invert,
    json_text,
    parse_rational,
    solve,
)
from equiarbor.resistance import WeightedNetwork
from equiarbor.transform import bipartite_to_double_star

import oracles

rationals = st.builds(Fraction,
                      st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=9))


def test_determinant_identity():
    assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_determinant_2x2():
    m = [[1, 2], [3, 4]]
    assert determinant(m) == -2


def test_determinant_k4_laplacian_minor():
    # Any principal 3x3 minor of the K4 Laplacian equals tau(K4) = 4^2.
    minor = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    assert determinant(minor) == 16


def test_determinant_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)],
         [Fraction(1, 4), Fraction(1, 5)]]
    assert determinant(m) == Fraction(1, 10) - Fraction(1, 12)


def test_determinant_goes_through_integer_solve(monkeypatch):
    real = exactalg.integer_solve
    calls = []

    def counting(rows, what):
        calls.append(what)
        return real(rows, what)

    monkeypatch.setattr(exactalg, "integer_solve", counting)
    # Symmetric with a zero leading minor: the pivoted kernel swaps the
    # rows, and its sign reaches the determinant.
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 2], [2, 4]]) == 0
    assert calls == ["determinant"] * 3


def test_determinant_requires_square():
    with pytest.raises(DimensionError):
        determinant([[1, 2, 3], [4, 5, 6]])


ZERO_513 = [[0] * 513 for _ in range(513)]


@pytest.mark.parametrize("call", [
    lambda: determinant([[1, 2], [3]]),
    lambda: solve([[1, 2], [3]], [1, 1]),
    lambda: invert([[1, 2], [3]]),
    lambda: determinant([[1, 2, 3], [4, 5, 6]]),
    lambda: solve([[1, 2, 3], [4, 5, 6]], [1, 1]),
    lambda: invert([[1, 2, 3], [4, 5, 6]]),
    lambda: solve([[1, 2], [3, 4]], [1]),
    lambda: determinant(ZERO_513),
    lambda: solve(ZERO_513, [0] * 513),
    lambda: invert(ZERO_513),
], ids=["ragged-det", "ragged-solve", "ragged-invert",
        "2x3-det", "2x3-solve", "2x3-invert", "short-rhs",
        "513-det", "513-solve", "513-invert"])
def test_bad_matrix_input_is_refused_before_elimination(monkeypatch, call):
    def refuse(rows, what):
        pytest.fail(f"{what} reached integer_solve")

    monkeypatch.setattr(exactalg, "integer_solve", refuse)
    with pytest.raises(DimensionError):
        call()


def test_solve_identity():
    x = solve([[1, 0], [0, 1]], [5, 7])
    assert x == (5, 7)


def test_solve_interior_voltage_system():
    # The two nodal equations of the reduced cut network at k=7, x=2, y=1:
    # a=5, b=6, c=5; unknowns are the two interior voltages.
    a = [[10, -5], [-5, 12]]
    v = solve(a, [5, 1])
    assert v == (Fraction(13, 19), Fraction(7, 19))


def test_solve_singular_zero_matrix():
    zero = [[0, 0], [0, 0]]
    with pytest.raises(SingularSystemError):
        solve(zero, [1, 0])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve([[1, 0], [0, 1]], [1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=16, max_size=16),
       st.permutations(range(4)))
def test_determinant_row_permutation_parity(entries, perm):
    m = [entries[4 * i:4 * i + 4] for i in range(4)]
    permuted = [m[i] for i in perm]
    # Parity of the permutation by counting inversions.
    inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                     if perm[i] > perm[j])
    sign = -1 if inversions % 2 else 1
    assert determinant(permuted) == sign * determinant(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=9, max_size=9),
       st.lists(rationals, min_size=3, max_size=3))
def test_solve_multiply_roundtrip(entries, rhs):
    m = [entries[3 * i:3 * i + 3] for i in range(3)]
    if determinant(m) == 0:
        with pytest.raises(SingularSystemError):
            solve(m, rhs)
    else:
        x = solve(m, rhs)
        assert list(oracles.matvec(m, x)) == rhs


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=8, max_size=8),
       st.lists(rationals, min_size=2, max_size=2))
def test_rank_deficient_matrices_have_zero_determinant(row_pair, coeffs):
    # Build a 4x4 whose last two rows are combinations of the first two.
    r1, r2 = row_pair[:4], row_pair[4:]
    a, b = coeffs
    r3 = [a * x + b * y for x, y in zip(r1, r2)]
    r4 = [x + y for x, y in zip(r1, r2)]
    m = [r1, r2, r3, r4]
    assert determinant(m) == 0
    with pytest.raises(SingularSystemError):
        solve(m, [1, 0, 0, 0])


def test_invert_roundtrip():
    m = [[2, 1], [1, 1]]
    inv = invert(m)
    assert oracles.matvec(inv, [1, 0]) == (1, -1)
    assert oracles.matvec(inv, [0, 1]) == (-1, 2)


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of its SingularSystemError."""
    try:
        return fn(*args)
    except SingularSystemError as exc:
        return ("singular", str(exc))


def _assert_matches_oracle(rows, rhs):
    assert _outcome(solve, rows, rhs) == _outcome(
        lambda: tuple(oracles.fraction_solve(rows, rhs)))
    assert _outcome(invert, rows) == _outcome(
        oracles.fraction_invert, rows)


@st.composite
def square_systems(draw):
    """A random rational n x n matrix (n <= 6) and a fractional rhs; about
    half the matrices get a row that is a combination of two others."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        a, b = draw(rationals), draw(rationals)
        perm = draw(st.permutations(range(n)))
        k, i, j = perm[0], perm[1], perm[-1]
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    rhs = draw(st.lists(rationals, min_size=n, max_size=n))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(square_systems())
def test_solve_and_invert_equal_fraction_oracle(system):
    _assert_matches_oracle(*system)


@pytest.mark.parametrize("entry", default_catalog(), ids=lambda e: e.name)
def test_catalog_reduced_laplacians_equal_fraction_oracle(entry):
    net = oracles.network_from_graph(entry.graph)
    n = net.vertex_count
    rows = oracles.fraction_reduced_laplacian(net, list(range(n)), n - 1)
    rhs = [Fraction(i % 3, 1 + i % 4) for i in range(len(rows))]
    _assert_matches_oracle(rows, rhs)


NEGATIVE_NETWORKS = [bipartite_to_double_star(m, n)
                     for m, n in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4)]]
# Triangle with resistances 1, 1, -2: every reduced Laplacian is singular.
NEGATIVE_NETWORKS.append(WeightedNetwork.from_resistances(
    3, [(0, 1, 1), (0, 2, 1), (1, 2, -2)]))


@pytest.mark.parametrize("net", NEGATIVE_NETWORKS)
def test_negative_network_reduced_laplacians_equal_fraction_oracle(net):
    # The double stars' centre edge carries the negative resistance -1/(mn).
    for grounded in range(net.vertex_count):
        rows = oracles.fraction_reduced_laplacian(net, list(range(net.vertex_count)), grounded)
        rhs = [Fraction(1, i + 1) for i in range(len(rows))]
        _assert_matches_oracle(rows, rhs)


def test_invert_residual_check_catches_a_corrupt_adjugate(monkeypatch):
    eliminate = exactalg._eliminate

    def corrupted(rows):
        det, det_inv = eliminate(rows)
        det_inv[1][0] += 1
        return det, det_inv

    monkeypatch.setattr(exactalg, "_eliminate", corrupted)
    # Not symmetric, so the pivoted kernel runs.
    m = [[3, -1, -1], [-1, 3, -1], [-2, -1, 3]]
    with pytest.raises(VerificationError, match="inverse residual check failed"):
        invert(m)


def test_solve_residual_check_catches_a_corrupt_entry(monkeypatch):
    eliminate = exactalg._eliminate

    def corrupted(rows):
        det, det_x = eliminate(rows)
        det_x[2][0] -= 1
        return det, det_x

    monkeypatch.setattr(exactalg, "_eliminate", corrupted)
    # The rhs 1/2 scales row 0 by 2, so D A is not symmetric.
    m = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    with pytest.raises(VerificationError, match="solve residual check failed in row 0"):
        solve(m, [Fraction(1, 2), 0, 1])


@pytest.mark.parametrize("stage", ["inverse", "solve"])
def test_symmetric_kernel_corruption_fails_the_residual_check(monkeypatch, stage):
    symmetric_eliminate = exactalg._symmetric_eliminate
    reached = []

    def corrupted(rows):
        det, det_x = symmetric_eliminate(rows)
        det_x[-1][0] += 1
        reached.append(det)
        return det, det_x

    monkeypatch.setattr(exactalg, "_symmetric_eliminate", corrupted)
    monkeypatch.setattr(exactalg, "_eliminate", None)
    m = [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    with pytest.raises(VerificationError, match=f"{stage} residual check failed in row 0"):
        invert(m) if stage == "inverse" else solve(m, [1, 0, 1])
    assert reached == [16]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
    st.integers(0, 4), st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n),
    st.integers(1, 3), st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n))))
def test_symmetric_kernel_equals_the_pivoted_kernel(case):
    # Random symmetric integer matrices, singular ones and ones with zero
    # leading minors included; B is s I, one column or two.  At sparsity d
    # an off-diagonal entry survives only when its draw in 0..4 is at least
    # d, so mostly-zero matrices make rows skip several steps before they
    # are touched again.
    n, flat, d, keep, s, b = case
    a = [[flat[min(i, j) * n + max(i, j)]
          if i == j or keep[min(i, j) * n + max(i, j)] >= d else 0
          for j in range(n)] for i in range(n)]
    for rows in ([row + [s * int(i == j) for j in range(n)] for i, row in enumerate(a)],
                 [row + [v] for row, v in zip(a, b)],
                 [row + [v, w] for row, v, w in zip(a, b, b[n:])]):
        before = [list(row) for row in rows]
        solved = exactalg._symmetric_eliminate(rows)
        assert rows == before
        try:
            det, det_x = exactalg._eliminate(list(rows))
        except SingularSystemError:
            assert solved is None
            with pytest.raises(SingularSystemError):
                exactalg.integer_solve(rows, "test")
            continue
        if solved is not None:
            assert solved == (det, det_x)
        assert exactalg.integer_solve(rows, "test") == (det, det_x)


def test_format_rational():
    assert format_rational(Fraction(3, 5)) == "3/5"
    assert format_rational(Fraction(-3, 5)) == "-3/5"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(0)) == "0"


def test_parse_rational():
    assert parse_rational("3/5") == Fraction(3, 5)
    assert parse_rational("-3/5") == Fraction(-3, 5)
    assert parse_rational("+7") == 7
    assert parse_rational(" 2/4 ") == Fraction(1, 2)
    for bad in ("3/-5", "1.5", "", "a/b", "3/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


#: Every value the JSON writer accepts: text with control, non-ASCII and
#: lone surrogate characters, ints far past 64 bits, and nested containers.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2**200, max_value=2**200)
    | st.text(st.characters(exclude_categories=())),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4),
                                     inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_text_equals_indented_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_writes_empty_containers_and_keeps_bools_apart():
    assert json_text({"a": [], "b": {}, "c": ()}) == json.dumps(
        {"a": [], "b": {}, "c": ()}, indent=2)
    assert json_text(True) == "true"
    assert json_text(1) == "1"
    assert json_text([True, 1, False, 0, None]) == json.dumps([True, 1, False, 0, None], indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, {1: "a"}, [{"a": 0.0}],
                                   {None: 1}, {True: 1}, {(1, 2): 3}])
def test_json_text_refuses_what_no_payload_holds(value):
    with pytest.raises(TypeError):
        json_text(value)
