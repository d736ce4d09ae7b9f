"""The reduced-cut-network bound, its oracle identities, and grid checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiarbor import bounds, exactalg
from equiarbor.bounds import (
    BoundParams,
    closed_form,
    cut_lower_bound,
    degree_pair_bound,
    kirchhoff_cross_check,
    reduced_cut_network,
    star_leaf_bound,
    valid_degree_pairs,
    verify_denominator_positive,
    verify_double_star_threshold,
)
from equiarbor.cuts import _small_degree_sum_rows, cut_from_side
from equiarbor.errors import DomainError, ParameterError, PreconditionError, VerificationError
from equiarbor.graphs import Graph, generate
from equiarbor.resistance import WeightedNetwork, _potentials, resistance

import oracles

positive_rationals = st.builds(Fraction,
                               st.integers(min_value=1, max_value=12),
                               st.integers(min_value=1, max_value=12))


def test_unit_degree_pair_is_three_over_k_plus_two():
    for k in range(3, 13):
        assert degree_pair_bound(k, 1, 1) == Fraction(3, k + 2)
    assert degree_pair_bound(5, 1, 1) == Fraction(3, 7)
    assert degree_pair_bound(4, 1, 1) == Fraction(1, 2)


def test_degree_pair_bound_values():
    assert degree_pair_bound(7, 2, 1) == Fraction(19, 61)
    assert degree_pair_bound(9, 2, 2) == Fraction(160, 656) == Fraction(10, 41)
    assert degree_pair_bound(7, 2, 2) == Fraction(7, 24)
    # and 7/24 >= 2/7 by cross multiplication: 49 >= 48.
    assert degree_pair_bound(7, 2, 2) >= Fraction(2, 7)


def test_degree_pair_bound_recomputed_from_substitution():
    # Independent recomputation through the a, b, c substitution.
    for k, x, y in [(9, 2, 2), (7, 2, 1), (12, 4, 5)]:
        a, b, c = k - x, k - y, k - x - y + 1
        expected = Fraction(4 * a * b - c * c,
                            2 * a * b * (k + 1) - k * c * c)
        assert degree_pair_bound(k, x, y) == expected


def test_degree_pair_bound_domain():
    with pytest.raises(ParameterError):
        degree_pair_bound(7, 0, 1)
    with pytest.raises(DomainError):
        degree_pair_bound(7, 7, 1)
    with pytest.raises(DomainError):
        degree_pair_bound(7, 5, 5)  # x + y > k + 1
    with pytest.raises(ParameterError):
        degree_pair_bound(2, 1, 1)


def test_star_leaf_specialization():
    for k in range(6, 21):
        for x in range(3, k):
            assert star_leaf_bound(k, x) == degree_pair_bound(k, x - 1, 1)
    assert star_leaf_bound(7, 3) == Fraction(19, 61)


def test_star_leaf_bound_strictly_decreasing():
    for k in range(6, 21):
        values = [star_leaf_bound(k, x) for x in range(3, 3 * k)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_interior_voltages_worked_point():
    # Under a unit voltage from U1 to V1, each interior voltage is its
    # potential over U1's in the grounded unit-current solve.
    det, potential = _potentials(reduced_cut_network(7, 2, 1), bounds.U1, bounds.V1)
    assert (Fraction(potential[bounds.U2], potential[bounds.U1]),
            Fraction(potential[bounds.V2], potential[bounds.U1])) == (
        Fraction(13, 19), Fraction(7, 19))
    assert Fraction(potential[bounds.U1], det) == degree_pair_bound(7, 2, 1)


def test_reduced_network_edge_absences():
    # x = 1 drops one cross edge; x + y = k + 1 drops the collapsed edge.
    net = reduced_cut_network(5, 1, 2)
    assert net.resistance_of_edge(0, 3) is None
    net = reduced_cut_network(5, 3, 3)
    assert net.resistance_of_edge(2, 3) is None
    full = reduced_cut_network(5, 2, 2)
    assert full.resistance_of_edge(2, 3) == Fraction(1, 2)


def test_reduced_network_equals_the_paper_resistance_form():
    # Resistances 1, 1/(k-x), 1/(k-y), 1/(x-1), 1/(y-1) and 1/c, each edge
    # present only when finite, at every (k, x, y) the bound accepts.
    U1, V1, U2, V2 = bounds.U1, bounds.V1, bounds.U2, bounds.V2
    for k in range(3, 21):
        accepted = []
        for x in range(1, k):
            for y in range(1, k):
                try:
                    degree_pair_bound(k, x, y)
                except DomainError:
                    continue
                accepted.append((x, y))
                c = k - x - y + 1
                edges = [(U1, V1, 1), (U1, U2, Fraction(1, k - x)), (V1, V2, Fraction(1, k - y))]
                edges += [(u, v, Fraction(1, g)) for u, v, g
                          in ((U1, V2, x - 1), (U2, V1, y - 1), (U2, V2, c)) if g]
                assert reduced_cut_network(k, x, y) == WeightedNetwork.from_resistances(
                    4, edges, terminals=(U1, V1)), (k, x, y)
        assert valid_degree_pairs(k) == accepted, k


def test_kirchhoff_cross_check_spot_points():
    assert kirchhoff_cross_check(7, 2, 1)
    assert kirchhoff_cross_check(4, 1, 1)
    assert kirchhoff_cross_check(5, 1, 3)   # x = 1 boundary
    assert kirchhoff_cross_check(9, 4, 6)   # c = 0 boundary
    assert kirchhoff_cross_check(3, 2, 2)


def test_kirchhoff_cross_check_is_one_nodal_solve(monkeypatch):
    # The interior voltages, the current and the resistance all come from
    # the potentials of one solve of the reduced network.
    solve = exactalg.integer_solve
    calls = []

    def counted(rows, what):
        calls.append(len(rows))
        return solve(rows, what)

    monkeypatch.setattr(exactalg, "integer_solve", counted)
    assert kirchhoff_cross_check(7, 2, 1)
    assert calls == [3]  # the 3x3 system of the network grounded at V1


def test_reduced_network_solve_equals_bound_small_grid():
    for k in range(3, 8):
        for x, y in valid_degree_pairs(k):
            net = reduced_cut_network(k, x, y)
            assert resistance(net, 0, 1) == degree_pair_bound(k, x, y)


def test_threshold_grids_small_range():
    for k in range(7, 13):
        assert verify_double_star_threshold(k)
        assert verify_denominator_positive(k)
    for k in range(3, 13):
        assert bounds.verify_reduced_network(k)
    with pytest.raises(ParameterError):
        verify_double_star_threshold(6)
    with pytest.raises(ParameterError):
        verify_denominator_positive(6)
    with pytest.raises(ParameterError):
        bounds.verify_reduced_network(2)


def test_threshold_grids_match_fraction_oracles():
    for k in range(7, 61):
        assert verify_double_star_threshold(k) == oracles.fraction_double_star_threshold(k)
        assert verify_denominator_positive(k) == oracles.scan_denominator_positive(k)


def test_certificate_matches_integer_walk():
    for k in range(7, 501):
        assert verify_double_star_threshold(k) == oracles.integer_double_star_threshold(k), k
        assert verify_denominator_positive(k) == oracles.scan_denominator_positive(k), k


def test_shifted_terms_are_the_bound_numerator_and_denominator():
    for k in range(7, 31):
        for x, y in valid_degree_pairs(k):
            p = BoundParams.create(k, x, y)
            assert bounds._shifted_terms(k, x, y) == (p.numerator, p.denominator)


def test_identity_grid_checks_every_identity_on_64_points(monkeypatch):
    # One shared 4x4x4 grid for the two bound identities and the five of the
    # reduced network, with one 3x3 nodal solve per point.
    seen, solves = [], []
    monkeypatch.setattr(bounds, "_IDENTITIES", tuple(
        (statement, lambda k, X, Y, lhs=lhs: seen.append((k, X, Y)) or lhs(k, X, Y), rhs)
        for statement, lhs, rhs in bounds._IDENTITIES))
    solve = exactalg.integer_solve
    monkeypatch.setattr(exactalg, "integer_solve",
                        lambda rows, what: solves.append(len(rows)) or solve(rows, what))
    bounds._check_identities.cache_clear()
    try:
        bounds._check_identities()
    finally:
        bounds._check_identities.cache_clear()
    assert len(bounds._IDENTITIES) == 2
    assert len(seen) == 128 and len(set(seen)) == 64
    assert solves == [3] * 64


@pytest.mark.parametrize("edge", [(bounds.U2, bounds.V2), (bounds.U1, bounds.U2)])
def test_certificate_rejects_a_mutant_network(monkeypatch, edge):
    # One conductance raised by 1 (U2-V2 to c+1, or U1-U2 to a+1) changes
    # the network's determinant at every grid point, so the certificate
    # fails at the first; the per-point oracle rejects the mutant too.
    real = bounds.reduced_cut_network

    def mutant(k, x, y):
        net = real(k, x, y)
        return net.with_resistance(*edge, 1 / (net.conductance(*edge) + 1))

    monkeypatch.setattr(bounds, "reduced_cut_network", mutant)
    bounds._check_identities.cache_clear()
    try:
        with pytest.raises(VerificationError,
                           match=r"identity det = D fails at \(k, x, y\) = \(20, 2, 2\)"):
            bounds.verify_reduced_network(7)
        assert not kirchhoff_cross_check(7, 2, 1)
    finally:
        bounds._check_identities.cache_clear()
    monkeypatch.undo()
    assert bounds.verify_reduced_network(7)


@pytest.mark.parametrize("which", [(0, 1), (0, 2), (1, 1), (1, 2)])
def test_identity_check_catches_every_coefficient_change(monkeypatch, which):
    # Add +1 or -1 to one coefficient k^i X^j Y^l of one side of one
    # identity, for every monomial within the degree box: the check must
    # raise, so the 36-point grid leaves no such change unseen.
    identity, side = which
    original = bounds._IDENTITIES
    for i in range(4):
        for j in range(3):
            for l in range(3):
                for delta in (1, -1):
                    mutated = list(map(list, original))
                    f = original[identity][side]
                    mutated[identity][side] = (
                        lambda k, X, Y, f=f, i=i, j=j, l=l, d=delta:
                        f(k, X, Y) + d * k ** i * X ** j * Y ** l)
                    monkeypatch.setattr(bounds, "_IDENTITIES", tuple(map(tuple, mutated)))
                    bounds._check_identities.cache_clear()
                    try:
                        with pytest.raises(VerificationError):
                            verify_double_star_threshold(7)
                        with pytest.raises(VerificationError):
                            verify_denominator_positive(7)
                    finally:
                        bounds._check_identities.cache_clear()
    monkeypatch.undo()
    assert verify_double_star_threshold(7) and verify_denominator_positive(7)


@pytest.mark.parametrize("old,new", [
    # One coefficient of an identity side.
    ("(k - 1) * ((k - X - Y) ** 2 - k)", "(k - 2) * ((k - X - Y) ** 2 - k)"),
    ("+ (X - Y) ** 2)", "+ 2 * (X - Y) ** 2)"),
    ("(2 * k * k + 2 * k - (X + Y) ** 2)", "(2 * k * k + 3 * k - (X + Y) ** 2)"),
    ("- (k + 1) * (X - Y) ** 2", "- (k + 2) * (X - Y) ** 2"),
    ("4 * a * b - c * c, 2 * a * b", "4 * a * b - c * c, 3 * a * b"),
    # One endpoint or range comparison, flipped.
    ("_shifted_terms(k, 2, 2)[1] > 0", "_shifted_terms(k, 2, 2)[1] <= 0"),
    ("_shifted_terms(k, 2, k - 1)[1] > 0", "_shifted_terms(k, 2, k - 1)[1] <= 0"),
    ("return s >= 0 and s * s >= k", "return s < 0 and s * s >= k"),
    ("return s >= 0 and s * s >= k", "return s >= 0 and s * s < k"),
])
def test_certificate_mutation_is_caught(monkeypatch, old, new):
    mutant = oracles.mutant_module(monkeypatch, bounds, old, new)
    try:
        verdicts = [(mutant.verify_double_star_threshold(k),
                     mutant.verify_denominator_positive(k)) for k in range(7, 41)]
    except VerificationError:
        return
    assert not all(a and b for a, b in verdicts)


def _in_squaring_filter(k, x, y):
    # x + y <= k - sqrt(k) - 2 iff s = k - x - y - 2 has s >= 0, s^2 >= k.
    s = k - x - y - 2
    return s >= 0 and s * s >= k


def test_small_degree_sum_rows_equal_squaring_filter():
    for k in range(7, 121):
        walked = [(x, y) for x, ys in _small_degree_sum_rows(k) for y in ys]
        filtered = [(x, y) for x in range(1, k) for y in range(1, k)
                    if _in_squaring_filter(k, x, y)]
        assert walked == filtered, k
    # Further out, row by row: s falls as y grows, so each row of the filter
    # is a prefix 1..m of y, fixed by its last member and the next y.
    for k in range(121, 501):
        rows = dict(_small_degree_sum_rows(k))
        assert list(rows) == sorted(rows)
        for x in range(1, k):
            m = len(rows.get(x, ()))
            assert rows.get(x, range(1, 1)) == range(1, m + 1)
            assert m == 0 or _in_squaring_filter(k, x, m), (k, x)
            assert m == k - 1 or not _in_squaring_filter(k, x, m + 1), (k, x)


def test_integer_pair_test_matches_fraction_bound():
    # Every pair the bound accepts, inside the grid's range or not.
    outcomes = set()
    below_outside = 0
    for k in range(7, 81):
        inside = {(x, y) for x, ys in _small_degree_sum_rows(k) for y in ys}
        for x in range(1, k):
            for y in range(1, k):
                try:
                    BoundParams.create(k, x + 1, y + 1)
                except DomainError:
                    continue
                meets = degree_pair_bound(k, x + 1, y + 1) >= Fraction(2, k)
                assert oracles.row_meets_two_over_k(k, x, (y,)) == meets, (k, x, y)
                outcomes.add(meets)
                below_outside += not meets and (x, y) not in inside and k < 30
    assert outcomes == {True, False}
    assert below_outside == 1786


def test_integer_pair_test_sign_of_denominator():
    # Outside the bound's domain the denominator can be negative or zero;
    # the cross-multiplication still agrees with the fraction.
    negative = 0
    for k in range(7, 13):
        for x in range(1, 2 * k):
            for y in range(1, 2 * k):
                a, b = k - x - 1, k - y - 1
                c = a - y
                num, den = 4 * a * b - c * c, 2 * a * b * (k + 1) - k * c * c
                if den == 0:
                    continue
                negative += den < 0
                assert (oracles.row_meets_two_over_k(k, x, (y,))
                        == (Fraction(num, den) >= Fraction(2, k))), (k, x, y)
    assert negative > 0
    # (k, x, y) = (8, 5, 5) zeroes the denominator; like the bound at
    # (8, 6, 6), the pair test raises BoundParams' DomainError.
    with pytest.raises(DomainError):
        degree_pair_bound(8, 6, 6)
    with pytest.raises(DomainError):
        oracles.row_meets_two_over_k(8, 5, (5,))


def test_denominator_boundary_instances():
    # x = 5, y = 1 at k = 7 hits c = 0: 2 * 1 * 5 * 8 = 80 > 0.
    k, x, y = 7, 5, 1
    c = k - x - y - 1
    assert c == 0
    assert 2 * (k - x - 1) * (k - y - 1) * (k + 1) - k * c * c == 80


# ---------------------------------------------------------------------------
# Closed forms


def test_closed_form_cycle4():
    p = q = Fraction(2, 3)
    assert closed_form("cycle4", {"p": p, "q": q}) == Fraction(7, 10)


def test_closed_form_theta():
    assert closed_form("theta", {"x": 1, "y": 1}) == Fraction(5, 8)


def test_closed_form_theta_half():
    value = closed_form("theta_half", {"x": Fraction(1, 3), "y": Fraction(1, 4)})
    assert value == Fraction(31, 75)


def test_closed_form_k4_cross():
    value = closed_form("k4_cross", {"x": Fraction(1, 2), "y": Fraction(1, 2)})
    assert value == Fraction(5, 12)


def test_closed_form_cut_reduction():
    assert closed_form("cut_reduction", {"k": 4, "x": 1, "y": 1}) == Fraction(1, 2)


def test_closed_form_errors():
    with pytest.raises(ParameterError):
        closed_form("nosuch", {})
    with pytest.raises(ParameterError):
        closed_form("cycle4", {"p": 1})
    with pytest.raises(ParameterError):
        closed_form("cycle4", {"p": 1, "q": -1})
    with pytest.raises(ParameterError):
        closed_form("cut_reduction", {"k": Fraction(7, 2), "x": 1, "y": 1})


@settings(max_examples=50, deadline=None)
@given(positive_rationals, positive_rationals)
def test_theta_pair_difference(x, y):
    # In the theta network the two probe pairs differ by exactly
    # y / (xy + 2x + 2y + 3) > 0, so a host graph with equal edge
    # resistances cannot reduce to it.
    net = WeightedNetwork.from_resistances(
        4, [(0, 2, 1), (0, 3, 1), (1, 3, 1), (0, 1, x), (2, 3, y)])
    diff = resistance(net, 0, 2) - resistance(net, 0, 3)
    assert diff == y / (x * y + 2 * x + 2 * y + 3)
    assert diff > 0


@settings(max_examples=80, deadline=None)
@given(positive_rationals, positive_rationals, positive_rationals)
def test_equal_series_star_identity(t1, t2, t3):
    # t1 + t2 t3/(t2+t3) == t2 + t1 t3/(t1+t3) holds exactly when t1 == t2.
    lhs = t1 + t2 * t3 / (t2 + t3)
    rhs = t2 + t1 * t3 / (t1 + t3)
    assert (lhs == rhs) == (t1 == t2)


# ---------------------------------------------------------------------------
# Cut lower bounds on actual graphs


def _two_blocks_matching_cut() -> tuple[Graph, frozenset[int]]:
    """4-regular: two K5-minus-an-edge blocks joined by a 2-edge matching."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)
             if (u, v) != (0, 1)]
    edges += [(u + 5, v + 5) for u in range(5) for v in range(u + 1, 5)
              if (u, v) != (0, 1)]
    edges += [(0, 5), (1, 6)]
    return Graph(10, edges), frozenset(range(5))


def test_cut_lower_bound_matching_cut():
    g, side = _two_blocks_matching_cut()
    assert g.is_regular() == 4
    cut = cut_from_side(g, side)
    assert cut.crossing == ((0, 5), (1, 6))
    assert cut_lower_bound(g, cut, 4) == Fraction(1, 2)


def _five_regular_pendant_star_host() -> tuple[Graph, frozenset[int]]:
    """5-regular multigraph whose cut graph is the pendant star with
    crossing degrees (3,1), (3,1), (3,2), (1,2)."""
    edges = [(0, 2), (0, 3), (1, 2, 2), (1, 3, 2), (2, 3, 2),
             (4, 6), (5, 6), (6, 7), (4, 7, 2), (5, 7, 2), (4, 5),
             (0, 4), (0, 5), (0, 6), (1, 6)]
    return Graph(8, edges), frozenset({0, 1, 2, 3})


def test_cut_lower_bound_pendant_star():
    g, side = _five_regular_pendant_star_host()
    assert g.is_regular() == 5
    cut = cut_from_side(g, side)
    assert cut.crossing == ((0, 4), (0, 5), (0, 6), (1, 6))
    # Exhaustive max over the four crossing edges' degree pairs:
    # (3,1), (3,1), (3,2), (1,2).
    expected = max(degree_pair_bound(5, 3, 1), degree_pair_bound(5, 3, 2),
                   degree_pair_bound(5, 1, 2))
    assert expected == Fraction(13, 33)
    assert cut_lower_bound(g, cut, 5) == expected


def test_cut_lower_bound_rejects_a_cut_of_another_bipartition():
    g, side = _two_blocks_matching_cut()
    cut = cut_from_side(g, side)
    for stale in (type(cut)(cut.side_a, cut.side_b, ((0, 5),)),
                  type(cut)(cut.side_a, cut.side_b - {9}, cut.crossing)):
        with pytest.raises(ParameterError, match="does not match the bipartition"):
            cut_lower_bound(g, stale, 4)


def test_cut_lower_bound_preconditions():
    g = generate("petersen")
    trivial = cut_from_side(g, {0})
    with pytest.raises(PreconditionError):
        cut_lower_bound(g, trivial, 3)
    with pytest.raises(PreconditionError):
        cut_lower_bound(generate("star", (5,)),
                        cut_from_side(generate("star", (5,)), {0, 1}), 3)
