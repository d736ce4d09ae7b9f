"""Closed-form resistance bounds for cut networks and their grid verifiers.

The central object is the four-vertex reduction of a non-trivial edge cut in
a k-regular graph: pick a crossing edge whose endpoints have cut-graph
degrees x and y, collapse the rest of each side, and replace every collapsed
piece by its worst-case (smallest) resistance.  The resulting network has a
closed-form resistance across the chosen edge,

    bound(k, x, y) = (4ab - c^2) / (2ab(k+1) - k c^2)

with a = k-x, b = k-y, c = k-x-y+1, which lower-bounds the common edge
resistance of any equiarboreal host.  Both the closed form, for every
(k, x, y), and the grid inequalities (the 2/k threshold and the positive
denominator), for every integer pair they quantify, rest on one algebraic
certificate: polynomial identities in (k, x, y), five of them tying the
network's nodal solve to the bound's numerator and denominator, checked
once per process on a product grid that proves them.  Each degree k then
needs a few integer comparisons, with the range x + y <= k - sqrt(k) - 2
bounded by ``math.isqrt``, never through floats.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import (
    DomainError,
    ParameterError,
    PreconditionError,
    VerificationError,
)
from .exactalg import Rational
from .cuts import EdgeCut, _cut_graph_degrees, _floor_k_minus_sqrt_k, cut_from_side
from .graphs import Graph
from .resistance import WeightedNetwork, _potentials, resistance

# Vertex labels of the reduced cut network.
U1, V1, U2, V2 = 0, 1, 2, 3


@dataclass(frozen=True)
class BoundParams:
    """Validated parameters of the reduced cut network."""

    k: int
    x: int
    y: int
    a: int  # k - x
    b: int  # k - y
    c: int  # k - x - y + 1

    @classmethod
    def create(cls, k: int, x: int, y: int) -> "BoundParams":
        if k < 3:
            raise ParameterError(f"degree k = {k} < 3")
        if x < 1 or y < 1:
            raise ParameterError(f"cut-graph degrees must be >= 1, got ({x}, {y})")
        if x > k - 1 or y > k - 1:
            raise DomainError(
                f"degrees ({x}, {y}) exceed k-1 = {k - 1}; the collapsed side "
                "would have no internal edges")
        if x + y > k + 1:
            raise DomainError(
                f"x + y = {x + y} > k+1 = {k + 1}: the reduced network would "
                "need a negative fixed edge, outside the proven validity range")
        if _shifted_terms(k, x, y)[1] == 0:
            raise DomainError(
                f"bound denominator vanishes at (k, x, y) = ({k}, {x}, {y})")
        return cls(k, x, y, k - x, k - y, k - x - y + 1)

    @property
    def numerator(self) -> int:
        return _shifted_terms(self.k, self.x, self.y)[0]

    @property
    def denominator(self) -> int:
        return _shifted_terms(self.k, self.x, self.y)[1]


def degree_pair_bound(k: int, x: int, y: int) -> Fraction:
    """The reduced-network resistance for a crossing edge with cut-graph
    degrees (x, y) in a k-regular graph."""
    p = BoundParams.create(k, x, y)
    return Fraction(p.numerator, p.denominator)


def star_leaf_bound(k: int, x: int) -> Fraction:
    """Specialization to a pendant star: a degree-(x-1) centre whose edge
    partner has cut-graph degree 1.  Strictly decreasing in x."""
    if x < 3:
        raise ParameterError(f"pendant star needs order x >= 3, got {x}")
    return Fraction(3 * k + x - 5, k * k + (x - 1) * k - 2)


def reduced_cut_network(k: int, x: int, y: int) -> WeightedNetwork:
    """The four-vertex network behind the bound.

    Vertices: U1, V1 are the chosen crossing edge's endpoints, U2 and V2
    the collapsed remainders of the two sides.  Collapsing a side adds its
    parallel pieces as conductances: 1, k-x, k-y, x-1, y-1 and c.  A zero
    conductance (x = 1, y = 1, or c = 0) is an absent edge.
    """
    p = BoundParams.create(k, x, y)
    return WeightedNetwork(4, {(U1, V1): 1, (U1, U2): p.a, (V1, V2): p.b,
                               (U1, V2): x - 1, (U2, V1): y - 1, (U2, V2): p.c},
                           terminals=(U1, V1))


def kirchhoff_cross_check(k: int, x: int, y: int) -> bool:
    """The per-point oracle for ``verify_reduced_network``: confirm the
    closed form end to end from one nodal solve of the reduced network, V1
    grounded and a unit current injected at U1.

    Checks, in order: the interior voltages under a unit voltage from U1
    to V1 (each potential over U1's) match their closed forms, the current
    that voltage drives simplifies to (2ab(k+1) - kc^2)/(4ab - c^2), and
    the resistance, U1's potential, is exactly the closed-form bound.
    """
    p = BoundParams.create(k, x, y)
    det, potential = _potentials(reduced_cut_network(k, x, y), U1, V1)
    v_u2 = Fraction(potential[U2], potential[U1])
    v_v2 = Fraction(potential[V2], potential[U1])
    disc = p.numerator
    if v_u2 != Fraction(2 * p.a * p.b + p.c * (x - 1), disc):
        return False
    if v_v2 != Fraction(p.a * (2 * x + p.c - 2), disc):
        return False
    current = k - (p.a * v_u2 + (x - 1) * v_v2)
    if current != Fraction(p.denominator, disc):
        return False
    return Fraction(potential[U1], det) == Fraction(disc, p.denominator)


def valid_degree_pairs(k: int) -> list[tuple[int, int]]:
    """Every (x, y) accepted by the bound at degree k."""
    BoundParams.create(k, 1, 1)  # validates k: (1, 1) is accepted at every k >= 3
    return [(x, y) for x in range(1, k) for y in range(1, min(k, k + 2 - x))
            if _shifted_terms(k, x, y)[1] != 0]


def cut_lower_bound(g: Graph, cut: EdgeCut, k: int) -> Fraction:
    """Best bound over a cut: max of the degree-pair bound across its
    crossing edges."""
    if g.is_regular() != k:
        raise PreconditionError(f"graph is not {k}-regular")
    if cut.is_trivial:
        raise PreconditionError("bound requires a non-trivial cut")
    if cut.size > k:
        raise PreconditionError(f"cut has {cut.size} > k = {k} edges")
    if cut_from_side(g, cut.side_a) != cut:
        raise ParameterError("crossing set does not match the bipartition")
    deg = _cut_graph_degrees(cut)
    return max(degree_pair_bound(k, deg[u], deg[v]) for (u, v) in cut.crossing)


# ---------------------------------------------------------------------------
# The algebraic certificate
#
# In the shifted degrees X = x+1 and Y = y+1, with S = X+Y and s = k-S, the
# bound's numerator N = 4ab - c^2 and denominator D = 2ab(k+1) - kc^2
# (a = k-X, b = k-Y, c = k-S+1) satisfy the two identities of _IDENTITIES.
# With integer conductances the reduced network's nodal solve, V1 grounded,
# returns its 3x3 determinant det and U1's adjugate column P unscaled, and
# five identities in (k, x, y) tie them to N and D: det = D and P[U1] = N by
# the weighted matrix-tree theorem (Kirchhoff 1847).  Every side has degree
# <= 3 in each variable, so agreement on {20..23} x {2..5} x {2..5}, where
# all six conductances are positive, proves it (the product-set lemma behind
# Schwartz 1980 and Zippel 1979).


def _shifted_terms(k: int, X: int, Y: int) -> tuple[int, int]:
    """(N, D), the bound's numerator and denominator at degrees (X, Y)."""
    a, b, c = k - X, k - Y, k - X - Y + 1
    return 4 * a * b - c * c, 2 * a * b * (k + 1) - k * c * c


# (statement, left side, right side), each side a polynomial in (k, X, Y).
_IDENTITIES = (
    ("N*k - 2D = (k-1)(s^2-k) + (X-Y)^2",
     lambda k, X, Y: _shifted_terms(k, X, Y)[0] * k - 2 * _shifted_terms(k, X, Y)[1],
     lambda k, X, Y: (k - 1) * ((k - X - Y) ** 2 - k) + (X - Y) ** 2),
    ("2D = (k-1)(2k^2+2k-S^2) - (k+1)(X-Y)^2",
     lambda k, X, Y: 2 * _shifted_terms(k, X, Y)[1],
     lambda k, X, Y: (k - 1) * (2 * k * k + 2 * k - (X + Y) ** 2)
     - (k + 1) * (X - Y) ** 2),
)


@functools.cache
def _check_identities() -> None:
    """Every identity on the 64 points of the product grid, one nodal solve
    per point, once per process; a disagreement raises, so it also fires
    under ``python -O``."""
    for k, x, y in itertools.product(range(20, 24), range(2, 6), range(2, 6)):
        det, p = _potentials(reduced_cut_network(k, x, y), U1, V1)
        n, d = _shifted_terms(k, x, y)
        a, c = k - x, k - x - y + 1
        checks = [(s, lhs(k, x, y), rhs(k, x, y)) for s, lhs, rhs in _IDENTITIES] + [
            ("det = D", det, d), ("P[U1] = N", p[U1], n),
            ("P[U2] = 2ab + c(x-1)", p[U2], 2 * a * (k - y) + c * (x - 1)),
            ("P[V2] = a(2x + c - 2)", p[V2], a * (2 * x + c - 2)),
            ("kN - a P[U2] - (x-1) P[V2] = D", k * n - a * p[U2] - (x - 1) * p[V2], d)]
        for statement, left, right in checks:
            if left != right:
                raise VerificationError(
                    f"identity {statement} fails at (k, x, y) = ({k}, {x}, {y})")


def verify_reduced_network(k: int) -> bool:
    """``kirchhoff_cross_check`` holds at every pair the bound accepts at
    degree k: there the network is connected with integer conductances, so
    its nodal solve is the det and P of the identities.  O(1) per k."""
    BoundParams.create(k, 1, 1)  # validates k: (1, 1) is accepted at every k >= 3
    _check_identities()
    return True


def _denominator_certified(k: int) -> bool:
    # By the second identity, D over the pairs with X + Y = S is smallest at
    # the most unbalanced one, (2, S-2), since X, Y >= 2 gives |X-Y| <= S-4.
    # That smallest value is concave in S, so it is positive on 4 <= S <= k+1
    # iff it is positive at both ends: 2D = 2(k-1)(k^2+k-8) at (2, 2) and
    # 2D = 4(k+1)(k-2) at (2, k-1).
    _check_identities()
    return _shifted_terms(k, 2, 2)[1] > 0 and _shifted_terms(k, 2, k - 1)[1] > 0


def verify_double_star_threshold(k: int) -> bool:
    """For every x, y >= 1 with x + y <= k - sqrt(k) - 2, the shifted bound
    at degrees (x+1, y+1) is at least 2/k.

    This is what rules out small double stars inside minimum-cut graphs.
    The range is x + y <= floor(k - sqrt(k)) - 2 with the root from
    ``math.isqrt``, so every pair in it has s >= ceil(sqrt(k)), that is
    s >= 0 and s^2 >= k.  There both terms of N*k - 2D = (k-1)(s^2-k) +
    (X-Y)^2 are >= 0, and D > 0 by the positivity certificate (the range
    has X, Y >= 2 and S <= k), so N/D >= 2/k.  O(1) per k after the
    once-per-process identity check.
    """
    if k < 7:
        raise ParameterError(f"threshold grid is stated for k >= 7, got {k}")
    s = k - _floor_k_minus_sqrt_k(k)  # the least s of the range
    return s >= 0 and s * s >= k and _denominator_certified(k)


def verify_denominator_positive(k: int) -> bool:
    """The shifted bound's denominator 2(k-x-1)(k-y-1)(k+1) - k(k-x-y-1)^2
    is strictly positive for all x, y >= 1 with x + y <= k - 1.

    Certified from the second identity by the sign of D at two pairs:
    O(1) per k after the once-per-process identity check.
    """
    if k < 7:
        raise ParameterError(f"positivity grid is stated for k >= 7, got {k}")
    return _denominator_certified(k)


# ---------------------------------------------------------------------------
# Worked closed-form networks
#
# Each evaluator pairs the algebraic formula with a literal build-and-solve
# of the same network; a mismatch raises, it is never a warning.

_CLOSED_FORM_PARAMS = {
    "cycle4": ("p", "q"),
    "theta": ("x", "y"),
    "theta_half": ("x", "y"),
    "k4_cross": ("x", "y"),
    "cut_reduction": ("k", "x", "y"),
}


def _cycle4(p: Fraction, q: Fraction) -> tuple[Fraction, WeightedNetwork, int, int]:
    # 4-cycle u1-u2-v2-v1 with unit rungs u1v1 and u2v2; probe across u1v1.
    value = (p + q + 1) / (p + q + 2)
    net = WeightedNetwork.from_resistances(
        4, [(0, 1, p), (1, 2, Fraction(1)), (2, 3, q), (3, 0, Fraction(1))])
    return value, net, 0, 3


def _theta(x: Fraction, y: Fraction) -> tuple[Fraction, WeightedNetwork, int, int]:
    # Three unit edges u1v1, u1v2, u2v2 plus side edges u1u2 = x, v1v2 = y.
    value = ((1 + x) + (2 + x) * y) / (x * y + 2 * x + 2 * y + 3)
    net = WeightedNetwork.from_resistances(
        4, [(0, 2, Fraction(1)), (0, 3, Fraction(1)), (1, 3, Fraction(1)),
            (0, 1, x), (2, 3, y)])
    return value, net, 0, 2


def _theta_half(x: Fraction, y: Fraction) -> tuple[Fraction, WeightedNetwork, int, int]:
    # As the theta network but the u2v2 edge carries 1/2 (two merged edges).
    value = (2 * x + y * (2 * x + 3) + 1) / (2 * x + (2 * x + 3) * (y + 1) + 1)
    net = WeightedNetwork.from_resistances(
        4, [(0, 2, Fraction(1)), (0, 3, Fraction(1)), (1, 3, Fraction(1, 2)),
            (0, 1, x), (2, 3, y)])
    return value, net, 0, 2


def _k4_cross(x: Fraction, y: Fraction) -> tuple[Fraction, WeightedNetwork, int, int]:
    # All four unit cross edges between {u1,u2} and {v1,v2} plus weighted
    # diagonals; the closed form comes from the double-star rewrite.
    value = (1 + 2 * x) / (4 + 4 * x) + (1 + 2 * y) / (4 + 4 * y) - Fraction(1, 4)
    net = WeightedNetwork.from_resistances(
        4, [(0, 2, Fraction(1)), (0, 3, Fraction(1)), (1, 2, Fraction(1)),
            (1, 3, Fraction(1)), (0, 1, x), (2, 3, y)])
    return value, net, 0, 2


def closed_form(network_id: str, params: Mapping[str, Rational]) -> Fraction:
    """Evaluate a named worked network's closed-form resistance, always
    cross-checked against the generic solver on the constructed network."""
    if network_id not in _CLOSED_FORM_PARAMS:
        raise ParameterError(
            f"unknown network id {network_id!r}; known: "
            f"{sorted(_CLOSED_FORM_PARAMS)}")
    wanted = _CLOSED_FORM_PARAMS[network_id]
    missing = [name for name in wanted if name not in params]
    if missing:
        raise ParameterError(f"{network_id} needs parameters {wanted}")
    vals = {name: Fraction(params[name]) for name in wanted}
    for name, v in vals.items():
        if v <= 0:
            raise ParameterError(f"parameter {name} = {v} must be positive")

    if network_id == "cut_reduction":
        ints = {}
        for name, v in vals.items():
            if v.denominator != 1:
                raise ParameterError(f"parameter {name} = {v} must be an integer")
            ints[name] = int(v)
        value = degree_pair_bound(ints["k"], ints["x"], ints["y"])
        net = reduced_cut_network(ints["k"], ints["x"], ints["y"])
        probe = (U1, V1)
    else:
        builder = {"cycle4": _cycle4, "theta": _theta,
                   "theta_half": _theta_half, "k4_cross": _k4_cross}[network_id]
        value, net, u, v = builder(*(vals[name] for name in wanted))
        probe = (u, v)

    solved = resistance(net, *probe)
    if solved != value:
        raise VerificationError(
            f"closed form {value} != solved {solved} for {network_id} {vals}")
    return value
