"""Closed-form resistance bounds for cut networks and their grid verifiers.

The central object is the four-vertex reduction of a non-trivial edge cut in
a k-regular graph: pick a crossing edge whose endpoints have cut-graph
degrees x and y, collapse the rest of each side, and replace every collapsed
piece by its worst-case (smallest) resistance.  The resulting network has a
closed-form resistance across the chosen edge,

    bound(k, x, y) = (4ab - c^2) / (2ab(k+1) - k c^2)

with a = k-x, b = k-y, c = k-x-y+1, which lower-bounds the common edge
resistance of any equiarboreal host.  Everything here is verified two ways:
the closed form against a literal nodal solve of the network, and the grid
inequalities over every integer pair they quantify, each compared by integer
cross-multiplication.  The range x + y <= k - sqrt(k) - 2 is walked
directly with the root rounded by ``math.isqrt``, never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import exactalg
from .errors import (
    DomainError,
    ParameterError,
    PreconditionError,
    VerificationError,
)
from .exactalg import Rational, RationalMatrix
from .cuts import EdgeCut, _cut_graph_degrees, _small_degree_sum_rows, cut_from_side
from .graphs import Graph
from .resistance import WeightedNetwork, resistance

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
        a, b, c = k - x, k - y, k - x - y + 1
        if 2 * a * b * (k + 1) - k * c * c == 0:
            raise DomainError(
                f"bound denominator vanishes at (k, x, y) = ({k}, {x}, {y})")
        return cls(k, x, y, a, b, c)

    @property
    def numerator(self) -> int:
        return 4 * self.a * self.b - self.c * self.c

    @property
    def denominator(self) -> int:
        return 2 * self.a * self.b * (self.k + 1) - self.k * self.c * self.c


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
    the collapsed remainders of the two sides.  Edges whose formula gives
    an infinite resistance (x = 1, y = 1, or c = 0) are simply absent.
    """
    p = BoundParams.create(k, x, y)
    edges: list[tuple[int, int, Rational]] = [(U1, V1, Fraction(1))]
    edges.append((U1, U2, Fraction(1, p.a)))
    edges.append((V1, V2, Fraction(1, p.b)))
    if x > 1:
        edges.append((U1, V2, Fraction(1, x - 1)))
    if y > 1:
        edges.append((U2, V1, Fraction(1, y - 1)))
    if p.c > 0:
        edges.append((U2, V2, Fraction(1, p.c)))
    return WeightedNetwork.from_resistances(4, edges, terminals=(U1, V1))


def interior_voltages(k: int, x: int, y: int) -> tuple[Fraction, Fraction]:
    """Voltages at U2 and V2 under a unit voltage from U1 to V1, from the
    exact solve of the two nodal equations."""
    p = BoundParams.create(k, x, y)
    system = RationalMatrix.from_rows([[2 * p.a, -p.c], [-p.c, 2 * p.b]])
    v_u2, v_v2 = exactalg.solve(system, [Fraction(p.a), Fraction(x - 1)])
    return v_u2, v_v2


def kirchhoff_cross_check(k: int, x: int, y: int) -> bool:
    """Confirm the closed form end to end.

    Checks, in order: the solved interior voltages match their closed
    forms, the injected current simplifies to (2ab(k+1) - kc^2)/(4ab - c^2),
    and a generic Laplacian solve of the reduced network returns exactly the
    closed-form bound.
    """
    p = BoundParams.create(k, x, y)
    v_u2, v_v2 = interior_voltages(k, x, y)
    disc = 4 * p.a * p.b - p.c * p.c
    if v_u2 != Fraction(2 * p.a * p.b + p.c * (x - 1), disc):
        return False
    if v_v2 != Fraction(p.a * (2 * x + p.c - 2), disc):
        return False
    current = k - (p.a * v_u2 + (x - 1) * v_v2)
    if current != Fraction(p.denominator, disc):
        return False
    bound = Fraction(p.numerator, p.denominator)
    if 1 / current != bound:
        return False
    return resistance(reduced_cut_network(k, x, y), U1, V1) == bound


def valid_degree_pairs(k: int) -> list[tuple[int, int]]:
    """Every (x, y) accepted by the bound at degree k."""
    out = []
    for x in range(1, k):
        for y in range(1, k):
            if x + y > k + 1:
                continue
            try:
                BoundParams.create(k, x, y)
            except DomainError:
                continue
            out.append((x, y))
    return out


def cut_lower_bound(g: Graph, cut: EdgeCut, k: int) -> Fraction:
    """Best bound over a cut: max of the degree-pair bound across its
    crossing edges."""
    if g.is_regular() != k:
        raise PreconditionError(f"graph is not {k}-regular")
    if cut.is_trivial:
        raise PreconditionError("bound requires a non-trivial cut")
    if cut.size > k:
        raise PreconditionError(f"cut has {cut.size} > k = {k} edges")
    recomputed = cut_from_side(g, cut.side_a)
    if recomputed.crossing != cut.crossing:
        raise ParameterError("crossing set does not match the bipartition")
    deg = _cut_graph_degrees(cut)
    return max(degree_pair_bound(k, deg[u], deg[v]) for (u, v) in cut.crossing)


# ---------------------------------------------------------------------------
# Exhaustive grid verifiers


def _row_meets_two_over_k(k: int, x: int, ys: Iterable[int]) -> bool:
    """Whether the shifted bound at (x+1, y+1) is at least 2/k for every y
    in ys.  N/D >= 2/k is decided as N*k >= 2D, reversed when D < 0; a
    vanishing D raises BoundParams' DomainError."""
    a, k2 = k - x - 1, 2 * (k + 1)
    for y in ys:
        ab, c = a * (k - y - 1), a - y
        num_k, den = (4 * ab - c * c) * k, k2 * ab - k * c * c
        if den > 0:
            if num_k < 2 * den:
                return False
        elif den == 0:
            BoundParams.create(k, x + 1, y + 1)  # raises the DomainError
        elif num_k > 2 * den:
            return False
    return True


def verify_double_star_threshold(k: int) -> bool:
    """For every x, y >= 1 with x + y <= k - sqrt(k) - 2, the shifted bound
    at degrees (x+1, y+1) is at least 2/k.

    This is what rules out small double stars inside minimum-cut graphs.
    The pairs are walked directly: x + y <= k - ceil(sqrt(k)) - 2 with the
    root from ``math.isqrt``, and each bound is compared with 2/k by
    integer cross-multiplication, so no fraction is built.
    """
    if k < 7:
        raise ParameterError(f"threshold grid is stated for k >= 7, got {k}")
    return all(_row_meets_two_over_k(k, x, ys)
               for x, ys in _small_degree_sum_rows(k))


def verify_denominator_positive(k: int) -> bool:
    """The shifted bound's denominator 2(k-x-1)(k-y-1)(k+1) - k(k-x-y-1)^2
    is strictly positive for all x, y >= 1 with x + y <= k - 1."""
    if k < 7:
        raise ParameterError(f"positivity grid is stated for k >= 7, got {k}")
    for x in range(1, k - 1):
        ax = 2 * (k - x - 1) * (k + 1)
        for y in range(1, k - x):
            c = k - x - y - 1
            if ax * (k - y - 1) - k * c * c <= 0:
                return False
    return True


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
