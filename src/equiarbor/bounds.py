"""Closed-form resistance bounds for cut networks and their grid verifiers.

The central object is the four-vertex reduction of a non-trivial edge cut in
a k-regular graph: pick a crossing edge whose endpoints have cut-graph
degrees x and y, collapse the rest of each side, and replace every collapsed
piece by its worst-case (smallest) resistance.  The resulting network has a
closed-form resistance across the chosen edge,

    bound(k, x, y) = (4ab - c^2) / (2ab(k+1) - k c^2)

with a = k-x, b = k-y, c = k-x-y+1, which lower-bounds the common edge
resistance of any equiarboreal host (``cuts.verify_degree_connectivity``
checks it on every non-trivial minimum cut at degree >= 4).  Both the
closed form, for every (k, x, y), and the grid inequalities (the 2/k
threshold and the positive denominator), for every integer pair they
quantify, rest on one algebraic certificate: polynomial identities in
(k, x, y), five of them tying the network's nodal solve to the bound's
numerator and denominator, checked once per process by one nodal solve at a
Kronecker point that proves them.  Each degree k then needs a few integer
comparisons, with the range x + y <= k - sqrt(k) - 2 bounded by
``math.isqrt``, never through floats.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError, ParameterError, VerificationError
from .resistance import WeightedNetwork, _potentials

# Vertex labels of the reduced cut network.
U1, V1, U2, V2 = 0, 1, 2, 3


def _check_domain(k: int, x: int, y: int) -> None:
    """Refuse (k, x, y) outside the bound's domain: k >= 3, 1 <= x, y <= k-1
    and x + y <= k+1.

    Inside it the denominator D = 2ab(k+1) - kc^2 never vanishes: c >= 0,
    c = a - (y-1) <= a and c = b - (x-1) <= b give c^2 <= ab, so
    D >= (k+2)ab > 0.
    """
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


def degree_pair_bound(k: int, x: int, y: int) -> Fraction:
    """The reduced-network resistance for a crossing edge with cut-graph
    degrees (x, y) in a k-regular graph."""
    _check_domain(k, x, y)
    return Fraction(*_shifted_terms(k, x, y))


def reduced_cut_network(k: int, x: int, y: int) -> WeightedNetwork:
    """The four-vertex network behind the bound.

    Vertices: U1, V1 are the chosen crossing edge's endpoints, U2 and V2
    the collapsed remainders of the two sides.  Collapsing a side adds its
    parallel pieces as conductances: 1, k-x, k-y, x-1, y-1 and c.  A zero
    conductance (x = 1, y = 1, or c = 0) is an absent edge.
    """
    _check_domain(k, x, y)
    return WeightedNetwork(4, {(U1, V1): 1, (U1, U2): k - x, (V1, V2): k - y,
                               (U1, V2): x - 1, (U2, V1): y - 1,
                               (U2, V2): k - x - y + 1},
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
    det, potential = _potentials(reduced_cut_network(k, x, y), U1, V1)
    a, b, c = k - x, k - y, k - x - y + 1
    disc, den = _shifted_terms(k, x, y)
    v_u2 = Fraction(potential[U2], potential[U1])
    v_v2 = Fraction(potential[V2], potential[U1])
    if v_u2 != Fraction(2 * a * b + c * (x - 1), disc):
        return False
    if v_v2 != Fraction(a * (2 * x + c - 2), disc):
        return False
    current = k - (a * v_u2 + (x - 1) * v_v2)
    if current != Fraction(den, disc):
        return False
    return Fraction(potential[U1], det) == Fraction(disc, den)


# ---------------------------------------------------------------------------
# The algebraic certificate
#
# In the shifted degrees X = x+1 and Y = y+1, with S = X+Y and s = k-S, the
# bound's numerator N = 4ab - c^2 and denominator D = 2ab(k+1) - kc^2
# (a = k-X, b = k-Y, c = k-S+1) satisfy the two identities of _IDENTITIES.
# With integer conductances the reduced network's nodal solve, V1 grounded,
# returns its 3x3 determinant det and U1's adjugate column P unscaled, and
# five identities in (k, x, y) tie them to N and D: det = D and P[U1] = N by
# the weighted matrix-tree theorem (Kirchhoff 1847).
#
# One evaluation proves all seven (Kronecker substitution, Kronecker 1882).
# Each side is a polynomial in (k, x, y) of total degree <= 3, so no
# variable has an exponent above 3.  The l1 norm of a product is at most the
# product of the l1 norms, so no side's l1 norm exceeds det's, 6 * 4^3 = 384:
# six products of three entries of the reduced Laplacian, each a linear form
# of l1 norm <= 4.  A difference p = sum c_abc k^a x^b y^c of two sides thus
# has every |c_abc| < 2^10.  At (k, x, y) = (B^16, B^4, B), B = 2^32, p takes
# the value sum c_abc B^(16a + 4b + c), whose exponents are distinct in
# 0..63.  Every |c_abc| < B/2, and balanced base-B digits are unique, so p
# vanishes there only if every c_abc = 0.  All six conductances are positive
# at that point, so the domain check accepts it and the network is connected.


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


_KRONECKER_POINT = (2 ** 512, 2 ** 128, 2 ** 32)  # (B^16, B^4, B), B = 2^32


def _identity_sides(k: int, x: int, y: int) -> list[tuple[str, int, int]]:
    """(statement, left side, right side) of the seven identities at
    (k, x, y), from one nodal solve of the reduced network there."""
    det, p = _potentials(reduced_cut_network(k, x, y), U1, V1)
    n, d = _shifted_terms(k, x, y)
    a, c = k - x, k - x - y + 1
    return [(s, lhs(k, x, y), rhs(k, x, y)) for s, lhs, rhs in _IDENTITIES] + [
        ("det = D", det, d), ("P[U1] = N", p[U1], n),
        ("P[U2] = 2ab + c(x-1)", p[U2], 2 * a * (k - y) + c * (x - 1)),
        ("P[V2] = a(2x + c - 2)", p[V2], a * (2 * x + c - 2)),
        ("kN - a P[U2] - (x-1) P[V2] = D", k * n - a * p[U2] - (x - 1) * p[V2], d)]


@functools.cache
def _check_identities() -> None:
    """Every identity at the Kronecker point, one nodal solve, once per
    process; a disagreement raises, so it also fires under ``python -O``."""
    for statement, left, right in _identity_sides(*_KRONECKER_POINT):
        if left != right:
            raise VerificationError(f"identity {statement} fails at the Kronecker "
                                    "point (B^16, B^4, B), B = 2^32")


def verify_reduced_network(k: int) -> bool:
    """``kirchhoff_cross_check`` holds at every pair the bound accepts at
    degree k: there the network is connected with integer conductances, so
    its nodal solve is the det and P of the identities.  O(1) per k."""
    _check_domain(k, 1, 1)  # validates k: (1, 1) is accepted at every k >= 3
    _check_identities()
    return True


def _floor_k_minus_sqrt_k(k: int) -> int:
    # floor(k - sqrt(k)) = k - ceil(sqrt(k)), computed with integer roots.
    return k - (math.isqrt(k - 1) + 1) if k >= 2 else 0


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
    return s >= 0 and s * s >= k and verify_denominator_positive(k)


def verify_denominator_positive(k: int) -> bool:
    """The shifted bound's denominator 2(k-x-1)(k-y-1)(k+1) - k(k-x-y-1)^2
    is strictly positive for all x, y >= 1 with x + y <= k - 1.

    Certified from the second identity by the sign of D at two pairs:
    O(1) per k after the once-per-process identity check.
    """
    if k < 7:
        raise ParameterError(f"positivity grid is stated for k >= 7, got {k}")
    # By the second identity, D over the pairs with X + Y = S is smallest at
    # the most unbalanced one, (2, S-2), since X, Y >= 2 gives |X-Y| <= S-4.
    # That smallest value is concave in S, so it is positive on 4 <= S <= k+1
    # iff it is positive at both ends: 2D = 2(k-1)(k^2+k-8) at (2, 2) and
    # 2D = 4(k+1)(k-2) at (2, k-1).
    _check_identities()
    return _shifted_terms(k, 2, 2)[1] > 0 and _shifted_terms(k, 2, k - 1)[1] > 0
