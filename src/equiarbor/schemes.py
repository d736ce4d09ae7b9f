"""Symmetric association schemes: construction from ``Graph.distances``
rows, axiom verification, and colour-class extraction.

A scheme is stored as a total relation table mapping ordered point pairs to
class indices 0..n, class 0 being the identity relation.  Verification
checks the four axioms exhaustively: identity class, cover (every class
attained), symmetry, and constancy of the intersection counts.  The last
reads a pair's histogram of (rel(x, z), rel(z, y)) over z, |R_i(x) &
R_j(y)| being entry (x, y) of A_i A_j (Bose-Mesner), and compares it with
the histogram of the first pair of the same class.  A histogram costs
O(min((n+1)^2, size)): (n+1)^2 popcounts of one bitmask per (point, class)
when that is at most the point count, else one count over the points (a
long cycle or path has one class per distance).  The pairs with x <= y
decide validity (the histogram of (y, x) is the transpose, and the comment
in ``_decide_scheme`` shows why the transposes then agree too), and the
check stops at the first mismatch.  On success the scheme is returned; on
failure the first violating tuple in scan order, intersection counts being
scanned by (i, j, class, position in the class).
Only that witness needs every ordered pair of an invalid table, so the
distance-partition builder, which needs only the verdict, never scans them.

Only symmetric schemes are supported.  Colour classes of a valid scheme are
always nonempty and regular; the extractor asserts that instead of assuming
it.  Each class's edge resistance is one (d+1) x (d+1) integer solve in the
Bose-Mesner algebra, so classes >= 2 are verified by exact computation in
that algebra, not by an independent Laplacian inverse; only class 1 is
inverted too, as a cross-check.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import exactalg
from .cuts import edge_connectivity
from .equiarboreal import check_equiarboreal
from .errors import ParameterError, SingularSystemError, VerificationError
from .graphs import Graph, require_connected

RelationTable = Sequence[Sequence[int]]
SCHEME_CLASS_LIMIT = 64  # a scheme's intersection numbers grow as classes cubed


@dataclass(frozen=True)
class AssociationScheme:
    """A relation table that satisfies the scheme axioms.  Its intersection
    numbers are counted from it: ``intersections[i][j][k]`` is, for (x, y)
    in class k, the number of z with (x, z) in class i and (z, y) in class
    j, counted at the first pair (0, y) of class k."""

    relation: tuple[tuple[int, ...], ...]

    @property
    def point_count(self) -> int:
        return len(self.relation)

    @property
    def class_count(self) -> int:
        return max(self.relation[0])

    @functools.cached_property
    def intersections(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        width = self.class_count + 1
        first = self.relation[0]
        counts = [Counter(zip(first, self.relation[first.index(k)])) for k in range(width)]
        return tuple(tuple(tuple(c[i, j] for c in counts) for j in range(width))
                     for i in range(width))

    def rel(self, x: int, y: int) -> int:
        return self.relation[x][y]


@dataclass(frozen=True)
class SchemeViolation:
    axiom: str  # "identity" | "cover" | "symmetry" | "intersection"
    details: tuple


@dataclass(frozen=True)
class SchemeCheck:
    valid: bool
    scheme: Optional[AssociationScheme]
    violation: Optional[SchemeViolation]


def _validate_table(rel: RelationTable) -> tuple[int, int]:
    size = len(rel)
    if size == 0:
        raise ParameterError("empty relation table")
    classes = 0
    for x in range(size):
        if len(rel[x]) != size:
            raise ParameterError(f"row {x} has length {len(rel[x])} != {size}")
        for y in range(size):
            v = rel[x][y]
            if v < 0:
                raise ParameterError(f"negative class index at ({x}, {y})")
            classes = max(classes, v)
    return size, classes


def verify_scheme(rel: RelationTable) -> SchemeCheck:
    """Check the scheme axioms exhaustively.

    Returns the scheme on success; on failure, the first violation in scan
    order, with (i, j, x, y) details for a failed intersection-count
    constancy: the least (i, j), then the least class k, then the first
    pair (x, y) of class k in row-major order whose count of z with
    rel(x, z) = i and rel(z, y) = j differs from the count of the class's
    first pair.
    """
    check = _decide_scheme(rel)
    if check.valid or check.violation is not None:
        return check
    return SchemeCheck(False, None, _intersection_witness(rel))


def _decide_scheme(rel: RelationTable) -> SchemeCheck:
    """``verify_scheme`` up to its first failure.  A failed
    intersection-count constancy comes back with no violation: finding the
    least one means scanning every ordered pair, which a caller that needs
    only validity does not pay for."""
    size, n = _validate_table(rel)

    for x in range(size):
        if rel[x][x] != 0:
            return SchemeCheck(False, None,
                               SchemeViolation("identity", (x, x, rel[x][x])))
        for y in range(size):
            if x != y and rel[x][y] == 0:
                return SchemeCheck(False, None,
                                   SchemeViolation("identity", (x, y, 0)))

    attained = {rel[x][y] for x in range(size) for y in range(size)}
    for cls in range(n + 1):
        if cls not in attained:
            return SchemeCheck(False, None, SchemeViolation("cover", (cls,)))

    for x in range(size):
        for y in range(x + 1, size):
            if rel[x][y] != rel[y][x]:
                return SchemeCheck(False, None,
                                   SchemeViolation("symmetry", (x, y)))

    # Intersection numbers: entry (i, j) of a pair's histogram is
    # |R_i(x) & R_j(y)|, entry (x, y) of A_i A_j (Bose-Mesner); the table is
    # symmetric, so column y is row y.
    # The histogram of (y, x) is the transpose of that of (x, y), so the
    # pairs with x <= y decide validity: when each class k has one histogram
    # H_k over them, counting triangles through the first point gives
    # v_k H_k[i][j] = v_i H_i[k][j] and through the last point
    # v_k H_k[i][j] = v_j H_j[i][k], with the valencies v read off the
    # common diagonal H_0.  v_k H_k[i][j] is then symmetric in i, j and k,
    # so every H_k equals its transpose and so does every pair with x > y.
    histogram = _pair_histograms(rel, n + 1)
    firsts: dict = {}
    for x in range(size):
        for y in range(x, size):
            hist = histogram(x, y)
            if firsts.setdefault(rel[x][y], hist) != hist:
                return SchemeCheck(False, None, None)
    return SchemeCheck(True, AssociationScheme(tuple(map(tuple, rel))), None)


def _intersection_witness(rel: RelationTable) -> SchemeViolation:
    """The least intersection-count violation of a table that passed the
    identity, cover and symmetry checks but not constancy.  It is scanned
    in full, in row-major order: each pair is compared with the first pair
    of its class, and the least mismatch by (i, j, class, position in the
    class) is reported."""
    size = len(rel)
    width = 1 + max(map(max, rel))
    histogram = _pair_histograms(rel, width)
    firsts: dict = {}
    seen = [0] * width
    least: Optional[tuple[int, int, int, int, int, int]] = None
    for x in range(size):
        for y in range(size):
            k = rel[x][y]
            hist = histogram(x, y)
            position = seen[k]
            seen[k] += 1
            first = firsts.setdefault(k, hist)
            if hist != first:
                found = (*divmod(_first_difference(hist, first), width),
                         k, position, x, y)
                if least is None or found < least:
                    least = found
    i, j, _, _, x, y = least
    return SchemeViolation("intersection", (i, j, x, y))


def _pair_histograms(rel: RelationTable, width: int):
    """The counts of z by (rel(x, z), rel(y, z)), keyed by i * width + j, as
    a function of the pair (x, y), at O(min(width^2, size)) per pair.

    With width^2 <= size a histogram is the dense list of the width^2
    popcounts |R_i(x) & R_j(y)| of one bitmask per (point, class); with
    more classes (a long cycle or path, whose classes are its distances) it
    counts the size keys of the pair into a sparse ``_SparseHistogram``, in
    which an absent key counts 0.  One table uses only one of the two.
    """
    size = len(rel)
    if width * width <= size:
        masks = [[0] * width for _ in range(size)]
        for x, row in enumerate(rel):
            for z, k in enumerate(row):
                masks[x][k] |= 1 << z
        return lambda x, y: _popcount_histogram(masks[x], masks[y])
    scaled = [[k * width for k in row] for row in rel]
    return lambda x, y: _SparseHistogram(map(operator.add, scaled[x], rel[y]))


def _popcount_histogram(masks_x: Sequence[int], masks_y: Sequence[int]) -> list[int]:
    return [(a & b).bit_count() for a in masks_x for b in masks_y]


class _SparseHistogram(Counter):
    """Counts by key; an absent key counts 0.  Counting stores no zero
    count, so plain dict equality, which runs in C, is exact."""

    __eq__ = dict.__eq__
    __ne__ = dict.__ne__


def _first_difference(hist, first) -> int:
    """The least key at which two histograms of one table differ."""
    keys = hist.keys() | first.keys() if isinstance(hist, dict) else range(len(hist))
    return min(ij for ij in keys if hist[ij] != first[ij])


def distance_table(g: Graph) -> list[list[int]]:
    """All-pairs ``Graph.distances`` rows; requires a connected graph."""
    require_connected(g, "distance table")
    return [g.distances(s) for s in range(g.vertex_count)]


def scheme_from_distance_partition(g: Graph) -> Optional[AssociationScheme]:
    """The distance partition of g as a scheme, or None when the axioms
    fail (i.e. g is not distance-regular)."""
    if not g.is_simple:
        raise ParameterError("distance partition needs a simple graph")
    return _decide_scheme(distance_table(g)).scheme  # validity only: no witness scan


def colour_class(s: AssociationScheme, i: int) -> Graph:
    """The simple graph on the pairs in relation i (1-based classes)."""
    if not 1 <= i <= s.class_count:
        raise ParameterError(
            f"class index {i} outside 1..{s.class_count}")
    edges = [(x, y) for x, row in enumerate(s.relation)
             for y in range(x + 1, len(row)) if row[y] == i]
    g = Graph(s.point_count, edges)
    if not g.is_regular():
        raise VerificationError(
            f"colour class {i} is empty or not regular; the relation table "
            "cannot satisfy the scheme axioms")
    return g


@dataclass(frozen=True)
class ColourClassReport:
    class_index: int
    degree: int
    connected: bool
    omega: Optional[Fraction]      # common edge resistance when connected
    lambda_value: Optional[int]    # None when connectivity was skipped


@dataclass(frozen=True)
class SchemeGodsilReport:
    classes: tuple[ColourClassReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.lambda_value in (None, c.degree) for c in self.classes)


def _subgraph(g: Graph, vertices: frozenset[int]) -> Graph:
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    edges = [(index[u], index[v], m) for (u, v), m in g.edge_items()
             if u in vertices and v in vertices]
    return Graph(len(order), edges)


def verify_godsil_theorems(s: AssociationScheme) -> SchemeGodsilReport:
    """Per colour class: equiarboreality, and edge connectivity equal to
    the degree, the latter for connected classes only, matching the
    theorems' connectedness hypothesis.

    Edge resistances come from the Bose-Mesner algebra, so classes >= 2 are
    verified by exact computation in the algebra, not by an inverse of
    their own.  Each class must pass Foster's identity on components of
    equal size, and class 1 must agree with a direct check (whole when
    connected, else the component of point 0); a failure raises
    ``VerificationError``.  The intersection numbers are counted from the
    relation, and that the relation satisfies the axioms stays the caller's
    precondition.
    """
    reports = []
    for i in range(1, s.class_count + 1):
        g = colour_class(s, i)
        comps = g.components()
        zero = next(c for c in comps if 0 in c)
        size, degree, connected = len(zero), g.is_regular(), len(comps) == 1
        if any(len(c) != size for c in comps):
            raise VerificationError(f"colour class {i} has components of unequal size")
        omega = _class_resistance(s, i, {s.rel(0, y) for y in zero})
        if omega * size * degree != 2 * (size - 1):
            raise VerificationError(f"colour class {i}: resistance {omega} fails Foster's identity")
        if i == 1:  # a connected class as it stands, so a memoized verdict is reused
            verdict = check_equiarboreal(g if connected else _subgraph(g, zero))
            if verdict.omega != omega:
                raise VerificationError(
                    f"colour class 1: the algebra gives {omega}, the Laplacian {verdict.omega}")
            omega = verdict.omega
        reports.append(ColourClassReport(
            class_index=i, degree=degree, connected=connected,
            omega=omega if connected else None,
            lambda_value=edge_connectivity(g) if connected else None))
    return SchemeGodsilReport(tuple(reports))


def _class_resistance(s: AssociationScheme, i: int, within: set[int]) -> Fraction:
    """The resistance across every edge of colour class i (Godsil 1981).

    F = sum of A_l over the classes l ``within`` the class-i component of
    point 0 is the all-ones matrix on each component, so (L_i + F)^-1 =
    sum_j x_j A_j lies in the algebra and an edge of class i has resistance
    2 (x_0 - x_i).  The coefficient of A_c in (L_i + F) A_j is
    k_i [j = c] - p_ij^c + sum_l p_lj^c, with k_j = p_jj^0.  Row c is
    scaled by k_c, which makes the system symmetric (k_c p_ij^c =
    k_j p_ic^j) and positive definite, so ``integer_solve`` takes its
    pivot-free pass.
    """
    p = s.intersections
    valency = [p[j][j][0] for j in range(len(p))]
    fill = [list(map(sum, zip(*(p[l][j] for l in within)))) for j in range(len(p))]
    rows = [[k * (fill[j][c] - p[i][j][c] + (valency[i] if j == c else 0))
             for j in range(len(p))] + [int(c == 0)] for c, k in enumerate(valency)]
    try:
        det, x = exactalg.integer_solve(rows, f"colour class {i} resistance")
    except SingularSystemError as exc:
        raise VerificationError(f"colour class {i}: singular Bose-Mesner system") from exc
    return Fraction(2 * (x[0][0] - x[i][0]), det)


# ---------------------------------------------------------------------------
# Text format: header "pointCount classCount", then one line per point with
# the upper-triangular relation values rel(i, i), rel(i, i+1), ...


def _scheme_ints(line: str) -> list[int]:
    try:
        return [int(t) for t in line.split()]
    except ValueError as exc:
        raise ParameterError(f"non-integer entry in scheme line {line!r}") from exc


def parse_scheme_table(text: str) -> list[list[int]]:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParameterError("empty scheme input")
    if len(lines[0].split()) != 2:
        raise ParameterError(f"bad scheme header {lines[0]!r}")
    size, n = _scheme_ints(lines[0])
    if size < 1:
        raise ParameterError(f"scheme header declares {size} points")
    if len(lines) - 1 != size:
        raise ParameterError(f"expected {size} rows, found {len(lines) - 1}")
    table = [[0] * size for _ in range(size)]
    for i in range(size):
        row = _scheme_ints(lines[1 + i])
        if len(row) != size - i:
            raise ParameterError(
                f"row {i} should list {size - i} upper-triangular entries")
        for offset, v in enumerate(row):
            table[i][i + offset] = v
            table[i + offset][i] = v
    declared_max = max(max(row) for row in table)
    if declared_max != n:
        raise ParameterError(
            f"header declares {n} classes but the table uses {declared_max}")
    return table


def format_scheme_table(s: AssociationScheme) -> str:
    lines = [f"{s.point_count} {s.class_count}"]
    for i in range(s.point_count):
        lines.append(" ".join(str(s.rel(i, j))
                              for j in range(i, s.point_count)))
    return "\n".join(lines) + "\n"
