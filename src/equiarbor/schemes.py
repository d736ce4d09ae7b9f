"""Symmetric association schemes: construction, axiom verification, and
colour-class extraction.

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
check stops at the first mismatch.  On success the full intersection-number
tensor is returned; on failure the first violating tuple in scan order,
intersection counts being scanned by (i, j, class, position in the class).
Only that witness needs every ordered pair of an invalid table, so the
distance-partition builder, which needs only the verdict, never scans them.

Only symmetric schemes are supported.  Colour classes of a valid scheme are
always regular; the extractor asserts that instead of assuming it.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cuts import edge_connectivity
from .equiarboreal import check_equiarboreal
from .errors import ParameterError, VerificationError
from .graphs import Graph, require_connected

RelationTable = Sequence[Sequence[int]]


@dataclass(frozen=True)
class AssociationScheme:
    point_count: int
    class_count: int
    relation: tuple[tuple[int, ...], ...]

    def rel(self, x: int, y: int) -> int:
        return self.relation[x][y]


@dataclass(frozen=True)
class IntersectionTensor:
    """p[i][j][k]: for (x, y) in class k, the number of z with (x, z) in
    class i and (z, y) in class j."""

    class_count: int
    values: tuple[tuple[tuple[int, ...], ...], ...]

    def p(self, i: int, j: int, k: int) -> int:
        return self.values[i][j][k]


@dataclass(frozen=True)
class SchemeViolation:
    axiom: str  # "identity" | "cover" | "symmetry" | "intersection"
    details: tuple


@dataclass(frozen=True)
class SchemeCheck:
    valid: bool
    tensor: Optional[IntersectionTensor]
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

    Returns the intersection tensor on success; on failure, the first
    violation in scan order, with (i, j, x, y) details for a failed
    intersection-count constancy: the least (i, j), then the least class k,
    then the first pair (x, y) of class k in row-major order whose count of
    z with rel(x, z) = i and rel(z, y) = j differs from the count of the
    class's first pair.
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
    width = n + 1
    histogram = _pair_histograms(rel, width)
    firsts: dict = {}
    for x in range(size):
        for y in range(x, size):
            hist = histogram(x, y)
            if firsts.setdefault(rel[x][y], hist) != hist:
                return SchemeCheck(False, None, None)
    tensor = IntersectionTensor(n, tuple(
        tuple(tuple(firsts[k][i * width + j] for k in range(width))
              for j in range(width))
        for i in range(width)))
    return SchemeCheck(True, tensor, None)


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
    """All-pairs graph distances by BFS; requires a connected graph."""
    require_connected(g, "distance table")
    n = g.vertex_count
    table = [[0] * n for _ in range(n)]
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.neighbors(x):
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        table[s] = dist
    return table


def scheme_from_distance_partition(g: Graph) -> Optional[AssociationScheme]:
    """The distance partition of g as a scheme, or None when the axioms
    fail (i.e. g is not distance-regular)."""
    if not g.is_simple:
        raise ParameterError("distance partition needs a simple graph")
    table = distance_table(g)
    check = _decide_scheme(table)  # validity only: no violation is reported
    if not check.valid:
        return None
    return AssociationScheme(g.vertex_count, check.tensor.class_count,
                             tuple(map(tuple, table)))


def colour_class(s: AssociationScheme, i: int) -> Graph:
    """The simple graph on the pairs in relation i (1-based classes)."""
    if not 1 <= i <= s.class_count:
        raise ParameterError(
            f"class index {i} outside 1..{s.class_count}")
    edges = [(x, y) for x in range(s.point_count)
             for y in range(x + 1, s.point_count) if s.rel(x, y) == i]
    g = Graph(s.point_count, edges)
    if g.is_regular() is None:
        raise VerificationError(
            f"colour class {i} is not regular; the relation table cannot "
            "satisfy the scheme axioms")
    return g


@dataclass(frozen=True)
class ColourClassReport:
    class_index: int
    degree: int
    connected: bool
    equiarboreal_ok: bool
    omega: Optional[Fraction]      # common edge resistance when connected
    lambda_value: Optional[int]    # None when connectivity was skipped
    lambda_ok: Optional[bool]


@dataclass(frozen=True)
class SchemeGodsilReport:
    classes: tuple[ColourClassReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.equiarboreal_ok and c.lambda_ok is not False
                   for c in self.classes)


def _subgraph(g: Graph, vertices: frozenset[int]) -> Graph:
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    edges = [(index[u], index[v], m) for (u, v), m in g.edge_items()
             if u in vertices and v in vertices]
    return Graph(len(order), edges)


def verify_godsil_theorems(s: AssociationScheme) -> SchemeGodsilReport:
    """Per colour class: equiarboreality, and edge connectivity equal to
    the degree.

    Disconnected classes are checked for equiarboreality component by
    component and skipped for connectivity, matching the theorems'
    connectedness hypothesis.
    """
    reports = []
    for i in range(1, s.class_count + 1):
        g = colour_class(s, i)
        k = g.is_regular()
        if g.is_connected():
            verdict = check_equiarboreal(g)
            lam = edge_connectivity(g)
            reports.append(ColourClassReport(
                class_index=i, degree=k, connected=True,
                equiarboreal_ok=verdict.is_equiarboreal,
                omega=verdict.omega,
                lambda_value=lam, lambda_ok=lam == k))
        else:
            eq_ok = True
            for comp in g.components():
                sub = _subgraph(g, comp)
                if sub.edge_count == 0:
                    eq_ok = False  # an isolated vertex cannot occur in a class
                    break
                if not check_equiarboreal(sub).is_equiarboreal:
                    eq_ok = False
                    break
            reports.append(ColourClassReport(
                class_index=i, degree=k, connected=False,
                equiarboreal_ok=eq_ok, omega=None,
                lambda_value=None, lambda_ok=None))
    return SchemeGodsilReport(tuple(reports))


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
