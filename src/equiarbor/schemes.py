"""Symmetric association schemes: construction, axiom verification, and
colour-class extraction.

A scheme is stored as a total relation table mapping ordered point pairs to
class indices 0..n, class 0 being the identity relation.  Verification
checks the four axioms exhaustively: identity class, cover (every class
attained), symmetry, and constancy of the intersection counts.  The last
takes one histogram of (rel(x, z), rel(z, y)) over z per ordered pair
(x, y), O(n^3) in all, and compares it with the histogram of the first pair
of the same class.  On success the full intersection-number tensor is
returned; on failure the first violating tuple in scan order, intersection
counts being scanned by (i, j, class, position in the class).

Only symmetric schemes are supported.  Colour classes of a valid scheme are
always regular; the extractor asserts that instead of assuming it.
"""

from __future__ import annotations

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

    # Intersection numbers: the histogram of (rel(x, z), rel(z, y)) over z
    # must be the same for every pair (x, y) of a class.  The table is
    # symmetric by now, so column y is row y.  Each pair is compared with
    # the first pair of its class, and the least mismatch by (i, j, class,
    # position in the class) is reported.
    firsts: list[Counter] = [Counter() for _ in range(n + 1)]
    seen = [0] * (n + 1)
    least: Optional[tuple[int, int, int, int, int, int]] = None
    for x in range(size):
        for y in range(size):
            k = rel[x][y]
            hist = Counter(zip(rel[x], rel[y]))
            position = seen[k]
            seen[k] += 1
            if position == 0:
                firsts[k] = hist
            elif hist != firsts[k]:
                first = firsts[k]
                i, j = min(ij for ij in hist.keys() | first.keys()
                           if hist[ij] != first[ij])
                found = (i, j, k, position, x, y)
                if least is None or found < least:
                    least = found
    if least is not None:
        i, j, _, _, x, y = least
        return SchemeCheck(False, None,
                           SchemeViolation("intersection", (i, j, x, y)))

    tensor = IntersectionTensor(n, tuple(
        tuple(tuple(firsts[k][i, j] for k in range(n + 1)) for j in range(n + 1))
        for i in range(n + 1)))
    return SchemeCheck(True, tensor, None)


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
    check = verify_scheme(table)
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
