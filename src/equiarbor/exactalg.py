"""Exact rational linear algebra.

All scalars are ``fractions.Fraction``; no floating point appears anywhere
in a computation path.  Determinants, solves and inverses share one
fraction-free (Bareiss 1968) elimination over Python ints: each row is
scaled by the lcm of its denominators, the first row with a nonzero entry
pivots each column, and every update divides exactly by the previous pivot,
so identical inputs always produce identical elimination traces.  Solves
and inverses, and the resistance layer's integer Laplacians, go through
:func:`integer_solve`, which checks the integer residual identity
``(D A)(det A^-1 B) == det (D B)`` before it returns ``det A^-1 B``.

Matrices are immutable; every function here is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, SingularSystemError, VerificationError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

#: Soft size limit for dense matrices; beyond desk scale is a non-goal.
SIZE_LIMIT = 512


def _check_size(size: int) -> None:
    """Refuse a matrix dimension above :data:`SIZE_LIMIT`."""
    if size > SIZE_LIMIT:
        raise DimensionError(f"matrix exceeds the {SIZE_LIMIT} soft size limit")


def format_rational(value: Rational) -> str:
    """Serialize as ``p/q``, or plain ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse ``p`` or ``p/q`` with optional leading sign; q must be > 0."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        _check_size(max(self.rows, self.cols))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rational | int]]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Rational] = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            flat.extend(Fraction(v) for v in row)
        return cls(r, c, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, tuple(
            Fraction(1) if i == j else Fraction(0)
            for i in range(n) for j in range(n)
        ))

    def entry(self, i: int, j: int) -> Rational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[Rational]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def _scaled_rows(m: RationalMatrix, rhs: Sequence[Sequence[Rational]] = ()
                 ) -> tuple[list[list[int]], list[int]]:
    """Rows of ``[m | rhs]`` as integers, each multiplied by the lcm of its
    denominators; returns the rows and the per-row scale factors."""
    rows: list[list[int]] = []
    scales: list[int] = []
    for i in range(m.rows):
        row = m.row(i) + tuple(rhs[i]) if rhs else m.row(i)
        lcm = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (lcm // v.denominator) for v in row])
        scales.append(lcm)
    return rows, scales


def _eliminate(rows: list[list[int]], jordan: bool) -> tuple[int, int, list[list[int]]]:
    """Fraction-free (Bareiss) elimination of ``[A | B]``, A square, over ints.

    Column k is pivoted on the first row at or below k with a nonzero entry
    and every other row is updated by the exact division
    ``(x * pivot - f * y) // prev`` (Sylvester's identity); solved columns
    are dropped from the rows as they go.  Forward mode updates only the
    rows below the pivot, which is all a determinant needs.  Jordan mode
    updates every other row, leaving ``det(PA) * A^-1 B`` in the returned
    rows.  Returns ``(sign of P, det(PA), rows)``; raises
    ``SingularSystemError`` when a column has no pivot.  Rows are replaced,
    never edited in place, so a shallow copy of ``rows`` keeps ``[A | B]``.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        r = next((r for r in range(k, n) if rows[r][0]), None)
        if r is None:
            raise SingularSystemError(f"no pivot in column {k}")
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            sign = -sign
        pivot, *tail = rows[k]
        for i in range(0 if jordan else k + 1, n):
            if i != k:
                f, *row = rows[i]
                rows[i] = ([(x * pivot - f * y) // prev for x, y in zip(row, tail)]
                           if f else [x * pivot // prev for x in row])
        rows[k] = tail
        prev = pivot
    return sign, prev, rows


def determinant(m: RationalMatrix) -> Rational:
    """Exact determinant via fraction-free elimination.

    Rows are scaled to integers first (tracking the scale factors), so the
    core elimination runs over arbitrary-precision integers only.
    """
    if not m.is_square:
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    rows, scales = _scaled_rows(m)
    try:
        sign, det, _ = _eliminate(rows, jordan=False)
    except SingularSystemError:
        return Fraction(0)
    return Fraction(sign * det, math.prod(scales))


def _check_residual(scaled: Sequence[list[int]], det: int,
                    det_x: Sequence[list[int]], what: str) -> None:
    """Raise ``VerificationError`` unless ``(D A) (det X) == det (D B)``,
    where ``scaled`` holds the rows of ``[D A | D B]`` before elimination
    and ``det_x`` the rows of ``det * X`` that elimination left."""
    n = len(scaled)
    for i, row in enumerate(scaled):
        residual = [-det * v for v in row[n:]]
        for a_ik, x_row in zip(row[:n], det_x):
            if a_ik:
                residual = [r + a_ik * y for r, y in zip(residual, x_row)]
        if any(residual):
            raise VerificationError(f"{what} residual check failed in row {i}")


def integer_solve(rows: Sequence[list[int]], what: str) -> tuple[int, list[list[int]]]:
    """Solve ``A X = B`` from the integer rows of ``[D A | D B]``, D any
    nonzero diagonal row scaling; the rows are left unchanged.

    Returns ``(det, det X)``, det = det(P D A) for the pivot permutation P,
    once ``(D A)(det X) == det (D B)`` holds; otherwise raises
    ``VerificationError`` naming ``what``.  Raises ``SingularSystemError``
    when A is singular.
    """
    _, det, det_x = _eliminate(list(rows), jordan=True)
    _check_residual(rows, det, det_x, what)
    return det, det_x


def solve(a: RationalMatrix, b: Sequence[Rational | int]) -> tuple[Rational, ...]:
    """Solve ``a @ x == b`` exactly.

    Pivot choice is the first row with a nonzero pivot; the integer identity
    ``(D A) (det * x) == det * (D b)``, D the row scales, is checked before
    the result is returned.
    """
    if not a.is_square:
        raise DimensionError(f"solve with a {a.rows}x{a.cols} coefficient matrix")
    n = a.rows
    if len(b) != n:
        raise DimensionError(f"rhs length {len(b)} != {n}")
    rows, _ = _scaled_rows(a, [(Fraction(v),) for v in b])
    det, det_x = integer_solve(rows, "solve")
    return tuple(Fraction(row[0], det) for row in det_x)


def invert(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse from one fraction-free Gauss-Jordan pass.

    Eliminating ``[D A | D]``, with D the diagonal row scales, leaves
    ``det * A^-1`` over the integers; the integer identity
    ``(D A) (det * A^-1) == det * D`` is checked before anything is returned.
    """
    if not m.is_square:
        raise DimensionError(f"inverse of a {m.rows}x{m.cols} matrix")
    n = m.rows
    unit = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows, _ = _scaled_rows(m, unit)
    det, det_inv = integer_solve(rows, "inverse")
    return RationalMatrix(n, n, tuple(Fraction(v, det) for row in det_inv for v in row))

