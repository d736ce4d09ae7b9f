"""Exact rational linear algebra.

All scalars are ``fractions.Fraction``; no floating point appears anywhere
in a computation path.  Determinants, solves and inverses share one
fraction-free (Bareiss 1968) elimination over Python ints: each row is
scaled by the lcm of its denominators, the first row with a nonzero entry
pivots each column, and every update divides exactly by the previous pivot,
so identical inputs always produce identical elimination traces.
Determinants, solves and inverses, and the resistance layer's integer
Laplacians, all go through :func:`integer_solve`, which checks the integer
residual identity ``(D A)(det A^-1 B) == det (D B)`` before it returns
``det = det(D A)``, with its sign, and ``det A^-1 B``.

When ``D A`` is symmetric, as every Laplacian is, :func:`integer_solve`
first tries a pivot-free symmetric Bareiss pass: forward elimination on the
upper triangle, fraction-free back substitution, and for an inverse only the
entries with i >= j, mirrored.  A step leaves a row whose multiplier is zero
untouched, so a row holds its entries as of the step it was last touched
and is brought forward by one exact scaling when it is next needed; sparse
rows, as in a nodal solve in degree order, skip most steps.  A zero leading
minor, which only negative conductances can produce, sends it back to the
pivoted elimination from the untouched rows.  Where the symmetric pass
succeeds the pivoted one would have swapped no rows, so both give the same
``det`` and ``det A^-1 B``.

The public functions take a matrix as a sequence of rows of ``Fraction``
or int, leave it unchanged, and are pure; :func:`invert` returns rows.
Results leave as text: a rational as ``str(Fraction)``, ``p/q`` or plain
``p``, and every JSON document the command line prints through
:func:`json_text`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .errors import DimensionError, SingularSystemError, VerificationError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

#: Soft size limit for dense matrices; beyond desk scale is a non-goal.
SIZE_LIMIT = 512


def _check_size(size: int) -> None:
    """Refuse a matrix dimension above :data:`SIZE_LIMIT`."""
    if size > SIZE_LIMIT:
        raise DimensionError(f"matrix exceeds the {SIZE_LIMIT} soft size limit")


#: The writer of each leaf type.  Dispatch on the exact type keeps True and 1
#: apart, and sends a float, a ``Fraction`` or a set on to ``TypeError``.
_JSON_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): {None: "null"}.__getitem__}


def json_text(value: object, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, written directly.

    The stdlib runs its pure-Python encoder whenever ``indent`` is set; this
    writer gives the same bytes about twice as fast.  Strings and keys go
    through the same ASCII escape ``json.dumps`` uses, ints through
    ``int.__repr__``.  Any other leaf type, and a dict key that is not a
    ``str``, raises ``TypeError``; rationals reach a payload as strings.
    ``newline`` is the line break and indent of the enclosing level.
    """
    if (leaf := _JSON_LEAVES.get(type(value))) is not None:
        return leaf(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items = [leaf(v) if (leaf := _JSON_LEAVES.get(type(v))) else json_text(v, inner)
                 for v in value]
        brackets = "[]"
    elif isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + (
                     leaf(v) if (leaf := _JSON_LEAVES.get(type(v))) else json_text(v, inner))
                 for k, v in value.items()]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def parse_rational(text: str) -> Fraction:
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


def _scaled_rows(a: Sequence[Sequence[Fraction | int]],
                 rhs: Sequence[Sequence[Fraction | int]] = ()
                 ) -> tuple[list[list[int]], list[int]]:
    """Rows of ``[a | rhs]`` as integers, each multiplied by the lcm of its
    denominators, and the per-row scales.  The one check of matrix input:
    ragged, non-square or over-limit ``a`` raises ``DimensionError`` first."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionError(f"expected {n} rows of {n} entries")
    _check_size(n)
    rows: list[list[int]] = []
    scales: list[int] = []
    for i, row in enumerate(a):
        row = [Fraction(v) for v in (*row, *(rhs[i] if rhs else ()))]
        lcm = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (lcm // v.denominator) for v in row])
        scales.append(lcm)
    return rows, scales


def _eliminate(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of ``[A | B]``, A
    square, over ints.

    Column k is pivoted on the first row at or below k with a nonzero entry
    and every other row is updated by the exact division
    ``(x * pivot - f * y) // prev`` (Sylvester's identity); solved columns
    are dropped from the rows as they go.  A swap negates one of its two
    rows, which keeps both the determinant and the solution, so the rows
    end as ``det A * A^-1 B``.  Returns ``(det A, det A^-1 B)``; raises
    ``SingularSystemError`` when a column has no pivot.  Rows are replaced,
    never edited in place, so a shallow copy of ``rows`` keeps ``[A | B]``.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        r = next((r for r in range(k, n) if rows[r][0]), None)
        if r is None:
            raise SingularSystemError(f"no pivot in column {k}")
        if r != k:
            rows[k], rows[r] = rows[r], [-x for x in rows[k]]
        pivot, *tail = rows[k]
        for i in range(n):
            if i != k:
                f, *row = rows[i]
                rows[i] = ([(x * pivot - f * y) // prev for x, y in zip(row, tail)]
                           if f else [x * pivot // prev for x in row])
        rows[k] = tail
        prev = pivot
    return prev, rows


def _symmetric_eliminate(rows: Sequence[list[int]]
                         ) -> tuple[int, list[list[int]]] | None:
    """Pivot-free fraction-free elimination of ``[A | B]``, A symmetric.

    The Bareiss entry ``a[i][j]`` after k steps is the leading k x k minor
    bordered by row i and column j, so it stays symmetric: forward
    elimination keeps only the upper triangle of A, reading ``a[i][k]`` as
    ``a[k][i]``, and updates B alongside.  A step whose multiplier
    ``a[i][k]`` is zero would only rescale row i by ``pivot / prev``; those
    quotients telescope, so a row holds its entries as of the step it was
    last touched, and one exact scaling brings it forward when it next
    gets a nonzero multiplier or pivots.  Back substitution is
    fraction-free too: ``det * x`` is integral, so each row divides exactly
    by its diagonal pivot.  When B is ``s I`` its eliminated rows stay lower
    triangular and ``det A^-1 B`` is symmetric, so only the entries with
    i >= j are computed and the rest mirrored.  Returns ``(det A, det A^-1
    B)``, or None when a leading minor is zero and the diagonal cannot
    pivot.  ``rows`` is left unchanged.
    """
    n = len(rows)
    inverse = n > 0 and len(rows[0]) == 2 * n and all(
        row[n + i] == rows[0][n] and not any(row[n:n + i]) and not any(row[n + i + 1:])
        for i, row in enumerate(rows))
    scale = rows[0][n] if inverse else 0
    upper = [row[i:n] for i, row in enumerate(rows)]
    # Row i holds its entries as of step[i]; pivots[s] is the divisor of
    # step s, so ``x * pivots[k] // pivots[s]`` brings an entry from step s
    # to step k exactly.  For an inverse, row i of B holds only its columns
    # below step[i]: the columns it has not reached are zero, and a pivot
    # row's diagonal entry is ``scale * prev``.
    rhs = [[] for _ in rows] if inverse else [row[n:] for row in rows]
    step = [0] * n
    pivots = [1]
    for k in range(n):
        prev = pivots[k]
        if (s := step[k]) != k:
            old = pivots[s]
            upper[k] = [x * prev // old for x in upper[k]]
            rhs[k] = [x * prev // old for x in rhs[k]]
        pivot_row = upper[k]
        pivot = pivot_row[0]
        if not pivot:
            return None
        if inverse:
            rhs[k] += [0] * (k - s) + [scale * prev]
        b_k = rhs[k]
        for i in range(k + 1, n):
            if f := pivot_row[i - k]:
                s, b_i = step[i], rhs[i]
                if s != k:
                    old = pivots[s]
                    upper[i] = [x * prev // old for x in upper[i]]
                    b_i = [x * prev // old for x in b_i]
                if inverse:
                    b_i = b_i + [0] * (k + 1 - s)
                upper[i] = [(x * pivot - f * y) // prev
                            for x, y in zip(upper[i], pivot_row[i - k:])]
                rhs[i] = [(x * pivot - f * y) // prev for x, y in zip(b_i, b_k)]
                step[i] = k + 1
        pivots.append(pivot)
    prev = pivots[n]
    # upper[i] is now row i of the triangular factor and rhs[i] its right
    # side, both as they stood when row i pivoted.
    det_x: list[list[int]] = [[] for _ in rows]
    for i in range(n - 1, -1, -1):
        u = upper[i]
        acc = [prev * b for b in rhs[i]]
        for j in range(i + 1, n):
            c = u[j - i]
            if c:
                acc = [a - c * y for a, y in zip(acc, det_x[j])]
        det_x[i] = [a // u[0] for a in acc]
    if inverse:
        det_x = [row + [det_x[j][i] for j in range(i + 1, n)]
                 for i, row in enumerate(det_x)]
    return prev, det_x


def determinant(a: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant of the rows ``a``: ``det(D A) / det D`` from
    :func:`integer_solve` with no right-hand side, D the row scales."""
    rows, scales = _scaled_rows(a)
    try:
        det, _ = integer_solve(rows, "determinant")
    except SingularSystemError:
        return Fraction(0)
    return Fraction(det, math.prod(scales))


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

    Returns ``(det, det X)``, det = det(D A) with its sign, once
    ``(D A)(det X) == det (D B)`` holds; otherwise raises
    ``VerificationError`` naming ``what``.  Raises ``SingularSystemError``
    when A is singular.
    """
    n = len(rows)
    symmetric = all(tuple(row[:n]) == col for row, col in zip(rows, zip(*rows)))
    solved = _symmetric_eliminate(rows) if symmetric else None
    if solved is None:
        det, det_x = _eliminate(list(rows))
    else:
        det, det_x = solved
    _check_residual(rows, det, det_x, what)
    return det, det_x


def solve(a: Sequence[Sequence[Fraction | int]],
          b: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    """Solve ``a @ x == b`` exactly, ``a`` given by its rows.

    Pivot choice is the first row with a nonzero pivot; the integer identity
    ``(D A) (det * x) == det * (D b)``, D the row scales, is checked before
    the result is returned.
    """
    if len(b) != len(a):
        raise DimensionError(f"rhs length {len(b)} != {len(a)}")
    rows, _ = _scaled_rows(a, [(v,) for v in b])
    det, det_x = integer_solve(rows, "solve")
    return tuple(Fraction(row[0], det) for row in det_x)


def invert(a: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Exact inverse, as rows, from one fraction-free Gauss-Jordan pass.

    Eliminating ``[D A | D]``, with D the diagonal row scales, leaves
    ``det * A^-1`` over the integers; the integer identity
    ``(D A) (det * A^-1) == det * D`` is checked before anything is returned.
    """
    rows, scales = _scaled_rows(a)
    for i, (row, scale) in enumerate(zip(rows, scales)):
        row.extend(scale if i == j else 0 for j in range(len(rows)))
    det, det_inv = integer_solve(rows, "inverse")
    return [[Fraction(v, det) for v in row] for row in det_inv]
