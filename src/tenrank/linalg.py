"""Exact linear algebra over Scalar matrices.

Matrices are immutable tuples of row tuples; vectors are flat tuples.
Everything here runs plain Gaussian elimination over the exact field, so
ranks, determinants and inverses carry no tolerance anywhere.
"""

from __future__ import annotations

from .errors import InputError
from .scalars import MINUS_ONE, ONE, ZERO, Scalar

Matrix = "tuple[tuple[Scalar, ...], ...]"
Vector = "tuple[Scalar, ...]"


def _echelon(rows: list) -> tuple[list, list]:
    """In-place row echelon reduction; returns (nonzero rows, pivot columns)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(m) -> int:
    rows = [list(row) for row in m]
    reduced, _ = _echelon(rows)
    return len(reduced)


def rref(m) -> tuple[tuple, tuple]:
    """Reduced row echelon form: (nonzero rows, pivot column indices)."""
    rows = [list(row) for row in m]
    reduced, pivots = _echelon(rows)
    return tuple(tuple(row) for row in reduced), tuple(pivots)


def det(m) -> Scalar:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InputError("determinant requires a square matrix")
    rows = [list(row) for row in m]
    result = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = result * MINUS_ONE
        result = result * rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result


def inverse(m) -> tuple:
    n = len(m)
    if any(len(row) != n for row in m):
        raise InputError("inverse requires a square matrix")
    rows = [list(row) + [ONE if i == j else ZERO for j in range(n)]
            for i, row in enumerate(m)]
    reduced, pivots = _echelon(rows)
    if len(reduced) < n or pivots != list(range(n)):
        raise InputError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def in_span(basis_rows, v) -> bool:
    """Exact membership of vector v in the row span of basis_rows."""
    m = list(basis_rows) + [v]
    return rank(m) == rank(basis_rows)
