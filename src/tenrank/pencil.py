"""Exact witnesses for the GHZ orbit by simultaneous diagonalization.

A target T in the GHZ(r) orbit has slices S_l = A diag(c_l) B^T along one
leg, with A and B invertible, so every pencil X1 - lam X0 of two
combinations of its slices is diagonalized by the same bases: its
eigenvectors give the a- and b-vectors of an r-term witness (Jennrich's
algorithm).  Floats only propose the eigenvalues: each is confirmed, and
the kernels and the witness are computed, exactly on Gaussian integers held
as (re, im) pairs of Python ints (matrices as lists of rows of them), and
the dense verifier judges the result.
"""

from __future__ import annotations

import math

import numpy as np

from .decomp import ArrayTerms, ProductDecomposition, require_witness
from .errors import WitnessMismatch
from .scalars import Leg, _lowest, _over_lcm
from .tensors import Tensor3, flattening_ranks

#: the pencils' weight pairs as Vandermonde nodes (t0, t1): X0 = sum_l t0^l S_l
#: and X1 = sum_l t1^l S_l over the slices S_l
_PENCIL_NODES = ((0, 1), (1, -1), (-1, 2), (2, -3))


def diagonal_witness(t: Tensor3, ranks: dict | None = None) -> ProductDecomposition | None:
    """An exact r-term witness for a target in the GHZ(r) orbit, found by
    Jennrich's simultaneous diagonalization (Harshman 1970; Leurgans, Ross &
    Abel, SIAM J. Matrix Anal. Appl. 14, 1993), or None.

    Two legs, taken as A and B, must have dimension and flattening rank r,
    the largest flattening rank (`ranks`, computed when not given); the
    third indexes the slices S_l.  For each fixed weight pair the pencil
    X1 - lam X0 is solved: floats only propose its eigenvalues, and as L lam
    lies in Z[i] for L = det X0, each is rounded there.  A pair is skipped
    when det X0 = 0, the rounded eigenvalues are not r distinct values, the
    floats overflow, or some X1 - lam X0 has a right or left kernel (z, y)
    of dimension other than one, all decided exactly.  Then
    a = X0 z, b = X0^T y and c_l = y^T S_l z / (y^T X0 z)^2 per eigenvalue.
    The witness passes require_witness before it is returned; None never
    means that no r-term witness exists.
    """
    ranks = ranks or flattening_ranks(t)
    r = max(ranks.values())
    square = [k for k, (dim, rank) in enumerate(zip(t.dims, ranks.values())) if dim == rank == r]
    if len(square) < 2:
        return None
    order = (*square[:2], 3 - square[0] - square[1])
    re, im, den = t.values
    slices = [[[(0, 0)] * r for _ in range(r)] for _ in range(t.dims[order[2]])]
    index = np.unravel_index(t.support, t.dims)
    for a, b, l, x, y in zip(*(index[k].tolist() for k in order), re.tolist(), im.tolist()):
        slices[l][a][b] = (x, y)
    for nodes in _PENCIL_NODES:
        x0, x1 = (_combination(slices, node) for node in nodes)
        rows, pivots = _echelon(x0)
        if len(pivots) < r:
            continue
        lead = rows[-1][-1]  # +-det X0
        roots = _rounded_roots(x0, x1, lead)
        if roots is None or len(set(roots)) < r:
            continue
        terms = []
        for g in roots:
            pencil = [[_gsub(_gmul(lead, p), _gmul(g, q)) for p, q in zip(*pair)]
                      for pair in zip(x1, x0)]
            z, y = _kernel_vector(pencil), _kernel_vector(list(zip(*pencil)))
            if z is None or y is None:
                break
            terms.append(_diagonal_term(slices, x0, z, y, den))
        else:
            legs = [None] * 3
            for k, vectors in zip(order, zip(*terms)):
                legs[k] = _over_common_den(*zip(*vectors))
            try:
                return require_witness(t, ProductDecomposition(t.dims, ArrayTerms(legs)))
            except WitnessMismatch:  # the other slices are not diagonal: rank above r
                return None
    return None


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _gdiv(x, p):
    """x / p for Gaussian integers p dividing x."""
    (re, im), norm = _gmul(x, (p[0], -p[1])), p[0] ** 2 + p[1] ** 2
    return (re // norm, im // norm)


def _gdot(xs, ys):
    """sum_k xs[k] ys[k] over Gaussian integers."""
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return (re, im)


def _combination(slices, node: int) -> list:
    """sum_l node^l slices[l]."""
    weights = [node ** l for l in range(len(slices))]
    return [[tuple(sum(w * s[part] for w, s in zip(weights, entries) if w) for part in (0, 1))
             for entries in zip(*rows)] for rows in zip(*slices)]


def _echelon(m) -> tuple[list, list]:
    """Fraction-free (Bareiss) row echelon form of a Gaussian-integer
    matrix: its nonzero rows and their pivot columns.  Every entry is a
    minor of m (Sylvester's identity), so each division by the previous
    pivot is exact in Z[i], and a nonsingular square m ends in the pivot
    +-det m."""
    rows, pivots, prev = [list(row) for row in m], [], (1, 0)
    for c in range(len(rows[0])):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][c] != (0, 0)), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][c]
        for i in range(k + 1, len(rows)):
            factor = rows[i][c]
            rows[i] = [_gdiv(_gsub(_gmul(pivot, x), _gmul(factor, y)), prev)
                       for x, y in zip(rows[i], rows[k])]
        prev = pivot
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _kernel_vector(m) -> list | None:
    """A vector spanning the right kernel of the Gaussian-integer matrix m,
    with coprime parts, when that kernel has dimension one; None otherwise."""
    rows, pivots = _echelon(m)
    n = len(m[0])
    if len(pivots) != n - 1:
        return None
    x = [(0, 0)] * n
    x[min(set(range(n)) - set(pivots))] = (1, 0)
    # back substitution: scale x by each pivot, then solve that row's unknown
    for row, c in zip(reversed(rows), reversed(pivots)):
        s = _gdot(row[c + 1:], x[c + 1:])
        x = [_gmul(row[c], v) for v in x]
        x[c] = (-s[0], -s[1])
        g = math.gcd(*(part for v in x for part in v))
        x = [(v[0] // g, v[1] // g) for v in x]
    return x


def _rounded_roots(x0, x1, lead) -> list | None:
    """L lam rounded to Gaussian integers, L = lead, for the float
    eigenvalues lam of X0^-1 X1; None when the floats overflow or X0 is
    singular in floats."""
    try:
        f0, f1 = (np.array([[complex(*z) for z in row] for row in x], dtype=np.complex128)
                  for x in (x0, x1))
        scaled = complex(*lead) * np.linalg.eigvals(np.linalg.solve(f0, f1))
    except (OverflowError, np.linalg.LinAlgError):
        return None
    if not np.isfinite(scaled).all():
        return None
    return [(round(z.real), round(z.imag)) for z in scaled.tolist()]


def _diagonal_term(slices, x0, z, y, den: int) -> tuple:
    """The term of the eigenvalue with right and left kernel vectors z and
    y, each vector as (Gaussian-integer numerators, positive denominator):
    a = X0 z and b = X0^T y scaled so that their first nonzero entries are 1,
    and c_l = y^T S_l z / (y^T X0 z)^2 times both scales over den, the
    slices' denominator."""
    a, b = [_gdot(row, z) for row in x0], [_gdot(col, y) for col in zip(*x0)]
    pa, pb = (next(filter(any, v)) for v in (a, b))
    delta = _gdot(y, a)  # nonzero: the eigenvalue is simple
    scale = _gmul(pa, pb)
    c, c_den = _quotient([_gmul(scale, _gdot(y, [_gdot(row, z) for row in s])) for s in slices],
                         _gmul(delta, delta))
    return _quotient(a, pa), _quotient(b, pb), (c, c_den * den)


def _quotient(v, p) -> tuple:
    """The Gaussian integers v divided by p, as (numerators, N(p))."""
    return [_gmul(x, (p[0], -p[1])) for x in v], p[0] ** 2 + p[1] ** 2


def _over_common_den(rows, dens) -> Leg:
    """Rows of Gaussian integers, row k over dens[k], as one Leg in lowest
    terms."""
    re, im, den = _over_lcm([(x, d, y, d) for row, d in zip(rows, dens) for x, y in row])
    return _lowest(*(np.array(part, dtype=object).reshape(len(rows), -1) for part in (re, im)),
                   den)
