"""Exact witnesses for the GHZ orbit by simultaneous diagonalization.

A target T in the GHZ(r) orbit has slices S_l = A diag(c_l) B^T along one
leg, with A and B invertible, so every pencil X1 - lam X0 of two
combinations of its slices is diagonalized by the same bases: its
eigenvectors give the a- and b-vectors of an r-term witness (Jennrich's
algorithm).  Floats only propose the eigenvalues: each is confirmed, and
the kernels and the witness are computed, exactly on Gaussian integers held
as (re, im) pairs of Python ints by the elimination kernel of `scalars`,
and the dense verifier judges the result.  A target whose slicing leg has
flattening rank 1 needs no pencil: its witness is read off its slices.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .decomp import ArrayTerms, ProductDecomposition, require_witness
from .errors import WitnessMismatch
from .scalars import Leg, _echelon, _gdot, _gmul, _gsub, _kernel_vector, _lowest, _over_lcm
from .tensors import Tensor3, flattening_ranks

#: the pencils' weight pairs as Vandermonde nodes (t0, t1): X0 = sum_l t0^l S_l
#: and X1 = sum_l t1^l S_l over the slices S_l
_PENCIL_NODES = ((0, 1), (1, -1), (-1, 2), (2, -3))

#: the largest denominator of an eigenvalue part read by rational
#: reconstruction, when rounding L lam fails
_RECONSTRUCTION_DEN = 1 << 24


def diagonal_witness(t: Tensor3, ranks: dict | None = None) -> ProductDecomposition | None:
    """An exact r-term witness for a target in the GHZ(r) orbit, found by
    Jennrich's simultaneous diagonalization (Harshman 1970; Leurgans, Ross &
    Abel, SIAM J. Matrix Anal. Appl. 14, 1993), or None.

    Two legs, taken as A and B, must have dimension and flattening rank r,
    the largest flattening rank (`ranks`, computed when not given); the
    third indexes the slices S_l.  When the third leg's flattening rank is
    1, the slices are u_l M with M of rank r, and the witness is read off
    them (`_rank_one_terms`).  Otherwise, for each fixed weight pair the
    pencil X1 - lam X0 is solved: floats only propose its eigenvalues, and
    as L lam lies in Z[i] for L = det X0, each is rounded there, or else
    read by rational reconstruction.  A proposal fails when its eigenvalues
    are not r distinct values or some X1 - lam X0 has a right or left
    kernel (z, y) of dimension other than one, all decided exactly; a pair
    is skipped when det X0 = 0, the floats overflow, or both proposals
    fail.  Then a = X0 z, b = X0^T y and c_l = y^T S_l z / (y^T X0 z)^2 per
    eigenvalue.
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
    if list(ranks.values())[order[2]] == 1:
        return _checked(t, order, _rank_one_terms(slices, den))
    for nodes in _PENCIL_NODES:
        x0, x1 = (_combination(slices, node) for node in nodes)
        rows, pivots = _echelon(x0)
        if len(pivots) < r:
            continue
        lead = rows[-1][-1]  # +-det X0
        for roots in _proposed_roots(x0, x1, lead):
            terms = _diagonal_terms(slices, x0, x1, lead, roots, den)
            if terms is not None:
                return _checked(t, order, terms)
    return None


def _checked(t: Tensor3, order, terms) -> ProductDecomposition | None:
    """The witness of the terms, whose vectors are in the leg order `order`,
    once it passes require_witness against t; None when it does not."""
    legs = [None] * 3
    for k, vectors in zip(order, zip(*terms)):
        legs[k] = _over_common_den(*zip(*vectors))
    try:
        return require_witness(t, ProductDecomposition(t.dims, ArrayTerms(legs)))
    except WitnessMismatch:  # for a pencil: the other slices are not diagonal
        return None


def _rank_one_terms(slices, den: int) -> list:
    """The r terms e_k (x) (row k of M) (x) u of slices S_l = u_l M, the
    slicing leg's flattening rank being 1: M is the first nonzero slice and
    u_l is read at one nonzero entry of M."""
    m, a, b = next((s, a, b) for s in slices for a, row in enumerate(s)
                   for b, x in enumerate(row) if any(x))
    u, u_den = _quotient([s[a][b] for s in slices], m[a][b])
    r = len(m)
    return [(([(int(j == k), 0) for j in range(r)], 1), (m[k], 1), (u, u_den * den))
            for k in range(r)]


def _combination(slices, node: int) -> list:
    """sum_l node^l slices[l]."""
    weights = [node ** l for l in range(len(slices))]
    return [[tuple(sum(w * s[part] for w, s in zip(weights, entries) if w) for part in (0, 1))
             for entries in zip(*rows)] for rows in zip(*slices)]


def _proposed_roots(x0, x1, lead):
    """Proposals for L lam in Z[i], L = lead, from the float eigenvalues lam
    of X0^-1 X1: first each L lam rounded, then, when that differs, each
    part of lam read as the nearest fraction with denominator at most
    _RECONSTRUCTION_DEN, provided every L lam so read lies in Z[i].  Nothing
    is proposed when the floats overflow or X0 is singular in floats."""
    try:
        f0, f1 = (np.array([[complex(*z) for z in row] for row in x], dtype=np.complex128)
                  for x in (x0, x1))
        lams = np.linalg.eigvals(np.linalg.solve(f0, f1))
    except (OverflowError, np.linalg.LinAlgError):
        return
    if not np.isfinite(lams).all():
        return
    rounded = _rounded_roots(lead, lams)
    if rounded is not None:
        yield rounded
    exact = [_gaussian_times(lead, lam) for lam in lams.tolist()]
    if None not in exact and exact != rounded:
        yield exact


def _rounded_roots(lead, lams: np.ndarray) -> list | None:
    """L lam rounded to Gaussian integers, L = lead, for the float
    eigenvalues lams; None when the products overflow."""
    try:
        scaled = complex(*lead) * lams
    except OverflowError:
        return None
    if not np.isfinite(scaled).all():
        return None
    return [(round(z.real), round(z.imag)) for z in scaled.tolist()]


def _gaussian_times(lead, lam: complex) -> tuple | None:
    """lead times lam, its parts read by rational reconstruction, as a
    Gaussian integer; None when the product is not one."""
    p, q = (Fraction(part).limit_denominator(_RECONSTRUCTION_DEN) for part in (lam.real, lam.imag))
    re, im = lead[0] * p - lead[1] * q, lead[0] * q + lead[1] * p
    if re.denominator != 1 or im.denominator != 1:
        return None
    return (re.numerator, im.numerator)


def _diagonal_terms(slices, x0, x1, lead, roots, den) -> list | None:
    """The r terms of the proposed roots g = L lam, or None unless they are
    r distinct values whose pencils L X1 - g X0 all have one-dimensional
    right and left kernels."""
    if len(set(roots)) < len(roots):
        return None
    terms = []
    for g in roots:
        pencil = [[_gsub(_gmul(lead, p), _gmul(g, q)) for p, q in zip(*pair)]
                  for pair in zip(x1, x0)]
        z, y = _kernel_vector(pencil), _kernel_vector(list(zip(*pencil)))
        if z is None or y is None:
            return None
        terms.append(_diagonal_term(slices, x0, z, y, den))
    return terms


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
