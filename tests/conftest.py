"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own elimination and
reconstruction code paths: ranks go through sympy's exact Matrix.rank,
expansions through direct index loops over Fractions.
"""

from fractions import Fraction

import sympy

from tenrank import linalg, sampling
from tenrank.scalars import Scalar, as_scalar


def to_sympy(value: Scalar):
    return sympy.Rational(value.re) + sympy.I * sympy.Rational(value.im)


def sympy_matrix(rows):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in rows])


def oracle_rank(rows) -> int:
    """Exact matrix rank via sympy elimination (independent of tenrank.linalg)."""
    m = sympy_matrix(rows)
    return m.rank()


def oracle_matmul(x, y):
    """Exact matrix product via sympy, returned as Scalar tuples."""
    product = sympy_matrix(x) * sympy_matrix(y)
    out = []
    for i in range(product.rows):
        row = []
        for j in range(product.cols):
            z = sympy.expand(product[i, j])
            re, im = z.as_real_imag()
            row.append(Scalar(Fraction(str(re)), Fraction(str(im))))
        out.append(tuple(row))
    return tuple(out)


def oracle_outer_sum(dims, terms):
    """Direct dict-based reconstruction of sum_k a_k (x) b_k (x) c_k."""
    da, db, dc = dims
    acc = {}
    for a, b, c in terms:
        for i in range(da):
            if not a[i]:
                continue
            for j in range(db):
                if not b[j]:
                    continue
                for k in range(dc):
                    if c[k]:
                        key = (i, j, k)
                        acc[key] = acc.get(key, Scalar(0)) + a[i] * b[j] * c[k]
    return {k: v for k, v in acc.items() if v}


# -- per-Scalar vector and matrix references ---------------------------------


def vector(entries):
    return tuple(as_scalar(x) for x in entries)


def zeros(rows, cols):
    return tuple((Scalar(0),) * cols for _ in range(rows))


def _dot(x, y):
    return sum((xi * yi for xi, yi in zip(x, y)), Scalar(0))


def mat_vec(m, v):
    return tuple(_dot(row, v) for row in m)


def mat_mul(a, b):
    return tuple(tuple(_dot(row, col) for col in zip(*b)) for row in a)


def kron_vec(x, y):
    """Kronecker product of vectors; the first factor is the high-order digit."""
    return tuple(xi * yi for xi in x for yi in y)


# -- seeded random inputs -------------------------------------------------------


def nonzero_vector(rng, n, **kw):
    while True:
        v = sampling.vector(rng, n, **kw)
        if any(v):
            return v


def invertible_matrix(rng, n, **kw):
    while True:
        m = sampling.matrix(rng, n, n, **kw)
        if linalg.det(m):
            return m
