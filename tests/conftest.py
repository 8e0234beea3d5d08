"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own elimination and
reconstruction code paths: ranks go through sympy's exact Matrix.rank,
expansions through direct index loops over Fractions.
"""

import math
from fractions import Fraction

import numpy as np
import sympy

from tenrank import linalg, sampling
from tenrank.bilinear import BilinearProgram
from tenrank.decomp import make_decomposition
from tenrank.errors import InputError
from tenrank.scalars import Scalar, _json_parts, _over_lcm, as_scalar
from tenrank.tensors import Tensor3, dense_dims, make_tensor


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


# -- the value-by-value JSON decoder ---------------------------------------------


def reference_gaussian_from_json(values):
    """JSON scalars as Gaussian integers (re, im, den) over their least
    common denominator, decoded value by value in order, each distinct
    string once: the decoder that `scalars.gaussian_from_json` replaced."""
    memo, decoded = {}, {}  # parts by string; whole values by JSON string
    return _over_lcm([decoded.get(obj) or decoded.setdefault(obj, _json_parts(obj, memo))
                      if type(obj) is str else _json_parts(obj, memo) for obj in values])


# -- per-Scalar vector and matrix references ---------------------------------


def conj(z: Scalar) -> Scalar:
    return Scalar(z.re, -z.im)


def abs2(z: Scalar) -> Fraction:
    """|z|^2 as an exact Fraction."""
    return z.re * z.re + z.im * z.im


def matrix(rows):
    """An immutable Scalar matrix from any nested iterable."""
    out = tuple(tuple(as_scalar(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise InputError("ragged rows in matrix")
    return out


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


# -- per-Scalar views of programs and operators ---------------------------------
#
# The package holds every exact coefficient matrix as a Leg; the references
# below read them as the rows of Scalars they stand for.


def scalar_rows(leg):
    """A Leg (an operator, or one leg of a decomposition) as rows of Scalars."""
    return tuple(tuple(Scalar(Fraction(x, leg.den), Fraction(y, leg.den))
                       for x, y in zip(row_re, row_im))
                 for row_re, row_im in zip(leg.re.tolist(), leg.im.tolist()))


def program_rows(p):
    """A bilinear program's coefficient rows (u, v, w): u (r x dA) and v
    (r x dB) hold its terms' a- and b-vectors, w (dC x r) their c-vectors
    as columns."""
    terms = tuple(p.decomposition.terms)
    return (tuple(term.a for term in terms), tuple(term.b for term in terms),
            tuple(zip(*(term.c for term in terms))))


def program_from_rows(u, v, w):
    """The bilinear program with coefficient rows u, v and w, as program_rows
    gives them."""
    dims = (len(u[0]), len(v[0]), len(w))
    return BilinearProgram(make_decomposition(
        dims, [(u[k], v[k], tuple(row[k] for row in w)) for k in range(len(u))]))


# -- per-Scalar tensor references -------------------------------------------------
#
# The Scalar loops the Gaussian-integer array code replaced, kept as the
# references it is compared against.


def tensor_sum(t1, t2):
    total = dict(t1.nonzeros())
    for index, value in t2.nonzeros():
        total[index] = total.get(index, Scalar(0)) + value
    return make_tensor(t1.dims, total)


def reference_tensor_product(t1, t2):
    da2, db2, dc2 = t2.dims
    return make_tensor(tuple(x * y for x, y in zip(t1.dims, t2.dims)), (
        ((a1 * da2 + a2, b1 * db2 + b2, c1 * dc2 + c2), v1 * v2)
        for (a1, b1, c1), v1 in t1.nonzeros() for (a2, b2, c2), v2 in t2.nonzeros()))


def reference_apply_local_operators(ops, t):
    """(A x B x C) T from the nonzeros of T and the nonzero operator columns."""
    def columns(m):
        return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(len(m[0]))]

    cols_a, cols_b, cols_c = (columns(scalar_rows(m)) for m in (ops.A, ops.B, ops.C))
    out_dims = ops.output_dims()
    _, db, dc = out_dims
    acc = [Scalar(0)] * (out_dims[0] * db * dc)
    for (a, b, c), value in t.nonzeros():
        for i, ai in cols_a[a]:
            for j, bj in cols_b[b]:
                for k, ck in cols_c[c]:
                    acc[(i * db + j) * dc + k] += value * ai * bj * ck
    return Tensor3(out_dims, acc)


def reference_reconstruct(d):
    """The dense sum of a decomposition's terms, Scalar by Scalar."""
    da, db, dc = d.dims
    acc = [Scalar(0)] * (da * db * dc)
    for term in d.terms:
        for i, ai in enumerate(term.a):
            if not ai:
                continue
            for j, bj in enumerate(term.b):
                if not bj:
                    continue
                ab = ai * bj
                base = (i * db + j) * dc
                for k, ck in enumerate(term.c):
                    if ck:
                        acc[base + k] = acc[base + k] + ab * ck
    return Tensor3(d.dims, acc)


# -- the tensordot protocol simulation ------------------------------------------


def reference_simulate(p, source=None):
    """(outcome, probability) of `slocc.simulate`, by the three np.tensordot
    calls it replaced: the default GHZ(n) source placed as leg A's result
    out[:, j, j] = A[:, j], an explicit source contracted with leg A."""
    a, b, c = p.ops
    if source is None:
        n = dense_dims(p.input_dims())[0]
        out = np.zeros((len(a), n, n), dtype=np.complex128)
        out[:, np.arange(n), np.arange(n)] = a
        norm_src = math.sqrt(n)
    else:
        src = source.to_numpy()
        out, norm_src = np.tensordot(a, src, axes=(1, 0)), float(np.linalg.norm(src))
    out = np.moveaxis(np.tensordot(b, out, axes=(1, 1)), 1, 0)
    outcome = np.moveaxis(np.tensordot(c, out, axes=(1, 2)), 0, 2)
    return outcome, float(np.linalg.norm(outcome) ** 2 / norm_src ** 2)


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
