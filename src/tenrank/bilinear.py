"""Bilinear programs: decompositions as matrix-multiplication algorithms.

A rank-r decomposition of the <m,n,p> matrix-multiplication tensor is the
same thing as an algorithm computing the product entries with r
multiplications between linear forms of the two input matrices.  This
module makes the correspondence executable in both directions.

Every program runs through one level-batched executor: `evaluate_bilinear`
(one level on vectors), `run_bilinear_matmul` (one level on a verified
program's matrices), `strassen_multiply` (Strassen's verified 7-product
program applied recursively, exact) and `strassen_multiply_float` (the same
recursion on complex128).  A program is its decomposition, whose Legs are
converted once into sparse Gaussian-integer rows; operands are converted
to integer arrays at the boundary and back to Scalars only at the end, and
operation counts match a per-scalar evaluation exactly.  `naive_multiply` stays a per-Scalar
schoolbook product, independent of the executor, for checking it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .decomp import (
    ProductDecomposition,
    make_decomposition,
    require_witness,
    strassen7_decomposition,
)
from .errors import InputError, StateError
from .scalars import (
    ZERO,
    Leg,
    Scalar,
    _int_leg,
    gaussian_integers,
    scalar_from_json,
    scalar_to_json,
)
from .tensors import LocalOperatorTriple, Tensor3, json_ints, make_tensor


def matmul_tensor(m: int, n: int, p: int) -> Tensor3:
    """The <m,n,p> matrix multiplication tensor.

    dims are (m*n, n*p, m*p); the entry is 1 exactly where the a-index
    (i,k), b-index (k,j) and c-index (i,j) agree on k, matching the
    bilinear forms of the product entries under row-major vectorization.
    """
    if min(m, n, p) < 1:
        raise InputError("matrix dimensions must be positive")
    return make_tensor((m * n, n * p, m * p),
                       (((i * n + k, k * p + j, i * p + j), 1)
                        for i in range(m) for k in range(n) for j in range(p)))


def naive_matmul_decomposition(m: int, n: int, p: int) -> ProductDecomposition:
    """The schoolbook m*n*p-term decomposition of the <m,n,p> tensor: one
    term per elementary product a_{ik} b_{kj}."""
    if min(m, n, p) < 1:
        raise InputError("matrix dimensions must be positive")

    def unit(size, idx):
        return tuple(int(t == idx) for t in range(size))

    return make_decomposition((m * n, n * p, m * p), [
        (unit(m * n, i * n + k), unit(n * p, k * p + j), unit(m * p, i * p + j))
        for i in range(m) for k in range(n) for j in range(p)])


def matmul_power_relabeling(m: int, n: int, p: int, copies: int) -> LocalOperatorTriple:
    """Permutation triple taking the `copies`-fold Kronecker power of
    <m,n,p> onto <m^copies, n^copies, p^copies>.

    The power tensor indexes each leg by per-copy digit pairs; viewing a
    big matrix as nested blocks regroups those digits (all row digits
    before all column digits), and this triple performs exactly that
    regrouping.  Transporting the power of a base scheme through it yields
    a runnable program for the big product, e.g. the 49-term square of the
    7-multiplication scheme as a 4x4 algorithm.
    """
    if min(m, n, p, copies) < 1:
        raise InputError("dimensions and copies must be positive")

    def perm(rows_dim: int, cols_dim: int) -> Leg:
        # a big index's digits: every copy's row digit, then every column
        # digit; a power index's: each copy's (row, column) pair in turn
        big = np.arange((rows_dim * cols_dim) ** copies).reshape(
            (rows_dim,) * copies + (cols_dim,) * copies)
        order = [axis for k in range(copies) for axis in (k, copies + k)]
        return _int_leg(np.eye(big.size, dtype=np.int64)[:, big.transpose(order).ravel()])

    return LocalOperatorTriple(perm(m, n), perm(n, p), perm(m, p))


def phi3_matmul_witness() -> LocalOperatorTriple:
    """The fixed invertible relabeling taking <2,2,2> to the PHI3 state.

    The B and C legs are identities and A swaps the two middle basis
    vectors (transposing the row/column roles of Alice's index pair).
    Computed once by matching the two index patterns and locked by the
    exact equality test apply_local_operators(L, MATMUL(2,2,2)) == PHI3.
    """
    unit = np.eye(4, dtype=np.int64)
    return LocalOperatorTriple(*map(_int_leg, (unit[[0, 2, 1, 3]], unit, unit)))


# ---------------------------------------------------------------------------
# Operation accounting
# ---------------------------------------------------------------------------


@dataclass
class MulCount:
    """Instrumented operation tally.

    `nonscalar_mults` counts only products of an a-side quantity with a
    b-side quantity; multiplications by fixed constants are tallied under
    `additions` together with the actual additions/subtractions.  Counters
    are incremented as the operations execute, never from closed forms,
    and merge associatively.
    """

    nonscalar_mults: int = 0
    additions: int = 0

    def __add__(self, other):
        return MulCount(
            self.nonscalar_mults + other.nonscalar_mults,
            self.additions + other.additions,
        )


# ---------------------------------------------------------------------------
# Bilinear programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BilinearProgram:
    """The bilinear algorithm a rank-r decomposition is: r non-scalar
    products M_k = (a_k . x)(b_k . y) of the a- and b-vectors with the
    inputs, and the outputs f_l = sum_k c_k[l] M_k.

    The program reproduces the decomposition's tensor's bilinear forms
    exactly, and r is its term count.
    """

    decomposition: ProductDecomposition
    verified_matmul: tuple | None = None

    @property
    def r(self) -> int:
        return len(self.decomposition.terms)

    def dims(self) -> tuple:
        return self.decomposition.dims

    @cached_property
    def _prepared(self) -> _Prepared:
        """The a-leg, the b-leg and the transposed c-leg as sparse
        Gaussian-integer rows, built on first use."""
        a, b, c = self.decomposition.terms.legs()
        return _Prepared(_sparse_rows(a), _sparse_rows(b),
                         _sparse_rows(Leg(c.re.T, c.im.T, c.den)))


def to_bilinear(d: ProductDecomposition) -> BilinearProgram:
    """Decomposition -> program: the decomposition itself."""
    return BilinearProgram(d)


def from_bilinear(p: BilinearProgram) -> ProductDecomposition:
    """Program -> decomposition; exact inverse of to_bilinear."""
    return p.decomposition


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
#
# A matrix enters as a pair (re, im) of numpy arrays: object dtype holding
# Python ints over one common denominator on the exact path (fixed-width
# integers would wrap), float64 on the float path.  A batch of operands has
# shape (batch, rows, cols).  One level of a <m,n,p> program cuts every
# operand into its m x n (resp. n x p) block grid, applies the sparse
# coefficient rows of u and v to the whole batch at once, multiplies the r
# block pairs as a batch r times larger one level down, and recombines with
# w; below the last level one batched schoolbook product runs.  Counters
# advance by each array operation's scalar count as it runs: one addition
# per coefficient other than +-1 and one per accumulation, times the
# scalars in the batch, exactly as a per-scalar evaluation would count.


#: bound on the scalars a breadth-first batch may reach (see _product); at
#: this size an exact 32x32 product runs its top level depth-first, a float
#: 64x64 one its top two, and either keeps about 1 MB of blocks live
_LIVE_SCALARS = 1 << 13


class _Rows(NamedTuple):
    """A coefficient matrix as sparse Gaussian-integer rows over one common
    denominator: each row is ((column, re, im), ...) over its nonzero
    entries, with the operation count the row costs per scalar."""

    rows: tuple
    ops: tuple
    den: int


def _sparse_rows(leg: Leg) -> _Rows:
    den = leg.den
    rows, ops = [], []
    for row_re, row_im in zip(leg.re.tolist(), leg.im.tolist()):
        nonzero = [(j, cr, ci) for j, (cr, ci) in enumerate(zip(row_re, row_im)) if cr or ci]
        rows.append(tuple(nonzero))
        scaled = sum(ci != 0 or cr not in (den, -den) for _, cr, ci in nonzero)
        ops.append(max(len(nonzero) - 1, 0) + scaled)
    return _Rows(tuple(rows), tuple(ops), den)


class _Prepared(NamedTuple):
    u: _Rows
    v: _Rows
    w: _Rows

    @property
    def scale(self) -> int:
        """The denominator one level adds to its products."""
        return self.u.den * self.v.den * self.w.den


def _times(cr: int, ci: int, part):
    """(cr + ci i) * part for a Gaussian-integer coefficient."""
    re, im = part
    if ci == 0:
        if cr == 1:
            return re, im
        if cr == -1:
            return -re, -im
        return cr * re, cr * im
    if cr == 0:
        return -ci * im, ci * re
    return cr * re - ci * im, cr * im + ci * re


def _forms(rows: _Rows, x, count: MulCount):
    """Every linear form of `rows` applied to the block vectors x, a pair of
    (batch, d, ...) arrays; returns the (batch, len(rows), ...) pair."""
    xr, xi = x
    shape = (xr.shape[0], len(rows.rows)) + xr.shape[2:]
    out = (np.zeros(shape, dtype=xr.dtype), np.zeros(shape, dtype=xi.dtype))
    scalars = xr.shape[0] * math.prod(xr.shape[2:])
    for k, (entries, ops) in enumerate(zip(rows.rows, rows.ops)):
        acc_r, acc_i = out[0][:, k], out[1][:, k]
        for n, (j, cr, ci) in enumerate(entries):
            part = (xr[:, j], xi[:, j])
            if n and ci == 0 and cr in (1, -1):
                step = np.add if cr == 1 else np.subtract
                step(acc_r, part[0], out=acc_r)
                step(acc_i, part[1], out=acc_i)
                continue
            term_r, term_i = _times(cr, ci, part)
            if n:
                acc_r += term_r
                acc_i += term_i
            else:
                acc_r[...] = term_r
                acc_i[...] = term_i
        count.additions += ops * scalars
    return out


def _schoolbook(a, b, count: MulCount):
    """Batched schoolbook product, counted as naive_multiply counts."""
    (ar, ai), (br, bi) = a, b
    batch, s, t = ar.shape
    q = br.shape[2]
    count.nonscalar_mults += batch * s * t * q
    count.additions += batch * s * q * (t - 1)
    return ar @ br - ai @ bi, ar @ bi + ai @ br


def _split(x, rows: int, cols: int):
    """(batch, S, T) -> (batch, rows*cols, S/rows, T/cols): the block grid,
    row-major."""
    def one(c):
        batch, s, t = c.shape
        return (c.reshape(batch, rows, s // rows, cols, t // cols)
                .transpose(0, 1, 3, 2, 4)
                .reshape(batch, rows * cols, s // rows, t // cols))
    return tuple(one(c) for c in x)


def _join(x, rows: int, cols: int):
    """Inverse of _split: (batch, rows*cols, s, t) -> (batch, rows*s, cols*t)."""
    def one(c):
        batch, _, s, t = c.shape
        return (c.reshape(batch, rows, cols, s, t)
                .transpose(0, 1, 3, 2, 4)
                .reshape(batch, rows * s, cols * t))
    return tuple(one(c) for c in x)


def _level(prog: BilinearProgram, a, b, below: int, count: MulCount,
           depth_first: bool = False):
    """One program level on block vectors a (batch, dA, s, t) and
    b (batch, dB, t, q); returns the (batch, dC, s, q) output blocks.

    Breadth-first, the r products run as one batch r times larger;
    depth-first, one product at a time.
    """
    u, v, w = prog._prepared
    fa, fb = _forms(u, a, count), _forms(v, b, count)
    batch, r = fa[0].shape[:2]
    if depth_first and below:
        parts = [_product(prog, (fa[0][:, k], fa[1][:, k]), (fb[0][:, k], fb[1][:, k]),
                          below, count) for k in range(r)]
        products = tuple(np.stack([part[c] for part in parts], axis=1) for c in (0, 1))
    else:
        flat = _product(prog,
                        tuple(c.reshape((batch * r,) + c.shape[2:]) for c in fa),
                        tuple(c.reshape((batch * r,) + c.shape[2:]) for c in fb),
                        below, count)
        products = tuple(c.reshape((batch, r) + c.shape[1:]) for c in flat)
    return _forms(w, products, count)


def _product(prog: BilinearProgram, a, b, levels: int, count: MulCount):
    """Batched product of a (batch, S, T) and b (batch, T, Q) by `levels`
    levels of the verified program, then schoolbook.

    A level runs depth-first while running every level below it
    breadth-first would hold more than _LIVE_SCALARS a-side scalars at the
    leaves, so the live batch stays bounded for large operands.
    """
    if levels == 0:
        return _schoolbook(a, b, count)
    m, n, p = prog.verified_matmul
    leaves = a[0].size * (prog.r / (m * n)) ** levels
    return _join(_level(prog, _split(a, m, n), _split(b, n, p), levels - 1, count,
                        depth_first=leaves > _LIVE_SCALARS), m, p)


def _exact_arrays(matrix, padded: int | None = None):
    """Exact matrix -> ((re, im) pair of (1, R, C) object arrays of Python
    ints, common denominator), zero-padded to padded x padded if given."""
    re, im, den = gaussian_integers(v for row in matrix for v in row)
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    shape = (1, padded or rows, padded or cols)
    parts = (np.zeros(shape, dtype=object), np.zeros(shape, dtype=object))
    for part, values in zip(parts, (re, im)):
        part[0, :rows, :cols] = np.array(values, dtype=object).reshape(rows, cols)
    return parts, den


def _exact_matrix(x, den: int) -> tuple:
    """The first matrix of a (1, R, C) pair as a tuple of Scalar rows."""
    re, im = (c[0].tolist() for c in x)
    return tuple(tuple(Scalar(Fraction(a, den), Fraction(b, den)) for a, b in zip(ra, ia))
                 for ra, ia in zip(re, im))


def _exact_product(prog: BilinearProgram, x, y, levels: int, count: MulCount,
                   padded: int | None = None) -> tuple:
    """X.Y for exact matrices by `levels` levels of the verified program,
    then schoolbook; both operands are zero-padded to padded x padded when
    given and the product sliced back."""
    (a, den_a), (b, den_b) = _exact_arrays(x, padded), _exact_arrays(y, padded)
    z = _product(prog, a, b, levels, count)
    rows, cols = len(x), len(y[0]) if y else 0
    return _exact_matrix(tuple(c[:, :rows, :cols] for c in z),
                         den_a * den_b * prog._prepared.scale ** levels)


def evaluate_bilinear(p: BilinearProgram, avec, bvec,
                      count: MulCount | None = None) -> tuple:
    """Run the program on concrete vectors, counting as it goes."""
    count = count if count is not None else MulCount()
    da, db, dc = p.dims()
    if p.r and (len(avec) != da or len(bvec) != db):
        raise InputError(f"input lengths {(len(avec), len(bvec))} do not match "
                         f"the program's {(da, db)}")
    (a, den_a), (b, den_b) = _exact_arrays([avec]), _exact_arrays([bvec])
    out = _level(p, tuple(c.reshape(1, -1, 1, 1) for c in a),
                 tuple(c.reshape(1, -1, 1, 1) for c in b), 0, count)
    return _exact_matrix(tuple(c.reshape(1, 1, dc) for c in out),
                         den_a * den_b * p._prepared.scale)[0]


def verify_for_matmul(p: BilinearProgram, m: int, n: int, k: int) -> BilinearProgram:
    """Certify a program against the <m,n,k> tensor; returns a copy marked
    as verified and prepared for the executor, which run_bilinear_matmul
    requires.  A program that does not compute it raises WitnessMismatch."""
    require_witness(matmul_tensor(m, n, k), p.decomposition)
    verified = replace(p, verified_matmul=(m, n, k))
    verified._prepared  # built once here, so runs of the program never rebuild it
    return verified


def run_bilinear_matmul(p: BilinearProgram, x, y) -> tuple:
    """Execute a verified <m,n,p> program on exact matrices X (m x n) and
    Y (n x p); returns (X.Y, MulCount) with nonscalar_mults == r."""
    m = len(x)
    n = len(x[0]) if m else 0
    if any(len(row) != n for row in x):
        raise InputError("ragged left matrix")
    if len(y) != n:
        raise InputError(f"inner dimensions differ: {n} vs {len(y)}")
    k = len(y[0]) if y else 0
    if any(len(row) != k for row in y):
        raise InputError("ragged right matrix")
    if p.verified_matmul != (m, n, k):
        raise StateError(
            f"program not verified for <{m},{n},{k}> "
            f"(verified: {p.verified_matmul}); call verify_for_matmul first"
        )
    count = MulCount()
    return _exact_product(p, x, y, 1, count), count


# ---------------------------------------------------------------------------
# Recursive fast multiplication
# ---------------------------------------------------------------------------


def naive_multiply(x, y, count: MulCount | None = None) -> tuple:
    """Schoolbook product with instrumented counts (n^3 non-scalar mults).

    Runs per Scalar, independently of the executor, so it serves as the
    reference that `tenrank matmul --check` compares against.
    """
    count = count if count is not None else MulCount()
    n_inner = len(y)
    if any(len(row) != n_inner for row in x):
        raise InputError("inner dimensions differ")
    cols = list(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in cols:
            acc = None
            for xv, yv in zip(row, col):
                prod = xv * yv
                count.nonscalar_mults += 1
                if acc is None:
                    acc = prod
                else:
                    acc = acc + prod
                    count.additions += 1
            out_row.append(acc if acc is not None else ZERO)
        out.append(tuple(out_row))
    return tuple(out), count


@cache
def _strassen_program() -> BilinearProgram:
    """Strassen's 7-product <2,2,2> program, verified and prepared on first use."""
    return verify_for_matmul(to_bilinear(strassen7_decomposition()), 2, 2, 2)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _levels(size: int, cutoff: int) -> int:
    """Halvings of `size` until blocks of at most `cutoff` remain."""
    levels = 0
    while size > cutoff:
        size //= 2
        levels += 1
    return levels


def strassen_multiply(x, y, cutoff: int = 1, pad: bool = False) -> tuple:
    """Recursive 7-multiplication product of square exact matrices.

    Runs Strassen's program through the executor: blocks of size <= cutoff
    multiply by schoolbook, so cutoff 1 performs exactly 7^(log2 N)
    non-scalar multiplications.  Inputs must be square with power-of-two
    size unless pad=True, which zero-pads to the next power of two and
    slices the result back.
    """
    if cutoff < 1:
        raise InputError("cutoff must be positive")
    size = len(x)
    if any(len(row) != size for row in x) or len(y) != size \
            or any(len(row) != size for row in y):
        raise InputError("strassen_multiply needs square matrices of equal size")
    target = size
    if not _is_power_of_two(size):
        if not pad:
            raise InputError(
                f"size {size} is not a power of two; pass pad=True to zero-pad"
            )
        target = 1 << (size - 1).bit_length()
    count = MulCount()
    z = _exact_product(_strassen_program(), x, y, _levels(target, cutoff), count, target)
    return z, count


def strassen_multiply_float(x: np.ndarray, y: np.ndarray, cutoff: int = 1) -> tuple:
    """Strassen's program on complex128 matrices through the same executor
    as the exact path, with float64 real and imaginary parts in place of
    integer ones; counters are the same as the exact path's.  Rounding
    makes this a benchmark path, excluded from correctness acceptance."""
    if cutoff < 1:
        raise InputError("cutoff must be positive")
    size = x.shape[0]
    if x.shape != (size, size) or y.shape != (size, size):
        raise InputError("strassen_multiply_float needs square matrices of equal size")
    if not _is_power_of_two(size):
        raise InputError(f"size {size} is not a power of two")
    prog = _strassen_program()
    levels = _levels(size, cutoff)
    count = MulCount()
    a, b = (tuple(np.ascontiguousarray(c, dtype=np.float64)[None] for c in (m.real, m.imag))
            for m in (x, y))
    re, im = _product(prog, a, b, levels, count)
    return (re[0] + 1j * im[0]) / prog._prepared.scale ** levels, count


# ---------------------------------------------------------------------------
# Matrix JSON format
# ---------------------------------------------------------------------------
#
# {"rows": R, "cols": C, "data": [["p/q", ...], ...]}; complex entries use
# the {"re","im"} object form.  R and C are JSON integers, never coerced.


def matrix_to_json(m) -> dict:
    return {
        "rows": len(m),
        "cols": len(m[0]) if m else 0,
        "data": [[scalar_to_json(x) for x in row] for row in m],
    }


def matrix_from_json(obj: dict) -> tuple:
    try:
        rows, cols = json_ints([obj["rows"], obj["cols"]], 2, "matrix JSON rows and cols")
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
        raise InputError("matrix JSON data must be a list of rows")
    if len(data) != rows or any(len(row) != cols for row in data):
        raise InputError("matrix data does not match declared shape")
    return tuple(tuple(scalar_from_json(x) for x in row) for row in data)
