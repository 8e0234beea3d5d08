"""Seeded inputs and independently known answers for the benchmark.

Everything here is plain Python and never calls tenrank: a Gaussian
rational is an (re, im) pair of Fractions, a tensor is a dict
{(a, b, c): value} of its nonzero entries, and a decomposition is a list of
(a, b, c) vector triples.  The workloads hand these to tenrank only through
its public constructors (Scalar, make_tensor, make_decomposition) or as
JSON files, so a change to tenrank cannot change what the benchmark asks
or what it expects back.

Index conventions match the tenrank file formats: entries are row-major
with the A index slowest, and Kronecker products put the first factor in
the high-order digit.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# -- Gaussian rationals ---------------------------------------------------------


def q(re, im=0):
    return (Fraction(re), Fraction(im))


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def nonzero(x):
    return bool(x[0]) or bool(x[1])


def gauss_rational(rng, num: int, den: int):
    """Random Gaussian rational with parts p/r, |p| <= num, 1 <= r <= den."""
    return (Fraction(rng.randint(-num, num), rng.randint(1, den)),
            Fraction(rng.randint(-num, num), rng.randint(1, den)))


def nonzero_gauss_rational(rng, num: int, den: int):
    while True:
        x = gauss_rational(rng, num, den)
        if nonzero(x):
            return x


# -- exact matrices ---------------------------------------------------------------


def random_matrix(rng, n: int, num: int = 9, den: int = 2):
    """n x n Gaussian-rational matrix as rows of (re, im) pairs."""
    return [[gauss_rational(rng, num, den) for _ in range(n)] for _ in range(n)]


def schoolbook(x, y):
    """Exact product X.Y, computed over integers with one common denominator
    per operand so the reference costs a small share of the request."""
    dx = _common_den(x)
    dy = _common_den(y)
    xr = [[(int(v[0] * dx), int(v[1] * dx)) for v in row] for row in x]
    cols = list(zip(*[[(int(v[0] * dy), int(v[1] * dy)) for v in row] for row in y]))
    scale = dx * dy
    out = []
    for row in xr:
        out_row = []
        for col in cols:
            re = im = 0
            for (a, b), (c, d) in zip(row, col):
                re += a * c - b * d
                im += a * d + b * c
            out_row.append((Fraction(re, scale), Fraction(im, scale)))
        out.append(out_row)
    return out


def _common_den(m) -> int:
    return math.lcm(*(part.denominator for row in m for v in row for part in v))


def mat_vec(m, v):
    out = []
    for row in m:
        acc = ZERO
        for x, y in zip(row, v):
            if nonzero(x) and nonzero(y):
                acc = cadd(acc, cmul(x, y))
        out.append(acc)
    return tuple(out)


def invertible_operator(rng, n: int, num: int = 2, den: int = 3):
    """Dense invertible n x n operator L.U: L unit lower triangular, U upper
    triangular with nonzero diagonal, so det(L.U) != 0 by construction."""
    lower = [[ONE if i == j else (gauss_rational(rng, num, den) if j < i else ZERO)
              for j in range(n)] for i in range(n)]
    upper = [[nonzero_gauss_rational(rng, num, den) if i == j
              else (gauss_rational(rng, num, den) if j > i else ZERO)
              for j in range(n)] for i in range(n)]
    cols = list(zip(*upper))
    return [list(mat_vec([row], col)[0] for col in cols) for row in lower]


def diagonal_operator(rng, n: int, num: int = 2, den: int = 3):
    return [[nonzero_gauss_rational(rng, num, den) if i == j else ZERO for j in range(n)]
            for i in range(n)]


def signed_permutation(rng, n: int):
    """Random permutation matrix with random signs: relabels and negates
    levels, so an image keeps the sparsity and the integer entries of the
    original and costs the same to certify."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [[q(rng.choice((-1, 1))) if j == perm[i] else ZERO for j in range(n)]
            for i in range(n)]


def pair_mixing_operator(rng, n: int):
    """Invertible block-diagonal operator: dense 2x2 blocks mix levels
    (0, 1), (2, 3), ..."""
    out = [[ZERO] * n for _ in range(n)]
    for start in range(0, n, 2):
        block = invertible_operator(rng, 2)
        for i in range(2):
            for j in range(2):
                out[start + i][start + j] = block[i][j]
    return out


def kron_vec(x, y):
    return tuple(cmul(a, b) for a in x for b in y)


# -- tensors --------------------------------------------------------------------


def unit(n: int, i: int):
    return tuple(ONE if j == i else ZERO for j in range(n))


def phi3():
    """Three maximally entangled pairs shared pairwise: party A holds bits
    (s, t), B holds (s, v), C holds (t, v)."""
    return {(2 * s + t, 2 * s + v, 2 * t + v): ONE
            for s in (0, 1) for t in (0, 1) for v in (0, 1)}


def w_state():
    return {(0, 0, 1): ONE, (0, 1, 0): ONE, (1, 0, 0): ONE}


def ghz(n: int):
    return {(i, i, i): ONE for i in range(n)}


def kron_tensor(t1, dims2, t2):
    da2, db2, dc2 = dims2
    return {(a1 * da2 + a2, b1 * db2 + b2, c1 * dc2 + c2): cmul(v1, v2)
            for (a1, b1, c1), v1 in t1.items() for (a2, b2, c2), v2 in t2.items()}


def reconstruct(dims, terms):
    """Dense sum of product terms as a dict of nonzero entries."""
    acc = {}
    for a, b, c in terms:
        for i, ai in enumerate(a):
            if not nonzero(ai):
                continue
            for j, bj in enumerate(b):
                if not nonzero(bj):
                    continue
                ab = cmul(ai, bj)
                for k, ck in enumerate(c):
                    if nonzero(ck):
                        acc[(i, j, k)] = cadd(acc.get((i, j, k), ZERO), cmul(ab, ck))
    return {idx: v for idx, v in acc.items() if nonzero(v)}


def transport(ops, terms):
    """Push decomposition terms through local operators (A, B, C)."""
    a_op, b_op, c_op = ops
    return [(mat_vec(a_op, a), mat_vec(b_op, b), mat_vec(c_op, c)) for a, b, c in terms]


def image(ops, dims_out, t):
    """(A x B x C) T over the nonzero entries of T."""
    a_op, b_op, c_op = ops
    da, db, dc = dims_out
    acc = {}
    for (a, b, c), v in t.items():
        for i in range(da):
            ai = a_op[i][a]
            if not nonzero(ai):
                continue
            vai = cmul(v, ai)
            for j in range(db):
                bj = b_op[j][b]
                if not nonzero(bj):
                    continue
                vab = cmul(vai, bj)
                for k in range(dc):
                    ck = c_op[k][c]
                    if nonzero(ck):
                        acc[(i, j, k)] = cadd(acc.get((i, j, k), ZERO), cmul(vab, ck))
    return {idx: v for idx, v in acc.items() if nonzero(v)}


def kron_terms(terms1, terms2):
    return [(kron_vec(a1, a2), kron_vec(b1, b2), kron_vec(c1, c2))
            for a1, b1, c1 in terms1 for a2, b2, c2 in terms2]


def _int_terms(rows):
    return [tuple(tuple(q(x) for x in vec) for vec in row) for row in rows]


def strassen_terms():
    """Strassen's 7 products for 2x2 matrices as a decomposition of <2,2,2>:
    the a-index is 2i+k over (A11, A12, A21, A22), b is 2k+j and c is 2i+j."""
    rows = [  # M1..M7 in order
        ((1, 0, 0, 1), (1, 0, 0, 1), (1, 0, 0, 1)),
        ((0, 0, 1, 1), (1, 0, 0, 0), (0, 0, 1, -1)),
        ((1, 0, 0, 0), (0, 1, 0, -1), (0, 1, 0, 1)),
        ((0, 0, 0, 1), (-1, 0, 1, 0), (1, 0, 1, 0)),
        ((1, 1, 0, 0), (0, 0, 0, 1), (-1, 1, 0, 0)),
        ((-1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 1)),
        ((0, 1, 0, -1), (0, 0, 1, 1), (1, 0, 0, 0)),
    ]
    return _int_terms(rows)


def strassen_phi3_terms():
    """The same products as a decomposition of PHI3, which is <2,2,2> with
    the two bits of the a-index swapped."""
    swap = (0, 2, 1, 3)
    return [(tuple(a[swap[i]] for i in range(4)), b, c) for a, b, c in strassen_terms()]


def fiduccia_w2_terms():
    """Fiduccia's 8 products computing the W (x) W bilinear forms."""
    rows = [
        ((0, 0, 1, 0), (1, 1, 0, 0), (1, 1, 0, 0)),
        ((0, 1, 0, 0), (1, 0, 1, 0), (1, 0, 1, 0)),
        ((1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 1, 0)),
        ((-1, -1, -1, 1), (1, 0, 0, 0), (1, 0, 0, 0)),
        ((-1, 0, -1, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
        ((-1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0)),
        ((-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1)),
    ]
    return _int_terms(rows)


def ghz_terms(n: int):
    return [(unit(n, i), unit(n, i), unit(n, i)) for i in range(n)]


def first_mismatch_of_perturbation(term, leg: int, pos: int):
    """Row-major first index where adding a nonzero delta to coordinate
    `pos` of one leg of `term` changes the reconstruction: the lowest
    nonzero coordinate on the other two legs and `pos` on this one."""
    first = [next(i for i, x in enumerate(vec) if nonzero(x)) for vec in term]
    first[leg] = pos
    return tuple(first)


# -- three-qubit class members ---------------------------------------------------


def _independent_pair(rng, num: int = 3, balance: float = 0.0):
    """Two dense integer 2-vectors u, v with 2|det[u v]| / (|u|^2 + |v|^2)
    at least `balance` (1 for orthogonal vectors of equal length, 0 for
    parallel ones)."""
    while True:
        u = (rng.randint(-num, num), rng.randint(-num, num))
        v = (rng.randint(-num, num), rng.randint(-num, num))
        det = u[0] * v[1] - u[1] * v[0]
        if det and 0 not in u + v and \
                2 * abs(det) >= balance * (u[0] ** 2 + u[1] ** 2 + v[0] ** 2 + v[1] ** 2):
            return tuple(map(q, u)), tuple(map(q, v))


def _outer(a, b, c):
    return {(i, j, k): cmul(cmul(x, y), z)
            for i, x in enumerate(a) for j, y in enumerate(b) for k, z in enumerate(c)
            if nonzero(x) and nonzero(y) and nonzero(z)}


def _add(t1, t2):
    out = dict(t1)
    for idx, v in t2.items():
        out[idx] = cadd(out.get(idx, ZERO), v)
    return {idx: v for idx, v in out.items() if nonzero(v)}


def ghz_class(rng):
    """a1 b1 c1 + a2 b2 c2 with every vector dense and each pair far from
    parallel: a generic rank-2 state, never the builtin GHZ(2) itself, and
    kept away from the W-class boundary (the border case is its own kind)."""
    (a1, a2), (b1, b2), (c1, c2) = (_independent_pair(rng, balance=0.55) for _ in range(3))
    return _add(_outer(a1, b1, c1), _outer(a2, b2, c2))


def w_class(rng):
    """Image of W under three invertible 2x2 operators."""
    ops = [invertible_operator(rng, 2, num=2, den=2) for _ in range(3)]
    return image(ops, (2, 2, 2), w_state())


def biseparable(rng, leg: int):
    """Product of a one-party vector with a rank-2 state of the other two."""
    (x, _), (u1, u2), (v1, v2) = (_independent_pair(rng) for _ in range(3))
    rest = [(u1, v1), (u2, v2)]
    out = {}
    for u, v in rest:
        vecs = [u, v]
        vecs.insert(leg, x)
        out = _add(out, _outer(*vecs))
    return out


def product_state(rng):
    a, b, c = (_independent_pair(rng)[0] for _ in range(3))
    return _outer(a, b, c)


# -- tenrank file formats -------------------------------------------------------


def scalar_json(v):
    if not v[1]:
        return str(v[0])
    return {"re": str(v[0]), "im": str(v[1])}


def tensor_json(dims, t) -> dict:
    entries = []
    for idx in sorted(t):
        v = t[idx]
        item = {"i": list(idx), "re": str(v[0])}
        if v[1]:
            item["im"] = str(v[1])
        entries.append(item)
    return {"dims": list(dims), "entries": entries}


def decomposition_json(dims, terms) -> dict:
    return {"dims": list(dims),
            "terms": [{"a": [scalar_json(x) for x in a],
                       "b": [scalar_json(x) for x in b],
                       "c": [scalar_json(x) for x in c]} for a, b, c in terms]}
