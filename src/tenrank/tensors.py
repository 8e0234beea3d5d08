"""Dense order-3 tensors over exact scalars.

A Tensor3 stores an unnormalized tripartite state as a flat tuple in
row-major order: the A index is slowest, the C index fastest, together with
its support, the ascending flat indices of its nonzero entries, so sparse
states are read in time proportional to their nonzeros.  Kronecker
products put the first factor in the high-order digit.  Both conventions
are load-bearing for every builtin state and decomposition, so they are
fixed here and locked by golden tests.

Tensors are immutable values and all operations are pure functions; they
are safe to share freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InputError, ResourceError
from .scalars import (
    Scalar,
    ZERO,
    as_scalar,
    distinct_objects,
    gaussian_integers,
    scalar_from_json,
)

#: Hard cap on dense storage; anything larger is handled symbolically
#: through decompositions and never materialized.
ENTRY_CAP = 1 << 21

LEGS = ("A", "B", "C")


def dense_dims(dims) -> tuple[int, int, int]:
    """dims as a triple, once a dense tensor of them is allowed: InputError
    unless all three are positive, ResourceError past ENTRY_CAP entries.
    The one size check, made before any per-entry work."""
    da, db, dc = dims
    if min(da, db, dc) < 1:
        raise InputError(f"dimensions must be positive, got {dims}")
    total = da * db * dc
    if total > ENTRY_CAP:
        raise ResourceError(f"tensor with {total} entries exceeds the dense cap {ENTRY_CAP}")
    return (da, db, dc)


class Tensor3:
    """Immutable dense order-3 tensor of exact scalars.

    The support is recorded by `make_tensor` and computed on first use,
    once, for a tensor built from dense entries; equality and hashing read
    only `dims` and `entries`.
    """

    __slots__ = ("dims", "entries", "_support")

    def __init__(self, dims, entries):
        dims = dense_dims(dims)
        entries = tuple(entries)
        if len(entries) != dims[0] * dims[1] * dims[2]:
            raise InputError(
                f"entry count {len(entries)} does not match dims {dims}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    def _offset(self, a: int, b: int, c: int) -> int:
        _, db, dc = self.dims
        return (a * db + b) * dc + c

    def __getitem__(self, index) -> Scalar:
        a, b, c = index
        da, db, dc = self.dims
        if not (0 <= a < da and 0 <= b < db and 0 <= c < dc):
            raise InputError(f"index {index} out of range for dims {self.dims}")
        return self.entries[self._offset(a, b, c)]

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and self.entries == other.entries

    def __hash__(self):
        return hash((self.dims, self.entries))

    def __add__(self, other):
        if self.dims != other.dims:
            raise InputError(f"dims mismatch: {self.dims} vs {other.dims}")
        return Tensor3(self.dims, tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if self.dims != other.dims:
            raise InputError(f"dims mismatch: {self.dims} vs {other.dims}")
        return Tensor3(self.dims, tuple(x - y for x, y in zip(self.entries, other.entries)))

    @property
    def support(self) -> tuple:
        """The flat row-major indices of the nonzero entries, ascending."""
        try:
            return self._support
        except AttributeError:
            # dense constructions fill structural zeros with the shared
            # ZERO: skipping it by identity avoids Scalar.__bool__ there
            support = tuple(flat for flat, x in enumerate(self.entries)
                            if x is not ZERO and x)
            object.__setattr__(self, "_support", support)
            return support

    def is_zero(self) -> bool:
        return not self.support

    def nonzeros(self):
        """Yield ((a, b, c), value) for every nonzero entry, row-major."""
        _, db, dc = self.dims
        entries = self.entries
        for flat in self.support:
            a, rest = divmod(flat, db * dc)
            b, c = divmod(rest, dc)
            yield (a, b, c), entries[flat]

    def nnz(self) -> int:
        return len(self.support)

    def to_numpy(self) -> np.ndarray:
        entries, support = self.entries, list(self.support)
        arr = np.zeros(len(entries), dtype=np.complex128)
        try:
            arr[support] = [complex(entries[flat]) for flat in support]
        except OverflowError as exc:
            raise ResourceError(f"tensor entry exceeds the float range: {exc}") from exc
        return arr.reshape(self.dims)

    def norm_sq(self) -> Fraction:
        """Exact squared Frobenius norm: the squared Gaussian-integer
        numerators of the nonzeros, summed over one den^2."""
        entries = self.entries
        distinct, index = distinct_objects(entries[flat] for flat in self.support)
        re, im, den = gaussian_integers(distinct)
        squares = [x * x + y * y for x, y in zip(re, im)]
        return Fraction(sum(squares[k] for k in index), den * den)

    def __repr__(self):
        return f"Tensor3(dims={self.dims}, nnz={self.nnz()})"


def make_tensor(dims, entries) -> Tensor3:
    """Build a dense Tensor3 from a sparse entry list.

    `entries` is a mapping {(a, b, c): value} or an iterable of
    ((a, b, c), value) pairs; values may be Scalars, ints, Fractions or
    "p/q" strings.  Unlisted entries are zero.  Out-of-range or duplicate
    indices raise InputError.  The dims are checked before `entries` is
    read, so a lazy iterable is never consumed for a refused size.
    """
    da, db, dc = dims = dense_dims(dims)
    flat = [ZERO] * (da * db * dc)
    seen = set()
    support = []
    items = entries.items() if hasattr(entries, "items") else entries
    for index, value in items:
        a, b, c = index
        if not (0 <= a < da and 0 <= b < db and 0 <= c < dc):
            raise InputError(f"index {tuple(index)} out of range for dims {tuple(dims)}")
        if (a, b, c) in seen:
            raise InputError(f"duplicate index {(a, b, c)}")
        seen.add((a, b, c))
        offset = (a * db + b) * dc + c
        flat[offset] = value = as_scalar(value)
        if value:
            support.append(offset)
    t = Tensor3(dims, flat)
    support.sort()
    object.__setattr__(t, "_support", tuple(support))
    return t


def zero_tensor(dims) -> Tensor3:
    return make_tensor(dims, {})


def tensor_product(t1: Tensor3, t2: Tensor3) -> Tensor3:
    """Leg-wise Kronecker product: dims multiply per leg and
    (x⊗y⊗z)·(u⊗v⊗w) = (x⊗u)⊗(y⊗v)⊗(z⊗w)."""
    da1, db1, dc1 = t1.dims
    da2, db2, dc2 = t2.dims
    return make_tensor((da1 * da2, db1 * db2, dc1 * dc2), (
        ((a1 * da2 + a2, b1 * db2 + b2, c1 * dc2 + c2), v1 * v2)
        for (a1, b1, c1), v1 in t1.nonzeros() for (a2, b2, c2), v2 in t2.nonzeros()))


def flattening(t: Tensor3, leg: str) -> tuple:
    """Matrix obtained by grouping the two legs other than `leg`.

    Row index is the chosen leg; the remaining legs keep their relative
    order in the column index.
    """
    if leg not in LEGS:
        raise InputError(f"unknown leg {leg!r}, expected one of {LEGS}")
    axis = LEGS.index(leg)
    _, db, dc = dims = t.dims
    strides = (db * dc, dc, 1)
    (d1, s1), (d2, s2) = [(dims[k], strides[k]) for k in range(3) if k != axis]
    # the offsets of one row's entries, shifted by each row's first offset
    columns = [i * s1 + j * s2 for i in range(d1) for j in range(d2)]
    e = t.entries
    return tuple(tuple(e[base + offset] for offset in columns)
                 for base in range(0, dims[axis] * strides[axis], strides[axis]))


#: the prime of the modular flattening rank: p = 1 (mod 4), so -1 has the
#: square root SQRT_MINUS_ONE mod p, and p < 2^31, so the product of two
#: residues is exact in int64
PRIME = 2147483629
SQRT_MINUS_ONE = 1518275076


def _residues(t: Tensor3) -> np.ndarray:
    """t's Gaussian-integer numerators over their common denominator sent
    to F_p by i -> SQRT_MINUS_ONE, as an int64 array of shape t.dims.  Each
    distinct entry object is reduced once."""
    support = list(t.support)
    distinct, index = distinct_objects(t.entries[flat] for flat in support)
    re, im, _ = gaussian_integers(distinct)
    values = np.array([(x + SQRT_MINUS_ONE * y) % PRIME for x, y in zip(re, im)],
                      dtype=np.int64)
    out = np.zeros(len(t.entries), dtype=np.int64)
    out[support] = values[index]
    return out.reshape(t.dims)


def _rank_mod_p(m: np.ndarray) -> int:
    """Rank over F_p of an int64 matrix of residues, by row echelon
    elimination; m is overwritten."""
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nonzero = np.flatnonzero(m[rank:, c])
        if not nonzero.size:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        row = m[rank, c:] * pow(int(m[rank, c]), -1, PRIME) % PRIME
        below = m[rank + 1:, c:]
        below -= below[:, :1] * row % PRIME
        below %= PRIME
        rank += 1
    return rank


def _leg_rank(t: Tensor3, residues: np.ndarray, leg: str) -> int:
    axis = LEGS.index(leg)
    m = np.moveaxis(residues, axis, 0).reshape(t.dims[axis], -1)
    # columns along the shorter side: a rank-deficient matrix scans every column
    rank = _rank_mod_p(m.T.copy() if m.shape[1] > m.shape[0] else m.copy())
    if rank == min(m.shape):
        return rank
    return linalg.rank(flattening(t, leg))


def flattening_rank(t: Tensor3, leg: str) -> int:
    """Exact rank of the flattening along `leg`.

    Equals the rank of that subsystem's reduced density operator and is a
    lower bound for tensor rank.  The zero tensor has rank 0.  The
    flattening is ranked modulo PRIME first: reduction mod p can only lower
    a rank, so a result equal to min(rows, cols) is exact, and any other
    result is recomputed by exact elimination (`linalg.rank`).
    """
    if leg not in LEGS:
        raise InputError(f"unknown leg {leg!r}, expected one of {LEGS}")
    return _leg_rank(t, _residues(t), leg)


def flattening_ranks(t: Tensor3) -> dict:
    """{leg: flattening_rank(t, leg)} for the three legs, from one reading
    of t's entries."""
    residues = _residues(t)
    return {leg: _leg_rank(t, residues, leg) for leg in LEGS}


def max_flattening_rank(t: Tensor3) -> int:
    return max(flattening_ranks(t).values())


def support_basis(t: Tensor3) -> list:
    """A basis of the span of the c-slices of T, as dA x dB matrices.

    Computed by exact elimination on the vectorized slices; the result has
    exactly flattening_rank(T, "C") elements and spans the same space as
    the support of the two-party reduced state on legs A and B.
    """
    da, db, dc = t.dims
    rows = flattening(t, "C")
    reduced, _ = linalg.rref(rows)
    return [
        tuple(tuple(row[a * db + b] for b in range(db)) for a in range(da))
        for row in reduced
    ]


@dataclass(frozen=True)
class LocalOperatorTriple:
    """One exact matrix per leg; may be non-square (dim-changing)."""

    A: tuple
    B: tuple
    C: tuple

    def input_dims(self) -> tuple[int, int, int]:
        return (
            linalg.shape(self.A)[1],
            linalg.shape(self.B)[1],
            linalg.shape(self.C)[1],
        )

    def output_dims(self) -> tuple[int, int, int]:
        return (
            linalg.shape(self.A)[0],
            linalg.shape(self.B)[0],
            linalg.shape(self.C)[0],
        )


def identity_triple(dims) -> LocalOperatorTriple:
    da, db, dc = dims
    return LocalOperatorTriple(
        linalg.identity(da), linalg.identity(db), linalg.identity(dc)
    )


def apply_local_operators(ops: LocalOperatorTriple, t: Tensor3) -> Tensor3:
    """Contract (A ⊗ B ⊗ C) against all three legs of T, exactly.

    Iterates the nonzero entries of T against precomputed nonzero operator
    columns, so sparse states transform cheaply even under dense operators.
    """
    if ops.input_dims() != t.dims:
        raise InputError(
            f"operator input dims {ops.input_dims()} do not match tensor dims {t.dims}"
        )
    out_dims = dense_dims(ops.output_dims())

    def columns(m):
        rows, cols = linalg.shape(m)
        return [
            [(i, m[i][j]) for i in range(rows) if m[i][j]] for j in range(cols)
        ]

    cols_a, cols_b, cols_c = columns(ops.A), columns(ops.B), columns(ops.C)
    _, db_out, dc_out = out_dims
    acc = [ZERO] * (out_dims[0] * db_out * dc_out)
    for (a, b, c), value in t.nonzeros():
        for i, ai in cols_a[a]:
            vai = value * ai
            for j, bj in cols_b[b]:
                vab = vai * bj
                for k, ck in cols_c[c]:
                    idx = (i * db_out + j) * dc_out + k
                    acc[idx] = acc[idx] + vab * ck
    return Tensor3(out_dims, acc)


def contract(t: Tensor3, x, y, z) -> Scalar:
    """Exact full contraction sum_{abc} T[a,b,c] x[a] y[b] z[c]."""
    da, db, dc = t.dims
    if (len(x), len(y), len(z)) != (da, db, dc):
        raise InputError("probe vector lengths do not match tensor dims")
    acc = ZERO
    for (a, b, c), value in t.nonzeros():
        if x[a] and y[b] and z[c]:
            acc = acc + value * x[a] * y[b] * z[c]
    return acc


# -- JSON format --------------------------------------------------------------
#
# {"dims": [dA, dB, dC],
#  "entries": [{"i": [a, b, c], "re": "p/q", "im": "p/q"}, ...]}
#
# Omitted entries are zero; "im" may be omitted when zero; duplicate indices
# are an error.  Dims and indices are JSON integers: floats, booleans and
# strings are rejected rather than coerced.


def json_ints(value, count: int, what: str) -> tuple:
    """`count` JSON integers as a tuple (InputError for anything else)."""
    if (not isinstance(value, (list, tuple)) or len(value) != count
            or any(type(x) is not int for x in value)):
        raise InputError(f"{what} must be {count} integers, got {value!r}")
    return tuple(value)


def tensor_to_json(t: Tensor3) -> dict:
    entries = []
    for (a, b, c), value in t.nonzeros():
        item = {"i": [a, b, c], "re": str(value.re)}
        if value.im:
            item["im"] = str(value.im)
        entries.append(item)
    return {"dims": list(t.dims), "entries": entries}


def tensor_from_json(obj: dict) -> Tensor3:
    if not isinstance(obj, dict):
        raise InputError(f"tensor JSON must be an object, got {type(obj).__name__}")
    dims = json_ints(obj.get("dims"), 3, "tensor JSON dims")
    entries = []
    memo = {}
    try:
        for item in obj.get("entries", []):
            index = json_ints(item["i"], 3, "tensor JSON index")
            value = scalar_from_json({"re": item.get("re", "0"), "im": item.get("im", "0")},
                                     memo)
            entries.append((index, value))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed tensor JSON entry: {exc!r}") from exc
    return make_tensor(dims, entries)
