"""Order-3 tensors over exact scalars.

A Tensor3 stores an unnormalized tripartite state sparsely: its dims, its
support (the ascending row-major flat indices of its nonzero entries, the
A index slowest and the C index fastest) and the nonzero values as one
`Leg` of Gaussian-integer numerators over their least common denominator.
Every exact reader works on these integers, in time proportional to the
nonzeros; Scalars are built only when entries are read one by one.
Kronecker products put the first factor in the high-order digit.  Both
conventions are load-bearing for every builtin state and decomposition,
so they are fixed here and locked by golden tests.

Tensors are immutable values and all operations are pure functions; they
are safe to share freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceError
from .scalars import (
    ZERO,
    Leg,
    Scalar,
    _echelon,
    _floats,
    _int_dtype,
    _int_leg,
    _lowest,
    _mapped,
    _max_abs,
    _to_leg,
    as_scalar,
    from_gaussian,
    gaussian_from_json,
    ratio_text,
)

#: Hard cap on a tensor's entry count, zeros included (the product of its
#: dims); anything larger is handled symbolically through decompositions.
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
    """Immutable order-3 tensor of exact scalars, held as `dims`, the int64
    array `support` of the ascending flat indices of its nonzero entries
    and the Leg `values` of their numerators, in lowest terms.

    `Tensor3(dims, entries)` builds one from the dense row-major sequence
    of all entries; `entries`, indexing and `nonzeros` build Scalars on
    access.  Equality and hashing read the canonical arrays and compare
    values.
    """

    __slots__ = ("dims", "support", "values")

    def __init__(self, dims, entries):
        dims = dense_dims(dims)
        entries = tuple(entries)
        if len(entries) != math.prod(dims):
            raise InputError(f"entry count {len(entries)} does not match dims {dims}")
        entries = list(map(as_scalar, entries))
        support = [flat for flat, x in enumerate(entries) if x]
        self._set(dims, support, _to_leg([entries[flat] for flat in support], len(support)))

    def _set(self, dims, support, values: Leg):
        support = np.asarray(support, dtype=np.int64)
        for array in (support, values.re, values.im):
            array.flags.writeable = False
        for name, value in zip(self.__slots__, (dims, support, values)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_numerators(cls, dims, support, re, im, den) -> "Tensor3":
        """The tensor with entries (re + im i) / den at the distinct flat
        indices `support`, zeros dropped and the rest in lowest terms."""
        support, re, im = (np.asarray(x) for x in (support, re, im))
        keep = np.flatnonzero((re != 0) | (im != 0))
        keep = keep[np.argsort(support[keep])]
        t = object.__new__(cls)
        t._set(dims, support[keep], _lowest(re[keep], im[keep], den))
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor3 is immutable")

    def _scalars(self) -> list:
        re, im, den = self.values
        return list(map(from_gaussian, re.tolist(), im.tolist(), itertools.repeat(den)))

    def _indices(self) -> list:
        """The (a, b, c) index of every nonzero entry, row-major."""
        return list(zip(*(axis.tolist() for axis in np.unravel_index(self.support, self.dims))))

    @property
    def entries(self) -> tuple:
        """Every entry as a Scalar, in a flat row-major tuple."""
        entries = np.full(math.prod(self.dims), ZERO, dtype=object)
        entries[self.support] = self._scalars()
        return tuple(entries.tolist())

    def __getitem__(self, index) -> Scalar:
        (flat,) = _by_offset(self.dims, [(index, None)], bool)  # checks the range
        k = int(np.searchsorted(self.support, flat))
        if k == len(self.support) or self.support[k] != flat:
            return ZERO
        re, im, den = self.values
        return from_gaussian(int(re[k]), int(im[k]), den)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (self.dims == other.dims and self.values.den == other.values.den
                and all(map(np.array_equal, (self.support, *self.values[:2]),
                            (other.support, *other.values[:2]))))

    def __hash__(self):
        re, im, den = self.values
        return hash((self.dims, den, self.support.tobytes(), tuple(re.tolist()),
                     tuple(im.tolist())))

    def is_zero(self) -> bool:
        return not len(self.support)

    def nonzeros(self):
        """Yield ((a, b, c), value) for every nonzero entry, row-major."""
        return zip(self._indices(), self._scalars())

    def nnz(self) -> int:
        return len(self.support)

    def to_numpy(self) -> np.ndarray:
        """The entries as a complex128 array of shape dims, each the
        complex() of its Scalar (`scalars._floats`)."""
        arr = np.zeros(self.dims, dtype=np.complex128)
        try:
            arr.reshape(-1)[self.support] = _floats(self.values)
        except OverflowError as exc:
            raise ResourceError(f"tensor entry exceeds the float range: {exc}") from exc
        return arr

    def norm_sq(self) -> Fraction:
        """Exact squared Frobenius norm: the squared Gaussian-integer
        numerators of the nonzeros, summed over one den^2."""
        re, im, den = self.values
        return Fraction(sum(x * x for x in re.tolist() + im.tolist()), den * den)

    def __repr__(self):
        return f"Tensor3(dims={self.dims}, nnz={self.nnz()})"


def make_tensor(dims, entries) -> Tensor3:
    """Build a Tensor3 from a sparse entry list.

    `entries` is a mapping {(a, b, c): value} or an iterable of
    ((a, b, c), value) pairs; values may be Scalars, ints, Fractions or
    "p/q" strings.  Unlisted entries are zero.  Out-of-range or duplicate
    indices raise InputError.  The dims are checked before `entries` is
    read, so a lazy iterable is never consumed for a refused size.
    """
    dims = dense_dims(dims)
    values = _by_offset(dims, entries.items() if hasattr(entries, "items") else entries,
                        as_scalar)
    return Tensor3._from_numerators(dims, list(values), *_to_leg(values.values(), len(values)))


def _by_offset(dims, items, convert) -> dict:
    """{flat row-major offset: convert(value)} for the (index, value) items,
    read in order; InputError for an index out of range or repeated."""
    da, db, dc = dims
    out = {}
    for index, value in items:
        a, b, c = index
        if not (0 <= a < da and 0 <= b < db and 0 <= c < dc):
            raise InputError(f"index {tuple(index)} out of range for dims {tuple(dims)}")
        offset = (a * db + b) * dc + c
        if offset in out:
            raise InputError(f"duplicate index {tuple(index)}")
        out[offset] = convert(value)
    return out


def zero_tensor(dims) -> Tensor3:
    return make_tensor(dims, {})


def tensor_product(t1: Tensor3, t2: Tensor3) -> Tensor3:
    """Leg-wise Kronecker product: dims multiply per leg and
    (x⊗y⊗z)·(u⊗v⊗w) = (x⊗u)⊗(y⊗v)⊗(z⊗w)."""
    dims = dense_dims(tuple(d1 * d2 for d1, d2 in zip(t1.dims, t2.dims)))
    # every pair of nonzeros, the first factor's index the high digit per leg
    flat = np.ravel_multi_index(
        [np.add.outer(i1 * d2, i2).ravel() for i1, i2, d2 in zip(
            np.unravel_index(t1.support, t1.dims), np.unravel_index(t2.support, t2.dims),
            t2.dims)], dims)
    # a tensor of zeros counts as 1, so every numerator also lies below the bound
    dtype = _int_dtype(2 * (_max_abs(t1.values) or 1) * (_max_abs(t2.values) or 1))
    (r1, i1), (r2, i2) = ((leg.re.astype(dtype), leg.im.astype(dtype))
                          for leg in (t1.values, t2.values))
    re, im = (np.multiply.outer(r1, r2) - np.multiply.outer(i1, i2),
              np.multiply.outer(r1, i2) + np.multiply.outer(i1, r2))
    return Tensor3._from_numerators(dims, flat, re.ravel(), im.ravel(),
                                    t1.values.den * t2.values.den)


def flattening(t: Tensor3, leg: str) -> tuple:
    """Matrix obtained by grouping the two legs other than `leg`.

    Row index is the chosen leg; the remaining legs keep their relative
    order in the column index.
    """
    if leg not in LEGS:
        raise InputError(f"unknown leg {leg!r}, expected one of {LEGS}")
    axis = LEGS.index(leg)
    entries = np.moveaxis(np.array(t.entries, dtype=object).reshape(t.dims), axis, 0)
    return tuple(map(tuple, entries.reshape(t.dims[axis], -1).tolist()))


#: the prime of the modular flattening rank: p = 1 (mod 4), so -1 has the
#: square root SQRT_MINUS_ONE mod p, and p < 2^31, so the product of two
#: residues is exact in int64
PRIME = 2147483629
SQRT_MINUS_ONE = 1518275076


def _residues(t: Tensor3) -> np.ndarray:
    """t's Gaussian-integer numerators over their common denominator sent
    to F_p by i -> SQRT_MINUS_ONE, as an int64 array of shape t.dims.  Both
    parts are reduced before they are combined, so int64 never wraps."""
    re, im, _ = t.values
    out = np.zeros(math.prod(t.dims), dtype=np.int64)
    out[t.support] = (re % PRIME + SQRT_MINUS_ONE * (im % PRIME)) % PRIME
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
    return len(_pruned_echelon(t, axis)[0])


def _pruned_echelon(t: Tensor3, axis: int) -> tuple[list, list]:
    """The fraction-free echelon rows (`scalars._echelon`, one per pivot)
    of the flattening along `axis` restricted to its nonzero rows and
    columns, read from t's support and numerators as (re, im) pairs, and
    the flattening's column index of each column; no rows for t = 0."""
    index = np.unravel_index(t.support, t.dims)
    j, k = (other for other in range(3) if other != axis)
    rows, row_of = np.unique(index[axis], return_inverse=True)
    cols, col_of = np.unique(index[j] * t.dims[k] + index[k], return_inverse=True)
    m = [[(0, 0)] * len(cols) for _ in rows]
    re, im, _ = t.values
    for r, c, x, y in zip(row_of.tolist(), col_of.tolist(), re.tolist(), im.tolist()):
        m[r][c] = (x, y)
    return (_echelon(m)[0] if m else []), cols.tolist()


def flattening_rank(t: Tensor3, leg: str) -> int:
    """Exact rank of the flattening along `leg`.

    Equals the rank of that subsystem's reduced density operator and is a
    lower bound for tensor rank.  The zero tensor has rank 0.  The
    flattening is ranked modulo PRIME first: reduction mod p can only lower
    a rank, so a result equal to min(rows, cols) is exact, and any other
    result is recomputed by fraction-free elimination over Z[i] on the
    flattening's nonzero rows and columns (`scalars._echelon`).
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

    The fraction-free echelon rows of the C-flattening's nonzero rows and
    columns, scattered back into the flattening's columns; the result has
    exactly flattening_rank(T, "C") elements and spans the same space as
    the support of the two-party reduced state on legs A and B.
    """
    da, db, _ = t.dims
    rows, cols = _pruned_echelon(t, 2)
    basis = []
    for row in rows:
        dense = [ZERO] * (da * db)
        for col, (x, y) in zip(cols, row):
            dense[col] = Scalar(x, y)
        basis.append(tuple(tuple(dense[a * db:(a + 1) * db]) for a in range(da)))
    return basis


@dataclass(frozen=True, eq=False)
class LocalOperatorTriple:
    """One exact matrix per leg, each a Leg of shape (rows, cols); may be
    non-square (dim-changing).  Rows of exact values are converted once; a
    Leg is kept as it is, in lowest terms.  Equality and hashing compare
    values, as Tensor3's do."""

    A: Leg
    B: Leg
    C: Leg

    def __post_init__(self):
        for name in "ABC":
            m = getattr(self, name)
            if not isinstance(m, Leg):
                cols = len(m[0]) if m else 0
                if any(len(row) != cols for row in m):
                    raise InputError(f"operator {name} has ragged rows")
                m = _to_leg([x for row in m for x in row], (len(m), cols))
            m.re.flags.writeable = m.im.flags.writeable = False
            object.__setattr__(self, name, m)

    def input_dims(self) -> tuple[int, int, int]:
        return tuple(m.re.shape[1] for m in (self.A, self.B, self.C))

    def output_dims(self) -> tuple[int, int, int]:
        return tuple(m.re.shape[0] for m in (self.A, self.B, self.C))

    def __eq__(self, other):
        if not isinstance(other, LocalOperatorTriple):
            return NotImplemented
        return all(x.den == y.den and np.array_equal(x.re, y.re) and np.array_equal(x.im, y.im)
                   for x, y in zip((self.A, self.B, self.C), (other.A, other.B, other.C)))

    def __hash__(self):
        return hash(tuple((m.den, tuple(m.re.ravel().tolist())) for m in (self.A, self.B, self.C)))


def identity_triple(dims) -> LocalOperatorTriple:
    return LocalOperatorTriple(*(_int_leg(np.eye(n, dtype=np.int64)) for n in dims))


def apply_local_operators(ops: LocalOperatorTriple, t: Tensor3) -> Tensor3:
    """Contract (A ⊗ B ⊗ C) against all three legs of T, exactly.

    T's Gaussian-integer numerators are mapped by one operator at a time,
    the legs whose operator has fewer rows than columns first, so no
    intermediate array is larger than the input or the output.
    """
    if ops.input_dims() != t.dims:
        raise InputError(
            f"operator input dims {ops.input_dims()} do not match tensor dims {t.dims}"
        )
    out_dims = dense_dims(ops.output_dims())
    x = Leg(*(np.zeros(t.dims, dtype=part.dtype) for part in t.values[:2]), t.values.den)
    x.re.flat[t.support], x.im.flat[t.support] = t.values.re, t.values.im
    for axis in sorted(range(3), key=lambda k: out_dims[k] > t.dims[k]):
        y = _mapped((ops.A, ops.B, ops.C)[axis],
                    Leg(*(part.swapaxes(axis, -1) for part in x[:2]), x.den))
        x = Leg(*(part.swapaxes(axis, -1) for part in y[:2]), y.den)
    return Tensor3._from_numerators(out_dims, np.arange(x.re.size), x.re.ravel(),
                                    x.im.ravel(), x.den)


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
    re, im, den = t.values
    entries = []
    for index, x, y in zip(t._indices(), re.tolist(), im.tolist()):
        item = {"i": list(index), "re": ratio_text(x, den)}
        if y:
            item["im"] = ratio_text(y, den)
        entries.append(item)
    return {"dims": list(t.dims), "entries": entries}


def tensor_from_json(obj: dict) -> Tensor3:
    if not isinstance(obj, dict):
        raise InputError(f"tensor JSON must be an object, got {type(obj).__name__}")
    dims = json_ints(obj.get("dims"), 3, "tensor JSON dims")
    entries, indices = [], []
    try:
        for item in obj.get("entries", []):
            indices.append(json_ints(item["i"], 3, "tensor JSON index"))
            entries.append(item)
    except (InputError, KeyError, TypeError) as exc:
        # a malformed value before this entry raises first, as an entry by
        # entry read does
        gaussian_from_json(entries)
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed tensor JSON entry: {exc!r}") from exc
    # an entry object is read as the scalar {"re", "im"} it holds
    values = gaussian_from_json(entries)
    # the entries' offsets, in entry order, once every index is checked
    offsets = list(_by_offset(dense_dims(dims), zip(indices, itertools.repeat(None)), bool))
    return Tensor3._from_numerators(dims, offsets, *values)
