"""Rank decompositions: verification, builtin witnesses, tensor powers,
numeric search and small exact certificates.

A ProductDecomposition asserts T = sum_k a_k (x) b_k (x) c_k and is the
package's currency for tensor-rank upper bounds: an ExactMatch from
`verify_decomposition` certifies rank(T) <= r.  Lower bounds come from
flattening ranks, the 2x2x2 rank test and the RankFacts registry of known
exact ranks; `rank_bounds` combines them with the packaged witnesses and
the exact witnesses of simultaneous diagonalization (`tenrank.pencil`).
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .als import AlsConfig, AlsResult, als_decompose
from .errors import InputError, ResourceError, WitnessMismatch
from .scalars import (
    ZERO,
    Leg,
    Scalar,
    _int_dtype,
    _int_leg,
    _lowest,
    _mapped,
    _max_abs,
    _to_leg,
    from_gaussian,
    gaussian_from_json,
    gaussian_to_json,
)
from .tensors import (
    LocalOperatorTriple,
    Tensor3,
    dense_dims,
    flattening_ranks,
    json_ints,
    make_tensor,
    tensor_product,
)

#: decomposition_power refuses to build more terms than this
#: (override with the TENRANK_TERM_CAP environment variable)
DEFAULT_TERM_CAP = 1 << 20

#: above this term count, verification switches from dense reconstruction
#: to the randomized contraction identity
DENSE_VERIFY_LIMIT = 100_000

#: decomposition_power materializes its term list only while
#: r^n * (dA + dB + dC) stays below this scalar budget
_MATERIALIZE_SCALARS = 1 << 18


class Term(NamedTuple):
    a: tuple
    b: tuple
    c: tuple


@dataclass(frozen=True)
class ProductDecomposition:
    """r product terms (a_k, b_k, c_k) over exact scalars.

    `terms` is any immutable sequence of Terms.  `make_decomposition`
    stores the terms as Gaussian-integer arrays (ArrayTerms), and large
    tensor powers use a lazy sequence that generates Kronecker terms on
    demand (see KroneckerPowerTerms) so the term count can exceed what fits
    in memory as explicit vectors.
    """

    dims: tuple
    terms: Sequence

    @property
    def rank(self) -> int:
        return len(self.terms)


class ArrayTerms(Sequence):
    """r product terms stored as three Legs, one per tensor leg.

    A Term of Scalars is built on access, so the sequence behaves as the
    tuple of its Terms (length, indexing, slices as tuples, equality by
    value) while holding only integer arrays.
    """

    __slots__ = ("legs",)

    def __init__(self, legs):
        self.legs = tuple(legs)
        for leg in self.legs:
            leg.re.flags.writeable = leg.im.flags.writeable = False

    @classmethod
    def from_terms(cls, terms, dims) -> "ArrayTerms":
        """Terms of exact vectors (Scalars, ints, Fractions or "p/q"
        strings) of the given dims; no given value object is kept."""
        return cls(_to_leg([x for term in terms for x in term[leg]], (len(terms), dim))
                   for leg, dim in enumerate(dims))

    def __len__(self):
        return len(self.legs[0].re)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[j] for j in range(*k.indices(len(self))))
        k = range(len(self))[k]  # negative indices count from the end; IndexError past it
        return Term(*(tuple(map(from_gaussian, leg.re[k].tolist(), leg.im[k].tolist(),
                                itertools.repeat(leg.den)))
                      for leg in self.legs))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def leg_arrays(d: ProductDecomposition) -> tuple:
    """d's three Legs: stored for ArrayTerms, built from the base for a lazy
    power, converted from the terms' vectors for any other sequence."""
    if isinstance(d.terms, ArrayTerms):
        return d.terms.legs
    if isinstance(d.terms, KroneckerPowerTerms):
        return d.terms.legs()
    return ArrayTerms.from_terms(d.terms, d.dims).legs


def term_values(d: ProductDecomposition, convert) -> tuple:
    """d's legs as lists of r rows of convert(re, im, den), called once per
    distinct value of d (numerator pair and leg denominator)."""
    memo = {}
    legs = []
    for leg in leg_arrays(d):
        r, dim = leg.re.shape
        keys = list(zip(leg.re.ravel().tolist(), leg.im.ravel().tolist(),
                        itertools.repeat(leg.den)))
        for key in dict.fromkeys(keys):
            if key not in memo:
                memo[key] = convert(*key)
        values = list(map(memo.__getitem__, keys))
        legs.append([values[k * dim:(k + 1) * dim] for k in range(r)])
    return tuple(legs)


def make_decomposition(dims, terms) -> ProductDecomposition:
    """Validated constructor: dims must be positive, vector lengths must
    match them and no term may contain an all-zero vector.  The terms are
    stored as ArrayTerms; no given value object is kept."""
    terms = [[tuple(v) for v in term] for term in terms]
    return _validated(dims, [tuple(map(len, term)) for term in terms],
                      lambda dims: ArrayTerms.from_terms(terms, dims))


def _validated(dims, lengths, stored) -> ProductDecomposition:
    """The decomposition of the ArrayTerms stored(dims) once the dims are
    positive and equal to every term's vector lengths; InputError
    otherwise, and for a term with an all-zero vector."""
    da, db, dc = dims
    if min(da, db, dc) < 1:
        raise InputError(f"dimensions must be positive, got {tuple(dims)}")
    for k, term in enumerate(lengths):
        if term != (da, db, dc):
            raise InputError(f"term {k} has vector lengths {term}, expected {tuple(dims)}")
    stored = stored((da, db, dc))
    zero = np.zeros(len(stored), dtype=bool)
    for leg in stored.legs:
        zero |= ~((leg.re != 0) | (leg.im != 0)).any(axis=1)
    if zero.any():
        raise InputError(f"term {int(np.argmax(zero))} contains an all-zero vector")
    return ProductDecomposition((da, db, dc), stored)


class KroneckerPowerTerms(Sequence):
    """Lazy term list of the n-th Kronecker power of a base decomposition.

    Term j is the leg-wise Kronecker product of the base terms named by the
    base-r digits of j (first copy = most significant digit).  Only the
    base is stored, as the ArrayTerms `base_terms`; `legs` builds the Legs
    of any run of terms, and a Term of Scalars is built on access.
    """

    def __init__(self, base: ProductDecomposition, copies: int):
        self.base_terms = ArrayTerms(leg_arrays(base))
        self.copies = copies
        self._len = len(self.base_terms) ** copies

    def __len__(self):
        return self._len

    def legs(self, first: int = 0, stop: int | None = None) -> tuple:
        """The three Legs of terms first, ..., stop - 1 (all terms by default)."""
        rows = np.arange(first, self._len if stop is None else min(stop, self._len))
        return tuple(_kron_rows(leg, self.copies, rows) for leg in self.base_terms.legs)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(self._len))]
        j = range(self._len)[j]
        return ArrayTerms(self.legs(j, j + 1))[0]


def _kron_rows(leg: Leg, copies: int, rows: np.ndarray) -> Leg:
    """The given rows of the copies-fold Kronecker power of a leg, in
    lowest terms: row j is the Kronecker product of the base rows named by
    the base-r digits of j, first copy most significant."""
    # each copy at most doubles the largest part times max|leg|
    dtype = _int_dtype(2 ** (copies - 1) * _max_abs(leg) ** copies)
    base_re, base_im = leg.re.astype(dtype), leg.im.astype(dtype)

    def kron(x, y):  # row k: the Kronecker product of row k of x and row k of y
        return (x[:, :, None] * y[:, None, :]).reshape(len(x), x.shape[1] * y.shape[1])

    first, *rest = np.unravel_index(rows, (len(leg.re),) * copies)
    re, im = base_re[first], base_im[first]
    for digit in rest:
        xr, xi = base_re[digit], base_im[digit]
        re, im = kron(re, xr) - kron(im, xi), kron(re, xi) + kron(im, xr)
    return _lowest(re, im, leg.den ** copies)


# ---------------------------------------------------------------------------
# Reconstruction and verification
# ---------------------------------------------------------------------------


#: reconstruction forms the a (x) b outer products of this many scalars at
#: most at a time, so its temporaries stay small for any term count
_CHUNK_SCALARS = 1 << 18


def _dense_numerators(d: ProductDecomposition):
    """The dense reconstruction of d as Gaussian integers: a flat row-major
    (re, im) pair of numpy arrays over one common denominator.

    Each leg's r x d coefficient matrix is its Leg of integer numerators
    over its own common denominator; the a (x) b outer products, an
    (r, dA*dB) pair, meet c in four matmuls.  Every partial sum is bounded by
    4 r max|a| max|b| max|c| (max over real and imaginary numerators), so
    the arrays are int64 when that bound is below 2^62 and hold Python ints
    (dtype object) otherwise; either way the result is exact.
    """
    da, db, dc = dense_dims(d.dims)
    legs = leg_arrays(d)
    r = len(legs[0].re)
    # a leg of zeros counts as 1, so every numerator also lies below the bound
    dtype = _int_dtype(4 * r * math.prod(_max_abs(leg) or 1 for leg in legs))
    (ar, ai), (br, bi), (cr, ci) = ((leg.re.astype(dtype), leg.im.astype(dtype))
                                    for leg in legs)
    out_re = np.zeros((da * db, dc), dtype=dtype)
    out_im = np.zeros((da * db, dc), dtype=dtype)
    step = max(1, _CHUNK_SCALARS // (da * db))
    for first in range(0, r, step):
        k = slice(first, first + step)
        a_re, a_im = ar[k, :, None], ai[k, :, None]
        b_re, b_im = br[k, None, :], bi[k, None, :]
        ab_re = (a_re * b_re - a_im * b_im).reshape(-1, da * db).T
        ab_im = (a_re * b_im + a_im * b_re).reshape(-1, da * db).T
        out_re += ab_re @ cr[k] - ab_im @ ci[k]
        out_im += ab_re @ ci[k] + ab_im @ cr[k]
    return out_re.ravel(), out_im.ravel(), math.prod(leg.den for leg in legs)


def reconstruct(d: ProductDecomposition) -> Tensor3:
    """Densely rebuild sum_k a_k (x) b_k (x) c_k (subject to the entry cap)."""
    re, im, den = _dense_numerators(d)
    return Tensor3._from_numerators(d.dims, np.arange(len(re)), re, im, den)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    first_mismatch: tuple | None = None
    randomized: bool = False

    def __bool__(self):
        return self.ok


def verify_decomposition(t: Tensor3, d: ProductDecomposition) -> VerifyResult:
    """Check T = sum of d's terms, exactly.

    Up to DENSE_VERIFY_LIMIT terms the sum is reconstructed densely as
    Gaussian integers over one common denominator and compared entrywise
    (first differing index reported in row-major order); an exact match
    certifies rank(T) <= r.  Beyond the limit the check falls back to the
    one-copy randomized contraction identity of verify_power_randomized,
    with 20 integer probes drawn from S = {-25, ..., 25} with seed 20, the
    terms read a bounded number at a time.  It is one-sided: a reported
    mismatch is certain, and by the Schwartz-Zippel lemma a wrong
    decomposition passes with probability at most (3/51)^20, about 2.5e-25.
    A decomposition with other dims raises WitnessMismatch.
    """
    if t.dims != d.dims:
        raise WitnessMismatch(f"dims mismatch: tensor {t.dims} vs decomposition {d.dims}")
    if len(d.terms) > DENSE_VERIFY_LIMIT:
        lazy = d.terms if isinstance(d.terms, KroneckerPowerTerms) else KroneckerPowerTerms(d, 1)
        return _probe(t, lazy, copies=1, probes=20, seed=20)
    re, im, den = _dense_numerators(d)
    # off t's support the reconstruction must vanish; on it compare the
    # cross-multiplied numerators t_num * den == r_num * t_den
    mismatch = (re != 0) | (im != 0)
    support = t.support
    t_re, t_im, t_den = t.values
    mismatch[support] = [x * t_den != u * den or y * t_den != v * den
                         for x, y, u, v in zip(re[support].tolist(), im[support].tolist(),
                                               t_re.tolist(), t_im.tolist())]
    bad = np.flatnonzero(mismatch)
    if not bad.size:
        return VerifyResult(True)
    return VerifyResult(False, tuple(map(int, np.unravel_index(bad[0], t.dims))))


def require_witness(t: Tensor3, d: ProductDecomposition) -> ProductDecomposition:
    """Return d after verifying it against t; raise WitnessMismatch when
    the dims differ or the check fails.

    A decomposition with a tuple, array or lazy-power term list remembers the
    tensor object it last passed against, and the same pair (by identity;
    both are immutable) is not verified again.  Any other tensor, equal or
    not, is verified in full.
    """
    if getattr(d, "_verified_target", None) is t:
        return d
    result = verify_decomposition(t, d)
    if not result.ok:
        raise WitnessMismatch(f"witness does not reconstruct the target "
                              f"(first mismatch at {result.first_mismatch})",
                              result.first_mismatch)
    if isinstance(d.terms, (tuple, ArrayTerms, KroneckerPowerTerms)):
        object.__setattr__(d, "_verified_target", t)
    return d


def decomposition_contract(d: ProductDecomposition, x, y, z) -> Scalar:
    """Exact contraction sum_k (a_k . x)(b_k . y)(c_k . z)."""
    acc = ZERO
    for term in d.terms:
        pa = linalg.dot(term.a, x)
        if not pa:
            continue
        pb = linalg.dot(term.b, y)
        if not pb:
            continue
        pc = linalg.dot(term.c, z)
        if pc:
            acc = acc + pa * pb * pc
    return acc


def transport(ops: LocalOperatorTriple, d: ProductDecomposition) -> ProductDecomposition:
    """Push a decomposition through local operators, term by term.

    If T = sum a_k (x) b_k (x) c_k then (A (x) B (x) C) T = sum (A a_k) (x)
    (B b_k) (x) (C c_k) with the same term count: witnessed rank bounds
    never increase under local operators.
    """
    if ops.input_dims() != d.dims:
        raise InputError(
            f"operator input dims {ops.input_dims()} do not match decomposition dims {d.dims}"
        )
    if len(d.terms) > DENSE_VERIFY_LIMIT:
        raise ResourceError(
            "refusing to transport a decomposition with more than "
            f"{DENSE_VERIFY_LIMIT} terms; transport the base and take the power instead"
        )
    legs = (_mapped(m, leg) for m, leg in zip((ops.A, ops.B, ops.C), leg_arrays(d)))
    return ProductDecomposition(ops.output_dims(), ArrayTerms(legs))


# ---------------------------------------------------------------------------
# Builtin states and decompositions
# ---------------------------------------------------------------------------


def builtin_state(name: str, *params: int) -> Tensor3:
    """Construct a named reference state, unnormalized.

    GHZ(N)        sum_i e_i (x) e_i (x) e_i at level count N
    W             |001> + |010> + |100>
    EPR           |00> + |11> as a bipartite tensor (dC = 1)
    PHI3          three EPR pairs shared pairwise: equals the 2x2 matrix
                  multiplication tensor up to a fixed relabeling of leg A
    W2            W (x) W
    MATMUL(m,n,p) the <m,n,p> matrix multiplication tensor
    """
    key = name.upper()
    if key == "GHZ":
        n = params[0] if params else 2
        if n < 1:
            raise InputError("GHZ level count must be positive")
        dims, diagonal = dense_dims((n, n, n)), np.arange(n)
        return Tensor3._from_numerators(dims, diagonal * (n * n + n + 1), diagonal * 0 + 1,
                                        diagonal * 0, 1)
    if key == "W":
        return make_tensor((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})
    if key == "EPR":
        return make_tensor((2, 2, 1), {(0, 0, 0): 1, (1, 1, 0): 1})
    if key == "PHI3":
        pairs = [
            (0, 0, 0), (2, 2, 0),
            (0, 1, 1), (2, 3, 1),
            (1, 0, 2), (3, 2, 2),
            (1, 1, 3), (3, 3, 3),
        ]
        return make_tensor((4, 4, 4), {p: 1 for p in pairs})
    if key == "W2":
        w = builtin_state("W")
        return tensor_product(w, w)
    if key == "MATMUL":
        from .bilinear import matmul_tensor

        m, n, p = params
        return matmul_tensor(m, n, p)
    raise InputError(f"unknown builtin state {name!r}")


def strassen7_decomposition() -> ProductDecomposition:
    """The classic 7-multiplication scheme for 2x2 matrix products, as a
    7-term decomposition of the <2,2,2> tensor.

    a-coefficients index the left matrix entries (row-major), b the right
    matrix, c the outputs; all coefficients are in {-1, 0, 1}.
    """
    rows = [
        # (a11+a22)(b11+b22) -> c11 + c22
        ((1, 0, 0, 1), (1, 0, 0, 1), (1, 0, 0, 1)),
        # (a21+a22) b11      -> c21 - c22
        ((0, 0, 1, 1), (1, 0, 0, 0), (0, 0, 1, -1)),
        # a11 (b12-b22)      -> c12 + c22
        ((1, 0, 0, 0), (0, 1, 0, -1), (0, 1, 0, 1)),
        # a22 (b21-b11)      -> c11 + c21
        ((0, 0, 0, 1), (-1, 0, 1, 0), (1, 0, 1, 0)),
        # (a11+a12) b22      -> c12 - c11
        ((1, 1, 0, 0), (0, 0, 0, 1), (-1, 1, 0, 0)),
        # (a21-a11)(b11+b12) -> c22
        ((-1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 1)),
        # (a12-a22)(b21+b22) -> c11
        ((0, 1, 0, -1), (0, 0, 1, 1), (1, 0, 0, 0)),
    ]
    return make_decomposition((4, 4, 4), rows)


def fiduccia8_w2_decomposition() -> ProductDecomposition:
    """Fiduccia's 8-multiplication scheme for the W (x) W bilinear forms.

    The coefficient matrix of the four outputs splits into four rank-one
    blocks (one product each) plus one diagonal block (four products);
    the b-side forms and the output recombination are reconstructed from
    that split and locked by the exact verification test against W (x) W.
    """
    rows = [
        # rank-one blocks
        ((0, 0, 1, 0), (1, 1, 0, 0), (1, 1, 0, 0)),
        ((0, 1, 0, 0), (1, 0, 1, 0), (1, 0, 1, 0)),
        ((1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 1, 0)),
        # diagonal correction block
        ((-1, -1, -1, 1), (1, 0, 0, 0), (1, 0, 0, 0)),
        ((-1, 0, -1, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
        ((-1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0)),
        ((-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1)),
    ]
    return make_decomposition((4, 4, 4), rows)


def ghz_decomposition(n: int) -> ProductDecomposition:
    if n < 1:
        raise InputError("GHZ level count must be positive")
    leg = _int_leg(np.eye(n, dtype=np.int64))
    return ProductDecomposition((n, n, n), ArrayTerms((leg, leg, leg)))


def w_rank3_decomposition() -> ProductDecomposition:
    """An exact 3-term witness for the W state:
    W = 1/2 (e0+e1)^(x3) - 1/2 (e0-e1)^(x3) - e1^(x3)."""
    half = Fraction(1, 2)
    rows = [
        ((half, half), (1, 1), (1, 1)),
        ((-half, half), (1, -1), (1, -1)),
        ((0, -1), (0, 1), (0, 1)),
    ]
    return make_decomposition((2, 2, 2), rows)


def builtin_decomposition(name: str, *params: int) -> ProductDecomposition:
    key = name.upper()
    if key == "GHZ":
        return ghz_decomposition(params[0] if params else 2)
    if key == "STRASSEN7":
        return strassen7_decomposition()
    if key == "FIDUCCIA8_W2":
        return fiduccia8_w2_decomposition()
    raise InputError(f"unknown builtin decomposition {name!r}")


# ---------------------------------------------------------------------------
# Tensor powers of decompositions
# ---------------------------------------------------------------------------


def term_cap() -> int:
    value = os.environ.get("TENRANK_TERM_CAP")
    if value is None:
        return DEFAULT_TERM_CAP
    try:
        return int(value)
    except ValueError as exc:
        raise InputError(f"invalid TENRANK_TERM_CAP {value!r}") from exc


def decomposition_power(d: ProductDecomposition, n: int) -> ProductDecomposition:
    """The n-fold Kronecker power: r^n terms, each a leg-wise Kronecker
    product of one base term per copy; reconstructs the n-fold tensor
    product of d's target.

    The term list is materialized while small and generated lazily
    otherwise, so powers like 7^6 terms stay addressable without holding
    every vector in memory.
    """
    if n < 1:
        raise InputError("power must be a positive integer")
    if isinstance(d.terms, KroneckerPowerTerms):
        raise InputError("cannot take the power of an already-lazy power; "
                         "raise the base decomposition instead")
    r = len(d.terms)
    total = r ** n
    limit = term_cap()
    if total > limit:
        raise ResourceError(f"{r}^{n} = {total} terms exceeds the term cap {limit}")
    dims = tuple(dim ** n for dim in d.dims)
    lazy = KroneckerPowerTerms(d, n)
    if total * sum(dims) <= _MATERIALIZE_SCALARS:
        return ProductDecomposition(dims, ArrayTerms(lazy.legs()))
    return ProductDecomposition(dims, lazy)


def verify_power_randomized(base_target: Tensor3, power: ProductDecomposition,
                            probes: int = 20, seed: int = 0) -> VerifyResult:
    """Randomized contraction check of a Kronecker-power decomposition
    against the matching tensor power of `base_target`, without
    materializing either side.

    Each probe draws integer vectors x_j, y_j, z_j per copy j, every entry
    uniform in S = {-25, ..., 25}, and compares the exact contractions

      product_j sum_k (a_k . x_j)(b_k . y_j)(c_k . z_j)
        ==  product_j <base_target, x_j, y_j, z_j>

    over the base terms.  The left side is the contraction of all r^n terms
    against the Kronecker probe (distributivity), so the sides agree as
    polynomials exactly when the power reconstructs the n-th power of
    `base_target`.  The check is one-sided: a correct power always passes;
    the difference has degree 3n, so by the Schwartz-Zippel lemma a wrong
    one passes all probes with probability at most (3n/|S|)^probes =
    (3n/51)^probes, about 9e-10 for n = 6 and 20 probes.  `seed` seeds
    numpy's generator (a negative seed draws the probes of its absolute
    value, as `random.Random` does); fewer than one probe raises InputError.
    """
    if not isinstance(power.terms, KroneckerPowerTerms):
        raise InputError("verify_power_randomized needs a lazy Kronecker power")
    lazy = power.terms
    n = lazy.copies
    if tuple(dim ** n for dim in base_target.dims) != power.dims:
        raise InputError(
            f"power dims {power.dims} are not the {n}-th power of base dims {base_target.dims}"
        )
    base = ProductDecomposition(base_target.dims, lazy.base_terms)
    return _probe(base_target, KroneckerPowerTerms(base, 1), n, probes, seed)


#: the randomized checks draw every probe entry from S = {-25, ..., 25}
_PROBE_MAX = 25


def _probe(target: Tensor3, terms: KroneckerPowerTerms, copies: int, probes: int,
           seed: int) -> VerifyResult:
    """The randomized check shared by both verifiers: `probes` probes of
    `copies` copies each compare the products over the copies of the
    contractions of `terms` and of `target`, computed for all probes at
    once in integers and compared by cross-multiplied denominators."""
    if probes < 1:
        raise InputError(f"the randomized check needs at least one probe, got {probes}")
    rng = np.random.default_rng(abs(seed))
    xs = [rng.integers(-_PROBE_MAX, _PROBE_MAX + 1, size=(probes * copies, dim))
          for dim in target.dims]
    sides = []
    for re, im, den in (_terms_values(terms, xs), _target_values(target, xs)):
        products = []  # per probe, the product of its copies' values re + im i
        for first in range(0, len(re), copies):
            x, y = 1, 0
            for u, v in zip(re[first:first + copies], im[first:first + copies]):
                x, y = x * u - y * v, x * v + y * u
            products.append((x, y))
        sides.append((products, den ** copies))
    (lhs, lhs_den), (rhs, rhs_den) = sides
    ok = all(x * rhs_den == u * lhs_den and y * rhs_den == v * lhs_den
             for (x, y), (u, v) in zip(lhs, rhs))
    return VerifyResult(ok, None, randomized=True)


def _terms_values(terms: KroneckerPowerTerms, xs) -> tuple:
    """sum_k (a_k . x)(b_k . y)(c_k . z) over the terms for each row
    (x, y, z) of the probe matrices xs, as Gaussian numerators (lists of
    Python ints) over one denominator.  The terms are built a bounded
    number at a time, so a lazy power never has all its rows at once."""
    m = len(xs[0])
    re, im = [0] * m, [0] * m
    den = math.prod(leg.den ** terms.copies for leg in terms.base_terms.legs)
    step = max(1, _CHUNK_SCALARS // (m + sum(x.shape[1] for x in xs)))
    for first in range(0, len(terms), step):
        legs = terms.legs(first, first + step)
        # |a . x| <= dim * 25 * max|a| for each part, a product of three
        # such complex sums is at most 4 times the product, the sum r times it
        dtype = _int_dtype(4 * len(legs[0].re) * math.prod(
            x.shape[1] * _PROBE_MAX * (_max_abs(leg) or 1) for x, leg in zip(xs, legs)))
        (ar, ai), (br, bi), (cr, ci) = ([x.astype(dtype) @ part.T.astype(dtype)
                                         for part in (leg.re, leg.im)]
                                        for x, leg in zip(xs, legs))
        ab_re, ab_im = ar * br - ai * bi, ar * bi + ai * br
        # each chunk is over its own lowest denominator, a divisor of den
        scale = den // math.prod(leg.den for leg in legs)
        re = [x + y * scale for x, y in zip(re, (ab_re * cr - ab_im * ci).sum(axis=1).tolist())]
        im = [x + y * scale for x, y in zip(im, (ab_re * ci + ab_im * cr).sum(axis=1).tolist())]
    return re, im, den


def _target_values(t: Tensor3, xs) -> tuple:
    """<t, x, y, z> for each row (x, y, z) of the probe matrices xs, as
    Gaussian numerators (lists of Python ints) over one denominator; t's
    support is read a bounded number of entries at a time."""
    support, (t_re, t_im, den) = t.support, t.values
    # each probe product x_a y_b z_c is at most 25^3
    dtype = _int_dtype(_PROBE_MAX ** 3 * len(support) * _max_abs(t.values))
    coefficients = np.stack([t_re, t_im], axis=1).astype(dtype)
    values = np.zeros((len(xs[0]), 2), dtype=dtype)
    step = max(1, _CHUNK_SCALARS // len(xs[0]))
    for first in range(0, len(support), step):
        a, b, c = np.unravel_index(support[first:first + step], t.dims)
        products = (xs[0][:, a] * xs[1][:, b] * xs[2][:, c]).astype(dtype)
        values += products @ coefficients[first:first + step]
    return values[:, 0].tolist(), values[:, 1].tolist(), den


# ---------------------------------------------------------------------------
# Exact rank certificate for 2x2x2 tensors
# ---------------------------------------------------------------------------


class Rank222(enum.Enum):
    RANK_LEQ2 = "rank_leq2"
    RANK_GEQ3 = "rank_geq3"
    DEGENERATE = "degenerate"


def hyperdeterminant_2x2x2(t: Tensor3):
    """Cayley's degree-4 invariant of a 2x2x2 tensor, evaluated exactly.

    Nonzero exactly on the GHZ class; vanishes on W and on all degenerate
    classes.  Invariant (up to determinant factors) under invertible local
    operators, which makes the GHZ/W split a local-equivalence invariant.
    """
    if t.dims != (2, 2, 2):
        raise InputError(f"hyperdeterminant needs dims (2, 2, 2), got {t.dims}")

    t000, t001, t010, t011, t100, t101, t110, t111 = t.entries
    squares = (t000 * t000 * t111 * t111 + t001 * t001 * t110 * t110
               + t010 * t010 * t101 * t101 + t100 * t100 * t011 * t011)
    pairs = (t000 * t001 * t110 * t111 + t000 * t010 * t101 * t111
             + t000 * t011 * t100 * t111 + t001 * t010 * t101 * t110
             + t001 * t011 * t100 * t110 + t010 * t011 * t100 * t101)
    quads = t000 * t011 * t101 * t110 + t001 * t010 * t100 * t111
    return squares - 2 * pairs + 4 * quads


def rank_leq2_test_2x2x2(t: Tensor3) -> Rank222:
    """Exact rank test for 2x2x2 tensors.

    DEGENERATE when some flattening rank is below 2 (the tensor rank then
    equals the maximum flattening rank).  Otherwise the rank is 2 exactly
    when the hyperdeterminant is nonzero: it is the discriminant of the
    binary quadratic det(x S0 + y S1) of the two slices, whose two distinct
    roots split the tensor into two product terms, while a double root puts
    it in the W class, of rank 3.  No roots are computed, so the test stays
    exact.
    """
    if t.dims != (2, 2, 2):
        raise InputError(f"rank test needs dims (2, 2, 2), got {t.dims}")
    return _rank222(t, flattening_ranks(t))


def _rank222(t: Tensor3, ranks: dict) -> Rank222:
    """rank_leq2_test_2x2x2(t) from t's flattening ranks."""
    if min(ranks.values()) < 2:
        return Rank222.DEGENERATE
    return Rank222.RANK_LEQ2 if hyperdeterminant_2x2x2(t) else Rank222.RANK_GEQ3


# ---------------------------------------------------------------------------
# Known exact ranks
# ---------------------------------------------------------------------------


class RankFact(NamedTuple):
    rank: int
    note: str


class RankFacts:
    """Registry of states with known exact tensor rank.

    Lower bounds beyond flattenings are not computable here in general, so
    convertibility decisions lean on these registered facts.  Every entry
    carries a provenance note.
    """

    def __init__(self):
        self._named = {
            "PHI3": RankFact(7, "7-term multiplication scheme (Strassen); "
                                "optimality (Winograd) consumed as a registered fact"),
            "W": RankFact(3, "three-qubit W class: border rank 2, exact rank 3"),
        }

    def lookup(self, t: Tensor3) -> tuple[str, RankFact] | None:
        """Exact-match a tensor against the registered states.  Dims and
        nonzero counts are compared first (GHZ(d) has d nonzeros, W 3 and
        PHI3 8), so no state is built for a target that cannot match."""
        da, db, dc = t.dims
        nnz = t.nnz()
        if da == db == dc == nnz and t == _registered_state("GHZ", da):
            return (f"GHZ({da})", RankFact(da, "diagonal state: rank equals level count"))
        if (t.dims, nnz) == ((2, 2, 2), 3) and t == _registered_state("W"):
            return ("W", self._named["W"])
        if (t.dims, nnz) == ((4, 4, 4), 8) and t == _registered_state("PHI3"):
            return ("PHI3", self._named["PHI3"])
        return None


@cache
def _registered_state(name: str, *params: int) -> Tensor3:
    """builtin_state(name, *params), built once per process (an immutable
    value; GHZ(d) exists for at most the 128 level counts under the dense
    cap)."""
    return builtin_state(name, *params)


DEFAULT_RANK_FACTS = RankFacts()


def builtin_witness(target: Tensor3, name: str) -> ProductDecomposition | None:
    """The packaged witness whose term count meets the registered rank of
    `name`, the state name returned by RankFacts.lookup(target), verified
    against `target` (WitnessMismatch otherwise); None when no witness is
    packaged."""
    if name.startswith("GHZ"):
        witness = ghz_decomposition(target.dims[0])
    elif name == "W":
        witness = w_rank3_decomposition()
    elif name == "PHI3":
        from .bilinear import phi3_matmul_witness

        witness = transport(phi3_matmul_witness(), strassen7_decomposition())
    else:
        return None
    return require_witness(target, witness)


@dataclass(frozen=True)
class RankBounds:
    """Everything the package knows about rank(target) without a caller's
    witness: the flattening ranks (leg -> rank), the registered fact
    (name, RankFact) or None, the 2x2x2 rank test's verdict (None for other
    dims) and the packaged or exact-step witness or None."""

    target: Tensor3
    flattening_ranks: dict
    fact: tuple[str, RankFact] | None
    rank222: Rank222 | None

    @property
    def lower(self) -> int:
        return max(*self.flattening_ranks.values(), self.fact[1].rank if self.fact else 0,
                   3 if self.rank222 is Rank222.RANK_GEQ3 else 0)

    @cached_property
    def witness(self) -> ProductDecomposition | None:
        """The packaged witness of the registered fact; without a fact, when
        no lower bound exceeds the largest flattening rank r, the exact
        r-term witness of simultaneous diagonalization for a target in the
        GHZ(r) orbit (`pencil.diagonal_witness`), or None.  Built and
        verified against the target on first use, so a verdict the lower
        bound decides pays for no witness."""
        if self.fact is not None:
            return builtin_witness(self.target, self.fact[0])
        if self.lower > max(self.flattening_ranks.values()):
            return None
        # imported on first use, so a caller that needs no witness does not
        # load it (about 0.7 MB of code objects, compiled from source)
        from .pencil import diagonal_witness

        return diagonal_witness(self.target, self.flattening_ranks)

    @property
    def upper(self) -> int | None:
        return None if self.witness is None else len(self.witness.terms)


def rank_bounds(t: Tensor3) -> RankBounds:
    """The lower and upper rank bounds of t from flattenings, the
    RankFacts registry, the 2x2x2 rank test, the packaged witnesses and
    simultaneous diagonalization; the one place these sources are
    combined."""
    ranks = flattening_ranks(t)
    return RankBounds(t, ranks, DEFAULT_RANK_FACTS.lookup(t),
                      _rank222(t, ranks) if t.dims == (2, 2, 2) else None)


# ---------------------------------------------------------------------------
# Numeric search and rationalization
# ---------------------------------------------------------------------------


def als_search(t: Tensor3, r: int, cfg: AlsConfig | None = None) -> AlsResult:
    """Float rank-r search on an exact tensor (see tenrank.als)."""
    return als_decompose(t.to_numpy(), r, cfg)


def rationalize_factors(dims, factors, max_denominator: int = 64):
    """Round float CP factors to small rationals, or None if any entry is
    not close to a fraction with the allowed denominator.

    Gauge is fixed first (peak entry of each a- and b-column scaled to 1,
    c absorbing the scale) so that arbitrary per-term complex phases from
    the numeric search do not block rounding.  The caller re-verifies the
    result exactly; this function only proposes a candidate.
    """
    a, b, c = (np.array(f, dtype=np.complex128, copy=True) for f in factors)
    for f in (a, b):
        peaks = f[np.argmax(np.abs(f), axis=0), np.arange(f.shape[1])]
        if not peaks.all():
            return None
        f /= peaks
        c *= peaks

    def round_entry(z):
        re = Fraction(float(z.real)).limit_denominator(max_denominator)
        im = Fraction(float(z.imag)).limit_denominator(max_denominator)
        if abs(complex(re) + 1j * complex(im) - z) > 1e-6:
            return None
        return Scalar(re, im)

    terms = [[tuple(map(round_entry, f[:, k])) for f in (a, b, c)] for k in range(a.shape[1])]
    vectors = [v for term in terms for v in term]
    if any(x is None for v in vectors for x in v) or not all(map(any, vectors)):
        return None
    return make_decomposition(dims, terms)


def rationalize_result(t: Tensor3, result: AlsResult,
                       max_denominator: int = 64) -> ProductDecomposition | None:
    """Promote a numeric find to an exact witness when possible."""
    candidate = rationalize_factors(t.dims, result.factors, max_denominator)
    if candidate is None:
        return None
    return candidate if verify_decomposition(t, candidate).ok else None


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------
#
# {"dims": [dA, dB, dC],
#  "terms": [{"a": ["p/q", ...], "b": [...], "c": [...]}, ...]}
#
# Exact values use "p/q" strings (complex ones the {"re","im"} object form);
# float decompositions use {"re": x, "im": y} numbers and carry "exact": false.


def decomposition_to_json(d: ProductDecomposition) -> dict:
    """Each distinct value is encoded once; its JSON value (a string, or one
    shared {"re", "im"} dict) stands wherever the value does."""
    legs = term_values(d, gaussian_to_json)
    return {"dims": list(d.dims),
            "terms": [dict(zip("abc", vectors)) for vectors in zip(*legs)]}


def decomposition_from_json(obj: dict) -> ProductDecomposition:
    if not isinstance(obj, dict):
        raise InputError(f"decomposition JSON must be an object, got {type(obj).__name__}")
    if obj.get("exact", True) is False:
        raise InputError("float decomposition cannot be loaded as an exact witness")
    dims = json_ints(obj.get("dims"), 3, "decomposition JSON dims")
    lengths = []

    def values():  # term by term, each term's a, b and c vectors
        for item in obj["terms"]:
            vectors = []
            for leg in ("a", "b", "c"):
                vectors.append(list(item[leg]))
                yield from vectors[-1]
            lengths.append(tuple(map(len, vectors)))

    try:
        re, im, den = gaussian_from_json(values())
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed decomposition JSON: {exc!r}") from exc

    def stored(dims):  # each leg's columns of the term-major values
        dtype = _int_dtype(max(map(abs, re + im), default=0))
        parts = [np.array(x, dtype=dtype).reshape(len(lengths), sum(dims)) for x in (re, im)]
        bounds = np.cumsum((0, *dims)).tolist()
        return ArrayTerms(_lowest(*(x[:, lo:hi] for x in parts), den)
                          for lo, hi in zip(bounds, bounds[1:]))

    return _validated(dims, lengths, stored)


def float_decomposition_to_json(dims, factors) -> dict:
    terms = [{leg: [{"re": float(z.real), "im": float(z.imag)} for z in f[:, k]]
              for leg, f in zip("abc", factors)} for k in range(factors[0].shape[1])]
    return {"dims": list(dims), "exact": False, "terms": terms}
