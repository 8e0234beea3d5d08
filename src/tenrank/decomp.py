"""Rank decompositions: verification, builtin witnesses, tensor powers,
numeric search and small exact certificates.

A ProductDecomposition asserts T = sum_k a_k (x) b_k (x) c_k and is the
package's currency for tensor-rank upper bounds: an ExactMatch from
`verify_decomposition` certifies rank(T) <= r.  Lower bounds come from
flattening ranks and from the RankFacts registry of known exact ranks;
`rank_bounds` combines both with the packaged witnesses.
"""

from __future__ import annotations

import enum
import math
import os
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from . import linalg, sampling
from .als import AlsConfig, AlsResult, als_decompose
from .errors import InputError, ResourceError, WitnessMismatch
from .scalars import (
    ONE,
    ZERO,
    Scalar,
    distinct_objects,
    gaussian_integers,
    scalar_from_json,
    scalar_to_json,
)
from .tensors import (
    LEGS,
    LocalOperatorTriple,
    Tensor3,
    contract,
    dense_dims,
    flattening_rank,
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

    `terms` is any immutable sequence; large tensor powers use a lazy
    sequence that generates Kronecker terms on demand (see
    KroneckerPowerTerms) so the term count can exceed what fits in memory
    as explicit vectors.
    """

    dims: tuple
    terms: Sequence

    @property
    def rank(self) -> int:
        return len(self.terms)


def make_decomposition(dims, terms) -> ProductDecomposition:
    """Validated constructor: dims must be positive, vector lengths must
    match them and no term may contain an all-zero vector."""
    da, db, dc = dims
    if min(da, db, dc) < 1:
        raise InputError(f"dimensions must be positive, got {tuple(dims)}")
    built = []
    for k, term in enumerate(terms):
        a, b, c = (linalg.vector(v) for v in term)
        if (len(a), len(b), len(c)) != (da, db, dc):
            raise InputError(f"term {k} has vector lengths "
                             f"{(len(a), len(b), len(c))}, expected {tuple(dims)}")
        if not (any(a) and any(b) and any(c)):
            raise InputError(f"term {k} contains an all-zero vector")
        built.append(Term(a, b, c))
    return ProductDecomposition((da, db, dc), tuple(built))


class KroneckerPowerTerms(Sequence):
    """Lazy term list of the n-th Kronecker power of a base decomposition.

    Term j corresponds to the base-r digits of j (first copy = most
    significant digit) and is built on access as the leg-wise Kronecker
    product of the chosen base terms.  Only the base terms are stored.
    """

    def __init__(self, base_terms, copies: int):
        self.base_terms = tuple(base_terms)
        self.copies = copies
        self._len = len(self.base_terms) ** copies

    def __len__(self):
        return self._len

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(self._len))]
        if j < 0:
            j += self._len
        if not 0 <= j < self._len:
            raise IndexError(j)
        r = len(self.base_terms)
        digits = []
        for _ in range(self.copies):
            j, d = divmod(j, r)
            digits.append(d)
        digits.reverse()
        chosen = [self.base_terms[d] for d in digits]
        return Term(
            reduce(linalg.kron_vec, (t.a for t in chosen)),
            reduce(linalg.kron_vec, (t.b for t in chosen)),
            reduce(linalg.kron_vec, (t.c for t in chosen)),
        )


# ---------------------------------------------------------------------------
# Reconstruction and verification
# ---------------------------------------------------------------------------


#: reconstruction forms the a (x) b outer products of this many scalars at
#: most at a time, so its temporaries stay small for any term count
_CHUNK_SCALARS = 1 << 18


def _dense_numerators(d: ProductDecomposition):
    """The dense reconstruction of d as Gaussian integers: a flat row-major
    (re, im) pair of numpy arrays over one common denominator.

    Each leg's r x d coefficient matrix becomes integer numerators over its
    own common denominator; the a (x) b outer products, an (r, dA*dB) pair,
    meet c in four matmuls.  Every partial sum is bounded by
    4 r max|a| max|b| max|c| (max over real and imaginary numerators), so
    the arrays are int64 when that bound is below 2^62 and hold Python ints
    (dtype object) otherwise; either way the result is exact.
    """
    da, db, dc = dense_dims(d.dims)
    terms = list(d.terms)
    r = len(terms)
    # each distinct Scalar object of a leg becomes numerators once; the
    # leg's arrays gather them by position
    legs = []
    for leg in range(3):
        distinct, index = distinct_objects(x for term in terms for x in term[leg])
        legs.append((*gaussian_integers(distinct), index))
    # a leg of zeros counts as 1, so every numerator also lies below the bound
    bound = 4 * r * math.prod(max(map(abs, re + im), default=0) or 1 for re, im, _, _ in legs)
    dtype = np.int64 if bound < 1 << 62 else object
    (ar, ai), (br, bi), (cr, ci) = (
        tuple(np.array(part, dtype=dtype)[index].reshape(r, dim) for part in (re, im))
        for (re, im, _, index), dim in zip(legs, d.dims))
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
    return out_re.ravel(), out_im.ravel(), math.prod(den for _, _, den, _ in legs)


def reconstruct(d: ProductDecomposition) -> Tensor3:
    """Densely rebuild sum_k a_k (x) b_k (x) c_k (subject to the entry cap)."""
    re, im, den = _dense_numerators(d)
    nonzero = np.flatnonzero((re != 0) | (im != 0))
    entries = [ZERO] * len(re)
    for flat, x, y in zip(nonzero.tolist(), re[nonzero].tolist(), im[nonzero].tolist()):
        entries[flat] = Scalar(Fraction(x, den), Fraction(y, den))
    return Tensor3(d.dims, entries)


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
    randomized contraction identity against dense rational probes, which is
    one-sided: a reported match holds with probability 1 up to the
    vanishing chance that every probe hits a root of the nonzero difference
    polynomial.  A decomposition with other dims raises WitnessMismatch.
    """
    if t.dims != d.dims:
        raise WitnessMismatch(f"dims mismatch: tensor {t.dims} vs decomposition {d.dims}")
    if len(d.terms) > DENSE_VERIFY_LIMIT:
        return _probe(t, d, copies=1, probes=20, seed=20)
    re, im, den = _dense_numerators(d)
    # off t's support the reconstruction must vanish; on it compare the
    # cross-multiplied numerators t_num * den == r_num * t_den
    mismatch = (re != 0) | (im != 0)
    nonzero = list(t.support)
    distinct, index = distinct_objects(t.entries[flat] for flat in nonzero)
    t_re, t_im, t_den = gaussian_integers(distinct)
    mismatch[nonzero] = [x * t_den != t_re[k] * den or y * t_den != t_im[k] * den
                         for x, y, k in zip(re[nonzero].tolist(), im[nonzero].tolist(), index)]
    bad = np.flatnonzero(mismatch)
    if not bad.size:
        return VerifyResult(True)
    _, db, dc = t.dims
    a, rest = divmod(int(bad[0]), db * dc)
    b, c = divmod(rest, dc)
    return VerifyResult(False, (a, b, c))


def require_witness(t: Tensor3, d: ProductDecomposition) -> ProductDecomposition:
    """Return d after verifying it against t; raise WitnessMismatch when
    the dims differ or the check fails.

    A decomposition with a tuple or lazy-power term list remembers the
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
    if isinstance(d.terms, (tuple, KroneckerPowerTerms)):
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
    new_terms = tuple(
        Term(
            linalg.mat_vec(ops.A, term.a),
            linalg.mat_vec(ops.B, term.b),
            linalg.mat_vec(ops.C, term.c),
        )
        for term in d.terms
    )
    return ProductDecomposition(ops.output_dims(), new_terms)


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
        return make_tensor((n, n, n), (((i, i, i), 1) for i in range(n)))
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


def _terms_from_ints(dims, rows):
    return make_decomposition(
        dims, [(tuple(a), tuple(b), tuple(c)) for a, b, c in rows]
    )


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
    return _terms_from_ints((4, 4, 4), rows)


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
    return _terms_from_ints((4, 4, 4), rows)


def ghz_decomposition(n: int) -> ProductDecomposition:
    if n < 1:
        raise InputError("GHZ level count must be positive")
    e = linalg.identity(n)
    return ProductDecomposition((n, n, n), tuple(Term(e[i], e[i], e[i]) for i in range(n)))


def w_rank3_decomposition() -> ProductDecomposition:
    """An exact 3-term witness for the W state:
    W = 1/2 (e0+e1)^(x3) - 1/2 (e0-e1)^(x3) - e1^(x3)."""
    half = Fraction(1, 2)
    rows = [
        ((half, half), (1, 1), (1, 1)),
        ((-half, half), (1, -1), (1, -1)),
        ((0, -1), (0, 1), (0, 1)),
    ]
    return _terms_from_ints((2, 2, 2), rows)


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
    lazy = KroneckerPowerTerms(d.terms, n)
    if total * sum(dims) <= _MATERIALIZE_SCALARS:
        return ProductDecomposition(dims, tuple(lazy))
    return ProductDecomposition(dims, lazy)


def verify_power_randomized(base_target: Tensor3, power: ProductDecomposition,
                            probes: int = 20, seed: int = 0) -> VerifyResult:
    """Randomized contraction check of a Kronecker-power decomposition
    against the matching tensor power of `base_target`, without
    materializing either side.

    Each probe draws fresh random rational vectors per copy and per leg
    and compares the exact contraction of both sides:

      product_j sum_k (a_k . x_j)(b_k . y_j)(c_k . z_j)
        ==  product_j <base_target, x_j, y_j, z_j>

    The left side equals the full contraction of all r^n terms against the
    Kronecker probe (distributivity), and product vectors span the whole
    probe space, so the identity holding for all probes characterizes
    equality.  The check is one-sided Schwartz-Zippel style: a true
    mismatch is a nonzero polynomial in the probe entries and survives
    undetected only if every probe lands on a root, which has vanishing
    probability over fresh random rationals.
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
    return _probe(base_target, base, n, probes, seed)


def _probe(target: Tensor3, d: ProductDecomposition, copies: int, probes: int,
           seed: int) -> VerifyResult:
    """The randomized contraction check shared by both verifiers: each of
    `probes` probes draws rational x, y, z per copy from a stdlib generator
    seeded with `seed` and compares the products over the copies of
    <d, x, y, z> and <target, x, y, z>; one copy checks d against target
    itself."""
    rng = random.Random(seed)
    da, db, dc = target.dims
    for _ in range(probes):
        lhs = rhs = ONE
        for _ in range(copies):
            x = sampling.vector(rng, da)
            y = sampling.vector(rng, db)
            z = sampling.vector(rng, dc)
            lhs = lhs * decomposition_contract(d, x, y, z)
            rhs = rhs * contract(target, x, y, z)
        if lhs != rhs:
            return VerifyResult(False, None, randomized=True)
    return VerifyResult(True, randomized=True)


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

    def e(a, b, c):
        return t[(a, b, c)]

    t000, t001, t010, t011 = e(0, 0, 0), e(0, 0, 1), e(0, 1, 0), e(0, 1, 1)
    t100, t101, t110, t111 = e(1, 0, 0), e(1, 0, 1), e(1, 1, 0), e(1, 1, 1)
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
    if min(flattening_rank(t, leg) for leg in LEGS) < 2:
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
        """Exact-match a tensor against the registered states."""
        da, db, dc = t.dims
        if da == db == dc:
            ghz = builtin_state("GHZ", da)
            if t == ghz:
                return (f"GHZ({da})", RankFact(da, "diagonal state: rank equals level count"))
        if t.dims == (2, 2, 2) and t == builtin_state("W"):
            return ("W", self._named["W"])
        if t.dims == (4, 4, 4) and t == builtin_state("PHI3"):
            return ("PHI3", self._named["PHI3"])
        return None


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
    (name, RankFact) or None, and the packaged witness or None."""

    target: Tensor3
    flattening_ranks: dict
    fact: tuple[str, RankFact] | None

    @property
    def lower(self) -> int:
        return max(*self.flattening_ranks.values(), self.fact[1].rank if self.fact else 0)

    @cached_property
    def witness(self) -> ProductDecomposition | None:
        """Built and verified against the target on first use, so a verdict
        the lower bound decides pays for no witness."""
        return None if self.fact is None else builtin_witness(self.target, self.fact[0])

    @property
    def upper(self) -> int | None:
        return None if self.witness is None else len(self.witness.terms)


def rank_bounds(t: Tensor3) -> RankBounds:
    """The lower and upper rank bounds of t from flattenings, the
    RankFacts registry and the packaged witnesses; the one place these
    sources are combined."""
    return RankBounds(t, {leg: flattening_rank(t, leg) for leg in LEGS},
                      DEFAULT_RANK_FACTS.lookup(t))


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
    r = a.shape[1]
    for k in range(r):
        for f, absorb in ((a, True), (b, True)):
            col = f[:, k]
            peak = col[np.argmax(np.abs(col))]
            if peak == 0:
                return None
            f[:, k] = col / peak
            c[:, k] = c[:, k] * peak

    def round_entry(z):
        re = Fraction(float(z.real)).limit_denominator(max_denominator)
        im = Fraction(float(z.imag)).limit_denominator(max_denominator)
        if abs(complex(re) + 1j * complex(im) - z) > 1e-6:
            return None
        return Scalar(re, im)

    terms = []
    for k in range(r):
        vecs = []
        for f in (a, b, c):
            v = tuple(round_entry(z) for z in f[:, k])
            if any(x is None for x in v):
                return None
            vecs.append(v)
        if not all(any(v) for v in vecs):
            return None
        terms.append(tuple(vecs))
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
    """Each distinct Scalar object is encoded once; its JSON value (a string,
    or one shared {"re", "im"} dict) stands wherever the object does."""
    terms = list(d.terms)
    distinct, index = distinct_objects(x for term in terms for vector in term for x in vector)
    encoded = [scalar_to_json(x) for x in distinct]
    values = iter(index)
    return {
        "dims": list(d.dims),
        "terms": [
            {leg: [encoded[next(values)] for _ in vector] for leg, vector in zip("abc", term)}
            for term in terms
        ],
    }


def decomposition_from_json(obj: dict) -> ProductDecomposition:
    if not isinstance(obj, dict):
        raise InputError(f"decomposition JSON must be an object, got {type(obj).__name__}")
    if obj.get("exact", True) is False:
        raise InputError("float decomposition cannot be loaded as an exact witness")
    dims = json_ints(obj.get("dims"), 3, "decomposition JSON dims")
    terms = []
    memo = {}
    try:
        for item in obj["terms"]:
            terms.append(tuple(
                tuple(scalar_from_json(v, memo) for v in item[leg]) for leg in ("a", "b", "c")
            ))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed decomposition JSON: {exc!r}") from exc
    return make_decomposition(dims, terms)


def float_decomposition_to_json(dims, factors) -> dict:
    a, b, c = factors
    terms = []
    for k in range(a.shape[1]):
        terms.append({
            "a": [{"re": float(z.real), "im": float(z.imag)} for z in a[:, k]],
            "b": [{"re": float(z.real), "im": float(z.imag)} for z in b[:, k]],
            "c": [{"re": float(z.real), "im": float(z.imag)} for z in c[:, k]],
        })
    return {"dims": list(dims), "exact": False, "terms": terms}
