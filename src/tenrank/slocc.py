"""Stochastic local transformation logic.

Converting a level-N GHZ state into a target by local filtering succeeds
with nonzero probability exactly when the target admits a decomposition
with at most N terms.  From any such witness this module assembles the
one-operator-per-party protocol (each operator completed to a valid
measurement by scaling its largest singular value to one), simulates it,
decides convertibility where the bounds are decisive, and classifies
three-qubit states into their six local-equivalence classes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .als import AlsConfig
from .decomp import (
    ProductDecomposition,
    als_search,
    decomposition_to_json,
    hyperdeterminant_2x2x2,
    leg_arrays,
    rank_bounds,
    rationalize_result,
    reconstruct,
    require_witness,
)
from .errors import InputError, ResourceError
from .scalars import Leg, _floats
from .tensors import LocalOperatorTriple, Tensor3, dense_dims, flattening_rank, flattening_ranks

#: dense protocol operators are only assembled up to this GHZ level
PROTOCOL_DIM_CAP = 1 << 14


# ---------------------------------------------------------------------------
# Protocol construction and simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SloccProtocol:
    """One local filtering operator per party, scaled to measurement form.

    `ops` are complex float matrices with largest singular value 1, so
    each party can complete its operator M to the two-outcome measurement
    {M, sqrt(I - M^dag M)}.  `exact_ops`, built from the verified `witness`
    on first use, are the unscaled exact operators: applying those to the
    level-N GHZ state reproduces the target exactly, which is what
    certifies the success probability is nonzero before any floats enter.
    """

    ops: tuple            # three complex128 ndarrays, scaled
    witness: ProductDecomposition
    scales: tuple         # the three largest singular values divided out
    source_dim: int
    success_probability: float
    target: Tensor3

    def input_dims(self) -> tuple:
        return (self.source_dim,) * 3

    @cached_property
    def exact_ops(self) -> LocalOperatorTriple:
        """Leg A sends GHZ basis vector i to the witness's i-th a-vector for
        i < r and to zero for r <= i < n (likewise B and C): the witness's
        Legs transposed and zero-padded to n columns."""
        def padded(part):  # zeros of part's dtype: Python ints for dtype object
            zeros = np.zeros((part.shape[1], self.source_dim - len(part)), dtype=part.dtype)
            return np.hstack([part.T, zeros])

        return LocalOperatorTriple(*(Leg(padded(leg.re), padded(leg.im), leg.den)
                                     for leg in leg_arrays(self.witness)))


def build_protocol(d: ProductDecomposition, n: int,
                   target: Tensor3 | None = None) -> SloccProtocol:
    """Assemble the GHZ(n) -> target protocol from an r-term witness.

    The exact operators (`SloccProtocol.exact_ops`) map GHZ(n) to the
    target exactly; the float operators are the same matrices, divided
    from the witness's Legs into complex floats, scaled by their largest
    singular values for the measurement form.  The reported success
    probability refers to the all-parties-succeed branch on the GHZ(n)
    source.
    """
    r = len(d.terms)
    if n < r:
        raise InputError(f"GHZ level count {n} is below the witness term count {r}")
    if n > PROTOCOL_DIM_CAP:
        raise ResourceError(f"GHZ level count {n} exceeds the dense protocol cap "
                            f"{PROTOCOL_DIM_CAP}")
    if target is None:
        target = reconstruct(d)
    else:
        require_witness(target, d)
    if target.is_zero():
        raise InputError("witness reconstructs the zero tensor; no protocol exists")

    float_ops = []
    scales = []
    try:
        for leg, dim in zip(leg_arrays(d), d.dims):
            # the padding columns stay the zeros the array starts with
            arr = np.zeros((dim, n), dtype=np.complex128)
            arr[:, :r] = _floats(leg).T
            sigma = float(np.linalg.svd(arr, compute_uv=False)[0])
            float_ops.append(arr / sigma)
            scales.append(sigma)
        # (A x B x C) GHZ(n) equals the target exactly, so after scaling the
        # outcome is target / (sA sB sC) and the probability follows directly.
        norm_sq_target = float(target.norm_sq())
        scale_sq = (scales[0] * scales[1] * scales[2]) ** 2
    except OverflowError as exc:
        raise ResourceError(f"witness values exceed the float range of the protocol: "
                            f"{exc}") from exc
    probability = norm_sq_target / scale_sq / n
    return SloccProtocol(
        ops=tuple(float_ops),
        witness=d,
        scales=tuple(scales),
        source_dim=n,
        success_probability=probability,
        target=target,
    )


def simulate(p: SloccProtocol, source: Tensor3 | None = None) -> tuple:
    """Apply the scaled protocol operators to a source state.

    Returns (outcome, probability) where outcome is the float tensor after
    all three parties succeed and probability = |outcome|^2 / |source|^2.
    The source defaults to the protocol's own GHZ(source_dim), for which
    the outcome direction matches the protocol's target within float
    accuracy.
    """
    a, b, c = p.ops
    d_a, d_b = len(a), len(b)
    if source is None:
        # GHZ(n)'s nonzeros are the ones at (j, j, j), so leg A sends it to
        # out[j, :, j] = A[:, j], zeros elsewhere; its norm is sqrt(n)
        n = dense_dims(p.input_dims())[0]
        out = np.zeros((n, d_a, n), dtype=np.complex128)
        out[np.arange(n), :, np.arange(n)] = a.T
        norm_src = math.sqrt(n)
    elif source.dims != p.input_dims():
        raise InputError(f"source dims {source.dims} do not match protocol input "
                         f"{p.input_dims()}")
    else:
        src = source.to_numpy()
        n, norm_src = len(src), float(np.linalg.norm(src))
        out = np.tensordot(a, src, axes=(1, 0)).transpose(1, 0, 2)
    # out is the source after leg A with axes (B, A, C): legs B and C are the
    # np.dot calls np.tensordot makes, on the bytes it would pass, and only
    # leg C's operand is still a transposing copy
    out = np.dot(b, out.reshape(n, d_a * n)).reshape(d_b, d_a, n)
    out = np.dot(c, out.transpose(2, 1, 0).reshape(n, d_a * d_b))
    outcome = out.reshape(len(c), d_a, d_b).transpose(1, 2, 0)
    if norm_src == 0.0:
        raise InputError("source tensor is zero")
    probability = float(np.linalg.norm(outcome) ** 2 / norm_src ** 2)
    return outcome, probability


def direction_deviation(x: np.ndarray, y: np.ndarray) -> float:
    """Phase-insensitive relative deviation between the directions of two
    nonzero arrays: || x/|x| - e^{i t} y/|y| || minimized over the phase."""
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise InputError("direction of a zero array is undefined")
    xn, yn = x / nx, y / ny
    overlap = np.vdot(yn, xn)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(xn - phase * yn))


# ---------------------------------------------------------------------------
# Convertibility decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvertVerdict:
    """Outcome of a GHZ(N) -> target decision.

    yes      carries an exact witness with at most N terms
    no       carries a lower-bound certificate exceeding N
    unknown  reports the best bounds established either way
    """

    kind: str  # "yes" | "no" | "unknown"
    witness: ProductDecomposition | None = None
    reason: str | None = None
    lower_bound: int | None = None
    upper_bound: int | None = None


def decide_ghz_conversion(target: Tensor3, n: int,
                          witness: ProductDecomposition | None = None,
                          search: bool = True,
                          als_cfg: AlsConfig | None = None) -> ConvertVerdict:
    """Decide GHZ(n) -> target convertibility where decidable.

    Yes requires an exact witness with at most n terms (caller-provided,
    builtin, an exact simultaneous diagonalization for a target in the
    GHZ(r) orbit, r the largest flattening rank, or found by the ALS search
    when `search` is set and rationalized); No requires a lower
    bound above n from flattening ranks, the registered exact ranks or the
    2x2x2 rank test.
    Anything else is Unknown with both bounds reported.  A caller witness
    that does not reconstruct the target raises WitnessMismatch.  A caller
    witness with at most n terms decides before any rank bound is computed.
    """
    if n < 1:
        raise InputError("GHZ level count must be positive")
    upper = None
    if witness is not None:
        upper = len(require_witness(target, witness).terms)
        if upper <= n:
            return ConvertVerdict("yes", witness=witness, upper_bound=upper,
                                  lower_bound=None)

    bounds = rank_bounds(target)
    flattening = max(bounds.flattening_ranks.values())
    lower = bounds.lower
    if flattening > n:
        return ConvertVerdict("no", reason=f"flattening rank {flattening} > {n}",
                              lower_bound=flattening, upper_bound=upper)
    if lower > n:
        # above the flattening ranks, the lower bound is a registered fact
        # or, for a 2x2x2 target, the rank test's rank >= 3
        if bounds.fact is not None and bounds.fact[1].rank == lower:
            name, fact = bounds.fact
            reason = f"registered exact rank of {name} is {fact.rank} > {n} ({fact.note})"
        else:
            reason = (f"2x2x2 rank test: rank >= 3 > {n} (every flattening rank 2, "
                      f"hyperdeterminant zero: W class)")
        return ConvertVerdict("no", reason=reason, lower_bound=lower, upper_bound=upper)
    if bounds.upper is not None and bounds.upper <= n:
        return ConvertVerdict("yes", witness=bounds.witness,
                              upper_bound=bounds.upper, lower_bound=lower)

    if search:
        found = als_search(target, n, als_cfg)
        if found.found:
            exact = rationalize_result(target, found)
            if exact is not None and len(exact.terms) <= n:
                return ConvertVerdict("yes", witness=exact,
                                      upper_bound=len(exact.terms), lower_bound=lower)
    return ConvertVerdict("unknown", lower_bound=lower, upper_bound=upper)


def bipartite_convertible(source: Tensor3, target: Tensor3) -> bool:
    """Single-copy stochastic convertibility for bipartite states (encoded
    as tensors with dC = 1): possible exactly when the source's local rank
    is at least the target's."""
    if source.dims[2] != 1 or target.dims[2] != 1:
        raise InputError("bipartite states must have dC = 1")
    return flattening_rank(source, "A") >= flattening_rank(target, "A")


# ---------------------------------------------------------------------------
# Three-qubit classification
# ---------------------------------------------------------------------------


class ThreeQubitClass(enum.Enum):
    ZERO = "zero"
    PRODUCT = "product"
    BISEP_A_BC = "bisep_a_bc"
    BISEP_B_AC = "bisep_b_ac"
    BISEP_C_AB = "bisep_c_ab"
    W = "w"
    GHZ = "ghz"


def classify_three_qubit(t: Tensor3) -> ThreeQubitClass:
    """Exact classification of an (unnormalized) three-qubit state into
    the six local-equivalence classes, with Zero as a degenerate label.

    Flattening ranks separate the degenerate classes; the genuinely
    tripartite states split into GHZ (hyperdeterminant nonzero) and W
    (hyperdeterminant zero), all decided over exact arithmetic.
    """
    if t.dims != (2, 2, 2):
        raise InputError(f"classification needs dims (2, 2, 2), got {t.dims}")
    if t.is_zero():
        return ThreeQubitClass.ZERO
    ranks = flattening_ranks(t)
    low = [leg for leg, r in ranks.items() if r == 1]
    if len(low) == 3:
        return ThreeQubitClass.PRODUCT
    if len(low) == 2:
        # two legs of rank 1 force the third to 1 as well
        raise RuntimeError(f"inconsistent flattening ranks {ranks}")
    if low:
        return {
            "A": ThreeQubitClass.BISEP_A_BC,
            "B": ThreeQubitClass.BISEP_B_AC,
            "C": ThreeQubitClass.BISEP_C_AB,
        }[low[0]]
    return ThreeQubitClass.GHZ if hyperdeterminant_2x2x2(t) else ThreeQubitClass.W


# ---------------------------------------------------------------------------
# Rank-based entanglement bounds
# ---------------------------------------------------------------------------


def schmidt_measure_bounds(t: Tensor3,
                           witness: ProductDecomposition | None = None) -> tuple:
    """(lower, upper) bounds on log2 of the tensor rank.

    The lower bound is `rank_bounds(t).lower`; the upper bound is log2 of
    the witness term count when a witness is given (None otherwise).
    """
    lower_rank = rank_bounds(t).lower
    upper = None
    if witness is not None:
        upper = math.log2(len(require_witness(t, witness).terms))
    lower = math.log2(lower_rank) if lower_rank > 0 else 0.0
    return (lower, upper)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def _json_float(x: float) -> str:
    """A float as json.dumps spells it: repr when finite, else NaN or
    (-)Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _float_matrix_json(arr: np.ndarray) -> str:
    """A complex matrix as the text json.dumps gives for
    {"rows": R, "cols": C, "data": [[{"re": x, "im": y}, ...], ...]}.

    The entries are told apart by their raw bits, so -0.0 keeps its sign,
    and the rows are joined from one fragment per distinct (re, im) pair.
    """
    rows, cols = arr.shape
    flat = np.ascontiguousarray(arr, dtype=np.complex128).ravel()
    keys, inverse = np.unique(flat.view("V16"), return_inverse=True)
    fragments = np.array([f'{{"re": {_json_float(z.real)}, "im": {_json_float(z.imag)}}}'
                          for z in keys.view(np.complex128).tolist()], dtype=object)
    data = ", ".join("[" + ", ".join(row) + "]"
                     for row in fragments[inverse].reshape(rows, cols).tolist())
    return f'{{"rows": {rows}, "cols": {cols}, "data": [{data}]}}'


def protocol_to_json(p: SloccProtocol) -> str:
    """The protocol file's text, equal to json.dumps of
    {"operators": {"A": matrix, "B": matrix, "C": matrix}, "exact": false,
     "source_dim": N, "success_probability": x}
    with each operator in the float matrix form of `_float_matrix_json`."""
    operators = ", ".join(f'"{leg}": {_float_matrix_json(op)}'
                          for leg, op in zip("ABC", p.ops))
    return (f'{{"operators": {{{operators}}}, "exact": false, '
            f'"source_dim": {int(p.source_dim)}, '
            f'"success_probability": {_json_float(p.success_probability)}}}')


def verdict_to_json(v: ConvertVerdict) -> dict:
    witness = None
    if v.witness is not None and len(v.witness.terms) <= 4096:
        witness = decomposition_to_json(v.witness)
    return {
        "verdict": v.kind,
        "witness": witness,
        "reason": v.reason,
        "lower_bound": v.lower_bound,
        "upper_bound": v.upper_bound,
    }
