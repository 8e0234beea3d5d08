"""Alternating least squares over complex floats: the numeric rank-search
backend.

This is the one deliberately inexact corner of the package: factors are
complex128 numpy arrays and results are promoted to exact witnesses only
through the rationalization pass in `tenrank.decomp`.  All restarts run
in lockstep as one batch: restart i starts from its own generator, seeded
by (seed, i), and its factors sit at index i of stacked (R, d, r) arrays,
so each sweep costs one stacked solve per mode whatever the restart
count.  A restart that converges or stalls leaves the batch with its
factors, residual and sweep count frozen; the rest sweep on.  The merged
outcome is deterministic: the smallest residual wins, ties going to the
lowest restart index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class AlsConfig:
    restarts: int = 20
    max_sweeps: int = 2000
    tol: float = 1e-8
    seed: int = 0
    ridge: float = 1e-12
    #: a sweep improving the relative residual by less than this counts as
    #: converged-or-stalled and stops the restart
    stall_improvement: float = 1e-12
    #: border-rank symptom threshold: max rank-1 term norm relative to the
    #: tensor norm (diverging, mutually cancelling terms grow past this
    #: while bounded optima stay well below 1)
    border_term_ratio: float = 2.0

    def validate(self) -> None:
        if self.restarts < 1 or self.max_sweeps < 1:
            raise InputError("restarts and max_sweeps must be positive")
        if not (self.tol > 0):
            raise InputError("tol must be positive")
        if self.ridge < 0:
            raise InputError("ridge must be nonnegative")


@dataclass
class AlsResult:
    found: bool
    residual: float
    border_flag: bool
    factors: list = field(repr=False)  # [A (dA,r), B (dB,r), C (dC,r)]
    restart: int = 0
    sweeps: int = 0

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]


def _initial_factors(dims, r: int, cfg: AlsConfig) -> list:
    """Starting factors stacked as [A (R,dA,r), B (R,dB,r), C (R,dC,r)];
    member i is drawn from its own generator seeded by (cfg.seed, i)."""
    draws = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        draws.append([rng.uniform(-1.0, 1.0, (d, r)) + 1j * rng.uniform(-1.0, 1.0, (d, r))
                      for d in dims])
    return [np.stack([draw[m] for draw in draws]) for m in range(3)]


def _solve(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lhs[n] x = rhs[n] for every member in one stacked call.  A
    stacked solve fails as a whole if any member is singular; then each
    member is solved alone and only the singular ones fall back to lstsq."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for n, (g, b) in enumerate(zip(lhs, rhs)):
            try:
                out[n] = np.linalg.solve(g, b)
            except np.linalg.LinAlgError:
                out[n] = np.linalg.lstsq(g, b, rcond=None)[0]
        return out


def _norms(z: np.ndarray) -> np.ndarray:
    """Row norms of a complex (n, k) array.  Each row is summed as
    np.linalg.norm sums a lone vector, one real dot product per part, so a
    restart's residual does not depend on the batch it ran in."""
    re, im = z.real, z.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _max_term_norm(factors) -> float:
    norms = [np.linalg.norm(f, axis=0) for f in factors]
    return float(np.max(norms[0] * norms[1] * norms[2]))


def als_decompose(arr: np.ndarray, r: int, cfg: AlsConfig | None = None) -> AlsResult:
    """Search for a rank-r float decomposition of a dense complex array.

    Runs all cfg.restarts independent ALS restarts and keeps the smallest
    residual (ties: lowest restart index).  `found` means relative residual
    <= cfg.tol.  When the search fails, `border_flag` reports the classic
    border-rank symptom: the best restart exhausted its sweeps with the
    residual still improving while rank-1 terms grew far beyond the tensor
    norm (mutually cancelling diverging terms).
    """
    cfg = cfg or AlsConfig()
    cfg.validate()
    if r < 1:
        raise InputError("rank must be >= 1")
    if arr.ndim != 3:
        raise InputError("als_decompose expects an order-3 array")
    if not np.all(np.isfinite(arr)):
        raise InputError("tensor contains non-finite values")

    factors = _initial_factors(arr.shape, r, cfg)
    norm_t = float(np.linalg.norm(arr))
    if norm_t == 0.0:
        return AlsResult(found=True, residual=0.0, border_flag=False,
                         factors=[f[0].copy() for f in factors])

    # per-restart outcomes, each written once when its restart stops;
    # `active` lists the restarts still sweeping and `factors` holds only
    # their members, in the same order
    residuals = np.empty(cfg.restarts)
    sweeps = np.full(cfg.restarts, cfg.max_sweeps)
    stalled = np.zeros(cfg.restarts, dtype=bool)
    final = [np.empty_like(f) for f in factors]
    active = np.arange(cfg.restarts)
    prev = np.full(cfg.restarts, np.inf)
    unfoldings = [np.moveaxis(arr, m, 0).reshape(arr.shape[m], -1) for m in range(3)]
    ridge = cfg.ridge * np.eye(r)
    # each factor's conjugate and Gram matrix are formed once, when it is
    # updated, and serve the other two modes' updates until its next one
    conjugates = [f.conj() for f in factors]
    grams = [fc.transpose(0, 2, 1) @ f for fc, f in zip(conjugates, factors)]
    for sweep in range(cfg.max_sweeps):
        for mode in range(3):
            i, j = (m for m in range(3) if m != mode)
            xc, yc = conjugates[i], conjugates[j]
            khatri_rao_conj = (xc[:, :, None, :] * yc[:, None, :, :]).reshape(len(active), -1, r)
            rhs = unfoldings[mode] @ khatri_rao_conj
            f = _solve(grams[i] * grams[j] + ridge, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
            factors[mode], conjugates[mode] = f, f.conj()
            grams[mode] = conjugates[mode].transpose(0, 2, 1) @ f
        approx = np.einsum("nir,njr,nkr->nijk", *factors)
        residual = _norms((approx - arr).reshape(len(active), -1)) / norm_t
        converged = residual <= cfg.tol
        stall = ~converged & (prev - residual < cfg.stall_improvement)
        done = converged | stall
        if done.any():
            leaving = active[done]
            residuals[leaving] = residual[done]
            sweeps[leaving] = sweep + 1
            stalled[leaving] = stall[done]
            for out, f in zip(final, factors):
                out[leaving] = f[done]
            keep = ~done
            active, residual = active[keep], residual[keep]
            factors = [f[keep] for f in factors]
            conjugates = [fc[keep] for fc in conjugates]
            grams = [g[keep] for g in grams]
        prev = residual
        if not len(active):
            break
    # restarts that used every sweep end unstalled with their last residual
    residuals[active] = prev
    for out, f in zip(final, factors):
        out[active] = f

    # first minimum: the lowest restart index wins a tie
    restart = min(range(cfg.restarts), key=residuals.__getitem__)
    residual = float(residuals[restart])
    factors = [f[restart].copy() for f in final]
    found = residual <= cfg.tol
    border = False
    if not found:
        diverging = _max_term_norm(factors) > cfg.border_term_ratio * norm_t
        border = not stalled[restart] and diverging
    return AlsResult(
        found=found,
        residual=residual,
        border_flag=border,
        factors=factors,
        restart=restart,
        sweeps=int(sweeps[restart]),
    )
