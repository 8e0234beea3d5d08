import random

import numpy as np
import pytest

from conftest import nonzero_vector

from tenrank.als import (
    AlsConfig,
    AlsResult,
    _initial_factors,
    _max_term_norm,
    _norms,
    _solve,
    als_decompose,
)
from tenrank.decomp import (
    als_search,
    builtin_state,
    make_decomposition,
    rationalize_result,
    reconstruct,
    verify_decomposition,
)
from tenrank.errors import InputError

# -- per-restart reference -------------------------------------------------------
# The sequential ALS that als_decompose batches: each restart runs alone
# from the generator seeded by (seed, restart) and the smallest residual
# wins, ties going to the lowest restart index.


def _khatri_rao(x, y):
    r = x.shape[1]
    return (x[:, None, :] * y[None, :, :]).reshape(-1, r)


def _reconstruct(factors):
    a, b, c = factors
    return np.einsum("ir,jr,kr->ijk", a, b, c)


def _single_restart(arr, r, cfg, restart):
    rng = np.random.default_rng([cfg.seed, restart])
    dims = arr.shape
    factors = [
        rng.uniform(-1.0, 1.0, (d, r)) + 1j * rng.uniform(-1.0, 1.0, (d, r))
        for d in dims
    ]
    norm_t = np.linalg.norm(arr)
    if norm_t == 0.0:
        return 0.0, factors, 0, True
    unfoldings = [np.moveaxis(arr, m, 0).reshape(dims[m], -1) for m in range(3)]
    eye = np.eye(r)
    prev = np.inf
    stalled = False
    sweeps = 0
    residual = np.inf
    for sweep in range(cfg.max_sweeps):
        for mode in range(3):
            others = [factors[m] for m in range(3) if m != mode]
            k = _khatri_rao(others[0], others[1])
            gram = (others[0].conj().T @ others[0]) * (others[1].conj().T @ others[1])
            rhs = unfoldings[mode] @ np.conj(k)
            try:
                factors[mode] = np.linalg.solve(gram + cfg.ridge * eye, rhs.T).T
            except np.linalg.LinAlgError:
                factors[mode] = np.linalg.lstsq(gram + cfg.ridge * eye, rhs.T,
                                                rcond=None)[0].T
        residual = float(np.linalg.norm(_reconstruct(factors) - arr) / norm_t)
        sweeps = sweep + 1
        if residual <= cfg.tol:
            break
        if prev - residual < cfg.stall_improvement:
            stalled = True
            break
        prev = residual
    return residual, factors, sweeps, stalled


def _reference_decompose(arr, r, cfg):
    best = None
    for restart in range(cfg.restarts):
        residual, factors, sweeps, stalled = _single_restart(arr, r, cfg, restart)
        if best is None or residual < best[0]:
            best = (residual, factors, sweeps, stalled, restart)
    residual, factors, sweeps, stalled, restart = best
    found = residual <= cfg.tol
    border = False
    if not found:
        norm_t = float(np.linalg.norm(arr))
        diverging = norm_t > 0 and (
            _max_term_norm(factors) > cfg.border_term_ratio * norm_t
        )
        border = (not stalled) and diverging
    return found, residual, border, restart, sweeps


def _assert_same_outcome(result, reference):
    found, residual, border, restart, sweeps = reference
    # plain Python types: the CLI writes these fields to JSON
    assert (type(result.found), type(result.border_flag), type(result.residual),
            type(result.restart), type(result.sweeps)) == (bool, bool, float, int, int)
    assert (result.found, result.border_flag, result.restart, result.sweeps) == (
        found, border, restart, sweeps)
    assert abs(result.residual - residual) <= 1e-12 * residual


def _assert_matches_reference(arr, r, cfg):
    _assert_same_outcome(als_decompose(arr, r, cfg), _reference_decompose(arr, r, cfg))


def _random_rank2_tensors(count):
    """Tensors rebuilt from random exact 2-term witnesses (seeded)."""
    rng = random.Random(149)
    for _ in range(count):
        terms = [
            tuple(nonzero_vector(rng, 2, max_num=2) for _ in range(3))
            for _ in range(2)
        ]
        yield reconstruct(make_decomposition((2, 2, 2), terms))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_batch_matches_per_restart_reference_on_w(r, seed):
    # a full (W, r=2) reference run costs seconds: seeds 1 and 7 take the
    # border case through 500 sweeps instead of 2000
    sweeps = 500 if r == 2 and seed else 2000
    _assert_matches_reference(builtin_state("W").to_numpy(), r,
                              AlsConfig(seed=seed, max_sweeps=sweeps))


def test_batch_matches_per_restart_reference_on_other_inputs():
    ghz = builtin_state("GHZ", 2).to_numpy()
    for seed in (0, 1, 7):
        _assert_matches_reference(ghz, 2, AlsConfig(seed=seed, tol=1e-10))
    for seed, t in enumerate(_random_rank2_tensors(3)):
        _assert_matches_reference(t.to_numpy(), 2, AlsConfig(seed=seed))
    w = builtin_state("W").to_numpy()
    _assert_matches_reference(w, 2, AlsConfig(restarts=1, max_sweeps=300))
    _assert_matches_reference(w, 2, AlsConfig(max_sweeps=1))
    # the best restart stalls after its terms grew past the border ratio:
    # no border flag, because it stalled
    _assert_matches_reference(w, 2, AlsConfig(stall_improvement=1e-5))
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    _assert_matches_reference(dense, 3, AlsConfig(max_sweeps=100))


# -- batched reference with per-mode Gram matrices -------------------------------
# The batched loop as it was before each factor kept its conjugate and Gram
# matrix from its own update: every mode update forms the Gram matrices of
# both other factors and conjugates their Khatri-Rao product.


def _per_mode_gram_decompose(arr, r, cfg):
    factors = _initial_factors(arr.shape, r, cfg)
    norm_t = float(np.linalg.norm(arr))
    residuals = np.empty(cfg.restarts)
    sweeps = np.full(cfg.restarts, cfg.max_sweeps)
    stalled = np.zeros(cfg.restarts, dtype=bool)
    final = [np.empty_like(f) for f in factors]
    active = np.arange(cfg.restarts)
    prev = np.full(cfg.restarts, np.inf)
    unfoldings = [np.moveaxis(arr, m, 0).reshape(arr.shape[m], -1) for m in range(3)]
    ridge = cfg.ridge * np.eye(r)
    for sweep in range(cfg.max_sweeps):
        for mode in range(3):
            x, y = (factors[m] for m in range(3) if m != mode)
            khatri_rao = (x[:, :, None, :] * y[:, None, :, :]).reshape(len(active), -1, r)
            gram = (x.conj().transpose(0, 2, 1) @ x) * (y.conj().transpose(0, 2, 1) @ y)
            rhs = unfoldings[mode] @ khatri_rao.conj()
            factors[mode] = _solve(gram + ridge, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
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
        prev = residual
        if not len(active):
            break
    residuals[active] = prev
    for out, f in zip(final, factors):
        out[active] = f
    restart = min(range(cfg.restarts), key=residuals.__getitem__)
    residual = float(residuals[restart])
    factors = [f[restart].copy() for f in final]
    found = residual <= cfg.tol
    border = False
    if not found:
        diverging = _max_term_norm(factors) > cfg.border_term_ratio * norm_t
        border = not stalled[restart] and diverging
    return AlsResult(found=found, residual=residual, border_flag=border, factors=factors,
                     restart=restart, sweeps=int(sweeps[restart]))


def test_kept_gram_matrices_give_bit_identical_results():
    w, ghz = builtin_state("W").to_numpy(), builtin_state("GHZ", 2).to_numpy()
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    real = rng.standard_normal((3, 3, 2)).astype(complex)
    cases = [(w, 2, AlsConfig(seed=0, max_sweeps=400)), (w, 3, AlsConfig(seed=1)),
             (ghz, 2, AlsConfig(seed=2)), (real, 3, AlsConfig(seed=1, max_sweeps=300)),
             # restarts stop at many different sweeps, so the batch shrinks often
             (dense, 4, AlsConfig(seed=0, max_sweeps=300))]
    for arr, r, cfg in cases:
        result, expected = als_decompose(arr, r, cfg), _per_mode_gram_decompose(arr, r, cfg)
        assert (result.found, result.border_flag, result.restart, result.sweeps) == (
            expected.found, expected.border_flag, expected.restart, expected.sweeps)
        assert result.residual == expected.residual
        for f, g in zip(result.factors, expected.factors):
            assert f.shape == g.shape and f.tobytes() == g.tobytes()


def test_singular_gram_falls_back_to_lstsq_per_member(monkeypatch):
    # with ridge 0 the Gram matrices of these inputs are exactly singular
    # for some restarts and not for others; every restart must take the
    # branch it takes alone, so the lstsq call counts agree
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    for arr, r in ((np.ones((1, 1, 1), dtype=complex), 2),
                   (np.ones((2, 2, 2), dtype=complex), 5)):
        cfg = AlsConfig(ridge=0.0, max_sweeps=50)
        calls.clear()
        result = als_decompose(arr, r, cfg)
        batched = len(calls)
        calls.clear()
        _assert_same_outcome(result, _reference_decompose(arr, r, cfg))
        assert batched == len(calls) > 0


def test_solve_calls_are_per_sweep_not_per_restart(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    cfg = AlsConfig()
    result = als_search(builtin_state("W"), 2, cfg)
    assert result.border_flag
    assert len(calls) <= 3 * cfg.max_sweeps


def test_returned_factors_own_their_data():
    result = als_search(builtin_state("GHZ", 2), 2)
    assert all(f.flags.owndata for f in result.factors)
    zero = als_decompose(np.zeros((2, 2, 2), dtype=complex), 1)
    assert all(f.flags.owndata for f in zero.factors)


def test_ghz_rank2_found_tightly():
    result = als_search(builtin_state("GHZ", 2), 2, AlsConfig(tol=1e-10))
    assert result.found
    assert result.residual <= 1e-10
    assert not result.border_flag


def test_w_rank3_found_with_default_config():
    result = als_search(builtin_state("W"), 3)
    assert result.found
    assert result.residual <= 1e-8


def test_w_rank2_not_found_with_border_flag():
    # the classic border-rank tensor: residual keeps improving while the
    # rank-1 terms diverge and cancel
    result = als_search(builtin_state("W"), 2)
    assert not result.found
    assert result.border_flag
    assert 1e-4 < result.residual < 1e-1


def test_found_reconstruction_is_close():
    t = builtin_state("GHZ", 2)
    result = als_search(t, 2, AlsConfig(tol=1e-10))
    a, b, c = result.factors
    approx = np.einsum("ir,jr,kr->ijk", a, b, c)
    arr = t.to_numpy()
    assert np.linalg.norm(approx - arr) / np.linalg.norm(arr) <= 1e-10


def test_rationalize_promotes_ghz_to_exact_witness():
    t = builtin_state("GHZ", 2)
    result = als_search(t, 2, AlsConfig(tol=1e-10))
    witness = rationalize_result(t, result)
    assert witness is not None
    assert len(witness.terms) == 2
    assert verify_decomposition(t, witness).ok


def test_rationalize_rejects_unstructured_factors():
    # deliberately garbled factors should not rationalize into a witness
    t = builtin_state("GHZ", 2)
    result = als_search(t, 2, AlsConfig(tol=1e-10))
    result.factors[0][:] = result.factors[0] + 0.37
    assert rationalize_result(t, result) is None


def test_search_succeeds_on_random_tensors_with_known_witnesses():
    # any tensor built from an exact rank-r witness is found at rank r
    for t in _random_rank2_tensors(5):
        if t.is_zero():
            continue
        result = als_search(t, 2)
        assert result.found and result.residual <= 1e-8


def test_determinism_for_fixed_seed():
    t = builtin_state("W")
    first = als_search(t, 2)
    second = als_search(t, 2)
    assert first.residual == second.residual
    assert first.restart == second.restart
    assert first.border_flag == second.border_flag


def test_config_validation():
    t = builtin_state("W")
    with pytest.raises(InputError):
        als_search(t, 0)
    with pytest.raises(InputError):
        als_search(t, 2, AlsConfig(restarts=0))
    with pytest.raises(InputError):
        als_search(t, 2, AlsConfig(tol=0.0))
    with pytest.raises(InputError):
        als_search(t, 2, AlsConfig(ridge=-1.0))


def test_nonfinite_input_rejected():
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = np.nan
    with pytest.raises(InputError):
        als_decompose(arr, 1)


def test_zero_tensor_trivially_found():
    arr = np.zeros((2, 2, 2), dtype=complex)
    result = als_decompose(arr, 1)
    assert result.found and result.residual == 0.0
    assert (result.restart, result.sweeps, result.border_flag) == (0, 0, False)
