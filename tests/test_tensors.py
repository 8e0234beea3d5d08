import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy

from conftest import (
    invertible_matrix,
    matrix,
    nonzero_vector,
    oracle_outer_sum,
    oracle_rank,
    reference_apply_local_operators,
    reference_reconstruct,
    reference_tensor_product,
    scalar_rows,
    tensor_sum,
)

from tenrank import linalg, sampling, tensors
from tenrank.decomp import builtin_state, make_decomposition, reconstruct
from tenrank.errors import InputError, ResourceError
from tenrank.scalars import ZERO, Leg, Scalar
from tenrank.tensors import (
    LocalOperatorTriple,
    Tensor3,
    apply_local_operators,
    contract,
    flattening,
    flattening_rank,
    flattening_ranks,
    identity_triple,
    make_tensor,
    support_basis,
    tensor_from_json,
    tensor_product,
    tensor_to_json,
    zero_tensor,
)


def ghz():
    return make_tensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})


def w_state():
    return make_tensor((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})


# -- construction -------------------------------------------------------------


def test_make_tensor_ghz_and_w_unnormalized():
    g = ghz()
    assert g[(0, 0, 0)] == 1 and g[(1, 1, 1)] == 1 and g.nnz() == 2
    w = w_state()
    assert {idx for idx, _ in w.nonzeros()} == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
    assert all(v == 1 for _, v in w.nonzeros())


def test_fresh_zero_scalars_read_like_the_shared_zero():
    # zeros given as Scalar objects other than the shared ZERO are dropped
    # from the support by value
    values = {(0, 0, 1): Scalar(Fraction(1, 2), 3), (1, 1, 0): Scalar(-2)}
    shared = make_tensor((2, 2, 2), values)
    dense = [Scalar(0) if x == 0 else x for x in shared.entries]
    assert not any(x is ZERO for x in dense)
    fresh = Tensor3((2, 2, 2), dense)
    assert np.array_equal(fresh.to_numpy(), shared.to_numpy())
    assert list(fresh.nonzeros()) == list(shared.nonzeros()) == sorted(values.items())
    expected = np.zeros((2, 2, 2), dtype=complex)
    expected[0, 0, 1], expected[1, 1, 0] = 0.5 + 3j, -2
    assert np.array_equal(fresh.to_numpy(), expected)
    assert fresh.nnz() == shared.nnz() == 2
    assert fresh.norm_sq() == shared.norm_sq() == Fraction(1, 4) + 9 + 4
    assert not fresh.is_zero() and not shared.is_zero()
    fresh_zero = Tensor3((2, 2, 2), [Scalar(0)] * 8)
    assert fresh_zero.is_zero() and fresh_zero.nnz() == 0 and fresh_zero.norm_sq() == 0


def _index(flat, dims):
    _, db, dc = dims
    return divmod(flat // dc, db) + (flat % dc,)


def _dense_scan(t, entries):
    """to_numpy, nonzeros, nnz, is_zero and norm_sq read off every entry by
    value, the support's reference."""
    nonzeros = [(_index(flat, t.dims), x) for flat, x in enumerate(entries) if x != 0]
    arr = np.array([complex(x) for x in entries], dtype=np.complex128).reshape(t.dims)
    return (arr, nonzeros, len(nonzeros), not nonzeros,
            sum((x.re * x.re + x.im * x.im for _, x in nonzeros), Fraction(0)))


def _support_corpus():
    rng = random.Random(11)
    phi3 = builtin_state("PHI3")
    ops = LocalOperatorTriple(*(sampling.matrix(rng, 4, 4, complex_parts=True)
                                for _ in range(3)))
    return [builtin_state("GHZ", 64), builtin_state("W"), tensor_product(phi3, phi3),
            apply_local_operators(ops, phi3), zero_tensor((3, 2, 4))]


def _spelled(part: Fraction, k: int):
    """A JSON spelling of a rational that is not its canonical string: a
    multiple of numerator and denominator, a JSON int, padded or "-0"."""
    if k % 3 == 0:
        return f"{3 * part.numerator}/{3 * part.denominator}"
    if k % 3 == 1 and part.denominator == 1:
        return part.numerator
    return f" {part}" if part else "-0"


def _json_of(t, nonzeros):
    """t's tensor JSON with every value spelled another way, in reverse
    entry order and with a few explicit zeros."""
    items = [{"i": list(index), "re": _spelled(x.re, k), "im": _spelled(x.im, k + 1)}
             for k, (index, x) in enumerate(nonzeros)]
    listed = {index for index, _ in nonzeros}
    zeros = [{"i": list(index), "re": "0/4"} for index in itertools.islice(
        itertools.product(*map(range, t.dims)), 5) if index not in listed]
    return {"dims": list(t.dims), "entries": items[::-1] + zeros}


def _one_term_each(t, nonzeros):
    """A decomposition with one term x e_a (x) e_b (x) e_c per nonzero."""
    def unit(n, i, x=1):
        return tuple(x if j == i else 0 for j in range(n))

    return make_decomposition(t.dims, [
        (unit(t.dims[0], a, x), unit(t.dims[1], b), unit(t.dims[2], c))
        for (a, b, c), x in nonzeros])


def test_support_readers_match_a_dense_scan():
    fresh_zero = Scalar(0)
    assert fresh_zero is not ZERO
    for t in _support_corpus():
        entries = t.entries
        arr, nonzeros, nnz, is_zero, norm_sq = _dense_scan(t, entries)
        dense = [fresh_zero if x == 0 else x for x in entries]
        # make_tensor given explicit zeros too, at every seventh index
        listed = dict(nonzeros)
        for flat in range(1, len(dense), 7):
            listed.setdefault(_index(flat, t.dims), Scalar(0))
        constructions = [make_tensor(t.dims, dict(nonzeros)), Tensor3(t.dims, entries),
                         Tensor3(t.dims, dense), make_tensor(t.dims, listed),
                         tensor_from_json(json.loads(json.dumps(_json_of(t, nonzeros)))),
                         reconstruct(_one_term_each(t, nonzeros))]
        for built in constructions:
            assert built == t and hash(built) == hash(t)
            assert built.to_numpy().tobytes() == arr.tobytes()
            assert built.to_numpy().dtype == np.complex128
            assert list(built.nonzeros()) == nonzeros
            assert built.nnz() == nnz and built.is_zero() == is_zero
            assert built.norm_sq() == norm_sq


def test_norm_sq_reads_shared_objects_once_each_and_stays_exact():
    # tensor JSON parses each repeated string once; the norm counts every
    # entry all the same
    entries = [{"i": [a, b, c], "re": "1/2", "im": "-3/4"}
               for a in range(2) for b in range(2) for c in range(2) if (a + b + c) % 2]
    entries.append({"i": [0, 0, 0], "re": "-7/3"})
    t = tensor_from_json({"dims": [2, 2, 2], "entries": entries})
    norm = t.norm_sq()
    assert type(norm) is Fraction
    assert norm == 4 * (Fraction(1, 4) + Fraction(9, 16)) + Fraction(49, 9)
    assert zero_tensor((2, 1, 3)).norm_sq() == Fraction(0)


def test_to_numpy_beyond_the_float_range_raises_resource_error():
    big = make_tensor((1, 1, 2), {(0, 0, 1): Scalar(10 ** 400)})
    with pytest.raises(ResourceError, match="float range"):
        big.to_numpy()
    with pytest.raises(ResourceError, match="float range"):
        make_tensor((1, 1, 1), {(0, 0, 0): Scalar(1, -10 ** 400)}).to_numpy()
    # a tiny value rounds to zero like any float conversion; it is no error
    tiny = make_tensor((1, 1, 1), {(0, 0, 0): Scalar(Fraction(1, 10 ** 400))})
    assert tiny.to_numpy()[0, 0, 0] == 0


def test_to_numpy_past_2_53_equals_complex_of_each_scalar():
    # float64(2^53 + 1) / float64(3) differs from (2^53 + 1) / 3: past 2^53
    # the numerators are divided as Python ints
    n = 2 ** 53
    assert float(np.float64(n + 1) / np.float64(3)) != (n + 1) / 3
    values = {(0, 0, 0): Scalar(Fraction(n + 1, 3)),
              (0, 1, 0): Scalar(Fraction(1, n + 7), Fraction(4 * n + 1, 5)),
              (1, 0, 1): Scalar(Fraction(2 ** 60 + 1, 2 ** 61 - 1), -2),
              (1, 1, 1): Scalar(Fraction(-1, 3))}
    t = make_tensor((2, 2, 2), values)
    assert t.values.den >= n
    arr = t.to_numpy()
    for index, value in values.items():
        assert arr[index].tobytes() == np.complex128(complex(value)).tobytes()
    assert np.count_nonzero(arr) == len(values)


def test_a_tensor_holds_only_dims_support_and_one_leg():
    x = Scalar(Fraction(3, 7), 5)  # held by this test alone
    baseline = sys.getrefcount(x)
    one = make_tensor((2, 1, 2), {(1, 0, 1): x, (0, 0, 0): 2})
    built = [one, Tensor3((1, 1, 2), [0, x]), tensor_product(one, one),
             apply_local_operators(identity_triple((2, 1, 2)), one),
             make_tensor((1, 1, 1), {(0, 0, 0): Scalar(2 ** 70, x.im)})]
    assert sys.getrefcount(x) == baseline
    assert Tensor3.__slots__ == ("dims", "support", "values")
    for t in built:
        assert type(t.dims) is tuple and isinstance(t.values, Leg) and type(t.values.den) is int
        assert t.support.dtype == np.int64
        for array in (t.support, t.values.re, t.values.im):
            assert not array.flags.writeable
            assert array.dtype == np.int64 or all(type(v) is int for v in array.tolist())
    assert built[-1].values.re.dtype == object


def test_make_tensor_zero_and_errors():
    assert zero_tensor((2, 2, 2)).is_zero()
    with pytest.raises(InputError):
        make_tensor((2, 2, 2), {(0, 0, 2): 1})
    with pytest.raises(InputError):
        make_tensor((2, 2, 2), [((0, 0, 0), 1), ((0, 0, 0), 2)])
    with pytest.raises(InputError):
        make_tensor((0, 2, 2), {})


def test_entry_cap():
    with pytest.raises(ResourceError):
        zero_tensor((129, 129, 129))  # 129^3 > 2^21


# -- tensor product -----------------------------------------------------------


def test_product_ghz_ghz_is_diagonal():
    p = tensor_product(ghz(), ghz())
    assert p.dims == (4, 4, 4)
    assert {idx for idx, _ in p.nonzeros()} == {(i, i, i) for i in range(4)}
    assert all(v == 1 for _, v in p.nonzeros())


def test_product_w_w_slice_structure():
    p = tensor_product(w_state(), w_state())
    # first c-slice carries the four unit entries at AB pairs
    # (3,0), (2,1), (1,2), (0,3); the last slice a single entry at (0,0)
    by_slice = {}
    for (a, b, c), v in p.nonzeros():
        assert v == 1
        by_slice.setdefault(c, set()).add((a, b))
    assert by_slice[0] == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert by_slice[1] == {(2, 0), (0, 2)}
    assert by_slice[2] == {(1, 0), (0, 1)}
    assert by_slice[3] == {(0, 0)}
    assert p.nnz() == 9


def test_product_with_unit_tensor_is_identity():
    unit = make_tensor((1, 1, 1), {(0, 0, 0): 1})
    w = w_state()
    assert tensor_product(w, unit) == w
    assert tensor_product(unit, w) == w


def test_product_kron_index_convention():
    # first factor is the high-order digit on every leg
    t1 = make_tensor((2, 1, 1), {(1, 0, 0): 1})
    t2 = make_tensor((3, 1, 1), {(2, 0, 0): 1})
    p = tensor_product(t1, t2)
    assert [idx for idx, _ in p.nonzeros()] == [(1 * 3 + 2, 0, 0)]


# -- flattenings --------------------------------------------------------------


def test_flattening_rank_examples():
    assert all(flattening_rank(ghz(), leg) == 2 for leg in "ABC")
    single = make_tensor((2, 2, 2), {(0, 0, 0): 1})
    assert all(flattening_rank(single, leg) == 1 for leg in "ABC")
    assert all(flattening_rank(zero_tensor((2, 2, 2)), leg) == 0 for leg in "ABC")


def test_phi3_flattening_rank_4_against_oracle():
    phi3 = builtin_state("PHI3")
    for leg in "ABC":
        flat = flattening(phi3, leg)
        assert oracle_rank(flat) == 4
        assert flattening_rank(phi3, leg) == 4


def test_flattening_rank_bounds_and_invariance():
    rng = random.Random(17)
    for _ in range(25):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        t = make_tensor(dims, {})
        entries = {}
        for _ in range(rng.randint(0, 8)):
            idx = tuple(rng.randrange(d) for d in dims)
            entries[idx] = sampling.scalar(rng, max_num=3, max_den=2)
        t = make_tensor(dims, entries)
        da, db, dc = dims
        bounds = {"A": min(da, db * dc), "B": min(db, da * dc), "C": min(dc, da * db)}
        ranks = {leg: flattening_rank(t, leg) for leg in "ABC"}
        for leg in "ABC":
            assert ranks[leg] <= bounds[leg]
            assert ranks[leg] == oracle_rank(flattening(t, leg))
        ops = LocalOperatorTriple(
            invertible_matrix(rng, da, max_num=3, max_den=2),
            invertible_matrix(rng, db, max_num=3, max_den=2),
            invertible_matrix(rng, dc, max_num=3, max_den=2),
        )
        transformed = apply_local_operators(ops, t)
        assert {leg: flattening_rank(transformed, leg) for leg in "ABC"} == ranks


def test_flattening_rank_multiplicative_under_products():
    rng = random.Random(23)
    for _ in range(10):
        def rand_tensor():
            dims = (rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2))
            entries = {
                tuple(rng.randrange(d) for d in dims): sampling.scalar(rng, max_num=2)
                for _ in range(rng.randint(1, 5))
            }
            return make_tensor(dims, entries)

        t1, t2 = rand_tensor(), rand_tensor()
        p = tensor_product(t1, t2)
        for leg in "ABC":
            expected = flattening_rank(t1, leg) * flattening_rank(t2, leg)
            assert flattening_rank(p, leg) == expected
            assert oracle_rank(flattening(p, leg)) == expected
    # 32^3 with 64 nonzeros: every flattening is rank-deficient, so each leg
    # takes the exact fallback on its 16 x 64 nonzero rows and columns
    phi3 = builtin_state("PHI3")
    p = tensor_product(tensor_product(phi3, phi3), make_tensor((2, 2, 2), {(0, 0, 0): 1}))
    assert flattening_ranks(p) == {"A": 16, "B": 16, "C": 16}


# -- flattening ranks modulo a prime ------------------------------------------


def test_modular_rank_constants():
    p, s = tensors.PRIME, tensors.SQRT_MINUS_ONE
    assert sympy.isprime(p) and p % 4 == 1 and (s * s + 1) % p == 0
    # a product of two residues is exact in int64
    assert p < 2 ** 31 and (p - 1) ** 2 < 2 ** 63


def sum_of_products(rng, dims, r, scale=1):
    """A Gaussian-rational tensor of rank at most r: r random product terms
    times `scale`."""
    entries = {}
    for _ in range(r):
        a, b, c = (nonzero_vector(rng, d, complex_parts=True, max_num=4, max_den=3)
                   for d in dims)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                for k, z in enumerate(c):
                    entries[(i, j, k)] = entries.get((i, j, k), ZERO) + x * y * z * scale
    return make_tensor(dims, entries)


def counted_exact_ranks(monkeypatch):
    calls = []
    original = tensors._echelon

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(tensors, "_echelon", counting)
    return calls


def test_modular_rank_agrees_with_exact_rank(monkeypatch):
    rng = random.Random(41)
    big = 10 ** 400
    cases = []
    for _ in range(12):
        dims = tuple(rng.randint(1, 4) for _ in range(3))
        cases.append(sum_of_products(rng, dims, 4 * max(dims)))          # full rank
        cases.append(sum_of_products(rng, dims, rng.randint(1, 2)))      # rank-deficient
        cases.append(sum_of_products(rng, dims, rng.randint(1, 3), big + rng.randint(1, 9)))
        full = sum_of_products(rng, (3, 3, 3), 9)
        rows = {index: value for index, value in full.nonzeros() if index[0] != 1}
        cases.append(make_tensor((3, 3, 3), rows))                        # a zero row
    cases.append(make_tensor((2, 2, 2), {(0, 0, 0): Fraction(big, 3), (1, 1, 1): 1}))
    cases.append(zero_tensor((2, 3, 2)))
    expected = [{leg: linalg.rank(flattening(t, leg)) for leg in "ABC"} for t in cases]
    calls = counted_exact_ranks(monkeypatch)
    for t, ranks in zip(cases, expected):
        assert flattening_ranks(t) == ranks
        assert {leg: flattening_rank(t, leg) for leg in "ABC"} == ranks
    # both the modular result and the exact fallback were taken, the same
    # legs by either function
    assert len(calls) % 2 == 0 and 0 < len(calls) // 2 < 3 * len(cases)


def test_full_rank_flattenings_need_no_exact_elimination(monkeypatch):
    calls = counted_exact_ranks(monkeypatch)
    assert flattening_ranks(builtin_state("PHI3")) == {"A": 4, "B": 4, "C": 4}
    assert flattening_ranks(sum_of_products(random.Random(3), (3, 4, 5), 20)) \
        == {"A": 3, "B": 4, "C": 5}
    assert calls == []


def test_unlucky_prime_tensor_gets_its_exact_rank(monkeypatch):
    # p e000 + e111 has rank 2, but p vanishes mod p: every flattening has
    # rank 1 there, so each leg falls back to exact elimination
    p = tensors.PRIME
    t = make_tensor((2, 2, 2), {(0, 0, 0): p, (1, 1, 1): 1})
    residues = tensors._residues(t)
    for axis in range(3):
        m = np.moveaxis(residues, axis, 0).reshape(2, 4)
        assert tensors._rank_mod_p(m.T.copy()) == 1
    calls = counted_exact_ranks(monkeypatch)
    assert flattening_ranks(t) == {"A": 2, "B": 2, "C": 2}
    assert flattening_rank(t, "B") == 2 and len(calls) == 4
    # Gaussian integers whose real and imaginary parts cancel mod p: 1 + s i
    s = tensors.SQRT_MINUS_ONE
    t = make_tensor((2, 2, 1), {(0, 0, 0): Scalar(1, s), (1, 1, 0): 1})
    assert flattening_ranks(t) == {"A": 2, "B": 2, "C": 1}


def test_flattening_rank_rejects_an_unknown_leg():
    with pytest.raises(InputError):
        flattening_rank(ghz(), "D")


# -- local operators ----------------------------------------------------------


def test_apply_identity_and_projector():
    w = w_state()
    assert apply_local_operators(identity_triple(w.dims), w) == w
    proj = matrix([[1, 0], [0, 0]])
    ops = LocalOperatorTriple(proj, proj, proj)
    assert apply_local_operators(ops, ghz()) == make_tensor((2, 2, 2), {(0, 0, 0): 1})


def test_apply_random_triple_to_ghz_matches_expansion_oracle():
    # (A x B x C) GHZ = a0 x b0 x c0 + a1 x b1 x c1 with operator columns
    rng = random.Random(31)
    for _ in range(10):
        a = sampling.matrix(rng, 2, 2, complex_parts=True, max_num=3, max_den=2)
        b = sampling.matrix(rng, 2, 2, complex_parts=True, max_num=3, max_den=2)
        c = sampling.matrix(rng, 2, 2, complex_parts=True, max_num=3, max_den=2)
        got = apply_local_operators(LocalOperatorTriple(a, b, c), ghz())
        cols = lambda m, j: tuple(m[i][j] for i in range(len(m)))  # noqa: E731
        expected = oracle_outer_sum(
            (2, 2, 2),
            [(cols(a, i), cols(b, i), cols(c, i)) for i in range(2)],
        )
        assert dict(got.nonzeros()) == expected


def test_apply_is_linear_in_the_tensor():
    rng = random.Random(37)
    dims = (2, 2, 2)
    ops = LocalOperatorTriple(
        sampling.matrix(rng, 3, 2), sampling.matrix(rng, 2, 2), sampling.matrix(rng, 2, 2)
    )
    t1 = make_tensor(dims, {(0, 1, 0): Scalar(Fraction(1, 3)), (1, 1, 1): 2})
    t2 = make_tensor(dims, {(0, 0, 0): 5, (1, 1, 1): Scalar(0, 1)})
    lhs = apply_local_operators(ops, tensor_sum(t1, t2))
    rhs = tensor_sum(apply_local_operators(ops, t1), apply_local_operators(ops, t2))
    assert lhs == rhs


def test_apply_non_square_changes_dims():
    embed = matrix([[1, 0], [0, 1], [0, 0]])
    ops = LocalOperatorTriple(embed, linalg.identity(2), linalg.identity(2))
    out = apply_local_operators(ops, ghz())
    assert out.dims == (3, 2, 2)
    assert out[(1, 1, 1)] == 1 and out[(2, 1, 1)] == 0


def _random_tensor(rng, dims, scale=1):
    entries = {tuple(rng.randrange(d) for d in dims):
               sampling.scalar(rng, max_num=5, max_den=4, complex_parts=True) * scale
               for _ in range(rng.randint(0, 6))}
    return make_tensor(dims, entries)


def test_array_code_matches_the_per_scalar_references(monkeypatch):
    rng = random.Random(47)
    sizes = []
    original = tensors._mapped
    # the size of every operator's result
    monkeypatch.setattr(tensors, "_mapped", lambda m, leg: (
        sizes.append(leg.re.size // leg.re.shape[-1] * len(m.re)) or original(m, leg)))
    for k in range(24):
        dims = tuple(rng.randint(1, 3) for _ in range(3))
        # every fourth tensor and operator has numerators past 2^62
        scale = 2 ** 70 + 1 if k % 4 == 0 else 1
        t = _random_tensor(rng, dims, scale)
        ops = LocalOperatorTriple(*(
            sampling.matrix(rng, rng.randint(1, 4), d, complex_parts=True, max_num=4,
                            max_den=3) for d in dims))
        if k % 4 == 1:
            ops = LocalOperatorTriple(ops.A, ops.B, tuple(tuple(x * 2 ** 64 for x in row)
                                                          for row in scalar_rows(ops.C)))
        sizes.clear()
        got = apply_local_operators(ops, t)
        assert got == reference_apply_local_operators(ops, t)
        assert list(got.nonzeros()) == list(reference_apply_local_operators(ops, t).nonzeros())
        # the shrinking legs go first: no intermediate outgrows input and output
        out = ops.output_dims()
        assert max(sizes) <= max(math.prod(dims), math.prod(out))
        other = _random_tensor(rng, tuple(rng.randint(1, 3) for _ in range(3)))
        for left, right in ((t, other), (other, t), (t, t)):
            assert tensor_product(left, right) == reference_tensor_product(left, right)
        terms = [tuple(nonzero_vector(rng, d, complex_parts=True, max_num=9, max_den=6)
                       for d in dims) for _ in range(rng.randint(1, 4))]
        d = make_decomposition(dims, terms)
        assert reconstruct(d) == reference_reconstruct(d)


def test_apply_dimension_mismatch():
    with pytest.raises(InputError):
        apply_local_operators(identity_triple((3, 2, 2)), ghz())


# -- support basis ------------------------------------------------------------


def span_equal(basis1, basis2):
    rows1 = [tuple(x for row in m for x in row) for m in basis1]
    rows2 = [tuple(x for row in m for x in row) for m in basis2]
    if len(rows1) != len(rows2):
        return False
    return all(linalg.in_span(rows1, r) for r in rows2) and all(
        linalg.in_span(rows2, r) for r in rows1
    )


def test_support_basis_examples():
    g_basis = support_basis(ghz())
    assert span_equal(g_basis, [matrix([[1, 0], [0, 0]]),
                                matrix([[0, 0], [0, 1]])])
    w_basis = support_basis(w_state())
    assert len(w_basis) == 2
    assert span_equal(w_basis, [matrix([[0, 1], [1, 0]]),
                                matrix([[1, 0], [0, 0]])])
    assert support_basis(zero_tensor((2, 2, 2))) == []


def test_support_basis_size_and_membership_property():
    rng = random.Random(41)
    for _ in range(20):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4))
        entries = {
            tuple(rng.randrange(d) for d in dims): sampling.scalar(rng, max_num=3)
            for _ in range(rng.randint(0, 9))
        }
        t = make_tensor(dims, entries)
        basis = support_basis(t)
        assert len(basis) == flattening_rank(t, "C")
        rows = [tuple(x for row in m for x in row) for m in basis]
        for c in range(dims[2]):
            vec = tuple(t[a, b, c] for a in range(dims[0]) for b in range(dims[1]))
            if any(vec):
                assert linalg.in_span(rows, vec)


# -- contraction --------------------------------------------------------------


def test_contract_matches_direct_sum():
    rng = random.Random(43)
    t = make_tensor((2, 3, 2), {(0, 1, 0): 2, (1, 2, 1): Scalar(1, 1)})
    x = sampling.vector(rng, 2)
    y = sampling.vector(rng, 3)
    z = sampling.vector(rng, 2)
    expected = Scalar(2) * x[0] * y[1] * z[0] + Scalar(1, 1) * x[1] * y[2] * z[1]
    assert contract(t, x, y, z) == expected
    with pytest.raises(InputError):
        contract(t, x, x, z)


# -- JSON ---------------------------------------------------------------------


def test_tensor_json_round_trip():
    t = make_tensor((2, 2, 2), {(0, 0, 1): Scalar(Fraction(1, 2), Fraction(-2, 3)),
                                (1, 1, 1): 3})
    payload = tensor_to_json(t)
    assert payload["dims"] == [2, 2, 2]
    again = tensor_from_json(json.loads(json.dumps(payload)))
    assert again == t


def test_tensor_json_omits_zero_im_and_rejects_duplicates():
    t = make_tensor((2, 2, 2), {(0, 0, 0): 1})
    payload = tensor_to_json(t)
    assert payload["entries"] == [{"i": [0, 0, 0], "re": "1"}]
    bad = {"dims": [2, 2, 2], "entries": [
        {"i": [0, 0, 0], "re": "1"}, {"i": [0, 0, 0], "re": "2"}]}
    with pytest.raises(InputError):
        tensor_from_json(bad)
    with pytest.raises(InputError):
        tensor_from_json({"dims": [2, 2], "entries": []})
