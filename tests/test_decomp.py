import itertools
import json
import math
import random
import sys
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest

from conftest import (
    abs2,
    identity,
    invertible_matrix,
    kron_vec,
    mat_mul,
    mat_vec,
    matrix,
    nonzero_vector,
    oracle_outer_sum,
    oracle_rank,
    reference_reconstruct,
    scalar_rows,
    vector,
    zeros,
)
import sampling

from tenrank import decomp, linalg, pencil, scalars
from tenrank.bilinear import (
    from_bilinear,
    matmul_tensor,
    naive_matmul_decomposition,
    phi3_matmul_witness,
    to_bilinear,
)
from tenrank.decomp import (
    DEFAULT_RANK_FACTS,
    ArrayTerms,
    ProductDecomposition,
    Rank222,
    Term,
    VerifyResult,
    _dense_numerators,
    builtin_decomposition,
    builtin_state,
    builtin_witness,
    decomposition_contract,
    decomposition_from_json,
    decomposition_power,
    decomposition_to_json,
    float_decomposition_to_json,
    ghz_decomposition,
    make_decomposition,
    rank_bounds,
    rank_leq2_test_2x2x2,
    reconstruct,
    require_witness,
    transport,
    verify_decomposition,
    verify_power_randomized,
    w_rank3_decomposition,
)
from tenrank.errors import InputError, ResourceError, WitnessMismatch
from tenrank.pencil import diagonal_witness
from tenrank.scalars import ZERO, Scalar, _echelon, _gdot, _gmul, _kernel_vector, scalar_from_json
from tenrank.tensors import (
    LocalOperatorTriple,
    Tensor3,
    apply_local_operators,
    contract,
    flattening,
    flattening_rank,
    flattening_ranks,
    make_tensor,
    max_flattening_rank,
    tensor_product,
    zero_tensor,
)


def random_decomposition(rng, dims, r):
    terms = [
        (
            nonzero_vector(rng, dims[0], max_num=3, max_den=2),
            nonzero_vector(rng, dims[1], max_num=3, max_den=2),
            nonzero_vector(rng, dims[2], max_num=3, max_den=2),
        )
        for _ in range(r)
    ]
    return make_decomposition(dims, terms)


# -- builtin states -----------------------------------------------------------


def test_builtin_ghz_levels():
    g = builtin_state("GHZ", 2)
    assert g == make_tensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    g8 = builtin_state("GHZ", 8)
    assert g8.dims == (8, 8, 8) and g8.nnz() == 8
    with pytest.raises(InputError):
        builtin_state("GHZ", 0)


def test_builtin_phi3_expansion():
    phi3 = builtin_state("PHI3")
    assert phi3.dims == (4, 4, 4)
    # coefficient of the all-zeros basis vector is 1
    assert phi3[(0, 0, 0)] == 1
    expected = {
        (0, 0, 0), (2, 2, 0),  # c = |00>
        (0, 1, 1), (2, 3, 1),  # c = |01>
        (1, 0, 2), (3, 2, 2),  # c = |10>
        (1, 1, 3), (3, 3, 3),  # c = |11>
    }
    assert {idx for idx, _ in phi3.nonzeros()} == expected
    assert all(v == 1 for _, v in phi3.nonzeros())


def test_builtin_w2_and_epr_and_matmul():
    w = builtin_state("W")
    assert builtin_state("W2") == tensor_product(w, w)
    epr = builtin_state("EPR")
    assert epr.dims == (2, 2, 1) and epr.nnz() == 2
    assert builtin_state("MATMUL", 1, 1, 1).nnz() == 1
    with pytest.raises(InputError):
        builtin_state("NOPE")


# -- verification -------------------------------------------------------------


def test_verify_builtin_witnesses():
    assert verify_decomposition(matmul_tensor(2, 2, 2),
                                builtin_decomposition("STRASSEN7")).ok
    assert verify_decomposition(builtin_state("W2"),
                                builtin_decomposition("FIDUCCIA8_W2")).ok
    assert verify_decomposition(builtin_state("GHZ", 2), ghz_decomposition(2)).ok
    assert verify_decomposition(builtin_state("W"), w_rank3_decomposition()).ok


def test_verify_transported_strassen_against_phi3():
    witness = transport(phi3_matmul_witness(), builtin_decomposition("STRASSEN7"))
    assert len(witness.terms) == 7
    assert verify_decomposition(builtin_state("PHI3"), witness).ok


def test_verify_reports_first_mismatch_row_major():
    ghz = builtin_state("GHZ", 2)
    wrong = make_decomposition(
        (2, 2, 2),
        [((1, 0), (1, 0), (1, 0)), ((0, 1), (0, 1), (0, Fraction(1, 2)))],
    )
    result = verify_decomposition(ghz, wrong)
    assert not result.ok
    assert result.first_mismatch == (1, 1, 1)
    with pytest.raises(InputError):
        verify_decomposition(builtin_state("GHZ", 4), wrong)


def test_verify_against_independent_reconstruction_oracle():
    rng = random.Random(53)
    for _ in range(15):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        d = random_decomposition(rng, dims, rng.randint(1, 3))
        expected = oracle_outer_sum(dims, [(t.a, t.b, t.c) for t in d.terms])
        t = make_tensor(dims, expected)
        assert verify_decomposition(t, d).ok


def test_verify_randomized_fallback_above_the_dense_limit(monkeypatch):
    monkeypatch.setattr(decomp, "DENSE_VERIFY_LIMIT", 3)
    mm, d = matmul_tensor(2, 2, 2), builtin_decomposition("STRASSEN7")
    assert verify_decomposition(mm, d) == VerifyResult(True, None, randomized=True)
    first = d.terms[0]
    bumped = (first.a[0] + 1,) + first.a[1:]
    corrupted = ProductDecomposition(d.dims, (Term(bumped, first.b, first.c),) + d.terms[1:])
    assert verify_decomposition(mm, corrupted) == VerifyResult(False, None, randomized=True)
    with pytest.raises(WitnessMismatch):
        verify_decomposition(builtin_state("W"), d)


def test_randomized_fallback_is_the_one_copy_power_check_with_seed_20(monkeypatch):
    # the fallback and verify_power_randomized draw the same probes: d, its own
    # one-copy power, checked with seed 20 and 20 probes, gives the same result
    monkeypatch.setattr(decomp, "DENSE_VERIFY_LIMIT", 3)
    mm, d = matmul_tensor(2, 2, 2), builtin_decomposition("STRASSEN7")
    first = d.terms[0]
    corrupted = ProductDecomposition(
        d.dims, (Term(first.a, first.b, (first.c[0] + 1,) + first.c[1:]),) + d.terms[1:])
    for candidate in (d, corrupted):
        expected = verify_power_randomized(mm, candidate, probes=20, seed=20)
        assert verify_decomposition(mm, candidate) == expected
        assert expected.ok is (candidate is d)


# -- the integer reconstruction kernel against the per-Scalar reference -------


def reference_verify(t, d):
    """Dense verification through reference_reconstruct, entry by entry."""
    rebuilt = reference_reconstruct(d)
    flat = next((k for k, (lhs, rhs) in enumerate(zip(t.entries, rebuilt.entries))
                 if lhs != rhs), None)
    if flat is None:
        return VerifyResult(True)
    _, db, dc = t.dims
    a, rest = divmod(flat, db * dc)
    b, c = divmod(rest, dc)
    return VerifyResult(False, (a, b, c))


def phi3_witness():
    return transport(phi3_matmul_witness(), builtin_decomposition("STRASSEN7"))


def kernel_corpus():
    """(target, witness) pairs: the builtin witnesses, PHI3 (x) PHI3,
    non-cubic dims, random complex sums with mixed denominators, and r = 0."""
    phi3 = builtin_state("PHI3")
    epr = make_decomposition((2, 2, 1), [((1, 0), (1, 0), (1,)), ((0, 1), (0, 1), (1,))])
    pairs = [
        (matmul_tensor(2, 2, 2), builtin_decomposition("STRASSEN7")),
        (builtin_state("W2"), builtin_decomposition("FIDUCCIA8_W2")),
        (builtin_state("GHZ", 5), ghz_decomposition(5)),
        (builtin_state("W"), w_rank3_decomposition()),
        (phi3, phi3_witness()),
        (tensor_product(phi3, phi3), decomposition_power(phi3_witness(), 2)),
        (builtin_state("EPR"), epr),
        (matmul_tensor(2, 3, 2), naive_matmul_decomposition(2, 3, 2)),
        (zero_tensor((2, 3, 2)), ProductDecomposition((2, 3, 2), ())),
    ]
    rng = random.Random(71)
    for _ in range(12):
        dims = tuple(rng.randint(1, 4) for _ in range(3))
        terms = [tuple(nonzero_vector(rng, n, complex_parts=True, max_num=9,
                                      max_den=12) for n in dims)
                 for _ in range(rng.randint(1, 5))]
        pairs.append((make_tensor(dims, oracle_outer_sum(dims, terms)),
                      make_decomposition(dims, terms)))
    return pairs


def test_kernel_matches_per_scalar_reference(monkeypatch):
    for t, d in kernel_corpus():
        assert reconstruct(d) == reference_reconstruct(d) == t
        # the same sums when the outer products come a few terms at a time
        with monkeypatch.context() as patch:
            patch.setattr(decomp, "_CHUNK_SCALARS", 5)
            assert reconstruct(d) == t
        assert verify_decomposition(t, d) == reference_verify(t, d) == VerifyResult(True)
        # zeros that are fresh Scalars, not the shared ZERO, compare by value
        fresh = Tensor3(t.dims, [Scalar(0) if x == 0 else x for x in t.entries])
        assert verify_decomposition(fresh, d) == VerifyResult(True)
    target, empty = matmul_tensor(2, 3, 2), ProductDecomposition((6, 6, 4), ())
    assert verify_decomposition(target, empty) == reference_verify(target, empty) \
        == VerifyResult(False, (0, 0, 0))


def test_kernel_mismatches_match_per_scalar_reference():
    rng = random.Random(72)
    for t, d in kernel_corpus():
        real = all(not x.im for term in d.terms for leg in term for x in leg)
        t_entries = t.entries
        for _ in range(3):
            bump = Scalar(0, sampling.rational(rng, max_num=5, max_den=6) or 1)
            # a witness whose c-leg gained an imaginary part: for a real
            # witness the mismatch lies in imaginary parts only
            if d.terms:
                k, j = rng.randrange(len(d.terms)), rng.randrange(d.dims[2])
                term = d.terms[k]
                c = term.c[:j] + (term.c[j] + bump,) + term.c[j + 1:]
                terms = tuple(d.terms)
                wrong = ProductDecomposition(d.dims, terms[:k] + (Term(term.a, term.b, c),)
                                             + terms[k + 1:])
                rebuilt = reconstruct(wrong)
                assert rebuilt == reference_reconstruct(wrong)
                if real:
                    assert all(not (x - y).re for x, y in zip(rebuilt.entries, t_entries))
                result = verify_decomposition(t, wrong)
                assert not result.ok and result == reference_verify(t, wrong)
            # a target off by an imaginary bump at one entry, zero or not
            flat = rng.randrange(len(t_entries))
            entries = list(t_entries)
            entries[flat] = entries[flat] + bump
            wrong_target = Tensor3(t.dims, entries)
            result = verify_decomposition(wrong_target, d)
            assert result == reference_verify(wrong_target, d)
            _, db, dc = t.dims
            assert result == VerifyResult(False, (flat // (db * dc), flat // dc % db, flat % dc))


def test_target_past_int64_and_the_float_range_matches_the_references():
    # numerators past 2^62 and a value no float holds: every exact reader
    # agrees with the per-Scalar references, and to_numpy refuses
    big = 2 ** 62 + 3
    values = {(0, 0, 0): Scalar(big), (1, 1, 1): Scalar(Fraction(1, 3), 10 ** 400),
              (0, 1, 1): Scalar(Fraction(-5, 2 ** 63), 1), (1, 0, 1): Scalar(0, big)}
    t = make_tensor((2, 2, 2), values)
    assert t.values.re.dtype == object
    assert flattening_ranks(t) == {leg: oracle_rank(flattening(t, leg)) for leg in "ABC"}
    assert t.norm_sq() == sum(abs2(x) for x in values.values())
    unit = ((1, 0), (0, 1))
    d = make_decomposition((2, 2, 2), [(tuple(x * v for v in unit[a]), unit[b], unit[c])
                                       for (a, b, c), x in values.items()])
    assert reconstruct(d) == reference_reconstruct(d) == t
    assert verify_decomposition(t, d) == reference_verify(t, d) == VerifyResult(True)
    first = d.terms[0]
    wrong = ProductDecomposition(d.dims, (Term(first.a, first.b, (first.c[0], 1)),)
                                 + tuple(d.terms[1:]))
    assert verify_decomposition(t, wrong) == reference_verify(t, wrong) \
        == VerifyResult(False, (0, 0, 1))
    with pytest.raises(ResourceError, match="float range"):
        t.to_numpy()


def test_zero_numerators_over_a_denominator_past_int64():
    # int64 numerators that are all zero keep a denominator past 2^63 out of
    # the array arithmetic: a sum that cancels, and an all-zero witness leg
    tiny = Fraction(1, 2 ** 40)
    d = make_decomposition((1, 1, 1), [((tiny,), (tiny,), (tiny,)), ((-tiny,), (tiny,), (tiny,))])
    assert _dense_numerators(d)[2] == 2 ** 120
    assert reconstruct(d) == reference_reconstruct(d) == zero_tensor((1, 1, 1))
    assert verify_decomposition(zero_tensor((1, 1, 1)), d) == VerifyResult(True)
    payload = {"dims": [1, 1, 1], "terms": [{"a": ["0"], "b": [f"1/{10 ** 22}"], "c": ["1"]}]}
    with pytest.raises(InputError, match="term 0 contains an all-zero vector"):
        decomposition_from_json(payload)


def test_kernel_switches_to_python_ints_past_the_int64_bound():
    # numerators near 2^21 in every leg: 4 r max|a| max|b| max|c| >= 2^62
    rng = random.Random(73)
    dims = (3, 2, 4)
    terms = []
    for _ in range(3):
        terms.append(tuple(
            tuple(Scalar(Fraction(rng.choice((-1, 1)) * (2 ** 21 - rng.randrange(9)),
                                  rng.choice((1, 3, 5))),
                         rng.randrange(-2 ** 21, 2 ** 21)) for _ in range(n))
            for n in dims))
    d = make_decomposition(dims, terms)
    assert _dense_numerators(d)[0].dtype == object
    target = reference_reconstruct(d)
    assert reconstruct(d) == target
    assert verify_decomposition(target, d) == VerifyResult(True)
    entries = list(target.entries)
    entries[13] = entries[13] + Scalar(0, Fraction(1, 7))
    wrong = Tensor3(dims, entries)
    assert verify_decomposition(wrong, d) == reference_verify(wrong, d) \
        == VerifyResult(False, (1, 1, 1))
    # two equal terms, each (A + Ai)(B + Bi)(C + Ci) = 2ABC(-1 + i) up to sign:
    # int64 while 4 r ABC = 8ABC < 2^62, Python ints from 8ABC = 2^62 on
    for c, dtype in ((2 ** 19 - 1, np.int64), (2 ** 19, object)):
        legs = tuple((Scalar(x, x), Scalar(-x, -x)) for x in (2 ** 20, 2 ** 20, c))
        d = make_decomposition((2, 2, 2), [legs, legs])
        re, im, den = _dense_numerators(d)
        assert re.dtype == dtype and den == 1
        assert reconstruct(d) == reference_reconstruct(d)
        assert max(abs(int(x)) for x in im) == 4 * 2 ** 40 * c


def test_dense_verification_makes_no_scalar_multiplications(monkeypatch):
    phi3 = builtin_state("PHI3")
    t, d = tensor_product(phi3, phi3), decomposition_power(phi3_witness(), 2)
    calls = []
    original = Scalar.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    assert verify_decomposition(t, d).ok
    assert len(d.terms) == 49 and calls == []
    Scalar(2) * Scalar(3)
    assert len(calls) == 1


def test_builtin_pairs_term_count_dominates_flattenings():
    # rank(T) >= every flattening rank, so no verified witness can be shorter
    pairs = [
        (matmul_tensor(2, 2, 2), builtin_decomposition("STRASSEN7")),
        (builtin_state("W2"), builtin_decomposition("FIDUCCIA8_W2")),
        (builtin_state("GHZ", 4), builtin_decomposition("GHZ", 4)),
        (builtin_state("W"), w_rank3_decomposition()),
    ]
    for name, t in (("W", builtin_state("W")), ("PHI3", builtin_state("PHI3")),
                    ("GHZ(5)", builtin_state("GHZ", 5))):
        pairs.append((t, builtin_witness(t, name)))
    rng = random.Random(53)
    for _ in range(15):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        d = random_decomposition(rng, dims, rng.randint(1, 3))
        expected = oracle_outer_sum(dims, [(t.a, t.b, t.c) for t in d.terms])
        pairs.append((make_tensor(dims, expected), d))
    for t, d in pairs:
        assert verify_decomposition(t, d).ok
        assert len(d.terms) >= max_flattening_rank(t)


def test_require_witness_returns_or_raises_witness_mismatch():
    ghz = builtin_state("GHZ", 2)
    d = ghz_decomposition(2)
    assert require_witness(ghz, d) is d
    with pytest.raises(WitnessMismatch) as info:
        require_witness(builtin_state("W"), d)
    assert info.value.first_mismatch == (0, 0, 0)
    with pytest.raises(WitnessMismatch) as info:
        require_witness(builtin_state("GHZ", 3), d)
    assert info.value.first_mismatch is None and "dims mismatch" in str(info.value)
    assert isinstance(info.value, InputError)


def test_require_witness_skips_only_the_pair_it_already_passed(monkeypatch):
    calls = []
    original = decomp.verify_decomposition

    def counting(t, d):
        calls.append(t)
        return original(t, d)

    monkeypatch.setattr(decomp, "verify_decomposition", counting)
    w, d = builtin_state("W"), w_rank3_decomposition()
    assert require_witness(w, d) is d and require_witness(w, d) is d
    assert calls == [w]
    # a different tensor of the same dims is verified in full, and a
    # failure leaves the remembered pair in place
    wrong = make_tensor((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1})
    for _ in range(2):
        with pytest.raises(WitnessMismatch):
            require_witness(wrong, d)
    assert calls == [w, wrong, wrong]
    assert require_witness(w, d) is d and len(calls) == 3
    # an equal tensor that is another object is verified again
    copy = Tensor3(w.dims, w.entries)
    assert copy == w and copy is not w
    assert require_witness(copy, d) is d and calls[-1] is copy
    # a decomposition given a mutable term list holds it converted to
    # ArrayTerms, so it is remembered too
    listed = ProductDecomposition(d.dims, list(d.terms))
    assert isinstance(listed.terms, ArrayTerms) and listed == d
    assert require_witness(w, listed) is listed and require_witness(w, listed) is listed
    assert calls[-1] is w and len(calls) == 5


def test_builtin_witness_is_verified_against_its_target():
    assert builtin_witness(builtin_state("W2"), "W2") is None
    with pytest.raises(WitnessMismatch):
        builtin_witness(builtin_state("W2"), "W")
    with pytest.raises(WitnessMismatch):
        builtin_witness(make_tensor((3, 3, 3), {(0, 0, 0): 1}), "GHZ(3)")


def test_make_decomposition_validation():
    with pytest.raises(InputError):
        make_decomposition((2, 2, 2), [((1, 0), (1, 0), (0, 0))])
    with pytest.raises(InputError):
        make_decomposition((2, 2, 2), [((1, 0, 0), (1, 0), (1, 0))])


# -- array-backed decompositions -------------------------------------------------


def per_scalar_terms(terms):
    """The Terms of the given vectors as Scalars, as a plain tuple."""
    return tuple(Term(*(vector(v) for v in term)) for term in terms)


def reference_power_terms(terms, n):
    """The per-Scalar n-fold Kronecker power: term j is the leg-wise
    Kronecker product of the base terms named by j's base-r digits, first
    copy most significant."""
    return tuple(Term(*(reduce(kron_vec, vectors) for vectors in zip(*chosen)))
                 for chosen in itertools.product(terms, repeat=n))


def test_array_terms_read_as_the_tuple_of_their_terms():
    rng = random.Random(81)
    dims = (3, 2, 4)
    terms = [tuple(nonzero_vector(rng, n, complex_parts=True, max_num=9, max_den=6)
                   for n in dims) for _ in range(5)]
    d = make_decomposition(dims, terms)
    expected = per_scalar_terms(terms)
    assert isinstance(d.terms, ArrayTerms) and len(d.terms) == d.rank == 5
    assert d.terms == expected and expected == d.terms and hash(d.terms) == hash(expected)
    assert d == ProductDecomposition(dims, expected) and repr(d.terms) == repr(expected)
    assert list(d.terms) == list(expected) and tuple(d.terms) == expected
    for k in range(-5, 5):
        assert d.terms[k] == expected[k]
    for cut in (slice(1, 3), slice(None, None, -2), slice(4, 1, -1), slice(7, 9)):
        assert isinstance(d.terms[cut], tuple) and d.terms[cut] == expected[cut]
    for k in (5, -6):
        with pytest.raises(IndexError):
            d.terms[k]
    assert d.terms != expected[:4] and d.terms != expected[:4] + expected[:1]
    assert d.terms != 5 and d.terms != make_decomposition(dims, terms[:4]).terms
    # the stored numerators are read-only, like every other part of the value
    with pytest.raises(ValueError):
        d.terms.legs()[0].re[0, 0] = 1


def test_make_decomposition_keeps_no_caller_scalar():
    x, y = Scalar(Fraction(7, 3), Fraction(-2, 5)), Scalar(11)
    before = sys.getrefcount(x), sys.getrefcount(y)
    d = make_decomposition((2, 1, 1), [((x, y), (x,), (y,)), ((y, x), (y,), (x,))])
    assert (sys.getrefcount(x), sys.getrefcount(y)) == before
    assert d.terms == (Term((x, y), (x,), (y,)), Term((y, x), (y,), (x,)))


def test_make_decomposition_still_rejects_zero_vectors_and_wrong_lengths():
    one = ((1, 0), (1, 0), (1, 0))
    with pytest.raises(InputError, match="term 1 contains an all-zero vector"):
        make_decomposition((2, 2, 2), [one, ((1, 0), (0, Scalar(0)), (1, 1))])
    with pytest.raises(InputError, match="term 2 contains an all-zero vector"):
        make_decomposition((2, 2, 2), [one, one, ((2 ** 70, 0), (1, 1), ("0", ZERO))])
    with pytest.raises(InputError, match=r"term 1 has vector lengths \(2, 3, 2\)"):
        make_decomposition((2, 2, 2), [one, ((1, 0), (1, 0, 0), (1, 1))])
    # the constructor converts any other term sequence and checks its lengths too
    with pytest.raises(InputError, match=r"term 1 has vector lengths \(2, 3, 2\)"):
        ProductDecomposition((2, 2, 2), [one, ((1, 0), (1, 0, 0), (1, 1))])
    with pytest.raises(InputError, match="positive"):
        make_decomposition((0, 2, 2), [])


def test_storage_switches_to_python_ints_near_the_int64_limit():
    # int64 below 2^62, Python ints from there on, past 2^63 too
    for value, dtype in ((2 ** 62 - 1, np.int64), (-2 ** 62 + 1, np.int64), (2 ** 62, object),
                         (2 ** 63 - 1, object), (-2 ** 63, object), (2 ** 63 + 1, object)):
        terms = [((value, Scalar(1, -value)), (1, 2), (3,)),
                 ((1, 0), (Fraction(1, 3), 1), (Scalar(0, 1),))]
        d = make_decomposition((2, 2, 1), terms)
        a, b, c = d.terms.legs()
        assert a.re.dtype == a.im.dtype == dtype and a.den == 1
        assert b.re.dtype == np.int64 and b.den == 3
        assert d.terms == per_scalar_terms(terms)
        target = reference_reconstruct(d)
        assert reconstruct(d) == target and verify_decomposition(target, d).ok
        assert decomposition_from_json(json.loads(json.dumps(decomposition_to_json(d)))) == d
        plain = ProductDecomposition(d.dims, per_scalar_terms(terms))
        assert to_bilinear(d) == to_bilinear(plain)
        ops = LocalOperatorTriple(matrix([[1, Scalar(0, 2)], [0, Fraction(1, 2)]]),
                                  matrix([[1, 1]]), matrix([[2]]))
        assert transport(ops, d).terms == tuple(
            Term(*(mat_vec(scalar_rows(m), v) for m, v in zip((ops.A, ops.B, ops.C), term)))
            for term in plain.terms)
        assert decomposition_power(d, 2).terms == reference_power_terms(plain.terms, 2)


def test_array_paths_match_the_per_scalar_terms():
    rng = random.Random(82)
    for _ in range(12):
        dims = tuple(rng.randint(1, 3) for _ in range(3))
        d = random_decomposition(rng, dims, rng.randint(1, 3))
        ops = LocalOperatorTriple(*(sampling.matrix(rng, rng.randint(1, 3), n, complex_parts=True,
                                                    max_num=3, max_den=4) for n in dims))
        moved = transport(ops, d)
        assert isinstance(moved.terms, ArrayTerms) and moved.terms == tuple(
            Term(*(mat_vec(scalar_rows(m), v) for m, v in zip((ops.A, ops.B, ops.C), term)))
            for term in d.terms)
        for n in (1, 2, 3):
            power = decomposition_power(d, n)
            assert isinstance(power.terms, ArrayTerms)
            assert power.terms == reference_power_terms(d.terms, n)
    e = identity(3)
    assert ghz_decomposition(3).terms == tuple(Term(e[i], e[i], e[i]) for i in range(3))
    # every leg is kept over its least common denominator
    d = make_decomposition((2, 1, 1), [((Fraction(1, 2), Fraction(1, 6)), (1,), (1,))])
    assert d.terms.legs()[0].den == 6
    six = LocalOperatorTriple(matrix([[6, 0], [0, 6]]), matrix([[1]]),
                              matrix([[1]]))
    assert transport(six, d).terms.legs()[0].den == 1
    assert decomposition_power(d, 2).terms.legs()[0].den == 36
    half = make_decomposition((1, 1, 1), [((Scalar(Fraction(1, 2), Fraction(1, 2)),), (1,), (1,))])
    assert decomposition_power(half, 2).terms.legs()[0].den == 2  # ((1 + i)/2)^2 = i/2


def test_array_terms_compare_their_legs(monkeypatch):
    # equal ArrayTerms compare by their Legs, no Term built; int64 and
    # Python-int legs of equal values are equal, and Legs over other
    # denominators fall back to the Terms
    strassen = builtin_decomposition("STRASSEN7")

    def variants(copies):
        terms = decomposition_power(strassen, copies).terms
        wide = ArrayTerms(scalars.Leg(leg.re.astype(object), leg.im.astype(object), leg.den)
                          for leg in terms.legs())
        changed = ArrayTerms(scalars.Leg(leg.re.copy(), leg.im.copy(), leg.den)
                             for leg in terms.legs())
        changed.legs()[2].re.flags.writeable = True
        changed.legs()[2].re[-1, -1] += 1
        return terms, wide, changed

    cube, cube_wide, cube_changed = variants(3)
    assert isinstance(cube, ArrayTerms) and len(cube) == 343
    with monkeypatch.context() as patched:
        def no_terms(self, k):
            raise AssertionError("a Term was built")
        patched.setattr(ArrayTerms, "__getitem__", no_terms)
        assert cube == variants(3)[0] and cube == cube_wide and cube_wide == cube
        assert cube != cube_changed and cube_changed != cube_wide
    square, wide, changed = variants(2)
    plain = tuple(square)
    assert tuple(wide) == plain != tuple(changed)
    assert hash(square) == hash(wide) == hash(plain)
    # the same values over another denominator, not in lowest terms
    doubled = ArrayTerms(scalars.Leg(2 * leg.re, 2 * leg.im, 2 * leg.den) for leg in square.legs())
    assert doubled == square and square == doubled and hash(doubled) == hash(square)
    # a plain tuple of Terms compares as before, either way round
    assert square == plain and plain == square
    assert square != plain[:-1] and square != tuple(changed) and tuple(changed) != square
    # no terms: equal whatever the dims, as the empty tuples are
    empty = [ArrayTerms(scalars.Leg(np.zeros((0, n), dtype=np.int64),
                                    np.zeros((0, n), dtype=np.int64), 1) for n in dims)
             for dims in ((2, 2, 2), (3, 1, 2))]
    assert empty[0] == empty[1] == () and empty[0] != square


def test_consumers_build_one_value_per_distinct_value(monkeypatch):
    d = decomposition_power(phi3_witness(), 2)  # 49 terms over 0, 1 and -1
    encoded = []
    monkeypatch.setattr(decomp, "gaussian_to_json", lambda re, im, den: encoded.append(
        scalars.from_gaussian(re, im, den)) or scalars.gaussian_to_json(re, im, den))
    assert decomposition_from_json(json.loads(json.dumps(decomposition_to_json(d)))) == d
    assert len(encoded) == len(set(encoded)) == 3


def test_zero_tensor_has_rank_zero_by_convention():
    from tenrank.tensors import zero_tensor

    empty = make_decomposition((2, 2, 2), [])
    assert len(empty.terms) == 0
    assert verify_decomposition(zero_tensor((2, 2, 2)), empty).ok


# -- builtin decompositions ---------------------------------------------------


def test_ghz_decomposition_shape():
    d = builtin_decomposition("GHZ", 4)
    assert len(d.terms) == 4
    e = identity(4)
    for i, term in enumerate(d.terms):
        assert term.a == e[i] and term.b == e[i] and term.c == e[i]


def test_fiduccia_split_structure():
    d = builtin_decomposition("FIDUCCIA8_W2")
    assert len(d.terms) == 8
    # four rank-one-block terms followed by four diagonal-block terms whose
    # b- and c-vectors are the four standard basis vectors
    e = identity(4)
    for i, term in enumerate(d.terms[4:]):
        assert term.b == e[i] and term.c == e[i]
    # the first diagonal a-form carries the alternating-sign correction
    assert d.terms[4].a == vector([-1, -1, -1, 1])


# -- transport / monotonicity -------------------------------------------------


def test_transport_preserves_verification_and_term_count():
    rng = random.Random(59)
    for _ in range(30):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        d = random_decomposition(rng, dims, rng.randint(1, 3))
        t = reconstruct(d)
        ops = LocalOperatorTriple(
            sampling.matrix(rng, rng.randint(1, 3), dims[0], max_num=2),
            sampling.matrix(rng, rng.randint(1, 3), dims[1], max_num=2),
            sampling.matrix(rng, rng.randint(1, 3), dims[2], max_num=2),
        )
        moved = transport(ops, d)
        assert len(moved.terms) == len(d.terms)
        transformed = apply_local_operators(ops, t)
        assert verify_decomposition(transformed, moved).ok
        for leg in "ABC":
            assert flattening_rank(transformed, leg) <= flattening_rank(t, leg)


def test_transport_dim_mismatch():
    d = builtin_decomposition("GHZ", 2)
    ops = LocalOperatorTriple(identity(3), identity(2), identity(2))
    with pytest.raises(InputError):
        transport(ops, d)


# -- powers -------------------------------------------------------------------


def test_ghz_power_gives_ghz8():
    d = builtin_decomposition("GHZ", 2)
    p = decomposition_power(d, 3)
    assert len(p.terms) == 8
    assert verify_decomposition(builtin_state("GHZ", 8), p).ok


def test_strassen_power_2_verifies_against_squared_tensor():
    p = decomposition_power(builtin_decomposition("STRASSEN7"), 2)
    assert len(p.terms) == 49
    mm = matmul_tensor(2, 2, 2)
    assert verify_decomposition(tensor_product(mm, mm), p).ok


def test_power_term_ordering_first_copy_is_high_digit():
    d = builtin_decomposition("GHZ", 2)
    p = decomposition_power(d, 2)
    # term index 1 = digits (0, 1): first copy term 0, second copy term 1
    assert p.terms[1].a == vector([0, 1, 0, 0])
    assert p.terms[2].a == vector([0, 0, 1, 0])


def test_power_cap_and_env_override(monkeypatch):
    d = builtin_decomposition("STRASSEN7")
    monkeypatch.setenv("TENRANK_TERM_CAP", "48")
    with pytest.raises(ResourceError):
        decomposition_power(d, 2)
    monkeypatch.setenv("TENRANK_TERM_CAP", "50")
    assert len(decomposition_power(d, 2).terms) == 49
    monkeypatch.setenv("TENRANK_TERM_CAP", "banana")
    with pytest.raises(InputError):
        decomposition_power(d, 2)
    with pytest.raises(InputError):
        decomposition_power(d, 0)


def test_large_power_is_lazy_and_spot_terms_match():
    base = builtin_decomposition("STRASSEN7")
    p6 = decomposition_power(base, 6)
    # only the 7 base terms are stored
    assert isinstance(p6.terms, ArrayTerms) and p6.terms.copies == 6
    assert [leg.re.shape for leg in p6.terms.base_legs] == [(7, 4)] * 3
    assert len(p6.terms) == 7 ** 6
    assert p6.dims == (4096, 4096, 4096)
    # spot check: term 0 is the 6-fold kron of base term 0
    expected_a = reduce(kron_vec, [base.terms[0].a] * 6)
    assert p6.terms[0].a == expected_a
    # last term: all digits r-1
    expected_c = reduce(kron_vec, [base.terms[6].c] * 6)
    assert p6.terms[-1].c == expected_c
    # a power of a power is refused whatever its size
    for power in (p6, decomposition_power(base, 2)):
        with pytest.raises(InputError, match="power of a power"):
            decomposition_power(power, 2)


def test_randomized_power_verification_n6():
    base = transport(phi3_matmul_witness(), builtin_decomposition("STRASSEN7"))
    p6 = decomposition_power(base, 6)
    assert verify_power_randomized(builtin_state("PHI3"), p6, probes=20, seed=0).ok


def test_randomized_power_verification_fails_on_wrong_base():
    base = builtin_decomposition("STRASSEN7")  # not relabeled for PHI3
    p6 = decomposition_power(base, 6)
    result = verify_power_randomized(builtin_state("PHI3"), p6, probes=20, seed=0)
    assert not result.ok and result.randomized


def test_randomized_contraction_agrees_with_dense_paths_at_n2():
    # dual-route lock: factorized power contraction == term sum == dense
    base = builtin_decomposition("STRASSEN7")
    p2 = decomposition_power(base, 2)
    stored = ProductDecomposition(p2.dims, ArrayTerms(p2.terms.legs()))
    mm2 = tensor_product(matmul_tensor(2, 2, 2), matmul_tensor(2, 2, 2))
    rng = random.Random(61)
    for _ in range(5):
        x1, x2 = sampling.vector(rng, 4), sampling.vector(rng, 4)
        y1, y2 = sampling.vector(rng, 4), sampling.vector(rng, 4)
        z1, z2 = sampling.vector(rng, 4), sampling.vector(rng, 4)
        x, y, z = kron_vec(x1, x2), kron_vec(y1, y2), kron_vec(z1, z2)
        dense_value = contract(mm2, x, y, z)
        assert decomposition_contract(p2, x, y, z) == dense_value
        assert decomposition_contract(stored, x, y, z) == dense_value


def test_powers_of_every_size_verify_by_randomized_contraction():
    # stored-size powers, the one-copy power d itself included, take the same
    # check as large ones
    phi3, base, bad = builtin_state("PHI3"), phi3_witness(), phi3_witness_with_one_change()
    for n in (1, 2, 3):
        good, wrong = decomposition_power(base, n), decomposition_power(bad, n)
        for seed in range(20):
            assert verify_power_randomized(phi3, good, seed=seed).ok
            assert not verify_power_randomized(phi3, wrong, seed=seed).ok
    w_square = decomposition_power(w_rank3_decomposition(), 2)
    assert verify_power_randomized(builtin_state("W"), w_square) == \
        VerifyResult(True, None, randomized=True)


def test_equal_powers_compare_equal_and_slice_to_tuples(monkeypatch):
    base = phi3_witness()
    square = decomposition_power(base, 2).terms
    stored = ArrayTerms(square.legs())
    # a base negated in one leg has the same square
    negated = ArrayTerms((scalars.Leg(-leg.re, -leg.im, leg.den) if k == 0 else leg
                          for k, leg in enumerate(base.terms.legs())), 2)
    changed = decomposition_power(phi3_witness_with_one_change(), 2).terms
    with monkeypatch.context() as patched:
        def no_terms(self, k):
            raise AssertionError("a Term was built")
        patched.setattr(ArrayTerms, "__getitem__", no_terms)
        assert decomposition_power(base, 6) == decomposition_power(phi3_witness(), 6)
        assert square == stored and stored == square and square == negated
        assert square != changed
    cut = square[3:9]
    assert isinstance(cut, tuple) and cut == stored[3:9] and cut == tuple(stored)[3:9]


def test_verify_power_randomized_needs_at_least_one_probe():
    # no probe would pass any witness, STRASSEN7 unrelabeled against PHI3 too
    wrong = decomposition_power(builtin_decomposition("STRASSEN7"), 6)
    for probes in (0, -3):
        with pytest.raises(InputError, match="at least one probe"):
            verify_power_randomized(builtin_state("PHI3"), wrong, probes=probes)
    assert not verify_power_randomized(builtin_state("PHI3"), wrong, probes=1).ok


# -- the integer probe kernels against the per-Scalar contractions -------------


def python_int_decomposition(rng, dims=(3, 2, 4), r=3):
    """Complex terms with numerators near 2^21 in every leg, so the probe and
    reconstruction bounds pass 2^62 and the kernels use Python ints."""
    return make_decomposition(dims, [tuple(
        tuple(Scalar(Fraction(rng.choice((-1, 1)) * (2 ** 21 - rng.randrange(9)),
                              rng.choice((1, 3, 5))),
                     rng.randrange(-2 ** 21, 2 ** 21)) for _ in range(n))
        for n in dims) for _ in range(r)])


def probe_rows(xs, i):
    """Row i of the integer probe matrices xs as Scalar vectors."""
    return tuple(tuple(Scalar(int(v)) for v in x[i]) for x in xs)


def test_probe_kernels_match_per_scalar_contractions(monkeypatch):
    big = python_int_decomposition(random.Random(91))
    cases = kernel_corpus() + [(reference_reconstruct(big), big)]
    # lazy powers, read a few rows at a time below: a complex base with
    # denominators puts each chunk over its own lowest denominator
    mm = matmul_tensor(2, 2, 2)
    rng = random.Random(92)
    mixed = make_decomposition((2, 3, 1), [tuple(
        nonzero_vector(rng, n, complex_parts=True, max_num=9, max_den=12)
        for n in (2, 3, 1)) for _ in range(3)])
    for base, target in ((builtin_decomposition("STRASSEN7"), mm),
                         (mixed, reconstruct(mixed))):
        cases.append((tensor_product(target, target), decomposition_power(base, 2)))
    monkeypatch.setattr(decomp, "_CHUNK_SCALARS", 40)
    generator = np.random.default_rng(93)
    for t, d in cases:
        xs = [generator.integers(-25, 26, size=(6, n)) for n in t.dims]
        for (re, im, den), reference in (
                (decomp._terms_values(d.terms, xs), partial(decomposition_contract, d)),
                (decomp._target_values(t, xs), partial(contract, t))):
            for i in range(6):
                assert scalars.from_gaussian(re[i], im[i], den) == reference(*probe_rows(xs, i))


def test_every_lazy_power_term_matches_the_per_scalar_reference():
    rng = random.Random(94)
    mixed = make_decomposition((2, 3, 1), [tuple(
        nonzero_vector(rng, n, complex_parts=True, max_num=9, max_den=12)
        for n in (2, 3, 1)) for _ in range(3)])
    # numerators near 2^40: the square of a leg passes 2^62
    big = make_decomposition((2, 1, 1), [((2 ** 40, Scalar(1, -2 ** 40)), (3,), (1,)),
                                         ((1, Fraction(1, 3)), (Scalar(0, 1),), (2,))])
    assert decomposition_power(big, 2).terms.legs()[0].re.dtype == object
    for base in (builtin_decomposition("STRASSEN7"), mixed, big):
        for n in (2, 3):
            lazy = decomposition_power(base, n).terms
            expected = reference_power_terms(base.terms, n)
            assert len(lazy) == len(expected) and tuple(lazy) == expected
            assert lazy[-1] == expected[-1] and lazy[1:3] == expected[1:3]
            assert isinstance(lazy[1:3], tuple)
            assert ArrayTerms(lazy.legs()) == expected
            assert ArrayTerms(lazy.legs(2, 5)) == expected[2:5]
            assert decomposition_power(base, n).terms == expected


def test_lazy_power_keeps_no_caller_scalar():
    x, y = Scalar(Fraction(7, 3), Fraction(-2, 5)), Scalar(11)
    plain = ProductDecomposition((2, 1, 1), (Term((x, y), (x,), (y,)), Term((y, x), (y,), (x,))))
    before = sys.getrefcount(x), sys.getrefcount(y)
    lazy = decomposition_power(plain, 2).terms
    assert (sys.getrefcount(x), sys.getrefcount(y)) == before
    assert isinstance(lazy.base_terms, ArrayTerms) and len(lazy.base_terms) == 2
    assert lazy[1] == Term(kron_vec((x, y), (y, x)), (x * y,), (y * x,))


def phi3_witness_with_one_change():
    """The PHI3 witness with one c-coefficient of term 3 raised by one."""
    terms = tuple(phi3_witness().terms)
    a, b, c = terms[3]
    return ProductDecomposition((4, 4, 4), terms[:3] + (Term(a, b, c[:2] + (c[2] + 1,) + c[3:]),)
                                + terms[4:])


def test_one_coefficient_corruption_of_the_phi3_base_is_rejected():
    phi3, base, bad = builtin_state("PHI3"), phi3_witness(), phi3_witness_with_one_change()
    assert not verify_decomposition(phi3, bad).ok
    for n in (4, 5, 6):
        good, wrong = decomposition_power(base, n), decomposition_power(bad, n)
        for seed in range(20):
            assert verify_power_randomized(phi3, good, seed=seed).ok
            assert not verify_power_randomized(phi3, wrong, seed=seed).ok


def test_probes_follow_the_seed_and_negative_seeds_are_accepted(monkeypatch):
    phi3 = builtin_state("PHI3")
    good = decomposition_power(phi3_witness(), 6)
    wrong = decomposition_power(builtin_decomposition("STRASSEN7"), 6)
    drawn = []
    original = decomp._target_values
    monkeypatch.setattr(decomp, "_target_values",
                        lambda t, xs: drawn.append([x.tolist() for x in xs]) or original(t, xs))
    for seed in (-1, -20, -(2 ** 40), 2 ** 70):
        assert verify_power_randomized(phi3, good, seed=seed).ok
        for _ in range(2):
            assert verify_power_randomized(phi3, wrong, seed=seed) == \
                VerifyResult(False, None, randomized=True)
        assert drawn[-1] == drawn[-2] == drawn[-3]
    # a negative seed draws the probes of its absolute value, as random.Random does
    verify_power_randomized(phi3, good, seed=20)
    assert drawn[-1] == drawn[3]
    verify_power_randomized(phi3, good, seed=21)
    assert drawn[-1] != drawn[-2]


def test_lazy_power_fallback_reads_bounded_chunks_and_matches_dense(monkeypatch):
    mm = matmul_tensor(2, 2, 2)
    target = tensor_product(mm, mm)
    strassen = builtin_decomposition("STRASSEN7")
    first = strassen.terms[0]
    corrupted = ProductDecomposition(
        strassen.dims, (Term(first.a, first.b, (first.c[0] + 1,) + first.c[1:]),)
        + tuple(strassen.terms[1:]))
    bases = ((strassen, True), (corrupted, False))
    for base, ok in bases:
        assert verify_decomposition(target, decomposition_power(base, 2)).ok is ok
    monkeypatch.setattr(decomp, "DENSE_VERIFY_LIMIT", 10)
    monkeypatch.setattr(decomp, "_CHUNK_SCALARS", 400)
    spans = []
    original = ArrayTerms.legs

    def spy(self, first=0, stop=None):
        spans.append((first, stop))
        return original(self, first, stop)

    monkeypatch.setattr(ArrayTerms, "legs", spy)
    for base, ok in bases:
        lazy = decomposition_power(base, 2)
        assert verify_decomposition(target, lazy) == VerifyResult(ok, None, randomized=True)
    # 20 probes and dims 16: at most 400 // (20 + 48) = 5 of the 49 rows at a time
    assert len(spans) == 2 * 10 and all(stop - first <= 5 for first, stop in spans)


def test_package_decompositions_hold_legs_and_probes_make_no_scalars(monkeypatch):
    phi3 = builtin_state("PHI3")
    witness = phi3_witness()
    rationalized = decomp.rationalize_factors((2, 2, 2), [np.eye(2)] * 3)
    built = [builtin_decomposition("STRASSEN7"), builtin_decomposition("FIDUCCIA8_W2"),
             ghz_decomposition(3), w_rank3_decomposition(), witness, rationalized,
             decomposition_power(witness, 2), decomposition_power(witness, 6),
             naive_matmul_decomposition(2, 3, 2), from_bilinear(to_bilinear(witness)),
             decomposition_from_json(json.loads(json.dumps(decomposition_to_json(witness))))]
    for d in built:
        assert isinstance(d.terms, ArrayTerms)
        for leg in d.terms.base_legs:
            for part in (leg.re, leg.im):
                assert part.dtype == np.int64 or {type(v) for v in part.ravel()} <= {int}
    # every Scalar operation makes a new Scalar: count them in both checks
    phi3sq = tensor_product(phi3, phi3)
    lazy2 = built[6]
    made = []
    original = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args: made.append(args)
                        or original(self, *args))
    assert verify_power_randomized(phi3, built[7]).ok
    monkeypatch.setattr(decomp, "DENSE_VERIFY_LIMIT", 3)
    assert verify_decomposition(phi3, witness) == VerifyResult(True, None, randomized=True)
    assert verify_decomposition(phi3sq, lazy2) == VerifyResult(True, None, randomized=True)
    assert made == []
    Scalar(2) * Scalar(3)
    assert len(made) == 3


# -- non-additivity -----------------------------------------------------------


def test_witnessed_rank_subadditivity_for_w2():
    w2_witness = builtin_decomposition("FIDUCCIA8_W2")
    w_witness = w_rank3_decomposition()
    assert len(w2_witness.terms) == 8
    assert len(w_witness.terms) ** 2 == 9
    assert len(w2_witness.terms) < len(w_witness.terms) ** 2


# -- exact 2x2x2 rank certificate ----------------------------------------------


def test_rank222_examples():
    assert rank_leq2_test_2x2x2(builtin_state("GHZ", 2)) is Rank222.RANK_LEQ2
    assert rank_leq2_test_2x2x2(builtin_state("W")) is Rank222.RANK_GEQ3
    single = make_tensor((2, 2, 2), {(0, 0, 0): 1})
    assert rank_leq2_test_2x2x2(single) is Rank222.DEGENERATE
    assert rank_leq2_test_2x2x2(make_tensor((2, 2, 2), {})) is Rank222.DEGENERATE
    with pytest.raises(InputError):
        rank_leq2_test_2x2x2(builtin_state("GHZ", 3))


def test_w_pencil_is_nonzero_nilpotent_oracle():
    # hand-checkable oracle for the W case: S1 S0^-1 = [[0,1],[0,0]]
    w = builtin_state("W")
    s0, s1 = (tuple(tuple(w[a, b, c] for b in range(2)) for a in range(2)) for c in range(2))
    m = mat_mul(s1, linalg.inverse(s0))
    assert m == matrix([[0, 1], [0, 0]])
    assert mat_mul(m, m) == zeros(2, 2)  # nilpotent, nonzero


def _image(ops, t):
    return apply_local_operators(LocalOperatorTriple(*ops), t)


def test_rank222_by_construction_oracles():
    # the class of each tensor is known from how it is built, not computed:
    # invertible images keep GHZ (rank 2) and W (rank 3); product,
    # biseparable and singular images have a flattening rank below 2
    rng = random.Random(73)
    ghz, w = builtin_state("GHZ", 2), builtin_state("W")
    product = make_tensor((2, 2, 2), {(0, 0, 0): 1})
    biseparable = [make_tensor((2, 2, 2), {pair(i): 1 for i in range(2)})
                   for pair in (lambda i: (0, i, i), lambda i: (i, 0, i), lambda i: (i, i, 0))]
    rank_one = matrix([[1, 0], [0, 0]])

    def invertible():
        return invertible_matrix(rng, 2, complex_parts=True, max_num=3, max_den=2)

    for _ in range(10):
        ops = [invertible() for _ in range(3)]
        assert rank_leq2_test_2x2x2(_image(ops, ghz)) is Rank222.RANK_LEQ2
        assert rank_leq2_test_2x2x2(_image(ops, w)) is Rank222.RANK_GEQ3
        for t in (product, *biseparable):
            assert rank_leq2_test_2x2x2(_image(ops, t)) is Rank222.DEGENERATE
        # one operator of rank 1 (or 0) collapses that leg's flattening
        leg = rng.randrange(3)
        ops[leg] = mat_mul(ops[leg], rank_one) if rng.random() < 0.8 else \
            matrix([[0, 0], [0, 0]])
        for t in (ghz, w):
            assert rank_leq2_test_2x2x2(_image(ops, t)) is Rank222.DEGENERATE


def test_rank222_agrees_with_two_term_witnesses():
    rng = random.Random(67)
    found = 0
    while found < 100:
        d = random_decomposition(rng, (2, 2, 2), 2)
        t = reconstruct(d)
        if t.is_zero():
            continue
        found += 1
        assert rank_leq2_test_2x2x2(t) in (Rank222.RANK_LEQ2, Rank222.DEGENERATE)


def test_rank222_rank_one_plus_generic_is_geq3_for_w_class():
    # random invertible transforms of W stay rank >= 3
    rng = random.Random(71)
    w = builtin_state("W")
    for _ in range(25):
        ops = LocalOperatorTriple(
            *(invertible_matrix(rng, 2, max_num=3, max_den=2) for _ in range(3))
        )
        assert rank_leq2_test_2x2x2(apply_local_operators(ops, w)) is Rank222.RANK_GEQ3


# -- rank facts ---------------------------------------------------------------


def test_rank_facts_lookup():
    name, fact = DEFAULT_RANK_FACTS.lookup(builtin_state("PHI3"))
    assert name == "PHI3" and fact.rank == 7 and fact.note
    name, fact = DEFAULT_RANK_FACTS.lookup(builtin_state("W"))
    assert name == "W" and fact.rank == 3
    name, fact = DEFAULT_RANK_FACTS.lookup(builtin_state("GHZ", 5))
    assert name == "GHZ(5)" and fact.rank == 5
    assert DEFAULT_RANK_FACTS.lookup(builtin_state("W2")) is None


def parent_lookup(t):
    """The registered name RankFacts.lookup gave when it built and compared
    every registered state of matching dims."""
    da, db, dc = t.dims
    if da == db == dc and t == builtin_state("GHZ", da):
        return f"GHZ({da})"
    if t.dims == (2, 2, 2) and t == builtin_state("W"):
        return "W"
    if t.dims == (4, 4, 4) and t == builtin_state("PHI3"):
        return "PHI3"
    return None


def lookup_corpus():
    ops = LocalOperatorTriple(*(invertible_matrix(random.Random(k), 4) for k in range(3)))
    phi3 = builtin_state("PHI3")
    three = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    return [
        *(builtin_state("GHZ", n) for n in range(1, 6)),
        make_tensor((3, 3, 3), {(k, k, k): 2 for k in range(3)}),
        make_tensor((3, 3, 3), {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): Scalar(0, 1)}),
        make_tensor((1, 1, 1), {(0, 0, 0): 2}), zero_tensor((1, 1, 1)), zero_tensor((2, 2, 2)),
        builtin_state("W"), make_tensor((2, 2, 2), three),
        make_tensor((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): Fraction(1, 2)}),
        phi3, make_tensor((4, 4, 4), {index: (2 if index == (0, 0, 0) else 1)
                                      for index, _ in phi3.nonzeros()}),
        apply_local_operators(ops, phi3), builtin_state("W2"), builtin_state("EPR"),
        make_tensor((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 1): 1}),
        make_tensor((2, 2, 2), {(0, 0, 0): 1}),
    ]


def test_rank_facts_lookup_matches_comparing_every_registered_state():
    for t in lookup_corpus():
        found = DEFAULT_RANK_FACTS.lookup(t)
        assert (found[0] if found else None) == parent_lookup(t), t


def test_rank_facts_lookup_builds_no_state_it_cannot_match(monkeypatch):
    # dims and nonzero counts rule a target out before any registered state
    # is built, and each registered state is built once per process
    corpus = lookup_corpus()
    misses = [t for t in corpus if not parent_lookup(t) and not (
        (t.dims[0] == t.dims[1] == t.dims[2] == t.nnz()) or (t.dims, t.nnz()) in (
            ((2, 2, 2), 3), ((4, 4, 4), 8)))]
    assert len(misses) >= 6
    built = []
    real = decomp.builtin_state
    monkeypatch.setattr(decomp, "builtin_state", lambda *args: built.append(args) or real(*args))
    decomp._registered_state.cache_clear()
    assert [DEFAULT_RANK_FACTS.lookup(t) for t in misses] == [None] * len(misses)
    assert built == []
    for _ in range(2):
        for t in (builtin_state("GHZ", 4), builtin_state("W"), builtin_state("PHI3")):
            assert DEFAULT_RANK_FACTS.lookup(t) is not None
    assert built == [("GHZ", 4), ("W",), ("PHI3",)]


def test_rank_bounds_on_a_fixed_corpus():
    phi3 = builtin_state("PHI3")
    ops = LocalOperatorTriple(*(invertible_matrix(random.Random(k), 4)
                                for k in range(3)))
    # (tensor, flattening ranks A/B/C, lower, upper, registered name)
    corpus = [
        (builtin_state("GHZ", 5), (5, 5, 5), 5, 5, "GHZ(5)"),
        (builtin_state("W"), (2, 2, 2), 3, 3, "W"),
        (phi3, (4, 4, 4), 7, 7, "PHI3"),
        (builtin_state("W2"), (4, 4, 4), 4, None, None),
        (builtin_state("EPR"), (2, 2, 1), 2, 2, None),
        (apply_local_operators(ops, phi3), (4, 4, 4), 4, None, None),
    ]
    for t, ranks, lower, upper, name in corpus:
        bounds = rank_bounds(t)
        assert bounds.flattening_ranks == dict(zip("ABC", ranks))
        assert (bounds.lower, bounds.upper) == (lower, upper)
        assert (bounds.fact[0] if bounds.fact else None) == name
        if upper is not None:
            assert verify_decomposition(t, bounds.witness).ok


def w_class_images(seed, count):
    """Images of W under random invertible complex local operators."""
    rng = random.Random(seed)
    for _ in range(count):
        ops = LocalOperatorTriple(*(invertible_matrix(rng, 2, complex_parts=True,
                                                      max_num=3, max_den=3)
                                    for _ in range(3)))
        yield ops, apply_local_operators(ops, builtin_state("W"))


def test_rank_bounds_raise_the_lower_bound_to_3_on_the_w_class():
    for ops, image in w_class_images(91, 6):
        bounds = rank_bounds(image)
        assert bounds.fact is None and bounds.rank222 is Rank222.RANK_GEQ3
        assert bounds.flattening_ranks == {"A": 2, "B": 2, "C": 2}
        assert (bounds.lower, bounds.upper) == (3, None)
        ghz_class = rank_bounds(apply_local_operators(ops, builtin_state("GHZ", 2)))
        assert ghz_class.rank222 is Rank222.RANK_LEQ2 and ghz_class.lower == 2
    assert rank_bounds(make_tensor((2, 2, 2), {(0, 0, 0): 1})).rank222 is Rank222.DEGENERATE
    assert rank_bounds(builtin_state("PHI3")).rank222 is None


# -- exact witnesses by simultaneous diagonalization ----------------------------


def ghz_images(seed, n, count, **kw):
    """Images of GHZ(n) under random invertible local operators."""
    rng = random.Random(seed)
    for _ in range(count):
        ops = LocalOperatorTriple(*(invertible_matrix(rng, n, **kw) for _ in range(3)))
        yield apply_local_operators(ops, builtin_state("GHZ", n))


def outer_sum(dims, terms):
    return reconstruct(make_decomposition(dims, terms))


def assert_exact_witness(t, witness, r):
    assert witness is not None and len(witness.terms) == r
    assert verify_decomposition(t, witness).ok and witness._verified_target is t
    for leg in witness.terms.legs():  # integer numerators only: no float in the certificate
        assert leg.re.dtype.kind in "iO" and type(leg.den) is int


def test_diagonal_witness_decides_the_ghz_orbit_exactly():
    for n, kw in ((2, {"complex_parts": True, "max_num": 3, "max_den": 3}), (3, {}),
                  (4, {"max_num": 3, "max_den": 2})):
        for t in ghz_images(40 + n, n, 3, **kw):
            assert_exact_witness(t, diagonal_witness(t), n)
    # legs permuted: A and C are the square legs, B indexes the slices
    terms = [((1, 2), (1, 0, 3), (2, -1)), ((1, -1), (0, 1, 1), (1, 1))]
    t = outer_sum((2, 3, 2), terms)
    assert flattening_ranks(t) == {"A": 2, "B": 2, "C": 2}
    assert_exact_witness(t, diagonal_witness(t), 2)
    # one leg shorter than r: it indexes the slices
    t = outer_sum((3, 3, 2), [((1, 0, 1), (1, 1, 0), (1, 1)), ((0, 1, 0), (0, 1, 1), (1, -1)),
                              ((1, 1, 0), (1, 0, 1), (1, 2))])
    assert_exact_witness(t, diagonal_witness(t), 3)


def test_diagonal_witness_takes_a_singular_first_slice():
    # c_1 = e_1 puts nothing of the first term in slice 0, which is then
    # singular: an infinite eigenvalue of the pencil (S_0, S_1), so that pair
    # is skipped and the next decides
    t = outer_sum((2, 2, 2), [((1, 2), (3, -1), (0, 1)), ((1, -1), (1, 1), (1, 1))])
    assert not linalg.det(tuple(tuple(t[(a, b, 0)] for b in range(2)) for a in range(2)))
    assert_exact_witness(t, diagonal_witness(t), 2)


def test_diagonal_witness_retries_a_repeated_eigenvalue(monkeypatch):
    # c_1 = (1, 1, 0) and c_2 = (1, 0, 1) give the first pair, X0 = S_0 and
    # X1 = S_0 + S_1 + S_2, the eigenvalue 2 twice
    t = outer_sum((2, 2, 3), [((1, 2), (3, -1), (1, 1, 0)), ((1, -1), (1, 1), (1, 0, 1))])
    calls = []
    rounded_roots = pencil._rounded_roots
    monkeypatch.setattr(pencil, "_rounded_roots",
                        lambda *args: calls.append(rounded_roots(*args)) or calls[-1])
    assert_exact_witness(t, diagonal_witness(t), 2)
    assert len(calls) >= 2 and len(set(calls[0])) == 1 and len(set(calls[-1])) == 2


def test_diagonal_witness_reads_a_slicing_leg_of_flattening_rank_1():
    # M (x) u with M of rank 2: the slices along u's leg are u_l M, the
    # first of them zero for the second u
    m = ((1, Scalar(0, 2)), (Fraction(1, 3), 5))
    for u, leg in itertools.product(((2, Scalar(1, -1), 0), (0, 2, Scalar(1, -1))), range(3)):
        entries = {}
        for (a, b, l) in itertools.product(range(2), range(2), range(3)):
            index = [a, b]
            index.insert(leg, l)
            entries[tuple(index)] = m[a][b] * u[l]
        dims = tuple(3 if k == leg else 2 for k in range(3))
        t = make_tensor(dims, entries)
        assert list(flattening_ranks(t).values()) == [1 if k == leg else 2 for k in range(3)]
        assert_exact_witness(t, diagonal_witness(t), 2)
    epr = builtin_state("EPR")
    assert_exact_witness(epr, diagonal_witness(epr), 2)
    # the 2x2x2 product state has no two legs of dimension and rank r
    assert diagonal_witness(make_tensor((2, 2, 2), {(0, 0, 0): 1})) is None


def test_rank_bounds_ranks_the_flattenings_once(monkeypatch):
    calls = []
    flattening_ranks = decomp.flattening_ranks
    monkeypatch.setattr(decomp, "flattening_ranks",
                        lambda t: calls.append(t) or flattening_ranks(t))
    w_image = next(w_class_images(91, 1))[1]
    for t in (builtin_state("W"), builtin_state("PHI3"), w_image):
        calls.clear()
        rank_bounds(t)
        assert calls == [t]


def test_diagonal_witness_is_none_outside_its_scope(monkeypatch):
    checked = []
    verify = decomp.verify_decomposition
    monkeypatch.setattr(decomp, "verify_decomposition",
                        lambda *args: checked.append(verify(*args)) or checked[-1])
    # eigenvalues 1 +- sqrt(2) of the pencil (I, [[0, 2], [1, 0]]): rank 2 over C only
    sqrt2 = make_tensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 1): 2, (1, 0, 1): 1})
    # GHZ(2) in 3x3x2: no two legs of dimension r
    embedded = make_tensor((3, 3, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    # 10^400 is exact, but no float holds it
    big = make_tensor((2, 2, 2), {(0, 0, 0): 10 ** 400, (1, 1, 1): 1})
    w_images = [image for _, image in w_class_images(93, 3)]  # one eigenvalue, twice
    for t in (sqrt2, embedded, big, *w_images, builtin_state("W2"), zero_tensor((2, 2, 2))):
        assert diagonal_witness(t) is None
    assert checked == []
    # slices I, diag(1, 2, 3) and E_01: the first pencil diagonalizes exactly,
    # the third slice is not diagonal in its basis, so the witness fails
    t = make_tensor((3, 3, 3), {(0, 0, 0): 1, (1, 1, 0): 1, (2, 2, 0): 1, (0, 0, 1): 1,
                                (1, 1, 1): 2, (2, 2, 1): 3, (0, 1, 2): 1})
    assert flattening_ranks(t) == {"A": 3, "B": 3, "C": 3}
    assert diagonal_witness(t) is None
    assert [result.ok for result in checked] == [False]


def random_gaussian_matrix(rng, n, rank, cols=None):
    """An n x cols (default n x n) Gaussian-integer matrix of (generically)
    the given rank, as rows of (re, im) pairs: the product of random
    n x rank and rank x cols factors."""
    def entries(rows, cols):
        return [[(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(cols)]
                for _ in range(rows)]

    left, right = entries(n, rank), entries(rank, n if cols is None else cols)
    return [[_gdot(row, col) for col in zip(*right)] for row in left]


def leibniz_det(m):
    """det m over Z[i] as the sum over permutations, for small n."""
    total = (0, 0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        term = (-1 if inversions % 2 else 1, 0)
        for row, col in enumerate(perm):
            term = _gmul(term, m[row][col])
        total = (total[0] + term[0], total[1] + term[1])
    return total


def test_fraction_free_echelon_and_kernel_on_seeded_matrices():
    # the last pivot of a nonsingular matrix is +-det; the kernel vector of a
    # matrix of nullity one is annihilated exactly, and any other nullity
    # gives None
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        rank = rng.randint(max(1, n - 2), n)
        m = random_gaussian_matrix(rng, n, rank)
        rows, pivots = _echelon(m)
        assert len(pivots) == rank
        if rank == n:
            det, lead = leibniz_det(m), rows[-1][-1]
            assert det in (lead, (-lead[0], -lead[1])) and det != (0, 0)
        z = _kernel_vector(m)
        if rank != n - 1:
            assert z is None
            continue
        assert any(map(any, z)) and math.gcd(*(x for v in z for x in v)) == 1
        assert all(_gdot(row, z) == (0, 0) for row in m)
    # wide and tall rank-deficient matrices, as the flattening ranks pass
    # them, against sympy's rank; the echelon rows span the row space
    wide = set()
    for _ in range(8):
        rows, cols = rng.sample(range(2, 6), 2)
        wide.add(rows < cols)
        m = random_gaussian_matrix(rng, rows, rng.randint(1, min(rows, cols) - 1), cols)
        echelon, pivots = _echelon(m)
        rank = oracle_rank([[Scalar(*x) for x in row] for row in m])
        assert len(pivots) == len(echelon) == rank < min(rows, cols)
        assert linalg.rank([[Scalar(*x) for x in row] for row in m + echelon]) == rank
    assert wide == {True, False}


# -- JSON ---------------------------------------------------------------------


def test_decomposition_json_round_trip():
    d = builtin_decomposition("STRASSEN7")
    payload = json.loads(json.dumps(decomposition_to_json(d)))
    again = decomposition_from_json(payload)
    assert again.dims == d.dims
    assert tuple(again.terms) == tuple(d.terms)


def test_decomposition_json_complex_entries():
    d = make_decomposition(
        (2, 1, 1),
        [((Scalar(Fraction(1, 2), Fraction(-1, 3)), Scalar(0)), (Scalar(1),), (Scalar(1),))],
    )
    payload = decomposition_to_json(d)
    assert payload["terms"][0]["a"][0] == {"re": "1/2", "im": "-1/3"}
    assert decomposition_from_json(payload).terms[0].a[0] == Scalar(
        Fraction(1, 2), Fraction(-1, 3)
    )


def test_decomposition_json_repeated_strings_decode_to_equal_values(monkeypatch):
    # strings repeat across terms ("1", "0", "-1", the same complex pair);
    # decoding each once per call must give the value a fresh decode gives
    half = Scalar(Fraction(1, 2), Fraction(-1, 3))
    d = make_decomposition((3, 2, 2), [
        ((1, 0, half), (1, -1), (half, 1)),
        ((0, half, 1), (-1, 1), (1, 0)),
        ((half, -1, 0), (1, half), (0, -1)),
    ])
    payload = json.loads(json.dumps(decomposition_to_json(d)))
    loaded = decomposition_from_json(payload)
    assert loaded == d
    for term, item in zip(loaded.terms, payload["terms"]):
        for vector, leg in zip(term, "abc"):
            assert list(vector) == [scalar_from_json(v) for v in item[leg]]
    # within one call a repeated string is parsed once; a second call
    # parses on its own, nothing is shared across calls
    decoded = []
    pattern = scalars._RATIO

    class Counting:
        def fullmatch(self, text):
            decoded.append(text)
            return pattern.fullmatch(text)

    monkeypatch.setattr(scalars, "_RATIO", Counting())
    strings = {part for item in payload["terms"] for leg in "abc" for v in item[leg]
               for part in ((v["re"], v["im"]) if isinstance(v, dict) else (v,))}
    assert strings == {"0", "1", "-1", "1/2", "-1/3"}
    for _ in range(2):
        decoded.clear()
        assert decomposition_from_json(payload) == d
        assert sorted(decoded) == sorted(strings)


def test_decomposition_json_repeated_malformed_string_raises():
    good = decomposition_to_json(w_rank3_decomposition())
    for bad in ("1/0", "x", "1.5.2"):
        payload = json.loads(json.dumps(good))
        for item in payload["terms"]:
            item["b"][0] = item["c"][1] = bad
        with pytest.raises(InputError):
            decomposition_from_json(payload)


def test_float_decomposition_marked_inexact():
    import numpy as np

    factors = [np.ones((2, 1), dtype=complex) for _ in range(3)]
    payload = float_decomposition_to_json((2, 2, 2), factors)
    assert payload["exact"] is False
    assert payload["terms"][0]["a"][0] == {"re": 1.0, "im": 0.0}
    with pytest.raises(InputError):
        decomposition_from_json(payload)
