import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    invertible_matrix,
    mat_mul,
    matrix,
    nonzero_vector,
    oracle_rank,
    reference_simulate,
)

from tenrank import decomp, linalg, pencil, sampling, slocc, tensors
from tenrank.bilinear import phi3_matmul_witness
from tenrank.decomp import (
    Rank222,
    builtin_decomposition,
    builtin_state,
    decomposition_power,
    ghz_decomposition,
    make_decomposition,
    rank_leq2_test_2x2x2,
    reconstruct,
    transport,
    verify_decomposition,
    w_rank3_decomposition,
)
from tenrank.errors import InputError, ResourceError, WitnessMismatch
from tenrank.scalars import Scalar
from tenrank.slocc import (
    ConvertVerdict,
    ThreeQubitClass,
    bipartite_convertible,
    build_protocol,
    classify_three_qubit,
    decide_ghz_conversion,
    direction_deviation,
    hyperdeterminant_2x2x2,
    protocol_to_json,
    schmidt_measure_bounds,
    simulate,
    verdict_to_json,
)
from tenrank.tensors import (
    LocalOperatorTriple,
    apply_local_operators,
    flattening,
    make_tensor,
    tensor_product,
)


def phi3_witness():
    return transport(phi3_matmul_witness(), builtin_decomposition("STRASSEN7"))


# -- protocol construction -----------------------------------------------------


def test_identity_witness_gives_certain_protocol():
    protocol = build_protocol(ghz_decomposition(2), 2)
    assert protocol.success_probability == pytest.approx(1.0, abs=1e-12)
    outcome, probability = simulate(protocol, builtin_state("GHZ", 2))
    assert probability == pytest.approx(1.0, abs=1e-12)
    assert direction_deviation(outcome, builtin_state("GHZ", 2).to_numpy()) <= 1e-12


def test_identity_protocol_passes_w_through():
    # the GHZ(2) witness yields identity operators, so any (2,2,2) source
    # passes through unchanged with certainty
    protocol = build_protocol(ghz_decomposition(2), 2)
    w = builtin_state("W")
    outcome, probability = simulate(protocol, w)
    assert probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(outcome, w.to_numpy(), atol=1e-12)


def test_ghz8_to_w2_protocol():
    protocol = build_protocol(builtin_decomposition("FIDUCCIA8_W2"), 8)
    assert protocol.success_probability > 0
    outcome, probability = simulate(protocol, builtin_state("GHZ", 8))
    assert probability > 0
    assert direction_deviation(outcome, builtin_state("W2").to_numpy()) <= 1e-10


def test_ghz8_to_phi3_protocol():
    protocol = build_protocol(phi3_witness(), 8)
    outcome, probability = simulate(protocol, builtin_state("GHZ", 8))
    assert probability > 0
    assert direction_deviation(outcome, builtin_state("PHI3").to_numpy()) <= 1e-10


def test_ghz64_to_phi3_squared_protocol():
    phi3 = builtin_state("PHI3")
    target = tensor_product(phi3, phi3)
    witness = decomposition_power(phi3_witness(), 2)
    protocol = build_protocol(witness, 64, target=target)
    outcome, probability = simulate(protocol, builtin_state("GHZ", 64))
    assert probability > 0
    assert direction_deviation(outcome, target.to_numpy()) <= 1e-10


def test_scaled_operators_are_measurement_elements():
    # largest singular value 1 and I - M^dag M positive semidefinite
    for witness, n in [
        (builtin_decomposition("FIDUCCIA8_W2"), 8),
        (phi3_witness(), 8),
        (w_rank3_decomposition(), 5),
    ]:
        protocol = build_protocol(witness, n)
        for m in protocol.ops:
            singular = np.linalg.svd(m, compute_uv=False)
            assert singular[0] <= 1 + 1e-12
            gram = np.eye(m.shape[1]) - m.conj().T @ m
            assert np.linalg.eigvalsh(gram).min() >= -1e-10


def test_protocol_exact_ops_reproduce_target_exactly():
    witness = builtin_decomposition("FIDUCCIA8_W2")
    protocol = build_protocol(witness, 8)
    out = apply_local_operators(protocol.exact_ops, builtin_state("GHZ", 8))
    assert out == builtin_state("W2")


def test_build_protocol_errors():
    with pytest.raises(InputError):
        build_protocol(builtin_decomposition("FIDUCCIA8_W2"), 7)  # N < r
    with pytest.raises(ResourceError):
        build_protocol(ghz_decomposition(2), (1 << 14) + 1)
    with pytest.raises(InputError):
        build_protocol(ghz_decomposition(2), 4, target=builtin_state("W"))
    zero_sum = make_decomposition(
        (2, 2, 2),
        [((1, 0), (1, 0), (1, 0)), ((-1, 0), (1, 0), (1, 0))],
    )
    with pytest.raises(InputError):
        build_protocol(zero_sum, 2)


def test_build_protocol_beyond_the_float_range_raises_resource_error():
    big = 10 ** 400
    huge = make_decomposition((2, 2, 2), [((big, 0), (1, 0), (1, 0)),
                                          ((0, 1), (0, 1), (0, 1))])
    with pytest.raises(ResourceError, match="float range"):
        build_protocol(huge, 2)
    # every operator entry fits a float, but the target's squared norm does not
    large = 10 ** 200
    squared = make_decomposition((2, 2, 2), [((large, 0), (large, 0), (large, 0))])
    with pytest.raises(ResourceError, match="float range"):
        build_protocol(squared, 2)


def test_float_operators_equal_the_per_value_quotients_bit_for_bit():
    # numerators and den below 2^53 are divided as floats, from 2^53 on (int64
    # or Python-int legs) as integers: either way each entry is the per-value
    # complex(re / den, im / den), which sets the scales and scaled operators
    # (2^53 + 7) / 5 is not float(2^53 + 7) / 5, so a float division there shows
    assert float(2 ** 53 + 7) / 5 != (2 ** 53 + 7) / 5
    for big in (2 ** 53 - 1, 2 ** 53 + 7, 2 ** 63 + 1, 10 ** 30 + 3):
        fifth = Fraction(big, 5)  # big is no multiple of 5, so every den is 5
        d = make_decomposition((2, 2, 3), [
            ((fifth, Scalar(-1, -fifth)), (1, Fraction(2, 5)), (fifth, 0, 1)),
            ((0, Fraction(2, 5)), (Scalar(0, fifth), 1), (0, 1, -fifth))])
        protocol = build_protocol(d, 3)
        for leg, op, scale in zip(decomp.leg_arrays(d), protocol.ops, protocol.scales):
            assert leg.den == 5 and (leg.re.dtype == object) == (big > 2 ** 62)
            values = [[complex(x / leg.den, y / leg.den) for x, y in zip(*rows)]
                      for rows in zip(leg.re.tolist(), leg.im.tolist())]
            expected = np.zeros((leg.re.shape[1], 3), dtype=np.complex128)
            expected[:, :2] = np.array(values, dtype=np.complex128).T
            sigma = float(np.linalg.svd(expected, compute_uv=False)[0])
            assert scale == sigma
            assert op.tobytes() == (expected / sigma).tobytes()
    # past the float range in the last leg, of Python ints: ResourceError
    huge = make_decomposition((2, 2, 2), [((1, 0), (1, 0), (10 ** 400, 1))])
    with pytest.raises(ResourceError, match="float range"):
        build_protocol(huge, 2)


def test_witness_consumers_raise_witness_mismatch():
    w = builtin_state("W")
    for wrong, first in ((ghz_decomposition(2), (0, 0, 0)), (ghz_decomposition(3), None)):
        for call in (lambda: decide_ghz_conversion(w, 4, witness=wrong),
                     lambda: build_protocol(wrong, 4, target=w),
                     lambda: schmidt_measure_bounds(w, wrong)):
            with pytest.raises(WitnessMismatch) as info:
                call()
            assert info.value.first_mismatch == first


def test_build_protocol_verifies_a_target_the_witness_has_not_passed():
    # decide_ghz_conversion verifies the witness against w2; a protocol for
    # w2 reuses that check, one for any other target still raises
    w2, d = builtin_state("W2"), builtin_decomposition("FIDUCCIA8_W2")
    assert decide_ghz_conversion(w2, 8, witness=d).kind == "yes"
    assert build_protocol(d, 8, target=w2).target is w2
    wrong = make_tensor((4, 4, 4), {(0, 0, 0): 1})
    with pytest.raises(WitnessMismatch):
        build_protocol(d, 8, target=wrong)


def test_simulate_defaults_to_the_protocols_own_ghz_source():
    # the default source is GHZ(n), applied by placing leg A's columns on
    # its diagonal; the outcome and probability equal those from an
    # explicit GHZ(n) tensor bit for bit, with and without padding columns
    square = decomposition_power(phi3_witness(), 2)  # 49 terms of PHI3 (x) PHI3
    w_square = decomposition_power(w_rank3_decomposition(), 2)  # 9 terms of W (x) W
    # complex witnesses: PHI3's moved by complex invertible operators, and
    # random terms of a non-cubic shape
    rng = random.Random(26)
    image = LocalOperatorTriple(*(invertible_matrix(rng, 4, complex_parts=True)
                                  for _ in range(3)))
    phi3_image = transport(image, phi3_witness())
    r = 5
    non_cubic = make_decomposition((2, 3, 5), [
        [nonzero_vector(rng, dim, complex_parts=True) for dim in (2, 3, 5)] for _ in range(r)])
    for witness, n in ((builtin_decomposition("FIDUCCIA8_W2"), 8),
                       (w_rank3_decomposition(), 5), (ghz_decomposition(3), 3),
                       (square, 49), (square, 64), (w_square, 9), (w_square, 12),
                       (phi3_image, 7), (phi3_image, 9), (phi3_image, 16),
                       (non_cubic, r), (non_cubic, r + 4)):
        protocol = build_protocol(witness, n)
        outcome, probability = simulate(protocol)
        expected, expected_probability = simulate(protocol, builtin_state("GHZ", n))
        assert outcome.tobytes() == expected.tobytes() and outcome.shape == expected.shape
        assert probability == expected_probability
    for n in (1, 2, 7):
        listed = make_tensor((n, n, n), {(i, i, i): 1 for i in range(n)})
        assert builtin_state("GHZ", n) == listed and hash(builtin_state("GHZ", n)) == hash(listed)
        assert builtin_state("GHZ", n).to_numpy().tobytes() == listed.to_numpy().tobytes()


def test_simulate_issues_the_tensordot_products_on_the_same_bytes():
    # simulate feeds np.dot the operands np.tensordot built, so every
    # outcome bit matches the tensordot form, whatever kernel BLAS picks
    # for the shape
    rng = np.random.default_rng(26)
    sizes = (1, 2, 3, 16)
    for n in (1, 3, 8, 41, 64):
        ghz = builtin_state("GHZ", n)
        for dims in itertools.product(sizes, repeat=3):
            ops = tuple(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
                        for d in dims)
            protocol = slocc.SloccProtocol(ops=ops, witness=None, scales=(1.0,) * 3,
                                           source_dim=n, success_probability=0.0, target=None)
            for source in (None, ghz):
                outcome, probability = simulate(protocol, source)
                expected, expected_probability = reference_simulate(protocol, source)
                assert outcome.shape == expected.shape == dims
                assert outcome.tobytes() == expected.tobytes()
                assert probability == expected_probability


def test_simulate_allocates_one_placed_source_and_small_products():
    # the ghz64 protocol: the (n, dA, n) placed source plus the B product,
    # its transposed copy and the C product, each at most dA * dB * n entries
    protocol = build_protocol(decomposition_power(phi3_witness(), 2), 64)
    (d_a, n), d_b = protocol.ops[0].shape, len(protocol.ops[1])
    tracemalloc.start()
    try:
        simulate(protocol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entry = np.dtype(np.complex128).itemsize
    assert peak <= (n * d_a * n + 3 * d_a * d_b * n) * entry  # 1.75 MB


def test_simulate_default_source_keeps_the_dense_cap():
    protocol = build_protocol(ghz_decomposition(2), 200)
    with pytest.raises(ResourceError) as default:
        simulate(protocol)
    with pytest.raises(ResourceError) as dense:
        builtin_state("GHZ", 200)
    assert str(default.value) == str(dense.value)
    assert "exceeds the dense cap" in str(default.value)


def test_simulate_dim_mismatch():
    protocol = build_protocol(ghz_decomposition(2), 2)
    with pytest.raises(InputError):
        simulate(protocol, builtin_state("GHZ", 3))


def test_protocol_soundness_across_yes_verdicts():
    cases = [
        (builtin_state("W2"), 8, builtin_decomposition("FIDUCCIA8_W2")),
        (builtin_state("PHI3"), 7, None),
        (builtin_state("W"), 3, None),
        (builtin_state("GHZ", 4), 4, None),
    ]
    for target, n, witness in cases:
        verdict = decide_ghz_conversion(target, n, witness=witness, search=False)
        assert verdict.kind == "yes"
        protocol = build_protocol(verdict.witness, n, target=target)
        outcome, probability = simulate(protocol, builtin_state("GHZ", n))
        assert probability > 0
        assert direction_deviation(outcome, target.to_numpy()) <= 1e-10


# -- convertibility decisions ----------------------------------------------------


def test_decide_phi3_needs_seven_levels():
    phi3 = builtin_state("PHI3")
    no4 = decide_ghz_conversion(phi3, 4, search=False)
    assert no4.kind == "no" and "7" in no4.reason and no4.lower_bound == 7
    no2 = decide_ghz_conversion(phi3, 2, search=False)
    assert no2.kind == "no" and no2.reason == "flattening rank 4 > 2"
    yes7 = decide_ghz_conversion(phi3, 7, search=False)
    assert yes7.kind == "yes" and len(yes7.witness.terms) == 7
    assert verify_decomposition(phi3, yes7.witness).ok


def test_decide_with_explicit_witness():
    w2 = builtin_state("W2")
    verdict = decide_ghz_conversion(w2, 8, witness=builtin_decomposition("FIDUCCIA8_W2"))
    assert verdict.kind == "yes" and verdict.upper_bound == 8
    with pytest.raises(InputError):
        decide_ghz_conversion(w2, 8, witness=ghz_decomposition(4))


def test_decide_computes_only_the_bounds_it_needs(monkeypatch):
    # the caller-witness short-circuit precedes every rank bound (on a
    # 16x16x16 target one flattening rank costs more than the whole
    # request), the three flattening ranks come from one flattening_ranks
    # call, and a lower bound above n builds no packaged witness
    calls = []
    flattening_ranks, builtin_witness = tensors.flattening_ranks, decomp.builtin_witness

    def counting_ranks(t):
        ranks = flattening_ranks(t)
        calls.extend(ranks)
        return ranks

    def counting_witness(t, name):
        calls.append(name)
        return builtin_witness(t, name)

    for module in (tensors, decomp, slocc):
        monkeypatch.setattr(module, "flattening_ranks", counting_ranks)
    monkeypatch.setattr(decomp, "builtin_witness", counting_witness)
    w2, phi3 = builtin_state("W2"), builtin_state("PHI3")
    verdict = decide_ghz_conversion(w2, 8, witness=builtin_decomposition("FIDUCCIA8_W2"))
    assert verdict.kind == "yes" and calls == []
    assert decide_ghz_conversion(w2, 8, search=False).kind == "unknown"
    assert sorted(calls) == ["A", "B", "C"]
    calls.clear()
    assert decide_ghz_conversion(phi3, 4, search=False).kind == "no"
    assert sorted(calls) == ["A", "B", "C"]
    calls.clear()
    assert decide_ghz_conversion(phi3, 7, search=False).kind == "yes"
    assert sorted(calls) == ["A", "B", "C", "PHI3"]


def test_w_class_image_is_no_by_the_2x2x2_rank_test(monkeypatch):
    # the rank test certifies rank 3 > 2 before any search runs; the exact W
    # keeps the registered fact as its reason
    monkeypatch.setattr(slocc, "als_search", lambda *args: pytest.fail("searched"))
    rng = random.Random(92)
    for _ in range(4):
        ops = LocalOperatorTriple(*(invertible_matrix(rng, 2, complex_parts=True,
                                                      max_num=3, max_den=3)
                                    for _ in range(3)))
        verdict = decide_ghz_conversion(apply_local_operators(ops, builtin_state("W")), 2)
        assert (verdict.kind, verdict.lower_bound, verdict.upper_bound) == ("no", 3, None)
        assert verdict.reason.startswith("2x2x2 rank test: rank >= 3 > 2")
    verdict = decide_ghz_conversion(builtin_state("W"), 2)
    assert verdict.kind == "no" and verdict.reason.startswith("registered exact rank of W is 3")


def test_decide_w_and_ghz_cases():
    w = builtin_state("W")
    assert decide_ghz_conversion(w, 2, search=False).kind == "no"
    yes = decide_ghz_conversion(w, 3, search=False)
    assert yes.kind == "yes" and len(yes.witness.terms) == 3
    ghz5 = builtin_state("GHZ", 5)
    assert decide_ghz_conversion(ghz5, 4, search=False).kind == "no"
    assert decide_ghz_conversion(ghz5, 5, search=False).kind == "yes"


def test_decide_found_and_rationalized_path():
    # GHZ(2) is not special-cased away when the registry is empty-handed:
    # scrub the registry by transforming GHZ into a non-registered basis
    ops = LocalOperatorTriple(
        matrix([[1, 1], [0, 1]]), linalg.identity(2), linalg.identity(2)
    )
    target = apply_local_operators(ops, builtin_state("GHZ", 2))
    verdict = decide_ghz_conversion(target, 2)
    assert verdict.kind == "yes"
    assert verify_decomposition(target, verdict.witness).ok
    assert len(verdict.witness.terms) <= 2


def ghz_class_target(rng):
    """a1 b1 c1 + a2 b2 c2 with small integer pairs of independent vectors:
    a GHZ-class 2x2x2 target."""
    def pair():
        while True:
            u, v = ([rng.randint(-3, 3) for _ in range(2)] for _ in range(2))
            if u[0] * v[1] != u[1] * v[0]:
                return u, v

    (a1, a2), (b1, b2), (c1, c2) = (pair() for _ in range(3))
    return reconstruct(make_decomposition((2, 2, 2), [(a1, b1, c1), (a2, b2, c2)]))


def test_decide_is_monotone_in_the_level_count_on_the_ghz_orbit(monkeypatch):
    # the exact step answers yes at every N from the flattening rank r up,
    # with an r-term witness, and without the ALS search
    monkeypatch.setattr(slocc, "als_search", lambda *args: pytest.fail("searched"))
    spelled = make_tensor((2, 2, 2), {(0, 0, 0): Fraction(3, 2),
                                      (1, 1, 1): Scalar(10, Fraction(3, 4))})
    for n in (2, 3, 8):
        verdict = decide_ghz_conversion(spelled, n)
        assert (verdict.kind, verdict.upper_bound, len(verdict.witness.terms)) == ("yes", 2, 2)
    rng = random.Random(19)
    targets = [(ghz_class_target(rng), 2) for _ in range(10)]
    for r in (3, 4):
        ops = LocalOperatorTriple(*(invertible_matrix(rng, r, max_num=3, max_den=2)
                                    for _ in range(3)))
        targets.append((apply_local_operators(ops, builtin_state("GHZ", r)), r))
    for target, r in targets:
        for n in range(r, r + 4):
            verdict = decide_ghz_conversion(target, n, search=n % 2 == 0)
            assert (verdict.kind, verdict.lower_bound, verdict.upper_bound) == ("yes", r, r)
            assert verify_decomposition(target, verdict.witness).ok
            assert len(verdict.witness.terms) == r
        assert decide_ghz_conversion(target, r - 1).kind == "no"


def test_decide_reconstructs_the_eigenvalues_of_ghz_images(monkeypatch):
    # rounding L lam from floats misses on these images of GHZ(4) and GHZ(5);
    # each part of lam read as a fraction gives the exact eigenvalues, so the
    # exact step decides without the ALS search
    monkeypatch.setattr(slocc, "als_search", lambda *args: pytest.fail("searched"))
    targets = []
    for r in (4, 5):
        rng = random.Random(60 + r)
        for _ in range(3):
            ops = LocalOperatorTriple(*(invertible_matrix(rng, r, complex_parts=True)
                                        for _ in range(3)))
            targets.append((apply_local_operators(ops, builtin_state("GHZ", r)), r))
    for target, r in targets:
        verdict = decide_ghz_conversion(target, r)
        assert (verdict.kind, verdict.lower_bound, verdict.upper_bound) == ("yes", r, r)
        assert verify_decomposition(target, verdict.witness).ok
    monkeypatch.setattr(pencil, "_gaussian_times", lambda *args: None)
    for target, r in targets:
        assert pencil.diagonal_witness(target) is None


def test_decide_outside_the_exact_step_keeps_its_verdicts(monkeypatch):
    searches = []
    als_search = slocc.als_search
    monkeypatch.setattr(slocc, "als_search",
                        lambda *args: searches.append(args[1]) or als_search(*args))
    # pencil eigenvalues 1 +- sqrt(2): rank 2 over C, with no witness in Q(i)
    sqrt2 = make_tensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 1): 2, (1, 0, 1): 1})
    verdict = decide_ghz_conversion(sqrt2, 2)
    assert (verdict.kind, verdict.lower_bound, verdict.upper_bound) == ("unknown", 2, None)
    assert searches == [2]
    w2 = builtin_state("W2")
    for n in (5, 8):
        assert decide_ghz_conversion(w2, n, search=False) == ConvertVerdict(
            "unknown", lower_bound=4, upper_bound=None)
    assert searches == [2]


def test_decide_rationalizes_an_als_find_outside_the_exact_step(monkeypatch):
    # GHZ(2) in 3x3x2 has no two legs of dimension 2, so the exact step
    # does not apply and the ALS find is rationalized
    calls = []
    rationalize_result = slocc.rationalize_result
    monkeypatch.setattr(slocc, "rationalize_result",
                        lambda *args: calls.append(args) or rationalize_result(*args))
    target = make_tensor((3, 3, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    verdict = decide_ghz_conversion(target, 2)
    assert (verdict.kind, verdict.upper_bound) == ("yes", 2) and len(calls) == 1
    assert verify_decomposition(target, verdict.witness).ok


def test_decide_unknown_reports_bounds():
    # rank of W(x)W lies strictly between the flattening bound 4 and the
    # witnessed 8; at N=5 neither side is decisive without a witness
    w2 = builtin_state("W2")
    verdict = decide_ghz_conversion(w2, 5, search=False)
    assert verdict.kind == "unknown"
    assert verdict.lower_bound == 4 and verdict.upper_bound is None
    assert decide_ghz_conversion(w2, 5, search=False) == verdict  # deterministic


def test_decide_input_validation():
    with pytest.raises(InputError):
        decide_ghz_conversion(builtin_state("W"), 0)


# -- bipartite criterion ----------------------------------------------------------


def test_bipartite_examples():
    epr = builtin_state("EPR")
    assert bipartite_convertible(epr, epr)
    product = make_tensor((2, 2, 1), {(0, 0, 0): 1})
    assert not bipartite_convertible(product, epr)
    assert bipartite_convertible(epr, product)
    with pytest.raises(InputError):
        bipartite_convertible(builtin_state("W"), epr)


def _bipartite_of_rank(rng, da, db, k):
    # M = A.B with identity blocks pinning rank(M) = k exactly:
    # the factorization caps the rank at k and M[0:k, 0:k] = I restores it
    left = [[Scalar(1 if i == j else 0) if i < k else sampling.scalar(rng, max_num=2)
             for j in range(k)] for i in range(da)]
    right = [[Scalar(1 if i == j else 0) if j < k else sampling.scalar(rng, max_num=2)
              for j in range(db)] for i in range(k)]
    m = mat_mul(matrix(left), matrix(right))
    return make_tensor((da, db, 1), {
        (i, j, 0): m[i][j] for i in range(da) for j in range(db) if m[i][j]
    })


def test_bipartite_random_constructed_ranks():
    rng = random.Random(131)
    for _ in range(40):
        da, db = rng.randint(2, 5), rng.randint(2, 5)
        ks = rng.randint(1, min(da, db))
        kt = rng.randint(1, min(da, db))
        source = _bipartite_of_rank(rng, da, db, ks)
        target = _bipartite_of_rank(rng, da, db, kt)
        assert oracle_rank(flattening(source, "A")) == ks
        assert oracle_rank(flattening(target, "A")) == kt
        assert bipartite_convertible(source, target) == (ks >= kt)


# -- classification ---------------------------------------------------------------


def representatives():
    ghz = builtin_state("GHZ", 2)
    w = builtin_state("W")
    product = make_tensor((2, 2, 2), {(0, 0, 0): 1})
    bisep_c = make_tensor((2, 2, 2), {(0, 0, 0): 1, (1, 1, 0): 1})  # (00+11)_AB x 0_C
    bisep_a = make_tensor((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})  # 0_A x (00+11)_BC
    bisep_b = make_tensor((2, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1})  # 0_B x (00+11)_AC
    return {
        ThreeQubitClass.GHZ: ghz,
        ThreeQubitClass.W: w,
        ThreeQubitClass.PRODUCT: product,
        ThreeQubitClass.BISEP_C_AB: bisep_c,
        ThreeQubitClass.BISEP_A_BC: bisep_a,
        ThreeQubitClass.BISEP_B_AC: bisep_b,
    }


def test_classify_representatives():
    for expected, state in representatives().items():
        assert classify_three_qubit(state) is expected
    assert classify_three_qubit(make_tensor((2, 2, 2), {})) is ThreeQubitClass.ZERO
    with pytest.raises(InputError):
        classify_three_qubit(builtin_state("GHZ", 3))


def test_classify_inconsistent_flattening_ranks_is_an_explicit_error(monkeypatch):
    import tenrank.slocc as slocc

    monkeypatch.setattr(slocc, "flattening_ranks", lambda t: {"A": 1, "B": 1, "C": 2})
    with pytest.raises(RuntimeError):
        classify_three_qubit(builtin_state("GHZ", 2))


def test_hyperdeterminant_sanity():
    assert hyperdeterminant_2x2x2(builtin_state("GHZ", 2)) == Scalar(1)
    assert not hyperdeterminant_2x2x2(builtin_state("W"))
    with pytest.raises(InputError):
        hyperdeterminant_2x2x2(builtin_state("GHZ", 3))


def test_classifier_invariance_under_invertible_locals():
    rng = random.Random(137)
    for expected, state in representatives().items():
        for _ in range(20):
            ops = LocalOperatorTriple(
                *(invertible_matrix(rng, 2, complex_parts=True,
                                    max_num=2, max_den=2)
                  for _ in range(3))
            )
            assert classify_three_qubit(apply_local_operators(ops, state)) is expected


def test_classifier_consistent_with_pencil_certificate():
    rng = random.Random(139)
    for _ in range(40):
        entries = {
            (a, b, c): sampling.scalar(rng, max_num=2)
            for a in range(2) for b in range(2) for c in range(2)
        }
        t = make_tensor((2, 2, 2), entries)
        label = classify_three_qubit(t)
        if label is ThreeQubitClass.W:
            assert rank_leq2_test_2x2x2(t) is Rank222.RANK_GEQ3
        elif label is ThreeQubitClass.GHZ:
            assert rank_leq2_test_2x2x2(t) is Rank222.RANK_LEQ2


# -- entanglement bounds -----------------------------------------------------------


def test_schmidt_bounds_w2_nonadditivity_gap():
    lower, upper = schmidt_measure_bounds(
        builtin_state("W2"), builtin_decomposition("FIDUCCIA8_W2")
    )
    assert lower == pytest.approx(math.log2(4))
    assert upper == pytest.approx(math.log2(8))
    assert upper < 2 * math.log2(3)  # below twice the single-copy measure


def test_schmidt_bounds_examples():
    lower, upper = schmidt_measure_bounds(builtin_state("GHZ", 2), ghz_decomposition(2))
    assert (lower, upper) == (1.0, 1.0)
    lower, upper = schmidt_measure_bounds(builtin_state("PHI3"), phi3_witness())
    assert lower == pytest.approx(math.log2(7))
    assert upper == pytest.approx(math.log2(7))
    lower, upper = schmidt_measure_bounds(builtin_state("W"))
    assert lower == pytest.approx(math.log2(3)) and upper is None
    with pytest.raises(InputError):
        schmidt_measure_bounds(builtin_state("W"), ghz_decomposition(2))


# -- JSON -------------------------------------------------------------------------


# The dict builders the protocol text replaced: the file is json.dumps of
# these dicts, byte for byte.


def _reference_matrix(arr):
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [
            [{"re": x, "im": y} for x, y in zip(re_row, im_row)]
            for re_row, im_row in zip(arr.real.tolist(), arr.imag.tolist())
        ],
    }


def _reference_protocol(p):
    return {
        "operators": {
            "A": _reference_matrix(p.ops[0]),
            "B": _reference_matrix(p.ops[1]),
            "C": _reference_matrix(p.ops[2]),
        },
        "exact": False,
        "source_dim": p.source_dim,
        "success_probability": p.success_probability,
    }


def test_protocol_json_shape():
    protocol = build_protocol(builtin_decomposition("FIDUCCIA8_W2"), 8)
    payload = json.loads(protocol_to_json(protocol))
    assert payload["source_dim"] == 8
    assert payload["exact"] is False
    assert payload["success_probability"] > 0
    op_a = payload["operators"]["A"]
    assert (op_a["rows"], op_a["cols"]) == (4, 8)
    assert isinstance(op_a["data"][0][0]["re"], float)


def test_protocol_text_equals_json_dumps_of_the_dict_form():
    rng = random.Random(8)
    image = [invertible_matrix(rng, 4) for _ in range(3)]
    cases = [
        (builtin_decomposition("FIDUCCIA8_W2"), 8),   # repeated values
        (builtin_decomposition("FIDUCCIA8_W2"), 13),  # zero padding columns
        (w_rank3_decomposition(), 3),
        (ghz_decomposition(4), 6),
        (decomposition_power(phi3_witness(), 2), 64),
        # a transported witness: nearly every value distinct
        (transport(LocalOperatorTriple(*image), phi3_witness()), 9),
    ]
    protocols = [build_protocol(witness, n) for witness, n in cases]
    # operators that no GHZ witness gives: signed zeros, non-finite parts
    # and a non-finite probability
    ops = [np.random.default_rng(k).standard_normal((3, 5)) * (1 + 1j) for k in range(3)]
    ops[0][0, :3] = [-0.0, complex(0.0, -0.0), complex(np.inf, np.nan)]
    ops[1][1, 1] = complex(-np.inf, 2.5)
    protocols.append(slocc.SloccProtocol(ops=tuple(ops), witness=None, scales=(1.0,) * 3,
                                         source_dim=5, success_probability=float("nan"),
                                         target=None))
    for protocol in protocols:
        assert protocol_to_json(protocol) == json.dumps(_reference_protocol(protocol))


def test_float_matrix_json_matches_the_per_element_form():
    rng = np.random.default_rng(5)
    for rows, cols in ((1, 1), (4, 8), (16, 64), (3, 0), (0, 2)):
        arr = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        arr.real[::2, ::3] = -0.0
        arr.imag[1::2, ::2] = -0.0
        if arr.size:
            arr[0, 0] = complex(-0.0, 0.0)
        if arr.size > 4:
            # zeros of both signs and the non-finite spellings side by side
            arr.flat[1:5] = [0j, complex(np.nan, np.inf), complex(-np.inf, -0.0),
                             complex(0.0, -0.0)]
        assert slocc._float_matrix_json(arr) == json.dumps(_reference_matrix(arr))
    repeated = np.tile(np.array([[0.5 - 0.0j, -0.5 + 1j, 0.0, -0.0 + 0.0j]]), (3, 4))
    # a ghz64-shaped operator: 49 columns of three values, 15 zero padding
    ghz64 = np.zeros((16, 64), dtype=np.complex128)
    ghz64[:, :49] = rng.choice([0.25, -0.25, 0.0], size=(16, 49))
    constant = np.full((4, 6), 0.3 - 0.7j)
    # NaNs whose payload bits differ, and zeros of both signs, in one row
    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(np.float64)
    mixed = np.array([[complex(nans[0], 1.0), complex(nans[1], 1.0), complex(1.0, nans[1]),
                       complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0j]])
    for arr in (repeated, ghz64, constant, mixed):
        assert slocc._float_matrix_json(arr) == json.dumps(_reference_matrix(arr))


def test_verdict_json_shape():
    verdict = decide_ghz_conversion(builtin_state("PHI3"), 7, search=False)
    payload = verdict_to_json(verdict)
    assert payload["verdict"] == "yes"
    assert payload["witness"]["dims"] == [4, 4, 4]
    no = verdict_to_json(decide_ghz_conversion(builtin_state("PHI3"), 4, search=False))
    assert no["verdict"] == "no" and no["witness"] is None and no["lower_bound"] == 7
