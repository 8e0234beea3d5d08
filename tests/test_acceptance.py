"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
enforces the criterion's stated tolerance and time budget.  Tolerances are
pinned here, not configurable: exact checks compare Scalar entries
bit-for-bit, float checks use the listed bounds.
"""

import random
import time
from contextlib import contextmanager

import pytest

from conftest import invertible_matrix, mat_mul, matrix, nonzero_vector
import sampling

from tenrank.als import AlsConfig
from tenrank.bilinear import (
    matmul_tensor,
    naive_multiply,
    phi3_matmul_witness,
    strassen_multiply,
)
from tenrank.decomp import (
    Rank222,
    als_search,
    builtin_decomposition,
    builtin_state,
    decomposition_power,
    make_decomposition,
    rank_leq2_test_2x2x2,
    reconstruct,
    transport,
    verify_decomposition,
    verify_power_randomized,
)
from tenrank.slocc import (
    ThreeQubitClass,
    bipartite_convertible,
    build_protocol,
    classify_three_qubit,
    direction_deviation,
    simulate,
)
from tenrank.tensors import (
    LocalOperatorTriple,
    apply_local_operators,
    flattening,
    flattening_rank,
    make_tensor,
    tensor_product,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL -- {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    )
    print(f"ACCEPTANCE {number}: PASS -- {description} ({elapsed:.1f}s)")


def test_criterion_1_strassen_verification():
    with criterion(1, "7-term scheme verifies against <2,2,2> and, transported, "
                      "against PHI3 (exact)", 1.0):
        strassen = builtin_decomposition("STRASSEN7")
        assert verify_decomposition(matmul_tensor(2, 2, 2), strassen).ok
        moved = transport(phi3_matmul_witness(), strassen)
        assert verify_decomposition(builtin_state("PHI3"), moved).ok


def test_criterion_2_nonadditivity():
    with criterion(2, "8-term witness for W(x)W plus exact rk(W)=3 certificate: "
                      "8 < 9 (exact)", 1.0):
        assert verify_decomposition(builtin_state("W2"),
                                    builtin_decomposition("FIDUCCIA8_W2")).ok
        w = builtin_state("W")
        assert classify_three_qubit(w) is ThreeQubitClass.W
        assert rank_leq2_test_2x2x2(w) is Rank222.RANK_GEQ3
        assert 8 < 3 ** 2


def test_criterion_3_ghz3_to_w2_protocol():
    with criterion(3, "GHZ(8) -> W(x)W protocol: direction within 1e-10, "
                      "probability > 0", 1.0):
        protocol = build_protocol(builtin_decomposition("FIDUCCIA8_W2"), 8)
        outcome, probability = simulate(protocol, builtin_state("GHZ", 8))
        assert probability > 0
        assert direction_deviation(outcome, builtin_state("W2").to_numpy()) <= 1e-10


def test_criterion_4_triangle_distillation_desk_scale():
    with criterion(4, "GHZ -> PHI3 powers: n=1,2 simulated; n=6 witnessed by "
                      "randomized contraction; 117649 <= 131072", 60.0):
        phi3 = builtin_state("PHI3")
        base = transport(phi3_matmul_witness(), builtin_decomposition("STRASSEN7"))
        # (a) : simulations at n = 1 and n = 2
        for copies, levels in ((1, 8), (2, 64)):
            target = phi3
            for _ in range(copies - 1):
                target = tensor_product(target, phi3)
            witness = base if copies == 1 else decomposition_power(base, copies)
            assert 7 ** copies <= levels
            protocol = build_protocol(witness, levels, target=target)
            outcome, probability = simulate(protocol, builtin_state("GHZ", levels))
            assert probability > 0
            assert direction_deviation(outcome, target.to_numpy()) <= 1e-10
        # (b) : the 7^6-term witness, randomized contraction, exact scalars
        power6 = decomposition_power(base, 6)
        assert len(power6.terms) == 117649
        assert verify_power_randomized(phi3, power6, probes=20, seed=0).ok
        assert 117649 <= 131072 == 2 ** 17


def test_criterion_5_fast_matmul_oracle_equivalence():
    with criterion(5, "strassen_multiply == naive on 5 random pairs for "
                      "n in 1..6 with exactly 7^n multiplications", 120.0):
        rng = random.Random(2024)
        for n in range(1, 7):
            size = 1 << n
            for _ in range(5):
                x = sampling.matrix(rng, size, size, max_num=9, max_den=2)
                y = sampling.matrix(rng, size, size, max_num=9, max_den=2)
                fast, count = strassen_multiply(x, y, cutoff=1)
                assert count.nonscalar_mults == 7 ** n
                naive, _ = naive_multiply(x, y)
                assert fast == naive


def test_criterion_6_rank_monotonicity_under_transport():
    with criterion(6, "200 random transports: witness survives with equal term "
                      "count, flattening ranks never increase (exact)", 30.0):
        rng = random.Random(4096)
        for _ in range(200):
            dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            terms = [
                tuple(nonzero_vector(rng, d, max_num=3, max_den=2)
                      for d in dims)
                for _ in range(rng.randint(1, 4))
            ]
            witness = make_decomposition(dims, terms)
            tensor = reconstruct(witness)
            assert verify_decomposition(tensor, witness).ok
            ops = LocalOperatorTriple(
                sampling.matrix(rng, rng.randint(1, 3), dims[0], max_num=2),
                sampling.matrix(rng, rng.randint(1, 3), dims[1], max_num=2),
                sampling.matrix(rng, rng.randint(1, 3), dims[2], max_num=2),
            )
            moved = transport(ops, witness)
            transformed = apply_local_operators(ops, tensor)
            assert len(moved.terms) == len(witness.terms)
            assert verify_decomposition(transformed, moved).ok
            for leg in "ABC":
                assert flattening_rank(transformed, leg) <= flattening_rank(tensor, leg)


def test_criterion_7_classifier_suite():
    with criterion(7, "six class representatives correct and stable under "
                      "200 random invertible local transforms each (exact)", 30.0):
        representatives = {
            ThreeQubitClass.GHZ: builtin_state("GHZ", 2),
            ThreeQubitClass.W: builtin_state("W"),
            ThreeQubitClass.PRODUCT: make_tensor((2, 2, 2), {(0, 0, 0): 1}),
            ThreeQubitClass.BISEP_A_BC: make_tensor((2, 2, 2),
                                                    {(0, 0, 0): 1, (0, 1, 1): 1}),
            ThreeQubitClass.BISEP_B_AC: make_tensor((2, 2, 2),
                                                    {(0, 0, 0): 1, (1, 0, 1): 1}),
            ThreeQubitClass.BISEP_C_AB: make_tensor((2, 2, 2),
                                                    {(0, 0, 0): 1, (1, 1, 0): 1}),
        }
        rng = random.Random(512)
        for expected, state in representatives.items():
            assert classify_three_qubit(state) is expected
            for _ in range(200):
                ops = LocalOperatorTriple(
                    *(invertible_matrix(rng, 2, max_num=2, max_den=2)
                      for _ in range(3))
                )
                assert classify_three_qubit(apply_local_operators(ops, state)) is expected


def test_criterion_8_als_behavior():
    with criterion(8, "seeded ALS: (W, r=3) reaches 1e-8 and (W, r=2) raises "
                      "the border flag", 60.0):
        w = builtin_state("W")
        found = als_search(w, 3, AlsConfig())
        assert found.found and found.residual <= 1e-8
        missed = als_search(w, 2, AlsConfig())
        assert not missed.found
        assert missed.border_flag


def test_criterion_9_bipartite_criterion():
    with criterion(9, "100 constructed bipartite pairs decided exactly by the "
                      "local-rank comparison", 5.0):
        rng = random.Random(99)

        def of_rank(da, db, k):
            left = matrix(
                [[1 if i == j else 0 for j in range(k)] if i < k
                 else [sampling.scalar(rng, max_num=2) for _ in range(k)]
                 for i in range(da)]
            )
            right = matrix(
                [[1 if i == j else 0 if j < k else sampling.scalar(rng, max_num=2)
                  for j in range(db)] for i in range(k)]
            )
            m = mat_mul(left, right)
            return make_tensor((da, db, 1), {
                (i, j, 0): m[i][j] for i in range(da) for j in range(db) if m[i][j]
            })

        for _ in range(100):
            da, db = rng.randint(2, 5), rng.randint(2, 5)
            ks = rng.randint(1, min(da, db))
            kt = rng.randint(1, min(da, db))
            source, target = of_rank(da, db, ks), of_rank(da, db, kt)
            assert flattening_rank(source, "A") == ks
            assert flattening_rank(target, "A") == kt
            assert bipartite_convertible(source, target) == (ks >= kt)
