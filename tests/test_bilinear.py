import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    identity,
    nonzero_vector,
    oracle_matmul,
    oracle_rank,
    program_from_rows,
    program_rows,
    scalar_rows,
    vector,
    zeros,
)
import sampling

from tenrank import bilinear, linalg
from tenrank.bilinear import (
    BilinearProgram,
    MulCount,
    evaluate_bilinear,
    from_bilinear,
    matmul_power_relabeling,
    matmul_tensor,
    naive_matmul_decomposition,
    matrix_from_json,
    matrix_to_json,
    naive_multiply,
    phi3_matmul_witness,
    run_bilinear_matmul,
    strassen_multiply,
    strassen_multiply_float,
    to_bilinear,
    verify_for_matmul,
)
from tenrank.decomp import (
    builtin_decomposition,
    builtin_state,
    decomposition_power,
    make_decomposition,
    reconstruct,
    transport,
    verify_decomposition,
)
from tenrank.errors import InputError, StateError, WitnessMismatch
from tenrank.scalars import MINUS_ONE, ONE, ZERO, Leg, Scalar
from tenrank.slocc import build_protocol
from tenrank.tensors import (
    LocalOperatorTriple,
    apply_local_operators,
    contract,
    flattening,
    identity_triple,
    tensor_to_json,
)

GOLDEN = Path(__file__).parent / "golden"


# -- per-Scalar loop references for the executor ----------------------------------
#
# The loops the level-batched executor replaced, kept as references: the
# executor must return the same matrices and the same operation counts.


def ref_eval_form(coeffs, values, count):
    """sum_i coeffs[i]*values[i] with per-scalar accounting."""
    acc = None
    for coeff, value in zip(coeffs, values):
        if not coeff:
            continue
        if coeff == ONE:
            contrib = value
        elif coeff == MINUS_ONE:
            contrib = -value
        else:
            contrib = coeff * value
            count.additions += 1  # scalar-by-constant counts as an addition
        if acc is None:
            acc = contrib
        else:
            acc = acc + contrib
            count.additions += 1
    return ZERO if acc is None else acc


def ref_evaluate_bilinear(p, avec, bvec, count=None):
    count = count if count is not None else MulCount()
    u, v, w = program_rows(p)
    products = []
    for k in range(p.r):
        fa = ref_eval_form(u[k], avec, count)
        fb = ref_eval_form(v[k], bvec, count)
        products.append(fa * fb)
        count.nonscalar_mults += 1
    return tuple(ref_eval_form(row, products, count) for row in w)


def ref_run_bilinear_matmul(p, x, y):
    m, n, k = len(x), len(y), len(y[0])
    count = MulCount()
    flat = ref_evaluate_bilinear(p, tuple(v for row in x for v in row),
                                 tuple(v for row in y for v in row), count)
    return tuple(tuple(flat[i * k + j] for j in range(k)) for i in range(m)), count


def ref_mat_add(a, b, count, sign=1):
    count.additions += len(a) * len(a[0])
    if sign > 0:
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_block(m, r, c, h):
    return [row[c * h:(c + 1) * h] for row in m[r * h:(r + 1) * h]]


def ref_strassen_rec(x, y, size, cutoff, count):
    if size <= cutoff:
        z, _ = naive_multiply(x, y, count)
        return [list(row) for row in z]
    h = size // 2
    x11, x12, x21, x22 = (ref_block(x, 0, 0, h), ref_block(x, 0, 1, h),
                          ref_block(x, 1, 0, h), ref_block(x, 1, 1, h))
    y11, y12, y21, y22 = (ref_block(y, 0, 0, h), ref_block(y, 0, 1, h),
                          ref_block(y, 1, 0, h), ref_block(y, 1, 1, h))
    add = ref_mat_add
    m1 = ref_strassen_rec(add(x11, x22, count), add(y11, y22, count), h, cutoff, count)
    m2 = ref_strassen_rec(add(x21, x22, count), y11, h, cutoff, count)
    m3 = ref_strassen_rec(x11, add(y12, y22, count, -1), h, cutoff, count)
    m4 = ref_strassen_rec(x22, add(y21, y11, count, -1), h, cutoff, count)
    m5 = ref_strassen_rec(add(x11, x12, count), y22, h, cutoff, count)
    m6 = ref_strassen_rec(add(x21, x11, count, -1), add(y11, y12, count), h, cutoff, count)
    m7 = ref_strassen_rec(add(x12, x22, count, -1), add(y21, y22, count), h, cutoff, count)
    z11 = add(add(add(m1, m4, count), m5, count, -1), m7, count)
    z12 = add(m3, m5, count)
    z21 = add(m2, m4, count)
    z22 = add(add(add(m1, m2, count, -1), m3, count), m6, count)
    out = [[None] * size for _ in range(size)]
    for i in range(h):
        for j in range(h):
            out[i][j] = z11[i][j]
            out[i][j + h] = z12[i][j]
            out[i + h][j] = z21[i][j]
            out[i + h][j + h] = z22[i][j]
    return out


def ref_strassen(x, y, cutoff=1):
    """Recursive per-Scalar Strassen, zero-padding to a power of two."""
    size = len(x)
    target = 1 << (size - 1).bit_length()
    pad = target - size
    x = [list(row) + [ZERO] * pad for row in x] + [[ZERO] * target for _ in range(pad)]
    y = [list(row) + [ZERO] * pad for row in y] + [[ZERO] * target for _ in range(pad)]
    count = MulCount()
    z = ref_strassen_rec(x, y, target, cutoff, count)
    return tuple(tuple(row[:size]) for row in z[:size]), count


# -- the multiplication tensor -------------------------------------------------


def test_matmul_tensor_222_has_eight_unit_entries():
    t = matmul_tensor(2, 2, 2)
    assert t.dims == (4, 4, 4)
    entries = dict(t.nonzeros())
    assert len(entries) == 8
    assert all(v == 1 for v in entries.values())
    # every product term a_{ik} b_{kj} lands in output (i, j)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                assert (2 * i + k, 2 * k + j, 2 * i + j) in entries


def test_matmul_tensor_trivial_and_rectangular():
    assert matmul_tensor(1, 1, 1).nnz() == 1
    t = matmul_tensor(2, 3, 2)
    assert t.dims == (6, 6, 4) and t.nnz() == 2 * 3 * 2
    with pytest.raises(InputError):
        matmul_tensor(0, 1, 1)


def test_matmul_tensor_flattening_ranks_oracle():
    t = matmul_tensor(2, 2, 2)
    for leg in "ABC":
        assert oracle_rank(flattening(t, leg)) == 4


def test_matmul_tensor_golden_file_locks_conventions():
    golden = json.loads((GOLDEN / "matmul222.json").read_text())
    assert tensor_to_json(matmul_tensor(2, 2, 2)) == golden


# -- the PHI3 relabeling witness ----------------------------------------------


def test_phi3_witness_exact_equality():
    witness = phi3_matmul_witness()
    assert apply_local_operators(witness, matmul_tensor(2, 2, 2)) == builtin_state("PHI3")


def test_phi3_witness_components_invertible():
    witness = phi3_matmul_witness()
    for m in map(scalar_rows, (witness.A, witness.B, witness.C)):
        assert len(m) == len(m[0]) and linalg.det(m)


def test_phi3_witness_transports_strassen_to_phi3():
    moved = transport(phi3_matmul_witness(), builtin_decomposition("STRASSEN7"))
    assert verify_decomposition(builtin_state("PHI3"), moved).ok


# -- program conversion --------------------------------------------------------


def test_exact_coefficient_matrices_are_legs():
    # operator triples hold Legs, and a program is its decomposition
    protocol = build_protocol(builtin_decomposition("FIDUCCIA8_W2"), 9)
    for ops in (identity_triple((2, 3, 1)), phi3_matmul_witness(),
                matmul_power_relabeling(2, 2, 2, 2), protocol.exact_ops):
        assert all(isinstance(m, Leg) for m in (ops.A, ops.B, ops.C))
    assert protocol.exact_ops.input_dims() == (9, 9, 9)
    assert protocol.exact_ops.output_dims() == (4, 4, 4)
    d = builtin_decomposition("STRASSEN7")
    p = to_bilinear(d)
    assert p == BilinearProgram(d) and from_bilinear(p) is d
    # equal matrices given as Scalar rows and as ints compare and hash equal
    rows = ((1, -2), (0, 3))
    as_ints = LocalOperatorTriple(rows, rows, ((5,),))
    as_scalars = LocalOperatorTriple(*(tuple(tuple(map(Scalar, row)) for row in m)
                                       for m in (rows, rows, ((5,),))))
    assert as_ints == as_scalars and hash(as_ints) == hash(as_scalars)
    assert as_ints != LocalOperatorTriple(rows, rows, ((Scalar(5, 1),),))
    assert identity_triple((2, 2, 1)) == LocalOperatorTriple(((1, 0), (0, 1)),
                                                             ((1, 0), (0, 1)), ((1,),))
    with pytest.raises(InputError):
        LocalOperatorTriple(((1, 0), (1,)), rows, rows)


def test_to_bilinear_strassen_shape():
    p = to_bilinear(builtin_decomposition("STRASSEN7"))
    assert p.r == 7
    assert p.dims() == (4, 4, 4)


def test_round_trip_is_exact_bijection():
    rng = random.Random(73)
    for d in [
        builtin_decomposition("STRASSEN7"),
        builtin_decomposition("FIDUCCIA8_W2"),
        builtin_decomposition("GHZ", 3),
    ]:
        assert from_bilinear(to_bilinear(d)).terms == tuple(d.terms)
    for _ in range(10):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        terms = [
            tuple(nonzero_vector(rng, dim, max_num=3) for dim in dims)
            for _ in range(rng.randint(1, 3))
        ]
        d = make_decomposition(dims, terms)
        assert from_bilinear(to_bilinear(d)).terms == tuple(d.terms)


def test_ghz_program_computes_diagonal_products():
    p = to_bilinear(builtin_decomposition("GHZ", 2))
    assert p.r == 2
    a = vector([3, 5])
    b = vector([7, 11])
    assert evaluate_bilinear(p, a, b) == vector([21, 55])


def test_program_evaluation_matches_contraction_oracle():
    # f_l(a, b) = sum_{i,j} T[i,j,l] a_i b_j, checked on random inputs
    rng = random.Random(79)
    dims = (2, 3, 2)
    terms = [
        tuple(nonzero_vector(rng, dim, max_num=3) for dim in dims)
        for _ in range(3)
    ]
    d = make_decomposition(dims, terms)
    t = reconstruct(d)
    p = to_bilinear(d)
    for _ in range(10):
        a = sampling.vector(rng, dims[0])
        b = sampling.vector(rng, dims[1])
        count = MulCount()
        outputs = evaluate_bilinear(p, a, b, count)
        ref_count = MulCount()
        assert outputs == ref_evaluate_bilinear(p, a, b, ref_count)
        assert count == ref_count
        for l in range(dims[2]):
            unit = tuple(Scalar(1 if i == l else 0) for i in range(dims[2]))
            assert outputs[l] == contract(t, a, b, unit)


# -- running programs as matrix multiplication ----------------------------------


def rand_mat(rng, rows, cols):
    return sampling.matrix(rng, rows, cols, max_num=5, max_den=3)


def test_strassen_program_multiplies_exactly():
    p = verify_for_matmul(to_bilinear(builtin_decomposition("STRASSEN7")), 2, 2, 2)
    rng = random.Random(83)
    for _ in range(10):
        x, y = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
        z, count = run_bilinear_matmul(p, x, y)
        assert z == oracle_matmul(x, y)
        assert count.nonscalar_mults == 7


def test_identity_times_anything():
    p = verify_for_matmul(to_bilinear(builtin_decomposition("STRASSEN7")), 2, 2, 2)
    y = rand_mat(random.Random(89), 2, 2)
    z, _ = run_bilinear_matmul(p, identity(2), y)
    assert z == y


def test_matmul_power_relabeling_maps_square_onto_4x4_tensor():
    from tenrank.bilinear import matmul_power_relabeling
    from tenrank.tensors import tensor_product

    relabel = matmul_power_relabeling(2, 2, 2, 2)
    assert all(len(m) == len(m[0]) and linalg.det(m)
               for m in map(scalar_rows, (relabel.A, relabel.B, relabel.C)))
    mm = matmul_tensor(2, 2, 2)
    squared = tensor_product(mm, mm)
    assert apply_local_operators(relabel, squared) == matmul_tensor(4, 4, 4)


def test_power_program_on_4x4():
    from tenrank.bilinear import matmul_power_relabeling

    p2 = decomposition_power(builtin_decomposition("STRASSEN7"), 2)
    relabeled = transport(matmul_power_relabeling(2, 2, 2, 2), p2)
    program = verify_for_matmul(to_bilinear(relabeled), 4, 4, 4)
    rng = random.Random(97)
    x, y = rand_mat(rng, 4, 4), rand_mat(rng, 4, 4)
    z, count = run_bilinear_matmul(program, x, y)
    assert z == oracle_matmul(x, y)
    assert count.nonscalar_mults == 49
    assert (z, count) == ref_run_bilinear_matmul(program, x, y)


def test_rectangular_program_runs_exactly():
    from tenrank.bilinear import naive_matmul_decomposition

    d = naive_matmul_decomposition(2, 3, 2)
    assert len(d.terms) == 12
    assert verify_decomposition(matmul_tensor(2, 3, 2), d).ok
    program = verify_for_matmul(to_bilinear(d), 2, 3, 2)
    rng = random.Random(151)
    for _ in range(10):
        x, y = rand_mat(rng, 2, 3), rand_mat(rng, 3, 2)
        z, count = run_bilinear_matmul(program, x, y)
        assert z == oracle_matmul(x, y)
        assert count.nonscalar_mults == 12
        assert (z, count) == ref_run_bilinear_matmul(program, x, y)


def test_gaussian_rational_program_keeps_scale_bookkeeping():
    # Strassen with u scaled by s and w by 1/s still computes <2,2,2>; for
    # s = 2i (w by -i/2) and s = 1+i (w by (1-i)/2) the coefficients are
    # Gaussian rationals over a common denominator of 2
    u, v, w = program_rows(to_bilinear(builtin_decomposition("STRASSEN7")))
    rng = random.Random(157)
    for s in (Scalar(0, 2), Scalar(1, 1)):
        scaled = program_from_rows(
            tuple(tuple(s * c for c in row) for row in u),
            v,
            tuple(tuple(c / s for c in row) for row in w),
        )
        program = verify_for_matmul(scaled, 2, 2, 2)
        for _ in range(5):
            x = sampling.matrix(rng, 2, 2, complex_parts=True, max_num=5, max_den=3)
            y = sampling.matrix(rng, 2, 2, complex_parts=True, max_num=5, max_den=3)
            z, count = run_bilinear_matmul(program, x, y)
            assert z == oracle_matmul(x, y)
            assert (z, count) == ref_run_bilinear_matmul(program, x, y)
            a, b = tuple(v for row in x for v in row), tuple(v for row in y for v in row)
            count, ref_count = MulCount(), MulCount()
            assert evaluate_bilinear(program, a, b, count) == \
                ref_evaluate_bilinear(program, a, b, ref_count)
            assert count == ref_count
        # two levels of the program: each level adds its denominator
        x = sampling.matrix(rng, 4, 4, complex_parts=True, max_num=5, max_den=3)
        y = sampling.matrix(rng, 4, 4, complex_parts=True, max_num=5, max_den=3)
        count = MulCount()
        assert bilinear._exact_product(program, x, y, 2, count) == oracle_matmul(x, y)
        assert count.nonscalar_mults == 49


def test_unverified_program_is_a_state_error():
    p = to_bilinear(builtin_decomposition("STRASSEN7"))
    x = identity(2)
    with pytest.raises(StateError):
        run_bilinear_matmul(p, x, x)
    verified = verify_for_matmul(p, 2, 2, 2)
    with pytest.raises(StateError):
        run_bilinear_matmul(verified, identity(4), identity(4))


def test_verify_for_matmul_rejects_wrong_program():
    p = to_bilinear(builtin_decomposition("FIDUCCIA8_W2"))  # computes W2, not <2,2,2>
    with pytest.raises(InputError):
        verify_for_matmul(p, 2, 2, 2)


def test_verify_for_matmul_rejects_a_corrupted_strassen_program():
    p = to_bilinear(builtin_decomposition("STRASSEN7"))
    u, v, w = program_rows(p)
    corrupted = program_from_rows(u, v, ((w[0][0] + 1,) + w[0][1:],) + w[1:])
    with pytest.raises(WitnessMismatch) as raised:
        verify_for_matmul(corrupted, 2, 2, 2)
    assert raised.value.first_mismatch is not None
    assert verify_for_matmul(p, 2, 2, 2).verified_matmul == (2, 2, 2)


def test_run_input_validation():
    p = verify_for_matmul(to_bilinear(builtin_decomposition("STRASSEN7")), 2, 2, 2)
    with pytest.raises(InputError):
        run_bilinear_matmul(p, ((Scalar(1),),) * 2, identity(2))


def test_verified_program_equals_naive_on_100_pairs():
    p = verify_for_matmul(to_bilinear(builtin_decomposition("STRASSEN7")), 2, 2, 2)
    rng = random.Random(101)
    for _ in range(100):
        x, y = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
        z, _ = run_bilinear_matmul(p, x, y)
        expected, _ = naive_multiply(x, y)
        assert z == expected


# -- recursive executor ---------------------------------------------------------


def test_strassen_scalar_case():
    z, count = strassen_multiply(((Scalar(3),),), ((Scalar(5),),), cutoff=1)
    assert z == ((Scalar(15),),)
    assert count.nonscalar_mults == 1 and count.additions == 0


def test_strassen_counts_are_exactly_7_pow_n():
    rng = random.Random(103)
    for n in range(5):
        size = 1 << n
        x, y = rand_mat(rng, size, size), rand_mat(rng, size, size)
        z, count = strassen_multiply(x, y, cutoff=1)
        assert count.nonscalar_mults == 7 ** n
        zn, naive_count = naive_multiply(x, y)
        assert naive_count.nonscalar_mults == 8 ** n
        assert z == zn


def test_strassen_against_sympy_oracle_n3():
    rng = random.Random(107)
    x, y = rand_mat(rng, 8, 8), rand_mat(rng, 8, 8)
    z, _ = strassen_multiply(x, y, cutoff=1)
    assert z == oracle_matmul(x, y)


def test_strassen_matches_loop_reference():
    rng = random.Random(163)
    for n in range(6):
        size = 1 << n
        x = sampling.matrix(rng, size, size, complex_parts=True, max_num=9, max_den=4)
        y = sampling.matrix(rng, size, size, complex_parts=True, max_num=9, max_den=4)
        for cutoff in (1, 2, 4):
            assert strassen_multiply(x, y, cutoff=cutoff) == ref_strassen(x, y, cutoff)


def test_strassen_exact_beyond_fixed_width_integers():
    # numerators near 10^30 overflow any fixed-width integer dtype
    rng = random.Random(167)
    big = 10 ** 30

    def huge(rows, cols):
        return tuple(tuple(Scalar(Fraction(big + rng.randint(-9, 9), rng.randint(1, 7)),
                                  Fraction(-big + rng.randint(-9, 9), rng.randint(1, 7)))
                           for _ in range(cols)) for _ in range(rows))

    x, y = huge(8, 8), huge(8, 8)
    assert strassen_multiply(x, y) == ref_strassen(x, y)
    program = verify_for_matmul(to_bilinear(builtin_decomposition("STRASSEN7")), 2, 2, 2)
    x, y = huge(2, 2), huge(2, 2)
    assert run_bilinear_matmul(program, x, y) == ref_run_bilinear_matmul(program, x, y)
    assert run_bilinear_matmul(program, x, y)[0] == oracle_matmul(x, y)


def test_strassen_cutoff_switches_to_naive():
    rng = random.Random(109)
    x, y = rand_mat(rng, 8, 8), rand_mat(rng, 8, 8)
    z, count = strassen_multiply(x, y, cutoff=2)
    # two recursion levels then 2x2 naive blocks: 7^2 * 8 multiplications
    assert count.nonscalar_mults == 49 * 8
    assert z == naive_multiply(x, y)[0]


def test_strassen_padding_flag():
    rng = random.Random(113)
    x, y = rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)
    with pytest.raises(InputError):
        strassen_multiply(x, y)
    z, _ = strassen_multiply(x, y, pad=True)
    assert z == naive_multiply(x, y)[0]
    for size in (3, 5):
        x, y = rand_mat(rng, size, size), rand_mat(rng, size, size)
        assert strassen_multiply(x, y, pad=True) == ref_strassen(x, y)
    with pytest.raises(InputError):
        strassen_multiply(x, rand_mat(rng, 2, 2))


def test_mulcount_merges_associatively():
    a = MulCount(1, 2)
    b = MulCount(10, 20)
    c = MulCount(100, 200)
    assert (a + b) + c == a + (b + c) == MulCount(111, 222)


def float_tolerance(n):
    """Higham's bound for Strassen with cutoff 1, [n^log2(12) * 6 - 5n] u
    |A| |B| in the max norm, times 4 for complex arithmetic."""
    return 4.0 * (n ** math.log2(12) * 6 - 5 * n) * 2.0 ** -53


def test_float_path_matches_numpy_and_counts():
    rng = np.random.default_rng(5)
    for size, cutoff in ((1, 1), (8, 1), (8, 4), (64, 1), (64, 4)):
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        y = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        z, count = strassen_multiply_float(x, y, cutoff=cutoff)
        bound = float_tolerance(size) * np.max(np.abs(x)) * np.max(np.abs(y))
        assert np.max(np.abs(z - x @ y)) <= bound
        if size <= 8:  # the exact path counts the same operations
            zero = zeros(size, size)
            assert count == strassen_multiply(zero, zero, cutoff=cutoff)[1]
    assert count.nonscalar_mults == 7 ** 4 * 4 ** 3
    with pytest.raises(InputError):
        strassen_multiply_float(x[:3, :3], y[:3, :3])


# -- matrix JSON -----------------------------------------------------------------


def test_matrix_json_round_trip():
    rng = random.Random(127)
    m = sampling.matrix(rng, 2, 3, complex_parts=True, max_num=4, max_den=3)
    payload = json.loads(json.dumps(matrix_to_json(m)))
    assert matrix_from_json(payload) == m
    for malformed in [
        {"rows": 2, "cols": 2, "data": [["1", "1"]]},
        {"rows": 1, "cols": 1, "data": 5},
        {"rows": 1, "cols": 1, "data": [5]},
        {"rows": 1, "cols": 2, "data": ["ab"]},
        {"rows": 1, "cols": 1, "data": [[{"re": [1]}]]},
        {"rows": 1, "cols": 1, "data": [[{"re": 1.5, "im": "1"}]]},
        {"rows": 1, "cols": 1, "data": [[None]]},
        {"rows": 1, "cols": 1},
    ]:
        with pytest.raises(InputError):
            matrix_from_json(malformed)
