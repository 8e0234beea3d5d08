import random
from fractions import Fraction

import pytest

from conftest import invertible_matrix, mat_mul, matrix, oracle_rank, sympy_matrix, vector, zeros

from tenrank import linalg, sampling
from tenrank.errors import InputError
from tenrank.scalars import Scalar


def test_rank_against_oracle_random():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = sampling.matrix(rng, rows, cols, complex_parts=True, max_num=3, max_den=2)
        assert linalg.rank(m) == oracle_rank(m)


def test_rank_of_rank_deficient_construction():
    # third row is a combination of the first two
    r1 = vector([1, 2, 3])
    r2 = vector([0, 1, -1])
    r3 = tuple(Scalar(2) * a + Scalar(-1) * b for a, b in zip(r1, r2))
    assert linalg.rank((r1, r2, r3)) == 2


def test_det_against_oracle():
    rng = random.Random(5)
    import sympy

    for _ in range(30):
        n = rng.randint(1, 4)
        m = sampling.matrix(rng, n, n, complex_parts=True, max_num=3, max_den=2)
        expected = sympy.expand(sympy_matrix(m).det())
        got = linalg.det(m)
        re, im = expected.as_real_imag()
        assert got.re == Fraction(str(re)) and got.im == Fraction(str(im))


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = invertible_matrix(rng, n, complex_parts=True, max_num=3, max_den=2)
        assert mat_mul(m, linalg.inverse(m)) == linalg.identity(n)
    with pytest.raises(InputError):
        linalg.inverse(zeros(2, 2))
    with pytest.raises(InputError):
        linalg.det(zeros(2, 3))


def test_rref_rows_span_and_pivots():
    m = matrix([[1, 2, 0], [2, 4, 1], [3, 6, 1]])
    rows, pivots = linalg.rref(m)
    assert len(rows) == 2 and pivots == (0, 2)
    for original in m:
        assert linalg.in_span(rows, original)


def test_dot():
    assert linalg.dot(vector([1, 2]), vector([3, 4])) == Scalar(11)
    assert linalg.dot(vector([0, Scalar(0, 1)]), vector([5, Scalar(0, 1)])) == Scalar(-1)
