import math
import random
from fractions import Fraction

import pytest

from conftest import abs2, conj

from tenrank.errors import InputError
from tenrank.scalars import (
    Scalar,
    as_scalar,
    format_rational,
    from_gaussian,
    gaussian_from_json,
    gaussian_integers,
    gaussian_to_json,
    parse_rational,
    scalar_from_json,
    scalar_to_json,
)


def test_exact_rational_arithmetic():
    a = Scalar(Fraction(1, 3))
    b = Scalar(Fraction(1, 6))
    assert a + b == Scalar(Fraction(1, 2))
    assert a - b == Scalar(Fraction(1, 6))
    assert a * b == Scalar(Fraction(1, 18))
    assert a / b == Scalar(2)


def test_complex_multiplication_and_conjugate():
    z = Scalar(1, 2)
    w = Scalar(3, -1)
    assert z * w == Scalar(5, 5)
    assert conj(z) == Scalar(1, -2)
    assert (z * conj(z)) == Scalar(abs2(z))
    assert abs2(z) == Fraction(5)


def test_division_is_exact_inverse():
    z = Scalar(Fraction(3, 7), Fraction(-2, 5))
    inv = Scalar(1) / z
    assert z * inv == Scalar(1)
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_lowest_terms_and_positive_denominator_preserved():
    z = Scalar(Fraction(2, -4), Fraction(6, 9))
    assert z.re == Fraction(-1, 2) and z.re.denominator == 2
    assert z.im == Fraction(2, 3)
    total = z + z
    assert total.re.denominator > 0
    assert math.gcd(total.re.numerator, total.re.denominator) == 1


def test_field_axioms_spot_check():
    rng = random.Random(11)

    def rand():
        return Scalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )

    for _ in range(200):
        x, y, z = rand(), rand(), rand()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x


def test_int_and_fraction_coercion():
    assert Scalar(2) + 1 == Scalar(3)
    assert 2 * Scalar(0, 1) == Scalar(0, 2)
    assert Scalar(1) - Fraction(1, 2) == Scalar(Fraction(1, 2))
    assert as_scalar("3/4") == Scalar(Fraction(3, 4))
    with pytest.raises(InputError):
        as_scalar(0.5)


def test_immutability_and_hash():
    z = Scalar(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(5)
    assert hash(Scalar(1)) == hash(Scalar(1))
    assert Scalar(1, 0) == 1


def test_rational_string_round_trip():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("abc")


def test_scalar_json_forms():
    assert scalar_to_json(Scalar(Fraction(1, 2))) == "1/2"
    assert scalar_to_json(Scalar(1, -2)) == {"re": "1", "im": "-2"}
    assert scalar_from_json("1/2") == Scalar(Fraction(1, 2))
    assert scalar_from_json({"re": "1", "im": "-2"}) == Scalar(1, -2)
    assert scalar_from_json(3) == Scalar(3)


def test_gaussian_integer_round_trip_and_json():
    # from_gaussian inverts gaussian_integers, and gaussian_to_json encodes
    # its value as scalar_to_json does, without building the Scalar
    rng = random.Random(12)
    big = 10 ** 400
    values = [Scalar(0), Scalar(Fraction(-6, 4)), Scalar(big, -1), Scalar(Fraction(1, big), 7)]
    values += [Scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                      Fraction(rng.choice((0, rng.randint(-30, 30))), rng.randint(1, 12)))
               for _ in range(200)]
    re, im, den = gaussian_integers(values)
    assert [from_gaussian(x, y, den) for x, y in zip(re, im)] == values
    for value, x, y in zip(values, re, im):
        assert gaussian_to_json(x, y, den) == scalar_to_json(value)
        assert gaussian_to_json(3 * x, 3 * y, 3 * den) == scalar_to_json(value)


def test_scalar_json_float_handling():
    with pytest.raises(InputError):
        scalar_from_json({"re": 0.5, "im": 0.0})
    with pytest.raises(InputError):
        scalar_from_json([1, 2])


def test_scalar_json_rejects_booleans():
    for obj in (True, False, {"re": True}, {"re": "1", "im": False}):
        with pytest.raises(InputError):
            scalar_from_json(obj)


def test_json_decode_reads_every_spelling_as_fraction_does():
    # ASCII "-?p(/q)?" strings and ints skip Fraction; every other spelling
    # goes through it, so values and errors are those of scalar_from_json
    spellings = ["6/4", "-0", " 3/4", "1.5", "1e3", "1_000", "\u0663", "007", "-12/8", "+3",
                 "0/5", "3/4\n", 7, -2, {"re": "1/2", "im": 3}, {"im": "-4/6"}, {"re": 0},
                 {"re": " 1/3", "im": "2e-1"}, str(10 ** 400), f"1/{10 ** 400}"]
    decoded = [scalar_from_json(v) for v in spellings]
    assert decoded[:7] == [Scalar(Fraction(3, 2)), Scalar(0), Scalar(Fraction(3, 4)),
                           Scalar(Fraction(3, 2)), Scalar(1000), Scalar(1000), Scalar(3)]
    assert gaussian_from_json(spellings) == gaussian_integers(decoded)
    assert gaussian_from_json(iter(spellings[::-1])) == gaussian_integers(decoded[::-1])
    assert gaussian_from_json([]) == ([], [], 1)
    for bad in ("1/0", "3/-4", "x", "1/", "/2", "--1", "", "9" * 5000, True, 1.5, None, [1],
                {"re": 1.5}, {"re": "1", "im": True}, {"re": "x", "im": 0.5},
                {"re": None}, {"re": "1/0", "im": "x"}):
        with pytest.raises(InputError) as slow:
            scalar_from_json(bad)
        with pytest.raises(InputError) as fast:
            gaussian_from_json(["1/2", bad, "x"])
        assert str(fast.value) == str(slow.value)
