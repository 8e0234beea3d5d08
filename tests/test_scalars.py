import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import abs2, conj, reference_gaussian_from_json

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


def leg_lists(leg):
    """A flat Leg as the (re, im, den) lists gaussian_integers gives."""
    return leg.re.tolist(), leg.im.tolist(), leg.den


def test_json_decode_reads_every_spelling_as_fraction_does():
    # ASCII "-?p(/q)?" strings and ints skip Fraction; every other spelling
    # goes through it, so values and errors are those of scalar_from_json
    spellings = ["6/4", "-0", " 3/4", "1.5", "1e3", "1_000", "\u0663", "007", "-12/8", "+3",
                 "0/5", "3/4\n", 7, -2, {"re": "1/2", "im": 3}, {"im": "-4/6"}, {"re": 0},
                 {"re": " 1/3", "im": "2e-1"}, str(10 ** 400), f"1/{10 ** 400}"]
    decoded = [scalar_from_json(v) for v in spellings]
    assert decoded[:7] == [Scalar(Fraction(3, 2)), Scalar(0), Scalar(Fraction(3, 4)),
                           Scalar(Fraction(3, 2)), Scalar(1000), Scalar(1000), Scalar(3)]
    assert leg_lists(gaussian_from_json(spellings)) == gaussian_integers(decoded)
    assert leg_lists(gaussian_from_json(spellings[::-1])) == gaussian_integers(decoded[::-1])
    assert leg_lists(gaussian_from_json([])) == ([], [], 1)
    for bad in ("1/0", "3/-4", "x", "1/", "/2", "--1", "", "9" * 5000, True, 1.5, None, [1],
                {"re": 1.5}, {"re": "1", "im": True}, {"re": "x", "im": 0.5},
                {"re": None}, {"re": "1/0", "im": "x"}):
        with pytest.raises(InputError) as slow:
            scalar_from_json(bad)
        with pytest.raises(InputError) as fast:
            gaussian_from_json(["1/2", bad, "x"])
        assert str(fast.value) == str(slow.value)


#: well-formed JSON scalars of every spelling, numerators past int64 among them
JSON_VALUES = ["0", "1", "-1", "1/2", "-3/4", "6/4", " 3/4", "1.5", 0, 1, -7, 2 ** 70,
               {"re": "1/2", "im": "-1/3"}, {"re": 1, "im": 2}, {"im": "-4/6"}, {"re": "0"},
               {"re": "1/2", "im": 0}, {"i": [0, 0, 1], "re": "1", "im": "1/5"},
               str(2 ** 64), {"re": f"1/{3 ** 50}"}]
#: malformed JSON scalars, each with its own error
BAD_VALUES = ["1/0", "x", "", "3/-4", True, 1.5, None, [1], {"re": 1.5}, {"re": "1", "im": True},
              {"re": "x", "im": 0.5}, {"re": None}, {"re": "1/0", "im": "x"}, {"im": "y"}]


def decoded_or_error(decode, values):
    try:
        return ("ok", *decode(values))
    except InputError as exc:
        return ("error", str(exc))


def test_json_decode_per_distinct_value_matches_the_value_by_value_decoder():
    # mixes of ints, "p/q" strings and {"re","im"} objects with repeats, then
    # one malformed value at the start, in the middle or at the end (and a
    # second one after it): the Legs and the first error are the reference's
    rng = random.Random(11)
    for trial in range(300):
        values = [rng.choice(JSON_VALUES) for _ in range(rng.randrange(1, 40))]
        cases = [values]
        for at in (0, len(values) // 2, len(values)):
            bad = rng.sample(BAD_VALUES, 2)
            cases.append(values[:at] + [bad[0]] + values[at:] + [bad[1]])
        for case in cases:
            expected = decoded_or_error(reference_gaussian_from_json, case)
            leg = decoded_or_error(gaussian_from_json, case)
            if expected[0] == "error":
                assert leg == expected
                continue
            _, re, im, den = leg
            assert (re.tolist(), im.tolist(), den) == expected[1:]
            dtype = np.int64 if max(map(abs, expected[1] + expected[2])) < 1 << 62 else object
            assert re.dtype == im.dtype == dtype and re.shape == (len(case),)
