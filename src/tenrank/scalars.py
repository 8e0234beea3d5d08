"""Exact complex scalars with rational real and imaginary parts.

All states, decompositions and operators in this package live over the
Gaussian rationals, so every reconstruction and comparison is bit-exact.
`fractions.Fraction` supplies the rational arithmetic (lowest terms,
positive denominators); this module adds the complex structure and the
JSON encoding used by all file formats ("p/q" fraction strings).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-integer fraction string like "-3/4" or "7"."""
    if not isinstance(text, str):
        raise InputError(f"expected a rational string, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid rational string: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Format a Fraction as "p/q" (or "p" when the denominator is 1)."""
    return str(value)


class Scalar:
    """A Gaussian rational: re + im*i with exact Fraction components.

    Immutable and hashable. Arithmetic is exact and closed; division by a
    nonzero Scalar is exact. Mixing with ints and Fractions is allowed,
    floats are rejected to protect exactness.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_scalar(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_scalar(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other).__sub__(self)

    def __mul__(self, other):
        other = as_scalar(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return as_scalar(other).__truediv__(self)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def conj(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    # -- predicates and conversions -----------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return format_rational(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I_UNIT = Scalar(0, 1)


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction, "p/q" string or Scalar into a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    if isinstance(value, str):
        return Scalar(parse_rational(value))
    raise InputError(f"cannot interpret {value!r} as an exact scalar")


def gaussian_integers(values) -> tuple[list, list, int]:
    """Exact scalars as Gaussian integers over one common denominator:
    (re, im, den) with values[k] == (re[k] + im[k] i) / den, den the least
    common denominator of every part (1 for no values)."""
    values = [as_scalar(v) for v in values]
    den = math.lcm(*{part.denominator for v in values for part in (v.re, v.im)})
    return ([v.re.numerator * (den // v.re.denominator) for v in values],
            [v.im.numerator * (den // v.im.denominator) for v in values], den)


def from_gaussian(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im i) / den: one value of `gaussian_integers`."""
    return Scalar(Fraction(re, den), Fraction(im, den))


def distinct_objects(values) -> tuple[list, list]:
    """(distinct, index): the distinct objects among values, told apart by
    identity and listed in first-seen order, and for each value its
    position in that list, so values[k] is distinct[index[k]].  Work done
    per distinct object is done once for objects shared across a document,
    as the JSON decode memo shares its Scalars."""
    values = list(values)  # keeps every object, and with it its id, alive
    ids = list(map(id, values))
    first = dict(zip(ids, values))
    positions = dict(zip(first, range(len(first))))
    return list(first.values()), list(map(positions.__getitem__, ids))


# -- JSON encoding -----------------------------------------------------------
#
# Real scalars serialize as a single "p/q" string; complex scalars as
# {"re": "p/q", "im": "p/q"}; integers may stand for either part.  Float
# (inexact) parts are rejected: every decoded scalar is exact.


def scalar_to_json(value: Scalar):
    if not value.im:
        return format_rational(value.re)
    return {"re": format_rational(value.re), "im": format_rational(value.im)}


def gaussian_to_json(re: int, im: int, den: int):
    """scalar_to_json(from_gaussian(re, im, den)) for den > 0, formatted
    from the integers without building the Scalar."""
    def text(n):
        g = math.gcd(n, den)
        return str(n // g) if g == den else f"{n // g}/{den // g}"

    return text(re) if not im else {"re": text(re), "im": text(im)}


def scalar_from_json(obj, memo: dict | None = None) -> Scalar:
    """Decode an exact scalar from its JSON form (InputError otherwise).

    JSON booleans and floats are rejected, never read as 0, 1 or a nearby
    rational.  `memo` is a dict the caller keeps for one document: each
    string form ("p/q", or the "re"/"im" pair of strings) decodes once and
    its immutable Scalar is reused; a failure is never stored, so every
    malformed occurrence raises.
    """
    if memo is None:
        return _decode_scalar(obj)
    if type(obj) is str:
        key = obj
    elif type(obj) is dict and type(obj.get("re")) is str and type(obj.get("im")) is str:
        key = (obj["re"], obj["im"])
    else:
        return _decode_scalar(obj)
    value = memo.get(key)
    if value is None:
        value = memo[key] = _decode_scalar(obj)
    return value


def _decode_scalar(obj) -> Scalar:
    if isinstance(obj, str):
        return Scalar(parse_rational(obj))
    if type(obj) is int:
        return Scalar(obj)
    if isinstance(obj, dict):
        re, im = obj.get("re", 0), obj.get("im", 0)
        if isinstance(re, float) or isinstance(im, float):
            raise InputError("float scalar where an exact rational is required")
        if isinstance(re, bool) or isinstance(im, bool):
            raise InputError("boolean scalar where an exact rational is required")
        return Scalar(
            re if isinstance(re, int) else parse_rational(re),
            im if isinstance(im, int) else parse_rational(im),
        )
    raise InputError(f"invalid scalar encoding: {obj!r}")
