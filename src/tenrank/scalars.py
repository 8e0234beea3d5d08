"""Exact complex scalars with rational real and imaginary parts.

All states, decompositions and operators in this package live over the
Gaussian rationals, so every reconstruction and comparison is bit-exact.
`fractions.Fraction` supplies the rational arithmetic (lowest terms,
positive denominators); this module adds the complex structure and the
JSON encoding used by all file formats ("p/q" fraction strings).

Arrays of exact values are held as Gaussian integers: `Leg` numerator
arrays over one least common denominator, the one array format of tensors
and decompositions, which this module converts to and from Scalars and
JSON.  Matrices of Gaussian integers are eliminated here too, by the
package's one exact elimination kernel (fraction-free, over Z[i]).
"""

from __future__ import annotations

import math
import re as regex
from fractions import Fraction
from typing import NamedTuple

import numpy as np

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
    return _over_lcm([(v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator)
                      for v in map(as_scalar, values)])


def _over_lcm(parts) -> tuple[list, list, int]:
    """(re numerator, re denominator, im numerator, im denominator) parts as
    (re, im, den) over their least common denominator."""
    re, re_den, im, im_den = zip(*parts) if parts else ((),) * 4
    den = math.lcm(*{*re_den, *im_den})
    if den == 1:
        return list(re), list(im), 1
    return ([n * (den // d) for n, d in zip(re, re_den)],
            [n * (den // d) for n, d in zip(im, im_den)], den)


def from_gaussian(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im i) / den: one value of `gaussian_integers`."""
    return Scalar(Fraction(re, den), Fraction(im, den))


# -- Gaussian-integer arrays ---------------------------------------------------


class Leg(NamedTuple):
    """Exact values as arrays of their real and imaginary numerators over
    their least common denominator `den`, int64 when every numerator is
    below 2^62 and Python ints (dtype object) otherwise.  One leg of r
    product terms is an r x dim pair; the nonzeros of a tensor are one
    flat pair."""

    re: np.ndarray
    im: np.ndarray
    den: int


def _int_dtype(bound: int):
    """int64 when `bound`, a bound on the absolute value of every integer
    and partial result involved, is below 2^62; Python ints (dtype object)
    otherwise, so nothing wraps."""
    return np.int64 if bound < 1 << 62 else object


def _to_leg(values, shape) -> Leg:
    """Exact values (Scalars, ints, Fractions or "p/q" strings, row-major)
    as a Leg of the given shape."""
    re, im, den = gaussian_integers(values)
    dtype = _int_dtype(max(map(abs, re + im), default=0))
    return Leg(*(np.array(part, dtype=dtype).reshape(shape) for part in (re, im)), den)


def _lowest(re: np.ndarray, im: np.ndarray, den: int) -> Leg:
    """Numerator arrays over den as a new Leg in lowest terms."""
    if re.dtype == im.dtype == np.int64:
        common = math.gcd(*(int(np.gcd.reduce(part, axis=None)) for part in (re, im)))
    else:
        common = math.gcd(*re.ravel().tolist(), *im.ravel().tolist())
    g = math.gcd(den, common)
    if common and g > 1:  # all-zero numerators (common 0) stay as they are
        re, im = re // g, im // g
    dtype = _int_dtype(_max_abs(Leg(re, im, den)))
    return Leg(re.astype(dtype), im.astype(dtype), den // g)


def _max_abs(leg: Leg) -> int:
    return max((int(abs(part).max()) for part in (leg.re, leg.im) if part.size), default=0)


def _floats(leg: Leg) -> np.ndarray:
    """The values of a Leg as a complex128 array of its shape, each the
    complex() of its Scalar.  While every numerator and den is below 2^53
    they are floats exactly, and numpy's division is the correctly rounded
    quotient; past that, each distinct value is divided as Python ints,
    which raises OverflowError beyond the float range."""
    out = np.empty(leg.re.shape, dtype=np.complex128)
    if max(_max_abs(leg), leg.den) < 1 << 53:
        out.real, out.imag = leg.re / leg.den, leg.im / leg.den
        return out
    keys = list(zip(leg.re.ravel().tolist(), leg.im.ravel().tolist()))
    values = {key: complex(key[0] / leg.den, key[1] / leg.den) for key in dict.fromkeys(keys)}
    out.reshape(-1)[:] = list(map(values.__getitem__, keys))
    return out


def _int_leg(m: np.ndarray) -> Leg:
    """The int64 matrix m as a Leg over the denominator 1."""
    return Leg(m, np.zeros_like(m), 1)


def _mapped(op: Leg, leg: Leg) -> Leg:
    """`leg` with every vector along its last axis mapped by the matrix op,
    in integers and in lowest terms."""
    # zeros count as 1, so every numerator also lies below the bound
    dtype = _int_dtype(2 * op.re.shape[1] * (_max_abs(op) or 1) * (_max_abs(leg) or 1))
    xr, xi, mr, mi = (part.astype(dtype) for part in (leg.re, leg.im, op.re.T, op.im.T))
    return _lowest(xr @ mr - xi @ mi, xr @ mi + xi @ mr, leg.den * op.den)


# -- Gaussian-integer elimination ---------------------------------------------
#
# Gaussian integers as (re, im) pairs of Python ints, matrices as lists of
# rows of them: the one exact elimination kernel of the package.


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _gdiv(x, p):
    """x / p for Gaussian integers p dividing x."""
    (re, im), norm = _gmul(x, (p[0], -p[1])), p[0] ** 2 + p[1] ** 2
    return (re // norm, im // norm)


def _gdot(xs, ys):
    """sum_k xs[k] ys[k] over Gaussian integers."""
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return (re, im)


def _echelon(m) -> tuple[list, list]:
    """Fraction-free (Bareiss) row echelon form of a Gaussian-integer
    matrix: its nonzero rows and their pivot columns.  Every entry is a
    minor of m (Sylvester's identity), so each division by the previous
    pivot is exact in Z[i], and a nonsingular square m ends in the pivot
    +-det m."""
    rows, pivots, prev = [list(row) for row in m], [], (1, 0)
    for c in range(len(rows[0])):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][c] != (0, 0)), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][c]
        for i in range(k + 1, len(rows)):
            factor = rows[i][c]
            rows[i] = [_gdiv(_gsub(_gmul(pivot, x), _gmul(factor, y)), prev)
                       for x, y in zip(rows[i], rows[k])]
        prev = pivot
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _kernel_vector(m) -> list | None:
    """A vector spanning the right kernel of the Gaussian-integer matrix m,
    with coprime parts, when that kernel has dimension one; None otherwise."""
    rows, pivots = _echelon(m)
    n = len(m[0])
    if len(pivots) != n - 1:
        return None
    x = [(0, 0)] * n
    x[min(set(range(n)) - set(pivots))] = (1, 0)
    # back substitution: scale x by each pivot, then solve that row's unknown
    for row, c in zip(reversed(rows), reversed(pivots)):
        s = _gdot(row[c + 1:], x[c + 1:])
        x = [_gmul(row[c], v) for v in x]
        x[c] = (-s[0], -s[1])
        g = math.gcd(*(part for v in x for part in v))
        x = [(v[0] // g, v[1] // g) for v in x]
    return x


# -- JSON encoding -----------------------------------------------------------
#
# Real scalars serialize as a single "p/q" string; complex scalars as
# {"re": "p/q", "im": "p/q"}; integers may stand for either part.  Float
# (inexact) parts are rejected: every decoded scalar is exact.


def scalar_to_json(value: Scalar):
    if not value.im:
        return format_rational(value.re)
    return {"re": format_rational(value.re), "im": format_rational(value.im)}


def ratio_text(n: int, den: int) -> str:
    """format_rational(Fraction(n, den)) for den > 0, without the Fraction."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def gaussian_to_json(re: int, im: int, den: int):
    """scalar_to_json(from_gaussian(re, im, den)) for den > 0, formatted
    from the integers without building the Scalar."""
    if not im:
        return ratio_text(re, den)
    return {"re": ratio_text(re, den), "im": ratio_text(im, den)}


def scalar_from_json(obj) -> Scalar:
    """Decode an exact scalar from its JSON form (InputError otherwise).

    JSON booleans and floats are rejected, never read as 0, 1 or a nearby
    rational.
    """
    re, re_den, im, im_den = _json_parts(obj, {})
    return Scalar(Fraction(re, re_den), Fraction(im, im_den))


def gaussian_from_json(values: list) -> Leg:
    """A list of JSON scalars as one flat Leg over their least common
    denominator: the numerators gaussian_integers gives for the Scalars
    scalar_from_json decodes, with the same errors, and no Scalar built.
    Each distinct value is parsed once, in order of first appearance, so
    the first malformed value raises what a one-by-one decode would."""
    # values of equal keys decode alike, any one standing for all; others get keys of their own
    keys = [obj if type(obj) is str else _json_key(obj) for obj in values]
    memo, first = {}, dict(zip(keys, values))  # each key at its first position
    code = {key: k for k, key in enumerate(first)}
    re, im, den = _over_lcm([_json_parts(obj, memo) for obj in first.values()])
    dtype = _int_dtype(max(map(abs, re + im), default=0))
    index = np.fromiter(map(code.__getitem__, keys), dtype=np.intp, count=len(keys))
    return Leg(*(np.array(part, dtype=dtype)[index] for part in (re, im)), den)


def _json_key(obj):
    """A hashable key of a JSON scalar other than a string: the int itself,
    or the (re, im) parts of an object whose parts are ints and strings; a
    new object, equal to nothing else, for any other value."""
    if type(obj) is int:
        return obj
    if type(obj) is dict:
        key = obj.get("re", 0), obj.get("im", 0)
        if all(type(part) in (int, str) for part in key):
            return key
    return object()


def _json_parts(obj, memo: dict) -> tuple:
    """(re numerator, re denominator, im numerator, im denominator) of a
    JSON scalar, each part in lowest terms."""
    if type(obj) is not dict:
        if type(obj) not in (int, str):
            raise InputError(f"invalid scalar encoding: {obj!r}")
        return (*_rational(obj, memo), 0, 1)
    re, im = obj.get("re", 0), obj.get("im", 0)
    if isinstance(re, float) or isinstance(im, float):
        raise InputError("float scalar where an exact rational is required")
    if isinstance(re, bool) or isinstance(im, bool):
        raise InputError("boolean scalar where an exact rational is required")
    return (*_rational(re, memo), *_rational(im, memo))


#: rational strings read without Fraction: ASCII digits with an optional
#: minus sign and an optional "/" denominator
_RATIO = regex.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(part, memo: dict) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of a JSON int or rational
    string, with the values and errors of parse_rational; each distinct
    string is parsed once per memo."""
    if type(part) is int:
        return part, 1
    if type(part) is str and part in memo:
        return memo[part]
    match = type(part) is str and _RATIO.fullmatch(part)
    try:
        num, den = (int(match[1]), int(match[2] or 1)) if match else (0, 0)
    except ValueError:  # past int's digit limit, which parse_rational reports
        den = 0
    if den:
        g = math.gcd(num, den)
        memo[part] = num // g, den // g
    else:
        value = parse_rational(part)
        memo[part] = value.numerator, value.denominator
    return memo[part]
