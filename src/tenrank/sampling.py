"""Seeded random rational objects for `tenrank matmul` operands and tests.

Uses the stdlib `random.Random` so streams are reproducible across
platforms for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import Scalar


def rational(rng: random.Random, max_num: int = 9, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def scalar(rng: random.Random, complex_parts: bool = False,
           max_num: int = 9, max_den: int = 4) -> Scalar:
    re = rational(rng, max_num, max_den)
    im = rational(rng, max_num, max_den) if complex_parts else 0
    return Scalar(re, im)


def vector(rng: random.Random, n: int, **kw) -> tuple:
    return tuple(scalar(rng, **kw) for _ in range(n))


def matrix(rng: random.Random, rows: int, cols: int, **kw) -> tuple:
    return tuple(vector(rng, cols, **kw) for _ in range(rows))
