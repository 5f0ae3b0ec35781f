"""Reference computations made apart from the program under test.

Nothing here imports lensgrid: the benchmark generates its inputs and
computes the values it checks against with this module alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def generator_count(p, n):
    """Size n! * p^n of the generator set of an n-row diagram for L(p, q)."""
    return math.factorial(n) * p ** n


def raw_candidates(p, q, n):
    """Corner-compatible quadrilaterals per generator, winding * n(n-1).

    A beta curve of the sheared torus climbs width / gcd(shear, width)
    row periods before it closes up, with width = n*p and shear = n*q.
    """
    width, shear = n * p, n * q
    return width // math.gcd(shear, width) * n * (n - 1)


def is_knot(o_cols, x_cols):
    """Whether the row-to-row walk of a marker placement is one cycle.

    From row t the link runs along the row to its O, then along that O's
    column to the X of that column, whose row is the next row visited.
    """
    n = len(o_cols)
    x_row = {c: r for r, c in enumerate(x_cols)}
    row, steps = 0, 0
    while True:
        row = x_row[o_cols[row]]
        steps += 1
        if row == 0:
            return steps == n


@lru_cache(maxsize=None)
def _d(p, q, i):
    if p == 1:
        return Fraction(0)
    return (Fraction(p * q - (2 * i + 1 - p - q) ** 2, 4 * p * q)
            - _d(q, p % q, i % q))


def d_invariant(p, q, i):
    """Ozsvath-Szabo correction term d(L(p, q), i), exact.

    d(p, q, i) = (pq - (2i + 1 - p - q)^2) / (4pq) - d(q, p mod q, i mod q)
    with d(1, 0, 0) = 0, after q and i are reduced into [0, p).
    """
    return _d(p, q % p, i % p)
