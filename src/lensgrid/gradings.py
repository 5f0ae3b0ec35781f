"""Exact gradings: Spin^c class, Maslov number, Alexander number.

Everything here is exact integer or Fraction arithmetic; no floating
point is ever used.  The Maslov grading of a generator is computed from
dominance counts between the universal-cover lifts of its components and
of the marker centres, weighted by 1/p and shifted by the lens-space
correction term d(p, q, q-1) + (p-1)/p.  The Alexander grading is half
the gap between the Maslov numbers taken with respect to the O markers
and the X markers, shifted by (n-1)/2.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import getitem
from typing import NamedTuple

from .cover import lift_points
from .errors import ValidationError
# require_valid is unused here: perfbench/tracing.py wraps the
# gradings.require_valid binding
from .grid import (canonical_generator, require_knot,  # noqa: F401
                   require_valid)


class GradingTriple(NamedTuple):
    """A generator's Spin^c class and the integer numerators of its Maslov
    and Alexander gradings over ``grading_denominators(diagram)``."""

    spin: int
    maslov: int
    alexander: int


def dominance_count(first, second):
    """Number of pairs (a, b) with a in first, b in second, and a strictly
    below-left of b (both coordinates strictly smaller).

    Sort and sweep: walking ``second`` in x order, the y values of the
    points of ``first`` with strictly smaller x are kept sorted, and each
    b adds the number of them strictly below its y.  Points of either
    side may repeat; O((|first| + |second|) log) comparisons.
    """
    pending = sorted(first)
    m = len(pending)
    seen = []
    total = i = 0
    for bx, by in sorted(second):
        while i < m and pending[i][0] < bx:
            insort(seen, pending[i][1])
            i += 1
        total += bisect_left(seen, by)
    return total


def doubled_points(points):
    """Grid points in doubled coordinates: (a, b) -> (2a, 2b)."""
    return tuple((2 * a, 2 * b) for (a, b) in points)


def doubled_centres(cells):
    """Marker centres in doubled coordinates: cell (s, t) -> (2s+1, 2t+1).

    Doubling keeps every coordinate an integer, and no centre shares a
    coordinate with a grid point."""
    return tuple((2 * s + 1, 2 * t + 1) for (s, t) in cells)


def s3_maslov(points, marker_cells):
    """Integer Maslov grading of a grid generator on the square torus.

    ``points`` are the generator's (col, row) components, ``marker_cells``
    the cells of the marker family playing the anchoring role.
    """
    gen = doubled_points(points)
    base = doubled_centres(marker_cells)
    return (dominance_count(gen, gen) - dominance_count(gen, base)
            - dominance_count(base, gen) + dominance_count(base, base) + 1)


@lru_cache(maxsize=None)
def _d(p, q, i):
    if p == 1:
        return Fraction(0)
    return (Fraction(p * q - (2 * i + 1 - p - q) ** 2, 4 * p * q)
            - _d(q, p % q, i % q))


def d_invariant(p, q, i):
    """Correction term of the i-th Spin^c structure of the lens space.

    Defined by the Euclidean recursion with base value 0 at p = 1; at
    every step the new modulus and index are reduced modulo the previous
    q.  The top-level q is first reduced mod p (so negative q is fine,
    the lens space being unchanged by q -> q + p) and i is reduced mod p.
    """
    if not isinstance(p, int) or p < 1:
        raise ValidationError("range-error: d-invariant needs integer p >= 1, got %r" % (p,))
    q = q % p if p > 1 else 0
    i = i % p if p > 1 else 0
    if p > 1 and (q == 0 or math.gcd(p, q) != 1):
        raise ValidationError("gcd-failure: d-invariant needs gcd(p, q) = 1, "
                              "got p=%d q=%d" % (p, q))
    return _d(p, q, i)


def spin_grading(x, diagram):
    """Z_p-valued Spin^c class of a generator.

    Normalised so that the canonical generator under the O markers sits
    in class (q - 1) mod p; two generators differ by the difference of
    their a-vector sums.
    """
    p, q = diagram.lens.p, diagram.lens.q
    base = canonical_generator(diagram)
    return ((q - 1) + sum(x.a) - sum(base.a)) % p


def maslov_grading(x, diagram, basepoints="O"):
    """Rational homological degree of a generator.

    ``basepoints`` selects which marker family anchors the grading: "O"
    gives the homological grading proper, "X" the one used to measure the
    Alexander grading.  Both use the same additive constant.
    """
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    cells = diagram.O if basepoints == "O" else diagram.X
    raw = s3_maslov(lift_points(x.points(), p, q, n),
                    lift_points(cells, p, q, n))
    qn = q % p
    return Fraction(raw, p) + d_invariant(p, qn, qn - 1) + Fraction(p - 1, p)


def alexander_grading(x, diagram):
    """Rational Alexander grading; defined for knot diagrams only."""
    require_knot(diagram)
    return (maslov_grading(x, diagram, "O") - maslov_grading(x, diagram, "X")
            - (diagram.n - 1)) / 2


def _non_inversions(seq):
    """Number of pairs i < j with seq[i] < seq[j]."""
    seen = []
    total = 0
    for v in seq:
        total += bisect_left(seen, v)
        insort(seen, v)
    return total


def _lift_non_inversions(p, q):
    """``NI[a]``: non-inversions of ``k -> (a + q*k) mod p``, for every a.

    This is the self-dominance count of the lift of one generator
    component whose column is ``sigma + n*a``.  Moving a to a + 1 turns
    the value p - 1, taken at the k* with ``a + q*k* = p - 1 (mod p)``,
    into 0 and leaves the order of every other pair alone, so
    ``NI[a+1] = NI[a] + (p - 1) - 2*k*``.
    """
    out = [_non_inversions([q * k % p for k in range(p)])]
    q_inv = pow(q, -1, p)
    for a in range(p - 1):
        k_star = (p - 1 - a) * q_inv % p
        out.append(out[-1] + (p - 1) - 2 * k_star)
    return out


def _marker_cross_table(cells, p, q, n):
    """Per-cell cross terms and the self term of one marker family.

    Returns ``(cross, self_count)``.  ``cross[r][c]`` is, summed over the
    p lifts of the generator point (c, r), the number of lifted markers
    weakly above-right of the lift plus the number strictly below-left of
    it: the lift's share of ``I(g, B) + I(B, g)``.  ``self_count`` is
    ``I(B, B)``.  One sweep over the cover's rows keeps ``below[C]``, the
    markers in lower rows with column < C; the lifted markers meet every
    row and column once, so the markers weakly above-right of (C, R)
    number ``width - R - C + below[C]``.
    """
    width = n * p
    marker_col = [0] * width
    for (c, row) in lift_points(cells, p, q, n):
        marker_col[row] = c
    below = [0] * width
    cross = [[0] * width for _ in range(n)]
    self_count = 0
    for row in range(width):
        vals = [width - row - c + 2 * b for c, b in enumerate(below)]
        # the lift of cell (c, row % n) into this row sits in column c + shift
        shift = n * q * (row // n) % width
        rotated = vals[shift:] + vals[:shift]
        r = row % n
        cross[r] = [s + v for s, v in zip(cross[r], rotated)]
        mc = marker_col[row]
        self_count += below[mc]
        below[mc + 1:] = [b + 1 for b in below[mc + 1:]]
    return cross, self_count


def grading_denominators(diagram):
    """``(p * den(d), 2p)`` for a lens diagram, d being d(p, q, q-1):
    every generator's Maslov grading is an integer over the first and its
    Alexander grading an integer over the second."""
    p, q = diagram.lens.p, diagram.lens.q
    qn = q % p
    return p * d_invariant(p, qn, qn - 1).denominator, 2 * p


def gradings_table(diagram, generators):
    """``{code: GradingTriple}`` for the ``(code, columns)`` pairs of
    ``generators`` (see ``complexes.generator_columns``), from per-diagram
    integer tables.  Each triple holds the Spin^c class and the integer
    numerators of M and A over ``grading_denominators(diagram)``.

    The dominance counts of ``maslov_grading`` are bilinear in the lifted
    points, so the generator-against-marker terms are sums of per-cell
    table entries, and the generator-against-itself term is a sum over
    pairs of components: ``NI[a]`` for a component with itself, a
    per-column-pair table entry for two components in different rows.
    Tables live for this call only and take O(n*n*p*p) memory, O(n*p)
    when n = 1.

    Requires a knot diagram (the Alexander grading is only defined then).
    """
    require_knot(diagram)   # validates the diagram first
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    qn = q % p
    d = d_invariant(p, qn, qn - 1)
    width = n * p
    cross_o, self_o = _marker_cross_table(diagram.O, p, q, n)
    cross_x, self_x = _marker_cross_table(diagram.X, p, q, n)
    ni = _lift_non_inversions(p, qn)
    # per row, a component's share of raw_o (NI[a] minus its O cross term)
    # and of raw_o - raw_x
    maslov_rows = [[ni[c // n] - o for c, o in enumerate(row)] for row in cross_o]
    alexander_rows = [[x - o for o, x in zip(row_o, row_x)]
                      for row_o, row_x in zip(cross_o, cross_x)]
    memo = {}

    def pair_term(c1, c2):
        # dominance pairs between the lifts of components in columns c1 and
        # c2 of rows t1 < t2.  Read by row, the lifts interleave as c1, c2,
        # c1 + nq, c2 + nq, ... (mod n*p); their order depends only on
        # c1 // n, c2 // n and whether c1 % n < c2 % n.
        key = (c1 // n, c2 // n, c1 % n < c2 % n)
        value = memo.get(key)
        if value is None:
            seq = []
            for k in range(p):
                shift = n * q * k
                seq += ((c1 + shift) % width, (c2 + shift) % width)
            value = memo[key] = (_non_inversions(seq) - ni[c1 // n]
                                 - ni[c2 // n])
        return value

    # every pair of columns in different residues mod n (none when n = 1)
    pair = {(c1, c2): pair_term(c1, c2) for c1 in range(width)
            for r2 in range(n) if r2 != c1 % n for c2 in range(r2, width, n)}

    # sum(canonical_generator(diagram).a), without building the generator
    spin_base = (q - 1) - sum(s // n for (s, _) in diagram.O)
    sigma_sum = n * (n - 1) // 2
    # M = (raw_o + p - 1)/p + d and A = (raw_o - raw_x)/(2p) - (n-1)/2, with
    # raw_o = gg - (O cross terms) + self_o + 1, where gg is the
    # generator's self count
    maslov_base = d.denominator * (self_o + p) + p * d.numerator
    alexander_base = self_o - self_x - (n - 1) * p
    out = {}
    for code, cols in generators:
        raw = (sum(map(getitem, maslov_rows, cols))
               + sum(map(pair.__getitem__, combinations(cols, 2))))
        # the columns are sigma + n*a with sigma a permutation
        out[code] = GradingTriple(
            (spin_base + (sum(cols) - sigma_sum) // n) % p,
            d.denominator * raw + maslov_base,
            sum(map(getitem, alexander_rows, cols)) + alexander_base)
    return out
