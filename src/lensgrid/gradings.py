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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cover import lift_points
from .errors import ValidationError
from .grid import canonical_generator, require_knot, require_valid


@dataclass(frozen=True)
class GradingTriple:
    spin: int
    maslov: Fraction
    alexander: Fraction


def dominance_count(first, second):
    """Number of pairs (a, b) with a in first, b in second, and a strictly
    below-left of b (both coordinates strictly smaller)."""
    return sum(1 for a in first for b in second if a[0] < b[0] and a[1] < b[1])


def weighted_dominance(first, second):
    """Dominance count extended bilinearly to weighted point collections.

    Arguments are sequences of ``(point, weight)`` pairs; weights may be
    ints or Fractions.  Formal differences of point sets are expressed by
    negative weights.
    """
    total = 0
    for (pa, wa) in first:
        for (pb, wb) in second:
            if pa[0] < pb[0] and pa[1] < pb[1]:
                total += wa * wb
    return total


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


def _scaled_generator_lift(x, p, q, n):
    # coordinates doubled so that marker centres become odd integers
    return tuple((2 * a, 2 * b) for (a, b) in lift_points(x.points(), p, q, n))


def _scaled_center_lift(cells, p, q, n):
    return tuple((2 * a + 1, 2 * b + 1) for (a, b) in lift_points(cells, p, q, n))


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
    gen = _scaled_generator_lift(x, p, q, n)
    base = _scaled_center_lift(cells, p, q, n)
    raw = (dominance_count(gen, gen) - dominance_count(gen, base)
           - dominance_count(base, gen) + dominance_count(base, base) + 1)
    qn = q % p
    return Fraction(raw, p) + d_invariant(p, qn, qn - 1) + Fraction(p - 1, p)


def alexander_grading(x, diagram):
    """Rational Alexander grading; defined for knot diagrams only."""
    require_knot(diagram)
    return _alexander_unchecked(x, diagram)


def _alexander_unchecked(x, diagram):
    return (maslov_grading(x, diagram, "O") - maslov_grading(x, diagram, "X")
            - (diagram.n - 1)) / 2


def alexander_grading_swapped(x, diagram):
    """Alexander grading with the O and X roles exchanged (orientation
    reversal of the knot)."""
    require_knot(diagram)
    return (maslov_grading(x, diagram, "X") - maslov_grading(x, diagram, "O")
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


def gradings_table(diagram, generators):
    """GradingTriple for each generator, from per-diagram integer tables.

    The dominance counts of ``maslov_grading`` are bilinear in the lifted
    points, so the generator-against-marker terms are sums of per-cell
    table entries, and the generator-against-itself term is a sum over
    pairs of components: ``NI[a]`` for a component with itself, a
    memoised count for two components in different rows.  Tables and
    memo live for this call only: the tables take O(n*n*p) memory and
    the memo at most 2*p*p entries, none when n = 1.

    Requires a knot diagram (the Alexander grading is only defined then).
    """
    require_valid(diagram)
    require_knot(diagram)
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    qn = q % p
    d = d_invariant(p, qn, qn - 1)
    width = n * p
    cross_o, self_o = _marker_cross_table(diagram.O, p, q, n)
    cross_x, self_x = _marker_cross_table(diagram.X, p, q, n)
    ni = _lift_non_inversions(p, qn)
    pair_memo = {}

    def pair_term(c1, c2):
        # dominance pairs between the lifts of components in columns c1 and
        # c2 of rows t1 < t2.  Read by row, the lifts interleave as c1, c2,
        # c1 + nq, c2 + nq, ... (mod n*p); their order depends only on
        # c1 // n, c2 // n and whether c1 % n < c2 % n.
        key = (c1 // n, c2 // n, c1 % n < c2 % n)
        value = pair_memo.get(key)
        if value is None:
            seq = []
            for k in range(p):
                shift = n * q * k
                seq += ((c1 + shift) % width, (c2 + shift) % width)
            value = _non_inversions(seq) - ni[c1 // n] - ni[c2 // n]
            pair_memo[key] = value
        return value

    base_sum = sum(canonical_generator(diagram).a)
    out = {}
    for x in generators:
        cols = x.columns
        gg = sum(ni[a] for a in x.a)
        cross_sum_o = cross_sum_x = 0
        for t1, c1 in enumerate(cols):
            cross_sum_o += cross_o[t1][c1]
            cross_sum_x += cross_x[t1][c1]
            for c2 in cols[t1 + 1:]:
                gg += pair_term(c1, c2)
        raw_o = gg - cross_sum_o + self_o + 1
        raw_x = gg - cross_sum_x + self_x + 1
        # M = raw_o/p + d + (p-1)/p, A = (raw_o - raw_x)/(2p) - (n-1)/2
        out[x] = GradingTriple(
            spin=((q - 1) + sum(x.a) - base_sum) % p,
            maslov=Fraction((raw_o + p - 1) * d.denominator + p * d.numerator,
                            p * d.denominator),
            alexander=Fraction(raw_o - raw_x - (n - 1) * p, 2 * p))
    return out


def monomial_grading(diagram, x, exponents):
    """Gradings of a monomial U_0^e_0 ... U_{n-1}^e_{n-1} times a generator.

    Each U-power leaves the Spin^c class alone, lowers the Maslov grading
    by 2 and the Alexander grading by 1.
    """
    n = diagram.n
    if len(exponents) != n or any(e < 0 for e in exponents):
        raise ValidationError("range-error: exponent vector %r must have %d "
                              "nonnegative entries" % (exponents, n))
    shift = sum(exponents)
    return GradingTriple(
        spin=spin_grading(x, diagram),
        maslov=maslov_grading(x, diagram) - 2 * shift,
        alexander=alexander_grading(x, diagram) - shift)


def element_grading(diagram, terms):
    """Gradings of a formal sum of monomial terms ``(exponents, generator)``.

    Refuses non-homogeneous sums: every term must carry the same triple.
    """
    terms = list(terms)
    if not terms:
        raise ValidationError("cannot grade the zero element")
    triples = [monomial_grading(diagram, x, e) for (e, x) in terms]
    if any(t != triples[0] for t in triples[1:]):
        raise ValidationError("element is not homogeneous: gradings %s"
                              % sorted(set((t.spin, str(t.maslov), str(t.alexander))
                                           for t in triples)))
    return triples[0]
