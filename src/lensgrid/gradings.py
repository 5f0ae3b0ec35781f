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
from itertools import accumulate, starmap
from operator import add, getitem
from typing import NamedTuple

from .cover import lift_points
from .errors import ValidationError
# require_valid is unused here: perfbench/tracing.py wraps the
# gradings.require_valid binding
from .grid import (canonical_generator, code_blocks,  # noqa: F401
                   require_knot, require_valid)


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
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
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


def _dedekind_sum_6k(h, k):
    """``6k * s(h, k)``, an integer, for coprime h and k >= 1, s being the
    Dedekind sum.  The reciprocity s(h, k) + s(k, h) = (h*h + k*k + 1) /
    (12*h*k) - 1/4 down the Euclid remainders r_0 = k, r_1 = h mod k, ...
    makes s an alternating sum of ``(a*a + b*b + 1 - 3*a*b) / (12*a*b)``
    over adjacent remainders a, b: an integer N over 12 times their
    product P, and ``6k*s = k*N / (2P)`` exactly."""
    rems = [k, h % k]
    while rems[-1]:
        rems.append(rems[-2] % rems[-1])
    rems.pop()
    product = math.prod(rems)
    numerator = 0
    for i, (a, b) in enumerate(zip(rems, rems[1:])):
        term = (a * a + b * b + 1 - 3 * a * b) * (product // (a * b))
        numerator += -term if i % 2 else term
    return k * numerator // (2 * product)


def _lift_non_inversions(p, q):
    """``NI[a]``: non-inversions of ``k -> (a + q*k) mod p``, for every a.

    This is the self-dominance count of the lift of one generator
    component whose column is ``sigma + n*a``.  ``k -> q*k mod p`` has
    ``(p-1)(p-2)/4 - 3p*s(q, p)`` inversions (Meyer), s being the Dedekind
    sum, which gives NI[0].  Moving a to a + 1 turns the value p - 1,
    taken at the k* with ``a + q*k* = p - 1 (mod p)``, into 0 and leaves
    the order of every other pair alone, so ``NI[a+1] = NI[a] + (p - 1) -
    2*k*``.
    """
    inversions = ((p - 1) * (p - 2) - 2 * _dedekind_sum_6k(q, p)) // 4
    q_inv = pow(q, -1, p)
    return list(accumulate((p - 1 - 2 * ((p - 1 - a) * q_inv % p)
                            for a in range(p - 1)),
                           initial=p * (p - 1) // 2 - inversions))


def _shifted_counts(p, q_inv, ni, b):
    """``[T_b(delta; 0, 0) for delta in range(p)]``, where

        T_b(delta; e, f) = #{(j, k) : j < k + e,
                             (b + q*j) mod p < (b + delta + q*k) mod p + f}

    counts the pairs of lifts of the points in row t, column ``s_t +
    n*b``, and in row r, column ``s + n*(b + delta)``, with the first
    strictly below-left of the second; e is ``[t < r]``, f is ``[s_t <
    s]``.  T_b(0; 0, 0) is ``NI[b]``.  Moving delta to delta + 1 raises
    every value of the second sequence by one but the one at k* (``b +
    delta + q*k* = p - 1``), which wraps to 0 and loses its count; the k
    that gain are those whose old value sits at a position ``k +
    q^-1*delta (mod p)`` below k, so the step is ``(q^-1*delta mod p) -
    k*``.  f adds the pairs j < k of equal values, ``q^-1*delta mod p``
    of them; e adds the pairs j = k with the first value smaller, ``-delta
    mod p``; e and f together add the p pairs j = k when delta = 0.
    """
    return list(accumulate((q_inv * d % p - q_inv * (p - 1 - b - d) % p
                            for d in range(p - 1)), initial=ni[b]))


def _marker_cross_table(cells, p, q, n, ni):
    """Cross terms and the self term of one marker family.

    Returns ``(cross, self_count)``.  ``cross[r][s][a]`` is, summed over
    the p lifts of the generator point (s + n*a, r), the number of lifted
    markers weakly above-right of the lift plus the number strictly
    below-left of it: the lift's share of ``I(g, B) + I(B, g)``.
    ``self_count`` is ``I(B, B)``.

    The lifted markers meet every row and column of the cover once, so
    the markers weakly above-right of a lift (C, R) number ``n*p - R - C``
    plus those strictly below-left of it.  Over the p lifts of ``s + n*a``
    the first part sums to ``p*n*p - p*(r + s) - n*p*(p-1)``, and marker
    ``(s_t + n*b, t)`` adds ``T_b(a - b; [t < r], [s_t < s])``
    (``_shifted_counts``): a vector over a, plus the f parts of the
    markers in residues below s, the e parts of those in rows below r,
    and p at ``a = b`` when both hold.  A generator's lift also meets
    every row and column once, so ``I(g, B) = I(B, g) + n*p``, and
    ``I(B, B)`` is half the markers' own cross terms less ``n*p``.
    O(n*n*p) steps.
    """
    width = n * p
    q_inv = pow(q, -1, p)
    by_row = sorted((t, s % n, s // n) for (s, t) in cells)
    counts = [0] * p     # sum of T_b(a - b; 0, 0) over the markers
    lower = [[0] * p]    # lower[r]: the e parts of the markers in rows < r
    for t, _, b in by_row:
        row = _shifted_counts(p, q_inv, ni, b)
        counts = list(map(add, counts, row[p - b:] + row[:p - b]))
        if t < n - 1:
            lower.append([v + (b - a) % p for a, v in enumerate(lower[-1])])
    left = [[0] * p]     # left[s]: the f parts of the markers in residues < s
    for _, b in sorted((s % n, s // n) for (s, _) in cells)[:-1]:
        left.append([v + q_inv * (a - b) % p for a, v in enumerate(left[-1])])
    base = p * width - n * p * (p - 1)
    cross = [[[k + 2 * (u + v + w)
               for u, v, w in zip(counts, left[s], lower[r])]
              for s in range(n) for k in [base - p * (r + s)]]
             for r in range(n)]
    for t, s_t, b in by_row:
        for r in range(t + 1, n):
            for s in range(s_t + 1, n):
                cross[r][s][b] += 2 * p
    return cross, (sum(cross[t][s][b] for t, s, b in by_row) - width) // 2


def _pair_table(p, q, n, ni):
    """``{(s1, s2): terms}`` for every pair of distinct residues mod n
    (empty when n = 1): ``terms[a1][a2]`` is the pair term of components
    in columns ``s1 + n*a1`` and ``s2 + n*a2`` of rows t1 < t2.

    The pair term counts the dominance pairs between the two components'
    lifts: ``T_a1(d; 1, [s1 < s2]) + T_a2(-d; 0, [s2 < s1])`` with ``d =
    a2 - a1 mod p`` (``_shifted_counts``).  It depends on s1 and s2 only
    through ``[s1 < s2]``, so the keys share two matrices.  O(p*p) steps.
    """
    if n == 1:
        return {}
    q_inv = pow(q, -1, p)
    rows = [_shifted_counts(p, q_inv, ni, a) for a in range(p)]
    by_order = [[[rows[a1][(a2 - a1) % p] + rows[a2][(a1 - a2) % p]
                  + q_inv * (a2 - a1 if f else a1 - a2) % p
                  + ((a1 - a2) % p if a1 != a2 else f * p)
                  for a2 in range(p)]
                 for a1 in range(p)]
                for f in (False, True)]
    return {(s1, s2): by_order[s1 < s2]
            for s1 in range(n) for s2 in range(n) if s1 != s2}


def grading_denominators(diagram):
    """``(p * den(d), 2p)`` for a lens diagram, d being d(p, q, q-1):
    every generator's Maslov grading is an integer over the first and its
    Alexander grading an integer over the second."""
    p, q = diagram.lens.p, diagram.lens.q
    qn = q % p
    return p * d_invariant(p, qn, qn - 1).denominator, 2 * p


def rational_text(num, den):
    """``str(Fraction(num, den))`` for a positive ``den``, from integers:
    the text of a grading numerator over its denominator."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return "%d/%d" % (num // g, den // g)


def _grading_tables(diagram):
    """The per-diagram integer tables of ``permutation_gradings``: ``(p, n,
    spin_base, maslov_base, alexander_base, maslov_rows, alexander_rows,
    pair)``.

    The dominance counts of ``maslov_grading`` are bilinear in the lifted
    points, and the count between the p lifts of two points is one
    shifted-lift count ``T_b(delta; e, f)`` (``_shifted_counts``).  So the
    generator-against-marker terms are sums of per-cell table entries
    (``_marker_cross_table``), and the generator-against-itself term is a
    sum over pairs of components: ``NI[a]`` for a component with itself,
    a per-residue-pair entry (``_pair_table``) for two components in
    different rows.  ``NI`` is built once and serves all three.  No table
    walks the cover: they take O(n*n*p) steps, O(n*n*p*p) when n > 1 for
    the pair table.

    A generator (sigma, a) has Spin^c class ``(spin_base + sum(a)) mod
    p``, Maslov numerator ``maslov_base`` plus
    ``maslov_rows[t][sigma_t][a_t]`` over t and
    ``pair[sigma_t, sigma_u][a_t][a_u]`` over t < u, and Alexander
    numerator ``alexander_base`` plus ``alexander_rows[t][sigma_t][a_t]``
    over t.
    """
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    qn = q % p
    d = d_invariant(p, qn, qn - 1)
    ni = _lift_non_inversions(p, qn)
    cross_o, self_o = _marker_cross_table(diagram.O, p, qn, n, ni)
    cross_x, self_x = _marker_cross_table(diagram.X, p, qn, n, ni)
    # per row, a component's share of raw_o (NI[a] minus its O cross term)
    # and of raw_o - raw_x; the Maslov terms scaled by M's denominator
    dm = d.denominator
    maslov_rows = [[[dm * (v - o) for v, o in zip(ni, terms)]
                    for terms in row]
                   for row in cross_o]
    alexander_rows = [[[x - o for o, x in zip(terms_o, terms_x)]
                       for terms_o, terms_x in zip(row_o, row_x)]
                      for row_o, row_x in zip(cross_o, cross_x)]
    # sum(canonical_generator(diagram).a), without building the generator
    spin_base = (q - 1) - sum(s // n for (s, _) in diagram.O)
    # M = (raw_o + p - 1)/p + d and A = (raw_o - raw_x)/(2p) - (n-1)/2, with
    # raw_o = gg - (O cross terms) + self_o + 1, where gg is the
    # generator's self count
    return (p, n, spin_base, dm * (self_o + p) + p * d.numerator,
            self_o - self_x - (n - 1) * p, maslov_rows, alexander_rows,
            {k: [[dm * v for v in line] for line in terms]
             for k, terms in _pair_table(p, qn, n, ni).items()})


def gradings_table(diagram, generators):
    """``{code: GradingTriple}`` for the ``(code, columns)`` pairs of
    ``generators`` (see ``complexes.generator_columns``): a view over
    ``permutation_gradings``, so it grades every generator of the diagram
    whatever subset is asked for.  Each triple holds the Spin^c class and
    the integer numerators of M and A over
    ``grading_denominators(diagram)``.

    Requires a knot diagram (the Alexander grading is only defined then).
    """
    require_knot(diagram)   # validates the diagram first
    graded = {}
    for codes, *grades in permutation_gradings(diagram):
        graded.update(zip(codes, map(GradingTriple, *grades)))
    return {code: graded[code] for code, _ in generators}


def permutation_gradings(diagram):
    """``(codes, spins, maslovs, alexanders)`` per permutation sigma, in
    code order: ``codes`` is the range of the codes of sigma's p^n
    generators, and the three lists hold, in the same order, their Spin^c
    classes and their Maslov and Alexander numerators.  ``spins`` depends
    on sum(a) alone and is one list for every sigma.  It is the only
    reader of ``_grading_tables``; its callers check the knot.

    The Spin^c and Alexander lists are outer sums of per-row values.  The
    Maslov pair sums are carried down the rows: each choice of the rows
    above row u gets one pending length-p vector, row u's values plus
    their pair terms with that choice, so row u adds whole vectors.
    """
    (p, n, spin_base, maslov_base, alexander_base, maslov_rows,
     alexander_rows, pair) = _grading_tables(diagram)
    spins = [spin_base % p]
    for _ in range(n):
        spins = [(s + a) % p for s in spins for a in range(p)]

    def graded(codes, sigma):
        alexanders = [alexander_base]
        for values in map(getitem, alexander_rows, sigma):
            alexanders = [v + w for v in alexanders for w in values]
        maslovs = [maslov_base]
        for u, r in enumerate(sigma):
            pending = [maslov_rows[u][r]]
            for s in sigma[:u]:
                pending = [list(map(add, vec, terms)) for vec in pending
                           for terms in pair[s, r]]
            maslovs = [m + v for m, vec in zip(maslovs, pending) for v in vec]
        return codes, spins, maslovs, alexanders
    return starmap(graded, code_blocks(n, p))
