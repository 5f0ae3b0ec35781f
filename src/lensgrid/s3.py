"""Square-torus grid invariants, used as an independent cross-check.

The Maslov grading here is the classical integer-valued dominance-count
formula on an N x N grid; the Alexander multi-grading comes from the
symmetrised dominance pairing against the per-component marker
differences.  Gradings of a lens-space diagram are validated against
these by lifting to the universal cover: relative Maslov and Alexander
gradings scale by 1/p under the covering, and the absolute Maslov
gradings differ by d(p, q, q-1) + (p-1)/p.

The rectangle engine is shared with the lens-space complex (the square
torus is the untwisted case), so the geometric layer is common code; the
grading formulas on the two sides are independent of one another, which
is where the cross-validation has its teeth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .complexes import (DEFAULT_GENERATOR_CAP, collect_terms,
                        enumerate_generators, generator_codes)
from .cover import (lift_diagram, lift_generator, require_valid_s3,
                    s3_link_components)
from .errors import SizeCapError
from .gradings import (d_invariant, dominance_count, gradings_table,
                       weighted_dominance)
from .grid import canonical_generator, require_knot, require_valid
from .homology import HomologyTable, homology_ranks


def _scaled(points):
    return tuple((2 * a, 2 * b) for (a, b) in points)


def doubled_centres(cells):
    """Marker centres in doubled coordinates: cell (s, t) -> (2s+1, 2t+1)."""
    return tuple((2 * s + 1, 2 * t + 1) for (s, t) in cells)


def s3_maslov(points, marker_cells, marker_self=None):
    """Integer Maslov grading of a grid generator on the square torus.

    ``points`` are the generator's (col, row) components, ``marker_cells``
    the cells of the marker family playing the anchoring role.  A caller
    grading many generators passes ``marker_self``, the family's
    ``marker_self_count(marker_cells)``, computed once.
    """
    if marker_self is None:
        marker_self = marker_self_count(marker_cells)
    gen = _scaled(points)
    base = doubled_centres(marker_cells)
    return (dominance_count(gen, gen) - dominance_count(gen, base)
            - dominance_count(base, gen) + marker_self + 1)


def marker_self_count(marker_cells):
    """The generator-independent term of ``s3_maslov``."""
    base = doubled_centres(marker_cells)
    return dominance_count(base, base)


def basepoint_partition(diagram):
    """Markers grouped by link component, as (o_cells, x_cells) pairs."""
    comps = s3_link_components(diagram)
    return [(tuple(diagram.O[r] for r in rows), tuple(diagram.X[r] for r in rows))
            for rows in comps]


def s3_alexander_multi(points, diagram):
    """Alexander multi-grading of a generator, one rational per component."""
    require_valid_s3(diagram)
    gen = _scaled(points)
    all_o = doubled_centres(diagram.O)
    all_x = doubled_centres(diagram.X)
    # weights doubled so the 1/2 coefficients stay integral
    left = [(pt, 2) for pt in gen] + [(pt, -1) for pt in all_x] \
        + [(pt, -1) for pt in all_o]
    out = []
    for (o_cells, x_cells) in basepoint_partition(diagram):
        right = [(pt, 1) for pt in doubled_centres(x_cells)] \
            + [(pt, -1) for pt in doubled_centres(o_cells)]
        j = Fraction(weighted_dominance(left, right)
                     + weighted_dominance(right, left), 4)
        out.append(j - Fraction(len(o_cells) - 1, 2))
    return tuple(out)


def _alexander_right(diagram):
    # s3_alexander_total pairs 2*gen - X - O against this side, X - O
    return ([(pt, 1) for pt in doubled_centres(diagram.X)]
            + [(pt, -1) for pt in doubled_centres(diagram.O)])


def alexander_marker_term(diagram):
    """The generator-independent part of the pairing in
    ``s3_alexander_total``: 8N^2 of its 12N^2 dominance pairs."""
    right = _alexander_right(diagram)
    markers = [(pt, -1) for (pt, _) in right]
    return weighted_dominance(markers, right) + weighted_dominance(right, markers)


def s3_alexander_total(points, diagram, components=None, marker_term=None):
    """Total Alexander grading; equals the sum of the multi-grading.

    A caller grading many generators passes ``components`` and
    ``marker_term`` (``alexander_marker_term(diagram)``), computed once.
    """
    require_valid_s3(diagram)
    ell = components if components is not None else len(s3_link_components(diagram))
    if marker_term is None:
        marker_term = alexander_marker_term(diagram)
    right = _alexander_right(diagram)
    gen = [(pt, 2) for pt in _scaled(points)]
    j = Fraction(weighted_dominance(gen, right) + weighted_dominance(right, gen)
                 + marker_term, 4)
    return j - Fraction(diagram.N - ell, 2)


def s3_tilde_homology(diagram, cap=DEFAULT_GENERATOR_CAP, pivot="low"):
    """Bigraded homology of the fully blocked square-grid complex.

    Works for links; the extracted groups divide out one tensor factor
    per marker pair beyond the component count.
    """
    require_valid_s3(diagram)
    N = diagram.N
    total = math.factorial(N)
    if cap is not None and total > cap:
        raise SizeCapError("refusing to enumerate %d! = %d generators (cap %d)"
                           % (N, total, cap))
    ell = len(s3_link_components(diagram))
    o_self = marker_self_count(diagram.O)
    a_markers = alexander_marker_term(diagram)

    # the square torus is the engine's p = 1, q = 0 case, and a generator's
    # code is its column tuple read in base N
    pieces = {}
    for code, cols in zip(generator_codes(N, 1), permutations(range(N))):
        pts = tuple(zip(cols, range(N)))
        m = s3_maslov(pts, diagram.O, marker_self=o_self)
        a = s3_alexander_total(pts, diagram, components=ell,
                               marker_term=a_markers)
        pieces.setdefault(a, {}).setdefault(m, []).append(code)
    terms = collect_terms((N, 1, 0, diagram.O, diagram.X), "tilde")

    def targets(code):
        return (y for (y, _) in terms[code])

    ranks = {}
    for a, levels in sorted(pieces.items()):
        for m, h in homology_ranks(levels, targets, pivot).items():
            ranks[(m, a)] = h

    return HomologyTable(spin_count=1, tensor_exponent=N - ell,
                         classes={0: ranks})


@dataclass
class CoverReport:
    """Outcome of cross-checking lens gradings through the universal cover."""

    rows: list
    violations: list

    @property
    def ok(self):
        return not self.violations


def verify_cover_relations(diagram, cap=DEFAULT_GENERATOR_CAP):
    """Check every covering-space grading relation on a lens knot diagram.

    For each generator x with lift x~: the absolute relation
    M(x) = M~(x~)/p + d(p, q, q-1) + (p-1)/p must hold, and relative to a
    fixed base generator both p*(M(x) - M(base)) = M~(x~) - M~(base~) and
    p*(A(x) - A(base)) = A~(x~) - A~(base~).  The canonical generator's
    lift must have square-grid Maslov grading -(p*n - 1), and the lifted
    link must have p / order(class) components.  Violations are report
    content, not exceptions.
    """
    require_valid(diagram)
    link = require_knot(diagram)
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    lifted = lift_diagram(diagram)
    ell = len(s3_link_components(lifted))
    violations = []
    if ell * link.order != p:
        violations.append("lifted diagram has %d components, expected p/order "
                          "= %d/%d" % (ell, p, link.order))

    qn = q % p
    shift = d_invariant(p, qn, qn - 1) + Fraction(p - 1, p)
    gens = list(enumerate_generators(diagram, cap))
    table = gradings_table(diagram, gens)
    o_self = marker_self_count(lifted.O)
    a_markers = alexander_marker_term(lifted)

    rows = []
    base = None
    for x in gens:
        t = table[x]
        pts = lift_generator(x, diagram)
        m_cover = s3_maslov(pts, lifted.O, marker_self=o_self)
        a_cover = s3_alexander_total(pts, lifted, components=ell,
                                     marker_term=a_markers)
        row = {"generator": x, "spin": t.spin, "maslov": t.maslov,
               "alexander": t.alexander, "cover_maslov": m_cover,
               "cover_alexander": a_cover}
        rows.append(row)
        if t.maslov != Fraction(m_cover, p) + shift:
            violations.append("absolute Maslov shift fails for %r" % (x,))
        if base is None:
            base = row
        else:
            if p * (t.maslov - base["maslov"]) != m_cover - base["cover_maslov"]:
                violations.append("relative Maslov relation fails for %r" % (x,))
            if p * (t.alexander - base["alexander"]) != a_cover - base["cover_alexander"]:
                violations.append("relative Alexander relation fails for %r" % (x,))

    canon = canonical_generator(diagram)
    canon_maslov = s3_maslov(lift_generator(canon, diagram), lifted.O,
                             marker_self=o_self)
    if canon_maslov != -(p * n - 1):
        violations.append("canonical generator's lift has square-grid Maslov "
                          "%d, expected %d" % (canon_maslov, -(p * n - 1)))
    if table[canon].maslov != d_invariant(p, qn, qn - 1) - (n - 1):
        violations.append("canonical generator Maslov %s != d(p,q,q-1) - (n-1)"
                          % (table[canon].maslov,))
    return CoverReport(rows=rows, violations=violations)
