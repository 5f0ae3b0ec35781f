"""Square-torus grid invariants, used as an independent cross-check.

The Maslov grading here is the classical integer-valued dominance-count
formula on an N x N grid.  The total Alexander grading is the symmetrised
dominance pairing J of Manolescu-Ozsvath-Szabo-Thurston between the
generator and the marker difference X - O, expanded into plain dominance
counts.  Gradings of a lens-space diagram are validated against
these by lifting to the universal cover: relative Maslov and Alexander
gradings scale by 1/p under the covering, and the absolute Maslov
gradings differ by d(p, q, q-1) + (p-1)/p.

The rectangle engine is shared with the lens-space complex (the square
torus is the untwisted case), so the geometric layer is common code; the
grading formulas on the two sides are independent of one another, which
is where the cross-validation has its teeth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .complexes import (DEFAULT_GENERATOR_CAP, generator_code,
                        generator_columns, generator_from_code,
                        require_generator_cap)
# lift_generator is unused here: perfbench/tracing.py wraps the
# s3.lift_generator binding
from .cover import (lift_diagram, lift_generator,  # noqa: F401
                    require_valid_s3, s3_link_components)
from .errors import InternalInvariantError
from .gradings import (d_invariant, dominance_count, doubled_centres,
                       doubled_points, grading_denominators, gradings_table)
from .grid import canonical_generator, require_knot, require_valid
from .homology import HomologyTable, graded_homology


def s3_maslov(points, marker_cells):
    """Integer Maslov grading of a grid generator on the square torus.

    ``points`` are the generator's (col, row) components, ``marker_cells``
    the cells of the marker family playing the anchoring role.
    """
    gen = doubled_points(points)
    base = doubled_centres(marker_cells)
    return (dominance_count(gen, gen) - dominance_count(gen, base)
            - dominance_count(base, gen) + dominance_count(base, base) + 1)


def _square_gradings(diagram, components):
    """``points -> (M, 4A)`` on a validated square-grid diagram with
    ``components`` link components: M is ``s3_maslov(points, diagram.O)``
    and A is ``s3_alexander_total(points, diagram)``, both integers once
    A is scaled by 4.

    The marker families are doubled and their self terms counted once per
    call, and the generator's two counts against O serve both gradings.
    """
    o_base = doubled_centres(diagram.O)
    x_base = doubled_centres(diagram.X)
    o_self = dominance_count(o_base, o_base)
    # 4A = 2*(I(g, X) + I(X, g) - I(g, O) - I(O, g)) + constant
    constant = (2 * (o_self - dominance_count(x_base, x_base))
                - 2 * (diagram.N - components))

    def grade(points):
        gen = doubled_points(points)
        against_o = dominance_count(gen, o_base) + dominance_count(o_base, gen)
        against_x = dominance_count(gen, x_base) + dominance_count(x_base, gen)
        maslov = dominance_count(gen, gen) - against_o + o_self + 1
        return maslov, 2 * (against_x - against_o) + constant
    return grade


def _cover_gradings(diagram, lifted, components, columns):
    """``[(M, 4A), ...]`` of the lifts of the lens generators with column
    tuples ``columns``, in order: the integers ``s3_maslov(lift,
    lifted.O)`` and ``4 * s3_alexander_total(lift, lifted)``, with
    ``lifted = lift_diagram(diagram)`` and ``components`` its link
    components.

    One sweep over the N = n*p rows of the cover serves every generator.
    ``below_o[c]`` and ``below_x[c]`` count the markers in lower rows with
    column < c, so each lifted point adds its I(O, g) and I(X, g) share by
    lookup, and a bitmask of the columns its lift has met gives its
    I(g, g) share.  Raises InternalInvariantError unless every lift meets
    every column once.
    """
    n, q, N = diagram.n, diagram.lens.q, lifted.N
    by_row = list(zip(*columns))   # by_row[t]: every generator's column t
    o_g, x_g, higher, masks = ([0] * len(columns) for _ in range(4))
    below_o, below_x = [0] * N, [0] * N
    self_o = self_x = 0
    for row, ((oc, _), (xc, _)) in enumerate(zip(lifted.O, lifted.X)):
        k, t = divmod(row, n)
        # cover.lift_points: (c, t) lifts to column (c + n*q*k) mod N of
        # row t + n*k
        shift = n * q * k
        cols = [(c + shift) % N for c in by_row[t]]
        o_g = list(map(add, o_g, map(below_o.__getitem__, cols)))
        x_g = list(map(add, x_g, map(below_x.__getitem__, cols)))
        # points in lower rows and higher columns; the other points in
        # lower rows are the point's I(g, g) share
        higher = [h + (m >> c).bit_count()
                  for h, m, c in zip(higher, masks, cols)]
        for i, c in enumerate(cols):   # in place: one mask per generator
            masks[i] |= 1 << c
        self_o += below_o[oc]
        self_x += below_x[xc]
        below_o[oc + 1:] = [v + 1 for v in below_o[oc + 1:]]
        below_x[xc + 1:] = [v + 1 for v in below_x[xc + 1:]]
    full = (1 << N) - 1
    for cols, mask in zip(columns, masks):
        if mask != full:
            raise InternalInvariantError(
                "lifted generator is not a bijection: columns %r" % (cols,))
    # a bijection has N*(N-1)/2 pairs of points, so I(g, g) = N*(N-1)/2 -
    # higher.  g and both marker families meet every row and column once,
    # so I(g, B) = I(B, g) + N (see gradings._marker_cross_table); then
    # M = I(g, g) - 2*I(O, g) - N + I(O, O) + 1 and
    # 4A = 4*(I(X, g) - I(O, g)) + 2*(I(O, O) - I(X, X)) - 2*(N - components)
    maslov_base = N * (N - 1) // 2 - N + self_o + 1
    alexander_base = 2 * (self_o - self_x) - 2 * (N - components)
    return [(maslov_base - h - 2 * o, 4 * (x - o) + alexander_base)
            for h, o, x in zip(higher, o_g, x_g)]


def s3_alexander_total(points, diagram):
    """Total Alexander grading J(g - (X + O)/2, X - O) - (N - components)/2.

    J(a, b) = (I(a, b) + I(b, a))/2 is the symmetrised dominance count.
    Expanded, 4*J is 2*[I(g, X) + I(X, g) - I(g, O) - I(O, g)] plus the
    generator-independent 2*(I(O, O) - I(X, X)).
    """
    require_valid_s3(diagram)
    ell = len(s3_link_components(diagram))
    return Fraction(_square_gradings(diagram, ell)(points)[1], 4)


def s3_tilde_homology(diagram, cap=DEFAULT_GENERATOR_CAP):
    """Bigraded homology of the fully blocked square-grid complex.

    Works for links; the extracted groups divide out one tensor factor
    per marker pair beyond the component count.
    """
    require_valid_s3(diagram)
    N = diagram.N
    require_generator_cap(N, 1, cap)
    ell = len(s3_link_components(diagram))
    grade = _square_gradings(diagram, ell)

    # the square torus is the engine's p = 1, q = 0 case, with one Spin^c
    # class; M is an integer and A a numerator over 4
    def graded():
        for code, cols in generator_columns(N, 1):
            m, a = grade(tuple(zip(cols, range(N))))
            yield code, (0, a, m)

    classes = graded_homology(graded(), (N, 1, 0, diagram.O, diagram.X),
                              (1, 4))
    return HomologyTable(spin_count=1, tensor_exponent=N - ell,
                         classes=classes)


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
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    require_generator_cap(n, p, cap)
    link = require_knot(diagram)
    lifted = lift_diagram(diagram)
    ell = len(s3_link_components(lifted))
    violations = []
    if ell * link.order != p:
        violations.append("lifted diagram has %d components, expected p/order "
                          "= %d/%d" % (ell, p, link.order))

    qn = q % p
    d = d_invariant(p, qn, qn - 1)
    dm, da = grading_denominators(diagram)
    # M = M~/p + d + (p-1)/p, times dm = p*den(d)
    shift = p * d.numerator + (p - 1) * d.denominator
    table = gradings_table(diagram, generator_columns(n, p))
    # in the table's order, code order
    cover = _cover_gradings(diagram, lifted, ell,
                            [cols for _, cols in generator_columns(n, p)])
    canon_code = generator_code(canonical_generator(diagram), p)

    rows = []
    base = None
    for (code, t), (m_cover, a_cover) in zip(table.items(), cover):
        x = generator_from_code(code, n, p)
        rows.append({"generator": x, "spin": t.spin,
                     "maslov": Fraction(t.maslov, dm),
                     "alexander": Fraction(t.alexander, da),
                     "cover_maslov": m_cover,
                     "cover_alexander": Fraction(a_cover, 4)})
        if code == canon_code:
            canon_maslov = m_cover
        if t.maslov != m_cover * d.denominator + shift:
            violations.append("absolute Maslov shift fails for %r" % (x,))
        if base is None:   # against itself the relations hold trivially
            base = (t.maslov, t.alexander, m_cover, a_cover)
        # p*dM = dM~ and p*dA = dA~, with M over p*den(d), A over 2p and A~
        # over 4
        if t.maslov - base[0] != (m_cover - base[2]) * d.denominator:
            violations.append("relative Maslov relation fails for %r" % (x,))
        if 2 * (t.alexander - base[1]) != a_cover - base[3]:
            violations.append("relative Alexander relation fails for %r" % (x,))

    if canon_maslov != -(p * n - 1):
        violations.append("canonical generator's lift has square-grid Maslov "
                          "%d, expected %d" % (canon_maslov, -(p * n - 1)))
    canon_grading = Fraction(table[canon_code].maslov, dm)
    if canon_grading != d - (n - 1):
        violations.append("canonical generator Maslov %s != d(p,q,q-1) - (n-1)"
                          % (canon_grading,))
    return CoverReport(rows=rows, violations=violations)
