"""Generators, admissible parallelograms, and the four boundary maps.

The rectangle engine works on the sheared torus ``R^2 / <(width, 0),
(shear, rows)>``: a lens diagram has ``rows = n``, ``width = n*p`` and
``shear = n*q``, and the lifted square grids reuse the same engine with
``shear = 0`` and ``width = rows = N``.

A parallelogram connecting x to y is a properly embedded quadrilateral
whose lower-left (SW) and upper-right (NE) corners are components of x
and whose other two corners are the replaced components of y.  For each
ordered pair of rows (i, j) the NE corner is a lift of the row-j
component, and there is one candidate for every height band: heights run
from just above zero to just below the full vertical extent of a beta
curve, which winds ``width / gcd(shear, width)`` row periods before
closing up.  On a twisted torus this winding number exceeds one, so
parallelograms taller than a single row period are genuine connecting
domains whenever they are embedded; embeddedness bounds the width
against the horizontal offsets accumulated by the shear.  (On the square
torus the winding number is 1 and the engine reduces to the classical
two rectangles per unordered row pair.)

Interiors are tested with strict inequalities in the cover; components
are corner points and markers are cell centres, so no boundary ties can
occur.  Each marker meets an embedded parallelogram's interior at most
once, hence every interior count is 0 or 1.

All arithmetic is on integers.  Component and corner tests use the
sheared coordinates as they are.  Marker tests double every coordinate
once per diagram, as the grading code does: the centre of cell (s, t)
becomes the odd point (2s+1, 2t+1), and a box's corner, width and height
are doubled together with the row period, the width period and the
shear, which leaves every strict inequality unchanged.

The tilde boundary needs only the parallelograms that contain no marker
at all, so ``empty_targets`` stops testing a parallelogram at its first
marker; ``parallelograms_from`` counts every marker and serves the other
three variants.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

from .errors import SizeCapError, ValidationError
from .grid import Generator, require_valid
from .gradings import gradings_table

DEFAULT_GENERATOR_CAP = 10 ** 7

VARIANTS = ("tilde", "assoc-graded", "hat", "minus")


@dataclass(frozen=True)
class Parallelogram:
    source: Generator
    target: Generator
    moved_rows: tuple
    sw: tuple
    width: int
    height: int
    o_counts: tuple
    x_counts: tuple


@dataclass
class SparseBoundary:
    """Mod-2 collected boundary terms.

    ``terms[x]`` is a tuple of ``(target, exponents)`` pairs, exponents
    being the U-monomial of the term; pairs appearing an even number of
    times have already been cancelled.  Treat instances as immutable.
    """

    n: int
    variant: str
    terms: dict


def generator_count(diagram):
    n, p = diagram.n, diagram.lens.p
    return math.factorial(n) * p ** n


def enumerate_generators(diagram, cap=DEFAULT_GENERATOR_CAP):
    """All n! * p^n generators in lexicographic (sigma, a) order."""
    require_valid(diagram)
    n, p = diagram.n, diagram.lens.p
    total = generator_count(diagram)
    if cap is not None and total > cap:
        raise SizeCapError("refusing to enumerate %d! * %d^%d = %d generators "
                           "(cap %d)" % (n, p, n, total, cap))
    for sigma in permutations(range(n)):
        for a in product(range(p), repeat=n):
            yield Generator(sigma, a)


def torus_winding(width, shear):
    """Row periods a vertical line climbs before closing up on the torus."""
    return width // math.gcd(shear, width)


def raw_pair_candidates(cols, n_rows, width, shear):
    """One record (i, j, m, w, h) per ordered row pair and height band.

    ``cols[t]`` is the horizontal position of the component in row t.
    The records enumerate every corner-compatible quadrilateral before
    embeddedness is taken into account; there are exactly
    ``winding * n * (n-1)`` of them.
    """
    winding = torus_winding(width, shear)
    out = []
    for i in range(n_rows):
        for j in range(n_rows):
            if i == j:
                continue
            m0 = 0 if j > i else 1
            for m in range(m0, m0 + winding):
                h = j + m * n_rows - i
                w = (cols[j] + m * shear - cols[i]) % width
                out.append((i, j, m, w, h))
    return out


def is_embedded(w, h, n_rows, width, shear):
    """Whether a w-by-h box projects to an embedded quadrilateral.

    The box self-overlaps exactly when some multiple of the shear offset,
    taken mod width, comes within w of zero on either side; only offsets
    for levels strictly below the top of the box matter.
    """
    for b in range(1, h // n_rows + 1):
        off = (b * shear) % width
        if not (w < off and w < width - off):
            return False
    return True


def interior_count(s_z, t_z, sw_col, sw_row, w, h, n_rows, width, shear):
    """Number of lattice translates of (s_z, t_z) strictly inside the w-by-h
    box with lower-left corner (sw_col, sw_row).

    Every argument is an integer.  A marker centre is a half-integer point,
    so marker tests pass doubled coordinates throughout (see
    ``doubled_centres``): the odd centre, and twice the corner, the box
    size, the row period, the width period and the shear.
    """
    hits = 0
    b = (sw_row - t_z) // n_rows + 1   # lowest level strictly above sw_row
    t = t_z + b * n_rows
    s = s_z + b * shear - sw_col
    top = sw_row + h
    while t < top:
        if 0 < s % width < w:
            hits += 1
        t += n_rows
        s += shear
    return hits


def doubled_centres(cells):
    """Marker centres in doubled coordinates: cell (s, t) -> (2s+1, 2t+1)."""
    return tuple((2 * s + 1, 2 * t + 1) for (s, t) in cells)


def torus_parallelograms(cols, n_rows, width, shear):
    """Embedded parallelograms from a component placement, admissible with
    respect to the shared components.  Yields ``(i, j, m, w, h,
    target_cols)``; marker counts are the caller's business.
    """
    for (i, j, m, w, h) in raw_pair_candidates(cols, n_rows, width, shear):
        if not is_embedded(w, h, n_rows, width, shear):
            continue
        blocked = False
        for r in range(n_rows):
            if r in (i, j):
                continue
            if interior_count(cols[r], r, cols[i], i, w, h, n_rows, width, shear):
                blocked = True
                break
        if blocked:
            continue
        target = list(cols)
        target[i] = (cols[i] + w) % width
        target[j] = (cols[i] - m * shear) % width
        yield (i, j, m, w, h, tuple(target))


def embedded_candidates(x, diagram):
    """Embedded pre-admissibility candidates (i, j, m, w, h) for a generator."""
    n, width, shear = diagram.n, diagram.width, diagram.n * diagram.lens.q
    return [rec for rec in raw_pair_candidates(x.columns, n, width, shear)
            if is_embedded(rec[3], rec[4], n, width, shear)]


def empty_targets(cols, n_rows, width, shear, centres):
    """Targets of the admissible parallelograms from ``cols`` that contain
    none of the doubled marker ``centres``.

    Yields each target's column placement; a parallelogram is dropped at
    the first marker found inside it.
    """
    rows2, width2, shear2 = 2 * n_rows, 2 * width, 2 * shear
    for (i, j, m, w, h, target) in torus_parallelograms(cols, n_rows, width, shear):
        sw_col, sw_row, w2, h2 = 2 * cols[i], 2 * i, 2 * w, 2 * h
        for (sc, tc) in centres:
            if interior_count(sc, tc, sw_col, sw_row, w2, h2,
                              rows2, width2, shear2):
                break
        else:
            yield target


def parallelograms_from(x, diagram):
    """All admissible parallelograms leaving x, with marker counts."""
    n, width, shear = diagram.n, diagram.width, diagram.n * diagram.lens.q
    rows2, width2, shear2 = 2 * n, 2 * width, 2 * shear
    o_centres = doubled_centres(diagram.O)
    x_centres = doubled_centres(diagram.X)
    cols = x.columns
    out = []
    for (i, j, m, w, h, target) in torus_parallelograms(cols, n, width, shear):
        sw_col, sw_row, w2, h2 = 2 * cols[i], 2 * i, 2 * w, 2 * h
        o_counts = tuple(interior_count(sc, tc, sw_col, sw_row, w2, h2,
                                        rows2, width2, shear2)
                         for (sc, tc) in o_centres)
        x_counts = tuple(interior_count(sc, tc, sw_col, sw_row, w2, h2,
                                        rows2, width2, shear2)
                         for (sc, tc) in x_centres)
        out.append(Parallelogram(
            source=x, target=Generator.from_columns(target),
            moved_rows=(i, j), sw=(cols[i], i), width=w, height=h,
            o_counts=o_counts, x_counts=x_counts))
    return out


def _keep(P, variant):
    if variant == "assoc-graded":
        return not any(P.x_counts)
    if variant == "hat":
        return P.o_counts[0] == 0
    return True


def _term_key(term):
    return (term[0].sort_key(), term[1])


def build_boundary(diagram, variant, cap=DEFAULT_GENERATOR_CAP):
    """Assemble one of the four boundary maps as a SparseBoundary.

    tilde keeps parallelograms meeting no markers at all (all monomials
    trivial); assoc-graded keeps those missing the X markers, recording
    O counts as U-exponents; minus keeps everything; hat drops from minus
    the terms with a positive U_0 exponent.
    """
    require_valid(diagram)
    if variant not in VARIANTS:
        raise ValidationError("unknown boundary variant %r" % (variant,))
    n, width, shear = diagram.n, diagram.width, diagram.n * diagram.lens.q
    zero = (0,) * n
    centres = doubled_centres(diagram.O + diagram.X)
    collected = {}
    for x in enumerate_generators(diagram, cap):
        if variant == "tilde":
            bucket = Counter(empty_targets(x.columns, n, width, shear, centres))
            terms = ((Generator.from_columns(t), zero)
                     for t, c in bucket.items() if c % 2)
        else:
            bucket = Counter((P.target, P.o_counts)
                             for P in parallelograms_from(x, diagram)
                             if _keep(P, variant))
            terms = (term for term, c in bucket.items() if c % 2)
        collected[x] = tuple(sorted(terms, key=_term_key))
    return SparseBoundary(n=n, variant=variant, terms=collected)


def square_is_zero(boundary):
    """Whether the boundary composed with itself cancels mod 2, with the
    U-monomials multiplied along the way."""
    for x, terms in boundary.terms.items():
        acc = Counter()
        for (y, e1) in terms:
            for (z, e2) in boundary.terms.get(y, ()):
                acc[(z, tuple(a + b for a, b in zip(e1, e2)))] += 1
        if any(c % 2 for c in acc.values()):
            return False
    return True


def grading_drop_violations(diagram, cap=DEFAULT_GENERATOR_CAP):
    """Check the grading behaviour of every admissible parallelogram.

    Each parallelogram must preserve the Spin^c class, drop the Maslov
    grading by 1 - 2*(O count) and drop the Alexander grading by
    (X count) - (O count); in particular fully blocked parallelograms
    drop Maslov by exactly 1 and preserve Alexander.  Returns the list of
    violations (empty when all identities hold).  Knot diagrams only.
    """
    gens = list(enumerate_generators(diagram, cap))
    table = gradings_table(diagram, gens)
    out = []
    for x in gens:
        for P in parallelograms_from(x, diagram):
            src, dst = P.source, P.target
            ts, td = table[src], table[dst]
            n_o, n_x = sum(P.o_counts), sum(P.x_counts)
            if ts.spin != td.spin:
                out.append("spin changes %r -> %r" % (src, dst))
            if ts.maslov - td.maslov != 1 - 2 * n_o:
                out.append("maslov drop %s != 1 - 2*%d for %r -> %r"
                           % (ts.maslov - td.maslov, n_o, src, dst))
            if ts.alexander - td.alexander != n_x - n_o:
                out.append("alexander drop %s != %d - %d for %r -> %r"
                           % (ts.alexander - td.alexander, n_x, n_o, src, dst))
    return out


def generator_label(x):
    return "[%s|%s]" % (" ".join(map(str, x.sigma)), " ".join(map(str, x.a)))


def boundary_export_lines(boundary):
    """Deterministic text export, one line per term."""
    lines = []
    for x in sorted(boundary.terms, key=Generator.sort_key):
        for (y, exps) in boundary.terms[x]:
            mono = " ".join("U%d^%d" % (k, e) for k, e in enumerate(exps))
            lines.append("%s -> %s %s" % (generator_label(x),
                                          generator_label(y), mono))
    return lines
