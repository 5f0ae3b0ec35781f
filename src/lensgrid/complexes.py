"""Generators, admissible parallelograms, and the four boundary maps.

The rectangle engine works on the sheared torus ``R^2 / <(width, 0),
(shear, rows)>``: a lens diagram has ``rows = n``, ``width = n*p`` and
``shear = n*q``, and the lifted square grids reuse the same engine with
``shear = 0`` and ``width = rows = N`` (p = 1, q = 0).  The engine reads
a torus as the tuple ``(n, p, q, O, X)``.

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

Interiors are strict in the cover; components are corner points and
markers are cell centres, so no boundary ties can occur.  Each marker
meets an embedded parallelogram's interior at most once, hence every
marker count is 0 or 1.

Generator codes.  A generator (sigma, a) is coded by the integer whose
digits are sigma in base n followed by a in base p, so codes order
generators as ``Generator.sort_key`` does.  The component in row t and
column c adds a fixed amount to the code, and a parallelogram changes
only the components of its two rows, so the code of its target is the
source's code plus a constant of the parallelogram.  Inside the pipeline
a generator is its code and its column tuple, as ``generator_columns``
yields them or ``admissible_entries`` recovers them from the code alone;
boundaries and gradings are keyed by code, and ``Generator`` objects are
built only for output and the lift.

The parallelogram table.  For the candidate of rows (i, j) in height
band m, the height ``h = j + m*n - i`` depends on (i, j, m) alone, the
width on m and the two corner columns (c_i, c_j), and so do
embeddedness, the marker contents and the two new columns; whether the
component in another row r lies inside depends on that key and c_r.
``parallelogram_table`` computes the entry of every embedded key once
per call, and a generator's parallelograms are n(n-1) lookups plus one
AND of each entry's block mask with the generator's own placement bits.
All arithmetic is on integers.  The bands of SW row i are nested: the
band of height h holds rows i .. i+h-1 below the NE row ``j = (i+h) mod
n`` of band ``m = (i+h) // n``.  So the table walks row i's heights
once, each step adding one band row's markers to a running
marker-by-column list and its component bits (rows other than i) to a
running per-column OR, whose row-j bits an entry's block leaves out: a
band costs O(width), not O(h*width).  For the band and an SW column the table
widens the box one column at a time: a marker or component at level b of
the band lies inside once the width exceeds its offset ``(s + b*shear -
c_i) mod width``.  Contents only grow with the width and the height, so
a variant that drops the parallelograms containing certain markers
(tilde: any; assoc-graded: an X; hat: the O in row 0) stops widening at
the first one, widens only the SW columns with no dropped marker at
offset 0, and ends row i's walk where none is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product, repeat
from operator import lshift, or_

from .errors import SizeCapError, ValidationError
from .grid import Generator, code_blocks, require_valid
from .gradings import grading_denominators, gradings_table, rational_text

DEFAULT_GENERATOR_CAP = 10 ** 7

VARIANTS = ("tilde", "assoc-graded", "hat", "minus")

# bits per U-exponent in a packed boundary term (see ``SparseBoundary``)
EXPONENT_BITS = 2


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
    """Mod-2 collected boundary terms on generator codes.

    ``terms`` maps the code of every generator x (see ``generator_code``;
    ``generator_from_code(code, n, p)`` decodes it) to a sorted tuple of
    packed terms (``pack_term``): the term y U^e is ``y << 2n`` plus one
    2-bit digit per exponent, U_0 the most significant, so the integers
    sort as the ``(y, e)`` tuples do.  ``term >> 2n`` is y and ``term >>
    2(n-1-k) & 3`` is e_k.  Every exponent is 0 or 1, so the digit-wise
    sum of two terms never carries, and ``square_is_zero`` adds them as
    integers.  Terms appearing an even number of times have already been
    cancelled.  Treat instances as immutable.
    """

    n: int
    p: int
    terms: dict


def pack_term(target, exponents):
    """The packed term ``target U^exponents`` (see ``SparseBoundary``);
    an exponent must be 0 or 1, as every parallelogram's marker count is."""
    term = target
    for e in exponents:
        if e not in (0, 1):
            raise ValueError("U-exponent %r is not 0 or 1" % (e,))
        term = term << EXPONENT_BITS | e
    return term


def generator_count(n, p):
    return bounded_generator_count(n, p, math.inf)


def bounded_generator_count(n, p, bound):
    """The n! * p^n generators of an n-row diagram on L(p, q) (of an
    n x n square grid when p = 1), or None as soon as a partial product
    exceeds ``bound``: a huge diagram costs a few steps."""
    total = 1
    for factor in chain(range(2, n + 1), repeat(p, n)):
        total *= factor
        if total > bound:
            return None
    return total


def require_generator_cap(n, p, cap):
    """Raise SizeCapError when an n-row diagram on L(p, q) (an n x n
    square grid when p = 1) has more than ``cap`` generators, naming the
    total while it is at most 10^100."""
    if cap is None or bounded_generator_count(n, p, cap) is not None:
        return
    total = bounded_generator_count(n, p, 10 ** 100)
    raise SizeCapError(
        "refusing to enumerate %s %s generators (cap %d)"
        % ("%d!" % n if p == 1 else "%d! * %d^%d" % (n, p, n),
           "> 10^100" if total is None else "= %d" % total, cap))


class generator_columns:
    """``(code, columns)`` of every generator of an n-row diagram on
    L(p, q), in code order; ``columns`` is ``Generator.columns``.  Like
    ``range``, a view with a length that yields the pairs afresh on each
    iteration, so a caller holds none of them it does not keep."""

    def __init__(self, n, p):
        self.n, self.p = n, p

    def __len__(self):
        return generator_count(self.n, self.p)

    def __iter__(self):
        n, p = self.n, self.p
        for codes, sigma in code_blocks(n, p):
            columns = (range(s, n * p, n) for s in sigma)
            yield from zip(codes, product(*columns))


def enumerate_generators(diagram, cap=DEFAULT_GENERATOR_CAP):
    """All n! * p^n generators as ``Generator`` objects, in code order."""
    require_valid(diagram)
    require_generator_cap(diagram.n, diagram.lens.p, cap)
    for _, cols in generator_columns(diagram.n, diagram.lens.p):
        yield Generator.from_columns(cols)


def generator_code(x, p):
    """The integer code of a generator: sigma in base n, then a in base p."""
    n = len(x.sigma)
    code = 0
    for s in x.sigma:
        code = code * n + s
    for a in x.a:
        code = code * p + a
    return code


def generator_from_code(code, n, p):
    """Inverse of ``generator_code``."""
    a, sigma = [], []
    for _ in range(n):
        code, digit = divmod(code, p)
        a.append(digit)
    for _ in range(n):
        code, digit = divmod(code, n)
        sigma.append(digit)
    return Generator(tuple(sigma[::-1]), tuple(a[::-1]))


def torus_winding(width, shear):
    """Row periods a vertical line climbs before closing up on the torus."""
    return width // math.gcd(shear, width)


def lens_torus(diagram):
    """The engine's ``(n, p, q, O, X)`` for a lens diagram."""
    return (diagram.n, diagram.lens.p, diagram.lens.q, diagram.O, diagram.X)


def drop_mask(variant, n):
    """Marker bits (O in row k: bit k, X in row k: bit n + k) whose
    parallelograms the variant leaves out."""
    every = (1 << n) - 1
    return {"tilde": every | every << n, "assoc-graded": every << n,
            "hat": 1, "minus": 0}[variant]


def parallelogram_table(torus, drop=0):
    """Every embedded parallelogram of the torus, keyed by its corners.

    ``table[i, j][c_i * width + c_j]`` lists, lowest height band first,
    the parallelograms with SW corner on the row-i component in column
    c_i and NE corner on a lift of the row-j component in column c_j.
    Each entry is the tuple ``(delta, block, o_counts, x_counts, width,
    height, new_i, new_j, key)``: the code delta of the move, the mask
    with bit ``r*width + c`` set when a component at (c, r) would lie
    inside, the marker counts, the box size, the new columns of rows i
    and j, and the packed term ``pack_term(delta, o_counts)``, so that
    ``(code << 2n) + key`` is the term the move adds to the boundary of
    the generator with that code.  A generator's parallelogram is
    admissible when none of the generator's own bits is in ``block``.
    Parallelograms containing a marker of ``drop`` (see ``drop_mask``)
    are left out.  With one row there is no pair of rows, and the table
    is empty.
    """
    n, p, q, o_cells, x_cells = torus
    if n == 1:
        return {}
    width, shear = n * p, n * q
    winding = torus_winding(width, shear)
    size, code_shift = p ** n, EXPONENT_BITS * n
    weight = [[(c % n) * n ** (n - 1 - t) * size + (c // n) * p ** (n - 1 - t)
               for c in range(width)] for t in range(n)]
    row_bits = [[1 << (t * width + c) for c in range(width)]
                for t in range(n)]
    # a box whose top is k row periods up is embedded while its width is
    # below reach[k]: the shear offsets of the levels under the top stay
    # at least that far from zero on both sides
    reach = [width]
    for b in range(1, winding):
        off = b * shear % width
        reach.append(min(reach[-1], off, width - off))
    counts = {}
    table = {(i, j): [()] * (width * width)
             for i in range(n) for j in range(n) if i != j}
    for i in range(n):
        w_i = weight[i]
        # by column of the band (mod width, with each level's shear),
        # twice over: the markers met, and the components of rows other
        # than i; live: the SW columns with no dropped marker at offset 0
        at, comps = [0] * (2 * width), [0] * (2 * width)
        live = list(range(width))
        for h in range(1, winding * n):
            level, t = divmod(i + h - 1, n)
            lift = level * shear
            for cell, bit in ((o_cells[t], 1 << t), (x_cells[t], 1 << n + t)):
                col = (cell[0] + lift) % width
                at[col] |= bit
                at[col + width] |= bit
                if bit & drop and col in live:
                    live.remove(col)
            if t != i:
                bits = row_bits[t]
                cut = -lift % width
                comps = list(map(or_, comps, (bits[cut:] + bits[:cut]) * 2))
            if not live:   # no taller band can hold a box either
                break
            m, j = divmod(i + h, n)
            if j == i:
                continue
            limit = reach[h // n]
            drift, cells, w_j = m * shear, table[i, j], weight[j]
            keep = ~(((1 << width) - 1) << j * width)   # row j's bits out
            for ci in live:
                new_j = (ci - drift) % width
                fixed = w_j[new_j] - w_i[ci]
                content = block = 0
                for w in range(1, limit):
                    content |= at[ci + w - 1]   # the markers at offset w - 1
                    if content & drop:
                        break
                    if w % n:   # else c_j would share c_i's residue mod n
                        new_i = (ci + w) % width
                        cj = (new_i - drift) % width
                        pair = counts.get(content)
                        if pair is None:
                            o = tuple(content >> k & 1 for k in range(n))
                            pair = counts[content] = (
                                o, tuple(content >> (n + k) & 1
                                         for k in range(n)),
                                pack_term(0, o))
                        delta = w_i[new_i] - w_j[cj] + fixed
                        entry = (delta, block & keep, pair[0], pair[1], w, h,
                                 new_i, new_j,
                                 (delta << code_shift) + pair[2])
                        key = ci * width + cj
                        found = cells[key]
                        if found:
                            found.append(entry)
                        else:
                            cells[key] = [entry]
                    # components at offset w lie inside the wider boxes
                    block |= comps[ci + w]
    return table


def _odd_terms(found):
    """The terms occurring an odd number of times, sorted."""
    found.sort()
    kept = []
    for term in found:
        if kept and kept[-1] == term:
            kept.pop()
        else:
            kept.append(term)
    return tuple(kept)


def admissible_entries(table, n, p):
    """``entries_of(codes)``: per code of the batch, the list of entries of
    ``table`` (see ``parallelogram_table``) at the generator's corner
    columns that it does not block, in table order, one per admissible
    parallelogram leaving it.  The one place that applies the block mask.
    An empty table (n = 1) gives ``[]`` per code."""
    if not table:
        return lambda codes: [[] for _ in codes]
    width, size = n * p, p ** n
    # column sigma_t + n*a_t: per sigma, pair cell bases and row bits; per
    # a, pair offsets (shared ints: a pointer each) and row shifts n*a_t
    by_pair = list(table.values())
    by_sigma = {
        codes.start: ([sigma[i] * width + sigma[j] for i, j in table],
                      [1 << t * width + s for t, s in enumerate(sigma)])
        for codes, sigma in code_blocks(n, p)}
    offset = [[n * (x * width + y) for y in range(p)] for x in range(p)]
    index = [[offset[a[i]][a[j]] for a in product(range(p), repeat=n)]
             for i, j in table]
    by_digits = list(zip(zip(*index), product(range(0, width, n), repeat=n)))

    def entries_of(codes):
        out = []
        for code in codes:
            bottom = code % size
            bases, row_bits = by_sigma[code - bottom]
            keys, shifts = by_digits[bottom]
            occupied = sum(map(lshift, row_bits, shifts))
            found = []
            for cells, base, key in zip(by_pair, bases, keys):
                for entry in cells[base + key]:
                    if not entry[1] & occupied:
                        found.append(entry)
            out.append(found)
        return out
    return entries_of


def label_decoder(n, p):
    """``label(code)``: the text ``[sigma|a]`` of the generator with that
    code, its digits separated by spaces, from the code by two table
    lookups, as ``admissible_entries`` reads its columns."""
    size = p ** n
    sigmas = {codes.start: " ".join(map(str, sigma))
              for codes, sigma in code_blocks(n, p)}
    offsets = [" ".join(map(str, digits))
               for digits in product(range(p), repeat=n)]

    def label(code):
        bottom = code % size
        return "[%s|%s]" % (sigmas[code - bottom], offsets[bottom])
    return label


def collect_terms(torus, variant):
    """Mod-2 collected boundary terms of every generator of the torus,
    keyed by code, as ``SparseBoundary.terms`` holds them."""
    n, p = torus[0], torus[1]
    shift = EXPONENT_BITS * n
    entries_of = admissible_entries(
        parallelogram_table(torus, drop_mask(variant, n)), n, p)
    return {code: _odd_terms([(code << shift) + e[8] for e in found])
            for codes, _ in code_blocks(n, p)   # one batch per permutation
            for code, found in zip(codes, entries_of(codes))}


def parallelograms_from(x, diagram):
    """All admissible parallelograms leaving x, with marker counts, as
    ``Parallelogram`` objects: the object view of ``admissible_entries``
    on the whole table, read at x's corner columns."""
    n, p, cols = diagram.n, diagram.lens.p, x.columns
    table = parallelogram_table(lens_torus(diagram))
    # rows i and j swap beta curves: new_i lies on row j's, new_j on row i's
    row_of = {s: t for t, s in enumerate(x.sigma)}
    out = []
    for (_, _, o_counts, x_counts, w, h, new_i, new_j, _) \
            in admissible_entries(table, n, p)([generator_code(x, p)])[0]:
        i, j = row_of[new_j % n], row_of[new_i % n]
        target = list(cols)
        target[i], target[j] = new_i, new_j
        out.append(Parallelogram(
            source=x, target=Generator.from_columns(target),
            moved_rows=(i, j), sw=(cols[i], i), width=w, height=h,
            o_counts=o_counts, x_counts=x_counts))
    return out


def build_boundary(diagram, variant, cap=DEFAULT_GENERATOR_CAP):
    """Assemble one of the four boundary maps as a SparseBoundary.

    tilde keeps parallelograms meeting no markers at all (all monomials
    trivial); assoc-graded keeps those missing the X markers, recording
    O counts as U-exponents; minus keeps everything; hat drops from minus
    the terms with a positive U_0 exponent.  The generator cap is checked
    before the table is built.
    """
    require_valid(diagram)
    if variant not in VARIANTS:
        raise ValidationError("unknown boundary variant %r" % (variant,))
    require_generator_cap(diagram.n, diagram.lens.p, cap)
    return SparseBoundary(n=diagram.n, p=diagram.lens.p,
                          terms=collect_terms(lens_torus(diagram), variant))


def square_is_zero(boundary):
    """Whether the boundary composed with itself cancels mod 2, with the
    U-monomials multiplied along the way.

    A path x -> y -> z with monomials U^e and U^f is the packed term of
    y -> z plus the digits e of x -> y (see ``SparseBoundary``).
    """
    terms = boundary.terms
    shift = EXPONENT_BITS * boundary.n
    digits = (1 << shift) - 1
    get = terms.get
    for out in terms.values():
        keys = [after + e for term in out for e in [term & digits]
                for after in get(term >> shift, ())]
        keys.sort()
        if keys[::2] != keys[1::2]:   # some key occurs an odd number of times
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
    return _grading_drops(diagram, cap)[0]


def _grading_drops(diagram, cap=DEFAULT_GENERATOR_CAP):
    """``grading_drop_violations``' list and the number of parallelograms
    it checked, from one parallelogram table."""
    require_valid(diagram)
    n, p = diagram.n, diagram.lens.p
    require_generator_cap(n, p, cap)
    table = gradings_table(diagram, generator_columns(n, p))
    dm, da = grading_denominators(diagram)
    entries_of = admissible_entries(
        parallelogram_table(lens_torus(diagram)), n, p)
    out = []
    checked = 0
    for code, found in zip(table, entries_of(table)):
        ts = table[code]
        checked += len(found)
        for (delta, _, o_counts, x_counts, *_) in found:
            td = table[code + delta]
            n_o, n_x = sum(o_counts), sum(x_counts)
            maslov_drop = ts.maslov - td.maslov
            alexander_drop = ts.alexander - td.alexander
            # messages name the generators and the drops, built only for a
            # violation
            heads = []
            if ts.spin != td.spin:
                heads.append("spin changes")
            if maslov_drop != (1 - 2 * n_o) * dm:
                heads.append("maslov drop %s != 1 - 2*%d for"
                             % (rational_text(maslov_drop, dm), n_o))
            if alexander_drop != (n_x - n_o) * da:
                heads.append("alexander drop %s != %d - %d for"
                             % (rational_text(alexander_drop, da), n_x, n_o))
            if heads:
                move = "%r -> %r" % (generator_from_code(code, n, p),
                                     generator_from_code(code + delta, n, p))
                out.extend(head + " " + move for head in heads)
    return out, checked


def boundary_export_lines(boundary):
    """Deterministic text export, one line per term, in code order."""
    n, p = boundary.n, boundary.p
    shift = EXPONENT_BITS * n
    digits = (1 << shift) - 1
    # every target is a generator, hence a key of the terms
    label = label_decoder(n, p)
    labels = {x: label(x) for x in boundary.terms}
    monomials = {pack_term(0, e): " " + " ".join(map("U%d^%d".__mod__,
                                                     enumerate(e)))
                 for e in product((0, 1), repeat=n)}
    lines = []
    for x in sorted(boundary.terms):
        head = labels[x] + " -> "
        lines += [head + labels[term >> shift] + monomials[term & digits]
                  for term in boundary.terms[x]]
    return lines
