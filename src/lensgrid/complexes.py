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
source's code plus a constant of the parallelogram.  Boundaries are
keyed by code; ``Generator`` objects are built only for output.

The parallelogram table.  For the candidate of rows (i, j) in height
band m, the height ``h = j + m*n - i`` depends on (i, j, m) alone, the
width on m and the two corner columns (c_i, c_j), and so do
embeddedness, the marker contents and the two new columns; whether the
component in another row r lies inside depends on that key and c_r.
``parallelogram_table`` computes the entry of every embedded key once
per call, and a generator's parallelograms are n(n-1) lookups plus one
AND of each entry's block mask with the generator's own placement bits.
All arithmetic is on integers.  For fixed (i, j, m) and SW column the
table widens the box one column at a time: a marker or component at
level b of the band lies inside once the width exceeds its offset
``(s + b*shear - c_i) mod width``.  Contents only grow with the width,
so a variant that drops the parallelograms containing certain markers
(tilde: any; assoc-graded: an X; hat: the O in row 0) stops widening at
the first one.
"""

from __future__ import annotations

import math
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
    """Mod-2 collected boundary terms on generator codes.

    ``terms`` maps the code of every generator x (see ``generator_code``;
    ``generator_from_code(code, n, p)`` decodes it) to a tuple of
    ``(target code, exponents)`` pairs sorted by code, exponents being the
    U-monomial of the term; pairs appearing an even number of times have
    already been cancelled.  Treat instances as immutable.
    """

    n: int
    p: int
    variant: str
    terms: dict


def generator_count(diagram):
    n, p = diagram.n, diagram.lens.p
    return math.factorial(n) * p ** n


def require_generator_cap(diagram, cap):
    """Raise SizeCapError when the diagram has more than ``cap`` generators."""
    n, p = diagram.n, diagram.lens.p
    total = generator_count(diagram)
    if cap is not None and total > cap:
        raise SizeCapError("refusing to enumerate %d! * %d^%d = %d generators "
                           "(cap %d)" % (n, p, n, total, cap))


def enumerate_generators(diagram, cap=DEFAULT_GENERATOR_CAP):
    """All n! * p^n generators in lexicographic (sigma, a) order."""
    require_valid(diagram)
    require_generator_cap(diagram, cap)
    n, p = diagram.n, diagram.lens.p
    for sigma in permutations(range(n)):
        for a in product(range(p), repeat=n):
            yield Generator(sigma, a)


def generator_code(x, p):
    """The integer code of a generator: sigma in base n, then a in base p."""
    n = len(x.sigma)
    code = 0
    for s in x.sigma:
        code = code * n + s
    for a in x.a:
        code = code * p + a
    return code


def _code_digits(code, n, p):
    """``(sigma, a)`` of a generator code; see ``generator_code``."""
    a, sigma = [], []
    for _ in range(n):
        code, digit = divmod(code, p)
        a.append(digit)
    for _ in range(n):
        code, digit = divmod(code, n)
        sigma.append(digit)
    return tuple(sigma[::-1]), tuple(a[::-1])


def generator_from_code(code, n, p):
    """Inverse of ``generator_code``."""
    return Generator(*_code_digits(code, n, p))


def generator_codes(n, p):
    """Codes of all generators, in ``enumerate_generators`` order."""
    size = p ** n
    for sigma in permutations(range(n)):
        base = 0
        for s in sigma:
            base = base * n + s
        yield from range(base * size, (base + 1) * size)


def torus_winding(width, shear):
    """Row periods a vertical line climbs before closing up on the torus."""
    return width // math.gcd(shear, width)


def lens_torus(diagram):
    """The engine's ``(n, p, q, O, X)`` for a lens diagram."""
    return (diagram.n, diagram.lens.p, diagram.lens.q, diagram.O, diagram.X)


def _drop_mask(variant, n):
    """Marker bits (O in row k: bit k, X in row k: bit n + k) whose
    parallelograms the variant leaves out."""
    every = (1 << n) - 1
    return {"tilde": every | every << n, "assoc-graded": every << n,
            "hat": 1, "minus": 0}[variant]


def parallelogram_table(torus, drop=0, columns=None):
    """Every embedded parallelogram of the torus, keyed by its corners.

    ``table[i, j][c_i * width + c_j]`` lists, lowest height band first,
    the parallelograms with SW corner on the row-i component in column
    c_i and NE corner on a lift of the row-j component in column c_j.
    Each entry is the tuple ``(delta, block, o_counts, x_counts, width,
    height, new_i, new_j)``: the code delta of the move, the mask with
    bit ``r*width + c`` set when a component at (c, r) would lie inside,
    the marker counts, the box size and the new columns of rows i and j.
    A generator's parallelogram is admissible when none of the
    generator's own bits is in ``block``.  Parallelograms containing a
    marker of ``drop`` (see ``_drop_mask``) are left out.  With
    ``columns``, only SW corners in column ``columns[i]`` are filled in.
    """
    n, p, q, o_cells, x_cells = torus
    width, shear = n * p, n * q
    winding = torus_winding(width, shear)
    size = p ** n
    weight = [[(c % n) * n ** (n - 1 - t) * size + (c // n) * p ** (n - 1 - t)
               for c in range(width)] for t in range(n)]
    # a box whose top is k row periods up is embedded while its width is
    # below reach[k]: the shear offsets of the levels under the top stay
    # at least that far from zero on both sides
    reach = [width]
    for b in range(1, winding):
        off = b * shear % width
        reach.append(min(reach[-1], off, width - off))
    counts = {}
    table = {}
    for i in range(n):
        sw_cols = range(width) if columns is None else (columns[i],)
        for j in range(n):
            if i == j:
                continue
            cells = table[i, j] = [()] * (width * width)
            m0 = 0 if j > i else 1
            w_i, w_j = weight[i], weight[j]
            for m in range(m0, m0 + winding):
                h, drift = j + m * n - i, m * shear
                limit = reach[h // n]
                # the markers and the other rows' components met by the
                # band of rows i .. i+h-1, with their level's shear
                markers, others = [], []
                for row in range(i, i + h):
                    t, lift = row % n, row // n * shear
                    markers.append((o_cells[t][0] + lift, 1 << t))
                    markers.append((x_cells[t][0] + lift, 1 << (n + t)))
                    if t != i and t != j:
                        others.append((t * width, -lift))
                for ci in sw_cols:
                    inside = [0] * limit   # markers at each offset from ci
                    for s, bit in markers:
                        d = (s - ci) % width
                        if d < limit:
                            inside[d] |= bit
                    new_j = (ci - drift) % width
                    fixed = w_j[new_j] - w_i[ci]
                    content = block = 0
                    for w in range(1, limit):
                        content |= inside[w - 1]
                        if content & drop:
                            break
                        if w % n:   # else c_j would share c_i's residue mod n
                            new_i = (ci + w) % width
                            cj = (new_i - drift) % width
                            pair = counts.get(content)
                            if pair is None:
                                pair = counts[content] = (
                                    tuple(content >> k & 1 for k in range(n)),
                                    tuple(content >> (n + k) & 1 for k in range(n)))
                            entry = (w_i[new_i] - w_j[cj] + fixed, block,
                                     pair[0], pair[1], w, h, new_i, new_j)
                            key = ci * width + cj
                            if cells[key]:
                                cells[key].append(entry)
                            else:
                                cells[key] = [entry]
                        # components at offset w lie inside the wider boxes
                        for base, shift in others:
                            block |= 1 << (base + (ci + w + shift) % width)
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


def _placements(n, p):
    """The column tuple of every generator in enumeration order, with its
    placement bits ``1 << (t*width + c)``, one per row."""
    width = n * p
    bits = [[1 << (t * width + c) for c in range(width)] for t in range(n)]
    for sigma in permutations(range(n)):
        columns = [range(s, width, n) for s in sigma]
        yield from zip(product(*columns), product(
            *([bits[t][c] for c in cs] for t, cs in enumerate(columns))))


def collect_terms(torus, variant):
    """Mod-2 collected boundary terms of every generator of the torus,
    keyed by code, as ``SparseBoundary.terms`` holds them."""
    n, p = torus[0], torus[1]
    width = n * p
    pairs = [(i, j, cells) for (i, j), cells
             in parallelogram_table(torus, _drop_mask(variant, n)).items()]
    out = {}
    for code, (cols, placed) in zip(generator_codes(n, p), _placements(n, p)):
        occupied = sum(placed)
        found = []
        for i, j, cells in pairs:
            for entry in cells[cols[i] * width + cols[j]]:
                if not entry[1] & occupied:
                    found.append((code + entry[0], entry[2]))
        out[code] = _odd_terms(found)
    return out


def parallelograms_in(table, x, width):
    """The admissible parallelograms leaving x, with marker counts: the
    table's entries at x's corner columns that x does not block."""
    cols = x.columns
    occupied = sum(1 << (t * width + c) for t, c in enumerate(cols))
    out = []
    for (i, j), cells in table.items():
        for (_, block, o_counts, x_counts, w, h, new_i, new_j) \
                in cells[cols[i] * width + cols[j]]:
            if block & occupied:
                continue
            target = list(cols)
            target[i], target[j] = new_i, new_j
            out.append(Parallelogram(
                source=x, target=Generator.from_columns(target),
                moved_rows=(i, j), sw=(cols[i], i), width=w, height=h,
                o_counts=o_counts, x_counts=x_counts))
    return out


def parallelograms_from(x, diagram):
    """All admissible parallelograms leaving x, with marker counts, from
    the table's slice at x's corner columns."""
    table = parallelogram_table(lens_torus(diagram), columns=x.columns)
    return parallelograms_in(table, x, diagram.width)


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
    require_generator_cap(diagram, cap)
    return SparseBoundary(n=diagram.n, p=diagram.lens.p, variant=variant,
                          terms=collect_terms(lens_torus(diagram), variant))


def square_is_zero(boundary):
    """Whether the boundary composed with itself cancels mod 2, with the
    U-monomials multiplied along the way.

    Exponent vectors are packed into the digits of one integer, wide
    enough that adding two of them never carries, and a term z U^e of
    the square becomes the single integer key ``z << shift | e``.
    """
    terms = boundary.terms
    exponents = {e for out in terms.values() for _, e in out}
    top = max((max(e, default=0) for e in exponents), default=0)
    digit = (2 * top).bit_length()
    packed = {e: sum(v << (digit * k) for k, v in enumerate(e))
              for e in exponents}
    shift = digit * boundary.n
    keyed = {x: [(y << shift) + packed[e] for y, e in out]
             for x, out in terms.items()}
    for out in terms.values():
        keys = [key + packed[e] for y, e in out for key in keyed.get(y, ())]
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
    gens = list(enumerate_generators(diagram, cap))
    table = gradings_table(diagram, gens)
    geometry = parallelogram_table(lens_torus(diagram))
    out = []
    for x in gens:
        for P in parallelograms_in(geometry, x, diagram.width):
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
    return _label(x.sigma, x.a)


def _label(sigma, a):
    return "[%s|%s]" % (" ".join(map(str, sigma)), " ".join(map(str, a)))


def boundary_export_lines(boundary):
    """Deterministic text export, one line per term, in code order."""
    n, p = boundary.n, boundary.p
    labels, monomials = {}, {}

    def label(code):
        text = labels.get(code)
        if text is None:
            text = labels[code] = _label(*_code_digits(code, n, p))
        return text

    lines = []
    for x in sorted(boundary.terms):
        head = label(x) + " -> "
        for (y, exps) in boundary.terms[x]:
            mono = monomials.get(exps)
            if mono is None:
                mono = monomials[exps] = " ".join(
                    "U%d^%d" % (k, e) for k, e in enumerate(exps))
            lines.append(head + label(y) + " " + mono)
    return lines
