"""A per-generator parallelogram scan, kept as the oracle of the table kernel.

For one placement of components it walks every corner-compatible
candidate, keeps the embedded ones, drops those with another component
inside and counts each marker inside with its own lattice walk.  It
imports nothing from lensgrid, so it shares no code with
``lensgrid.complexes.parallelogram_table``, which it checks.

A torus is ``(n, p, q, O, X)`` as in lensgrid.complexes: ``width = n*p``,
``shear = n*q``; the square grid is ``p = 1, q = 0``.
"""

import math


def torus_size(torus):
    n, p, q = torus[:3]
    return n, n * p, n * q


def raw_candidates(cols, n_rows, width, shear):
    """One record (i, j, m, w, h) per ordered row pair and height band:
    ``width / gcd(shear, width) * n * (n-1)`` of them."""
    winding = width // math.gcd(shear, width)
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
    """Whether a w-by-h box projects to an embedded quadrilateral: every
    shear offset of a level below its top stays more than w from zero."""
    for b in range(1, h // n_rows + 1):
        off = (b * shear) % width
        if not (w < off and w < width - off):
            return False
    return True


def interior_count(s_z, t_z, sw_col, sw_row, w, h, n_rows, width, shear):
    """Lattice translates of (s_z, t_z) strictly inside the w-by-h box with
    lower-left corner (sw_col, sw_row).  Marker centres are passed doubled:
    the odd centre, and twice the corner, box, row period, width and shear.
    """
    hits = 0
    b = (sw_row - t_z) // n_rows + 1   # lowest level strictly above sw_row
    t = t_z + b * n_rows
    s = s_z + b * shear - sw_col
    while t < sw_row + h:
        if 0 < s % width < w:
            hits += 1
        t += n_rows
        s += shear
    return hits


def embedded_candidates(cols, torus):
    n, width, shear = torus_size(torus)
    return [rec for rec in raw_candidates(cols, n, width, shear)
            if is_embedded(rec[3], rec[4], n, width, shear)]


def parallelograms(cols, torus):
    """``(i, j, w, h, target columns, O counts, X counts)`` of every
    admissible parallelogram from the placement ``cols``."""
    n, width, shear = torus_size(torus)
    o_cells, x_cells = torus[3], torus[4]
    out = []
    for (i, j, m, w, h) in embedded_candidates(cols, torus):
        if any(interior_count(cols[r], r, cols[i], i, w, h, n, width, shear)
               for r in range(n) if r not in (i, j)):
            continue

        def count(cell):
            return interior_count(2 * cell[0] + 1, 2 * cell[1] + 1,
                                  2 * cols[i], 2 * i, 2 * w, 2 * h,
                                  2 * n, 2 * width, 2 * shear)

        target = list(cols)
        target[i] = (cols[i] + w) % width
        target[j] = (cols[i] - m * shear) % width
        out.append((i, j, w, h, tuple(target),
                    tuple(map(count, o_cells)), tuple(map(count, x_cells))))
    return out
