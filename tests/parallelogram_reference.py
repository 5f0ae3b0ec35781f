"""The band-per-(i, j, m) table construction, kept as the reference of
``lensgrid.complexes.parallelogram_table``.

For every ordered row pair (i, j) and height band m it rebuilds, from
scratch, the marker and component columns of the band's h rows and then
widens every SW column's box, so it knows nothing of the kernel's per-row
walk or its stop rule.  It builds the same entries in the same order
inside each cell, and imports nothing from lensgrid.

A torus is ``(n, p, q, O, X)`` as in lensgrid.complexes.
"""

import math
from operator import or_

EXPONENT_BITS = 2


def reference_table(torus, drop=0):
    """``parallelogram_table(torus, drop)``, built band by band."""
    n, p, q, o_cells, x_cells = torus
    if n == 1:
        return {}
    width, shear = n * p, n * q
    winding = width // math.gcd(shear, width)
    size, code_shift = p ** n, EXPONENT_BITS * n
    weight = [[(c % n) * n ** (n - 1 - t) * size + (c // n) * p ** (n - 1 - t)
               for c in range(width)] for t in range(n)]
    row_bits = [[1 << (t * width + c) for c in range(width)]
                for t in range(n)]
    reach = [width]
    for b in range(1, winding):
        off = b * shear % width
        reach.append(min(reach[-1], off, width - off))
    counts = {}
    table = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cells = table[i, j] = [()] * (width * width)
            m0 = 0 if j > i else 1
            w_i, w_j = weight[i], weight[j]
            for m in range(m0, m0 + winding):
                h, drift = j + m * n - i, m * shear
                limit = reach[h // n]
                at, comps = [0] * width, [0] * width
                for row in range(i, i + h):
                    t, lift = row % n, row // n * shear
                    at[(o_cells[t][0] + lift) % width] |= 1 << t
                    at[(x_cells[t][0] + lift) % width] |= 1 << (n + t)
                    if t != i and t != j:
                        bits = row_bits[t]
                        cut = -lift % width
                        comps = list(map(or_, comps, bits[cut:] + bits[:cut]))
                at += at
                comps += comps
                for ci in range(width):
                    inside = at[ci:ci + limit]
                    new_j = (ci - drift) % width
                    fixed = w_j[new_j] - w_i[ci]
                    content = block = 0
                    for w in range(1, limit):
                        content |= inside[w - 1]
                        if content & drop:
                            break
                        if w % n:
                            new_i = (ci + w) % width
                            cj = (new_i - drift) % width
                            pair = counts.get(content)
                            if pair is None:
                                o = tuple(content >> k & 1 for k in range(n))
                                term = 0
                                for e in o:
                                    term = term << EXPONENT_BITS | e
                                pair = counts[content] = (
                                    o, tuple(content >> (n + k) & 1
                                             for k in range(n)), term)
                            delta = w_i[new_i] - w_j[cj] + fixed
                            entry = (delta, block, pair[0], pair[1], w, h,
                                     new_i, new_j,
                                     (delta << code_shift) + pair[2])
                            key = ci * width + cj
                            if cells[key]:
                                cells[key].append(entry)
                            else:
                                cells[key] = [entry]
                        block |= comps[ci + w]
    return table
