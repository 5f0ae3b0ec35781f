"""Twisted toroidal grid diagrams for knots and links in lens spaces.

Coordinate conventions, shared by every module in the package:

* ``L(p, q)`` denotes ``-p/q`` surgery on the unknot, with ``p >= 2``,
  ``q != 0``, ``-p < q < p`` and ``gcd(p, |q|) = 1``.
* All geometry lives in sheared plane coordinates ``(s, t)``.  The alpha
  curves are the horizontal lines ``t = 0 .. n-1``; the beta curve
  ``beta_j`` meets the fundamental domain ``[0, n*p) x [0, n)`` in the
  ``p`` vertical lines ``s = j, j+n, ..., j+(p-1)*n``.  The torus is the
  quotient of the plane by the lattice spanned by ``(n*p, 0)`` and
  ``(n*q, n)``: climbing one row period shifts the horizontal coordinate
  by ``n*q``.
* A cell ``(s, t)``, with ``0 <= s < n*p`` and ``0 <= t < n``, is the unit
  square whose lower-left corner is ``(s, t)``; its marker sits at the
  centre ``(s + 1/2, t + 1/2)``.
* Markers are stored row-major: ``O[t]`` is the O cell in row ``t``.
* A generator of the chain complex picks one intersection point on each
  alpha curve, forming a bijection onto the beta curves.  It is encoded
  as ``(sigma, a)`` with ``sigma`` a permutation of ``{0..n-1}`` and
  ``a`` a vector in ``{0..p-1}^n``; the row-``t`` component is the point
  ``(sigma[t] + n*a[t], t)``.

The underlying knot or link is recovered by joining each X to the O in
its row by an arc inside that row, then each O onward to the X in its
column by an arc inside that column; row arcs are pushed below the
Heegaard torus and column arcs above it.  An O and an X occupying the
same cell encode a small split unknot component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .errors import (InternalInvariantError, KnotRequiredError,
                     ParseError, ValidationError)


@dataclass(frozen=True)
class LensParams:
    p: int
    q: int


@dataclass(frozen=True)
class GridDiagram:
    lens: LensParams
    n: int
    O: tuple
    X: tuple

    @property
    def width(self):
        """Horizontal extent n*p of the fundamental domain."""
        return self.n * self.lens.p

    @cached_property
    def _violations(self):
        """``validate(self)``, computed once: a valid diagram holds only a
        ``LensParams``, ints and tuples, so its verdict cannot go stale."""
        return validate(self)


@dataclass(frozen=True)
class Generator:
    """One chain-group basis element, encoded as (sigma, a)."""

    sigma: tuple
    a: tuple

    @property
    def columns(self):
        """Horizontal position of the component in each row."""
        n = len(self.sigma)
        return tuple(self.sigma[t] + n * self.a[t] for t in range(n))

    def points(self):
        """Sheared coordinates of the n components, ordered by row."""
        return tuple((c, t) for t, c in enumerate(self.columns))

    @classmethod
    def from_columns(cls, cols):
        """Inverse of .columns: rebuild (sigma, a) from the s-positions."""
        n = len(cols)
        return cls(tuple(c % n for c in cols), tuple(c // n for c in cols))

    def sort_key(self):
        return (self.sigma, self.a)


@dataclass(frozen=True)
class LinkStructure:
    component_count: int
    homology_class: int
    order: int


def validate_lens(lens):
    """Violation messages for the surgery coefficients, empty if valid."""
    if not isinstance(lens, LensParams):
        return ["range-error: lens must be a LensParams (got %r)" % (lens,)]
    out = []
    p, q = lens.p, lens.q
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        out.append("range-error: p must be an integer >= 2 (got %r)" % (p,))
        return out
    if not isinstance(q, int) or isinstance(q, bool) or q == 0 or not -p < q < p:
        out.append("range-error: q must be a nonzero integer with -p < q < p "
                   "(got %r)" % (q,))
        return out
    g = math.gcd(p, abs(q))
    if g != 1:
        out.append("gcd-failure: gcd(%d, %d) = %d, p and q must be coprime"
                   % (p, abs(q), g))
    return out


def _collisions(values):
    """``(value, indices)`` for each value held at several indices."""
    where = {}
    for i, v in enumerate(values):
        where.setdefault(v, []).append(i)
    return sorted((v, hits) for v, hits in where.items() if len(hits) > 1)


def marker_violations(label, cells, n, width):
    """Violation messages for one marker family of an n-row grid of the
    given width, empty if valid.  A square N x N grid is the case
    n = width = N."""
    if not isinstance(cells, tuple) or len(cells) != n:
        return ["range-error: %s must be a tuple of exactly %d cells "
                "(got %r)" % (label, n, cells)]
    # each cell's row if it is a tuple of two ints (no bools) inside
    # [0, width) x [0, n), else None
    rows = [c[1] if isinstance(c, tuple) and len(c) == 2
            and (type(c[0]) is int
                 or isinstance(c[0], int) and type(c[0]) is not bool)
            and (type(c[1]) is int
                 or isinstance(c[1], int) and type(c[1]) is not bool)
            and 0 <= c[0] < width and 0 <= c[1] < n else None
            for c in cells]
    in_order = rows == list(range(n))
    if in_order and len({s % n for (s, _) in cells}) == n:
        return []
    out = ["range-error: %s[%d] = %r outside [0, %d) x [0, %d)"
           % (label, i, cell, width, n)
           for i, (cell, t) in enumerate(zip(cells, rows)) if t is None]
    if out:
        return out
    for t, hits in _collisions(rows):
        out.append("row-collision: %s cells at indices %s all sit in row %d"
                   % (label, hits, t))
    if not out and not in_order:
        out.append("storage-order: %s must be stored row-major (%s[t] in "
                   "row t); got rows %s" % (label, label, rows))
    for c, hits in _collisions([s % n for (s, _) in cells]):
        out.append("column-collision: %s cells in rows %s share column %d"
                   % (label, hits, c))
    return out


def validate(diagram):
    """Check every diagram invariant; return the list of violations.

    An empty list means the diagram is valid.  Messages are prefixed with
    one of ``range-error``, ``gcd-failure``, ``row-collision``,
    ``column-collision`` or ``storage-order``.
    """
    out = validate_lens(diagram.lens)
    n = diagram.n
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        out.append("range-error: n must be a positive integer (got %r)" % (n,))
        return out
    if out:
        return out
    width = diagram.width
    return (marker_violations("O", diagram.O, n, width)
            + marker_violations("X", diagram.X, n, width))


def require_valid(diagram):
    if diagram._violations:
        raise ValidationError(diagram._violations)
    return diagram


def code_blocks(n, p):
    """``(codes, sigma)`` per permutation sigma of range(n), in code order:
    ``codes`` is the range of the codes of the p^n generators (sigma, a),
    whose top digits are sigma in base n (``complexes.generator_code``)."""
    size = p ** n
    for sigma in permutations(range(n)):
        top = 0
        for s in sigma:
            top = top * n + s
        yield range(top * size, (top + 1) * size), sigma


def canonical_generator(diagram):
    """The generator sitting at the lower-left corners of the O cells."""
    n = diagram.n
    return Generator(tuple(s % n for (s, _) in diagram.O),
                     tuple(s // n for (s, _) in diagram.O))


def row_cycles(o_cols, x_cols):
    """Cycle decomposition of the row-to-row walk along the link.

    From row t, the row arc ends on that row's O, whose column contains
    exactly one X; the walk continues from that X's row.  ``o_cols`` and
    ``x_cols`` give the column index of the marker in each row.
    """
    col_to_xrow = {c: r for r, c in enumerate(x_cols)}
    perm = [col_to_xrow[c] for c in o_cols]
    cycles, seen = [], set()
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc, r = [], start
        while r not in seen:
            seen.add(r)
            cyc.append(r)
            r = perm[r]
        cycles.append(tuple(cyc))
    return cycles


def reconstruct_link(diagram):
    """Component count, homology class and its order for the encoded link.

    The class is computed as the net upward row-winding of the column
    arcs divided by n, taken mod p.  This fixes one identification of the
    first homology with Z_p; only the order of the class is canonical.
    """
    require_valid(diagram)
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    width = n * p
    cycles = row_cycles([s % n for (s, _) in diagram.O],
                        [s % n for (s, _) in diagram.X])
    x_by_col = {s % n: (s, t) for (s, t) in diagram.X}
    q_inv = pow(q, -1, p)
    total = 0
    for (s_o, t_o) in diagram.O:
        s_x, t_x = x_by_col[s_o % n]
        # the k in [0, p) with s_o - k*n*q = s_x (mod n*p); s_o - s_x is a
        # multiple of n, so k = ((s_o - s_x) / n) / q (mod p)
        k = (s_o - s_x) // n * q_inv % p
        total += ((t_x + k * n) - t_o) % width
    if total % n:
        raise InternalInvariantError("net row winding %d not divisible by n=%d"
                                     % (total, n))
    cls = (total // n) % p
    return LinkStructure(component_count=len(cycles),
                         homology_class=cls,
                         order=p // math.gcd(cls, p))


def require_knot(diagram):
    """Raise unless the diagram is a valid knot diagram."""
    link = reconstruct_link(diagram)
    if link.component_count != 1:
        raise KnotRequiredError(link.component_count)
    return link


def enumerate_grid_number_one(lens):
    """The p grid-number-one diagrams: O fixed at (0,0), X at (j,0)."""
    bad = validate_lens(lens)
    if bad:
        raise ValidationError(bad)
    return [GridDiagram(lens, 1, ((0, 0),), ((j, 0),)) for j in range(lens.p)]


class Tokens:
    """The whitespace-separated tokens of a grid file, each with its line
    number.  ``#`` starts a comment; tokens may be split across lines."""

    def __init__(self, text):
        self.items = [(ln, tok) for ln, line in enumerate(text.splitlines(), 1)
                      for tok in line.split("#", 1)[0].split()]
        self.pos = 0

    def take(self, what):
        if self.pos >= len(self.items):
            last = self.items[-1][0] if self.items else 1
            raise ParseError(last, "unexpected end of file, expected %s" % what)
        self.pos += 1
        return self.items[self.pos - 1]

    def take_int(self, what):
        ln, tok = self.take(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(ln, "expected %s, got %r" % (what, tok)) from None

    def take_size(self, what, name):
        """A positive integer, the number of rows."""
        value = self.take_int(what)
        if value < 1:
            raise ParseError(self.items[self.pos - 1][0],
                             "%s must be positive, got %d" % (name, value))
        return value

    def take_markers(self, label, rows, coordinate):
        """``label`` followed by one integer per row, as (integer, row)
        cells."""
        ln, tok = self.take("%r marker" % label)
        if tok != label:
            raise ParseError(ln, "expected %r, got %r" % (label, tok))
        return tuple((self.take_int("%s %s" % (label[0], coordinate)), r)
                     for r in range(rows))

    def finish(self):
        if self.pos != len(self.items):
            ln, tok = self.items[self.pos]
            raise ParseError(ln, "trailing input %r" % tok)


def parse_grid(text):
    """Parse the lens grid file format.

    Line 1 holds ``p q n``, line 2 ``O:`` followed by the s-coordinate of
    the O in each row, line 3 the same for ``X:``.  ``#`` starts a
    comment; tokens may be split across lines.
    """
    tokens = Tokens(text)
    p = tokens.take_int("integer p")
    q = tokens.take_int("integer q")
    n = tokens.take_size("integer n", "n")
    o_cells = tokens.take_markers("O:", n, "s-coordinate")
    x_cells = tokens.take_markers("X:", n, "s-coordinate")
    tokens.finish()
    return GridDiagram(LensParams(p, q), n, o_cells, x_cells)


def format_grid(diagram):
    """Inverse of parse_grid; emits the canonical three-line form."""
    return "%d %d %d\nO: %s\nX: %s\n" % (
        diagram.lens.p, diagram.lens.q, diagram.n,
        " ".join(str(s) for (s, _) in diagram.O),
        " ".join(str(s) for (s, _) in diagram.X))
