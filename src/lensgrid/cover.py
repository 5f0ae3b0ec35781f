"""Universal-cover lifts of twisted toroidal diagrams.

A point ``(a, b)`` of the fundamental domain lifts to the ``p`` points
``((a + n*q*k) mod n*p, b + n*k)`` for ``k = 0..p-1``.  Applying this to
every marker cell turns an n-row diagram for ``L(p, q)`` into an
``(n*p) x (n*p)`` grid diagram on the square torus, which presents the
preimage link in the three-sphere; the sheared coordinates are simply
read as ``(column, row)``.  A knot whose homology class has order k
lifts to a link with ``p/k`` components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InternalInvariantError, ValidationError
from .grid import Tokens, marker_violations, require_valid, row_cycles


@dataclass(frozen=True)
class S3GridDiagram:
    """Standard square-torus grid diagram, markers stored row-major.

    Cells are ``(col, row)`` pairs with both entries in ``[0, N)``.
    """

    N: int
    O: tuple
    X: tuple

    @cached_property
    def _violations(self):
        """``validate_s3(self)``, computed once: a valid diagram holds only
        ints and tuples, so its verdict cannot go stale."""
        return validate_s3(self)


def lift_points(points, p, q, n):
    """All lattice lifts of a point set into the cover's fundamental domain.

    Accepts integer or half-integer coordinates; the result is sorted and
    duplicate-free, with exactly p lifts per input point.
    """
    width = n * p
    seen = set(points)
    out = set()
    for (a, b) in seen:
        if not (0 <= a < width and 0 <= b < n):
            raise ValidationError(
                "range-error: point (%s, %s) outside [0, %d) x [0, %d)"
                % (a, b, width, n))
        for k in range(p):
            out.add(((a + n * q * k) % width, b + n * k))
    return tuple(sorted(out))


def validate_s3(diagram):
    """Violation messages for a square-torus grid diagram: the lens
    diagram's marker rules with n = width = N."""
    N = diagram.N
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        return ["range-error: grid size must be a positive integer (got %r)" % (N,)]
    return (marker_violations("O", diagram.O, N, N)
            + marker_violations("X", diagram.X, N, N))


def lift_diagram(diagram):
    """Lift a lens-space diagram to the square grid diagram of its preimage."""
    require_valid(diagram)
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    o_cells = tuple(sorted(lift_points(diagram.O, p, q, n), key=lambda c: c[1]))
    x_cells = tuple(sorted(lift_points(diagram.X, p, q, n), key=lambda c: c[1]))
    lifted = S3GridDiagram(N=n * p, O=o_cells, X=x_cells)
    if lifted._violations:
        raise InternalInvariantError("lifted diagram invalid: %s"
                                     % "; ".join(lifted._violations))
    return lifted


def lift_generator(x, diagram):
    """The p*n-point lift of a generator, sorted by row.

    The result meets every row and every column of the cover exactly once.
    """
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    pts = sorted(lift_points(x.points(), p, q, n), key=lambda pt: pt[1])
    if len(pts) != p * n or sorted(a for (a, _) in pts) != list(range(p * n)):
        raise InternalInvariantError("lifted generator is not a bijection: %r" % (pts,))
    return tuple(pts)


def s3_link_components(diagram):
    """Row cycles of the square-torus diagram, one per link component."""
    if diagram._violations:
        raise ValidationError(diagram._violations)
    return row_cycles([c for (c, _) in diagram.O], [c for (c, _) in diagram.X])


def parse_s3_grid(text):
    """Parse the square grid file format: ``N``, then ``O:`` and ``X:``
    rows of column indices listed by row."""
    tokens = Tokens(text)
    N = tokens.take_size("grid size N", "N")
    o_cells = tokens.take_markers("O:", N, "column index")
    x_cells = tokens.take_markers("X:", N, "column index")
    tokens.finish()
    return S3GridDiagram(N, o_cells, x_cells)


def format_s3_grid(diagram):
    return "%d\nO: %s\nX: %s\n" % (
        diagram.N,
        " ".join(str(c) for (c, _) in diagram.O),
        " ".join(str(c) for (c, _) in diagram.X))
