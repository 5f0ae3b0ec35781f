"""The benchmark's workloads: seeded grid files and the commands run on them.

A workload fixes the make-up of its diagrams, the lens spaces L(p, q)
and grid numbers n, because the cost of a diagram is set almost wholly
by (p, q, n).  The seed draws what varies inside that frame: the marker
positions of the random knots, and q for the grid-number-one families,
whose cost does not depend on q, and which of the knots of a family too
large to run whole are run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from oracle import is_knot

STRUCTURED = ("--format", "structured")

# (p, q, n) of the random knot diagrams of one round.  Several diagrams
# of one shape sit in the middle of each list by cost, so that the median
# diagram time falls on that shape and does not hang on one diagram.  No
# diagram takes much over half a second, so that a run makes enough rounds
# for the median over the rounds.
KNOT_HOMOLOGY = ((2, 1, 3), (2, 1, 3), (3, 1, 3), (3, 1, 3), (3, -1, 3),
                 (3, -1, 3), (3, -1, 3), (4, 1, 3), (4, -1, 3), (2, 1, 4))
MINUS_EXPORT = KNOT_HOMOLOGY
# (p, how many) of the lens spaces whose grid-number-one knots are run,
# drawn by the seed; the L(37,q) knots are the middle of the round by cost.
# Then p of the two-row knots run through gradings and verify-cover only.
COVER_GN1 = ((29, 3), (31, 3), (37, 7), (47, 3), (61, 2))
COVER_TWO_ROW = (11,)


@dataclass(frozen=True)
class Case:
    """One diagram and the commands an operation runs on it."""

    name: str
    p: int
    q: int
    n: int
    text: str
    commands: tuple

    @property
    def filename(self):
        return self.name + ".grid"


def grid_text(p, q, n, o_cols, x_cols):
    return "%d %d %d\nO: %s\nX: %s\n" % (
        p, q, n, " ".join(map(str, o_cols)), " ".join(map(str, x_cols)))


def random_knot(rng, p, q, n):
    """Grid file of a random knot: a permutation plus Z_p offsets per marker
    family, redrawn until the row-cycle walk closes up in one cycle."""
    while True:
        o_perm = rng.sample(range(n), n)
        x_perm = rng.sample(range(n), n)
        if is_knot(o_perm, x_perm):
            break
    o_cols = [c + n * rng.randrange(p) for c in o_perm]
    x_cols = [c + n * rng.randrange(p) for c in x_perm]
    return grid_text(p, q, n, o_cols, x_cols)


def random_q(rng, p):
    """A q with 0 < |q| < p and gcd(p, |q|) = 1, of either sign."""
    q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
    return q if rng.random() < 0.5 else -q


def _random_knots(rng, shapes, commands):
    return [Case("k%02d-L%d_%d-n%d" % (k, p, q, n), p, q, n,
                 random_knot(rng, p, q, n), commands)
            for k, (p, q, n) in enumerate(shapes)]


def knot_homology(rng):
    return _random_knots(rng, KNOT_HOMOLOGY, (("homology",),))


def minus_export(rng):
    return _random_knots(rng, MINUS_EXPORT,
                         (("boundary-export", "--variant", "minus"),))


def cover_gradings(rng):
    cases = []
    for p, count in COVER_GN1:
        q = random_q(rng, p)
        knots = sorted(rng.sample(range(p), count))
        cases += [Case("gn1-L%d_%d-j%02d" % (p, q, j), p, q, 1,
                       grid_text(p, q, 1, [0], [j]),
                       (("gradings",), ("verify-cover",), ("homology",)))
                  for j in knots]
    for p in COVER_TWO_ROW:
        q = random_q(rng, p)
        cases.append(Case("two-L%d_%d" % (p, q), p, q, 2,
                          random_knot(rng, p, q, 2),
                          (("gradings",), ("verify-cover",))))
    return cases


# name -> (diagram maker, untimed reference commands run before the checks)
WORKLOADS = {
    "knot-homology": (knot_homology, (("gradings",),)),
    "cover-gradings": (cover_gradings, ()),
    "minus-export": (minus_export, (("gradings",),)),
}


def make_cases(workload, seed):
    """The workload's diagrams for a seed; the same seed gives the same files."""
    make, _ = WORKLOADS[workload]
    return make(random.Random("%s/%d" % (workload, seed)))
