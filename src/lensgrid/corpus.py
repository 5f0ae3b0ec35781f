"""Deterministic diagram corpora for self-tests and property tests."""

from __future__ import annotations

import math
import random

from .grid import GridDiagram, LensParams, enumerate_grid_number_one, reconstruct_link


def coprime_qs(p):
    """All legal surgery numerators q for the given p."""
    return [q for q in range(-p + 1, p) if q != 0 and math.gcd(p, abs(q)) == 1]


def gn1_corpus(ps):
    """Every grid-number-one diagram for each listed p, over all q."""
    out = []
    for p in ps:
        for q in coprime_qs(p):
            out.extend(enumerate_grid_number_one(LensParams(p, q)))
    return out


def random_diagram(p, q, n, rng):
    """A uniformly random valid diagram (any number of components)."""
    def markers():
        perm = list(range(n))
        rng.shuffle(perm)
        return tuple((perm[t] + n * rng.randrange(p), t) for t in range(n))
    return GridDiagram(LensParams(p, q), n, markers(), markers())


def random_knot_diagram(p, q, n, rng):
    """A random valid diagram that encodes a single-component knot."""
    while True:
        d = random_diagram(p, q, n, rng)
        if reconstruct_link(d).component_count == 1:
            return d


def random_knot_diagrams(p, q, n, count, seed):
    rng = random.Random("%s/%s/%s/%s" % (seed, p, q, n))
    return [random_knot_diagram(p, q, n, rng) for _ in range(count)]

