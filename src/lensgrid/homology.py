"""Bigraded homology of the fully blocked complex over the two-element field.

The fully blocked ("tilde") complex splits as a direct sum over the exact
triple (Spin^c class, Alexander grading, Maslov grading); its differential
preserves the first two and lowers the third by one.  Each (S, A) summand
is therefore a finite complex of vector spaces graded by M, eliminated
independently with bit-packed rows.

The homology of the fully blocked complex of a knot carries n-1 tensor
factors of the rank-two bigraded space with summands in degrees (0, 0)
and (-1, -1); dividing the Poincare polynomial by
(1 + u^(-1) v^(-1))^(n-1) recovers the knot Floer homology groups.  The
division is performed exactly and verified at runtime; inexactness is
reported as data, never rounded away.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .complexes import (DEFAULT_GENERATOR_CAP, build_boundary,
                        enumerate_generators, generator_codes)
from .errors import InternalInvariantError, LensGridError, SizeCapError
from .gradings import gradings_table
from .grid import require_valid

DEFAULT_PIECE_CAP = 10 ** 5


@dataclass
class HomologyTable:
    """Bigraded ranks per Spin^c class, plus the extracted knot groups.

    ``classes[s]`` maps (Maslov, Alexander) pairs to ranks.  ``hfk_hat``
    has the same shape after the tensor factor has been divided out;
    ``extraction_exact`` records whether that division was exact.
    """

    spin_count: int
    tensor_exponent: int
    classes: dict
    hfk_hat: dict | None = None
    extraction_exact: bool = False
    note: str = ""

    def total_rank(self):
        return sum(r for by in self.classes.values() for r in by.values())

    def spin_rank(self, s):
        return sum(self.classes.get(s, {}).values())

    def hat_total_rank(self):
        if self.hfk_hat is None:
            return None
        return sum(r for by in self.hfk_hat.values() for r in by.values())


def gf2_rank(rows, pivot="low"):
    """Rank over GF(2) of bit-packed rows.

    ``pivot`` chooses the eliminated bit of each incoming row ("low" or
    "high"); the resulting rank is of course the same either way, which
    the test suite exploits as a determinism check.
    """
    if pivot not in ("low", "high"):
        raise LensGridError("unknown pivot strategy %r" % (pivot,))
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            bit = (row & -row) if pivot == "low" else (1 << (row.bit_length() - 1))
            other = pivots.get(bit)
            if other is None:
                pivots[bit] = row
                rank += 1
                break
            row ^= other
    return rank


def homology_ranks(levels, targets, pivot="low"):
    """Rank of the homology at each Maslov level of one graded piece.

    ``levels`` maps M to the ordered basis of the piece; ``targets(x)``
    yields the boundary terms of x, which are summed mod 2, so a term
    yielded twice cancels.  Every term of a basis element at level M
    must lie in ``levels[M - 1]``: the differential stays inside the
    piece and lowers M by exactly one.
    """
    rank_out = {}
    for m, basis in levels.items():
        below = {y: k for k, y in enumerate(levels.get(m - 1, ()))}
        rows = []
        for x in basis:
            row = 0
            for y in targets(x):
                k = below.get(y)
                if k is None:
                    raise InternalInvariantError(
                        "boundary term %r -> %r leaves its graded piece or "
                        "drops M by other than 1" % (x, y))
                row ^= 1 << k
            rows.append(row)
        rank_out[m] = gf2_rank(rows, pivot)
    out = {}
    for m, basis in levels.items():
        h = len(basis) - rank_out[m] - rank_out.get(m + 1, 0)
        if h < 0:
            raise InternalInvariantError("negative homology rank at M=%s" % (m,))
        if h:
            out[m] = h
    return out


def tilde_homology(diagram, cap=DEFAULT_GENERATOR_CAP,
                   piece_cap=DEFAULT_PIECE_CAP, pivot="low"):
    """Bigraded homology table of the fully blocked complex of a knot.

    Every (S, A) piece is checked against ``piece_cap`` before the
    boundary is built.  The pieces' levels hold generator codes, the keys
    of the boundary's terms.
    """
    require_valid(diagram)
    p, n = diagram.lens.p, diagram.n
    gens = list(enumerate_generators(diagram, cap))
    table = gradings_table(diagram, gens)
    pieces = {}
    for code, x in zip(generator_codes(n, p), gens):
        t = table[x]
        pieces.setdefault((t.spin, t.alexander), {}).setdefault(
            t.maslov, []).append(code)
    pieces = sorted(pieces.items())
    for (s, a), levels in pieces:
        size = sum(len(basis) for basis in levels.values())
        if piece_cap is not None and size > piece_cap:
            raise SizeCapError("graded piece (S=%s, A=%s) has dimension %d "
                               "(cap %d)" % (s, a, size, piece_cap))

    terms = build_boundary(diagram, "tilde", cap).terms

    def targets(x):
        return (y for (y, _) in terms[x])

    classes = {s: {} for s in range(p)}
    for (s, a), levels in pieces:
        for m, h in homology_ranks(levels, targets, pivot).items():
            classes[s][(m, a)] = h

    floor = 2 ** (n - 1)
    for s in range(p):
        if sum(classes[s].values()) < floor:
            raise InternalInvariantError(
                "Spin^c class %d has rank %d < 2^(n-1) = %d"
                % (s, sum(classes[s].values()), floor))
    return HomologyTable(spin_count=p, tensor_exponent=n - 1, classes=classes)


def _divide_once(poly):
    """Divide a bigraded rank polynomial by (1 + u^-1 v^-1), or None."""
    quotient = {}
    rem = dict(poly)
    while rem:
        key = max(rem)
        c = rem.pop(key)
        if c < 0:
            return None
        quotient[key] = c
        m, a = key
        lower = (m - 1, a - 1)
        v = rem.get(lower, 0) - c
        if v:
            rem[lower] = v
        else:
            rem.pop(lower, None)
    return quotient


def extract_hfk_hat(table, n=None):
    """Divide out the multi-marker tensor factor from a homology table.

    Returns a new table with ``hfk_hat`` filled in when the division by
    (1 + u^-1 v^-1)^(n-1) is exact in every Spin^c class; otherwise the
    undivided ranks are kept, ``extraction_exact`` is False and ``note``
    carries a diagnostic.
    """
    exponent = table.tensor_exponent if n is None else n - 1
    hat = {}
    for s, poly in table.classes.items():
        q = dict(poly)
        for _ in range(exponent):
            q = _divide_once(q)
            if q is None:
                return replace(
                    table, hfk_hat=dict(table.classes), extraction_exact=False,
                    note="rank polynomial of Spin^c class %s is not divisible "
                         "by (1 + u^-1 v^-1)^%d" % (s, exponent))
        hat[s] = q
    return replace(table, hfk_hat=hat, extraction_exact=True, note="")


def simplicity_report(table):
    """Classify the total extracted rank against p and p + 2."""
    if not table.extraction_exact:
        raise LensGridError("simplicity classification requires an exact "
                            "tensor-factor extraction; " + table.note)
    total = table.hat_total_rank()
    p = table.spin_count
    if total < p:
        raise InternalInvariantError(
            "total extracted rank %d < %d; one class per Spin^c structure "
            "must survive" % (total, p))
    if total == p:
        return "simple"
    if total == p + 2:
        return "near-simple"
    return "other"


def _frac(x):
    return str(Fraction(x))


def poincare_polynomial(by_bigrading):
    """Deterministic string form of a bigraded rank polynomial."""
    if not by_bigrading:
        return "0"
    return " + ".join("%d*u^(%s)*v^(%s)" % (r, _frac(m), _frac(a))
                      for (m, a), r in sorted(by_bigrading.items()))


def _rank_rows(by_bigrading):
    return [{"M": _frac(m), "A": _frac(a), "rank": r}
            for (m, a), r in sorted(by_bigrading.items())]


def homology_document(table, extra=None):
    """Machine-readable result document (JSON-serialisable, deterministic)."""
    doc = {
        "spin_count": table.spin_count,
        "tensor_exponent": table.tensor_exponent,
        "extraction_exact": table.extraction_exact,
        "total_rank": table.total_rank(),
        "classes": {str(s): _rank_rows(by) for s, by in sorted(table.classes.items())},
        "poincare": {str(s): poincare_polynomial(by)
                     for s, by in sorted(table.classes.items())},
    }
    if table.hfk_hat is not None:
        doc["hfk_hat"] = {str(s): _rank_rows(by)
                          for s, by in sorted(table.hfk_hat.items())}
        doc["hat_total_rank"] = table.hat_total_rank()
    if table.note:
        doc["note"] = table.note
    if extra:
        doc.update(extra)
    return doc


def document_bytes(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
