"""Bigraded homology of the fully blocked complex over the two-element field.

The fully blocked ("tilde") complex splits as a direct sum over the exact
triple (Spin^c class, Alexander grading, Maslov grading); its differential
preserves the first two and lowers the third by one.  Each (S, A) summand
is therefore a finite complex of vector spaces graded by M, eliminated
independently with bit-packed rows.  The summands are bucketed on the
integer numerators of the gradings and eliminated one at a time, each
Maslov level's boundary read from the parallelogram table in one batch
when its rows are built, so no whole boundary is ever held.

The homology of the fully blocked complex of a knot carries n-1 tensor
factors of the rank-two bigraded space with summands in degrees (0, 0)
and (-1, -1); dividing the Poincare polynomial by
(1 + u^(-1) v^(-1))^(n-1) recovers the knot Floer homology groups.  The
division is performed exactly and verified at runtime; inexactness is
reported as data, never rounded away.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd, lcm

# unused here: perfbench/tracing.py wraps the homology.build_boundary binding
from .complexes import (DEFAULT_GENERATOR_CAP, build_boundary,  # noqa: F401
                        admissible_entries, drop_mask, lens_torus,
                        parallelogram_table, require_generator_cap)
from .errors import InternalInvariantError, LensGridError, SizeCapError
# gradings_table is unused here: perfbench/tracing.py wraps the
# homology.gradings_table binding
from .gradings import (grading_denominators, gradings_table,  # noqa: F401
                       permutation_gradings)
from .grid import require_knot, require_valid

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

    def hat_total_rank(self):
        if self.hfk_hat is None:
            return None
        return sum(r for by in self.hfk_hat.values() for r in by.values())


def gf2_rank(rows, pivot="high"):
    """Rank over GF(2) of bit-packed rows.

    ``pivot`` chooses the eliminated bit of each incoming row ("low" or
    "high"); the resulting rank is of course the same either way, which
    the test suite exploits as a determinism check.  Pivots are keyed by
    the bit's index (plus one), not by the bit itself.
    """
    if pivot not in ("low", "high"):
        raise LensGridError("unknown pivot strategy %r" % (pivot,))
    low = pivot == "low"
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            bit = (row & -row).bit_length() if low else row.bit_length()
            other = pivots.get(bit)
            if other is None:
                pivots[bit] = row
                rank += 1
                break
            row ^= other
    return rank


def homology_ranks(levels, entries_of, pivot="high", step=1):
    """Rank of the homology at each Maslov level of one graded piece.

    ``levels`` maps M to the ordered basis of the piece, or M's integer
    numerator over the denominator ``step``; ``entries_of(basis)`` gives
    each x's entries e (``complexes.admissible_entries``), one call per
    level, and the terms ``x + e[0]`` are summed mod 2.  Every term at
    level M must lie in the level of M - 1 (key minus ``step``).
    """
    rank_out = {}
    for m, basis in levels.items():
        below = {y: k for k, y in enumerate(levels.get(m - step, ()))}
        entries = entries_of(basis)
        rows = []
        try:
            for x, found in zip(basis, entries):
                row = 0
                for entry in found:
                    row ^= 1 << below[x + entry[0]]
                rows.append(row)
        except KeyError as term:
            raise InternalInvariantError(
                "boundary term %r -> %r leaves its graded piece or drops M "
                "by other than 1" % (x, term.args[0])) from None
        rank_out[m] = gf2_rank(rows, pivot)
    out = {}
    for m, basis in levels.items():
        h = len(basis) - rank_out[m] - rank_out.get(m + step, 0)
        if h < 0:
            raise InternalInvariantError("negative homology rank at M=%s" % (m,))
        if h:
            out[m] = h
    return out


def graded_homology(graded, torus, denominators, piece_cap=None,
                    pivot="high"):
    """Ranks ``{S: {(M, A): rank}}`` of the tilde complex of ``torus``.

    ``graded`` yields ``(code, (S, A, M))`` per generator, with A and M
    the integer numerators of the gradings over ``denominators`` (Maslov
    first).  The codes are bucketed into (S, A) pieces, every piece is
    checked against ``piece_cap`` before the parallelogram table is
    built, and then each piece is eliminated and dropped in turn, its
    boundary read one Maslov level at a time (the tilde differential
    preserves S and A).  The result has ``Fraction`` gradings.
    """
    dm, da = denominators
    levels = defaultdict(list)
    for code, key in graded:
        levels[key].append(code)
    pieces = {}
    for (s, a, m), codes in levels.items():
        pieces.setdefault((s, a), {})[m] = codes
    del levels   # so that each piece is freed once eliminated
    keys = sorted(pieces)
    for s, a in keys:
        size = sum(map(len, pieces[s, a].values()))
        if piece_cap is not None and size > piece_cap:
            raise SizeCapError("graded piece (S=%s, A=%s) has dimension %d "
                               "(cap %d)" % (s, Fraction(a, da), size,
                                             piece_cap))
    entries_of = admissible_entries(
        parallelogram_table(torus, drop_mask("tilde", torus[0])), *torus[:2])
    out = {}
    for s, a in keys:
        ranks = homology_ranks(pieces.pop((s, a)), entries_of, pivot, dm)
        out.setdefault(s, {}).update(((Fraction(m, dm), Fraction(a, da)), h)
                                     for m, h in ranks.items())
    return out


def tilde_homology(diagram, cap=DEFAULT_GENERATOR_CAP,
                   piece_cap=DEFAULT_PIECE_CAP, pivot="high"):
    """Bigraded homology table of the fully blocked complex of a knot.

    Every (S, A) piece is checked against ``piece_cap`` before any
    boundary work.
    """
    require_valid(diagram)
    p, n = diagram.lens.p, diagram.n
    require_generator_cap(n, p, cap)
    require_knot(diagram, validated=True)
    size = p ** n
    # one permutation's gradings at a time, never a table of every generator
    graded = chain.from_iterable(
        zip(range(first, first + size), zip(spins, alexanders, maslovs))
        for first, spins, maslovs, alexanders in permutation_gradings(diagram))
    classes = {s: {} for s in range(p)}
    classes.update(graded_homology(graded, lens_torus(diagram),
                                   grading_denominators(diagram), piece_cap,
                                   pivot))

    floor = 2 ** (n - 1)
    for s in range(p):
        if sum(classes[s].values()) < floor:
            raise InternalInvariantError(
                "Spin^c class %d has rank %d < 2^(n-1) = %d"
                % (s, sum(classes[s].values()), floor))
    return HomologyTable(spin_count=p, tensor_exponent=n - 1, classes=classes)


def _divide_once(poly, step):
    """Divide a bigraded rank polynomial by (1 + u^-1 v^-1), or None.

    The keys are (M, A) pairs on which ``step`` is the bigrading (1, 1):
    integer numerators over (D_m, D_a) take ``step = (D_m, D_a)``.
    """
    dm, da = step
    quotient = {}
    rem = dict(poly)
    while rem:
        key = max(rem)
        c = rem.pop(key)
        if c < 0:
            return None
        quotient[key] = c
        m, a = key
        lower = (m - dm, a - da)
        v = rem.get(lower, 0) - c
        if v:
            rem[lower] = v
        else:
            rem.pop(lower, None)
    return quotient


def extract_hfk_hat(table):
    """Divide out the multi-marker tensor factor from a homology table.

    Returns a new table with ``hfk_hat`` filled in when the division by
    (1 + u^-1 v^-1)^(n-1) is exact in every Spin^c class; otherwise the
    undivided ranks are kept, ``extraction_exact`` is False and ``note``
    carries a diagnostic.  Each class is divided on the integer numerators
    of its gradings over their common denominators, so only the
    quotient's keys are made ``Fraction``s.
    """
    exponent = table.tensor_exponent
    hat = {}
    for s, poly in table.classes.items():
        if not exponent:
            hat[s] = dict(poly)
            continue
        dm = lcm(*(m.denominator for m, _ in poly))
        da = lcm(*(a.denominator for _, a in poly))
        q = {(m.numerator * (dm // m.denominator),
              a.numerator * (da // a.denominator)): r
             for (m, a), r in poly.items()}
        for _ in range(exponent):
            q = _divide_once(q, (dm, da))
            if q is None:
                return replace(
                    table, hfk_hat=dict(table.classes), extraction_exact=False,
                    note="rank polynomial of Spin^c class %s is not divisible "
                         "by (1 + u^-1 v^-1)^%d" % (s, exponent))
        hat[s] = {(Fraction(m, dm), Fraction(a, da)): r
                  for (m, a), r in q.items()}
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


def rational_text(num, den):
    """``str(Fraction(num, den))`` for a positive ``den``, from integers."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return "%d/%d" % (num // g, den // g)


def _rank_terms(by_bigrading):
    """``(M, A, rank)`` per bigrading in grading order, M and A as text."""
    return [(rational_text(m.numerator, m.denominator),
             rational_text(a.numerator, a.denominator), r)
            for (m, a), r in sorted(by_bigrading.items())]


def _polynomial(terms):
    if not terms:
        return "0"
    return " + ".join("%d*u^(%s)*v^(%s)" % (r, m, a) for m, a, r in terms)


def poincare_polynomial(by_bigrading):
    """Deterministic string form of a bigraded rank polynomial."""
    return _polynomial(_rank_terms(by_bigrading))


def _rank_rows(terms):
    return [{"M": m, "A": a, "rank": r} for m, a, r in terms]


def homology_document(table, extra=None):
    """Machine-readable result document (JSON-serialisable, deterministic)."""
    terms = {str(s): _rank_terms(by)
             for s, by in sorted(table.classes.items())}
    doc = {
        "spin_count": table.spin_count,
        "tensor_exponent": table.tensor_exponent,
        "extraction_exact": table.extraction_exact,
        "total_rank": table.total_rank(),
        "classes": {s: _rank_rows(t) for s, t in terms.items()},
        "poincare": {s: _polynomial(t) for s, t in terms.items()},
    }
    if table.hfk_hat is not None:
        # a class whose extracted ranks are its tilde ranks (every class
        # when the tensor exponent is 0) reuses its formatted rows
        doc["hfk_hat"] = {
            str(s): (doc["classes"][str(s)] if by == table.classes.get(s)
                     else _rank_rows(_rank_terms(by)))
            for s, by in sorted(table.hfk_hat.items())}
        doc["hat_total_rank"] = table.hat_total_rank()
    if table.note:
        doc["note"] = table.note
    if extra:
        doc.update(extra)
    return doc


_LITERALS = {None: "null", True: "true", False: "false"}


def _json_text(value, newline):
    """JSON text of a document value whose inner lines start ``newline``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError("document keys are str, not %s"
                                % type(key).__name__)
            items.append(encode_basestring_ascii(key) + ": "
                         + _json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        return ("[" + inner
                + ("," + inner).join([_json_text(v, inner) for v in value])
                + newline + "]")
    if value is None or kind is bool:
        return _LITERALS[value]
    raise TypeError("%s is not a document type" % kind.__name__)


def document_bytes(doc):
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``.

    A document holds only str, int, bool, None, and dicts with str keys,
    lists and tuples of these; anything else raises TypeError.
    """
    return (_json_text(doc, "\n") + "\n").encode()
