"""Bigraded homology of the fully blocked complex over the two-element field.

The fully blocked ("tilde") complex splits as a direct sum over the exact
triple (Spin^c class, Alexander grading, Maslov grading); its differential
preserves the first two and lowers the third by one.  Each (S, A) summand
is therefore a finite complex of vector spaces graded by M, eliminated
independently with bit-packed rows.  The summands are bucketed on the
integer numerators of the gradings and eliminated one at a time, each
Maslov level's boundary read from the parallelogram table in one batch
when its rows are built, so no whole boundary is ever held.  For a knot
only the summands with A >= 0 are eliminated; the symmetry of the knot
Floer groups gives the rest, and full elimination is the fallback.  A
knot of grid number one has no parallelogram, since its one row has no
pair of rows: its differential is zero, and each generator is alone in
its Spin^c class, of rank one; nothing is bucketed or eliminated.

The homology of the fully blocked complex of a knot carries n-1 tensor
factors of the rank-two bigraded space with summands in degrees (0, 0)
and (-1, -1); dividing the Poincare polynomial by
(1 + u^(-1) v^(-1))^(n-1) recovers the knot Floer homology groups.  The
division is performed exactly and verified at runtime; inexactness is
reported as data, never rounded away.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import chain, starmap
from math import comb

# unused here: perfbench/tracing.py wraps the homology.build_boundary binding
from .complexes import (DEFAULT_GENERATOR_CAP, build_boundary,  # noqa: F401
                        admissible_entries, drop_mask, lens_torus,
                        parallelogram_table, require_generator_cap)
from .document import Rows
from .errors import InternalInvariantError, LensGridError, SizeCapError
# gradings_table is unused here: perfbench/tracing.py wraps the
# homology.gradings_table binding
from .gradings import (grading_denominators, gradings_table,  # noqa: F401
                       permutation_gradings, rational_text)
from .grid import require_knot, require_valid

DEFAULT_PIECE_CAP = 10 ** 5


@dataclass
class HomologyTable:
    """Bigraded ranks per Spin^c class, plus the extracted knot groups.

    ``classes[s]`` maps (Maslov, Alexander) pairs to ranks, each grading
    an integer numerator over ``denominators = (D_M, D_A)``: the key
    ``(m, a)`` is ``(Fraction(m, D_M), Fraction(a, D_A))``.  ``hfk_hat``
    has the same shape after the tensor factor has been divided out;
    ``extraction_exact`` records whether that division was exact.
    ``hfk_hat`` may share class dicts with ``classes``, so both are
    read-only.  ``denominators`` is keyword-only, so the other fields
    keep their positions.
    """

    spin_count: int
    tensor_exponent: int
    classes: dict
    denominators: tuple = field(kw_only=True)
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


def _graded_pieces(blocks, piece_cap, da):
    """``{(S, A): {M: codes}}`` from ``permutation_gradings``' blocks, each
    block's codes taken as given, every piece checked against
    ``piece_cap`` in (S, A) order."""
    levels = defaultdict(list)
    for codes, spins, maslovs, alexanders in blocks:
        for code, key in zip(codes, zip(spins, alexanders, maslovs)):
            levels[key].append(code)
    pieces = {}
    for (s, a, m), codes in levels.items():
        pieces.setdefault((s, a), {})[m] = codes
    del levels   # so that each piece is freed once eliminated
    _require_piece_cap(((key, sum(map(len, pieces[key].values())))
                        for key in sorted(pieces)), piece_cap, da)
    return pieces


def _require_piece_cap(sizes, piece_cap, da):
    """Refuse the first piece whose size exceeds ``piece_cap`` (None: no
    cap); ``sizes`` yields ``((S, A), size)`` in (S, A) order, and is read
    only under a cap."""
    if piece_cap is not None:
        for (s, a), size in sizes:
            if size > piece_cap:
                raise SizeCapError("graded piece (S=%s, A=%s) has dimension "
                                   "%d (cap %d)" % (s, rational_text(a, da),
                                                    size, piece_cap))


def _tilde_reader(torus):
    return admissible_entries(
        parallelogram_table(torus, drop_mask("tilde", torus[0])), *torus[:2])


def _eliminate(pieces, keys, entries_of, pivot, dm, out):
    """Eliminate and drop the pieces ``keys``, adding each one's ranks to
    ``out[S]`` as ``{(M, A): rank}`` on integer numerators."""
    for s, a in keys:
        ranks = homology_ranks(pieces.pop((s, a)), entries_of, pivot, dm)
        out.setdefault(s, {}).update(((m, a), h) for m, h in ranks.items())


def graded_homology(blocks, torus, denominators):
    """Ranks ``{S: {(M, A): rank}}`` of the tilde complex of ``torus``.

    ``blocks`` are ``permutation_gradings``' ``(codes, spins, maslovs,
    alexanders)``, M and A being integer numerators over ``denominators``
    (Maslov first).  The codes are bucketed into (S, A) pieces, and then
    each piece is eliminated and dropped in turn, its boundary read one
    Maslov level at a time (the tilde differential preserves S and A).
    The result is keyed on the same numerators.
    """
    pieces = _graded_pieces(blocks, None, denominators[1])
    out = {}
    _eliminate(pieces, sorted(pieces), _tilde_reader(torus), "high",
               denominators[0], out)
    return out


def _mirror_class(p, q, k):
    """c of the symmetry ``hat[s][(M, A)] == hat[c - s][(M - 2A, -A)]`` of
    a knot of homology class k in L(p, q): the class of the canonical X
    generator (tests/test_symmetry.py derives it)."""
    return (q - 1 - q * k) % p


def _derived_ranks(top, pieces, c, exponent, denominators):
    """The tilde ranks ``{(S, A): {M: rank}}`` of every A < 0 piece, derived
    from the ranks ``top[S]`` of the A >= 0 pieces, or None when a check
    fails; keys are integer numerators over ``denominators``.  ``pieces``
    holds the bucketed A < 0 pieces, ``{(S, A): {M: codes}}``.

    Each class is divided by (1 + u^-1 v^-1)^exponent from the top down
    to A = 0, which needs no term below A = 0.  HFK-hat at A < 0 is the
    reflection of class c - S, and the product with the tensor factor
    gives the tilde ranks.  None unless every quotient coefficient is
    nonnegative, the A = 0 rows of S and c - S agree, and each A < 0
    piece has ranks only at its levels, none above a level's size, and
    its levels' Euler characteristic.
    """
    dm, da = denominators
    reflect = 2 * dm // da          # 2A, on M's numerators, per step of A
    hats = {}
    for s, poly in top.items():
        for _ in range(exponent):
            poly = _divide_once(poly, denominators, floor=0)
            if poly is None:
                return None
        hats[s] = poly
    p = len(top)
    derived = {}
    for s, hat in hats.items():
        # the mirror's A = 0 row must be in this class; both ways round,
        # over every s, the two rows agree
        mirror = []
        for (m, a), r in hats[(c - s) % p].items():
            if a:
                mirror.append(((m - reflect * a, -a), r))
            elif hat.get((m, 0)) != r:
                return None
        for (m, a), r in chain(hat.items(), mirror):
            for i in range(exponent + 1):
                if a - i * da < 0:
                    by = derived.setdefault((s, a - i * da), {})
                    key = m - i * dm
                    by[key] = by.get(key, 0) + comb(exponent, i) * r
    for key in set(derived).union(pieces):
        levels, ranks = pieces.get(key, {}), derived.get(key, {})
        if not ranks.keys() <= levels.keys():
            return None
        euler = 0
        m0 = next(iter(levels))
        for m, codes in levels.items():
            h = len(codes) - ranks.get(m, 0)
            if h < 0:
                return None
            euler += -h if (m - m0) // dm & 1 else h
        if euler:
            return None
    return derived


def tilde_homology(diagram, cap=DEFAULT_GENERATOR_CAP,
                   piece_cap=DEFAULT_PIECE_CAP, pivot="high"):
    """Bigraded homology table of the fully blocked complex of a knot.

    Every (S, A) piece is checked against ``piece_cap`` before any
    boundary work.  Only the A >= 0 pieces are eliminated; the A < 0
    ranks follow from the symmetry of HFK-hat (``_derived_ranks``), and
    when one of its checks fails, the A < 0 pieces are eliminated too.
    With n = 1 the differential is zero and each generator is alone in its
    class, of rank 1 at its (M, A); no piece is eliminated.
    """
    require_valid(diagram)
    p, q, n = diagram.lens.p, diagram.lens.q, diagram.n
    require_generator_cap(n, p, cap)
    k = require_knot(diagram).homology_class
    denominators = grading_denominators(diagram)
    ranks = {s: {} for s in range(p)}
    if n == 1:
        # one row has no pair of rows, so no parallelogram and a zero
        # differential; generator a is alone in its class (base + a) mod p,
        # and the rank floor below checks that every class got one
        (_, spins, maslovs, alexanders), = permutation_gradings(diagram)
        for s, m, a in zip(spins, maslovs, alexanders):
            ranks[s][m, a] = 1
        _require_piece_cap((((s, a), 1) for s, by in ranks.items()
                            for _, a in by), piece_cap, denominators[1])
    else:
        # one permutation's gradings at a time, never a table of every
        # generator
        pieces = _graded_pieces(permutation_gradings(diagram), piece_cap,
                                denominators[1])
        entries_of = _tilde_reader(lens_torus(diagram))
        _eliminate(pieces, sorted(key for key in pieces if key[1] >= 0),
                   entries_of, pivot, denominators[0], ranks)
        derived = _derived_ranks(ranks, pieces, _mirror_class(p, q, k), n - 1,
                                 denominators)
        if derived is not None:
            pieces.clear()
            for (s, a), by in derived.items():
                ranks[s].update(((m, a), r) for m, r in by.items())
        # the A < 0 pieces, when a check failed
        _eliminate(pieces, sorted(pieces), entries_of, pivot, denominators[0],
                   ranks)

    floor = 2 ** (n - 1)
    for s in range(p):
        if sum(ranks[s].values()) < floor:
            raise InternalInvariantError(
                "Spin^c class %d has rank %d < 2^(n-1) = %d"
                % (s, sum(ranks[s].values()), floor))
    return HomologyTable(spin_count=p, tensor_exponent=n - 1, classes=ranks,
                         denominators=denominators)


def _divide_once(poly, step, floor=None):
    """Divide a bigraded rank polynomial by (1 + u^-1 v^-1), or None.

    The keys are (M, A) pairs on which ``step`` is the bigrading (1, 1):
    integer numerators over (D_m, D_a) take ``step = (D_m, D_a)``.  With
    a ``floor``, only the quotient's terms at A >= floor are computed, from
    the terms of ``poly`` there.
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
        if floor is not None and a - da < floor:
            continue
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
    (1 + u^-1 v^-1)^(n-1) is exact in every Spin^c class; otherwise
    ``hfk_hat`` is ``table.classes``, ``extraction_exact`` is False and
    ``note`` carries a diagnostic.  Nothing undivided is copied: at
    tensor exponent 0 ``hfk_hat`` is ``table.classes``.  The keys are the
    table's integer numerators, on which (1, 1) in the gradings is the
    step ``table.denominators``.
    """
    exponent = table.tensor_exponent
    if not exponent:
        return replace(table, hfk_hat=table.classes, extraction_exact=True,
                       note="")
    hat = {}
    for s, q in table.classes.items():
        for _ in range(exponent):   # _divide_once copies, never mutates
            q = _divide_once(q, table.denominators)
            if q is None:
                return replace(
                    table, hfk_hat=table.classes, extraction_exact=False,
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


def _rank_rows(by_bigrading, denominators):
    """A document's rank rows, one per bigrading in grading order, as
    ``Rows`` of ``(A, M, rank)`` with M and A as text; the keys are
    numerators over ``denominators``."""
    dm, da = denominators
    return Rows(("A", "M", "rank"), tuple([
        (rational_text(a, da), rational_text(m, dm), r)
        for (m, a), r in sorted(by_bigrading.items())]))


def _polynomial(values):
    """Deterministic string form of a document's ``(A, M, rank)`` rows."""
    return " + ".join(starmap("{2}*u^({1})*v^({0})".format, values)) or "0"


class _Poincare(Mapping):
    """``{key: Poincare polynomial of classes[key]}``, written on read from
    the rows' texts, so that a document holds each class's texts once."""

    def __init__(self, classes):
        self.classes = classes

    def __getitem__(self, key):
        return _polynomial(self.classes[key].values)

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)


def homology_document(table, extra=None):
    """Machine-readable result document (deterministic), for
    ``write_document``: each class's rank rows are ``Rows``, read as lists
    of row dicts, and ``poincare`` is a mapping of str."""
    classes = {str(s): _rank_rows(table.classes[s], table.denominators)
               for s in sorted(table.classes)}
    doc = {
        "spin_count": table.spin_count,
        "tensor_exponent": table.tensor_exponent,
        "extraction_exact": table.extraction_exact,
        "total_rank": table.total_rank(),
        "classes": classes,
        "poincare": _Poincare(classes),
    }
    if table.hfk_hat is not None:
        # the extracted classes are the tilde ones, object for object, when
        # the tensor exponent is 0 or the extraction is inexact, and
        # otherwise differ in every class; the same ones reuse the rows
        doc["hfk_hat"] = classes if table.hfk_hat == table.classes else {
            str(s): _rank_rows(by, table.denominators)
            for s, by in sorted(table.hfk_hat.items())}
        doc["hat_total_rank"] = table.hat_total_rank()
    if table.note:
        doc["note"] = table.note
    if extra:
        doc.update(extra)
    return doc
