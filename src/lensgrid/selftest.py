"""The acceptance checklist, runnable from the CLI and from the test suite.

Each criterion is a function returning ``(ok, detail)``; ``run_all``
executes the whole list over a deterministic corpus and labels each
result with its id and name from ``CRITERIA``.  Check C09 encodes
width/count identities that hold only on the untwisted (square) torus;
it is kept as stated, fails on twisted diagrams, and documents that
divergence (see tests/test_complexes.py for the identities the twisted
geometry does satisfy).
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (_grading_drops, build_boundary, enumerate_generators,
                        generator_code, generator_columns, generator_count,
                        generator_from_code, lens_torus, parallelogram_table,
                        square_is_zero)
from .corpus import coprime_qs, gn1_corpus, random_diagram, random_knot_diagrams
from .cover import S3GridDiagram, lift_diagram, lift_generator
from .gradings import (alexander_grading, d_invariant, grading_denominators,
                       gradings_table)
from .grid import (GridDiagram, LensParams, canonical_generator,
                   enumerate_grid_number_one)
from .homology import (document_bytes, extract_hfk_hat, homology_document,
                       simplicity_report, tilde_homology)
from .s3 import s3_maslov, s3_tilde_homology, verify_cover_relations

DEFAULT_SEED = 20260808

CRITERIA = (
    ("C01", "d-invariant anchors"),
    ("C02", "absolute grading anchors"),
    ("C03", "covering-space grading relations"),
    ("C04", "boundary maps square to zero"),
    ("C05", "grading drops on differential terms"),
    ("C06", "Alexander symmetry under marker swap"),
    ("C07", "grid-number-one knots are simple"),
    ("C08", "tensor-factor extraction"),
    ("C09", "structural counts and complement duality"),
    ("C10", "determinism across runs and pivot strategies"),
)


@dataclass
class CheckResult:
    ident: str
    name: str
    ok: bool
    detail: str


def build_corpus(seed=DEFAULT_SEED):
    """The shared corpus: all grid-number-one diagrams for p in {2, 3, 5}
    over every q, plus 50 random n=2 knot diagrams for four (p, q) pairs."""
    gn1 = gn1_corpus((2, 3, 5))
    rnd = []
    for (p, q) in ((2, 1), (3, 1), (3, 2), (5, 2)):
        rnd.extend(random_knot_diagrams(p, q, 2, 50, seed))
    return gn1, rnd


def criterion_01(gn1, rnd):
    expected = [((1, 0, 0), Fraction(0)), ((2, 1, 0), Fraction(-1, 4)),
                ((2, 1, 1), Fraction(1, 4)), ((5, 2, 1), Fraction(-2, 5))]
    bad = [(args, d_invariant(*args), want)
           for args, want in expected if d_invariant(*args) != want]
    return not bad, "4 anchor values exact" if not bad else repr(bad)


def criterion_02(gn1, rnd):
    checked = 0
    for d in gn1 + rnd:
        p, q, n = d.lens.p, d.lens.q, d.n
        qn = q % p
        canon = canonical_generator(d)
        code = generator_code(canon, p)
        grading = gradings_table(d, [(code, canon.columns)])[code]
        maslov = Fraction(grading.maslov, grading_denominators(d)[0])
        lifted = lift_diagram(d)
        if grading.spin != (q - 1) % p:
            return False, "Spin^c anchor fails on %r" % (d,)
        if maslov != d_invariant(p, qn, qn - 1) - (n - 1):
            return False, "Maslov anchor fails on %r" % (d,)
        if s3_maslov(lift_generator(canon, d), lifted.O) != -(p * n - 1):
            return False, "lifted Maslov anchor fails on %r" % (d,)
        checked += 1
    return True, "3 anchors exact on %d diagrams" % checked


def criterion_03(gn1, rnd):
    for d in gn1 + rnd:
        rep = verify_cover_relations(d)
        if not rep.ok:
            return False, "%r: %s" % (d, rep.violations[:2])
    return True, "zero violations on %d diagrams" % len(gn1 + rnd)


def criterion_04(gn1, rnd):
    count = 0
    for d in gn1 + rnd:
        for variant in ("tilde", "assoc-graded", "hat", "minus"):
            if not square_is_zero(build_boundary(d, variant)):
                return False, "d^2 != 0 for %s on %r" % (variant, d)
            count += 1
    return True, "%d boundary maps square to zero" % count


def criterion_05(gn1, rnd):
    terms = 0
    for d in gn1 + rnd:
        bad, checked = _grading_drops(d)
        if bad:
            return False, bad[0]
        terms += checked
    return True, "identities exact on %d parallelograms" % terms


def criterion_06(gn1, rnd):
    for d in gn1 + rnd:
        table = gradings_table(d, generator_columns(d.n, d.lens.p))
        da = grading_denominators(d)[1]
        swapped = GridDiagram(d.lens, d.n, d.X, d.O)
        for code, t in table.items():
            x = generator_from_code(code, d.n, d.lens.p)
            if (alexander_grading(x, swapped)
                    != -Fraction(t.alexander, da) - (d.n - 1)):
                return False, "symmetry fails for %r on %r" % (x, d)
    return True, "exact on every generator of %d diagrams" % len(gn1 + rnd)


def criterion_07(gn1, rnd):
    count = 0
    for p in (2, 3, 5, 7):
        for q in coprime_qs(p):
            for d in enumerate_grid_number_one(LensParams(p, q)):
                table = extract_hfk_hat(tilde_homology(d))
                ok = (table.extraction_exact
                      and simplicity_report(table) == "simple"
                      and all(sum(by.values()) == 1
                              for by in table.hfk_hat.values()))
                if not ok:
                    return False, repr(d)
                count += 1
    return True, "%d grid-number-one knots all simple" % count


def criterion_08(gn1, rnd):
    for d in gn1 + rnd:
        if not extract_hfk_hat(tilde_homology(d)).extraction_exact:
            return False, "extraction inexact on %r" % (d,)
    unknot = S3GridDiagram(2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))
    baseline = extract_hfk_hat(s3_tilde_homology(unknot))
    if not (baseline.extraction_exact
            and baseline.hfk_hat[0] == {(0, 0): 1}):
        return False, "square-grid unknot baseline: %r" % baseline.hfk_hat
    return True, ("exact on %d diagrams + square-grid baseline"
                  % len(gn1 + rnd))


def _census_diagrams(seed):
    out = []
    for (p, q) in ((2, 1), (3, 1), (3, 2), (5, 2)):
        for n in (1, 2, 3):
            rng = random.Random("%s/%s/%s/%s/census" % (seed, p, q, n))
            out.append(random_diagram(p, q, n, rng))
            out.append(random_diagram(p, q, n, rng))
    return out


def criterion_09(gn1, rnd, seed=DEFAULT_SEED):
    """Literal structural claims: n!*p^n generators; exactly n*(n-1)
    candidate rectangles per generator; complementary candidates with
    w1 + w2 = n*p and h1 + h2 = n.

    The count and duality sub-claims hold only when the torus is
    untwisted (q = 0 mod p): on a twisted torus each ordered row pair
    carries one embedded candidate per height band, so the census is
    n*(n-1) <= count <= p*n*(n-1), and the complement pairing matches
    widths to n*p only while heights sum to p*n, not n.  The check is
    kept as stated and fails; it is expected to stay red.
    """
    for d in _census_diagrams(seed):
        n, p = d.n, d.lens.p
        gens = list(enumerate_generators(d))
        if len(gens) != generator_count(n, p):
            return False, "generator count wrong on %r" % (d,)
        # the embedded candidates at a generator's corner columns, before
        # the other components are tested
        table = parallelogram_table(lens_torus(d))
        for x in gens:
            cols = x.columns
            cands = [(i, j, (h - j + i) // n, w, h)
                     for (i, j), cells in table.items()
                     for (_, _, _, _, w, h, _, _, _)
                     in cells[cols[i] * d.width + cols[j]]]
            if len(cands) != n * (n - 1):
                return False, (
                    "candidate count %d != n(n-1) = %d for %r on L(%d,%d) "
                    "(twisted-torus height bands add embedded candidates; "
                    "the identity holds only for q = 0 mod p)"
                    % (len(cands), n * (n - 1), x, p, d.lens.q))
            by_pair = {}
            for (i, j, m, w, h) in cands:
                by_pair.setdefault(frozenset((i, j)), []).append((w, h))
            for pair, recs in by_pair.items():
                if len(recs) != 2:
                    return False, (
                        "%d candidates on row pair %s of %r, expected 2"
                        % (len(recs), sorted(pair), x))
                (w1, h1), (w2, h2) = recs
                if w1 + w2 != n * p or h1 + h2 != n:
                    return False, (
                        "complement duality w1+w2=%d (want %d), h1+h2=%d "
                        "(want %d) for rows %s of %r on L(%d,%d)"
                        % (w1 + w2, n * p, h1 + h2, n, sorted(pair), x, p,
                           d.lens.q))
    return True, "all counts exact"


def criterion_10(gn1, rnd):
    d = rnd[0]
    docs = []
    for pivot in ("low", "low", "high"):
        table = extract_hfk_hat(tilde_homology(d, pivot=pivot))
        docs.append(document_bytes(homology_document(table)))
    if not (docs[0] == docs[1] == docs[2]):
        return False, "structured output differs across runs/pivots"
    return True, "byte-identical output, both pivot strategies"


def run_all(seed=DEFAULT_SEED):
    gn1, rnd = build_corpus(seed)
    checks = (criterion_01, criterion_02, criterion_03, criterion_04,
              criterion_05, criterion_06, criterion_07, criterion_08,
              lambda a, b: criterion_09(a, b, seed), criterion_10)
    out = []
    for (ident, name), fn in zip(CRITERIA, checks):
        try:
            ok, detail = fn(gn1, rnd)
        except Exception:
            ok, detail = False, traceback.format_exc().splitlines()[-1]
        out.append(CheckResult(ident, name, ok, detail))
    return out
