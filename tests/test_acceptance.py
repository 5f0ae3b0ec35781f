"""Acceptance checklist, one test per criterion.

The corpus and the checks live in lensgrid.selftest so that the CLI
``selftest`` subcommand and this module exercise exactly the same code.
Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).

Criterion C09 is expected to fail: its rectangle-count and
complement-duality claims are identities of the untwisted (square) torus
only.  On a twisted torus the beta curves wind several row periods, so
every ordered row pair carries one embedded connecting parallelogram per
height band (see test_complexes.py::test_candidate_census_twisted for
the census that does hold, and
test_complexes.py::test_short_only_recipe_breaks_d_squared for the proof
that those extra parallelograms are genuine differential terms).  The
check is deliberately not weakened.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from lensgrid import (CoverReport, Generator, GridDiagram, LensParams,
                      selftest)
from lensgrid.corpus import gn1_corpus


@pytest.fixture(scope="module")
def results():
    return {r.ident: r for r in selftest.run_all()}


def _check(results, ident):
    r = results[ident]
    print("ACCEPTANCE %s %s: %s (%s)"
          % (r.ident, r.name, "PASS" if r.ok else "FAIL", r.detail))
    assert r.ok, "%s %s: %s" % (r.ident, r.name, r.detail)


def test_criterion_01_d_invariant_anchors(results):
    _check(results, "C01")


def test_criterion_02_absolute_grading_anchors(results):
    _check(results, "C02")


def test_criterion_03_cover_relations(results):
    _check(results, "C03")


def test_criterion_04_boundaries_square_to_zero(results):
    _check(results, "C04")


def test_criterion_05_grading_drops(results):
    _check(results, "C05")


def test_criterion_06_alexander_symmetry(results):
    _check(results, "C06")


def test_criterion_07_grid_number_one_simple(results):
    _check(results, "C07")


def test_criterion_08_extraction(results):
    _check(results, "C08")


def test_criterion_09_structural_counts(results):
    # expected red: see module docstring
    _check(results, "C09")


def test_criterion_10_determinism(results):
    _check(results, "C10")


# Negative controls: each criterion, run on a two-diagram corpus with the
# function it checks replaced by a wrong one, must report FAIL with its
# own detail, so a criterion edited to always pass shows up here.

GN1 = GridDiagram(LensParams(2, 1), 1, ((0, 0),), ((1, 0),))
KNOT = GridDiagram(LensParams(3, 1), 2, ((2, 0), (1, 1)), ((3, 0), (0, 1)))


def _criterion(ident):
    return getattr(selftest, "criterion_" + ident[1:])


def _fails(monkeypatch, ident, name, fake):
    monkeypatch.setattr(selftest, name, fake)
    ok, detail = _criterion(ident)([GN1], [KNOT])
    assert ok is False
    return detail


def _shifted_table(field):
    """``gradings_table`` with one field of every triple raised by one."""
    real = selftest.gradings_table

    def table(d, generators):
        return {code: t._replace(**{field: getattr(t, field) + 1})
                for code, t in real(d, generators).items()}
    return table


@pytest.mark.parametrize("ident", [ident for ident, _ in selftest.CRITERIA
                                   if ident != "C09"])
def test_every_criterion_passes_on_the_control_corpus(ident):
    assert _criterion(ident)([GN1], [KNOT])[0] is True


def test_c01_reports_the_wrong_anchor(monkeypatch):
    detail = _fails(monkeypatch, "C01", "d_invariant",
                    lambda p, q, i: Fraction(1))
    assert detail == (
        "[((1, 0, 0), Fraction(1, 1), Fraction(0, 1)), "
        "((2, 1, 0), Fraction(1, 1), Fraction(-1, 4)), "
        "((2, 1, 1), Fraction(1, 1), Fraction(1, 4)), "
        "((5, 2, 1), Fraction(1, 1), Fraction(-2, 5))]")


@pytest.mark.parametrize("name, fake, text", [
    ("gradings_table", _shifted_table("spin"), "Spin^c anchor fails on "),
    ("gradings_table", _shifted_table("maslov"), "Maslov anchor fails on "),
    ("s3_maslov", lambda points, cells: 0, "lifted Maslov anchor fails on "),
])
def test_c02_reports_each_anchor(monkeypatch, name, fake, text):
    assert _fails(monkeypatch, "C02", name, fake) == text + repr(GN1)


def test_c03_reports_the_first_violations(monkeypatch):
    detail = _fails(monkeypatch, "C03", "verify_cover_relations",
                    lambda d: CoverReport(rows=[], violations=["a", "b", "c"]))
    assert detail == "%r: ['a', 'b']" % (GN1,)


def test_c04_reports_a_nonzero_square(monkeypatch):
    detail = _fails(monkeypatch, "C04", "square_is_zero", lambda b: False)
    assert detail == "d^2 != 0 for tilde on %r" % (GN1,)


def test_c05_reports_the_first_drop(monkeypatch):
    detail = _fails(monkeypatch, "C05", "_grading_drops",
                    lambda d: (["planted drop", "second"], 2))
    assert detail == "planted drop"


def test_c06_reports_a_broken_symmetry(monkeypatch):
    real = selftest.alexander_grading
    detail = _fails(monkeypatch, "C06", "alexander_grading",
                    lambda x, d: real(x, d) + 1)
    assert detail == "symmetry fails for %r on %r" % (
        Generator((0,), (0,)), GN1)


def test_c07_names_the_first_knot_that_is_not_simple(monkeypatch):
    detail = _fails(monkeypatch, "C07", "simplicity_report",
                    lambda table: "not simple")
    # C07 walks every q of each p, in gn1_corpus' order
    assert detail == repr(gn1_corpus((2,))[0])


def test_c08_reports_an_inexact_extraction(monkeypatch):
    real = selftest.extract_hfk_hat
    detail = _fails(monkeypatch, "C08", "extract_hfk_hat",
                    lambda t: replace(real(t), extraction_exact=False))
    assert detail == "extraction inexact on %r" % (GN1,)


def test_c08_reports_a_wrong_square_grid_baseline(monkeypatch):
    real = selftest.s3_tilde_homology
    # the tensor factor left in: HFK-hat is then the whole tilde table
    detail = _fails(monkeypatch, "C08", "s3_tilde_homology",
                    lambda d: replace(real(d), tensor_exponent=0))
    # (M, 4A) = (-1, -4): the tensor factor's lower summand
    assert detail == ("square-grid unknot baseline: "
                      "{0: {(-1, -4): 1, (0, 0): 1}}")


def test_c10_reports_differing_documents(monkeypatch):
    count = itertools.count()
    detail = _fails(monkeypatch, "C10", "document_bytes",
                    lambda doc: next(count))
    assert detail == "structured output differs across runs/pivots"


def test_run_all_reports_a_raising_criterion_and_goes_on(monkeypatch):
    def planted(gn1, rnd):
        raise ValueError("planted failure")
    monkeypatch.setattr(selftest, "build_corpus",
                        lambda seed: ([GN1], [KNOT]))
    monkeypatch.setattr(selftest, "criterion_04", planted)
    results = selftest.run_all()
    assert [(r.ident, r.name) for r in results] == list(selftest.CRITERIA)
    c04 = results[3]
    assert (c04.ok, c04.detail) == (False, "ValueError: planted failure")
    assert all(r.ok for r in results if r.ident not in ("C04", "C09"))
