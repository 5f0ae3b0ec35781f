import dataclasses
import random
from fractions import Fraction

import pytest

from lensgrid import (Generator, GridDiagram, LensParams, S3GridDiagram,
                      enumerate_generators, extract_hfk_hat, generator_code,
                      gradings_table,
                      lift_diagram, lift_generator, maslov_grading,
                      s3_alexander_multi, s3_alexander_total, s3_maslov,
                      s3_tilde_homology, verify_cover_relations)
from lensgrid import s3
from lensgrid.corpus import (coprime_qs, gn1_corpus, random_knot_diagram,
                             random_knot_diagrams)
from lensgrid.cover import s3_link_components
from lensgrid.errors import InternalInvariantError

UNKNOT_2x2 = S3GridDiagram(2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))


def random_s3_diagram(N, rng):
    def cells():
        perm = list(range(N))
        rng.shuffle(perm)
        return tuple((perm[r], r) for r in range(N))
    return S3GridDiagram(N, cells(), cells())


def test_maslov_of_lower_left_generator():
    rng = random.Random(1)
    for N in (2, 3, 4, 5):
        for _ in range(5):
            d = random_s3_diagram(N, rng)
            lower_left = tuple(sorted(d.O, key=lambda c: c[1]))
            assert s3_maslov(lower_left, d.O) == -(N - 1)


def test_maslov_frozen_staircase():
    pts = ((0, 0), (2, 1), (4, 2), (1, 3), (3, 4))
    markers = pts  # lower-left corners of the cells at the same positions
    assert s3_maslov(pts, markers) == -4


def test_maslov_is_integer_and_shift_invariant():
    rng = random.Random(2)
    for _ in range(20):
        N = rng.choice([3, 4, 5])
        d = random_s3_diagram(N, rng)
        perm = list(range(N))
        rng.shuffle(perm)
        pts = tuple((perm[r], r) for r in range(N))
        m = s3_maslov(pts, d.O)
        assert isinstance(m, int)
        for shift in (1, 2):
            pts2 = tuple(sorted(((c, (r + shift) % N) for (c, r) in pts),
                                key=lambda t: t[1]))
            o2 = tuple(sorted(((c, (r + shift) % N) for (c, r) in d.O),
                              key=lambda t: t[1]))
            assert s3_maslov(pts2, o2) == m


def test_unknot_2x2_gradings_and_homology():
    id_gen = ((0, 0), (1, 1))
    swap_gen = ((1, 0), (0, 1))
    assert s3_maslov(id_gen, UNKNOT_2x2.O) == -1
    assert s3_maslov(swap_gen, UNKNOT_2x2.O) == 0
    assert s3_alexander_total(id_gen, UNKNOT_2x2) == -1
    assert s3_alexander_total(swap_gen, UNKNOT_2x2) == 0
    table = s3_tilde_homology(UNKNOT_2x2)
    assert table.classes[0] == {(-1, Fraction(-1)): 1, (0, Fraction(0)): 1}
    hat = extract_hfk_hat(table)
    assert hat.extraction_exact
    assert hat.hfk_hat[0] == {(0, Fraction(0)): 1}


def test_single_component_alexander_identity():
    # for a knot, total Alexander = (M_O - M_X - (N-1)) / 2
    rng = random.Random(3)
    for _ in range(10):
        N = rng.choice([2, 3, 4])
        d = random_s3_diagram(N, rng)
        if len(s3_link_components(d)) != 1:
            continue
        perm = list(range(N))
        rng.shuffle(perm)
        pts = tuple((perm[r], r) for r in range(N))
        a = s3_alexander_total(pts, d)
        m_o = s3_maslov(pts, d.O)
        m_x = s3_maslov(pts, d.X)
        assert a == Fraction(m_o - m_x - (N - 1), 2)
        multi = s3_alexander_multi(pts, d)
        assert len(multi) == 1 and multi[0] == a


def test_multi_component_alexander_sums():
    # lifted diagrams provide honest links; the multi-grading must sum to
    # the total, which carries the (components - 1)/2 correction
    rng = random.Random(4)
    lens_diagrams = [GridDiagram(LensParams(4, 1), 1, ((0, 0),), ((2, 0),)),
                     GridDiagram(LensParams(5, 2), 1, ((0, 0),), ((0, 0),))]
    for d in lens_diagrams:
        lifted = lift_diagram(d)
        ell = len(s3_link_components(lifted))
        assert ell > 1
        for _ in range(6):
            perm = list(range(lifted.N))
            rng.shuffle(perm)
            pts = tuple((perm[r], r) for r in range(lifted.N))
            multi = s3_alexander_multi(pts, lifted)
            assert len(multi) == ell
            assert sum(multi) == s3_alexander_total(pts, lifted)
            m_o = s3_maslov(pts, lifted.O)
            m_x = s3_maslov(pts, lifted.X)
            assert sum(multi) == Fraction(m_o - m_x - (lifted.N - 1), 2) \
                + Fraction(ell - 1, 2)


def test_trefoil_grid_homology():
    # the cyclic 5x5 grid with X one column right and O one column left of
    # the diagonal presents a trefoil; the extracted groups must be the
    # classical staircase with rank one in Alexander gradings -1, 0, 1
    X = tuple(((r + 1) % 5, r) for r in range(5))
    O = tuple(((r - 1) % 5, r) for r in range(5))
    table = extract_hfk_hat(s3_tilde_homology(S3GridDiagram(5, O, X)))
    assert table.extraction_exact
    assert table.hfk_hat[0] == {(2, Fraction(1)): 1, (1, Fraction(0)): 1,
                                (0, Fraction(-1)): 1}
    # Euler characteristic recovers the trefoil Alexander polynomial
    euler = {a: 0 for a in (-1, 0, 1)}
    for (m, a), r in table.hfk_hat[0].items():
        euler[a] += (-1) ** m * r
    assert euler == {Fraction(1): 1, Fraction(0): -1, Fraction(-1): 1}


def test_simple_knot_lifts_are_torus_knot_staircases():
    # a grid-number-one knot lies on the Heegaard torus, so its preimage
    # is a torus knot whenever connected; for p <= 5 those lifts are
    # unknotted and the extracted cover homology has rank one
    for (p, q) in ((3, 1), (5, 2)):
        for d in gn1_corpus((p,)):
            if d.lens.q != q:
                continue
            from lensgrid import reconstruct_link
            if reconstruct_link(d).order != p:
                continue
            table = extract_hfk_hat(s3_tilde_homology(lift_diagram(d)))
            assert table.extraction_exact
            assert table.hat_total_rank() == 1


def test_verify_cover_gn1_corpus():
    for d in gn1_corpus((2, 3)):
        report = verify_cover_relations(d)
        assert report.ok, (d, report.violations[:2])


def test_verify_cover_random_and_rows():
    rng = random.Random(5)
    d = random_knot_diagram(5, 2, 2, rng)
    report = verify_cover_relations(d)
    assert report.ok
    assert len(report.rows) == 50
    p = 5
    for row in report.rows:
        assert row["maslov"] == Fraction(row["cover_maslov"], p) \
            + (report.rows[0]["maslov"] - Fraction(report.rows[0]["cover_maslov"], p))


def test_eq1_relation_on_lifted_homology_case():
    # 4x4 lift of a grid-number-one L(2,1) knot: the lens Maslov gradings
    # of the 2 generators in each class scale by 1/2 against the cover
    d = GridDiagram(LensParams(2, 1), 1, ((0, 0),), ((1, 0),))
    lifted = lift_diagram(d)
    assert lifted.N == 2
    d2 = GridDiagram(LensParams(2, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))
    lifted2 = lift_diagram(d2)
    assert lifted2.N == 4
    table = s3_tilde_homology(lifted2)
    assert table.total_rank() >= 2
    gens = list(enumerate_generators(d2))
    grading = gradings_table(d2, gens)
    for x in gens:
        pts = lift_generator(x, d2)
        assert 2 * (grading[x].maslov - grading[gens[0]].maslov) \
            == s3_maslov(pts, lifted2.O) - s3_maslov(lift_generator(gens[0], d2), lifted2.O)


def test_verify_cover_reports_a_shifted_maslov_grading(monkeypatch):
    # negative control: the per-call hoisting of marker terms must leave
    # every generator checked against its own lift
    d = random_knot_diagrams(5, 2, 2, 1, seed=3)[0]
    assert verify_cover_relations(d).ok
    real = s3.gradings_table
    gens = list(enumerate_generators(d))
    victim = gens[len(gens) // 2]

    def shifted(diagram, generators):
        table = real(diagram, generators)
        t = table[victim]
        table[victim] = dataclasses.replace(
            t, maslov=t.maslov + Fraction(1, diagram.lens.p))
        return table

    monkeypatch.setattr(s3, "gradings_table", shifted)
    report = verify_cover_relations(d)
    assert not report.ok
    assert all(repr(victim) in v for v in report.violations)
    assert len(report.violations) == 2


def test_misplaced_square_grid_term_is_an_invariant_violation(monkeypatch):
    # negative control: one term x -> x stays in x's Maslov level, so the
    # shared elimination routine must refuse it
    trefoil = S3GridDiagram(5, tuple(((r - 1) % 5, r) for r in range(5)),
                            tuple(((r + 1) % 5, r) for r in range(5)))
    s3_tilde_homology(trefoil)
    real = s3.collect_terms
    identity = generator_code(Generator(tuple(range(5)), (0,) * 5), 1)

    def misplaced(*args):
        terms = real(*args)
        terms[identity] = ((identity, (0,) * 5),) + terms[identity]
        return terms

    monkeypatch.setattr(s3, "collect_terms", misplaced)
    with pytest.raises(InternalInvariantError):
        s3_tilde_homology(trefoil)
