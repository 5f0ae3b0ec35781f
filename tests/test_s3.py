import random
from fractions import Fraction

import pytest

from lensgrid import (Generator, GridDiagram, LensParams, S3GridDiagram,
                      enumerate_generators, extract_hfk_hat, generator_code,
                      generator_columns, grading_denominators, gradings_table,
                      lift_diagram, lift_generator, maslov_grading,
                      s3_alexander_total, s3_maslov,
                      s3_tilde_homology, verify_cover_relations)
from lensgrid import homology, s3
from lensgrid.corpus import (coprime_qs, gn1_corpus, random_knot_diagram,
                             random_knot_diagrams)
from lensgrid.cover import s3_link_components
from lensgrid.errors import InternalInvariantError, SizeCapError

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


def test_multi_component_alexander_sums():
    # lifted diagrams provide honest links; the total Alexander grading
    # carries the (components - 1)/2 correction
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
            m_o = s3_maslov(pts, lifted.O)
            m_x = s3_maslov(pts, lifted.X)
            assert s3_alexander_total(pts, lifted) \
                == Fraction(m_o - m_x - (lifted.N - 1), 2) + Fraction(ell - 1, 2)


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
    grading = gradings_table(d2, list(generator_columns(2, 2)))
    dm = grading_denominators(d2)[0]
    code = {x: generator_code(x, 2) for x in gens}
    for x in gens:
        pts = lift_generator(x, d2)
        assert 2 * Fraction(grading[code[x]].maslov
                            - grading[code[gens[0]]].maslov, dm) \
            == s3_maslov(pts, lifted2.O) - s3_maslov(lift_generator(gens[0], d2), lifted2.O)


def sweep_diagrams():
    out = [d for (p, q) in ((7, 2), (7, -3), (29, 3))
           for d in gn1_corpus((p,)) if d.lens.q == q]
    for (p, q, n, count) in ((11, 3, 2, 3), (5, -2, 2, 3), (3, -1, 3, 2),
                             (5, 2, 3, 2)):
        out += random_knot_diagrams(p, q, n, count, seed="sweep")
    return out


def test_cover_sweep_matches_the_per_point_gradings():
    # the one-pass sweep of verify_cover_relations and s3_tilde_homology
    # against the per-point reference, generator by generator
    for d in sweep_diagrams():
        lifted = lift_diagram(d)
        ell = len(s3_link_components(lifted))
        gens = list(enumerate_generators(d))
        swept = list(s3._cover_gradings(d.n, d.lens.q, lifted, ell,
                                        [x.columns for x in gens]))
        assert len(swept) == len(gens)
        for x, (m, a4) in zip(gens, swept):
            lift = lift_generator(x, d)
            assert (m, a4) == (s3_maslov(lift, lifted.O),
                               4 * s3_alexander_total(lift, lifted)), (d, x)
    # a square grid is its own cover: n = N and q = 0
    rng = random.Random("sweep")
    is_knot = set()
    for N in range(2, 7):
        for _ in range(4):
            d = random_s3_diagram(N, rng)
            ell = len(s3_link_components(d))
            is_knot.add(ell == 1)
            cols = [cols for _, cols in generator_columns(N, 1)]
            swept = list(s3._cover_gradings(N, 0, d, ell, cols))
            assert len(swept) == len(cols)
            for c, (m, a4) in zip(cols, swept):
                pts = tuple(zip(c, range(N)))
                assert (m, a4) == (s3_maslov(pts, d.O),
                                   4 * s3_alexander_total(pts, d)), (d, c)
    assert is_knot == {True, False}   # knots and multi-component links


def test_cover_sweep_refuses_a_lift_that_is_not_a_bijection():
    # negative control: rows 0 and 1 both in residue 0 mod 2, so the lift
    # meets the even columns twice and the odd ones never
    d = random_knot_diagrams(5, -2, 2, 1, seed="sweep")[0]
    lifted = lift_diagram(d)
    ell = len(s3_link_components(lifted))
    with pytest.raises(InternalInvariantError, match=r"columns \(0, 2\)"):
        s3._cover_gradings(d.n, d.lens.q, lifted, ell, [(0, 1), (0, 2)])


def test_square_grid_homology_grades_through_the_sweep(monkeypatch):
    # s3_tilde_homology grades by the one-pass sweep: with the per-point
    # dominance counts of s3 broken, the unknot, the trefoil and a lifted
    # grid keep their tables
    grids = [UNKNOT_2x2,
             S3GridDiagram(5, tuple(((r - 1) % 5, r) for r in range(5)),
                           tuple(((r + 1) % 5, r) for r in range(5))),
             lift_diagram(GridDiagram(LensParams(2, 1), 2, ((0, 0), (1, 1)),
                                      ((1, 0), (0, 1))))]
    tables = [s3_tilde_homology(d) for d in grids]

    def broken(first, second):
        raise AssertionError("per-point dominance count called")

    monkeypatch.setattr(s3, "dominance_count", broken)
    with pytest.raises(AssertionError, match="per-point"):
        s3_alexander_total(((0, 0), (1, 1)), UNKNOT_2x2)
    assert [s3_tilde_homology(d) for d in grids] == tables


@pytest.mark.parametrize("grading, relations", [
    ("maslov", ("absolute Maslov shift", "relative Maslov relation")),
    ("alexander", ("relative Alexander relation",))],
    ids=["maslov", "alexander"])
def test_verify_cover_reports_a_shifted_grading(monkeypatch, grading,
                                                relations):
    # negative control: the per-call hoisting of marker terms must leave
    # every generator checked against its own lift, so a grading shifted
    # by 1/p breaks exactly that generator's relations of that grading
    d = random_knot_diagrams(5, 2, 2, 1, seed=3)[0]
    assert verify_cover_relations(d).ok
    real = s3.gradings_table
    gens = list(enumerate_generators(d))
    victim = gens[len(gens) // 2]
    code = generator_code(victim, 5)
    denominator = dict(zip(("maslov", "alexander"), grading_denominators(d)))

    def shifted(diagram, generators):
        # the table holds numerators: a shift by 1/p adds denominator/p
        table = real(diagram, generators)
        t = table[code]
        table[code] = t._replace(**{grading: getattr(t, grading)
                                    + denominator[grading] // diagram.lens.p})
        return table

    monkeypatch.setattr(s3, "gradings_table", shifted)
    report = verify_cover_relations(d)
    assert report.violations == ["%s fails for %r" % (r, victim)
                                 for r in relations]


def test_misplaced_square_grid_term_is_an_invariant_violation(monkeypatch):
    # negative control: one term x -> x stays in x's Maslov level, so the
    # shared elimination routine must refuse it
    trefoil = S3GridDiagram(5, tuple(((r - 1) % 5, r) for r in range(5)),
                            tuple(((r + 1) % 5, r) for r in range(5)))
    s3_tilde_homology(trefoil)
    real = homology.admissible_entries
    identity = Generator(tuple(range(5)), (0,) * 5).columns
    # code delta 0 and no markers inside: a term x -> x
    loop = (0, 0, (0,) * 5, (0,) * 5, 1, 1, 0, 0)

    def misplaced(*args):
        entries = real(*args)

        def added(cols):
            out = entries(cols)
            return [loop] + out if cols == identity else out
        return added

    monkeypatch.setattr(homology, "admissible_entries", misplaced)
    with pytest.raises(InternalInvariantError):
        s3_tilde_homology(trefoil)


def test_square_grid_cap_refuses_a_huge_grid():
    # N! has over 5,700 digits at N = 2,000; the refusal names a bound
    # instead of the number
    N = 2000
    grid = S3GridDiagram(N, tuple((r, r) for r in range(N)),
                         tuple(((r + 1) % N, r) for r in range(N)))
    with pytest.raises(SizeCapError) as e:
        s3_tilde_homology(grid, cap=10)
    assert str(e.value) == ("refusing to enumerate 2000! > 10^100 generators "
                            "(cap 10)")
