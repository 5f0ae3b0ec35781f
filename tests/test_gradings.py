import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lensgrid import (Generator, GridDiagram, LensParams, ValidationError,
                      alexander_grading, canonical_generator, d_invariant,
                      dominance_count, generator_code, grading_denominators,
                      gradings_table, maslov_grading, spin_grading)
from lensgrid.cli import main
from lensgrid.corpus import (coprime_qs, random_knot_diagram,
                             random_knot_diagrams)
from lensgrid.errors import KnotRequiredError
from lensgrid.grid import enumerate_grid_number_one, format_grid
from lensgrid.selftest import build_corpus

GOLDEN = Path(__file__).parent / "golden" / "grading_digests.json"
GRADED_COMMANDS = ("gradings", "verify-cover", "homology")

STAIRCASE = ((0, 0), (2, 1), (4, 2), (1, 3), (3, 4))

L21 = GridDiagram(LensParams(2, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))


def test_dominance_count_basics():
    assert dominance_count([(0, 0)], [(1, 1)]) == 1
    assert dominance_count([(0, 0), (1, 1)], []) == 0
    assert dominance_count(STAIRCASE, STAIRCASE) == 7


def pair_scan_dominance(first, second):
    """The quadratic definition of ``dominance_count``, kept as its oracle."""
    return sum(1 for a in first for b in second if a[0] < b[0] and a[1] < b[1])


# coordinates from a 5 x 5 box, so ties in x, in y and repeated points are
# common; lists may be empty
BOX_POINTS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                      max_size=14)


@settings(max_examples=150, database=None, derandomize=True)
@given(BOX_POINTS, BOX_POINTS)
def test_dominance_count_matches_the_pair_scan(first, second):
    for a, b in ((first, second), (second, first), (first, first),
                 (first + first, first + second)):
        assert dominance_count(a, b) == pair_scan_dominance(a, b)


def test_symmetric_dominance_examples():
    assert Fraction(dominance_count([(0, 0)], [(1, 1)])
                    + dominance_count([(1, 1)], [(0, 0)]), 2) == Fraction(1, 2)


def test_d_invariant_anchors():
    assert d_invariant(1, 0, 0) == 0
    assert d_invariant(2, 1, 0) == Fraction(-1, 4)
    assert d_invariant(2, 1, 1) == Fraction(1, 4)
    assert d_invariant(5, 2, 1) == Fraction(-2, 5)


def test_d_invariant_tables():
    assert [d_invariant(3, 1, i) for i in range(3)] == [
        Fraction(-1, 2), Fraction(1, 6), Fraction(1, 6)]
    assert [d_invariant(3, 2, i) for i in range(3)] == [
        Fraction(-1, 6), Fraction(-1, 6), Fraction(1, 2)]
    assert [d_invariant(5, 2, i) for i in range(5)] == [
        Fraction(-2, 5), Fraction(-2, 5), Fraction(2, 5), Fraction(0),
        Fraction(2, 5)]
    assert {d_invariant(2, 1, i) for i in range(2)} == {Fraction(-1, 4),
                                                        Fraction(1, 4)}


def test_d_invariant_normalisation():
    for i in range(3):
        assert d_invariant(3, -1, i) == d_invariant(3, 2, i)
    assert d_invariant(5, 2, 6) == d_invariant(5, 2, 1)
    with pytest.raises(ValidationError):
        d_invariant(4, 2, 0)


def test_spin_grading_gn1():
    d = GridDiagram(LensParams(5, 2), 1, ((0, 0),), ((2, 0),))
    assert spin_grading(canonical_generator(d), d) == 1
    assert spin_grading(Generator((0,), (3,)), d) == 4


def test_spin_grading_relative():
    rng = random.Random(3)
    for _ in range(25):
        p = rng.choice([3, 5])
        q = rng.choice(coprime_qs(p))
        d = random_knot_diagram(p, q, 2, rng)
        for _ in range(5):
            a1 = tuple(rng.randrange(p) for _ in range(2))
            a2 = tuple(rng.randrange(p) for _ in range(2))
            x1, x2 = Generator((0, 1), a1), Generator((1, 0), a2)
            assert (spin_grading(x2, d) - spin_grading(x1, d)) % p \
                == (sum(a2) - sum(a1)) % p


def test_maslov_anchor_gn1():
    d = GridDiagram(LensParams(5, 2), 1, ((0, 0),), ((2, 0),))
    assert maslov_grading(canonical_generator(d), d) == Fraction(-2, 5)


def test_frozen_l21_values():
    # every value below was computed by hand from the dominance counts
    table = {
        Generator((0, 1), (0, 0)): (Fraction(-5, 4), Fraction(-1, 4), Fraction(-1)),
        Generator((1, 0), (0, 0)): (Fraction(-1, 4), Fraction(-5, 4), Fraction(0)),
        Generator((0, 1), (0, 1)): (Fraction(-3, 4), Fraction(-7, 4), Fraction(0)),
        Generator((1, 0), (0, 1)): (Fraction(1, 4), Fraction(-3, 4), Fraction(0)),
    }
    for x, (m_o, m_x, a) in table.items():
        assert maslov_grading(x, L21, "O") == m_o
        assert maslov_grading(x, L21, "X") == m_x
        assert alexander_grading(x, L21) == a
    assert canonical_generator(L21) == Generator((0, 1), (0, 0))


def test_alexander_symmetry():
    rng = random.Random(4)
    for _ in range(12):
        p = rng.choice([2, 3, 5])
        q = rng.choice(coprime_qs(p))
        d = random_knot_diagram(p, q, 2, rng)
        swapped = GridDiagram(d.lens, d.n, d.X, d.O)
        for _ in range(6):
            sigma = [0, 1] if rng.random() < 0.5 else [1, 0]
            x = Generator(tuple(sigma), tuple(rng.randrange(p) for _ in range(2)))
            assert alexander_grading(x, swapped) \
                == -alexander_grading(x, d) - (d.n - 1)


def test_gradings_table_matches_pointwise():
    # the full grid-number-one families at p = 61 take seconds through the
    # full-lift scans, so every fifth j of them; the golden digests cover
    # every j
    rng = random.Random(8)
    diagrams = [random_knot_diagram(3, 2, 2, rng),
                random_knot_diagram(5, -2, 3, rng),
                random_knot_diagram(3, 1, 4, rng)]
    for (p, q, step) in ((29, 3, 1), (29, -12, 1), (61, 2, 5), (61, -17, 5)):
        diagrams += enumerate_grid_number_one(LensParams(p, q))[::step]
    from lensgrid.complexes import enumerate_generators
    for d in diagrams:
        gens = list(enumerate_generators(d))
        p = d.lens.p
        table = gradings_table(d, [(generator_code(x, p), x.columns)
                                   for x in gens])
        dm, da = grading_denominators(d)
        for x in gens:
            t = table[generator_code(x, p)]
            assert t.spin == spin_grading(x, d)
            assert Fraction(t.maslov, dm) == maslov_grading(x, d)
            assert Fraction(t.alexander, da) == alexander_grading(x, d)


def test_gradings_refuse_links():
    link = GridDiagram(LensParams(3, 1), 2, ((0, 0), (1, 1)), ((0, 0), (1, 1)))
    with pytest.raises(KnotRequiredError):
        alexander_grading(Generator((0, 1), (0, 0)), link)


def grading_golden_digests(tmp_path):
    """sha256 of the structured gradings, verify-cover and homology
    documents, per diagram of three sets.

    tests/golden/grading_digests.json holds this dict as computed by the
    per-generator dominance scans that preceded the per-diagram grading
    tables; ``json.dumps(grading_golden_digests(tmp), indent=1,
    sort_keys=True)`` regenerates it.
    """
    gn1, rnd = build_corpus()
    families = ((29, 3), (29, -12), (37, 7), (37, -5), (61, 2), (61, -17))
    sets = {
        "selftest.build_corpus()": gn1 + rnd,
        "enumerate_grid_number_one(L(p, q))": [
            d for (p, q) in families
            for d in enumerate_grid_number_one(LensParams(p, q))],
        "random_knot_diagrams(p, q, n, count, seed=1)": [
            d for (p, q, n, count) in ((11, 3, 2, 2), (3, 1, 3, 2),
                                       (3, -1, 3, 2), (5, 2, 3, 2),
                                       (2, 1, 4, 1))
            for d in random_knot_diagrams(p, q, n, count, seed=1)],
    }
    path = tmp_path / "d.grid"
    out = {}
    for name, diagrams in sets.items():
        rows = []
        for d in diagrams:
            row = {"grid": format_grid(d)}
            path.write_text(row["grid"])
            for command in GRADED_COMMANDS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main([command, str(path), "--format", "structured"])
                assert code == 0, (command, row["grid"])
                row[command] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            rows.append(row)
        out[name] = rows
    return out


def test_graded_documents_match_golden_digests(tmp_path):
    assert grading_golden_digests(tmp_path) == json.loads(GOLDEN.read_text())
