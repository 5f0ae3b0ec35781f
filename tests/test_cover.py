import random
from fractions import Fraction

import pytest

from lensgrid import (GridDiagram, LensParams, S3GridDiagram, ValidationError,
                      format_s3_grid, lift_diagram, lift_generator,
                      lift_points, parse_s3_grid, reconstruct_link,
                      s3_tilde_homology, validate_s3)
from lensgrid.corpus import coprime_qs, random_diagram, random_knot_diagram
from lensgrid.cover import s3_link_components
from lensgrid.grid import Generator, canonical_generator

HALF = Fraction(1, 2)


def test_lift_points_examples():
    assert lift_points([(0, 0)], 5, 2, 1) == ((0, 0), (1, 3), (2, 1), (3, 4), (4, 2))
    assert set(lift_points([(0, 0)], 5, 2, 1)) == {(0, 0), (2, 1), (4, 2), (1, 3), (3, 4)}
    lifted = lift_points([(HALF, HALF)], 5, 2, 1)
    assert set(lifted) == {(HALF, HALF), (HALF + 2, HALF + 1), (HALF + 4, HALF + 2),
                           (HALF + 1, HALF + 3), (HALF + 3, HALF + 4)}
    assert set(lift_points([(1, 0)], 2, 1, 1)) == {(1, 0), (0, 1)}


def test_lift_points_range_error():
    with pytest.raises(ValidationError):
        lift_points([(5, 0)], 5, 2, 1)
    with pytest.raises(ValidationError):
        lift_points([(0, 1)], 5, 2, 1)


def test_lift_points_cardinality_and_union():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        q = rng.choice(coprime_qs(p))
        n = rng.choice([1, 2, 3])
        pts_a = {(rng.randrange(n * p), rng.randrange(n)) for _ in range(3)}
        pts_b = {(rng.randrange(n * p), rng.randrange(n)) for _ in range(3)}
        la, lb = set(lift_points(pts_a, p, q, n)), set(lift_points(pts_b, p, q, n))
        assert len(la) == p * len(pts_a)
        assert set(lift_points(pts_a | pts_b, p, q, n)) == la | lb


def test_lift_diagram_frozen_example():
    d = GridDiagram(LensParams(5, 2), 1, ((0, 0),), ((2, 0),))
    lifted = lift_diagram(d)
    assert lifted.N == 5
    assert set(lifted.O) == {(0, 0), (2, 1), (4, 2), (1, 3), (3, 4)}
    assert set(lifted.X) == {(2, 0), (4, 1), (1, 2), (3, 3), (0, 4)}
    assert validate_s3(lifted) == []


def test_lift_diagram_grid_number_six():
    d = GridDiagram(LensParams(3, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))
    assert lift_diagram(d).N == 6


def test_lift_diagram_invariants_random():
    rng = random.Random(2)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        q = rng.choice(coprime_qs(p))
        d = random_diagram(p, q, rng.choice([1, 2]), rng)
        assert validate_s3(lift_diagram(d)) == []


def test_lift_generator_is_lower_left_of_lifted_markers():
    d = GridDiagram(LensParams(2, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))
    lifted = lift_diagram(d)
    canon = canonical_generator(d)
    assert lift_generator(canon, d) == tuple(sorted(lifted.O, key=lambda c: c[1]))


def test_lift_generator_bijection():
    rng = random.Random(9)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        q = rng.choice(coprime_qs(p))
        n = rng.choice([1, 2])
        d = random_diagram(p, q, n, rng)
        sigma = list(range(n))
        rng.shuffle(sigma)
        g = Generator(tuple(sigma), tuple(rng.randrange(p) for _ in range(n)))
        pts = lift_generator(g, d)
        assert [r for (_, r) in pts] == list(range(p * n))
        assert sorted(c for (c, _) in pts) == list(range(p * n))


def test_lifted_component_count_matches_order():
    rng = random.Random(13)
    for _ in range(50):
        p = rng.choice([2, 3, 4, 5])
        q = rng.choice(coprime_qs(p))
        d = random_knot_diagram(p, q, rng.choice([1, 2]), rng)
        link = reconstruct_link(d)
        ell = len(s3_link_components(lift_diagram(d)))
        assert ell * link.order == p


def test_s3_parse_format_roundtrip():
    d = lift_diagram(GridDiagram(LensParams(5, 2), 1, ((0, 0),), ((2, 0),)))
    assert parse_s3_grid(format_s3_grid(d)) == d
    text = "2\nO: 0 1\nX: 1 0\n"
    assert format_s3_grid(parse_s3_grid(text)) == text


SQUARE_O = ((0, 0), (1, 1), (2, 2))
SQUARE_X = ((1, 0), (2, 1), (0, 2))


@pytest.mark.parametrize("diagram, prefix", [
    (S3GridDiagram(0, (), ()), "range-error: grid size"),
    (S3GridDiagram("3", SQUARE_O, SQUARE_X), "range-error: grid size"),
    (S3GridDiagram(True, ((0, 0),), ((0, 0),)), "range-error: grid size"),
    (S3GridDiagram(3, SQUARE_O[:2], SQUARE_X), "range-error: O must list"),
    (S3GridDiagram(3, ((0, 0), (1, 1), (3, 2)), SQUARE_X),
     "range-error: O has a cell outside"),
    (S3GridDiagram(3, ((1, 1), (0, 0), (2, 2)), SQUARE_X), "row-collision: O"),
    (S3GridDiagram(3, ((0, 0), (0, 1), (2, 2)), SQUARE_X),
     "column-collision: O")],
    ids=["N-0", "N-str", "N-bool", "O-short", "O-outside", "rows-unordered",
         "O-column-twice"])
def test_square_grid_refusals(diagram, prefix):
    assert validate_s3(S3GridDiagram(3, SQUARE_O, SQUARE_X)) == []
    violations = validate_s3(diagram)
    assert len(violations) == 1 and violations[0].startswith(prefix)
    for entry in (s3_link_components, s3_tilde_homology):
        with pytest.raises(ValidationError) as e:
            entry(diagram)
        assert e.value.violations == violations
