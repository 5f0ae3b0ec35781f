import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lensgrid import (GridDiagram, LensParams, S3GridDiagram, ValidationError,
                      format_s3_grid, lift_diagram, lift_generator,
                      lift_points, parse_s3_grid, reconstruct_link,
                      s3_tilde_homology, validate, validate_s3)
from lensgrid.corpus import coprime_qs, random_diagram, random_knot_diagram
from lensgrid import cover
from lensgrid.cover import s3_link_components
from lensgrid.errors import InternalInvariantError
from lensgrid.grid import Generator, canonical_generator, require_valid

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


def test_broken_lifts_are_invariant_violations(monkeypatch):
    d = GridDiagram(LensParams(2, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))
    real = cover.lift_points
    # every lifted marker in column 0
    monkeypatch.setattr(cover, "lift_points", lambda points, p, q, n: tuple(
        (0, r) for _, r in real(points, p, q, n)))
    with pytest.raises(InternalInvariantError) as raised:
        lift_diagram(d)
    assert str(raised.value).startswith(
        "lifted diagram invalid: column-collision: O cells in rows "
        "[0, 1, 2, 3] share column 0;")
    # one lifted point lost
    monkeypatch.setattr(cover, "lift_points",
                        lambda points, p, q, n: real(points, p, q, n)[1:])
    with pytest.raises(InternalInvariantError,
                       match=r"^lifted generator is not a bijection: "):
        lift_generator(canonical_generator(d), d)


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
    (S3GridDiagram(3, SQUARE_O[:2], SQUARE_X),
     "range-error: O must be a tuple of exactly 3 cells"),
    (S3GridDiagram(3, ((0, 0), (1, 1), (3, 2)), SQUARE_X),
     "range-error: O[2] = (3, 2) outside [0, 3) x [0, 3)"),
    (S3GridDiagram(3, ((1, 1), (0, 0), (2, 2)), SQUARE_X),
     "storage-order: O must be stored row-major"),
    (S3GridDiagram(3, ((0, 0), (0, 1), (2, 2)), SQUARE_X),
     "column-collision: O cells in rows [0, 1] share column 0"),
    (S3GridDiagram(3, list(SQUARE_O), SQUARE_X),
     "range-error: O must be a tuple"),
    (S3GridDiagram(3, ([0, 0], (1, 1), (2, 2)), SQUARE_X),
     "range-error: O[0] = [0, 0] outside"),
    (S3GridDiagram(3, None, SQUARE_X), "range-error: O must be a tuple"),
    (S3GridDiagram(3, ((0, 0, 0), (1, 1), (2, 2)), SQUARE_X),
     "range-error: O[0] = (0, 0, 0) outside")],
    ids=["N-0", "N-str", "N-bool", "O-short", "O-outside", "rows-unordered",
         "O-column-twice", "O-list", "list-cell", "O-None", "three-int-cell"])
def test_square_grid_refusals(diagram, prefix):
    assert validate_s3(S3GridDiagram(3, SQUARE_O, SQUARE_X)) == []
    violations = validate_s3(diagram)
    assert len(violations) == 1 and violations[0].startswith(prefix)
    for entry in (s3_link_components, s3_tilde_homology):
        with pytest.raises(ValidationError) as e:
            entry(diagram)
        assert e.value.violations == violations


def test_int_cells_are_range_errors():
    # O = (0, 1, 2) once escaped as a TypeError from the unpacking
    diagram = S3GridDiagram(3, (0, 1, 2), SQUARE_X)
    violations = validate_s3(diagram)
    assert violations == ["range-error: O[%d] = %d outside [0, 3) x [0, 3)"
                          % (i, i) for i in range(3)]
    for entry in (s3_link_components, s3_tilde_homology):
        with pytest.raises(ValidationError) as e:
            entry(diagram)
        assert e.value.violations == violations


# square grids of size up to 5 whose size, cells or marker families are
# sometimes replaced by arbitrary values
JUNK = st.one_of(st.none(), st.integers(-2, 6), st.booleans(),
                 st.text(max_size=2), st.lists(st.integers(0, 5), max_size=3),
                 st.tuples(), st.tuples(st.integers(0, 5)),
                 st.tuples(st.integers(0, 5), st.integers(0, 5),
                           st.integers(0, 5)))
CELLS = st.one_of(JUNK, st.tuples(JUNK, JUNK))


@st.composite
def square_grids(draw):
    size = draw(st.integers(1, 5))
    N = [size, size, draw(st.integers(-1, 6)), draw(JUNK)][
        draw(st.integers(0, 3))]

    def family():
        cells = [(c, r) for r, c in enumerate(draw(st.permutations(
            range(size))))]
        how = draw(st.integers(0, 5))
        if how == 3:
            for _ in range(draw(st.integers(1, 2))):
                cells[draw(st.integers(0, size - 1))] = draw(
                    st.tuples(st.integers(0, size), st.integers(0, size))
                    if draw(st.booleans()) else CELLS)
        elif how == 4:
            return cells[:draw(st.integers(0, size))]   # a list
        elif how == 5:
            return draw(JUNK)
        return tuple(cells)

    return S3GridDiagram(N, family(), family())


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(diagram=square_grids())
def test_square_grid_checks_refuse_rather_than_raise(diagram):
    violations = validate_s3(diagram)
    assert isinstance(violations, list)
    for entry in (s3_link_components, s3_tilde_homology):
        try:
            entry(diagram)
        except ValidationError as e:
            assert violations and e.violations == violations
        else:
            assert violations == []


def test_a_lens_must_be_lens_params():
    # a mutable lens with valid ints once passed, and the diagram's cached
    # verdict then outlived a change to the lens
    lens = types.SimpleNamespace(p=5, q=2)
    d = GridDiagram(lens, 1, ((0, 0),), ((2, 0),))
    violations = ["range-error: lens must be a LensParams "
                  "(got namespace(p=5, q=2))"]
    assert validate(d) == violations
    for entry in (require_valid, reconstruct_link, lift_diagram):
        with pytest.raises(ValidationError) as e:
            entry(d)
        assert e.value.violations == violations
    lens.p = 4
    assert validate(d) == [violations[0].replace("p=5", "p=4")]
    with pytest.raises(ValidationError):
        require_valid(d)
