import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from lensgrid import (Generator, GridDiagram, LensParams, ParseError,
                      ValidationError, canonical_generator,
                      enumerate_grid_number_one, format_grid, parse_grid,
                      parse_s3_grid, reconstruct_link, require_knot, validate)
from lensgrid.corpus import coprime_qs, gn1_corpus, random_diagram
from lensgrid.errors import InternalInvariantError, KnotRequiredError
from lensgrid.grid import require_valid
from lensgrid.selftest import build_corpus

GOLDEN = Path(__file__).parent / "golden" / "grading_digests.json"


def diagram(p, q, n, o, x):
    return GridDiagram(LensParams(p, q), n, tuple(o), tuple(x))


def test_validate_gn1_ok():
    assert validate(diagram(5, 2, 1, [(0, 0)], [(2, 0)])) == []


def test_validate_gcd_failure():
    out = validate(diagram(4, 2, 1, [(0, 0)], [(1, 0)]))
    assert len(out) == 1 and out[0].startswith("gcd-failure")


def test_validate_column_collision():
    # O occupies columns 0 and 0 (s mod 2)
    out = validate(diagram(5, 2, 2, [(0, 0), (2, 1)], [(1, 0), (3, 1)]))
    assert any(v.startswith("column-collision: O") for v in out)
    assert any(v.startswith("column-collision: X") for v in out)


def test_validate_row_and_storage_errors():
    out = validate(diagram(3, 1, 2, [(0, 0), (1, 0)], [(1, 0), (0, 1)]))
    assert any(v.startswith("row-collision: O") for v in out)
    out = validate(diagram(3, 1, 2, [(0, 1), (1, 0)], [(1, 0), (0, 1)]))
    assert any(v.startswith("storage-order: O") for v in out)


def test_validate_range_errors():
    out = validate(diagram(3, 1, 2, [(6, 0), (1, 1)], [(1, 0), (0, 1)]))
    assert any(v.startswith("range-error: O[0]") for v in out)
    assert validate(diagram(3, 0, 1, [(0, 0)], [(1, 0)]))
    assert validate(diagram(3, 3, 1, [(0, 0)], [(1, 0)]))
    assert validate(diagram(1, 0, 1, [(0, 0)], [(0, 0)]))


def test_canonical_generator_gn1():
    d = diagram(5, 2, 1, [(0, 0)], [(2, 0)])
    assert canonical_generator(d) == Generator((0,), (0,))


def test_canonical_generator_n2():
    d = diagram(5, 2, 2, [(3, 0), (6, 1)], [(0, 0), (1, 1)])
    assert canonical_generator(d) == Generator((1, 0), (1, 3))


def test_generator_points_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        p, n = rng.choice([2, 3, 5]), rng.choice([1, 2, 3])
        sigma = list(range(n))
        rng.shuffle(sigma)
        a = tuple(rng.randrange(p) for _ in range(n))
        g = Generator(tuple(sigma), a)
        assert Generator.from_columns(g.columns) == g
        pts = g.points()
        assert len({s % n for (s, _) in pts}) == n


def test_reconstruct_gn1_knot():
    d = diagram(5, 2, 1, [(0, 0)], [(2, 0)])
    link = reconstruct_link(d)
    assert link.component_count == 1
    assert link.homology_class == 4
    assert link.order == 5


def test_reconstruct_o_equals_x():
    d = diagram(5, 2, 1, [(0, 0)], [(0, 0)])
    link = reconstruct_link(d)
    assert (link.component_count, link.homology_class, link.order) == (1, 0, 1)
    d2 = diagram(3, 1, 2, [(0, 0), (1, 1)], [(0, 0), (1, 1)])
    link2 = reconstruct_link(d2)
    assert (link2.component_count, link2.homology_class) == (2, 0)


def test_reconstruct_order_two():
    # L(4,1): X two beta strands over from O gives a class of order 2
    d = diagram(4, 1, 1, [(0, 0)], [(2, 0)])
    link = reconstruct_link(d)
    assert link.homology_class == 2 and link.order == 2


def test_order_divides_p():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3, 4, 5])
        q = rng.choice(coprime_qs(p))
        d = random_diagram(p, q, rng.choice([1, 2]), rng)
        assert p % reconstruct_link(d).order == 0


def scanned_homology_class(d):
    """``reconstruct_link``'s class with each marker's winding k found by
    scanning k = 0..p-1, the oracle for its closed form."""
    p, q, n = d.lens.p, d.lens.q, d.n
    width = n * p
    x_by_col = {s % n: (s, t) for (s, t) in d.X}
    total = 0
    for (s_o, t_o) in d.O:
        s_x, t_x = x_by_col[s_o % n]
        k = next(k for k in range(p) if (s_o - k * n * q - s_x) % width == 0)
        total += (t_x + k * n - t_o) % width
    return total // n % p


def test_reconstruct_link_matches_the_winding_scan():
    for d in gn1_corpus(range(2, 62)):
        assert reconstruct_link(d).homology_class == scanned_homology_class(d)
    rng = random.Random(8)
    for _ in range(500):
        p = rng.randrange(2, 40)
        d = random_diagram(p, rng.choice(coprime_qs(p)), rng.randint(1, 4), rng)
        assert reconstruct_link(d).homology_class == scanned_homology_class(d)


def test_reconstruct_link_refuses_an_odd_winding():
    # a planted verdict the markers do not earn: both X cells sit in row 0,
    # so the column arcs wind 5 rows, not a multiple of n; the winding
    # check is the last guard behind validation
    d = GridDiagram(LensParams(3, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 0)))
    assert d._violations
    d.__dict__["_violations"] = []
    with pytest.raises(InternalInvariantError,
                       match="net row winding 5 not divisible by n=2"):
        reconstruct_link(d)


def test_require_knot_rejects_links():
    d = diagram(3, 1, 2, [(0, 0), (1, 1)], [(0, 0), (1, 1)])
    with pytest.raises(KnotRequiredError):
        require_knot(d)


def test_a_valid_diagram_holds_no_list():
    # a diagram keeps its validate() verdict, which cannot go stale only
    # while a valid diagram is immutable all the way down
    gn1, rnd = build_corpus()
    golden = [parse_grid(row["grid"])
              for rows in json.loads(GOLDEN.read_text()).values()
              for row in rows]
    for d in gn1 + rnd + golden:
        assert validate(d) == []
        hash(d)
    base = diagram(5, 2, 2, [(3, 0), (6, 1)], [(0, 0), (1, 1)])
    assert validate(base) == []
    for bad in (replace(base, O=list(base.O)), replace(base, X=list(base.X)),
                replace(base, O=([3, 0], (6, 1))),
                replace(base, X=((0, 0), [1, 1])),
                replace(base, lens=LensParams(True, 1)),
                replace(base, n=True)):
        assert validate(bad)
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationError) as e:
                require_valid(bad)
            messages.append(str(e.value))
        assert messages[0] == messages[1] == "; ".join(validate(bad))


def test_enumerate_gn1():
    diagrams = enumerate_grid_number_one(LensParams(5, 2))
    assert len(diagrams) == 5
    assert [d.X[0][0] for d in diagrams] == [0, 1, 2, 3, 4]
    for d in diagrams:
        assert validate(d) == []
    with pytest.raises(ValidationError):
        enumerate_grid_number_one(LensParams(4, 2))


def test_parse_format_roundtrip():
    text = "5 2 1  # lens\nO: 0\nX: 2\n"
    d = parse_grid(text)
    assert d == diagram(5, 2, 1, [(0, 0)], [(2, 0)])
    assert parse_grid(format_grid(d)) == d
    rng = random.Random(3)
    for _ in range(25):
        d = random_diagram(5, 2, 2, rng)
        assert parse_grid(format_grid(d)) == d


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_grid("5 2 1\nO: zero\nX: 2\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_grid("5 2 1\nO: 0\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_grid("5 2 1\nQ: 0\nX: 2\n")
    assert e.value.line == 2
    # the square-grid format shares the tokenizer and its messages
    for text, line, message in (
            ("", 1, "unexpected end of file, expected grid size N"),
            ("0\nO:\nX:\n", 1, "N must be positive, got 0"),
            ("2\nO: 0 q\nX: 1 0\n", 2, "expected O column index, got 'q'"),
            ("2\nO: 0 1\n", 2, "unexpected end of file, expected 'X:' marker"),
            ("2\nP: 0 1\nX: 1 0\n", 2, "expected 'O:', got 'P:'"),
            ("2 # N\nO: 0\n1\nX: 1 0\n9\n", 5, "trailing input '9'")):
        with pytest.raises(ParseError) as e:
            parse_s3_grid(text)
        assert e.value.line == line
        assert e.value.violations == ["line %d: %s" % (line, message)]
