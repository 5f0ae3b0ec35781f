import dataclasses
import hashlib
import json
import random
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest

from lensgrid import (Generator, GridDiagram, LensParams, SizeCapError,
                      boundary_export_lines, build_boundary,
                      enumerate_generators, generator_code,
                      generator_from_code, grading_drop_violations,
                      lift_diagram, parallelograms_from, square_is_zero)
from lensgrid import complexes
from lensgrid.complexes import (SparseBoundary, generator_codes, lens_torus,
                                parallelogram_table, torus_winding)
from lensgrid.corpus import (coprime_qs, random_diagram, random_knot_diagram,
                             random_knot_diagrams)
from lensgrid.grid import format_grid
from lensgrid.selftest import build_corpus

import parallelogram_oracle as oracle

GOLDEN = Path(__file__).parent / "golden" / "boundary_digests.json"
VARIANTS = ("tilde", "assoc-graded", "hat", "minus")

L21 = GridDiagram(LensParams(2, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))


def test_enumerate_generator_counts():
    d = GridDiagram(LensParams(5, 2), 1, ((0, 0),), ((2, 0),))
    assert len(list(enumerate_generators(d))) == 5
    d = GridDiagram(LensParams(3, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))
    assert len(list(enumerate_generators(d))) == 18
    rng = random.Random(0)
    d = random_diagram(5, 2, 3, rng)
    assert len(list(enumerate_generators(d))) == 750


def test_enumeration_is_lexicographic_and_duplicate_free():
    d = GridDiagram(LensParams(3, 1), 2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))
    gens = list(enumerate_generators(d))
    assert len(set(gens)) == len(gens)
    assert gens == sorted(gens, key=Generator.sort_key)


def test_cap_refusal_names_the_formula():
    d = GridDiagram(LensParams(5, 2), 3,
                    ((0, 0), (1, 1), (2, 2)), ((1, 0), (2, 1), (0, 2)))
    with pytest.raises(SizeCapError) as e:
        list(enumerate_generators(d, cap=100))
    assert "3! * 5^3 = 750" in str(e.value)


def test_no_rectangles_at_grid_number_one():
    d = GridDiagram(LensParams(5, 2), 1, ((0, 0),), ((2, 0),))
    for x in enumerate_generators(d):
        assert parallelograms_from(x, d) == []


def test_tall_parallelogram_frozen_example():
    # hand-checked: on L(2,1) the width-1, height-3 box from {(0,0),(3,1)}
    # is embedded, admissible, covers the cells (0,0), (0,1), (2,0) and
    # therefore one O and one X, and lands on {(1,0),(2,1)}
    x = Generator((0, 1), (0, 1))
    tall = [P for P in parallelograms_from(x, L21)
            if P.width == 1 and P.height == 3 and P.moved_rows == (0, 1)]
    assert len(tall) == 1
    P = tall[0]
    assert P.o_counts == (1, 0) and P.x_counts == (0, 1)
    assert P.target == Generator((1, 0), (0, 1))
    assert P.sw == (0, 0)


def test_counts_are_zero_or_one():
    rng = random.Random(21)
    for _ in range(15):
        p = rng.choice([3, 5])
        d = random_diagram(p, rng.choice(coprime_qs(p)), 2, rng)
        for x in enumerate_generators(d):
            for P in parallelograms_from(x, d):
                assert set(P.o_counts) <= {0, 1}
                assert set(P.x_counts) <= {0, 1}


def table_candidates(table, cols, width):
    """(i, j, m, w, h) of the table's entries at a placement's corner
    columns: its embedded candidates, before admissibility."""
    n = len(cols)
    return [(i, j, (h - j + i) // n, w, h)
            for (i, j), cells in table.items()
            for (_, _, _, _, w, h, _, _) in cells[cols[i] * width + cols[j]]]


def test_candidate_census_twisted():
    """Structural counts the twisted torus actually satisfies.

    Each ordered row pair carries one corner-compatible candidate per
    height band, p bands in all, so the raw census is p*n*(n-1); the
    (i,j,m) <-> (j,i,p-m) complement pairing matches widths to n*p and
    heights to p*n; within the lowest band the two candidates of a row
    pair have heights summing to n and widths summing to n*q mod n*p.
    The embedded census sits between n*(n-1) and p*n*(n-1).
    """
    rng = random.Random(7)
    for (p, q) in ((2, 1), (3, 1), (3, 2), (5, 2), (5, -3)):
        n = rng.choice([2, 3])
        d = random_diagram(p, q, n, rng)
        width, shear = n * p, n * q
        assert torus_winding(width, shear) == p
        table = parallelogram_table(lens_torus(d))
        for x in list(enumerate_generators(d))[:: max(1, p)]:
            raw = oracle.raw_candidates(x.columns, n, width, shear)
            assert len(raw) == p * n * (n - 1)
            by_key = {(i, j, m): (w, h) for (i, j, m, w, h) in raw}
            for (i, j, m), (w, h) in by_key.items():
                m0 = 0 if j > i else 1
                w2, h2 = by_key[(j, i, (1 - m0) + (p - 1) - (m - m0))]
                assert w + w2 == width and h + h2 == p * n
            short = [rec for rec in raw if rec[4] < n]
            assert len(short) == n * (n - 1)
            for (i, j, m, w, h) in short:
                (i2, j2, m2, w2, h2) = next(
                    rec for rec in short if (rec[0], rec[1]) == (j, i))
                assert h + h2 == n
                assert (w + w2 - shear) % width == 0
            emb = table_candidates(table, x.columns, width)
            assert n * (n - 1) <= len(emb) <= p * n * (n - 1)
            assert all(rec in raw for rec in emb)


def test_untwisted_torus_recovers_classical_census():
    # shear 0 is the square grid: exactly two rectangles per unordered
    # pair, complementary in both width and height
    N = 4
    cols = (2, 0, 3, 1)
    cells = tuple((c, r) for r, c in enumerate(cols))
    raw = table_candidates(parallelogram_table((N, 1, 0, cells, cells)),
                           cols, N)
    assert len(raw) == N * (N - 1)
    for (i, j, m, w, h) in raw:
        (w2, h2) = next((w2, h2) for (i2, j2, m2, w2, h2) in raw
                        if (i2, j2) == (j, i))
        assert w + w2 == N and h + h2 == N


def test_n2_all_embedded_candidates_admissible():
    rng = random.Random(17)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        d = random_diagram(p, rng.choice(coprime_qs(p)), 2, rng)
        table = parallelogram_table(lens_torus(d))
        for x in enumerate_generators(d):
            assert (len(parallelograms_from(x, d))
                    == len(table_candidates(table, x.columns, d.width)))


def test_short_only_recipe_breaks_d_squared():
    """Dropping the parallelograms taller than one row period must break
    d^2 = 0; the winding candidates are genuine differential terms."""
    rng = random.Random(99)
    found = 0
    for _ in range(12):
        d = random_diagram(3, 1, 2, rng)
        full = build_boundary(d, "tilde")
        assert square_is_zero(full)
        truncated = {}
        for x in enumerate_generators(d):
            bucket = Counter()
            for P in parallelograms_from(x, d):
                if P.height >= d.n or any(P.o_counts) or any(P.x_counts):
                    continue
                bucket[(generator_code(P.target, 3), (0, 0))] += 1
            truncated[generator_code(x, 3)] = tuple(sorted(
                t for t, c in bucket.items() if c % 2))
        if not square_is_zero(dataclasses.replace(full, terms=truncated)):
            found += 1
    assert found > 0


def test_square_is_zero_tells_monomials_apart():
    # 0 -> 3 along two paths, through 1 with U_0 * U_0 and through 2 with
    # U_1: different monomials, which must not cancel
    terms = {0: ((1, (1, 0)), (2, (0, 0))), 1: ((3, (1, 0)),),
             2: ((3, (0, 1)),), 3: ()}
    assert not square_is_zero(SparseBoundary(n=2, p=2, variant="minus",
                                             terms=terms))
    terms[0] = ((1, (1, 0)), (2, (1, 0)))
    terms[2] = ((3, (1, 0)),)
    assert square_is_zero(SparseBoundary(n=2, p=2, variant="minus",
                                         terms=terms))


def test_boundaries_square_to_zero():
    rng = random.Random(31)
    for (p, q) in ((2, 1), (3, 2)):
        d = random_diagram(p, q, 2, rng)
        for variant in ("tilde", "assoc-graded", "hat", "minus"):
            assert square_is_zero(build_boundary(d, variant)), (variant, d)


def test_gn1_boundaries_vanish():
    for q in (1, 2, -2):
        d = GridDiagram(LensParams(3, q), 1, ((0, 0),), ((1, 0),))
        for variant in VARIANTS:
            boundary = build_boundary(d, variant)
            assert all(not terms for terms in boundary.terms.values())


def test_term_set_inclusions_and_monomials():
    rng = random.Random(41)
    d = random_knot_diagram(3, 1, 2, rng)
    tilde, graded, hat, minus = (build_boundary(d, v) for v in VARIANTS)
    zero = (0, 0)
    for x in minus.terms:
        m_terms = set(minus.terms[x])
        assert set(hat.terms[x]) == {t for t in m_terms if t[1][0] == 0}
        assert set(graded.terms[x]) <= m_terms
        assert set(tilde.terms[x]) == {t for t in graded.terms[x] if t[1] == zero}
    # monomial exponents record the O counts
    for x in minus.terms:
        expected = Counter()
        for P in parallelograms_from(generator_from_code(x, 2, 3), d):
            expected[(generator_code(P.target, 3), P.o_counts)] += 1
        assert set(minus.terms[x]) == {t for t, c in expected.items() if c % 2}


def test_early_stop_tilde_matches_counted_parallelograms():
    """The tilde boundary, built by the early-stop kernel, equals the mod-2
    collection of the counted parallelograms that meet no marker."""
    rng = random.Random(61)
    kept = 0
    for (p, q) in ((2, 1), (3, 1), (3, -2), (4, 1), (4, -1)):
        d = random_diagram(p, q, 3, rng)
        tilde = build_boundary(d, "tilde")
        for x in enumerate_generators(d):
            bucket = Counter(generator_code(P.target, p)
                             for P in parallelograms_from(x, d)
                             if not any(P.o_counts) and not any(P.x_counts))
            expected = {(y, (0, 0, 0)) for y, c in bucket.items() if c % 2}
            assert set(tilde.terms[generator_code(x, p)]) == expected, (d, x)
            kept += len(expected)
    assert kept > 0


def transpose(boundary):
    """The boundary with every term reversed: the wrong corner convention."""
    flipped = {x: [] for x in boundary.terms}
    for x, terms in boundary.terms.items():
        for (y, mono) in terms:
            flipped[y].append((x, mono))
    return dataclasses.replace(
        boundary, terms={x: tuple(sorted(v)) for x, v in flipped.items()})


def test_grading_drops_clean_and_reversed(monkeypatch):
    rng = random.Random(51)
    d = random_knot_diagram(3, 1, 2, rng)
    assert grading_drop_violations(d) == []
    # d^2 = 0 cannot tell the orientations apart; the grading drops can
    tilde = build_boundary(d, "tilde")
    assert square_is_zero(transpose(tilde))
    minus = build_boundary(d, "minus")
    assert boundary_export_lines(transpose(minus)) != boundary_export_lines(minus)
    original = complexes.parallelograms_in

    def reversed_corners(table, x, width):
        return [dataclasses.replace(P, source=P.target, target=P.source)
                for P in original(table, x, width)]

    monkeypatch.setattr(complexes, "parallelograms_in", reversed_corners)
    assert grading_drop_violations(d)


def test_export_lines_deterministic():
    d = L21
    lines = boundary_export_lines(build_boundary(d, "minus"))
    assert lines == boundary_export_lines(build_boundary(d, "minus"))
    assert all(" -> " in ln and "U0^" in ln and "U1^" in ln for ln in lines)
    x = Generator((0, 1), (0, 1))
    assert any(ln.startswith("[0 1|0 1] -> ") for ln in lines)


def golden_digests():
    """sha256 of each variant's export lines, per diagram of three sets.

    tests/golden/boundary_digests.json holds this dict as computed by the
    Fraction-based parallelogram engine that preceded the doubled-integer
    kernel; ``json.dumps(golden_digests(), indent=1, sort_keys=True)``
    regenerates it.
    """
    gn1, rnd = build_corpus()
    sets = {
        "selftest.build_corpus()": gn1 + rnd,
        "random_knot_diagrams(p, q, 3, 2, seed=1)": [
            d for (p, q) in ((3, 1), (3, -1), (5, 2))
            for d in random_knot_diagrams(p, q, 3, 2, seed=1)],
        "random_knot_diagrams(2, 1, 4, 1, seed=1)":
            random_knot_diagrams(2, 1, 4, 1, seed=1),
    }
    out = {}
    for name, diagrams in sets.items():
        rows = []
        for d in diagrams:
            row = {"grid": format_grid(d)}
            for variant in VARIANTS:
                text = "\n".join(boundary_export_lines(build_boundary(d, variant)))
                row[variant] = hashlib.sha256(text.encode()).hexdigest()
            rows.append(row)
        out[name] = rows
    return out


def test_boundary_exports_match_golden_digests():
    assert golden_digests() == json.loads(GOLDEN.read_text())


def oracle_tori():
    """Six tori: three with q < 0, one with n = 4, a diagram that need not
    be a knot, and one lifted square grid."""
    rng = random.Random(71)
    lens = [random_knot_diagram(3, -1, 3, rng),
            random_knot_diagram(5, -2, 2, rng),
            random_knot_diagram(2, -1, 4, rng),
            random_knot_diagram(4, 1, 3, rng),
            random_diagram(5, 2, 2, rng)]
    lifted = lift_diagram(random_knot_diagram(3, -1, 2, rng))
    return ([lens_torus(d) for d in lens]
            + [(lifted.N, 1, 0, lifted.O, lifted.X)])


def placements(n, p):
    """(Generator, columns) of every generator, in enumeration order."""
    for sigma in permutations(range(n)):
        for a in product(range(p), repeat=n):
            x = Generator(sigma, a)
            yield x, x.columns


@pytest.mark.parametrize("torus", oracle_tori(),
                         ids=lambda t: "n%d-p%d-q%d" % t[:3])
def test_table_matches_per_generator_oracle(torus):
    """For every generator, the table's admissible entries give the same
    targets, code deltas and O/X counts as the per-generator scan."""
    n, p = torus[0], torus[1]
    width = n * p
    table = parallelogram_table(torus)
    total = 0
    for x, cols in placements(n, p):
        expected = oracle.parallelograms(cols, torus)
        for (*_, o_counts, x_counts) in expected:
            assert set(o_counts) | set(x_counts) <= {0, 1}
        occupied = sum(1 << (t * width + c) for t, c in enumerate(cols))
        code = generator_code(x, p)
        found = []
        for (i, j), cells in table.items():
            for (delta, block, o_counts, x_counts, w, h, new_i, new_j) \
                    in cells[cols[i] * width + cols[j]]:
                if block & occupied:
                    continue
                target = list(cols)
                target[i], target[j] = new_i, new_j
                target = tuple(target)
                assert code + delta == generator_code(
                    Generator.from_columns(target), p)
                found.append((i, j, w, h, target, o_counts, x_counts))
        assert sorted(found) == sorted(expected), (torus, x)
        total += len(found)
    assert total > 0


def test_generator_codes_round_trip_and_sort_like_sort_key():
    rng = random.Random(72)
    for (p, q, n) in ((3, -1, 3), (5, 2, 2), (2, 1, 4), (7, 3, 1)):
        d = random_diagram(p, q, n, rng)
        gens = list(enumerate_generators(d))
        codes = [generator_code(x, p) for x in gens]
        assert [generator_from_code(c, n, p) for c in codes] == gens
        assert list(generator_codes(n, p)) == codes
        assert codes == sorted(set(codes))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert (sorted(shuffled, key=lambda x: generator_code(x, p))
                == sorted(shuffled, key=Generator.sort_key))


def test_grading_drops_catch_a_shifted_maslov_grading(monkeypatch):
    # negative control for the Maslov-drop check alone: shifting one
    # generator's Maslov grading by 1 leaves Spin^c and Alexander intact,
    # so the only violations are that generator's Maslov drops
    d = random_knot_diagram(3, 1, 2, random.Random(51))
    assert grading_drop_violations(d) == []
    gens = list(enumerate_generators(d))
    touching = Counter()
    for x in gens:
        for P in parallelograms_from(x, d):
            touching[P.source] += 1
            touching[P.target] += 1
    victim = max(gens, key=lambda x: (touching[x], x.sort_key()))
    real = complexes.gradings_table

    def shifted(diagram, generators):
        table = real(diagram, generators)
        table[victim] = dataclasses.replace(table[victim],
                                            maslov=table[victim].maslov + 1)
        return table

    monkeypatch.setattr(complexes, "gradings_table", shifted)
    violations = grading_drop_violations(d)
    assert len(violations) == touching[victim] > 0
    assert all(v.startswith("maslov drop") and repr(victim) in v
               for v in violations)
