import dataclasses
import hashlib
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from lensgrid import (Generator, GridDiagram, LensParams, S3GridDiagram,
                      SizeCapError, ValidationError, boundary_export_lines,
                      build_boundary,
                      enumerate_generators, generator_code,
                      generator_from_code, grading_denominators,
                      grading_drop_violations, lift_diagram,
                      parallelograms_from, s3_tilde_homology, square_is_zero,
                      tilde_homology)
from lensgrid import complexes
from lensgrid.complexes import (SparseBoundary, generator_columns,
                                lens_torus, pack_term, parallelogram_table,
                                torus_winding)
from lensgrid.corpus import (coprime_qs, random_diagram, random_knot_diagram,
                             random_knot_diagrams)
from lensgrid.grid import code_blocks, format_grid
from lensgrid.selftest import build_corpus, criterion_05

import parallelogram_oracle as oracle
from parallelogram_reference import reference_table

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


def test_grid_number_one_tables_hold_nothing_quadratic_in_p():
    """At n = 1 there is no pair of rows: the table is empty, and its
    reader answers [] per code.  The 1 MB bound is far below the 27 MB
    of width-bit row masks, or the 3 MB of per-code digit tables, that
    either would take at this p."""
    p = 20011
    torus = lens_torus(GridDiagram(LensParams(p, 2), 1, ((0, 0),),
                                   ((7, 0),)))
    tracemalloc.start()
    try:
        table = parallelogram_table(torus, complexes.drop_mask("tilde", 1))
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        found = complexes.admissible_entries({}, 1, p)([0, p - 1])
        reader_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == {} and found == [[], []]
    assert table_peak < 2 ** 20 and reader_peak < 2 ** 20


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
            for (_, _, _, _, w, h, _, _, _) in cells[cols[i] * width + cols[j]]]


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


def unpack_term(term, n):
    """``(target, exponents)`` of a packed term of an n-row boundary: the
    decoder of ``SparseBoundary.terms``, inverse to ``pack_term``."""
    return term >> 2 * n, tuple(term >> 2 * (n - 1 - k) & 3
                                for k in range(n))


def tuple_terms(boundary):
    """The boundary's terms as sorted ``(target, exponents)`` pairs."""
    return {x: tuple(unpack_term(t, boundary.n) for t in out)
            for x, out in boundary.terms.items()}


def packed(terms):
    """A hand-built n = 2 boundary with ``(target, exponents)`` terms."""
    return SparseBoundary(n=2, p=2, terms={
        x: tuple(sorted(pack_term(y, e) for y, e in out))
        for x, out in terms.items()})


def reference_square_is_zero(n, terms):
    """The d^2 = 0 check on ``(target, exponents)`` terms, as it was before
    terms were packed: exponent vectors are packed into the digits of one
    integer, wide enough that adding two of them never carries, and a
    term z U^e of the square becomes the single key ``z << shift | e``."""
    exponents = {e for out in terms.values() for _, e in out}
    top = max((max(e, default=0) for e in exponents), default=0)
    digit = (2 * top).bit_length()
    packed = {e: sum(v << (digit * k) for k, v in enumerate(e))
              for e in exponents}
    shift = digit * n
    keyed = {x: [(y << shift) + packed[e] for y, e in out]
             for x, out in terms.items()}
    for out in terms.values():
        keys = [key + packed[e] for y, e in out for key in keyed.get(y, ())]
        keys.sort()
        if keys[::2] != keys[1::2]:
            return False
    return True


def test_packed_terms_round_trip_and_refuse_big_exponents():
    for term in ((0, ()), (5, (1, 0)), (12, (0, 1, 1)), (3, (1, 1, 1, 1))):
        assert unpack_term(pack_term(*term), len(term[1])) == term
    # packed order is the order of the (target, exponents) tuples
    pairs = sorted((y, e) for y in range(4) for e in product((0, 1), repeat=3))
    assert sorted(pairs, key=lambda t: pack_term(*t)) == pairs
    for bad in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            pack_term(1, bad)


@pytest.mark.parametrize("found, kept", [
    ([7, 3, 5], (3, 5, 7)),                  # no repeat: the fast return
    ([9, 4, 9, 1], (1, 4)),                  # one pair cancels
    ([6, 2, 6, 6], (2, 6)),                  # a triple is kept once
    ([5, 8, 1, 8, 5, 3], (1, 3)),            # two pairs cancel
])
def test_odd_terms_keep_each_term_of_odd_multiplicity(found, kept):
    # the walk over the sorted list, as the mod-2 sum of terms
    walk = []
    for term in sorted(found):
        if walk and walk[-1] == term:
            walk.pop()
        else:
            walk.append(term)
    odd = tuple(sorted(t for t, c in Counter(found).items() if c % 2))
    assert complexes._odd_terms(list(found)) == tuple(walk) == odd == kept


def test_packed_square_check_matches_the_reference():
    """The packed d^2 check agrees with the tuple-keyed reference on every
    variant, and on boundaries with one term deleted, which it rejects."""
    rng = random.Random(83)
    rejected = 0
    for (p, n) in ((3, 2), (5, 2), (2, 3), (3, 3), (2, 4)):
        d = random_diagram(p, rng.choice(coprime_qs(p)), n, rng)
        for variant in VARIANTS:
            boundary = build_boundary(d, variant)
            terms = tuple_terms(boundary)
            assert square_is_zero(boundary)
            assert reference_square_is_zero(n, terms)
            x = rng.choice([x for x, out in terms.items() if out] or [None])
            if x is None:
                continue
            cut = dict(boundary.terms)
            cut[x] = cut[x][1:]
            verdict = square_is_zero(dataclasses.replace(boundary, terms=cut))
            assert verdict == reference_square_is_zero(
                n, {**terms, x: terms[x][1:]})
            rejected += not verdict
    assert rejected > 0


def test_square_is_zero_keeps_exponent_digits_apart():
    # 0 -> 3 through 1 with U_1 * U_1 and through 2 with U_0: if the U_1
    # digit could carry into U_0 the two paths would wrongly cancel
    terms = {0: ((1, (0, 1)), (2, (0, 0))), 1: ((3, (0, 1)),),
             2: ((3, (1, 0)),), 3: ()}
    assert not square_is_zero(packed(terms))
    assert not reference_square_is_zero(2, terms)


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
                bucket[pack_term(generator_code(P.target, 3), (0, 0))] += 1
            truncated[generator_code(x, 3)] = tuple(sorted(
                t for t, c in bucket.items() if c % 2))
        truncated = dataclasses.replace(full, terms=truncated)
        verdict = square_is_zero(truncated)
        assert verdict == reference_square_is_zero(2, tuple_terms(truncated))
        if not verdict:
            found += 1
    assert found > 0


def test_square_is_zero_tells_monomials_apart():
    # 0 -> 3 along two paths, through 1 with U_0 * U_0 and through 2 with
    # U_1: different monomials, which must not cancel
    terms = {0: ((1, (1, 0)), (2, (0, 0))), 1: ((3, (1, 0)),),
             2: ((3, (0, 1)),), 3: ()}
    assert not square_is_zero(packed(terms))
    assert not reference_square_is_zero(2, terms)
    terms[0] = ((1, (1, 0)), (2, (1, 0)))
    terms[2] = ((3, (1, 0)),)
    assert square_is_zero(packed(terms))
    assert reference_square_is_zero(2, terms)


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
    tilde, graded, hat, minus = (tuple_terms(build_boundary(d, v))
                                 for v in VARIANTS)
    zero = (0, 0)
    for x in minus:
        m_terms = set(minus[x])
        assert set(hat[x]) == {t for t in m_terms if t[1][0] == 0}
        assert set(graded[x]) <= m_terms
        assert set(tilde[x]) == {t for t in graded[x] if t[1] == zero}
    # monomial exponents record the O counts
    for x in minus:
        expected = Counter()
        for P in parallelograms_from(generator_from_code(x, 2, 3), d):
            expected[(generator_code(P.target, 3), P.o_counts)] += 1
        assert set(minus[x]) == {t for t, c in expected.items() if c % 2}


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
            expected = {pack_term(y, (0, 0, 0))
                        for y, c in bucket.items() if c % 2}
            assert set(tilde.terms[generator_code(x, p)]) == expected, (d, x)
            kept += len(expected)
    assert kept > 0


def transpose(boundary):
    """The boundary with every term reversed: the wrong corner convention."""
    flipped = {x: [] for x in boundary.terms}
    for x, terms in tuple_terms(boundary).items():
        for (y, mono) in terms:
            flipped[y].append(pack_term(x, mono))
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
    original = complexes.admissible_entries

    def reversed_corners(table, n, p):
        # each generator reads the entries that lead into it, delta negated
        entries_of = original(table, n, p)
        codes = [code for code, _ in generator_columns(n, p)]
        incoming = {}
        for code, found in zip(codes, entries_of(codes)):
            for entry in found:
                incoming.setdefault(code + entry[0], []).append(
                    (-entry[0],) + entry[1:])
        return lambda batch: [incoming.get(code, []) for code in batch]

    monkeypatch.setattr(complexes, "admissible_entries", reversed_corners)
    assert grading_drop_violations(d)


def test_grading_drops_name_a_spin_change(monkeypatch):
    d = random_knot_diagram(3, 1, 2, random.Random(51))
    n, p = d.n, d.lens.p
    moved = min(code for code, out in build_boundary(d, "minus").terms.items()
                if out)
    real = complexes.gradings_table

    def reclassed(diagram, generators):
        table = real(diagram, generators)
        table[moved] = table[moved]._replace(spin=(table[moved].spin + 1) % p)
        return table

    monkeypatch.setattr(complexes, "gradings_table", reclassed)
    violations = grading_drop_violations(d)
    assert violations
    assert all(v.startswith("spin changes ") for v in violations)
    assert any(v.startswith("spin changes %r -> "
                            % (generator_from_code(moved, n, p),))
               for v in violations)


def test_build_boundary_refuses_an_unknown_variant():
    with pytest.raises(ValidationError) as refused:
        build_boundary(L21, "bogus")
    assert refused.value.violations == ["unknown boundary variant 'bogus'"]


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


def oracle_diagrams():
    """Five lens diagrams (three with q < 0, one with n = 4, one that need
    not be a knot) and one lifted square grid."""
    rng = random.Random(71)
    lens = [random_knot_diagram(3, -1, 3, rng),
            random_knot_diagram(5, -2, 2, rng),
            random_knot_diagram(2, -1, 4, rng),
            random_knot_diagram(4, 1, 3, rng),
            random_diagram(5, 2, 2, rng)]
    return lens, lift_diagram(random_knot_diagram(3, -1, 2, rng))


def oracle_tori():
    """The tori of ``oracle_diagrams``, the lifted square grid last."""
    lens, lifted = oracle_diagrams()
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
            for (delta, block, o_counts, x_counts, w, h, new_i, new_j, key) \
                    in cells[cols[i] * width + cols[j]]:
                assert key == pack_term(delta, o_counts)
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


def reference_tori():
    """The n >= 2 diagrams of both golden digest files, long-winding knots
    (L(7,3) n=3, L(13,5) n=2-3, q of both signs) on whose tilde tables the
    kernel's per-row walk stops before its last height, and a lifted
    square grid."""
    gn1, rnd = build_corpus()
    golden = [d for d in gn1 + rnd if d.n > 1]
    for p, q, n, count in ((3, 1, 3, 2), (3, -1, 3, 2), (5, 2, 3, 2),
                           (2, 1, 4, 1), (11, 3, 2, 2)):
        golden += random_knot_diagrams(p, q, n, count, seed=1)
    winding = [d for p, q, n in ((7, 3, 3), (7, -3, 3), (13, 5, 2),
                                 (13, -5, 2), (13, 5, 3), (13, -5, 3))
               for d in random_knot_diagrams(p, q, n, 1, seed=1)]
    return [lens_torus(d) for d in golden + winding] + oracle_tori()[-1:]


def test_table_equals_the_band_by_band_reference():
    """The per-row walk builds the reference's table exactly: the same
    cells, and the same entries in the same order inside each cell."""
    for torus in reference_tori():
        for variant in VARIANTS:
            drop = complexes.drop_mask(variant, torus[0])
            table = parallelogram_table(torus, drop)
            reference = reference_table(torus, drop)
            assert table == reference, (torus[:3], variant)
            assert list(table) == list(reference)


def reader_diagrams():
    """Random diagrams with n = 2..4, knots or not, q of both signs."""
    rng = random.Random(73)
    return [random_diagram(p, q, n, rng)
            for p, q, n in ((3, 1, 2), (5, -2, 2), (3, -1, 3), (4, 1, 3),
                            (2, 1, 4), (2, -1, 4))]


def oracle_entries(cols, torus, drop):
    """``(w, h, target columns, O counts, X counts)`` of the oracle's
    parallelograms from ``cols`` that meet no marker of ``drop``."""
    n = torus[0]
    return sorted((w, h, target, o, x)
                  for (_, _, w, h, target, o, x)
                  in oracle.parallelograms(cols, torus)
                  if not any(o[k] and drop >> k & 1
                             or x[k] and drop >> n + k & 1
                             for k in range(n)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_reader_matches_per_generator_oracle(variant):
    """``entries_of(codes)`` gives, per code of the batch, the admissible
    entries of the variant's table, as the scan finds them."""
    total = 0
    for d in reader_diagrams():
        n, p = d.n, d.lens.p
        torus, drop = lens_torus(d), complexes.drop_mask(variant, n)
        entries_of = complexes.admissible_entries(
            parallelogram_table(torus, drop), n, p)
        pairs = list(generator_columns(n, p))
        codes = [code for code, _ in pairs]
        assert entries_of([]) == []
        batch = entries_of(codes)
        assert len(batch) == len(codes)
        for (code, cols), found in zip(pairs, batch):
            got = []
            for (delta, _, o_counts, x_counts, w, h, *_) in found:
                target = generator_from_code(code + delta, n, p).columns
                got.append((w, h, target, o_counts, x_counts))
            assert sorted(got) == oracle_entries(cols, torus, drop), (d, cols)
            total += len(got)
        # a batch in any order, a code repeated, reads each code alone
        shuffled = (random.Random(75).sample(codes, min(len(codes), 20))
                    + [codes[-1]] * 2)
        by_code = dict(zip(codes, batch))
        assert entries_of(shuffled) == [by_code[c] for c in shuffled]
    assert total > 0


def test_every_table_read_goes_through_the_one_reader(monkeypatch):
    """With the reader swapped for one that raises, at every binding the
    package looks it up by, every path to the parallelogram table fails."""
    class Refused(Exception):
        pass

    def refuse(*args):
        raise Refused

    bound = [(module, name) for module in list(sys.modules.values())
             if module and module.__name__.startswith("lensgrid")
             for name, value in vars(module).items()
             if value is complexes.admissible_entries]
    assert {m.__name__ for m, _ in bound} >= {"lensgrid.complexes",
                                              "lensgrid.homology"}
    for module, name in bound:
        monkeypatch.setattr(module, name, refuse)
    d = random_knot_diagram(3, -1, 2, random.Random(74))
    trefoil = S3GridDiagram(
        5, tuple(((r - 1) % 5, r) for r in range(5)),
        tuple(((r + 1) % 5, r) for r in range(5)))
    calls = [lambda: tilde_homology(d),
             lambda: s3_tilde_homology(trefoil),
             lambda: grading_drop_violations(d),
             lambda: parallelograms_from(Generator((0, 1), (0, 0)), d)]
    calls += [lambda v=v: build_boundary(d, v) for v in VARIANTS]
    for call in calls:
        with pytest.raises(Refused):
            call()


def test_parallelograms_from_matches_per_generator_oracle():
    """The object view names the moved rows by residue; the scan, which
    shares no code with the table, names them by construction."""
    total = 0
    for d in oracle_diagrams()[0]:
        for x in enumerate_generators(d):
            cols = x.columns
            found = []
            for P in parallelograms_from(x, d):
                i, j = P.moved_rows
                assert P.source == x and P.sw == (cols[i], i)
                found.append((i, j, P.width, P.height, P.target.columns,
                              P.o_counts, P.x_counts))
            expected = oracle.parallelograms(cols, lens_torus(d))
            assert sorted(found) == sorted(expected), (d, x)
            total += len(found)
    assert total > 0


def test_checks_build_no_parallelogram_objects(monkeypatch):
    def refuse(**fields):
        raise AssertionError("a Parallelogram was built")

    monkeypatch.setattr(complexes, "Parallelogram", refuse)
    d = random_knot_diagram(3, 1, 2, random.Random(51))
    with pytest.raises(AssertionError):   # the patch is on the object path
        for x in enumerate_generators(d):
            parallelograms_from(x, d)
    assert grading_drop_violations(d) == []
    ok, detail = criterion_05(*build_corpus())
    assert ok
    assert detail == "identities exact on 17200 parallelograms"


def test_generator_codes_round_trip_and_sort_like_sort_key():
    rng = random.Random(72)
    for (p, q, n) in ((3, -1, 3), (5, 2, 2), (2, 1, 4), (7, 3, 1)):
        d = random_diagram(p, q, n, rng)
        gens = list(enumerate_generators(d))
        codes = [generator_code(x, p) for x in gens]
        assert [generator_from_code(c, n, p) for c in codes] == gens
        assert list(generator_columns(n, p)) == [
            (code, x.columns) for code, x in zip(codes, gens)]
        assert codes == sorted(set(codes))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert (sorted(shuffled, key=lambda x: generator_code(x, p))
                == sorted(shuffled, key=Generator.sort_key))


def test_code_blocks_pin_the_code_layout():
    # p = 1 is the square grid's case; the reference list is built by the
    # encoder, which code_blocks does not call
    for n, p in product(range(1, 5), range(1, 6)):
        blocks = list(code_blocks(n, p))
        label = complexes.label_decoder(n, p)
        assert all(len(codes) == p ** n for codes, _ in blocks)
        assert [codes.start for codes, _ in blocks] == sorted(
            {codes.start for codes, _ in blocks})
        assert [code for codes, _ in blocks for code in codes] == [
            generator_code(Generator(sigma, a), p)
            for sigma in permutations(range(n))
            for a in product(range(p), repeat=n)]
        for codes, sigma in blocks:
            assert generator_from_code(codes.start, n, p).sigma == sigma
            named = "[%s|" % " ".join(map(str, sigma))
            assert all(label(code).startswith(named) for code in codes)


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
    code = generator_code(victim, 3)
    real = complexes.gradings_table
    dm = grading_denominators(d)[0]
    assert dm > 1

    def shifted(diagram, generators):
        # the table holds numerators: M + 1 adds the Maslov denominator
        table = real(diagram, generators)
        table[code] = table[code]._replace(maslov=table[code].maslov + shift)
        return table

    monkeypatch.setattr(complexes, "gradings_table", shifted)
    # M + 1, then M + 1/dm, whose drops are not integers
    for shift in (dm, 1):
        violations = grading_drop_violations(d)
        assert len(violations) == touching[victim] > 0
        assert all(v.startswith("maslov drop") and repr(victim) in v
                   for v in violations)
        # the whole message: the drop as a fraction, the O count, the move
        expected = []
        for x in gens:
            for P in parallelograms_from(x, d):
                if victim in (P.source, P.target):
                    n_o = sum(P.o_counts)
                    drop = ((1 - 2 * n_o) * dm
                            + (shift if P.source == victim else -shift))
                    expected.append("maslov drop %s != 1 - 2*%d for %r -> %r"
                                    % (str(Fraction(drop, dm)), n_o,
                                       P.source, P.target))
        assert sorted(violations) == sorted(expected)
