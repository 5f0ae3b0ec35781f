import contextlib
import hashlib
import io
import json
import random
from bisect import bisect_left, insort
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lensgrid import (Generator, GridDiagram, LensParams, ValidationError,
                      alexander_grading, canonical_generator, d_invariant,
                      dominance_count, generator_code, generator_columns,
                      grading_denominators, gradings_table, maslov_grading,
                      spin_grading, tilde_homology)
from lensgrid import gradings, homology
from lensgrid.cover import lift_points
from lensgrid.gradings import (_dedekind_sum_6k, _grading_tables,
                               _lift_non_inversions, _marker_cross_table,
                               _pair_table, permutation_gradings)
from lensgrid.cli import main
from lensgrid.corpus import (coprime_qs, random_knot_diagram,
                             random_knot_diagrams)
from lensgrid.errors import KnotRequiredError
from lensgrid.grid import enumerate_grid_number_one, format_grid
from lensgrid.selftest import build_corpus

from benchmark_shapes import KNOT_HOMOLOGY_SHAPES

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
    for p in (0, -3, True, False, 2.0, None):
        with pytest.raises(ValidationError) as refused:
            d_invariant(p, 1, 0)
        assert refused.value.violations == [
            "range-error: d-invariant needs integer p >= 1, got %r" % (p,)]


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


def non_inversions(seq):
    """Number of pairs i < j with seq[i] < seq[j]."""
    seen = []
    total = 0
    for v in seq:
        total += bisect_left(seen, v)
        insort(seen, v)
    return total


def sweep_marker_cross_table(cells, p, q, n):
    """``_marker_cross_table`` by one sweep over the cover's n*p rows, kept
    as its reference: ``below[C]`` counts the markers in lower rows with
    column < C, and the markers weakly above-right of (C, R) number
    ``width - R - C + below[C]``.  O((n*p)**2) steps."""
    width = n * p
    marker_col = [0] * width
    for (c, row) in lift_points(cells, p, q, n):
        marker_col[row] = c
    below = [0] * width
    cross = [[0] * width for _ in range(n)]
    self_count = 0
    for row in range(width):
        vals = [width - row - c + 2 * b for c, b in enumerate(below)]
        # the lift of cell (c, row % n) into this row sits in column c + shift
        shift = n * q * (row // n) % width
        rotated = vals[shift:] + vals[:shift]
        r = row % n
        cross[r] = [s + v for s, v in zip(cross[r], rotated)]
        mc = marker_col[row]
        self_count += below[mc]
        below[mc + 1:] = [b + 1 for b in below[mc + 1:]]
    return cross, self_count


def interleaved_pair_term(c1, c2, p, q, n):
    """``_pair_table``'s entry for columns c1, c2 of rows t1 < t2, kept as
    its reference: read by row, the lifts interleave as c1, c2, c1 + nq,
    c2 + nq, ... (mod n*p), and the cross pairs are the non-inversions of
    that sequence less those of each component's own lifts."""
    width = n * p
    seq = []
    for k in range(p):
        shift = n * q * k
        seq += ((c1 + shift) % width, (c2 + shift) % width)
    own = [non_inversions(seq[i::2]) for i in (0, 1)]
    return non_inversions(seq) - sum(own)


def qs_of(p):
    return coprime_qs(p) or [1, -1]    # p = 1: every q gives the sphere


def fraction_dedekind_sum(h, k):
    """Dedekind sum s(h, k) for coprime h and k >= 1 in exact Fractions, by
    the reciprocity s(h, k) + s(k, h) = (h*h + k*k + 1) / (12*h*k) - 1/4:
    the reference of the integer ``_dedekind_sum_6k``."""
    total, sign = Fraction(0), 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


def test_integer_dedekind_sum_matches_fractions():
    cases = [(h, k) for k in range(1, 61) for h in range(-k, 2 * k + 1)
             if gcd(h, k) == 1]
    rng = random.Random(16)
    for k in (20011, 200003):
        cases += [(h, k) for h in [1, 2, 3, k - 1, k - 2, k + 2, -5]
                  + rng.sample(range(1, k), 300) if gcd(h, k) == 1]
    for h, k in cases:
        assert _dedekind_sum_6k(h, k) == 6 * k * fraction_dedekind_sum(h, k), \
            (h, k)


def test_lift_non_inversions_match_the_count():
    # NI[0] comes from a Dedekind sum, the rest from a recurrence
    for p in range(1, 120):
        for q in range(1, max(p, 2)):
            if gcd(p, q) == 1:
                ni = _lift_non_inversions(p, q % p)
                assert ni[0] == non_inversions([q * k % p for k in range(p)])
                if p <= 30:
                    assert ni == [non_inversions([(a + q * k) % p
                                                  for k in range(p)])
                                  for a in range(p)]


def test_marker_cross_table_matches_the_cover_sweep():
    rng = random.Random(14)
    for _ in range(520):
        p = rng.randint(1, 40)
        q = rng.choice(qs_of(p))
        n = rng.randint(1, 5)
        sigma = rng.sample(range(n), n)
        cells = tuple((sigma[t] + n * rng.randrange(p), t) for t in range(n))
        ni = _lift_non_inversions(p, q % p)
        sweep, self_count = sweep_marker_cross_table(cells, p, q, n)
        assert _marker_cross_table(cells, p, q % p, n, ni) \
            == ([[row[s::n] for s in range(n)] for row in sweep],
                self_count), (p, q, n, cells)


def test_pair_table_matches_the_interleaved_count():
    rng = random.Random(15)
    cases = [(p, q, n) for n in (2, 3, 4) for p in range(1, 14)
             for q in qs_of(p)]
    for p, q, n in rng.sample(cases, 60) + [(13, 5, 2), (11, -3, 3), (7, 2, 4)]:
        table = _pair_table(p, q % p, n, _lift_non_inversions(p, q % p))
        assert len(table) == n * (n - 1)
        for (s1, s2), terms in table.items():
            assert s1 != s2 and len(terms) == p
            for a1, line in enumerate(terms):
                assert len(line) == p
                for a2, value in enumerate(line):
                    c1, c2 = s1 + n * a1, s2 + n * a2
                    assert value == interleaved_pair_term(c1, c2, p, q, n), \
                        (p, q, n, c1, c2)


@pytest.mark.parametrize("q", [2, -7919])
def test_grid_number_one_maslov_at_large_p(q):
    # every generator of a grid-number-one knot is alone in its Spin^c
    # class with M = d(p, q, S); through the cover sweep this diagram took
    # minutes
    p = 20011
    d = GridDiagram(LensParams(p, q), 1, ((0, 0),), ((7, 0),))
    table = gradings_table(d, generator_columns(1, p))
    dm, _ = grading_denominators(d)
    assert sorted(t.spin for t in table.values()) == list(range(p))
    for t in table.values():
        assert Fraction(t.maslov, dm) == d_invariant(p, q, t.spin)


def bulk_gradings(d):
    """``permutation_gradings(d)`` as ``{code: (S, M, A)}``."""
    size = d.lens.p ** d.n
    out = {}
    for codes, spins, maslovs, alexanders in permutation_gradings(d):
        assert len(spins) == len(maslovs) == len(alexanders) == size
        out.update(zip(codes, zip(spins, maslovs, alexanders)))
    return out


def reference_gradings(d):
    """``{code: (S, M, A)}`` summed generator by generator over the
    per-diagram tables: the per-(residue, sheet) terms of each row and the
    pair term of each pair of rows, as ``_grading_tables`` states them,
    with no per-permutation carrying."""
    (p, n, spin_base, maslov_base, alexander_base, maslov_rows,
     alexander_rows, pair) = _grading_tables(d)
    sigma_sum = n * (n - 1) // 2
    out = {}
    for code, cols in generator_columns(n, p):
        # the columns are sigma + n*a with sigma a permutation
        out[code] = (
            (spin_base + (sum(cols) - sigma_sum) // n) % p,
            sum(row[c % n][c // n] for row, c in zip(maslov_rows, cols))
            + sum(pair[c1 % n, c2 % n][c1 // n][c2 // n]
                  for c1, c2 in combinations(cols, 2)) + maslov_base,
            sum(row[c % n][c // n] for row, c in zip(alexander_rows, cols))
            + alexander_base)
    return out


def test_permutation_gradings_match_gradings_table():
    # the bulk reader and the gradings_table view over it, against the
    # per-generator sums
    rng = random.Random(16)
    diagrams = []
    for n in (1, 2, 3, 4):
        for k in range(6):
            p = rng.randint(2, 7)
            q = rng.choice([q for q in coprime_qs(p) if (q > 0) == (k % 2)])
            diagrams.append(random_knot_diagram(p, q, n, rng))
    for q in (2, -7919):
        diagrams.append(GridDiagram(LensParams(20011, q), 1, ((0, 0),),
                                    ((7, 0),)))
    for d in diagrams:
        reference = reference_gradings(d)
        table = gradings_table(d, generator_columns(d.n, d.lens.p))
        assert {code: tuple(t) for code, t in table.items()} == reference, d
        bulk = bulk_gradings(d)
        assert bulk == reference, d
        # q and q mod p give the same lens space and the same torus
        reduced = GridDiagram(LensParams(d.lens.p, d.lens.q % d.lens.p),
                              d.n, d.O, d.X)
        assert bulk_gradings(reduced) == bulk, d


def test_permutation_gradings_blocks_cover_the_codes_in_order():
    # the stream's contract: one block of p^n codes per permutation, the
    # blocks' codes together being generator_columns' codes in order
    rng = random.Random(27)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            p = rng.randint(2, 5)
            d = random_knot_diagram(p, rng.choice(coprime_qs(p)), n, rng)
            blocks = [codes for codes, *_ in permutation_gradings(d)]
            assert all(len(codes) == p ** n for codes in blocks), d
            assert [code for codes in blocks for code in codes] == [
                code for code, _ in generator_columns(n, p)], d


def test_readers_take_each_blocks_codes_as_given(monkeypatch):
    # the same blocks in reverse order, their codes as lists and each
    # block's generators reversed too, give the same homology and the same
    # gradings table: no reader rebuilds the block layout from a code
    diagrams = [d for p, q, n in KNOT_HOMOLOGY_SHAPES
                for d in random_knot_diagrams(p, q, n, 1, seed=1)]
    expected = [(tilde_homology(d),
                 gradings_table(d, generator_columns(d.n, d.lens.p)))
                for d in diagrams]
    real = permutation_gradings

    def reversed_blocks(diagram):
        return [[list(values)[::-1] for values in block]
                for block in reversed(list(real(diagram)))]
    monkeypatch.setattr(homology, "permutation_gradings", reversed_blocks)
    monkeypatch.setattr(gradings, "permutation_gradings", reversed_blocks)
    for d, (ranks, table) in zip(diagrams, expected):
        assert tilde_homology(d) == ranks, d
        got = gradings_table(d, generator_columns(d.n, d.lens.p))
        assert list(got.items()) == list(table.items()), d


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
