import copy
import dataclasses
import fractions
import json
import random
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from lensgrid import (Generator, GridDiagram, LensParams, S3GridDiagram,
                      build_boundary, enumerate_grid_number_one,
                      extract_hfk_hat, format_grid, generator_columns,
                      gf2_rank, grading_denominators, gradings_table,
                      s3_tilde_homology, simplicity_report, tilde_homology)
from lensgrid import complexes, gradings, homology
from lensgrid.cli import main
from lensgrid.corpus import coprime_qs, random_knot_diagram
from lensgrid.errors import (InternalInvariantError, LensGridError,
                             SizeCapError)
from lensgrid.document import (Rows, document_bytes, document_text,
                               write_document)
from lensgrid.homology import (HomologyTable, _divide_once,
                               homology_document, rational_text)


def test_gf2_rank_small():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b101, 0b011, 0b110]) == 2
    assert gf2_rank([0b101, 0b011, 0b111]) == 3
    assert gf2_rank([0b1, 0b1, 0b1]) == 1
    with pytest.raises(LensGridError) as refused:
        gf2_rank([0b1], "middle")
    assert str(refused.value) == "unknown pivot strategy 'middle'"


def test_gf2_rank_pivot_strategies_agree():
    rng = random.Random(5)
    for _ in range(100):
        rows = [rng.getrandbits(12) for _ in range(rng.randrange(1, 10))]
        assert gf2_rank(rows, "low") == gf2_rank(rows, "high")


def brute_force_rank(rows):
    # dimension of the row span, by enumerating every F2 combination
    span = set()
    for mask in range(1 << len(rows)):
        v = 0
        for k, row in enumerate(rows):
            if mask >> k & 1:
                v ^= row
        span.add(v)
    dim = 0
    while (1 << dim) < len(span):
        dim += 1
    assert 1 << dim == len(span)
    return dim


def test_gf2_rank_against_brute_force():
    rng = random.Random(6)
    for _ in range(60):
        rows = [rng.getrandbits(6) for _ in range(rng.randrange(1, 7))]
        assert gf2_rank(rows) == brute_force_rank(rows)


def test_gf2_rank_row_order_independent():
    rng = random.Random(7)
    for _ in range(40):
        rows = [rng.getrandbits(10) for _ in range(8)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert gf2_rank(rows) == gf2_rank(shuffled)


def test_tilde_homology_against_brute_force_pieces():
    # recompute one diagram's homology with the chain-level ranks done by
    # exhaustive span enumeration instead of elimination
    rng = random.Random(8)
    d = random_knot_diagram(3, 1, 2, rng)
    boundary = build_boundary(d, "tilde")
    table = gradings_table(d, list(generator_columns(d.n, 3)))
    dm, da = grading_denominators(d)
    groups = {}   # on the integer numerators of the gradings
    for code, t in table.items():
        groups.setdefault((t.spin, t.alexander), {}).setdefault(
            t.maslov, []).append(code)
    expected = {s: {} for s in range(3)}
    for (s, a), levels in groups.items():
        ranks = {}
        for m, basis in levels.items():
            below = {y: k for k, y in enumerate(levels.get(m - dm, []))}
            rows = []
            for x in basis:
                row = 0
                for term in boundary.terms.get(x, ()):
                    y = term >> 2 * d.n   # the target of a packed term
                    row |= 1 << below[y]
                rows.append(row)
            ranks[m] = brute_force_rank(rows) if rows else 0
        for m, basis in levels.items():
            h = len(basis) - ranks.get(m, 0) - ranks.get(m + dm, 0)
            if h:
                expected[s][(m, a)] = h
    assert tilde_homology(d).classes == expected


def test_tilde_homology_builds_no_generator(monkeypatch):
    # inside the pipeline a generator is its code and column tuple; a
    # Generator object per generator would cost memory at every size
    d = random_knot_diagram(3, 1, 3, random.Random(12))
    expected = tilde_homology(d)
    built = []
    real = Generator.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Generator, "__init__", counting)
    assert tilde_homology(d) == expected
    assert built == []


def test_gradings_table_is_integer_relative_per_spin():
    rng = random.Random(1)
    d = random_knot_diagram(3, 1, 2, rng)
    gens = list(generator_columns(d.n, 3))
    table = gradings_table(d, gens)
    dm, da = grading_denominators(d)
    assert set(table) == {code for code, _ in gens}
    # within one Spin^c class both gradings are integer-relative
    by_spin = {}
    for code, _ in gens:
        by_spin.setdefault(table[code].spin, []).append(table[code])
    for triples in by_spin.values():
        base = triples[0]
        for t in triples:
            assert Fraction(t.maslov - base.maslov, dm).denominator == 1
            assert Fraction(t.alexander - base.alexander, da).denominator == 1


def test_homology_ranks_levels_and_targets():
    # d(c) = d(d) = a + b, and e's two terms c + c cancel
    a, b, c, d, e = range(5)
    levels = {0: [a, b], 1: [c, d], 2: [e]}
    targets = {a: [], b: [], c: [a, b], d: [b, a], e: [c, c]}

    def entries_of(codes):
        # the reader's batch shape: per code, entries whose delta leads
        # to each target
        return [[(y - x,) for y in targets[x]] for x in codes]

    assert homology.homology_ranks(levels, entries_of) == {0: 1, 1: 1, 2: 1}
    targets[c] = [a, d]   # d sits at M = 1, not M = 0
    with pytest.raises(InternalInvariantError):
        homology.homology_ranks(levels, entries_of)


def test_misplaced_boundary_term_is_an_invariant_violation(
        monkeypatch, tmp_path, capsys):
    rng = random.Random(4)
    d = random_knot_diagram(3, 1, 2, rng)
    tilde_homology(d)
    # only the A >= 0 pieces are eliminated, so the victim sits in one
    table = gradings_table(d, generator_columns(d.n, 3))
    victim = next(x for x, out in build_boundary(d, "tilde").terms.items()
                  if out and table[x].alexander >= 0)
    real = homology.admissible_entries

    def misplaced(*args):
        # the first term x -> y becomes x -> x (code delta 0), which stays
        # at x's level
        entries_of = real(*args)

        def moved(codes):
            return [[(0,) + found[0][1:]] + found[1:] if code == victim
                    else found
                    for code, found in zip(codes, entries_of(codes))]
        return moved

    monkeypatch.setattr(homology, "admissible_entries", misplaced)
    with pytest.raises(InternalInvariantError):
        tilde_homology(d)
    path = tmp_path / "d.grid"
    path.write_text(format_grid(d))
    assert main(["homology", str(path)]) == 3
    assert capsys.readouterr().err.startswith("internal invariant violated:")


def test_rank_invariant_violations(monkeypatch):
    d = random_knot_diagram(3, 1, 2, random.Random(4))
    # a boundary rank above its level's size leaves a negative rank
    monkeypatch.setattr(homology, "gf2_rank",
                        lambda rows, pivot="high": len(rows) + 1)
    with pytest.raises(InternalInvariantError,
                       match=r"^negative homology rank at M=-?\d+$"):
        tilde_homology(d)
    monkeypatch.undo()
    # no homology at all leaves each class below the tensor factor's rank
    monkeypatch.setattr(homology, "homology_ranks", lambda *args: {})
    with pytest.raises(InternalInvariantError) as raised:
        tilde_homology(d)
    assert str(raised.value) == "Spin^c class 0 has rank 0 < 2^(n-1) = 2"


def test_a_lost_generator_of_a_grid_number_one_knot_trips_the_rank_floor(
        monkeypatch):
    # with n = 1 the ranks are generator counts; one generator fewer leaves
    # its class empty
    d = enumerate_grid_number_one(LensParams(7, 3))[2]
    assert tilde_homology(d).total_rank() == 7
    real = homology.permutation_gradings
    lost = []

    def dropping(diagram):
        for codes, spins, maslovs, alexanders in real(diagram):
            lost.append(spins[-1])
            yield codes[:-1], spins[:-1], maslovs[:-1], alexanders[:-1]

    monkeypatch.setattr(homology, "permutation_gradings", dropping)
    with pytest.raises(InternalInvariantError) as raised:
        tilde_homology(d)
    assert str(raised.value) == (
        "Spin^c class %d has rank 0 < 2^(n-1) = 1" % lost[0])


@pytest.mark.parametrize("gradings", ("own", "shared"))
def test_two_generators_in_one_grid_number_one_class_trip_the_rank_floor(
        monkeypatch, gradings):
    # with n = 1 each rank is set to 1, not counted: a generator moved into
    # another's class, at its own gradings or at the other's, leaves its
    # own class empty, and the rank floor names that class
    d = enumerate_grid_number_one(LensParams(7, 3))[2]
    real = homology.permutation_gradings
    emptied = []

    def moving(diagram):
        for codes, spins, maslovs, alexanders in real(diagram):
            emptied.append(spins[-1])
            if gradings == "shared":
                maslovs = maslovs[:-1] + maslovs[:1]
                alexanders = alexanders[:-1] + alexanders[:1]
            yield codes, spins[:-1] + spins[:1], maslovs, alexanders

    monkeypatch.setattr(homology, "permutation_gradings", moving)
    with pytest.raises(InternalInvariantError) as raised:
        tilde_homology(d)
    assert str(raised.value) == (
        "Spin^c class %d has rank 0 < 2^(n-1) = 1" % emptied[0])


def test_gn1_homology_rank_p():
    for p, q in ((5, 2), (3, -2)):
        for d in enumerate_grid_number_one(LensParams(p, q)):
            table = tilde_homology(d)
            assert table.total_rank() == p
            assert all(sum(table.classes[s].values()) == 1 for s in range(p))
            hat = extract_hfk_hat(table)
            assert hat.extraction_exact
            assert simplicity_report(hat) == "simple"


def test_divide_once():
    v = {(Fraction(0), Fraction(0)): 1, (Fraction(-1), Fraction(-1)): 1}
    assert _divide_once(v, (1, 1)) == {(Fraction(0), Fraction(0)): 1}
    assert _divide_once({(Fraction(0), Fraction(0)): 1,
                         (Fraction(-2), Fraction(-2)): 1}, (1, 1)) is None
    square = {(Fraction(0), Fraction(0)): 1, (Fraction(-1), Fraction(-1)): 2,
              (Fraction(-2), Fraction(-2)): 1}
    assert (_divide_once(_divide_once(square, (1, 1)), (1, 1))
            == {(Fraction(0), Fraction(0)): 1})
    # integer numerators over (3, 4): the step is (3, 4)
    assert _divide_once({(2, 1): 1, (-1, -3): 1}, (3, 4)) == {(2, 1): 1}
    assert _divide_once({(2, 1): 1, (-1, -2): 1}, (3, 4)) is None


def test_extraction_matches_division_on_fraction_keys():
    # each class is a polynomial times (1 + u^-1 v^-1)^exponent, its keys
    # the numerators of fractions over random denominators (so its terms
    # reduce to unlike denominators); a stray term makes class 1 inexact
    rng = random.Random(8)
    for _ in range(60):
        exponent = rng.randrange(1, 4)
        dm, da = rng.choice((1, 2, 3, 4, 12)), rng.choice((1, 2, 5, 10))
        classes = {}
        for s in range(3):
            poly = {}
            for _ in range(rng.randrange(1, 4)):
                m = rng.randrange(-9 * dm, 9 * dm)
                a = rng.randrange(-9 * da, 9 * da)
                poly[m, a] = poly.get((m, a), 0) + 1
            for _ in range(exponent):
                times = {}
                for (m, a), r in poly.items():
                    for key in ((m, a), (m - dm, a - da)):
                        times[key] = times.get(key, 0) + r
                poly = times
            classes[s] = poly
        if rng.random() < 0.3:
            classes[1][99 * dm, 0] = 1
        table = extract_hfk_hat(HomologyTable(3, exponent, classes,
                                              denominators=(dm, da)))
        expected = {}
        for s, poly in classes.items():
            for _ in range(exponent):
                poly = poly and _divide_once(poly, (dm, da))
            expected[s] = poly
        if all(expected.values()):
            assert table.extraction_exact and table.note == ""
            assert table.hfk_hat == expected
            assert all(type(m) is int and type(a) is int
                       for by in table.hfk_hat.values() for m, a in by)
        else:
            assert not table.extraction_exact
            assert table.hfk_hat == classes
            assert table.note == ("rank polynomial of Spin^c class 1 is not "
                                  "divisible by (1 + u^-1 v^-1)^%d" % exponent)


def test_extraction_identity_at_n1():
    d = enumerate_grid_number_one(LensParams(3, 1))[2]
    table = extract_hfk_hat(tilde_homology(d))
    assert table.extraction_exact
    assert table.hfk_hat == table.classes


def test_extraction_copies_no_undivided_class():
    # at tensor exponent 0 the extracted classes are the tilde ones, so
    # the document's equality test is one identity check per class
    table = tilde_homology(enumerate_grid_number_one(LensParams(7, 3))[2])
    hat = extract_hfk_hat(table)
    assert hat.extraction_exact
    assert all(hat.hfk_hat[s] is table.classes[s] for s in range(7))
    # an inexact extraction keeps the tilde table itself
    inexact = extract_hfk_hat(HomologyTable(1, 1, {0: {(0, 0): 1}},
                                            denominators=(1, 1)))
    assert not inexact.extraction_exact
    assert inexact.hfk_hat is inexact.classes
    # a division starts from the class itself, and leaves it as it was
    table = tilde_homology(random_knot_diagram(3, 1, 2, random.Random(9)))
    before = copy.deepcopy(table.classes)
    assert extract_hfk_hat(table).extraction_exact
    assert table.classes == before


def test_extraction_exact_on_random_knots():
    rng = random.Random(2)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        d = random_knot_diagram(p, rng.choice(coprime_qs(p)), 2, rng)
        table = extract_hfk_hat(tilde_homology(d))
        assert table.extraction_exact, (d, table.note)
        assert table.total_rank() == 2 * table.hat_total_rank()
        assert table.hat_total_rank() >= p
        for s in range(p):
            assert sum(table.classes[s].values()) >= 2 ** (d.n - 1)


def test_euler_characteristic_matches_chain_level():
    rng = random.Random(3)
    for _ in range(6):
        p = rng.choice([2, 3])
        d = random_knot_diagram(p, rng.choice(coprime_qs(p)), 2, rng)
        gens = list(generator_columns(d.n, p))
        table = gradings_table(d, gens)
        dm = grading_denominators(d)[0]
        hom = tilde_homology(d)
        for s in range(p):
            triples = [table[code] for code, _ in gens
                       if table[code].spin == s]
            base = Fraction(triples[0].maslov, dm)
            chain = sum((-1) ** int(Fraction(t.maslov, dm) - base)
                        for t in triples)
            homol = sum((-1) ** int(Fraction(m, dm) - base) * r
                        for (m, a), r in hom.classes[s].items())
            assert chain == homol


def test_simplicity_classification_branches():
    # frozen placements found by scanning random two-row knot diagrams
    near = GridDiagram(LensParams(3, 2), 2, ((0, 0), (5, 1)), ((3, 0), (2, 1)))
    table = extract_hfk_hat(tilde_homology(near))
    assert table.hat_total_rank() == 5
    assert simplicity_report(table) == "near-simple"
    other = GridDiagram(LensParams(5, 2), 2, ((7, 0), (2, 1)), ((0, 0), (9, 1)))
    table = extract_hfk_hat(tilde_homology(other))
    assert table.hat_total_rank() == 9
    assert simplicity_report(table) == "other"


def test_simplicity_requires_exact_extraction():
    d = enumerate_grid_number_one(LensParams(3, 1))[1]
    table = tilde_homology(d)
    with pytest.raises(LensGridError):
        simplicity_report(table)


def test_an_empty_class_and_an_unextracted_table():
    assert homology._polynomial([]) == "0"
    table = tilde_homology(enumerate_grid_number_one(LensParams(3, 1))[1])
    assert table.hat_total_rank() is None
    doc = homology_document(
        dataclasses.replace(table, classes={**table.classes, 0: {}}))
    assert doc["classes"]["0"] == [] and doc["poincare"]["0"] == "0"
    assert "hfk_hat" not in doc and "hat_total_rank" not in doc


def test_piece_cap_refusal():
    rng = random.Random(4)
    d = random_knot_diagram(3, 1, 2, rng)
    with pytest.raises(SizeCapError):
        tilde_homology(d, piece_cap=1)


def test_targets_are_read_only_inside_the_piece_being_eliminated(
        monkeypatch):
    # the boundary is read one Maslov level at a time, and only for the
    # members of the (S, A) piece under elimination; only the A >= 0
    # pieces are eliminated
    d = random_knot_diagram(3, 1, 3, random.Random(21))
    expected = tilde_homology(d)
    table = gradings_table(d, generator_columns(3, 3))
    current, asked = set(), []
    real_ranks, real_reader = (homology.homology_ranks,
                               homology.admissible_entries)

    def ranks(levels, entries_of, *args):
        current.clear()
        current.update(code for basis in levels.values() for code in basis)
        return real_ranks(levels, entries_of, *args)

    def local_reader(*args):
        entries_of = real_reader(*args)

        def checked(codes):
            for code in codes:
                assert code in current, "code %d outside its piece" % code
            asked.extend(codes)
            return entries_of(codes)
        return checked

    monkeypatch.setattr(homology, "homology_ranks", ranks)
    monkeypatch.setattr(homology, "admissible_entries", local_reader)
    assert tilde_homology(d) == expected
    assert sorted(asked) == [code for code, t in sorted(table.items())
                             if t.alexander >= 0]


def test_tilde_homology_reads_each_maslov_level_in_one_batch(monkeypatch):
    # one reader call per (S, A, M) level of the A >= 0 pieces, over that
    # level's whole basis, never one call per generator
    d = random_knot_diagram(3, -1, 3, random.Random(24))
    expected = tilde_homology(d)
    table = gradings_table(d, generator_columns(3, 3))
    levels = {}
    for code, t in table.items():
        if t.alexander >= 0:
            levels.setdefault(t, []).append(code)
    piece_of = {code: (t.spin, t.alexander) for code, t in table.items()}
    real = homology.admissible_entries
    batches, readers = [], []

    def counting(*args):
        readers.append(args)
        entries_of = real(*args)

        def batch(codes):
            batches.append(list(codes))
            return entries_of(codes)
        return batch

    monkeypatch.setattr(homology, "admissible_entries", counting)
    assert tilde_homology(d) == expected
    assert len(readers) == 1
    assert len(batches) == len(levels) < len(table)
    assert sorted(map(sorted, batches)) == sorted(map(sorted, levels.values()))
    # the levels of one piece are read together, one piece after another
    pieces = [piece_of[codes[0]] for codes in batches]
    assert all(piece_of[code] == piece for codes, piece in zip(batches, pieces)
               for code in codes)
    assert len(set(pieces)) == len([k for k, g in groupby(pieces)])


def test_tilde_homology_builds_no_whole_boundary(monkeypatch):
    d = random_knot_diagram(3, 1, 3, random.Random(22))
    expected = tilde_homology(d)

    def unreachable(*args):
        raise AssertionError("the whole boundary was collected")

    monkeypatch.setattr(complexes, "collect_terms", unreachable)
    monkeypatch.setattr(complexes, "_odd_terms", unreachable)
    assert tilde_homology(d) == expected


def test_tilde_homology_builds_no_grading_table(monkeypatch):
    # each permutation's gradings come as three lists from
    # permutation_gradings: no GradingTriple and no table of every
    # generator on the homology path
    d = random_knot_diagram(3, -1, 3, random.Random(23))
    expected = tilde_homology(d)

    def unreachable(*args):
        raise AssertionError("a per-generator grading was built")

    monkeypatch.setattr(homology, "gradings_table", unreachable)
    monkeypatch.setattr(gradings, "GradingTriple", unreachable)
    assert tilde_homology(d) == expected


def test_hat_rows_reuse_the_tilde_rows(monkeypatch):
    # with tensor exponent 0 the extracted ranks are the tilde ranks, so
    # each class is formatted once: p calls of _rank_rows, not 2p
    calls = []
    real = homology._rank_rows

    def counting(by_bigrading, denominators):
        calls.append(by_bigrading)
        return real(by_bigrading, denominators)

    monkeypatch.setattr(homology, "_rank_rows", counting)
    gn1 = GridDiagram(LensParams(7, 3), 1, ((0, 0),), ((4, 0),))
    doc = homology_document(extract_hfk_hat(tilde_homology(gn1)))
    assert len(calls) == 7
    assert doc["hfk_hat"] == doc["classes"]
    # an extracted table that differs from the tilde one is formatted anew
    calls.clear()
    two_row = random_knot_diagram(3, 1, 2, random.Random(9))
    doc = homology_document(extract_hfk_hat(tilde_homology(two_row)))
    assert len(calls) == 6
    assert doc["hfk_hat"] != doc["classes"]


def test_extraction_at_tensor_exponent_zero_copies_nothing():
    # one generator per class at grid number one: nothing to divide, so
    # hfk_hat is the classes dict itself, and the document writes it once
    table = extract_hfk_hat(tilde_homology(
        GridDiagram(LensParams(7, 3), 1, ((0, 0),), ((4, 0),))))
    assert table.hfk_hat is table.classes and table.extraction_exact
    doc = homology_document(table)
    assert doc["hfk_hat"] is doc["classes"]


def test_homology_tables_hold_integer_numerators(monkeypatch):
    # a table's keys are integer numerators over its own denominators,
    # and no Fraction is built between the gradings and the bytes
    knots = [GridDiagram(LensParams(7, 3), 1, ((0, 0),), ((4, 0),)),
             random_knot_diagram(3, 1, 3, random.Random(12))]
    unknot = S3GridDiagram(2, ((0, 0), (1, 1)), ((1, 0), (0, 1)))
    square = s3_tilde_homology(unknot)
    cases = [(square, (1, 4)), (extract_hfk_hat(square), (1, 4))]
    for d in knots:
        tilde = tilde_homology(d)
        cases += [(tilde, grading_denominators(d)),
                  (extract_hfk_hat(tilde), grading_denominators(d))]
    for table, denominators in cases:
        assert table.denominators == denominators
        for by in (*table.classes.values(),
                   *(table.hfk_hat or {}).values()):
            assert all(type(m) is int and type(a) is int for m, a in by)
    expected = [document_bytes(homology_document(extract_hfk_hat(
        tilde_homology(d)))) for d in knots]

    def unreachable(*args, **kwargs):
        raise AssertionError("built a Fraction")

    # d_invariant's cache is warm, so grading builds no Fraction either
    monkeypatch.setattr(fractions.Fraction, "__new__", unreachable)
    with pytest.raises(AssertionError, match="built a Fraction"):
        fractions.Fraction(1, 2)
    assert [document_bytes(homology_document(extract_hfk_hat(
        tilde_homology(d)))) for d in knots] == expected


def test_document_bytes_deterministic():
    rng = random.Random(6)
    d = random_knot_diagram(5, 2, 2, rng)
    docs = {document_bytes(homology_document(
        extract_hfk_hat(tilde_homology(d, pivot=pivot))))
        for pivot in ("low", "high", "low")}
    assert len(docs) == 1
    blob = docs.pop().decode()
    assert "e-0" not in blob and "0." not in blob  # fractions, never decimals


def test_rational_text_matches_fraction():
    for num in range(-50, 51):
        for den in range(1, 25):
            assert rational_text(num, den) == str(Fraction(num, den))


# document values: text with quotes, backslashes, control and non-ASCII
# characters, ints past 64 bits, bools and None, nested in dicts with str
# keys, lists and tuples, empty ones included
_SPECIAL = '"\\/\n\t\x00\x1f\x7f\xe9\u2028\U0001f600'
_text = st.text(st.sampled_from(_SPECIAL) | st.characters(), max_size=8)
_scalars = st.one_of(_text, st.integers(), st.integers(-2 ** 80, 2 ** 80),
                     st.booleans(), st.none())
_documents = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_text, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_document_bytes_match_json_dumps(doc):
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert document_bytes(doc) == expected.encode()


class _Key(str):
    """A str subclass, which documents refuse as a key."""


# row lists: two or more dicts with one key set (in any insertion order,
# "%" in the keys), whose values are scalars, documents or empty dicts,
# sometimes with one other item among them
_keys = st.text(st.sampled_from(_SPECIAL + "%sd") | st.characters(),
                max_size=6)
_values = st.one_of(_scalars, _documents, st.just({}))
_rows = st.lists(_keys, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.permutations(keys).flatmap(
        lambda order: st.fixed_dictionaries({k: _values for k in order})),
        min_size=2, max_size=5))
_row_lists = _rows | st.tuples(_rows, _documents, st.integers(0, 5)).map(
    lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


@settings(max_examples=100, deadline=None)
@given(_row_lists)
def test_row_lists_match_json_dumps(rows):
    # rows * 103: more than 256 rows, written a block of rows at a time
    for doc in (rows, {"rows": rows}, [[rows], rows], rows * 103):
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert document_bytes(doc) == expected.encode()


@settings(max_examples=100, deadline=None)
@given(_row_lists | st.lists(_documents, min_size=1, max_size=4))
def test_shared_lists_match_json_dumps(shared):
    """One list object under two keys, at the same indent and at two."""
    for doc in ({"a": shared, "b": shared},
                {"a": shared, "b": {"c": shared}, "d": [shared]}):
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert document_bytes(doc) == expected.encode()


@pytest.mark.parametrize("doc", [1.5, {"rows": [{"M": 0.25}]}, {1, 2},
                                 [frozenset()], {1: "x"}, {"a": {2: 0}},
                                 {"a": 1, 2: "b"}, Fraction(1, 2),
                                 {"rows": [{"M": 1}, {"M": 0.25}]},
                                 [{1: "a"}, {1: "b"}],
                                 [{_Key("a"): 1}, {_Key("a"): 2}]])
def test_document_bytes_refuse_other_types(doc):
    with pytest.raises(TypeError):
        document_bytes(doc)


# lazy rows: sorted distinct keys ("%" among them), one tuple of values per
# row, repeated to a row count on either side of a multiple of 256
_row_sets = st.lists(_keys, max_size=4, unique=True).map(sorted).flatmap(
    lambda keys: st.tuples(st.just(tuple(keys)), st.lists(
        st.tuples(*[_values] * len(keys)), min_size=1, max_size=3)))


def _rows_in(part, indent):
    """The rows of a document part whose list items start at ``indent``."""
    return part.count("\n" + " " * indent + "{")


@settings(max_examples=100, deadline=None)
@given(_row_sets, st.sampled_from([0, 1, 2, 256, 257, 513]), st.booleans())
def test_lazy_rows_match_json_dumps(row_set, count, one_shot):
    keys, distinct = row_set
    values = [distinct[k % len(distinct)] for k in range(count)]
    dicts = [dict(zip(keys, t)) for t in values]
    rows = Rows(keys, iter(values) if one_shot else values)
    assert document_text({"rows": rows}) == json.dumps(
        {"rows": dicts}, indent=2, sort_keys=True) + "\n"
    # one Rows under two keys, written in parts of at most 256 rows
    shared = Rows(keys, values)
    doc = {"a": shared, "b": shared, "c": {"d": shared}}
    parts = []
    write_document(doc, parts.append)
    assert "".join(parts) == document_text(doc) == json.dumps(
        {"a": dicts, "b": dicts, "c": {"d": dicts}}, indent=2,
        sort_keys=True) + "\n"
    assert all(_rows_in(part, 4) + _rows_in(part, 6) <= 256 for part in parts)
    assert len(parts) >= 3 * count // 256
    # a mapping of count short Rows, zero to two rows each
    by_key = {str(k): Rows(keys, values[:k % 3]) for k in range(count)}
    parts = []
    write_document(by_key, parts.append)
    assert "".join(parts) == json.dumps(
        {k: list(rows) for k, rows in by_key.items()}, indent=2,
        sort_keys=True) + "\n"
    assert all(_rows_in(part, 4) <= 256 for part in parts)


def test_rows_read_as_row_dicts():
    rows = Rows(("A", "M"), [("0", "1/2"), ("1", "3/2")])
    assert list(rows) == [{"A": "0", "M": "1/2"}, {"A": "1", "M": "3/2"}]
    assert rows == list(rows) and rows != [] and Rows((), []) == []


@pytest.mark.parametrize("rows", [
    Rows(("A", "M"), [("0", "1"), ("1",)]),     # a tuple of the wrong length
    Rows(("A", "M"), [("0", "1"), ("1", "2", "3"), ("2",)]),
    Rows(("A", 1), [("0", "1")]),               # a key that is not str
    Rows(("A", _Key("M")), [("0", "1")]),
    Rows(("A", "M"), [("0", 0.5)]),             # a float value
])
def test_lazy_rows_refuse_other_rows(rows):
    with pytest.raises(TypeError):
        document_text({"rows": rows})
