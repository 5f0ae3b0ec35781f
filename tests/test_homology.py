import dataclasses
import random
from fractions import Fraction

import pytest

from lensgrid import (GridDiagram, LensParams, build_boundary,
                      enumerate_generators, enumerate_grid_number_one,
                      extract_hfk_hat, format_grid, generator_code, gf2_rank,
                      gradings_table, simplicity_report, tilde_homology)
from lensgrid import homology
from lensgrid.cli import main
from lensgrid.corpus import coprime_qs, random_knot_diagram
from lensgrid.errors import (InternalInvariantError, LensGridError,
                             SizeCapError)
from lensgrid.homology import (_divide_once, document_bytes,
                               homology_document)


def test_gf2_rank_small():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b101, 0b011, 0b110]) == 2
    assert gf2_rank([0b101, 0b011, 0b111]) == 3
    assert gf2_rank([0b1, 0b1, 0b1]) == 1


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
    gens = list(enumerate_generators(d))
    table = gradings_table(d, gens)
    groups = {}
    for x in gens:
        t = table[x]
        groups.setdefault((t.spin, t.alexander), {}).setdefault(
            t.maslov, []).append(generator_code(x, 3))
    expected = {s: {} for s in range(3)}
    for (s, a), levels in groups.items():
        ranks = {}
        for m, basis in levels.items():
            below = {y: k for k, y in enumerate(levels.get(m - 1, []))}
            rows = []
            for x in basis:
                row = 0
                for (y, _) in boundary.terms.get(x, ()):
                    row |= 1 << below[y]
                rows.append(row)
            ranks[m] = brute_force_rank(rows) if rows else 0
        for m, basis in levels.items():
            h = len(basis) - ranks.get(m, 0) - ranks.get(m + 1, 0)
            if h:
                expected[s][(m, a)] = h
    assert tilde_homology(d).classes == expected


def test_gradings_table_is_integer_relative_per_spin():
    rng = random.Random(1)
    d = random_knot_diagram(3, 1, 2, rng)
    gens = list(enumerate_generators(d))
    table = gradings_table(d, gens)
    assert set(table) == set(gens)
    # within one Spin^c class both gradings are integer-relative
    by_spin = {}
    for x in gens:
        by_spin.setdefault(table[x].spin, []).append(table[x])
    for triples in by_spin.values():
        base = triples[0]
        for t in triples:
            assert (t.maslov - base.maslov).denominator == 1
            assert (t.alexander - base.alexander).denominator == 1


def test_homology_ranks_levels_and_targets():
    # d(c) = d(d) = a + b, and e's two terms c + c cancel
    levels = {0: ["a", "b"], 1: ["c", "d"], 2: ["e"]}
    targets = {"a": [], "b": [], "c": ["a", "b"], "d": ["b", "a"],
               "e": ["c", "c"]}
    assert homology.homology_ranks(levels, targets.get) == {0: 1, 1: 1, 2: 1}
    targets["c"] = ["a", "d"]   # d sits at M = 1, not M = 0
    with pytest.raises(InternalInvariantError):
        homology.homology_ranks(levels, targets.get)


def test_misplaced_boundary_term_is_an_invariant_violation(
        monkeypatch, tmp_path, capsys):
    rng = random.Random(4)
    d = random_knot_diagram(3, 1, 2, rng)
    tilde_homology(d)

    def misplaced(*args):
        # the first term x -> y becomes x -> x, which stays at x's level
        terms = dict(build_boundary(*args).terms)
        x = next(x for x, out in terms.items() if out)
        terms[x] = ((x, terms[x][0][1]),) + terms[x][1:]
        return dataclasses.replace(build_boundary(*args), terms=terms)

    monkeypatch.setattr(homology, "build_boundary", misplaced)
    with pytest.raises(InternalInvariantError):
        tilde_homology(d)
    path = tmp_path / "d.grid"
    path.write_text(format_grid(d))
    assert main(["homology", str(path)]) == 3
    assert capsys.readouterr().err.startswith("internal invariant violated:")


def test_gn1_homology_rank_p():
    for p, q in ((5, 2), (3, -2)):
        for d in enumerate_grid_number_one(LensParams(p, q)):
            table = tilde_homology(d)
            assert table.total_rank() == p
            assert all(table.spin_rank(s) == 1 for s in range(p))
            hat = extract_hfk_hat(table)
            assert hat.extraction_exact
            assert simplicity_report(hat) == "simple"


def test_divide_once():
    v = {(Fraction(0), Fraction(0)): 1, (Fraction(-1), Fraction(-1)): 1}
    assert _divide_once(v) == {(Fraction(0), Fraction(0)): 1}
    assert _divide_once({(Fraction(0), Fraction(0)): 1,
                         (Fraction(-2), Fraction(-2)): 1}) is None
    square = {(Fraction(0), Fraction(0)): 1, (Fraction(-1), Fraction(-1)): 2,
              (Fraction(-2), Fraction(-2)): 1}
    assert _divide_once(_divide_once(square)) == {(Fraction(0), Fraction(0)): 1}


def test_extraction_identity_at_n1():
    d = enumerate_grid_number_one(LensParams(3, 1))[2]
    table = extract_hfk_hat(tilde_homology(d))
    assert table.extraction_exact
    assert table.hfk_hat == table.classes


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
            assert table.spin_rank(s) >= 2 ** (d.n - 1)


def test_euler_characteristic_matches_chain_level():
    rng = random.Random(3)
    for _ in range(6):
        p = rng.choice([2, 3])
        d = random_knot_diagram(p, rng.choice(coprime_qs(p)), 2, rng)
        gens = list(enumerate_generators(d))
        table = gradings_table(d, gens)
        hom = tilde_homology(d)
        for s in range(p):
            triples = [table[x] for x in gens if table[x].spin == s]
            base = triples[0].maslov
            chain = sum((-1) ** int(t.maslov - base) for t in triples)
            homol = sum((-1) ** int(m - base) * r
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


def test_piece_cap_refusal():
    rng = random.Random(4)
    d = random_knot_diagram(3, 1, 2, rng)
    with pytest.raises(SizeCapError):
        tilde_homology(d, piece_cap=1)


def test_document_bytes_deterministic():
    rng = random.Random(6)
    d = random_knot_diagram(5, 2, 2, rng)
    docs = {document_bytes(homology_document(
        extract_hfk_hat(tilde_homology(d, pivot=pivot))))
        for pivot in ("low", "high", "low")}
    assert len(docs) == 1
    blob = docs.pop().decode()
    assert "e-0" not in blob and "0." not in blob  # fractions, never decimals
